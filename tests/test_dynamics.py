"""Geodesic and deviation-field integration against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igac import dynamics as dyn
from igac import models as md
from igac import scenarios as sc
from igac.errors import BvpFailureError, ChartBoundaryError, \
    ParameterError, UndefinedRateError

from conftest import carrier, ode_flow

PARAMS = sc.ScatterConfig(1.0, 0.25, 1.0)


def wavepacket_metric(r):
    return md.analytic_fisher(
        md.gaussian_bivariate_corr(0.0, 0.0, PARAMS.sigma_peak, r=r))


def wavepacket_start(r, branch="after"):
    p = PARAMS
    amp = p.mean_amplitude * (np.sqrt(1 - r) if branch == "after" else 1.0)
    th0 = np.array([0.0, 0.0, p.sigma_peak])
    v0 = np.array([-amp * p.a0, amp * p.a0, 0.0])
    return p, th0, v0


def test_speed_drift_is_relative_to_a_positive_start_speed():
    path = dyn.path_from_functions(
        np.array([0.0, 1.0, 2.0]), lambda t: np.multiply.outer(t, [1.0]),
        lambda t: np.multiply.outer(1.0 + 0.1 * np.asarray(t), [1.0]),
        md.flat_metric(1))
    assert path.speed_drift == float(np.max(np.abs(path.speed
                                                   / path.speed[0] - 1.0)))
    still = dyn.integrate_geodesic(md.flat_metric(2), [0.0, 1.0],
                                   [0.0, 0.0], 1.0)
    assert still.speed_drift == 0.0


def test_flat_geodesic_is_straight_line():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 2.0], 3.0, tol=1e-10)
    assert path.theta[-1] == pytest.approx([3.0, 6.0], abs=1e-9)
    assert np.max(np.abs(path.speed - 5.0)) < 1e-9


@pytest.mark.parametrize("branch,r", [("before", 0.0), ("after", 0.5)])
def test_wavepacket_geodesics_match_closed_forms(branch, r):
    p, th0, v0 = wavepacket_start(r, branch)
    metric = wavepacket_metric(r)
    sign = -1.0 if branch == "before" else 1.0
    path = dyn.integrate_geodesic(metric, th0, v0, sign * 5.0 / p.a0,
                                  tol=1e-10)
    mu1, mu2, sig = sc.wavepacket_geodesics(p, r, path.tau_grid, branch)
    closed = np.column_stack([mu1, mu2, sig])
    assert np.max(np.abs(path.theta - closed)) < 1e-6
    assert np.max(np.abs(path.speed / path.speed[0] - 1.0)) < 1e-8


def test_time_reversal():
    p, th0, v0 = wavepacket_start(0.3)
    metric = wavepacket_metric(0.3)
    fwd = dyn.integrate_geodesic(metric, th0, v0, 2.0, tol=1e-11)
    th1, v1 = fwd.theta[-1], fwd.theta_dot[-1]
    back = dyn.integrate_geodesic(metric, th1, -v1, 2.0, tol=1e-11)
    assert np.max(np.abs(back.theta[-1] - th0)) < 1e-6


def test_chart_boundary_error_carries_state():
    metric = wavepacket_metric(0.0)
    _, th0, v0 = wavepacket_start(0.0)
    with pytest.raises(ChartBoundaryError) as err:
        dyn.integrate_geodesic(metric, th0, v0, 50.0, tol=1e-9)
    tau, theta, _ = err.value.last_state
    assert 0 < tau < 50.0
    assert theta[2] == pytest.approx(1e-8, rel=1e-3)


def test_jacobi_carrier_at_chart_boundary_carries_state():
    metric = wavepacket_metric(0.0)
    _, th0, v0 = wavepacket_start(0.0)
    with pytest.raises(ChartBoundaryError) as err:
        dyn.integrate_jacobi(metric, th0, v0, np.linspace(0.0, 50.0, 65),
                             np.zeros(3), dyn.normal_direction(metric, th0,
                                                               v0))
    tau, theta, theta_dot = err.value.last_state
    assert 0 < tau < 50.0
    assert theta[2] == pytest.approx(1e-8, rel=1e-3)
    # the real carrier, not the complex-step column that carries it
    assert theta.shape == theta_dot.shape == (3,)
    assert not np.iscomplexobj(theta) and not np.iscomplexobj(theta_dot)


@pytest.mark.parametrize("n_out", [1, 0, -3, 2.5, True, "9"])
def test_path_needs_two_points_or_more(n_out):
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    with pytest.raises(ParameterError) as err:
        dyn.integrate_geodesic(metric, [0.0, 1.0], [1.0, 0.5], 2.0,
                               n_out=n_out)
    assert [f for f, _ in err.value.failures] == ["n_out"]
    with pytest.raises(ParameterError):
        dyn.solve_geodesic_bvp(metric, [0.2, 1.1], [-0.1, 1.5], 1.0,
                               n_out=n_out)
    path = dyn.integrate_geodesic(metric, [0.0, 1.0], [1.0, 0.5], 2.0,
                                  n_out=np.int64(2))
    assert path.tau_grid.tolist() == [0.0, 2.0]


def test_bvp_flat():
    m = md.flat_metric(2)
    path = dyn.solve_geodesic_bvp(m, [0.0, 0.0], [3.0, 6.0], 3.0, tol=1e-10)
    assert path.theta_dot[0] == pytest.approx([1.0, 2.0], abs=1e-8)


def test_bvp_wavepacket_endpoints_from_closed_forms():
    p, th0, _ = wavepacket_start(0.5)
    metric = wavepacket_metric(0.5)
    tau_span = 2.0 / p.a0
    mu1, mu2, sig = sc.wavepacket_geodesics(p, 0.5, tau_span, "after")
    path = dyn.solve_geodesic_bvp(metric, th0, [mu1, mu2, sig], tau_span,
                                  tol=1e-9)
    m1, m2, s = sc.wavepacket_geodesics(p, 0.5, path.tau_grid, "after")
    assert np.max(np.abs(path.theta - np.column_stack([m1, m2, s]))) < 1e-5


def test_bvp_rejects_boundary_endpoint():
    metric = wavepacket_metric(0.0)
    _, th0, _ = wavepacket_start(0.0)
    with pytest.raises(ChartBoundaryError):
        dyn.solve_geodesic_bvp(metric, th0, [1.0, -1.0, 0.0], 1.0)


def test_bvp_rejects_boundary_start():
    # a start outside the chart is bad input, rejected like a bad endpoint
    metric = wavepacket_metric(0.0)
    _, th0, _ = wavepacket_start(0.0)
    with pytest.raises(ChartBoundaryError, match="initial point"):
        dyn.solve_geodesic_bvp(metric, [1.0, -1.0, 0.0], th0, 1.0)


def test_bvp_failure_reports_residual():
    p, th0, _ = wavepacket_start(0.5)
    metric = ode_flow(wavepacket_metric(0.5))
    tau_span = 3.0 / p.a0
    mu1, mu2, sig = sc.wavepacket_geodesics(p, 0.5, tau_span, "after")
    with pytest.raises(BvpFailureError) as err:
        dyn.solve_geodesic_bvp(metric, th0, [mu1, mu2, sig], tau_span,
                               tol=1e-12, max_iter=1)
    assert err.value.best_residual > 0


PAIR = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))


@pytest.fixture
def shots(monkeypatch):
    """(v, outcome) of every shot the BVP takes while the test runs, the
    outcome "ok" or "exit" for one that left the chart."""
    log = []
    shoot = dyn._shoot

    def recording(metric, theta, v, tau_span, tol):
        try:
            out = shoot(metric, theta, v, tau_span, tol)
        except ChartBoundaryError:
            log.append((np.copy(v), "exit"))
            raise
        log.append((np.copy(v), "ok"))
        return out

    monkeypatch.setattr(dyn, "_shoot", recording)
    return log


@pytest.mark.parametrize("flow", ["closed", "ode"])
def test_bvp_halves_shots_that_leave_the_chart(shots, flow):
    path = dyn.solve_geodesic_bvp(
        PAIR if flow == "closed" else ode_flow(PAIR), [-14.0, 1.0],
        [14.0, 1.0], 1.0)
    assert np.max(np.abs(path.theta[-1] - [14.0, 1.0])) < 1e-8
    if flow == "closed":
        # the log map starts on the arc itself, which rises to the radius
        # sqrt(98 + 1) of its circle in the chart x = mu / sqrt(2): no shot
        assert shots == []
        assert path.theta[256] == pytest.approx([0.0, np.sqrt(99.0)],
                                                rel=1e-14, abs=1e-14)
        return
    # the straight-line guess v = (28, 0) dives through the floor of the
    # (mean, spread) half-plane and is halved back in; the first Newton
    # candidate after it dives too, and is halved toward the accepted v
    assert [outcome for _, outcome in shots[:4]] == ["exit", "ok", "exit",
                                                     "exit"]
    (guess, _), (v, _), (cand, _), (next_cand, _) = shots[:4]
    assert np.array_equal(v, 0.5 * guess)
    assert np.allclose(next_cand - v, 0.5 * (cand - v), rtol=1e-12, atol=0)


@pytest.mark.parametrize("flow", ["closed", "ode"])
def test_bvp_without_an_in_chart_shot_reports_no_residual(shots, flow):
    floor = md._CHART_FLOOR
    if flow == "closed":
        # the log map leaves the floor on the arc over both points, which
        # rises to s = 1e10 / sqrt(8) above mu = 5e9 and lands exactly
        path = dyn.solve_geodesic_bvp(PAIR, [0.0, floor], [1e10, floor],
                                      1.0)
        assert np.max(np.abs(path.theta[-1] - [1e10, floor])) < 1e-8
        assert path.theta[256] == pytest.approx([5e9, 1e10 / np.sqrt(8.0)],
                                                rel=1e-14)
        assert shots == []
        return
    # from a start on the floor every horizontal shot dives below it, down
    # to v = 1e10 / 2^59 (a = 0.6 in the half-plane's rate)
    with pytest.raises(BvpFailureError, match="no in-chart initial shot") \
            as err:
        dyn.solve_geodesic_bvp(ode_flow(PAIR), [0.0, floor], [1e10, floor],
                               1.0)
    assert err.value.best_residual == np.inf
    assert [outcome for _, outcome in shots] == ["exit"] * 60


@pytest.mark.parametrize("flow", ["closed", "ode"])
def test_bvp_exhausted_line_search_reports_best_residual(shots, flow):
    # at tol = 0 Newton runs until no halved step lowers the residual
    metric = PAIR if flow == "closed" else ode_flow(PAIR)
    with pytest.raises(BvpFailureError, match="did not reach") as err:
        dyn.solve_geodesic_bvp(metric, [0.2, 1.1], [-0.1, 1.5], 1.0,
                               tol=0.0, max_iter=1000)
    assert 0.0 <= err.value.best_residual < 1e-8
    assert len(shots) < 1000
    assert all(outcome == "ok" for _, outcome in shots)
    # the message names why shooting stopped and the shots it took
    assert f"after {len(shots)} shots: no halved Newton step lowered " \
        f"the residual {err.value.best_residual}" in str(err.value)


@pytest.mark.parametrize("flow", ["closed", "ode"])
def test_bvp_at_the_newton_cap_reports_it(shots, flow):
    if flow == "closed":
        # the log map's path lands without a Newton iteration; at tol = 0
        # it misses at round-off, and one shot from it meets a cap of 0
        dyn.solve_geodesic_bvp(PAIR, [0.2, 1.1], [-0.1, 1.5], 1.0,
                               max_iter=0)
        assert shots == []
        with pytest.raises(BvpFailureError, match="did not reach") as err:
            dyn.solve_geodesic_bvp(PAIR, [0.2, 1.1], [-0.1, 1.5], 1.0,
                                   tol=0.0, max_iter=0)
        assert str(err.value).endswith(
            "after 1 shots: Newton reached its cap of 0 iterations")
        assert len(shots) == 1
        return
    with pytest.raises(BvpFailureError, match="did not reach") as err:
        dyn.solve_geodesic_bvp(ode_flow(PAIR), [0.2, 1.1], [-0.1, 1.5], 1.0,
                               tol=0.0, max_iter=3)
    assert str(err.value).endswith(
        f"after {len(shots)} shots: Newton reached its cap of 3 iterations")
    assert len(shots) == 4


def test_closed_form_flows_evaluate_once(monkeypatch, shots):
    """A closed-form Jacobi field and each BVP shot take one
    ``MetricField.flow`` call: the complex-step evaluation, whose first
    column carries the geodesic in its real part."""
    calls = []
    flow = md.MetricField.flow
    monkeypatch.setattr(md.MetricField, "flow", lambda m, *args:
                        calls.append(args) or flow(m, *args))
    metric = wavepacket_metric(0.3)
    p, th0, v0 = wavepacket_start(0.3)
    dyn.integrate_jacobi(metric, th0, v0, np.linspace(0.0, 5.0 / p.a0, 9),
                         np.zeros(3), dyn.normal_direction(metric, th0, v0))
    assert len(calls) == 1
    calls.clear()
    metric, start, end = BVP_WORK_CASES[1]
    dyn.solve_geodesic_bvp(metric, start, end, 1.0, tol=1e-8)
    # the shots, then the final path
    assert len(calls) == len(shots) + 1


def test_flow_returns_the_arrays_its_callers_read():
    p, th0, v0 = wavepacket_start(0.3)
    grid = np.linspace(0.0, 2.0, 7)
    block = (np.zeros((3, 2)), np.eye(3)[:, :2])
    for metric in (wavepacket_metric(0.3), ode_flow(wavepacket_metric(0.3))):
        out, j, j_dot = dyn._flow(metric, th0, v0, (0.0, 2.0), 1e-10, 1e-12,
                                  block=block, t_eval=grid)
        assert isinstance(out, dyn.GeodesicPath)
        assert np.array_equal(out.tau_grid, grid)
        assert out.theta.shape == out.theta_dot.shape == (7, 3)
        assert out.speed.shape == (7,)
        assert j.shape == j_dot.shape == (7, 3, 2)
        bare, j, _ = dyn._flow(metric, th0, v0, (0.0, 2.0), 1e-10, 1e-12,
                               t_eval=grid, dense_output=True)
        assert j.shape == (7, 3, 0)
        assert np.allclose(bare.theta, out.theta, rtol=1e-9, atol=1e-12)
        theta, theta_dot = bare.state(grid[3])
        assert np.allclose(theta, bare.theta[3], rtol=1e-9, atol=1e-12)
        assert np.allclose(theta_dot, bare.theta_dot[3], rtol=1e-9,
                           atol=1e-12)


BVP_WORK_CASES = [
    # (metric, start, end): pair, bivariate, macro and an 8-D mixed product
    (md.analytic_fisher(md.gaussian_diag([0.0], [1.0])),
     [0.2, 1.1], [-0.1, 1.5]),
    (md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.4)),
     [0.3, -0.5, 0.9], [0.1, -0.2, 1.3]),
    (md.macro_correlated_metric([0.3, 0.6]),
     [0.1, 0.9, -0.4, 1.4], [0.4, 1.2, -0.6, 0.8]),
    (md.analytic_fisher(md.product(
        md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=-0.5),
        md.exponential(1.0), md.gaussian_diag([0.0, 0.0], [1.0, 1.0]))),
     [0.2, 0.7, 1.2, 0.9, -0.3, 1.6, 0.5, 0.7],
     [-0.1, 0.4, 0.8, 1.4, 0.1, 1.1, 0.2, 1.0]),
]


def test_bvp_integrator_work(nfev):
    """Right-hand-side evaluations summed over four two-point problems, a
    machine-independent cost of shooting: 7,969 with a forward-difference
    Jacobian (dim + 1 geodesic solves per Newton step), 2,023 with the
    variational flow."""
    for metric, start, end in BVP_WORK_CASES:
        path = dyn.solve_geodesic_bvp(ode_flow(metric), start, end, 1.0,
                                      tol=1e-8)
        assert np.linalg.norm(path.theta[-1] - end) < 1e-8
    assert sum(nfev) <= 3_000


def test_one_flow_driver_keeps_each_solve(nfev):
    """Right-hand-side evaluations of one fixed geodesic, Jacobi field and
    two-point problem, capped at the counts of the three separate solves
    that ``_flow`` replaced: 479, 518, and 433 over four shots and the
    final geodesic."""
    p, th0, v0 = wavepacket_start(0.3)
    metric = ode_flow(wavepacket_metric(0.3))
    dyn.integrate_geodesic(metric, th0, v0, 5.0 / p.a0, tol=1e-10)
    dyn.integrate_jacobi(metric, th0, v0, np.linspace(0.0, 5.0 / p.a0, 65),
                         np.zeros(3), dyn.normal_direction(metric, th0, v0),
                         rtol=1e-10)
    metric, start, end = BVP_WORK_CASES[1]
    dyn.solve_geodesic_bvp(ode_flow(metric), start, end, 1.0, tol=1e-8)
    assert len(nfev) == 7
    assert nfev[0] <= 479
    assert nfev[1] <= 518
    assert sum(nfev[2:]) <= 433


@pytest.mark.parametrize("tau_end", [4.0, -4.0])
def test_closed_form_geodesic_evaluates_its_flow_once(monkeypatch, tau_end):
    """The grid and the floor check of a closed-form geodesic take one
    ``MetricField.flow`` call, on the grid itself."""
    calls = []
    flow = md.MetricField.flow
    monkeypatch.setattr(md.MetricField, "flow", lambda m, *args:
                        calls.append(args[2]) or flow(m, *args))
    p, th0, v0 = wavepacket_start(0.3)
    path = dyn.integrate_geodesic(wavepacket_metric(0.3), th0, v0,
                                  tau_end / p.a0, n_out=65)
    assert len(calls) == 1
    assert np.array_equal(calls[0], path.tau_grid)


def straight_line_path(taus):
    return dyn.path_from_functions(
        taus, lambda t: np.multiply.outer(t, [1.0, 2.0]) + [0.5, 1.0],
        lambda t: np.multiply.outer(np.ones_like(t), [1.0, 2.0]),
        metric=PAIR)


@pytest.mark.parametrize("make_path", [
    lambda: dyn.integrate_geodesic(wavepacket_metric(0.3),
                                   *wavepacket_start(0.3)[1:], 3.0, n_out=33),
    lambda: dyn.integrate_geodesic(ode_flow(wavepacket_metric(0.3)),
                                   *wavepacket_start(0.3)[1:], -3.0,
                                   n_out=33),
    lambda: straight_line_path(np.linspace(0.0, 2.0, 33)),
], ids=["closed-form", "dop853-backward", "functions"])
def test_path_state_layout(make_path):
    """``state`` gives (dim,) at a scalar tau and (n, dim) at n of them,
    the layout of ``theta``, for every way a path is made; on the grid it
    repeats the grid's bits."""
    path = make_path()
    theta, theta_dot = path.state(path.tau_grid)
    assert theta.shape == theta_dot.shape == path.theta.shape
    assert np.array_equal(theta, path.theta)
    assert np.array_equal(theta_dot, path.theta_dot)
    one, one_dot = path.state(path.tau_grid[5])
    assert one.shape == one_dot.shape == (path.dim,)
    assert np.array_equal(one, path.theta[5])


def test_wavepacket_closed_form_values():
    p = PARAMS
    mu1, mu2, sig = sc.wavepacket_geodesics(p, 0.0, 0.0, "before")
    assert (mu1, mu2) == (0.0, 0.0)
    assert sig == pytest.approx(np.sqrt(0.5 * p.p0 ** 2 + p.sigma0 ** 2))
    # tanh(asinh x) = x / sqrt(1 + x^2): the mean at -tau0 returns p0 exactly
    mu1, _, _ = sc.wavepacket_geodesics(p, 0.0, -p.tau0, "before")
    assert mu1 == pytest.approx(p.p0, abs=1e-14)


def test_wavepacket_after_branch_asymptote():
    p = PARAMS
    _, mu2, _ = sc.wavepacket_geodesics(p, 0.19, 200.0, "after")
    assert mu2 == pytest.approx(0.9 * np.sqrt(p.p0 ** 2 + 2 * p.sigma0 ** 2),
                                abs=1e-12)


def test_branch_continuity_at_zero():
    for r in (0.0, 0.4):
        before = sc.wavepacket_geodesics(PARAMS, r, 0.0, "before")
        after = sc.wavepacket_geodesics(PARAMS, r, 0.0, "after")
        assert before == pytest.approx(after, abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        sc.ScatterConfig(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sc.ScatterConfig(1.0, 1.0, 1.0, r=1.0)
    with pytest.raises(ValueError):
        sc.wavepacket_geodesics(PARAMS, 0.5, 0.0, "during")


def test_flat_jacobi_grows_linearly():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 4.0, tol=1e-10)
    trace = dyn.integrate_jacobi(m, *carrier(path), np.zeros(2), [0.0, 1.0])
    assert np.max(np.abs(trace.intensity - path.tau_grid)) < 1e-8


def test_tangential_jacobi_field():
    # J = tau * theta-dot solves the deviation equation exactly
    metric = wavepacket_metric(0.4)
    p, th0, v0 = wavepacket_start(0.4)
    path = dyn.integrate_geodesic(metric, th0, v0, 3.0, tol=1e-11)
    trace = dyn.integrate_jacobi(metric, *carrier(path), np.zeros(3), v0,
                                 rtol=1e-10)
    expect = path.tau_grid[:, None] * path.theta_dot
    assert np.max(np.abs(trace.j - expect)) < 1e-7


def test_jacobi_superposition():
    metric = wavepacket_metric(0.2)
    p, th0, v0 = wavepacket_start(0.2)
    path = dyn.integrate_geodesic(metric, th0, v0, 4.0, tol=1e-11)
    j1 = dyn.integrate_jacobi(metric, *carrier(path), [0.1, 0.0, 0.0],
                              [0.0, 0.2, 0.0], rtol=1e-11)
    j2 = dyn.integrate_jacobi(metric, *carrier(path), [0.0, 0.3, 0.0],
                              [0.0, 0.0, 0.4], rtol=1e-11)
    a, b = 1.7, -0.6
    combo = dyn.integrate_jacobi(
        metric, *carrier(path),
        a * np.array([0.1, 0.0, 0.0]) + b * np.array([0.0, 0.3, 0.0]),
        a * np.array([0.0, 0.2, 0.0]) + b * np.array([0.0, 0.0, 0.4]),
        rtol=1e-11)
    lin = a * j1.j + b * j2.j
    scale = np.max(np.abs(lin))
    assert np.max(np.abs(combo.j - lin)) / scale < 1e-8


def test_wavepacket_jacobi_intensity_sinh():
    metric = wavepacket_metric(0.5)
    p, th0, v0 = wavepacket_start(0.5)
    a0 = p.a0
    path = dyn.integrate_geodesic(metric, th0, v0, 10.0 / a0, tol=1e-11,
                                  n_out=257)
    g = metric.eval(th0)
    w = np.zeros(3)
    w[2] = 1.0
    w -= (v0 @ g @ w) / (v0 @ g @ v0) * v0
    w /= np.sqrt(w @ g @ w)
    trace = dyn.integrate_jacobi(metric, *carrier(path), np.zeros(3), w,
                                 rtol=1e-10)
    oracle = np.sinh(a0 * trace.path.tau_grid) / a0
    late = trace.path.tau_grid >= 0.1 / a0
    rel = np.abs(trace.intensity[late] - oracle[late]) / oracle[late]
    assert np.max(rel) < 1e-4


def test_jacobi_q_coefficient():
    metric = wavepacket_metric(0.5)
    p, th0, v0 = wavepacket_start(0.5)
    q = dyn.jacobi_q_coefficient(metric, th0, v0)
    assert q == pytest.approx(-p.a0 ** 2, rel=1e-9)
    assert q < 0


def test_lyapunov_flat_decays_to_zero():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 200.0, tol=1e-9)
    trace = dyn.integrate_jacobi(m, *carrier(path), np.zeros(2), [0.0, 1.0])
    est = dyn.lyapunov_estimate(trace)
    # polynomial growth: the estimate decays like ln(tau^2) / tau
    tau = trace.path.tau_grid[-1]
    assert est == pytest.approx(np.log(tau ** 2 + 1) / tau, rel=1e-6)
    assert est < 0.06
    seq = dyn.lyapunov_sequence(trace)[1]
    assert seq[8] > seq[-1]


def test_lyapunov_symbolic_limit():
    # feeding the exact sinh solution into the rate functional gives
    # 2 sqrt(-Q) in the infinite-time limit
    import sympy as sp

    tau, q, w0 = sp.symbols("tau q w0", positive=True)
    j = w0 / sp.sqrt(q) * sp.sinh(sp.sqrt(q) * tau)     # q = -Q > 0
    jdot = sp.diff(j, tau)
    lam = sp.log((j ** 2 + jdot ** 2) / (w0 ** 2)) / tau
    limit = sp.limit(lam, tau, sp.oo)
    assert sp.simplify(limit - 2 * sp.sqrt(q)) == 0


def test_lyapunov_error_cases():
    # a trace with no elapsed time has no rate
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    still = dyn.integrate_jacobi(metric, [0.0, 1.0], [1.0, 0.5], [1.0, 1.0],
                                 [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(UndefinedRateError, match="no elapsed time"):
        dyn.lyapunov_estimate(still)
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 1.0, tol=1e-9)
    zero = dyn.integrate_jacobi(m, *carrier(path), np.zeros(2), np.zeros(2))
    with pytest.raises(UndefinedRateError):
        dyn.lyapunov_estimate(zero)


@pytest.mark.parametrize("flow", ["closed", "dop853"])
def test_empty_span_holds_the_start(flow):
    # DOP853 once sampled no point of an empty span and failed reading the
    # samples; the closed form evaluates the start at every grid point
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    if flow == "dop853":
        metric = ode_flow(metric)
    theta0, v0 = np.array([0.0, 1.0]), np.array([1.0, 0.5])
    path = dyn.integrate_geodesic(metric, theta0, v0, 0.0, n_out=5)
    assert np.all(path.tau_grid == 0.0)
    assert np.all(path.theta == theta0) and np.all(path.theta_dot == v0)
    assert np.all(path.speed == path.speed[0])
    theta, theta_dot = path.state(0.0)
    assert np.all(theta == theta0) and np.all(theta_dot == v0)
    assert path.state(np.zeros(3))[0].shape == (3, 2)
    trace = dyn.integrate_jacobi(metric, theta0, v0, [1.0, 1.0],
                                 [1.0, 0.0], [0.0, 1.0])
    assert np.all(trace.path.theta == theta0)
    assert np.all(trace.j == [1.0, 0.0])
    with pytest.raises(UndefinedRateError, match="no elapsed time"):
        dyn.lyapunov_estimate(trace)


@pytest.mark.parametrize("kind", ["closed form", "DOP853"])
def test_lyapunov_estimate_reads_the_two_ends_only(kind):
    """The estimate on the 257-point trace of one field is its estimate on
    the trace at the two ends of the grid, bit for bit, and the last entry
    of its sequence."""
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    if kind == "DOP853":
        metric = ode_flow(metric)
    grid = np.linspace(0.0, 4.0, 257)

    def trace(taus):
        return dyn.integrate_jacobi(metric, [0.0, 1.0], [1.0, 0.5], taus,
                                    [0.3, 0.0], [0.0, 1.0])

    fine = trace(grid)
    assert dyn.lyapunov_estimate(fine) \
        == dyn.lyapunov_estimate(trace(grid[[0, -1]])) \
        == dyn.lyapunov_sequence(fine)[1][-1]


@pytest.mark.parametrize("exp", [-600, 600])
def test_jacobi_trace_scales_exactly_with_its_start(exp):
    """The field is linear in (J0, DJ0): scaled by 2^exp, where every
    square of the field leaves the float range, the start gives the
    intensity and its rate scaled by 2^exp and the estimate, bit for
    bit."""
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))

    def trace(scale):
        return dyn.integrate_jacobi(metric, [0.0, 1.0], [1.0, 0.5],
                                    np.linspace(0.0, 6.0, 65),
                                    np.ldexp([0.3, 0.0], scale),
                                    np.ldexp([0.0, 1.0], scale))

    one, scaled = trace(0), trace(exp)
    assert np.array_equal(scaled.intensity, np.ldexp(one.intensity, exp))
    assert np.array_equal(scaled.intensity_rate,
                          np.ldexp(one.intensity_rate, exp))
    assert dyn.lyapunov_estimate(scaled) == dyn.lyapunov_estimate(one)


@pytest.mark.parametrize("j0,dj0", [([1e-10, 0.0], [0.0, 1e150]),
                                    ([1e-90, 0.0], [0.0, 1e80])])
def test_jacobi_trace_spanning_the_float_range(j0, dj0):
    """Rows of the field that differ by more than 1e154: each form is the
    unscaled one bit for bit where its squares fit, lambda is its
    definition although the ratio of the sums of squares overflows, and
    the start scaled by 2^-300 or 2^300 gives the intensity scaled alike
    and the same lambda."""
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))

    def trace(scale):
        return dyn.integrate_jacobi(metric, [0.0, 1.0], [1.0, 0.5],
                                    np.linspace(0.0, 6.0, 65),
                                    np.ldexp(j0, scale), np.ldexp(dj0, scale))

    one = trace(0)
    g = metric.eval(one.path.theta)
    inten = np.sqrt(np.einsum("nab,na,nb->n", g, one.j, one.j))
    assert np.array_equal(one.intensity, inten)
    assert np.array_equal(one.intensity_rate, np.einsum(
        "nab,na,nb->n", g, one.dj_dtau, one.j) / inten)
    sums = one.intensity ** 2 + one.intensity_rate ** 2
    lam = dyn.lyapunov_estimate(one)
    assert lam == pytest.approx(
        (np.log(sums[-1]) - np.log(sums[0])) / 6.0, rel=1e-12)
    for exp in (-300, 300):
        scaled = trace(exp)
        assert np.array_equal(scaled.intensity, np.ldexp(one.intensity, exp))
        assert dyn.lyapunov_estimate(scaled) == pytest.approx(lam, rel=1e-12)


def test_jacobi_start_far_below_its_rate_is_the_first_row():
    """A J0 more than 2^1074 below DJ0 flows as 0 in its scaled column,
    yet the trace starts at (J0, DJ0): lambda is its definition in log
    space (about 308.7), and the start J0 = 0 keeps its lambda."""
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))

    def trace(j0):
        return dyn.integrate_jacobi(metric, [0.0, 1.0], [1.0, 0.5],
                                    np.linspace(0.0, 6.0, 65), j0,
                                    [0.0, 1e200])

    tiny = trace([1e-200, 0.0])
    assert np.array_equal(tiny.j[0], [1e-200, 0.0])
    assert np.array_equal(tiny.dj_dtau[0], [0.0, 1e200])
    # g = diag(1, 2) at the start and DJ0 is g-orthogonal to J0, so the
    # start's sum of squares is |J0|^2 = 1e-400
    inten, rate = tiny.intensity[-1], tiny.intensity_rate[-1]
    end = 2.0 * np.log(inten) + np.log1p((rate / inten) ** 2)
    assert dyn.lyapunov_estimate(tiny) == pytest.approx(
        (end - 2.0 * np.log(1e-200)) / 6.0, rel=1e-12)
    assert dyn.lyapunov_estimate(trace([0.0, 0.0])) == 1.5747241333676099


@pytest.mark.parametrize("r", [0.0, 0.2, 0.5])
def test_lyapunov_independent_of_correlation(r):
    p = sc.ScatterConfig(4.0, 1.0, 1.0, potential_range=0.05)
    metric = md.analytic_fisher(
        md.gaussian_bivariate_corr(0.0, 0.0, p.sigma_peak, r=r))
    amp = p.mean_amplitude * np.sqrt(1 - r)
    th0 = np.array([0.0, 0.0, p.sigma_peak])
    v0 = np.array([-amp * p.a0, amp * p.a0, 0.0])
    path = dyn.integrate_geodesic(metric, th0, v0, 20.0 / p.a0, tol=1e-11,
                                  n_out=257)
    g = metric.eval(th0)
    w = np.zeros(3)
    w[2] = 1.0
    w -= (v0 @ g @ w) / (v0 @ g @ v0) * v0
    w /= np.sqrt(w @ g @ w)
    trace = dyn.integrate_jacobi(metric, *carrier(path), np.zeros(3), w,
                                 rtol=1e-10)
    est = dyn.lyapunov_estimate(trace)
    assert abs(est - 2 * p.a0) / (2 * p.a0) < 0.05


def test_path_immutability_and_state():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 2.0], 1.0, tol=1e-10)
    with pytest.raises(ValueError):
        path.theta[0, 0] = 5.0
    th, v = path.state(0.5)
    assert th == pytest.approx([0.5, 1.0], abs=1e-10)
    assert v == pytest.approx([1.0, 2.0], abs=1e-10)


def test_rate_series_expansion():
    # a0 tau0 = ln(sqrt(2) p0 / s0) + (1/2)(s0/p0)^2 - (3/8)(s0/p0)^4 + ...
    for eps in (0.05, 0.02):
        p = sc.ScatterConfig(1.0, eps, 1.3)
        series = (np.log(np.sqrt(2) / eps) + 0.5 * eps ** 2
                  - 0.375 * eps ** 4) / 1.3
        assert p.a0 == pytest.approx(series, abs=eps ** 6 / 1.3 * 2)


def test_prolongation_scale_series():
    # eta = exp(2 a0 tau0)/2 = (p0/s0)^2 exp[(s0/p0)^2 - (3/4)(s0/p0)^4 + ..]
    for eps in (0.05, 0.02):
        p = sc.ScatterConfig(1.0, eps, 1.0)
        eta = sc.prolongation_eta(p)
        series = eps ** -2 * np.exp(eps ** 2 - 0.75 * eps ** 4)
        assert eta == pytest.approx(series, rel=3 * eps ** 6)


def test_lyapunov_on_backward_trace():
    # the rate functional uses elapsed parameter; reversal gives the same value
    metric = wavepacket_metric(0.3)
    p, th0, v0 = wavepacket_start(0.3, "before")
    fwd = dyn.integrate_geodesic(metric, th0, v0, 8.0 / p.a0, tol=1e-11,
                                 n_out=129)
    back = dyn.integrate_geodesic(metric, th0, -v0, -8.0 / p.a0, tol=1e-11,
                                  n_out=129)
    g = metric.eval(th0)
    w = np.zeros(3)
    w[2] = 1.0
    w -= (v0 @ g @ w) / (v0 @ g @ v0) * v0
    w /= np.sqrt(w @ g @ w)
    est_f = dyn.lyapunov_estimate(
        dyn.integrate_jacobi(metric, *carrier(fwd), np.zeros(3), w,
                             rtol=1e-10))
    est_b = dyn.lyapunov_estimate(
        dyn.integrate_jacobi(metric, *carrier(back), np.zeros(3), w,
                             rtol=1e-10))
    assert est_b == pytest.approx(est_f, rel=1e-6)


# initial data of demos/configs/wavepacket.yaml
DEMO = sc.ScatterConfig(1.0, 0.1, 1.0)


@settings(max_examples=30)
@given(r=st.floats(0.0, 0.9, exclude_max=True),
       tol=st.sampled_from([1e-8, 1e-9, 1e-10, 1e-11]))
def test_geodesic_closed_forms_across_tolerances(r, tol):
    """Both wave-packet branches meet the tanh/cosh forms within the
    report's bounds at every tolerance: error 1e-6, speed drift 10 tol."""
    for branch, rr in (("before", 0.0), ("after", r)):
        p = DEMO
        metric, th0, v0 = sc.wavepacket_manifold(p, rr, branch)
        metric = ode_flow(metric)
        sign = -1.0 if branch == "before" else 1.0
        path = dyn.integrate_geodesic(metric, th0, v0, sign * 5.0 / p.a0,
                                      tol=tol, n_out=257)
        closed = np.column_stack(
            sc.wavepacket_geodesics(p, rr, path.tau_grid, branch))
        assert np.max(np.abs(path.theta - closed)) <= 1e-6
        assert np.max(np.abs(path.speed / path.speed[0] - 1.0)) <= 10 * tol


def test_bare_dop853_geodesic_reads_gamma_alone(monkeypatch):
    # with no deviation columns the right-hand side needs no dGamma
    metric = ode_flow(wavepacket_metric(0.4))
    orders = []
    connection = metric._connection_fn
    monkeypatch.setattr(metric, "_connection_fn", lambda th, order:
                        orders.append(order) or connection(th, order))
    dyn.integrate_geodesic(metric, [0.1, -0.2, 1.2], [0.3, 0.4, -0.2], 2.0,
                           n_out=9)
    assert orders and set(orders) == {1}


@pytest.mark.parametrize("branch,sign", [("after", 1.0), ("before", -1.0)])
def test_jacobi_carrier_matches_geodesic(branch, sign):
    """The carrier a Jacobi field integrates is the geodesic itself, on
    forward and backward grids."""
    metric = ode_flow(wavepacket_metric(0.3))
    p, th0, v0 = wavepacket_start(0.3, branch)
    path = dyn.integrate_geodesic(metric, th0, v0, sign * 10.0 / p.a0,
                                  tol=1e-11, n_out=257)
    trace = dyn.integrate_jacobi(metric, th0, v0, path.tau_grid,
                                 np.zeros(3),
                                 dyn.normal_direction(metric, th0, v0),
                                 rtol=1e-10)
    assert np.array_equal(trace.path.tau_grid, path.tau_grid)
    assert np.max(np.abs(trace.path.theta - path.theta)) < 1e-8
    assert np.max(np.abs(trace.path.theta_dot - path.theta_dot)) < 1e-8
