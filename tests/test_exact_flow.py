"""The closed-form flow of the inverse-square metrics against the DOP853
integration of the geodesic and deviation equations, which stays the
generic path and serves here as the oracle: geodesics, Jacobi fields and
chart-floor crossings over every inverse-square family of dimension 1-8,
spreads down to twenty times the floor, forward and backward grids,
blocks at rest and a deviation column far below unit size.  The flow
evaluated once per block matches the per-coordinate form bit for bit, and
the log map is its inverse at unit offset."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igac import dynamics as dyn
from igac import models as md
from igac.errors import ChartBoundaryError

from conftest import (corr, factor, flow_per_coordinate, macro_corr, means,
                      ode_flow)

FLOOR = md._CHART_FLOOR

# log-uniform from twenty times the chart floor up to 5
spreads = st.floats(np.log10(20 * FLOOR), np.log10(5.0)).map(
    lambda e: 10.0 ** e)


@st.composite
def inverse_square(draw):
    """(metric, in-chart point) of dimension 1-8: closed-form Fisher and
    quadrature metrics of products, and macro-correlated pairs."""
    family = draw(st.sampled_from(["fisher", "quadrature", "macro"]))
    if family == "macro":
        rs = draw(st.lists(macro_corr, min_size=1, max_size=4))
        point = [x for _ in rs for x in (draw(means), draw(spreads))]
        return md.macro_correlated_metric(rs), np.array(point)
    parts = draw(st.lists(factor(spreads), min_size=1, max_size=4).filter(
        lambda ps: sum(len(p) for _, p in ps) <= 8))
    build = md.fisher_quadrature if family == "quadrature" \
        else md.analytic_fisher
    return (build(md.product(*[m for m, _ in parts])),
            np.array([x for _, p in parts for x in p]))


def spread_of(metric, theta):
    """The spread of each coordinate's block, (..., dim)."""
    owner = np.empty(metric.dim, dtype=int)
    for block in metric.blocks:
        owner[list(block)] = block[-1]
    return np.asarray(theta)[..., owner]


# velocity components on a grid of step 1/1000: DOP853's error norm squares
# each component, and a carrier whose rates all lie near 1e-158 turns it
# into 0/0.  Deviation columns are flowed at unit max-abs, so they are drawn
# from continuous floats.
grid_components = st.integers(-1000, 1000).map(lambda k: k / 1000)
components = st.floats(-1.0, 1.0)


def block_vector(draw, metric, theta, rest=True, components=grid_components):
    """A vector scaled by each block's spread, so that every block moves at
    a rate of order one; with ``rest``, some blocks are drawn at rest."""
    raw = np.array([draw(components) for _ in range(metric.dim)])
    for block in metric.blocks:
        if rest and draw(st.booleans()):
            raw[list(block)] = 0.0
    return raw * spread_of(metric, theta)


@st.composite
def flow_case(draw):
    """(metric, start, velocity, signed span)."""
    metric, theta = draw(inverse_square())
    v = block_vector(draw, metric, theta)
    span = draw(st.floats(0.1, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
    return metric, theta, v, span


def both(flow, metric):
    """``flow`` on the closed form and on DOP853, each outcome a result or
    the ChartBoundaryError raised."""
    outcomes = []
    for m in (metric, ode_flow(metric)):
        try:
            outcomes.append(flow(m))
        except ChartBoundaryError as exc:
            outcomes.append(exc)
    return outcomes


def assert_close(got, ref, scale, rel):
    assert np.all(np.abs(got - ref) <= rel * scale)


def assert_within_dop853(exact, generic, metric, v0, rtol, atol):
    """The carriers agree within 100 local tolerances of the oracle: its
    error control weighs rtol |y| + atol, and near the floor atol dominates.
    A velocity inherits the position error at the start's largest rate."""
    s = spread_of(metric, generic.theta)
    rate = np.max(np.abs(v0) / spread_of(metric, exact.theta[0]))
    place = np.abs(generic.theta) + s
    assert_close(exact.theta, generic.theta, rtol * place + atol, 100.0)
    assert_close(exact.theta_dot, generic.theta_dot,
                 (rtol * (np.abs(generic.theta_dot) + place) + atol)
                 * (1.0 + rate), 100.0)


def assert_same_exit(exact, generic, metric):
    """Both flows leave the chart at the same crossing, the closed form at
    the floor itself.  The oracle's event was measured within 2e-7 of it:
    near the floor its error control is absolute (atol 1e-14 against
    spreads of 1e-8)."""
    assert isinstance(exact, ChartBoundaryError)
    assert isinstance(generic, ChartBoundaryError)
    (tau, theta, theta_dot), (tau_g, theta_g, _) = (exact.last_state,
                                                    generic.last_state)
    assert tau == pytest.approx(tau_g, rel=2e-6)
    assert_close(theta, theta_g, np.abs(theta_g) + spread_of(metric, theta_g),
                 2e-6)
    assert np.min(theta[list(metric.scale_coords)]) == \
        pytest.approx(FLOOR, rel=1e-12)
    assert theta_dot.shape == (metric.dim,)


@settings(max_examples=60)
@given(flow_case())
def test_closed_form_geodesic_matches_dop853(case):
    metric, theta, v, span = case
    exact, generic = both(lambda m: dyn.integrate_geodesic(
        m, theta, v, span, tol=1e-12, n_out=33), metric)
    assert type(exact) is type(generic)
    if isinstance(exact, ChartBoundaryError):
        return
    assert_within_dop853(exact, generic, metric, v, 1e-12, 1e-14)
    assert np.all(np.abs(exact.speed - exact.speed[0])
                  <= 1e-12 * exact.speed[0])


@settings(max_examples=40)
@given(flow_case(), st.data())
def test_complex_step_jacobi_matches_dop853(case, data):
    metric, theta, v, span = case
    j0 = block_vector(data.draw, metric, theta, rest=False,
                      components=components)
    dj0 = block_vector(data.draw, metric, theta, rest=False,
                       components=components)
    grid = np.linspace(0.0, span, 17)
    exact, generic = both(lambda m: dyn.integrate_jacobi(
        m, theta, v, grid, j0, dj0, rtol=1e-12), metric)
    assert type(exact) is type(generic)
    if isinstance(exact, ChartBoundaryError):
        return
    assert_within_dop853(exact, generic, metric, v, 1e-12, 1e-15)
    # the deviation state (J, DJ/dtau) in units of each block's spread,
    # against its largest entry: the flow is linear in it
    s = spread_of(metric, generic.theta)
    got, ref = (np.stack([trace.j, trace.dj_dtau]) / s
                for trace in (exact, generic))
    assert_close(got, ref, np.max(np.abs(ref)), 1e-6)


@st.composite
def falling_case(draw):
    """(metric, start, velocity, signed span) whose geodesic falls through
    the chart floor within the span: one block's spread moves away from the
    direction of travel at a rate of at least 1/2."""
    metric, theta = draw(inverse_square())
    v = block_vector(draw, metric, theta)
    sign = draw(st.sampled_from([1.0, -1.0]))
    k = draw(st.integers(0, len(metric.blocks) - 1))
    i = metric.blocks[k][-1]
    rate = draw(st.floats(0.5, 2.0))
    v[i] = -sign * rate * theta[i]
    # s0 / s >= e^(rate |tau|) / 2 once the spread falls, so the crossing
    # lies before ln(2 s0 / floor) / rate
    span = sign * (np.log(2.0 * theta[i] / FLOOR) / rate + 0.5)
    return metric, theta, v, span


@settings(max_examples=40)
@given(falling_case())
def test_floor_crossing_is_exact(case):
    metric, theta, v, span = case
    flows = (
        lambda m: dyn.integrate_geodesic(m, theta, v, span, tol=1e-12),
        lambda m: dyn.integrate_jacobi(m, theta, v,
                                       np.linspace(0.0, span, 9),
                                       np.zeros(metric.dim), v, rtol=1e-12),
    )
    for flow in flows:
        assert_same_exit(*both(flow, metric), metric)


def test_tiny_deviation_is_flowed_at_unit_size():
    # on a carrier at rest J = J0 + DJ0 tau: J0 = DJ0 = 1e-158, and a unit
    # J0 beside DJ0 = 1.97e-158.  DOP853 on the raw column squares its
    # error estimate to 0 and divides 0/0
    metric = md.analytic_fisher(md.exponential(1.0))
    grid = np.linspace(0.0, 1.0, 5)
    for j0, dj0 in ((1e-158, 1e-158), (1.0, 1.97e-158)):
        for m in (metric, ode_flow(metric)):
            trace = dyn.integrate_jacobi(m, [1.0], [0.0], grid, [j0], [dj0])
            assert trace.j[:, 0] == pytest.approx(j0 + dj0 * grid,
                                                  rel=1e-12, abs=0.0)


def test_block_at_rest_stays_put():
    metric = md.macro_correlated_metric([0.3, 0.6])
    theta = np.array([0.4, 2e-7, -1.0, 0.8])
    v = np.array([0.0, 0.0, 0.3, -0.2])
    for span in (2.0, -2.0):
        path = dyn.integrate_geodesic(metric, theta, v, span, n_out=5)
        assert np.all(path.theta[:, :2] == theta[:2])
        assert np.all(path.theta_dot[:, :2] == 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_semicircle_from_near_floor_keeps_full_precision(sign):
    # the Gaussian pair (dmu^2 + 2 ds^2) / s^2 is the half-plane with
    # x = mu / sqrt(2); its geodesic x = R tanh(u), s = R / cosh(u),
    # u = u0 + a tau, rises from s = 1.5e-8 R at u = -18 to R and falls
    # back, forward from u0 = -18 or backward from u0 = 18.  The flow meets
    # the tanh/cosh form at round-off all the way, also at the apex, where
    # s0 / s would lose 8 digits without the rearranged rising branch
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    radius, rate = 0.7, 1.3
    u = np.linspace(-18.0, 18.0, 145)[::int(sign)]
    sech, tanh = 1.0 / np.cosh(u), np.tanh(u)
    theta = radius * np.column_stack([np.sqrt(2.0) * tanh, sech])
    theta_dot = rate * radius * np.column_stack([np.sqrt(2.0) * sech ** 2,
                                                 -sech * tanh])
    path = dyn.integrate_geodesic(metric, theta[0], theta_dot[0],
                                  sign * 36.0 / rate, n_out=145)
    s = theta[:, 1:]
    assert_close(path.theta, theta, np.abs(theta) + s, 5e-14)
    assert_close(path.theta_dot, theta_dot, np.abs(theta_dot) + rate * s,
                 1e-13)


def outcome(flow, *args):
    """The (theta, theta_dot) of a flow, or the last state it raised."""
    try:
        return flow(*args)
    except ChartBoundaryError as exc:
        return exc.last_state


def same_bits(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        g, r = np.asarray(g), np.asarray(r)
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


@settings(max_examples=60)
@given(st.one_of(flow_case(), falling_case()), st.data())
def test_block_flow_matches_the_per_coordinate_flow_bit_for_bit(case, data):
    """Real starts, and the complex-step starts of a shot (J, J-dot) =
    (0, I) and of one Jacobi column, on a grid and at a floor crossing."""
    metric, theta, v, span = case
    grid = np.linspace(0.0, span, 9)
    step = 1j * dyn._STEP
    j0 = block_vector(data.draw, metric, theta, rest=False,
                      components=components)
    starts = [(theta, v),
              (theta + 0.0 * step * np.eye(metric.dim),
               v + step * np.eye(metric.dim)),
              (theta + step * j0, v + step * j0[::-1])]
    for th0, v0 in starts:
        same_bits(outcome(metric.flow, th0, v0, grid),
                  outcome(lambda *args: flow_per_coordinate(metric, *args),
                          th0, v0, grid))


log_spreads = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)


@st.composite
def two_points(draw):
    """(metric, theta0, theta1) over every inverse-square family and
    products of them, spreads from 1e-3 to 1e2; in some blocks theta1 keeps
    the mean coordinates of theta0 (dx = 0 exactly where e = 0) or its
    spread (ds = 0 exactly)."""
    if draw(st.booleans()):
        metric = md.macro_correlated_metric(draw(st.lists(
            st.floats(0.0, 0.99, exclude_max=True), min_size=1,
            max_size=3)))
    else:
        metric = md.analytic_fisher(md.product(*draw(st.lists(st.one_of(
            st.just(md.gaussian_diag([0.0], [1.0])),
            st.just(md.exponential(1.0)), st.just(md.wigner_dyson(1.0)),
            corr.map(lambda r: md.gaussian_bivariate_corr(0.0, 0.0, 1.0,
                                                          r=r))),
            min_size=1, max_size=3))))
    points = np.empty((2, metric.dim))
    for block in map(list, metric.blocks):
        points[:, block[:-1]] = [[draw(means) for _ in block[:-1]]
                                 for _ in range(2)]
        points[:, block[-1]] = [draw(log_spreads), draw(log_spreads)]
        tie = draw(st.sampled_from(["none", "mean", "spread"]))
        if tie != "none":
            keep = block[:-1] if tie == "mean" else block[-1]
            points[1, keep] = points[0, keep]
    return metric, points[0], points[1]


@settings(max_examples=80)
@given(two_points())
def test_log_map_inverts_the_flow_and_leaves_the_bvp_no_shot(case):
    metric, theta0, theta1 = case
    theta, _ = metric.flow(theta0, metric.log(theta0, theta1), [1.0])
    scale = np.abs(theta1) + spread_of(metric, theta1)
    assert_close(theta[0], theta1, scale, 1e-12)
    with mock.patch.object(dyn, "_shoot", wraps=dyn._shoot) as shoot:
        path = dyn.solve_geodesic_bvp(metric, theta0, theta1, 1.0)
    assert shoot.call_count == 0
    assert np.linalg.norm(path.theta[-1] - theta1) < 1e-8
