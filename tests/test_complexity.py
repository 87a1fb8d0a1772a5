"""Volumes, complexity/entropy traces and asymptotic fits.

Closed-form oracles: box volumes of straight lines in flat space, the
tanh/cosh wave-packet chain (whose reference average-volume form carries a
constant region-normalization factor of 2 over the coordinate-box reading),
and synthetic traces with known fit parameters.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igac import complexity as cx
from igac import dynamics as dyn
from igac import models as md
from igac import scenarios as sc
from igac.errors import FitFailureError, ParameterError, \
    UndefinedEntropyError

from conftest import base_metric

PARAMS = dyn.WavePacketParams(1.0, 0.25, 1.0, 0.5)


def wavepacket_setup(r, tau_end_over_a0=10.0, n_out=129):
    p = dyn.WavePacketParams(PARAMS.p0, PARAMS.sigma0, PARAMS.tau0, r)
    metric = md.analytic_fisher(
        md.gaussian_bivariate_corr(0.0, 0.0, p.sigma_peak, r=r))
    amp = p.mean_amplitude * np.sqrt(1 - r)
    th0 = np.array([0.0, 0.0, p.sigma_peak])
    v0 = np.array([-amp * p.a0, amp * p.a0, 0.0])
    path = dyn.integrate_geodesic(metric, th0, v0, tau_end_over_a0 / p.a0,
                                  tol=1e-10, n_out=n_out)
    return p, metric, path


def test_volume_element_values():
    assert cx.volume_element(md.flat_metric(3), [0.0, 1.0, 2.0]) == 1.0
    pair = md.analytic_fisher(md.gaussian_diag([0.0], [1.5]))
    assert cx.volume_element(pair, [0.0, 1.5]) == pytest.approx(
        np.sqrt(2.0) / 1.5 ** 2)
    r = 0.4
    wp = md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=r))
    s = 1.3
    assert cx.volume_element(wp, [0.0, 0.0, s]) == pytest.approx(
        2.0 / (s ** 3 * np.sqrt(1 - r * r)))


def test_flat_box_volume():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [2.0, 1.5], 1.0, tol=1e-10)
    assert cx.volume_between(m, path, 1.0) == pytest.approx(3.0, rel=1e-9)
    assert cx.volume_between(m, path, 0.0) == 0.0


def test_delta_v_monotone_and_trace_invariants():
    _, metric, path = wavepacket_setup(0.3, tau_end_over_a0=6.0)
    trace = cx.complexity_trace(metric, path)
    assert np.all(trace.delta_v >= 0)
    assert np.all(np.diff(trace.delta_v) >= -1e-9 * trace.delta_v[1:])
    pos = trace.igc > 0
    assert np.allclose(trace.ige[pos], np.log(trace.igc[pos]))
    assert np.all(np.isneginf(trace.ige[~pos]))
    assert trace.region == "coordinate-box"


def test_igc_matches_closed_form_up_to_region_factor():
    p, metric, path = wavepacket_setup(0.5)
    lam = 2 * p.a0
    trace = cx.complexity_trace(metric, path)
    win = (trace.tau_grid >= 2.0 / lam) & (trace.tau_grid <= 10.0 / lam)
    ratio = sc.igc_closed_form(p, 0.5, trace.tau_grid[win]) / trace.igc[win]
    assert np.max(np.abs(ratio / sc.CLOSED_FORM_REGION_FACTOR - 1.0)) < 0.02


def test_compression_and_entropy_gap():
    p, metric_c, path_c = wavepacket_setup(0.5)
    _, metric_u, path_u = wavepacket_setup(0.0)
    trace_c = cx.complexity_trace(metric_c, path_c)
    trace_u = cx.complexity_trace(metric_u, path_u)
    pos = trace_u.igc > 0
    # compression holds pointwise for positive correlation
    assert np.all(trace_c.igc[pos] < trace_u.igc[pos])
    k = int(np.argmin(np.abs(trace_u.tau_grid - 5.0 / (2 * p.a0))))
    gap = trace_c.ige[k] - trace_u.ige[k]
    assert gap == pytest.approx(0.5 * np.log(1.0 / 3.0), abs=0.02)
    assert trace_c.igc[k] / trace_u.igc[k] == pytest.approx(np.sqrt(1 / 3),
                                                            rel=0.02)


def test_r_zero_degeneracy():
    _, metric_u, path_u = wavepacket_setup(0.0, tau_end_over_a0=6.0)
    p0, metric_0, path_0 = wavepacket_setup(1e-13, tau_end_over_a0=6.0)
    t1 = cx.complexity_trace(metric_u, path_u)
    t0 = cx.complexity_trace(metric_0, path_0)
    assert np.max(np.abs(t1.delta_v - t0.delta_v)
                  / np.maximum(t1.delta_v, 1e-30)) < 1e-10


def test_ige_error_on_zero_complexity():
    m = md.flat_metric(2)
    path = dyn.integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 1.0, tol=1e-10)
    # straight line along one axis spans a degenerate box
    with pytest.raises(UndefinedEntropyError):
        cx.ige(m, path, 0.5)


def test_volume_chart_invariance():
    from igac import geometry as geo

    _, metric, path = wavepacket_setup(0.4, tau_end_over_a0=5.0)
    scale = np.array([3.0, 0.25, 1.0])     # rescale the mean chart
    scaled = geo.rescaled_chart(metric, scale)
    spath = dyn.path_from_functions(
        path.tau_grid,
        lambda t: path.state(t)[0] * scale,
        lambda t: path.state(t)[1] * scale,
        metric=scaled)
    tau = float(path.tau_grid[70])
    v1 = cx.volume_between(metric, path, tau)
    v2 = cx.volume_between(scaled, spath, tau)
    assert v2 == pytest.approx(v1, rel=1e-6)


def synthetic_trace(taus, ige_vals, igc_vals=None):
    igc_vals = np.exp(ige_vals) if igc_vals is None else igc_vals
    return cx.ComplexityTrace(np.asarray(taus, float),
                              np.zeros_like(np.asarray(taus, float)),
                              np.asarray(igc_vals, float),
                              np.asarray(ige_vals, float))


def test_fit_exact_line():
    taus = np.linspace(0.5, 10.0, 64)
    fit = cx.fit_asymptotics(synthetic_trace(taus, 3.0 * taus + 1.0),
                             "linear")
    assert fit.params == pytest.approx((3.0, 1.0), abs=1e-12)
    assert fit.r2 == 1.0


def test_fit_logarithmic_power_exponential():
    taus = np.linspace(1.0, 30.0, 128)
    fit = cx.fit_asymptotics(synthetic_trace(taus, 2.0 * np.log(taus) - 0.5),
                             "logarithmic")
    assert fit.params == pytest.approx((2.0, -0.5), abs=1e-10)
    fit = cx.fit_asymptotics(
        synthetic_trace(taus, np.zeros_like(taus), 1.7 * taus ** 2.3),
        "power")
    assert fit.params == pytest.approx((1.7, 2.3), rel=1e-9)
    fit = cx.fit_asymptotics(
        synthetic_trace(taus, np.zeros_like(taus), 0.4 * np.exp(0.9 * taus)),
        "exponential")
    assert fit.params == pytest.approx((0.4, 0.9), rel=1e-9)


def test_fit_saturating_recovers_parameters():
    # oracle values evaluated from the saturation-level formula
    for r, l in ((0.3, 1), (0.6, 2)):
        lam1 = sc.macro_lambda1(r)
        lam2 = 0.8
        taus = np.linspace(2.0, 80.0, 160)
        trace = synthetic_trace(taus, l * np.log(lam1 + lam2 / taus))
        fit = cx.fit_asymptotics(trace, "ige_saturating", multiplicity=l)
        # e^(S/m) = L1 + L2 / tau is a line in 1/tau: recovered exactly
        assert fit.params[0] == pytest.approx(lam1, rel=1e-10)
        assert fit.params[1] == pytest.approx(lam2, rel=1e-10)
        assert fit.r2 > 0.999999


def test_fit_saturating_overflow_is_a_fit_failure():
    # e^(S/m) overflows past S/m = 709.8; no RuntimeWarning on the way
    taus = np.linspace(1.0, 40.0, 64)
    ige = 2.0 * (800.0 + np.log(1.0 + 1.0 / taus))
    trace = cx.ComplexityTrace(taus, np.zeros_like(taus),
                               np.zeros_like(taus), ige)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitFailureError, match="finite"):
            cx.fit_asymptotics(trace, "ige_saturating", multiplicity=2)


WELL_SPREAD = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40,
                       unique=True).filter(lambda xs: np.ptp(xs) > 1e-2)


@settings(max_examples=80)
@given(x=WELL_SPREAD, slope=st.floats(-50.0, 50.0),
       intercept=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_line_matches_polyfit(x, slope, intercept, seed):
    x = np.array(x)
    noise = np.random.default_rng(seed).standard_normal(x.size)
    y = intercept + slope * x + noise
    a, b = cx._fit_line(x, y)
    ref_b, ref_a = np.polyfit(x, y, 1)
    # relative to the size of the data, since a or b may lie near zero
    assert b == pytest.approx(ref_b, rel=1e-10,
                              abs=1e-10 * np.ptp(y) / np.ptp(x))
    assert a == pytest.approx(ref_a, rel=1e-10,
                              abs=1e-10 * np.max(np.abs(y)))


@given(x0=st.floats(-1e3, 1e3), n=st.integers(0, 12))
def test_fit_line_needs_abscissa_spread(x0, n):
    with pytest.raises(FitFailureError, match="spread"):
        cx._fit_line(np.full(n, x0), np.arange(n, dtype=float))


@pytest.mark.parametrize("frac", [-0.5, 0.0, 1.0, 1.5, True])
def test_fit_window_fraction_lies_in_open_unit_interval(frac):
    # the window would run past either end of the trace
    taus = np.linspace(0.0, 10.0, 200)
    with pytest.raises(ParameterError) as err:
        cx.fit_asymptotics(synthetic_trace(taus, taus.copy()), "linear",
                           fit_window_fraction=frac)
    assert [f for f, _ in err.value.failures] == ["fit_window_fraction"]


@pytest.mark.parametrize("multiplicity", [0, -1, 1.5, True])
def test_fit_multiplicity_is_a_positive_integer(multiplicity):
    # each of these fitted a form, or failed on S/0, instead of naming the
    # argument
    taus = np.linspace(1.0, 10.0, 64)
    trace = synthetic_trace(taus, np.log(1.0 + 1.0 / taus))
    with pytest.raises(ParameterError) as err:
        cx.fit_asymptotics(trace, "ige_saturating", multiplicity=multiplicity,
                           min_points=16)
    assert [f for f, _ in err.value.failures] == ["multiplicity"]


def test_complexity_imports_nothing_from_scipy():
    tree = ast.parse(Path(cx.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]


def test_lambda1_formula_values():
    # direct evaluation of the printed formulas at r = 0.6
    r = 0.6
    lam1 = 2 * r * np.sqrt(2 - r * r) / (1 + np.sqrt(1 + 4 * r * r))
    assert sc.macro_lambda1(r) == pytest.approx(lam1, rel=1e-14)
    assert sc.macro_lambda1(r) == pytest.approx(0.59982, abs=1e-4)
    ap, am = sc.macro_alphas(r)
    s = np.sqrt(1 + 4 * r * r)
    assert (ap, am) == pytest.approx(((3 + s) / 2, (3 - s) / 2), rel=1e-14)
    assert ap == pytest.approx(2.28102, abs=1e-4)
    assert am == pytest.approx(0.71898, abs=1e-4)


@pytest.mark.xfail(reason="box-region entropy of the macro-correlated pairs "
                          "grows linearly; the reference saturating "
                          "asymptotics presumes a volume-region convention "
                          "that is not recoverable from its source",
                   strict=True)
def test_lambda1_from_numeric_macro_trace():
    rep = sc.run_macro_correlated(1, [0.6], tau_end=14.0)
    fitted = rep.observables.get("lambda1_fitted", np.inf)
    assert abs(fitted - sc.macro_lambda1(0.6)) / sc.macro_lambda1(0.6) < 0.10


def test_fit_window_and_min_points():
    taus = np.linspace(0.0, 10.0, 200)
    trace = synthetic_trace(taus, taus.copy())
    fit = cx.fit_asymptotics(trace, "linear")
    assert fit.window[0] == pytest.approx(2.5)
    with pytest.raises(FitFailureError):
        cx.fit_asymptotics(trace, "linear", window=(9.8, 10.0))
    with pytest.raises(ValueError) as err:
        cx.fit_asymptotics(trace, "cubic")
    assert [f for f, _ in err.value.failures] == ["form"]


def test_wavepacket_ige_slope_matches_lambda():
    p, metric, path = wavepacket_setup(0.5, tau_end_over_a0=16.0)
    trace = cx.complexity_trace(metric, path)
    lam = 2 * p.a0
    fit = cx.fit_asymptotics(trace, "linear",
                             window=(0.55 * trace.tau_grid[-1],
                                     trace.tau_grid[-1]), min_points=16)
    assert abs(fit.params[0] - lam) / lam < 0.05


def test_select_growth_form():
    taus = np.linspace(1.0, 60.0, 256)
    log_trace = synthetic_trace(taus, 2.0 * np.log(taus) + 0.3)
    winner, margin, _ = cx.select_growth_form(log_trace, window=(1.0, 60.0))
    assert winner.form == "logarithmic"
    assert margin > 0.05
    lin_trace = synthetic_trace(taus, 0.35 * taus + np.log(taus))
    winner, margin, _ = cx.select_growth_form(lin_trace, window=(1.0, 60.0))
    assert winner.form == "linear"
    assert margin > 0.05


def test_closed_form_entropy_asymptote():
    # ln C(tau) - (lam tau - ln(lam tau)) approaches (1/2) ln((1-r)/(1+r))
    p = PARAMS
    lam = 2 * p.a0
    for r in (0.0, 0.3, 0.6):
        taus = np.array([8.0, 12.0, 16.0]) / lam
        gaps = np.log(sc.igc_closed_form(p, r, taus)) \
            - (lam * taus - np.log(lam * taus))
        target = 0.5 * np.log((1 - r) / (1 + r))
        assert gaps[-1] == pytest.approx(target, abs=2e-3)
        # monotone convergence toward the offset
        assert abs(gaps[2] - target) < abs(gaps[0] - target)


def test_iho_volume_against_nested_adaptive_quadrature():
    """The conformal oscillator-ensemble density is a polynomial at even l,
    so ``volume_between`` takes the exact Gauss-Legendre path; a nested
    adaptive integral is the independent oracle."""
    from scipy.integrate import dblquad

    from igac.scenarios import iho_metric

    omegas = np.array([0.5, 1.5])
    metric = iho_metric(omegas)
    x0 = np.array([1.0, 1.0])
    taus = np.linspace(0.0, 2.0, 9)
    path = dyn.path_from_functions(
        taus, lambda t: x0 * np.exp(np.multiply.outer(t, omegas)),
        lambda t: omegas * x0 * np.exp(np.multiply.outer(t, omegas)),
        metric=metric)
    tau = 2.0
    got = cx.volume_between(metric, path, tau)

    def dens(y, x):
        return 1.0 + 0.5 * (omegas[0] ** 2 * x ** 2
                            + omegas[1] ** 2 * y ** 2)

    hi = x0 * np.exp(omegas * tau)
    oracle, err = dblquad(dens, x0[0], hi[0], x0[1], hi[1],
                          epsabs=1e-12, epsrel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_iho_tensor_grid_against_nested_adaptive_quadrature():
    """The same l = 2 oscillator density does not factor across axes.
    ``integrate_box`` has no tensor grid to fall back on, so it raises the
    named error, and the exact box volume of ``iho_metric`` answers instead;
    the nested adaptive integral is again the oracle."""
    from scipy.integrate import dblquad

    from igac.errors import UnsupportedFamilyError
    from igac.quadrature import _separable_factors, integrate_box
    from igac.scenarios import iho_metric

    omegas = np.array([0.5, 1.5])
    lo = np.array([1.0, 1.0])
    hi = lo * np.exp(omegas * 2.0)

    def dens(y, x):
        return 1.0 + 0.5 * (omegas[0] ** 2 * x ** 2
                            + omegas[1] ** 2 * y ** 2)

    def dens_pts(pts):
        return dens(pts[:, 1], pts[:, 0])

    bounds = list(zip(lo, hi))
    assert _separable_factors(dens_pts, bounds, 32) is None
    with pytest.raises(UnsupportedFamilyError):
        integrate_box(dens_pts, bounds, rel_tol=1e-9)
    got = iho_metric(omegas).box_volume(bounds)
    oracle, err = dblquad(dens, lo[0], hi[0], lo[1], hi[1],
                          epsabs=1e-12, epsrel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-8)


def _iho_path(l):
    w = np.linspace(0.5, 1.5, l)
    x0 = np.full(l, 0.2)
    metric = sc.iho_metric(w)
    return metric, dyn.path_from_functions(
        np.linspace(0.0, 4.0, 41),
        lambda t: x0 * np.exp(np.multiply.outer(t, w)),
        lambda t: w * x0 * np.exp(np.multiply.outer(t, w)), metric=metric)


def _gauss_path(source, tau_end, n_out):
    # the spread rises and then falls, so the box is not set by the ends
    model = md.gaussian_diag([0.0], [1.0])
    metric = (md.analytic_fisher(model) if source == "analytic"
              else md.fisher_quadrature(model))
    return metric, dyn.integrate_geodesic(metric, [0.0, 1.0], [1.0, 0.5],
                                          tau_end, tol=1e-10, n_out=n_out)


@pytest.mark.parametrize("case", ["analytic", "analytic_backward",
                                  "quadrature", "iho_l1", "iho_l2"])
def test_trace_volumes_equal_volume_between(case):
    """The running-box trace gives exactly the per-point volumes, on
    closed-form, quadrature-metric and closed-form-function paths."""
    if case == "analytic":
        metric, path = _gauss_path("analytic", 4.0, 65)
    elif case == "analytic_backward":
        metric, path = _gauss_path("analytic", -4.0, 65)
    elif case == "quadrature":
        metric, path = _gauss_path("quadrature", 2.0, 9)
    else:
        metric, path = _iho_path(int(case[-1]))
    trace = cx.complexity_trace(metric, path)
    expect = [cx.volume_between(metric, path, t)
              for t in path.tau_grid]
    assert np.array_equal(trace.delta_v, expect)
    assert np.all(trace.delta_v[1:] > 0)


@pytest.mark.parametrize("case", ["analytic", "quadrature", "iho_l1",
                                  "iho_l2", "analytic_backward"])
def test_igc_at_grid_points_equals_trace(case):
    """``igc`` builds the running boxes of ``complexity_trace``, so at a
    grid point it gives the trace's own value."""
    if case in ("analytic", "quadrature"):
        metric, path = _gauss_path(case, 4.0, 33)
    elif case == "analytic_backward":
        metric, path = _gauss_path("analytic", -4.0, 33)
    else:
        metric, path = _iho_path(int(case[-1]))
    trace = cx.complexity_trace(metric, path)
    got = [cx.igc(metric, path, t) for t in path.tau_grid[1:]]
    assert np.array_equal(got, trace.igc[1:])


@settings(max_examples=30)
@given(base_metric(spread=st.floats(0.5, 2.0)), st.data())
def test_backward_trace_is_the_trace_of_the_reversed_geodesic(case, data):
    """The geodesic from v0 run back to -tau sweeps the boxes of the one
    from -v0 run on to +tau, over the same elapsed |tau|: delta-V, C and S
    agree point by point, and ``igc`` takes a tau past the start in the
    path's own direction only."""
    metric, theta = case
    v = np.array([data.draw(st.floats(-1.0, 1.0))
                  for _ in range(metric.dim)])
    tau = data.draw(st.floats(0.5, 2.0))
    back = dyn.integrate_geodesic(metric, theta, v, -tau, n_out=17)
    ahead = dyn.integrate_geodesic(metric, theta, -v, tau, n_out=17)
    tr_back = cx.complexity_trace(metric, back)
    tr_ahead = cx.complexity_trace(metric, ahead)
    assert np.array_equal(tr_back.tau_grid, -tr_ahead.tau_grid)
    for name in ("delta_v", "igc", "ige"):
        np.testing.assert_allclose(getattr(tr_back, name),
                                   getattr(tr_ahead, name), rtol=1e-12)
    t = 0.7 * tau
    assert cx.igc(metric, back, -t) == pytest.approx(
        cx.igc(metric, ahead, t), rel=1e-12)
    with pytest.raises(ValueError):
        cx.igc(metric, back, t)
