"""Property tests of the connection jet: the exact derivative of the
Christoffel symbols on every closed-form family, on quadrature metrics and on
their chart rescalings against the Richardson difference of the connection,
and the Jacobi flow on chain-rule jets."""

import numpy as np
from hypothesis import given, settings, strategies as st

from igac import dynamics as dyn
from igac import geometry as geo
from igac import models as md
from igac.scenarios import iho_metric

from conftest import carrier, gamma_derivative_fd

PROPERTY = settings(max_examples=40)

means = st.floats(-3.0, 3.0)
# spreads log-uniform down to 1e-3
spreads = st.floats(-3.0, np.log10(5.0)).map(lambda e: 10.0 ** e)
corr = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
macro_corr = st.floats(0.0, 0.95, exclude_max=True)
# chart rescalings log-uniform in [0.1, 10]
scales = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)


@st.composite
def factor(draw):
    """(model factor, in-chart point of its coordinates)."""
    kind = draw(st.sampled_from(["gaussian_diag", "exponential",
                                 "wigner_dyson", "gaussian_bivariate_corr"]))
    if kind == "gaussian_diag":
        l = draw(st.integers(1, 3))
        point = [x for _ in range(l) for x in (draw(means), draw(spreads))]
        return md.gaussian_diag([0.0] * l, [1.0] * l), point
    if kind == "exponential":
        return md.exponential(1.0), [draw(spreads)]
    if kind == "wigner_dyson":
        return md.wigner_dyson(1.0), [draw(spreads)]
    return (md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=draw(corr)),
            [draw(means), draw(means), draw(spreads)])


@st.composite
def base_metric(draw):
    """(metric, in-chart point) of every closed-form family or of a
    quadrature metric."""
    family = draw(st.sampled_from(["fisher", "product", "macro", "iho",
                                   "flat", "quadrature"]))
    if family in ("fisher", "product", "quadrature"):
        parts = draw(st.lists(factor(), min_size=1,
                              max_size=1 if family == "fisher" else 3))
        model = md.product(*[m for m, _ in parts])
        point = [x for _, p in parts for x in p]
        build = md.fisher_quadrature if family == "quadrature" \
            else md.analytic_fisher
        return build(model), np.array(point)
    if family == "macro":
        rs = draw(st.lists(macro_corr, min_size=1, max_size=3))
        point = [x for _ in rs for x in (draw(means), draw(spreads))]
        return md.macro_correlated_metric(rs), np.array(point)
    dim = draw(st.integers(1, 4))
    point = np.array([draw(means) for _ in range(dim)])
    if family == "iho":
        omegas = [draw(st.floats(0.3, 2.0)) for _ in range(dim)]
        return iho_metric(omegas), point
    return md.flat_metric(dim), point


@st.composite
def jet_metric(draw):
    """(metric, in-chart point): a base metric or its chart rescaling."""
    metric, point = draw(base_metric())
    if draw(st.booleans()):
        scale = np.array([draw(scales) for _ in range(metric.dim)])
        return geo.rescaled_chart(metric, scale), scale * point
    return metric, point


@PROPERTY
@given(jet_metric())
def test_connection_jet_matches_finite_difference(case):
    metric, theta = case
    gam, dgam = geo.connection_jet(metric, theta)
    assert np.array_equal(gam, geo.christoffel(metric, theta))
    oracle = gamma_derivative_fd(metric, theta)
    assert np.max(np.abs(dgam - oracle)) <= 1e-6 * np.max(np.abs(oracle))


@PROPERTY
@given(jet_metric())
def test_connection_derivative_symmetric_in_lower_pair(case):
    metric, theta = case
    _, dgam = geo.connection_jet(metric, theta)
    asym = dgam - np.transpose(dgam, (0, 1, 3, 2))
    assert np.max(np.abs(asym)) <= 1e-14 * np.max(np.abs(dgam))


def test_jacobi_on_metric_without_second_jet_meets_sinh():
    # the chart pullback has no jet of its own: the deviation flow runs on
    # jets carried over from the base metric by the chain rule
    params = dyn.WavePacketParams(1.0, 0.25, 1.0, 0.5)
    metric = md.analytic_fisher(md.gaussian_bivariate_corr(
        0.0, 0.0, params.sigma_peak, r=params.r))
    scale = np.array([2.0, 0.5, 1.0])
    scaled = geo.rescaled_chart(metric, scale)
    amp = params.mean_amplitude * np.sqrt(1 - params.r)
    th0 = np.array([0.0, 0.0, params.sigma_peak])
    v0 = np.array([-amp * params.a0, amp * params.a0, 0.0])
    a0 = params.a0
    path = dyn.integrate_geodesic(scaled, scale * th0, scale * v0, 5.0 / a0,
                                  tol=1e-11, n_out=65)
    w = scale * dyn.normal_direction(metric, th0, v0, axis=2)
    trace = dyn.integrate_jacobi(scaled, *carrier(path), np.zeros(3), w,
                                 rtol=1e-10)
    oracle = np.sinh(a0 * trace.tau_grid) / a0
    late = trace.tau_grid >= 0.1 / a0
    rel = np.abs(trace.intensity[late] - oracle[late]) / oracle[late]
    assert np.max(rel) < 1e-4
