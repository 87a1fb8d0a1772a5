"""Property tests of the connection jet: the exact derivative of the
Christoffel symbols on every closed-form family, on quadrature metrics and on
their chart rescalings against the Richardson difference of the connection,
the closed-form connections against the einsum form of the jet-derived one,
batched connections against pointwise ones, the shooting Jacobian of the
variational flow against differences of geodesic endpoints, the flows'
independence of the metric jet, and the Jacobi flow on a chain-rule
connection."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from igac import dynamics as dyn
from igac import geometry as geo
from igac import models as md
from igac.scenarios import iho_metric

from conftest import (carrier, connection_einsum, gamma_derivative_fd,
                      jet_metric, philox, shooting_jacobian_fd)

PROPERTY = settings(max_examples=40)

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


def assert_matches_einsum(metric, theta):
    gam, dgam = geo.connection_jet(metric, theta)
    ref_gam, ref_dgam = connection_einsum(metric, theta)
    assert np.max(np.abs(gam - ref_gam)) <= \
        1e-13 * np.max(np.abs(ref_gam), initial=1e-300)
    assert np.max(np.abs(dgam - ref_dgam)) <= \
        1e-13 * np.max(np.abs(ref_dgam), initial=1e-300)
    assert np.array_equal(geo.christoffel(metric, theta), gam)


@PROPERTY
@given(jet_metric().filter(lambda case: case[0].dim <= 8))
def test_connection_kernels_match_einsum_form(case):
    assert_matches_einsum(*case)


@pytest.mark.parametrize("dim", range(1, 9))
def test_connection_kernels_match_einsum_form_by_dimension(dim):
    # factors of 3, 2 and 1 coordinates filled in to the requested dimension
    rng = philox(dim)
    factors, point, left = [], [], dim
    while left:
        if left >= 3:
            factors.append(md.gaussian_bivariate_corr(
                0.0, 0.0, 1.0, r=rng.uniform(-0.8, 0.8)))
            point += [*rng.normal(size=2), rng.uniform(0.3, 3.0)]
        elif left == 2:
            factors.append(md.gaussian_diag([0.0], [1.0]))
            point += [rng.normal(), rng.uniform(0.3, 3.0)]
        else:
            factors.append(md.exponential(1.0))
            point.append(rng.uniform(0.3, 3.0))
        left -= factors[-1].param_dim
    point = np.array(point)
    fisher = md.analytic_fisher(md.product(*factors))
    scale = 10.0 ** rng.uniform(-1.0, 1.0, dim)
    for metric, theta in ((fisher, point),
                          (md.fisher_quadrature(md.product(*factors)), point),
                          (geo.rescaled_chart(fisher, scale), scale * point),
                          (iho_metric(rng.uniform(0.3, 2.0, dim)),
                           rng.normal(size=dim))):
        assert_matches_einsum(metric, theta)


@PROPERTY
@given(jet_metric(), st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6))
def test_batched_connection_equals_pointwise(case, factors):
    # a (2, 3, dim) batch of in-chart points, each a positive multiple of
    # the drawn one, in one call against one call per point
    metric, theta = case
    batch = np.reshape(factors, (2, 3, 1)) * theta
    for order in (1, 2):
        got = metric.connection(batch, order)
        for idx in np.ndindex(2, 3):
            one = metric.connection(batch[idx], order)
            if order == 1:
                assert np.array_equal(got[idx], one)
            else:
                assert all(np.array_equal(part[idx], ref)
                           for part, ref in zip(got, one))


@st.composite
def shot(draw):
    """(metric, start, initial velocity) on a chart of dimension 2-8.

    Spreads stay in [0.3, 3], where the endpoint differences of the oracle
    are well conditioned; the velocity has metric speed 1/2, so that over
    tau = 1 no spread changes by more than a factor e^0.82 on the closed-form
    blocks (|d ln s / d tau| <= speed / sqrt(lambda_min(C)))."""
    metric, theta = draw(jet_metric(st.floats(0.3, 3.0)).filter(
        lambda case: 2 <= case[0].dim <= 8))
    raw = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(metric.dim)])
    raw[draw(st.integers(0, metric.dim - 1))] = 1.0
    return metric, theta, 0.5 * raw / np.sqrt(raw @ metric.eval(theta) @ raw)


MIXED8 = md.analytic_fisher(md.product(
    md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.6), md.exponential(1.0),
    md.gaussian_diag([0.0, 0.0], [1.0, 1.0])))
MIXED8_START = np.array([0.4, -0.7, 1.3, 0.8, -1.1, 0.5, 2.0, 1.7])
MIXED8_V = np.array([0.3, -0.1, 0.2, -0.25, 0.4, 0.1, -0.3, 0.35])


@settings(max_examples=20)
@given(shot())
@example((MIXED8, MIXED8_START,
          MIXED8_V / np.sqrt(4.0 * MIXED8_V @ MIXED8.eval(MIXED8_START)
                             @ MIXED8_V)))
def test_shooting_jacobian_matches_endpoint_differences(case):
    # Newton with an exact residual also converges on a wrong Jacobian, only
    # in more shots, so the Jacobian is checked on its own
    metric, theta, v = case
    _, jac = dyn._shoot(metric, theta, v, 1.0, 1e-12)
    oracle = shooting_jacobian_fd(metric, theta, v, 1.0)
    assert np.max(np.abs(jac - oracle)) <= 1e-6 * np.max(np.abs(oracle))


FLOW_CASES = {
    "analytic_fisher": (md.analytic_fisher(md.gaussian_bivariate_corr(
        0.0, 0.0, 1.0, r=0.5)), [0.1, -0.2, 1.0], [0.3, -0.2, 0.1]),
    "fisher_quadrature": (md.fisher_quadrature(md.product(
        md.exponential(1.0), md.gaussian_diag([0.0], [1.0]))),
        [1.0, 0.2, 0.8], [0.2, 0.3, -0.1]),
    "iho_metric": (iho_metric([0.5, 1.2]), [0.3, -0.2], [0.4, 0.1]),
    "rescaled_chart": (geo.rescaled_chart(md.analytic_fisher(
        md.gaussian_diag([0.0], [1.0])), [2.0, 0.5]), [0.2, 0.6],
        [0.3, 0.1]),
}


@pytest.mark.parametrize("name", FLOW_CASES)
def test_integrators_call_no_metric_jet(name, monkeypatch):
    # every right-hand side reads the closed-form connection of the metric
    metric, theta0, v0 = FLOW_CASES[name]
    calls = []
    jet = md.MetricField.jet
    monkeypatch.setattr(md.MetricField, "jet",
                        lambda self, *args: calls.append(1) or
                        jet(self, *args))
    path = dyn.integrate_geodesic(metric, theta0, v0, 1.0, n_out=9)
    trace = dyn.integrate_jacobi(metric, theta0, v0, path.tau_grid,
                                 np.zeros(metric.dim), np.eye(metric.dim)[0])
    bvp = dyn.solve_geodesic_bvp(metric, theta0, path.theta[-1], 1.0,
                                 n_out=9)
    assert calls == []
    assert np.max(np.abs(trace.theta - path.theta)) < 1e-7
    assert np.max(np.abs(bvp.theta_dot[0] - v0)) < 1e-6


def test_jacobi_on_metric_without_second_jet_meets_sinh():
    # the chart pullback has no connection of its own: the deviation flow
    # runs on the base metric's closed form carried over by the chain rule
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
