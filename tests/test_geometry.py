"""Curvature kernel against flat/hyperbolic closed forms and tensor
identities at randomized chart points."""

import numpy as np
import pytest
from hypothesis import given, settings

from igac import geometry as geo
from igac import models as md
from igac.errors import DegenerateMetricError, DegeneratePlaneError

from conftest import jet_metric, philox


def gaussian_metric(l=1):
    model = md.gaussian_diag([0.0] * l, [1.0] * l)
    return md.analytic_fisher(model)


def wavepacket_metric(r, sigma=1.0):
    return md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, sigma,
                                                         r=r))


def random_theta(rng, metric):
    th = rng.normal(size=metric.dim)
    for i in metric.scale_coords:
        th[i] = rng.uniform(0.4, 2.5)
    return th


def test_flat_christoffel_vanishes():
    m = md.flat_metric(3)
    assert np.max(np.abs(geo.christoffel(m, [0.1, -0.4, 2.0]))) == 0.0


def test_gaussian_christoffel_hand_values():
    gam = geo.christoffel(gaussian_metric(), [0.0, 1.0])
    # chart (mu, sigma): Gamma^s_mm = 1/(2s), Gamma^m_ms = -1/s,
    # Gamma^s_ss = -1/s
    assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert gam[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert gam[0, 1, 0] == pytest.approx(-1.0, abs=1e-12)
    assert gam[1, 1, 1] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=40)
@given(jet_metric())
def test_metric_compatibility_at_random_points(case):
    # Gamma comes from each family's closed form and dg from the metric jet,
    # so the residual checks every family's connection on its own
    metric, theta = case
    assert geo.curvature_report(metric, theta).metric_compat_residual \
        <= 1e-12


@settings(max_examples=40)
@given(jet_metric())
def test_christoffel_symmetry(case):
    gam = geo.christoffel(*case)
    assert np.max(np.abs(gam - np.transpose(gam, (0, 2, 1)))) == 0.0


def test_flat_riemann_vanishes():
    m = md.flat_metric(2)
    assert np.max(np.abs(geo.riemann(m, [0.3, 0.7]))) < 1e-14


def test_riemann_antisymmetries_and_bianchi():
    rng = philox(9)
    for metric in (gaussian_metric(2), wavepacket_metric(0.5),
                   md.macro_correlated_metric([0.4])):
        for _ in range(10):
            th = random_theta(rng, metric)
            rl = geo.curvature_report(metric, th).riemann_lowered
            assert np.max(np.abs(rl + np.transpose(rl, (1, 0, 2, 3)))) < 1e-9
            assert np.max(np.abs(rl + np.transpose(rl, (0, 1, 3, 2)))) < 1e-9
            bianchi = rl + np.transpose(rl, (0, 2, 3, 1)) \
                + np.transpose(rl, (0, 3, 1, 2))
            assert np.max(np.abs(bianchi)) < 1e-9


def test_two_dim_gaussian_scalar_from_sectional():
    # in two dimensions R = 2 K
    metric = gaussian_metric(1)
    th = np.array([0.4, 1.3])
    k = geo.sectional(metric, th, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert geo.ricci_scalar(metric, th) == pytest.approx(2 * k, abs=1e-9)
    assert k == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("l,expect", [(1, -1.0), (3, -3.0)])
def test_gaussian_ricci_scalar(l, expect):
    metric = gaussian_metric(l)
    th = np.tile([0.2, 1.1], l)
    assert geo.ricci_scalar(metric, th) == pytest.approx(expect, abs=1e-6)


@pytest.mark.parametrize("r", [0.2, 0.7])
def test_wavepacket_scalar_and_sectional(r):
    metric = wavepacket_metric(r)
    th = np.array([0.3, -0.5, 1.2])
    assert geo.ricci_scalar(metric, th) == pytest.approx(-1.5, abs=1e-6)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        u, v = np.zeros(3), np.zeros(3)
        u[i], v[j] = 1.0, 1.0
        assert geo.sectional(metric, th, u, v) == pytest.approx(-0.25,
                                                                abs=1e-6)


def test_sectional_flat_and_degenerate():
    m = md.flat_metric(2)
    th = np.zeros(2)
    assert geo.sectional(m, th, [1.0, 0.0], [0.0, 1.0]) == 0.0
    with pytest.raises(DegeneratePlaneError):
        geo.sectional(m, th, [1.0, 0.0], [2.0, 0.0])


def test_sectional_invariant_under_plane_basis_change():
    rng = philox(13)
    metric = wavepacket_metric(0.3)
    th = np.array([0.1, 0.2, 0.9])
    u = np.array([1.0, 0.3, -0.2])
    v = np.array([0.0, 1.0, 0.5])
    k0 = geo.sectional(metric, th, u, v)
    for _ in range(10):
        alpha, gamma = rng.uniform(0.2, 3.0, size=2)
        beta = rng.normal()
        k1 = geo.sectional(metric, th, alpha * u + beta * v, gamma * v)
        assert abs(k1 - k0) < 1e-10


def test_scalar_equals_sectional_sum():
    rng = philox(17)
    for metric in (gaussian_metric(2), wavepacket_metric(0.6),
                   md.macro_correlated_metric([0.2, 0.5])):
        for _ in range(10):
            th = random_theta(rng, metric)
            rep = geo.curvature_report(metric, th)
            assert rep.sectional_sum == pytest.approx(
                geo.ricci_scalar(metric, th), abs=1e-8)


def test_weyl_vanishes_in_two_dims_and_isotropic_three():
    wmax = geo.curvature_report(gaussian_metric(1), [0.2, 1.4]).weyl_max_abs
    assert wmax < 1e-9
    wmax = geo.curvature_report(wavepacket_metric(0.5),
                                [0.1, -0.2, 0.9]).weyl_max_abs
    assert wmax < 1e-8


def test_weyl_nonzero_for_four_dim_gaussian():
    # dim 4 product manifold is anisotropic; record a strictly positive value
    metric = gaussian_metric(2)
    wmax = geo.curvature_report(metric, [0.0, 1.0, 0.0, 1.0]).weyl_max_abs
    assert wmax > 1e-3


def _constant_field(k):
    """A constant Killing-field candidate with its zero derivative."""
    k = np.asarray(k, float)
    return lambda th: (k, np.zeros((k.size, k.size)))


def test_killing_residuals():
    flat = md.flat_metric(2)
    grid = [np.array([x, y]) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    assert geo.killing_residual(flat, _constant_field([1.0, 0.0]),
                                grid) < 1e-10
    metric = gaussian_metric(1)
    grid = [np.array([m, s]) for m in (-0.5, 0.5) for s in (0.8, 1.6)]
    assert geo.killing_residual(metric, _constant_field([1.0, 0.0]),
                                grid) < 1e-8
    assert geo.killing_residual(metric, _constant_field([0.0, 1.0]),
                                [np.array([0.0, 1.0])]) > 0.1


def test_killing_residual_is_exact():
    # on g = diag(1, 2) / s^2 the dilation K = theta is a Killing field,
    # and K = (0, 1) has D_a K_b + D_b K_a = d_s g = -diag(2, 4) / s^3
    metric = gaussian_metric(1)
    grid = [np.array([m, s]) for m in (-0.5, 0.5) for s in (0.8, 1.6)]
    assert geo.killing_residual(metric, lambda th: (th, np.eye(2)),
                                grid) <= 1e-14
    assert geo.killing_residual(metric, _constant_field([0.0, 1.0]),
                                grid) == pytest.approx(4.0 / 0.8 ** 3,
                                                       rel=1e-12)


def test_quadrature_curvature_matches_analytic():
    # the quadrature metric has exact jets, so only the rounding of its
    # constant blocks separates the two
    for model in (md.gaussian_diag([0.1], [1.2]),
                  md.gaussian_bivariate_corr(0.2, -0.3, 1.1, r=0.4),
                  md.product(md.exponential(1.4), md.wigner_dyson(0.7),
                             md.gaussian_diag([0.0, 0.5], [2.0, 0.3]))):
        th = model.theta
        ra = geo.ricci_scalar(md.analytic_fisher(model), th)
        rq = geo.ricci_scalar(md.fisher_quadrature(model), th)
        assert abs(ra - rq) < 1e-12 * abs(ra)


def test_chart_floor_rejected():
    metric = gaussian_metric(1)
    with pytest.raises(DegenerateMetricError):
        geo.christoffel(metric, [0.0, 1e-9])


def test_scalar_invariant_under_chart_rescale():
    metric = wavepacket_metric(0.4)
    scaled = geo.rescaled_chart(metric, [2.0, 0.5, 1.0])
    th = np.array([0.3, -0.1, 1.1])
    thp = th * np.array([2.0, 0.5, 1.0])
    assert geo.ricci_scalar(scaled, thp) == pytest.approx(
        geo.ricci_scalar(metric, th), rel=1e-14)


def test_curvature_report_fields():
    metric = wavepacket_metric(0.5)
    rep = geo.curvature_report(metric, [0.0, 0.0, 1.0])
    assert rep.scalar == pytest.approx(-1.5, abs=1e-6)
    assert len(rep.sectional) == 3
    assert rep.metric_compat_residual < 1e-8
    gam = rep.christoffel
    assert np.max(np.abs(gam - np.transpose(gam, (0, 2, 1)))) == 0.0


REPORT_METRICS = [
    (wavepacket_metric(0.5), [0.2, -0.3, 1.1]),
    (md.macro_correlated_metric([0.3, 0.6]), [0.1, 0.9, -0.4, 1.4]),
    (geo.rescaled_chart(wavepacket_metric(-0.4), [2.0, 0.5, 3.0]),
     [0.3, -0.1, 2.4]),
    (md.analytic_fisher(md.product(
        md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=-0.5),
        md.exponential(1.0), md.gaussian_diag([0.0, 0.0], [1.0, 1.0]))),
     [0.2, 0.7, 1.2, 0.9, -0.3, 1.6, 0.5, 0.7]),
]


@pytest.mark.parametrize("metric,theta", REPORT_METRICS,
                         ids=["bivariate", "macro", "rescaled", "mixed8"])
def test_report_sectionals_are_the_plane_formula(metric, theta):
    """The coordinate planes of ``curvature_report``, read off R_ijij,
    equal the general formula on the unit vectors bit for bit; the frame
    sum agrees with the same formula on the frame's planes and with the
    scalar."""
    rep = geo.curvature_report(metric, theta)
    eye = np.eye(metric.dim)
    assert rep.sectional == [
        ((i, j), geo.sectional(metric, theta, eye[i], eye[j]))
        for i in range(metric.dim) for j in range(i + 1, metric.dim)]
    frame = geo.orthonormal_frame(metric.eval(theta))
    pairs = sum(geo.sectional(metric, theta, frame[i], frame[j])
                for i in range(metric.dim) for j in range(metric.dim)
                if i != j)
    assert rep.sectional_sum == pytest.approx(pairs, rel=1e-13)
    assert rep.sectional_sum == pytest.approx(rep.scalar, rel=1e-13)


def test_public_names_resolve():
    import importlib
    import pkgutil

    import igac

    modules = [igac] + [importlib.import_module(f"igac.{m.name}")
                        for m in pkgutil.iter_modules(igac.__path__)]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ())
                   if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
