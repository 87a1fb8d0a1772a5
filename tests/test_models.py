"""Families, scores and Fisher metrics against hand-derived oracles."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igac import models as md
from igac.errors import DomainError, ParameterError
from igac.quadrature import legendre_panels
from igac.scenarios import iho_metric

from conftest import FAMILIES, fd_score, fisher_quadrature_at, jet_metric, \
    ode_flow, philox, random_micro_point, random_model


def test_log_density_standard_normal_at_mean():
    m = md.gaussian_diag([0.0], [1.0])
    assert md.log_density(m, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi),
                                                     abs=1e-12)


def test_log_density_exponential_unit_mean_at_origin():
    assert md.log_density(md.exponential(1.0), [0.0]) == 0.0


def test_log_density_bivariate_uncorrelated_at_means():
    # means (k0, -k0) = (1, -1), sigma 1, r = 0
    m = md.gaussian_bivariate_corr(1.0, -1.0, 1.0, r=0.0)
    assert md.log_density(m, [1.0, -1.0]) == pytest.approx(-np.log(2 * np.pi),
                                                           abs=1e-12)


def test_score_gaussian_hand_values():
    m = md.gaussian_diag([0.0], [1.0])
    # d/dmu ln p = (x - mu)/s^2, d/ds ln p = (x - mu)^2/s^3 - 1/s
    assert md.score(m, [0.0]) == pytest.approx([0.0, -1.0], abs=1e-14)
    assert md.score(m, [1.0]) == pytest.approx([1.0, 0.0], abs=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_score_matches_finite_differences(family):
    rng = philox(11)
    for _ in range(6):
        m = random_model(rng, family)
        x = random_micro_point(rng, m)
        assert md.score(m, x) == pytest.approx(fd_score(m, x), abs=1e-6)


def test_exponential_domain_rejection():
    with pytest.raises(DomainError):
        md.log_density(md.exponential(1.0), [-0.5])
    with pytest.raises(DomainError):
        md.score(md.wigner_dyson(1.0), [0.0])


@pytest.mark.parametrize("family", FAMILIES)
def test_nan_micro_point_is_outside_every_support(family):
    """NaN fails the support test of every family, on any micro axis."""
    rng = philox(5)
    m = random_model(rng, family)
    for i in range(m.micro_dim):
        x = random_micro_point(rng, m)
        x[i] = np.nan
        with pytest.raises(DomainError):
            md.log_density(m, x)
        with pytest.raises(DomainError):
            md.score(m, x)


def _failures(build, *args, **kwargs):
    with pytest.raises(ParameterError) as err:
        build(*args, **kwargs)
    return err.value.failures


def test_constructor_invariants():
    with pytest.raises(ValueError):
        md.gaussian_diag([0.0], [0.0])
    with pytest.raises(ValueError):
        md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=1.0)
    with pytest.raises(ValueError):
        md.exponential(-1.0)
    with pytest.raises(ValueError):
        md.macro_correlated_metric([0.5, 1.0])
    # each failure names its argument; a bool is no number, although
    # Python counts it an int
    assert _failures(md.exponential, True) == [
        ("mu", "must be a positive number, got True")]
    assert _failures(md.wigner_dyson, -1.0) == [
        ("mu", "must be a positive number, got -1.0")]
    assert _failures(md.gaussian_diag, [0.0], [True]) == [
        ("sigmas[0]", "must be a positive number, got True")]
    # every failure at once, the length mismatch too
    assert [field for field, _ in _failures(
        md.gaussian_diag, [0.0, 1.0], [0.0, 1.0, -2.0])] == \
        ["sigmas[0]", "sigmas[2]", "sigmas"]
    assert _failures(md.gaussian_bivariate_corr, 0.0, 0.0, 0.0, r=-1.0) == [
        ("sigma", "must be a positive number, got 0.0"),
        ("r", "must lie in (-1, 1), got -1.0")]
    assert [field for field, _ in _failures(
        md.gaussian_bivariate_corr, 0.0, 0.0, 1.0, r=True)] == ["r"]
    assert [field for field, _ in _failures(
        md.macro_correlated_metric, [False, 0.5, 1.0])] == ["r[0]", "r[2]"]
    assert [field for field, _ in _failures(
        md.with_theta, md.gaussian_diag([0.0, 0.0], [1.0, 1.0]),
        [0.0, -1.0, 0.0, 0.0])] == ["theta[1]", "theta[3]"]


def test_analytic_fisher_gaussian_pair():
    g = md.analytic_fisher(md.gaussian_diag([0.0], [2.0]))
    assert g.eval([0.0, 2.0]) == pytest.approx(np.diag([0.25, 0.5]))


def test_analytic_fisher_wigner_dyson():
    g = md.analytic_fisher(md.wigner_dyson(1.0))
    assert g.eval([1.0]) == pytest.approx(np.array([[4.0]]))


def test_analytic_fisher_bivariate_block():
    g = md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.5))
    expect = np.array([[4 / 3, -2 / 3, 0.0],
                       [-2 / 3, 4 / 3, 0.0],
                       [0.0, 0.0, 4.0]])
    assert g.eval([0.0, 0.0, 1.0]) == pytest.approx(expect, abs=1e-12)


def test_macro_correlated_pair_metric():
    g = md.macro_correlated_metric([0.3])
    s = 1.7
    assert g.eval([0.2, s]) == pytest.approx(
        np.array([[1.0, 0.3], [0.3, 2.0]]) / s ** 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_quadrature_matches_analytic(family):
    rng = philox(7)
    for _ in range(3):
        m = random_model(rng, family)
        ga = md.analytic_fisher(m).eval(m.theta)
        gq = md.fisher_quadrature(m).eval(m.theta)
        assert np.max(np.abs(ga - gq)) < 1e-6


def test_quadrature_examples():
    m = md.gaussian_diag([0.0], [1.0])
    assert md.fisher_quadrature(m).eval([0.0, 1.0]) == pytest.approx(
        np.diag([1.0, 2.0]), abs=1e-6)
    m = md.exponential(3.0)
    assert md.fisher_quadrature(m).eval([3.0]) == pytest.approx(
        np.array([[1.0 / 9.0]]), abs=1e-6)
    m = md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.3)
    assert md.fisher_quadrature(m).eval(m.theta) == pytest.approx(
        md.analytic_fisher(m).eval(m.theta), abs=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_and_score_identity(family):
    rng = philox(23)
    for _ in range(5):
        m = random_model(rng, family)
        assert md.normalization_residual(m) < 1e-8
        assert md.score_expectation_residual(m) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_metric_symmetric_positive_definite(family):
    rng = philox(31)
    for _ in range(5):
        m = random_model(rng, family)
        g = md.analytic_fisher(m).eval(m.theta)
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(g)) > 0
        assert md.analytic_fisher(m).sqrt_det(m.theta) > 0


def test_product_metric_block_diagonal():
    m = md.product(md.exponential(1.3),
                   md.gaussian_diag([0.2, -0.1], [1.0, 0.7]))
    g = md.analytic_fisher(m)
    mat = g.eval(m.theta)
    assert g.blocks == ((0,), (1, 2), (3, 4))
    for i, j in [(0, 1), (0, 3), (1, 3), (2, 4)]:
        assert mat[i, j] == 0.0


def test_metric_without_jet_raises_from_jet():
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    bare = md.MetricField(2, metric.eval, scale_coords=(1,))
    for order in (1, 2):
        with pytest.raises(ValueError):
            bare.jet([0.0, 1.0], order)
        with pytest.raises(ValueError):
            bare.connection([0.0, 1.0], order)
    # a factor carries its own jet and connection
    sub = md.analytic_fisher(md.gaussian_diag([0.0, 0.0], [1.0, 1.0])) \
        .block_metric((2, 3))
    assert sub.sqrt_det([0.0, 2.0]) == pytest.approx(np.sqrt(2.0) / 4.0)
    g, dg = sub.jet([0.0, 2.0])
    assert np.array_equal(g, metric.eval([0.0, 2.0]))
    assert np.array_equal(dg, metric.jet([0.0, 2.0])[1])
    assert np.array_equal(sub.connection([0.0, 2.0]),
                          metric.connection(np.array([0.0, 2.0])))


@settings(max_examples=120)
@given(jet_metric(st.floats(0.3, 3.0)), st.booleans(),
       st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
def test_each_factor_carries_the_geometry_of_its_block(case, plain, raw):
    metric, theta = case
    if plain:
        metric = ode_flow(metric)
    raw, spread = np.array(raw[:metric.dim]), list(metric.scale_coords)
    theta1 = theta + 0.25 * raw
    theta1[spread] = theta[spread] * np.exp(0.25 * raw[spread])
    bounds = np.stack([np.minimum(theta, theta1),
                       np.maximum(theta, theta1)], -1)
    # each block moves at a rate of order one
    v = raw.copy()
    for coords in metric.blocks:
        v[list(coords)] *= min([theta[i] for i in coords if i in spread],
                               default=1.0)
    g, dg, d2g = metric.jet(theta, 2)
    gam, dgam = metric.connection(theta, 2)
    volumes = []
    for coords in metric.blocks:
        idx, sub = list(coords), metric.block_metric(coords)
        assert sub is metric.block_metric(coords) and sub.dim == len(idx)
        th = theta[idx]
        entries = [np.ix_(*[idx] * k) for k in (2, 3, 4)]
        assert np.array_equal(sub.eval(th), metric.eval(theta)[entries[0]])
        for part, full, at in zip(sub.jet(th, 2), (g, dg, d2g), entries):
            assert np.array_equal(part, full[at])
        for part, full, at in zip(sub.connection(th, 2), (gam, dgam),
                                  entries[1:]):
            assert np.array_equal(part, full[at])
        assert sub.has_exact_flow == metric.has_exact_flow
        assert sub.has_exact_volume == metric.has_exact_volume
        atol = 1e-12 * (1.0 + np.max(np.abs(theta1)))
        if metric.has_exact_flow:
            tau = np.array([-0.5, 0.25, 1.0])
            for part, full in zip(sub.flow(th, v[idx], tau),
                                  metric.flow(theta, v, tau)):
                np.testing.assert_allclose(part, full[:, idx], rtol=1e-12,
                                           atol=atol)
        try:
            full_log = metric.log(theta, theta1)[idx]
        except ValueError:
            with pytest.raises(ValueError):
                sub.log(th, theta1[idx])
        else:
            np.testing.assert_allclose(sub.log(th, theta1[idx]), full_log,
                                       rtol=1e-12, atol=atol)
        if metric.has_exact_volume:
            volumes.append(sub.box_volume(bounds[idx]))
    if metric.has_exact_volume:
        assert np.prod(volumes) == pytest.approx(metric.box_volume(bounds),
                                                 rel=1e-12, abs=0.0)


def test_block_metric_takes_a_factor_block_only():
    metric = md.analytic_fisher(md.gaussian_diag([0.0, 0.0], [1.0, 1.0]))
    for coords in [(0,), (1, 0), (0, 1, 2, 3), (1, 2)]:
        with pytest.raises(ValueError):
            metric.block_metric(coords)
    iho = iho_metric([0.5, 1.0])
    assert iho.blocks == ((0, 1),) and iho.block_metric([0, 1]) is iho


def test_full_metric_builds_no_factor(monkeypatch):
    # a product evaluates stacked; a factor is built on request only
    metric = md.analytic_fisher(md.product(
        md.exponential(1.0), md.gaussian_diag([0.0, 0.0], [1.0, 2.0])))
    monkeypatch.setattr(md, "_inverse_square_metric", None)
    theta, v = np.array([1.0, 0.0, 1.0, 0.5, 2.0]), np.full(5, 0.1)
    metric.eval(theta), metric.jet(theta, 2), metric.connection(theta, 2)
    metric.flow(theta, v, [1.0]), metric.log(theta, theta + 0.1)
    metric.box_volume(np.stack([theta, theta + 0.1], -1))
    with pytest.raises(TypeError):
        metric.block_metric((0,))


def test_with_theta_rebinds_and_validates():
    m = md.gaussian_diag([0.0], [1.0])
    m2 = md.with_theta(m, [0.5, 2.0])
    assert md.log_density(m2, [0.5]) == pytest.approx(
        -0.5 * np.log(2 * np.pi) - np.log(2.0))
    with pytest.raises(ValueError):
        md.with_theta(m, [0.0, -1.0])


def test_batched_metric_eval():
    g = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    pts = np.array([[0.0, 1.0], [1.0, 2.0]])
    out = g.eval(pts)
    assert out.shape == (2, 2, 2)
    assert out[1] == pytest.approx(np.diag([0.25, 0.5]))


def test_quadrature_cap_reports_estimate():
    from igac.errors import QuadratureAccuracyError

    m = md.gaussian_diag([0.0], [1.0])
    with pytest.raises(QuadratureAccuracyError) as err:
        md.fisher_quadrature(m, max_nodes=4)
    assert err.value.estimate is not None
    assert err.value.estimate.shape == (2, 2)


def test_block_constants_are_computed_once_per_c(monkeypatch):
    """The block constants (T, e, L, sqrt det C) of a family record are
    computed once, when a metric first needs them: a closed-form metric of
    the Gaussian, exponential and Wigner-Dyson records computes none, a
    bivariate model one for its r, however many metrics it gives, and a
    macro-correlation or a quadrature estimate, a new C per build, one
    each."""
    calls = []
    block = md._block
    monkeypatch.setattr(md, "_block", lambda c: calls.append(c) or block(c))
    fixed = md.product(md.gaussian_diag([0.0, 1.0], [1.0, 2.0]),
                       md.exponential(1.5), md.wigner_dyson(0.7))
    md.analytic_fisher(fixed)     # the records' first use in the process
    calls.clear()
    md.analytic_fisher(fixed)
    assert calls == []
    bivariate = md.gaussian_bivariate_corr(0.0, 1.0, 1.2, r=0.4)
    assert calls == []
    md.analytic_fisher(bivariate)
    md.analytic_fisher(bivariate)
    assert len(calls) == 1
    md.macro_correlated_metric([0.2, 0.5])
    assert len(calls) == 3
    md.fisher_quadrature(fixed)
    assert len(calls) == 6


@pytest.mark.parametrize("family", FAMILIES)
def test_quadrature_asks_for_no_rule_over_eight_nodes(family):
    """h h^T is a polynomial of degree <= 4 in each family's rule variable,
    so the 4-node rule is exact and the 8-node one only confirms it."""
    asked = []

    def spied(fam):
        def rule(n):
            asked.append(n)
            return fam.rule(n)
        return dataclasses.replace(fam, rule=rule)

    m = random_model(philox(3), family)
    spies = {fam: spied(fam)
             for fam in dict.fromkeys(f.family for f in m.factors)}
    spy = md.StatModel(m.theta, tuple(
        dataclasses.replace(f, family=spies[f.family]) for f in m.factors))
    gq = md.fisher_quadrature(spy).eval(m.theta)
    assert asked and max(asked) <= 8
    ga = md.analytic_fisher(m).eval(m.theta)
    assert np.all(np.abs(gq - ga) <= 1e-14 * np.abs(ga).max())


_WORKER_RUN_TIME = """
import json, os, time
from igac import geometry as geo, models as md

main = str(os.getpid())

def run_times():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        if tid != main:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                out[tid] = int(f.read().split()[0])
    return out

def settled():
    # BLAS workers started at import spin for a while before they sleep;
    # wait until no other thread has run for a whole 0.5 s interval.
    last = run_times()
    for _ in range(60):
        time.sleep(0.5)
        now = run_times()
        if now == last:
            return now
        last = now
    raise SystemExit("other threads never went idle")

models = [md.gaussian_diag([0.0, 1.0], [1.0, 2.0]), md.exponential(1.5),
          md.wigner_dyson(0.7), md.gaussian_bivariate_corr(0.0, 1.0, 1.2, 0.4),
          md.product(md.exponential(1.0), md.wigner_dyson(2.0))]
before = settled()
for m in models:
    geo.curvature_report(md.fisher_quadrature(m), m.theta)
    md.normalization_residual(m)
    md.score_expectation_residual(m)
time.sleep(0.2)
after = run_times()
print(json.dumps({tid: ns - before.get(tid, 0) for tid, ns in after.items()}))
"""


@pytest.mark.skipif(
    not Path(f"/proc/self/task/{os.getpid()}/schedstat").exists(),
    reason="no per-thread schedstat")
def test_quadrature_metric_runs_on_the_main_thread_alone():
    """Building the quadrature metric of every family and its curvature,
    and both residual checks of every family, give no other thread run
    time: no eigensolve or dot product is large enough to start a BLAS
    worker, which would then spin for a while after it returns."""
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _WORKER_RUN_TIME], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    gains = json.loads(proc.stdout)
    assert all(ns == 0 for ns in gains.values()), gains


means = st.floats(-3.0, 3.0)
# spreads log-uniform in [1e-2, 1e2]
spreads = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@st.composite
def chart_point(draw, model):
    theta = np.empty(model.param_dim)
    for f in model.factors:
        for i in f.theta_at[:-1]:
            theta[i] = draw(means)
        theta[f.theta_at[-1]] = draw(spreads)
    return theta


@st.composite
def quadrature_case(draw):
    """(model at a drawn point, a second drawn point) for every family."""
    family = draw(st.sampled_from(FAMILIES))
    l = draw(st.integers(1, 3))
    pairs = md.gaussian_diag([0.0] * l, [1.0] * l)
    biv = md.gaussian_bivariate_corr(0.0, 0.0, 1.0,
                                     r=draw(st.floats(-0.9, 0.9)))
    model = {"gaussian_diag": pairs, "exponential": md.exponential(1.0),
             "wigner_dyson": md.wigner_dyson(1.0),
             "gaussian_bivariate_corr": biv,
             "product": md.product(md.exponential(1.0), pairs,
                                   md.wigner_dyson(1.0), biv)}[family]
    model = md.with_theta(model, draw(chart_point(model)))
    return model, draw(chart_point(model))


@settings(max_examples=60)
@given(quadrature_case())
def test_quadrature_metric_matches_per_point_quadrature(case):
    """The constant-per-factor metric, built at the model's own point and
    evaluated elsewhere, against quadrature redone at the evaluation point;
    entry ab is compared on the scale sqrt(g_aa g_bb)."""
    model, theta = case
    g = md.fisher_quadrature(model).eval(theta)
    ref = fisher_quadrature_at(model, theta)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(g - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("mu", [10.0 ** k for k in range(-8, 4)])
@pytest.mark.parametrize("family", [md.exponential, md.wigner_dyson])
def test_half_line_residuals_hold_from_the_chart_floor_up(family, mu):
    """The truncation box scales with the mean spacing, down to the chart
    floor 1e-8: no mass and no score is lost at its lower edge."""
    m = family(mu)
    assert md.normalization_residual(m) < 1e-12
    assert mu * md.score_expectation_residual(m) < 1e-12


FAMILY_RECORDS = [("gauss", md._GAUSS), ("exponential", md._EXPONENTIAL),
                  ("wigner_dyson", md._WIGNER_DYSON)] + [
    (f"bivariate[{r}]", md._bivariate(r))
    for r in (-0.9, -0.3, 0.0, 0.5, 0.95)]


@pytest.mark.parametrize("family", [f for _, f in FAMILY_RECORDS],
                         ids=[name for name, _ in FAMILY_RECORDS])
def test_family_record_pieces_agree(family):
    """Every record's closed-form C, natural rule, score, log-density,
    support and truncation box describe one density in t."""
    t, w = family.rule(64)
    lo, hi = family.support.T
    assert np.all((t >= lo if family.closed else t > lo) & (t <= hi))
    assert np.all((lo <= family.box[:, 0]) & (family.box[:, 1] <= hi))
    h = family.score(t)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(w @ h)) < 1e-12
    quad = np.einsum("m,ma,mb->ab", w, h, h)
    assert np.max(np.abs(quad - family.c)) <= 1e-12 * np.max(np.abs(family.c))
    # exp(ln p0) has unit mass on the box, by 256-node Legendre axes
    axes = [legendre_panels(lo, hi, 256) for lo, hi in family.box]
    nodes = np.stack(np.meshgrid(*(x for x, _ in axes), indexing="ij"),
                     axis=-1)
    weights = np.prod(np.meshgrid(*(w for _, w in axes), indexing="ij"),
                      axis=0)
    p0 = np.exp(family.log_norm + family.kernel(nodes))
    assert abs(np.sum(weights * p0) - 1.0) < 1e-13
