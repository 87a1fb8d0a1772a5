"""Box volumes: the exact closed-form path of every closed-form metric
against per-block adaptive quadrature (``integrate_box``), the oscillator
volume at l = 1, 2, 3 against independent oracles (an antiderivative and
nested adaptive quadrature), the even-l oscillator volume against a
hand-expanded polynomial integral, a stack of boxes against the same boxes
one at a time, the one ``box_volume`` call of a trace, the node cap with one
or with every axis short of convergence, and a subnormal lower end.
"""

from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import nquad

from igac import complexity as cx
from igac import dynamics as dyn
from igac import models as md
from igac.errors import QuadratureAccuracyError
from igac.quadrature import integrate_box
from igac.scenarios import iho_metric

PROPERTY = settings(max_examples=60)

corners = st.floats(-3.0, 3.0)
# extents from 1e-6 to 10 on mean and oscillator axes
extents = st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)
# spread intervals from hi/lo - 1 = 1e-6 (thin) to hi/lo = 1e5 (wide)
spread_lo = st.floats(-2.0, np.log10(5.0)).map(lambda e: 10.0 ** e)
spread_ratio = st.floats(-6.0, 5.0).map(lambda e: 1.0 + 10.0 ** e)
corr = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
macro_corr = st.floats(0.0, 0.95, exclude_max=True)
omega = st.floats(0.3, 2.0)


@st.composite
def factor(draw):
    kind = draw(st.sampled_from(["gaussian_diag", "exponential",
                                 "wigner_dyson", "gaussian_bivariate_corr"]))
    if kind == "gaussian_diag":
        l = draw(st.integers(1, 3))
        return md.gaussian_diag([0.0] * l, [1.0] * l)
    if kind == "exponential":
        return md.exponential(1.0)
    if kind == "wigner_dyson":
        return md.wigner_dyson(1.0)
    return md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=draw(corr))


@st.composite
def exact_volume_case(draw):
    """(closed-form metric, box) over every metric with an exact volume."""
    family = draw(st.sampled_from(["fisher", "product", "macro", "flat",
                                   "iho"]))
    if family in ("fisher", "product"):
        factors = draw(st.lists(factor(), min_size=1,
                                max_size=1 if family == "fisher" else 3))
        metric = md.analytic_fisher(md.product(*factors))
    elif family == "macro":
        metric = md.macro_correlated_metric(
            draw(st.lists(macro_corr, min_size=1, max_size=3)))
    elif family == "flat":
        metric = md.flat_metric(draw(st.integers(1, 4)))
    else:
        omegas = draw(st.lists(omega, min_size=1, max_size=3))
        metric = iho_metric(omegas)
    bounds = box(draw, metric)
    oracle = partial(iho_volume_oracle, omegas) if family == "iho" \
        else partial(per_block_quadrature, metric)
    return metric, bounds, oracle


def box(draw, metric):
    """(lo, hi) per coordinate: thin to wide spread intervals, and mean or
    oscillator extents from 1e-6 to 10."""
    bounds = []
    for i in range(metric.dim):
        if i in metric.scale_coords:
            lo = draw(spread_lo)
            bounds.append((lo, lo * draw(spread_ratio)))
        else:
            lo = draw(corners)
            bounds.append((lo, lo + draw(extents)))
    return bounds


@st.composite
def box_stack_case(draw):
    """(closed-form metric, stack of 1-6 boxes), some of zero extent on one
    axis, over every family with an exact volume: inverse-square metrics in
    closed form and by quadrature, flat metrics, and the oscillator at even
    and odd l."""
    family = draw(st.sampled_from(["fisher", "quadrature", "macro", "flat",
                                   "iho_even", "iho_odd"]))
    if family in ("fisher", "quadrature"):
        build = md.analytic_fisher if family == "fisher" \
            else md.fisher_quadrature
        metric = build(md.product(*draw(st.lists(factor(), min_size=1,
                                                 max_size=3))))
    elif family == "macro":
        metric = md.macro_correlated_metric(
            draw(st.lists(macro_corr, min_size=1, max_size=3)))
    elif family == "flat":
        metric = md.flat_metric(draw(st.integers(1, 4)))
    else:
        l = draw(st.sampled_from([2, 4] if family == "iho_even" else [1, 3]))
        metric = iho_metric(draw(st.lists(omega, min_size=l, max_size=l)))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        bounds = box(draw, metric)
        if draw(st.booleans()):
            i = draw(st.integers(0, metric.dim - 1))
            bounds[i] = (bounds[i][0], bounds[i][0])
        boxes.append(bounds)
    return metric, boxes


def per_block_quadrature(metric, bounds):
    """The quadrature path of ``volume_between``, as the oracle."""
    total = 1.0
    for block in metric.blocks:
        sub = metric.block_metric(block)
        total *= integrate_box(sub.sqrt_det, [bounds[i] for i in block],
                               rel_tol=1e-12)
    return total


def iho_volume_oracle(omegas, bounds):
    """Integral of phi^(l/2), phi = 1 + sum_j w_j^2 x_j^2 / 2, over the box.

    At l = 1 it is the asinh antiderivative, evaluated in 30 digits so that
    a thin box loses nothing to the difference; at l = 2, 3 it is nested
    adaptive quadrature.  The oscillator density does not factor across its
    axes, so ``integrate_box`` cannot serve.
    """
    c = [0.5 * w * w for w in omegas]
    if len(omegas) == 1:
        (lo, hi), = bounds
        with mpmath.workdps(30):
            a = mpmath.sqrt(mpmath.mpf(c[0]))

            def antiderivative(x):
                ax = a * mpmath.mpf(x)
                return 0.5 * x * mpmath.sqrt(1 + ax ** 2) \
                    + mpmath.asinh(ax) / (2 * a)

            return float(antiderivative(hi) - antiderivative(lo))

    def density(*x):
        return (1.0 + sum(cj * xj * xj for cj, xj in zip(c, x))) \
            ** (0.5 * len(c))

    value, _ = nquad(density, bounds, opts={"epsabs": 0.0, "epsrel": 1e-12})
    return value


@PROPERTY
@given(exact_volume_case())
def test_exact_box_volume_matches_block_quadrature(case):
    metric, bounds, oracle = case
    assert metric.has_exact_volume
    assert metric.box_volume(bounds) == pytest.approx(oracle(bounds),
                                                      rel=1e-9, abs=0.0)


@PROPERTY
@given(box_stack_case())
def test_stacked_box_volume_equals_per_box_bit_for_bit(case):
    metric, boxes = case
    stacked = metric.box_volume(boxes)
    assert stacked.shape == (len(boxes),)
    assert np.array_equal(stacked, [metric.box_volume(b) for b in boxes])
    assert np.array_equal(metric.box_volume(np.array(boxes)[:, None]),
                          stacked[:, None])


@settings(max_examples=40)
@given(st.lists(st.tuples(omega, corners, extents), min_size=1,
                max_size=3))
@example([(1.3, -0.5, 2.0)])                      # straddles 0
@example([(0.7, -2.5, 1e-6), (1.9, 1.0, 3.0)])    # thin, at negative x
@example([(2.0, 2.0, 1e-6), (0.3, -3.0, 10.0), (1.1, -2.9, 1e-6)])
def test_iho_volume_matches_independent_oracle(axes):
    omegas = [w for w, _, _ in axes]
    bounds = [(lo, lo + ext) for _, lo, ext in axes]
    assert iho_metric(omegas).box_volume(bounds) == pytest.approx(
        iho_volume_oracle(omegas, bounds), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_thin_spread_boxes_keep_full_precision(eps):
    # integrals of s^-2 and s^-3 over [lo, hi] rewritten without the
    # cancellation of lo^(1-d) - hi^(1-d): (hi - lo) is exact here
    lo = 0.7
    hi = lo * (1.0 + eps)
    pair = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    assert pair.box_volume([(0.0, 2.0), (lo, hi)]) == pytest.approx(
        np.sqrt(2.0) * 2.0 * (hi - lo) / (lo * hi), rel=1e-13, abs=0.0)
    biv = md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.5))
    oracle = 2.0 / np.sqrt(1 - 0.25) * 3.0 * (hi - lo) * (hi + lo) \
        / (2 * lo ** 2 * hi ** 2)
    assert biv.box_volume([(0.0, 1.0), (0.0, 3.0), (lo, hi)]) == \
        pytest.approx(oracle, rel=1e-13, abs=0.0)


def _iho4_polynomial_volume(omegas, bounds):
    """Integral of (1 + sum_j c_j x_j^2)^2, c_j = w_j^2 / 2, expanded by
    hand: 1 + 2 sum c_j x_j^2 + sum c_j^2 x_j^4 + 2 sum_{j<k} c_j c_k
    x_j^2 x_k^2, each monomial integrated axis by axis."""
    c = 0.5 * np.asarray(omegas) ** 2
    lo, hi = np.array(bounds).T
    p0 = hi - lo
    p2 = (hi ** 3 - lo ** 3) / 3
    p4 = (hi ** 5 - lo ** 5) / 5

    def box(moments):           # product over axes, extents where not given
        out = p0.copy()
        for j, p in moments.items():
            out[j] = p
        return np.prod(out)

    total = box({})
    for j in range(4):
        total += 2 * c[j] * box({j: p2[j]})
        total += c[j] ** 2 * box({j: p4[j]})
        for k in range(j + 1, 4):
            total += 2 * c[j] * c[k] * box({j: p2[j], k: p2[k]})
    return total


@PROPERTY
@given(st.lists(omega, min_size=4, max_size=4),
       st.lists(st.tuples(corners, st.floats(0.1, 3.0)), min_size=4,
                max_size=4))
def test_iho_l4_volume_matches_expanded_polynomial(omegas, boxes):
    metric = iho_metric(omegas)
    bounds = [(lo, lo + w) for lo, w in boxes]
    assert metric.box_volume(bounds) == pytest.approx(
        _iho4_polynomial_volume(omegas, bounds), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("l", [2, 4, 6])
def test_even_iho_stack_of_256_boxes_equals_per_box(l):
    # the even-l stack runs as whole arrays; its sums keep their order
    # whatever the stack size, so each box gets the bits it gets alone.
    # Extents stay in [0.1, 3], where the expanded polynomial, a
    # difference of powers, keeps 12 digits.
    rng = np.random.default_rng(l)
    omegas = rng.uniform(0.3, 2.0, l)
    lo = rng.uniform(-3.0, 3.0, (256, l))
    bounds = np.stack([lo, lo + rng.uniform(0.1, 3.0, (256, l))], axis=-1)
    metric = iho_metric(omegas)
    stacked = metric.box_volume(bounds)
    assert np.array_equal(stacked, [metric.box_volume(b) for b in bounds])
    if l == 4:
        assert stacked == pytest.approx(
            [_iho4_polynomial_volume(omegas, b) for b in bounds],
            rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lo,extent", [(2.0, 1e-6), (-3.0, 1e-9),
                                       (1e3, 1e-3)])
def test_thin_iho_boxes_keep_full_precision(lo, extent):
    # a difference of incomplete gammas would lose about lo / extent ulps
    bounds = [(lo, lo + extent)]
    assert iho_metric([1.3]).box_volume(bounds) == pytest.approx(
        iho_volume_oracle([1.3], bounds), rel=1e-13, abs=0.0)


def test_every_iho_has_exact_volume():
    for l in range(1, 6):
        metric = iho_metric(np.linspace(0.5, 2.0, l))
        assert metric.has_exact_volume
        assert metric.box_volume([(-1.0, 2.0)] * l) > 3.0 ** l


def test_odd_iho_volume_between_matches_antiderivative():
    w = 1.3
    metric = iho_metric([w])
    path = dyn.path_from_functions(
        np.linspace(0.0, 1.0, 5),
        lambda t: (1.0 + 2.0 * np.asarray(t))[..., None],
        lambda t: np.full(np.shape(t) + (1,), 2.0), metric=metric)
    assert cx.volume_between(metric, path, 1.0) == pytest.approx(
        iho_volume_oracle([w], [(1.0, 3.0)]), rel=1e-13, abs=0.0)


def test_exact_volume_skips_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_box called on a closed-form metric")

    monkeypatch.setattr(cx, "integrate_box", forbidden)
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    path = dyn.integrate_geodesic(metric, [0.0, 1.0], [np.sqrt(2.0), 0.0],
                                  2.0, tol=1e-10)
    trace = cx.complexity_trace(metric, path)
    assert np.all(trace.delta_v[1:] > 0)


def test_trace_takes_one_box_volume_call(monkeypatch):
    metric = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
    path = dyn.integrate_geodesic(metric, [0.0, 1.0], [1.0, 0.5], 4.0,
                                  tol=1e-10, n_out=129)
    calls = []
    box_volume = metric.box_volume
    monkeypatch.setattr(metric, "box_volume",
                        lambda bounds: calls.append(bounds) or
                        box_volume(bounds))
    trace = cx.complexity_trace(metric, path)
    assert len(calls) == 1
    assert np.all(trace.delta_v[1:] > 0)


def test_integrate_box_subnormal_lower_end():
    # geometric panels on [5e-324, 1]: b / a overflows, log(b) - log(a)
    # does not
    value = integrate_box(lambda pts: pts[:, 0] * pts[:, 1],
                          [(5e-324, 1.0), (1.0, 2.0)])
    assert value == pytest.approx(0.75, rel=1e-12)


def test_integrate_box_cap_raises_with_estimate_separable():
    # a step at x = 1/3 never converges; the rank-1 probe sees a product
    def step(pts):
        return (pts[:, 0] > 1.0 / 3.0) * (1.0 + pts[:, 1])

    with pytest.raises(QuadratureAccuracyError) as err:
        integrate_box(step, [(0.0, 1.0), (0.0, 1.0)], max_nodes=256)
    assert err.value.estimate == pytest.approx(1.0, rel=1e-2)


def test_integrate_box_cap_raises_with_estimate_tensor():
    # a step on both axes: neither converges, and the estimate attached is
    # the product of the last value on each axis
    def step(pts):
        return (pts[:, 0] > 1.0 / 3.0) * (pts[:, 1] > 1.0 / 3.0) \
            * (1.0 + pts[:, 1])

    with pytest.raises(QuadratureAccuracyError) as err:
        integrate_box(step, [(0.0, 1.0), (0.0, 1.0)], max_nodes=256)
    assert err.value.estimate == pytest.approx(2 / 3 * 10 / 9, rel=1e-2)
