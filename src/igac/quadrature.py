"""Gauss quadrature helpers.

Natural-weight rules (Hermite for full-line Gaussian factors, Laguerre for
half-line factors) plus one composite Gauss-Legendre rule of
``_PANEL_NODES`` nodes per panel for box integrals of separable integrands,
axis by axis; there is no tensor-product grid.  Panel subdivision is
geometric when an axis spans several decades, which keeps integrands like
1/sigma^k resolvable without thousands of nodes; a box integral is refined
by halving its panels, never by a larger rule.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import QuadratureAccuracyError, UnsupportedFamilyError

_SQRT2PI = np.sqrt(2.0 * np.pi)
# Gauss-Legendre nodes on each panel of a composite rule
_PANEL_NODES = 64
# largest ratio b / a of a geometric panel of ``_panel_edges``
_MAX_PANEL_RATIO = 10.0
# relative agreement of two successive estimates of ``integrate_box``; the
# chart-invariance checks of ``rescaled_chart`` compare at 1e-6
_REL_TOL = 1e-8
# parts per panel at which ``integrate_box`` stops halving: 4096 nodes
_MAX_SPLIT = 64


@cache
def gauss_hermite_prob(n: int):
    """Nodes/weights for the standard normal measure: sum w f(t) = E[f(Z)]."""
    t, w = np.polynomial.hermite_e.hermegauss(n)
    return t, w / _SQRT2PI


@cache
def gauss_laguerre(n: int):
    """Nodes/weights for integral_0^inf f(t) e^-t dt = sum w f(t)."""
    return np.polynomial.laguerre.laggauss(n)


@cache
def gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def panel_rule(edges):
    """Composite Gauss-Legendre nodes/weights, ``_PANEL_NODES`` on each
    panel between consecutive ``edges``, in order."""
    t, w = gauss_legendre(_PANEL_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * t).ravel(), (half * w).ravel()


def _panel_edges(a: float, b: float, split: int):
    """Panel edges on [a, b] for ``panel_rule``.

    For 0 < a < b with b/a large the interval is cut into geometric panels
    of ratio at most ``_MAX_PANEL_RATIO``; otherwise it is one panel.  Each
    panel is then cut into ``split`` parts, in ratio where it is geometric.
    """
    if b < a:
        a, b = b, a
    if a > 0.0 and b / a > _MAX_PANEL_RATIO:
        # log(b) - log(a): b / a overflows for a subnormal a
        n_panels = int(np.ceil((np.log(b) - np.log(a))
                               / np.log(_MAX_PANEL_RATIO)))
        return np.geomspace(a, b, n_panels * split + 1)
    return np.linspace(a, b, split + 1)


def _separable_factors(fn, bounds):
    """Rank-1 factorization probe of the integrand over the box.

    Evaluates fn along each axis (others at the box midpoint), forms the
    product model f(m)^(1-d) prod_a f_a(x_a) and tests it at 24 random
    interior points (fixed stream).  Returns the per-axis (x, w, values)
    triples and f(m) when the model reproduces fn to 1e-9 relative, else
    None.
    """
    mid = np.array([0.5 * (lo + hi) for lo, hi in bounds])
    fm = float(fn(mid[None, :])[0])
    if fm == 0.0 or not np.isfinite(fm):
        return None
    axes = []
    for a, (lo, hi) in enumerate(bounds):
        x, w = panel_rule(_panel_edges(lo, hi, 1))
        pts = np.tile(mid, (x.size, 1))
        pts[:, a] = x
        axes.append((x, w, np.asarray(fn(pts), float)))
    # probe at random tensor combinations of the axis nodes, where the
    # product model is exact (no interpolation error)
    rng = np.random.Generator(np.random.Philox(key=0x5eed))
    idx = np.stack([rng.integers(0, axes[a][0].size, 24)
                    for a in range(len(bounds))], axis=1)
    probe = np.stack([axes[a][0][idx[:, a]] for a in range(len(bounds))],
                     axis=1)
    model = fm ** (1 - len(bounds)) * np.prod(
        [axes[a][2][idx[:, a]] for a in range(len(bounds))], axis=0)
    actual = np.asarray(fn(probe), float)
    scale = np.maximum(np.abs(actual), 1e-300)
    if np.max(np.abs(actual - model) / scale) > 1e-9:
        return None
    return axes, fm


def integrate_box(fn, bounds):
    """Iterated integral of a separable ``fn`` over a coordinate box.

    ``fn`` maps a (npts, ndim) array of points to (npts,) values.  A rank-1
    probe checks that ``fn`` factors across the axes; each axis is then
    integrated by ``panel_rule``, its panels halved until two estimates
    agree to ``_REL_TOL`` relatively.  Raises UnsupportedFamilyError for an
    integrand that does not factor, and QuadratureAccuracyError, with the
    last estimate attached, when an axis reaches ``_MAX_SPLIT`` parts per
    panel first.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi == lo for lo, hi in bounds):
        return 0.0
    factors = _separable_factors(fn, bounds)
    if factors is None:
        raise UnsupportedFamilyError(
            "box integrand does not factor across its axes; only separable "
            "integrands have a quadrature volume")
    axes, fm = factors
    mid = [0.5 * (lo + hi) for lo, hi in bounds]
    total, converged = fm ** (1 - len(bounds)), True
    for a, (_, w0, vals) in enumerate(axes):
        # halve the panels from the probe's until two estimates agree
        split, prev, ok = 1, float(w0 @ vals), False
        while split < _MAX_SPLIT:
            split *= 2
            x, w = panel_rule(_panel_edges(*bounds[a], split))
            pts = np.tile(mid, (x.size, 1))
            pts[:, a] = x
            cur = float(w @ np.asarray(fn(pts), float))
            if abs(cur - prev) <= _REL_TOL * max(abs(cur), abs(prev), 1e-300):
                prev, ok = cur, True
                break
            prev = cur
        total *= prev
        converged &= ok
    if not converged:
        raise QuadratureAccuracyError(
            f"box integral did not converge below {_REL_TOL} within "
            f"{_MAX_SPLIT * _PANEL_NODES} nodes per panel", estimate=total)
    return total
