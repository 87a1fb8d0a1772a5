"""Gauss quadrature helpers.

Natural-weight rules (Hermite for full-line Gaussian factors, Laguerre for
half-line factors) plus composite Gauss-Legendre panels for box integrals of
separable integrands, axis by axis; there is no tensor-product grid.  Panel
subdivision is geometric when an axis spans several decades, which keeps
integrands like 1/sigma^k resolvable without thousands of nodes.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import QuadratureAccuracyError, UnsupportedFamilyError

_SQRT2PI = np.sqrt(2.0 * np.pi)
# largest ratio b / a of a geometric panel of ``legendre_panels``
_MAX_PANEL_RATIO = 10.0
# nodes per panel of the first estimate of ``integrate_box``, doubled
# from there up to the cap
_START_NODES = 32
_MAX_NODES = 4096


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


def panel_rule(edges, nodes_per_panel: int):
    """Composite Gauss-Legendre nodes/weights, ``nodes_per_panel`` on each
    panel between consecutive ``edges``, in order."""
    t, w = gauss_legendre(nodes_per_panel)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * t).ravel(), (half * w).ravel()


def legendre_panels(a: float, b: float, nodes_per_panel: int):
    """Composite Gauss-Legendre nodes/weights on [a, b].

    For 0 < a < b with b/a large the interval is split into geometric panels
    of ratio at most ``_MAX_PANEL_RATIO``; otherwise a single panel is used.
    Returns (x, w) with sum w f(x) ~ integral_a^b f.
    """
    if b < a:
        a, b = b, a
    if b == a:
        return np.array([a]), np.array([0.0])
    if a > 0.0 and b / a > _MAX_PANEL_RATIO:
        # log(b) - log(a): b / a overflows for a subnormal a
        n_panels = int(np.ceil((np.log(b) - np.log(a))
                               / np.log(_MAX_PANEL_RATIO)))
        edges = np.geomspace(a, b, n_panels + 1)
    else:
        edges = np.array([a, b])
    return panel_rule(edges, nodes_per_panel)


def _separable_factors(fn, bounds, n):
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
        x, w = legendre_panels(lo, hi, n)
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


def integrate_box(fn, bounds, rel_tol: float = 1e-6):
    """Iterated integral of a separable ``fn`` over a coordinate box.

    ``fn`` maps a (npts, ndim) array of points to (npts,) values.  A rank-1
    probe checks that ``fn`` factors across the axes; each axis is then
    integrated by composite Gauss-Legendre rules, the node count doubled
    until the value changes by less than ``rel_tol`` relatively.  Raises
    UnsupportedFamilyError for an integrand that does not factor, and
    QuadratureAccuracyError, with the last estimate attached, when the cap
    of ``_MAX_NODES`` nodes per axis is reached first.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi == lo for lo, hi in bounds):
        return 0.0
    factors = _separable_factors(fn, bounds, _START_NODES)
    if factors is None:
        raise UnsupportedFamilyError(
            "box integrand does not factor across its axes; only separable "
            "integrands have a quadrature volume")
    axes, fm = factors
    mid = [0.5 * (lo + hi) for lo, hi in bounds]

    def axis_value(a, n):
        x, w = legendre_panels(*bounds[a], n)
        pts = np.tile(mid, (x.size, 1))
        pts[:, a] = x
        return float(w @ np.asarray(fn(pts), float))

    total, converged = fm ** (1 - len(bounds)), True
    for a, (_, w, vals) in enumerate(axes):
        # double n from _START_NODES until two estimates agree
        n, prev, ok = _START_NODES, float(w @ vals), False
        while n < _MAX_NODES:
            n *= 2
            cur = axis_value(a, n)
            if abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev), 1e-300):
                prev, ok = cur, True
                break
            prev = cur
        total *= prev
        converged &= ok
    if not converged:
        raise QuadratureAccuracyError(
            f"box integral did not converge below {rel_tol} within "
            f"{_MAX_NODES} nodes per axis", estimate=total)
    return total
