"""Parametric probability families and their information metrics.

A ``StatModel`` is a point in a parametric family P(X|theta): Gaussian pairs
parametrized by (mean, spread), exponential and Wigner-Dyson level-spacing
densities parametrized by their mean spacing, a correlated bivariate Gaussian
with a constant micro-correlation r, and products of these.  Every model
decomposes internally into primitive factors, so log-densities, scores and
Fisher metrics compose block-diagonally.  Each factor is a location-scale
family in its chart, so its Fisher block is a constant matrix over the square
of its spread; the closed-form and the quadrature metric both build on those
constants and carry exact first and second derivatives and box volumes.

Chart conventions
-----------------
gaussian_diag uses the interleaved chart (mu_1, sigma_1, ..., mu_l, sigma_l);
gaussian_bivariate_corr uses (mu_x, mu_y, sigma) with r a model constant, not
a coordinate; exponential and wigner_dyson are one-dimensional in their mean.
All spread coordinates live on the open half line (0, inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ChartBoundaryError,
    DegenerateMetricError,
    DomainError,
    ParameterError,
    QuadratureAccuracyError,
    UnsupportedFamilyError,
)
from .quadrature import gauss_hermite_prob, gauss_laguerre, legendre_panels

__all__ = [
    "StatModel",
    "MetricField",
    "gaussian_diag",
    "exponential",
    "wigner_dyson",
    "gaussian_bivariate_corr",
    "product",
    "with_theta",
    "log_density",
    "score",
    "analytic_fisher",
    "fisher_quadrature",
    "macro_correlated_metric",
    "flat_metric",
    "normalization_residual",
    "score_expectation_residual",
    "positive_failures",
    "correlation_failures",
]

@dataclass(frozen=True, eq=False)
class _Factor:
    """A primitive independent factor of a model."""

    kind: str              # gauss_pair | exponential | wigner_dyson | gauss_biv
    theta_at: tuple        # parameter indices in the flat chart
    micro_at: tuple        # micro-variable indices
    r: float = 0.0         # micro-correlation (gauss_biv only)


@dataclass(frozen=True, eq=False)
class StatModel:
    """Immutable parametric model; safe to share across threads."""

    theta: np.ndarray
    micro_dim: int
    param_dim: int
    factors: tuple = ()    # primitive _Factor decomposition

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))

    def micro_bounds(self):
        """Support of each micro coordinate as (lo, hi) pairs."""
        bounds = [None] * self.micro_dim
        for f in self.factors:
            lohi = (0.0, np.inf) if f.kind in ("exponential", "wigner_dyson") \
                else (-np.inf, np.inf)
            for i in f.micro_at:
                bounds[i] = lohi
        return bounds


def _frozen(arr):
    a = np.array(arr, dtype=float)
    a.flags.writeable = False
    return a


def positive_failures(values: dict) -> list:
    """(field, message) of each entry of ``values`` that is no positive
    number; a bool is none."""
    return [(name, f"must be a positive number, got {x}")
            for name, x in values.items()
            if not (isinstance(x, Real) and not isinstance(x, bool) and x > 0)]


def correlation_failures(values: dict) -> list:
    """(field, message) of each entry of ``values`` that is no number in
    [0, 1)."""
    return [(name, f"must lie in [0, 1), got {x}")
            for name, x in values.items()
            if not (isinstance(x, Real) and not isinstance(x, bool)
                    and 0.0 <= x < 1.0)]


def _check_positive(name, value):
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be positive, got {value}")


def gaussian_diag(means: Sequence[float], sigmas: Sequence[float]) -> StatModel:
    """l independent Gaussian micro-variables, chart (mu_k, sigma_k) per pair."""
    means = np.atleast_1d(np.asarray(means, float))
    sigmas = np.atleast_1d(np.asarray(sigmas, float))
    if means.shape != sigmas.shape:
        raise ValueError("means and sigmas must have equal length")
    _check_positive("sigma", sigmas)
    l = means.size
    theta = np.empty(2 * l)
    theta[0::2], theta[1::2] = means, sigmas
    factors = tuple(
        _Factor("gauss_pair", (2 * k, 2 * k + 1), (k,)) for k in range(l))
    return StatModel(theta, l, 2 * l, factors=factors)


def exponential(mu: float) -> StatModel:
    _check_positive("mu", mu)
    return StatModel([mu], 1, 1, factors=(_Factor("exponential", (0,), (0,)),))


def wigner_dyson(mu: float) -> StatModel:
    _check_positive("mu", mu)
    return StatModel([mu], 1, 1,
                     factors=(_Factor("wigner_dyson", (0,), (0,)),))


def gaussian_bivariate_corr(mu_x: float, mu_y: float, sigma: float,
                            r: float = 0.0) -> StatModel:
    """Bivariate Gaussian with common spread and constant micro-correlation."""
    _check_positive("sigma", sigma)
    if not -1.0 < r < 1.0:
        raise ValueError(f"correlation r must lie in (-1, 1), got {r}")
    return StatModel([mu_x, mu_y, sigma], 2, 3,
                     factors=(_Factor("gauss_biv", (0, 1, 2), (0, 1), r=r),))


def product(*models: StatModel) -> StatModel:
    """Independent product; parameters and micro-variables concatenate."""
    theta, factors = [], []
    p_off = m_off = 0
    for m in models:
        theta.extend(np.asarray(m.theta))
        for f in m.factors:
            factors.append(_Factor(f.kind,
                                   tuple(i + p_off for i in f.theta_at),
                                   tuple(i + m_off for i in f.micro_at), f.r))
        p_off += m.param_dim
        m_off += m.micro_dim
    return StatModel(theta, m_off, p_off, factors=tuple(factors))


def with_theta(model: StatModel, theta) -> StatModel:
    """Same family at a different chart point."""
    theta = np.asarray(theta, float)
    if theta.shape != (model.param_dim,):
        raise ValueError(f"theta must have shape ({model.param_dim},)")
    for f in model.factors:
        scale = theta[f.theta_at[-1]]   # last parameter of every factor scales
        if scale <= 0:
            raise ValueError(f"scale parameter at index {f.theta_at[-1]} "
                             f"must stay positive, got {scale}")
    return StatModel(theta, model.micro_dim, model.param_dim,
                     factors=model.factors)


# ---------------------------------------------------------------------------
# log-density and score, vectorized over micro points of shape (..., micro_dim)
# ---------------------------------------------------------------------------

_LOG_2PI = np.log(2.0 * np.pi)


def _factor_logp(f: _Factor, th, x):
    if f.kind == "gauss_pair":
        mu, s = th[f.theta_at[0]], th[f.theta_at[1]]
        z = (x[..., f.micro_at[0]] - mu) / s
        return -0.5 * _LOG_2PI - np.log(s) - 0.5 * z * z
    if f.kind == "exponential":
        mu = th[f.theta_at[0]]
        xv = x[..., f.micro_at[0]]
        if np.any(xv < 0):
            raise DomainError("exponential spacing must be nonnegative")
        return -np.log(mu) - xv / mu
    if f.kind == "wigner_dyson":
        mu = th[f.theta_at[0]]
        xv = x[..., f.micro_at[0]]
        if np.any(xv <= 0):
            raise DomainError("level spacing must be positive")
        return np.log(np.pi / 2) + np.log(xv) - 2 * np.log(mu) \
            - np.pi * xv ** 2 / (4 * mu ** 2)
    if f.kind == "gauss_biv":
        mux, muy, s = (th[i] for i in f.theta_at)
        r = f.r
        xt = (x[..., f.micro_at[0]] - mux) / s
        yt = (x[..., f.micro_at[1]] - muy) / s
        q = xt * xt - 2 * r * xt * yt + yt * yt
        return -_LOG_2PI - 2 * np.log(s) - 0.5 * np.log(1 - r * r) \
            - q / (2 * (1 - r * r))
    raise UnsupportedFamilyError(f.kind)


def _factor_score(f: _Factor, th, x, out):
    if f.kind == "gauss_pair":
        mu, s = th[f.theta_at[0]], th[f.theta_at[1]]
        d = x[..., f.micro_at[0]] - mu
        out[..., f.theta_at[0]] = d / s ** 2
        out[..., f.theta_at[1]] = d * d / s ** 3 - 1.0 / s
    elif f.kind == "exponential":
        mu = th[f.theta_at[0]]
        out[..., f.theta_at[0]] = (x[..., f.micro_at[0]] - mu) / mu ** 2
    elif f.kind == "wigner_dyson":
        mu = th[f.theta_at[0]]
        xv = x[..., f.micro_at[0]]
        out[..., f.theta_at[0]] = np.pi * xv ** 2 / (2 * mu ** 3) - 2.0 / mu
    elif f.kind == "gauss_biv":
        mux, muy, s = (th[i] for i in f.theta_at)
        r = f.r
        xt = (x[..., f.micro_at[0]] - mux) / s
        yt = (x[..., f.micro_at[1]] - muy) / s
        c = 1.0 / ((1 - r * r) * s)
        out[..., f.theta_at[0]] = (xt - r * yt) * c
        out[..., f.theta_at[1]] = (yt - r * xt) * c
        q = xt * xt - 2 * r * xt * yt + yt * yt
        out[..., f.theta_at[2]] = (q / (1 - r * r) - 2.0) / s
    else:
        raise UnsupportedFamilyError(f.kind)


def log_density(model: StatModel, x) -> float | np.ndarray:
    """ln P(X|theta); exponentiates to a normalized density on the support."""
    x = np.asarray(x, float)
    if x.shape[-1] != model.micro_dim:
        raise ValueError(f"micro point must have {model.micro_dim} components")
    th = model.theta
    total = sum(_factor_logp(f, th, x) for f in model.factors)
    return float(total) if x.ndim == 1 else total


def score(model: StatModel, x) -> np.ndarray:
    """Gradient of log_density with respect to the chart coordinates."""
    x = np.asarray(x, float)
    if x.shape[-1] != model.micro_dim:
        raise ValueError(f"micro point must have {model.micro_dim} components")
    log_density(model, x)    # domain validation
    out = np.zeros(x.shape[:-1] + (model.param_dim,))
    for f in model.factors:
        _factor_score(f, model.theta, x, out)
    return out


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

# Spread coordinates live on the open half line; a chart point needs each
# of them at or above this floor, the same bound the flows stop at.
_CHART_FLOOR = 1e-8


class MetricField:
    """A Riemannian metric g_ab(theta) with exact first- and second-derivative
    jets and its exact Levi-Civita connection.

    ``matrix_fn`` maps (..., dim) chart points to (..., dim, dim) matrices.
    ``jet_fn(theta, order)`` returns (g, dg) at one point for ``order=1`` and
    (g, dg, d2g) for ``order=2``.  ``connection_fn(theta, order)`` mirrors
    it: Gamma with Gamma[a, b, c] = Gamma^a_bc, symmetric in (b, c), for
    ``order=1`` and (Gamma, dGamma) with dGamma[c, a, b, d] =
    d_c Gamma^a_bd for ``order=2``, each family in its own closed form.
    Every in-package metric supplies both, and a metric without them (the
    block sub-metrics of ``block_metric``) serves ``eval`` and ``sqrt_det``
    only.  ``volume_fn(lo, hi)`` maps box corners of shape (n, dim) to the
    exact integrals of sqrt(det g) over the boxes, shape (n,); without it,
    box volumes fall back to quadrature.
    ``flow_fn(theta0, v0, tau)`` is the exact geodesic flow: from starts of
    shape (..., dim), real or complex, it returns (theta, theta_dot) of
    shape (..., n_tau, dim) at the offsets ``tau`` from the start, and it
    raises ChartBoundaryError, with the state at the crossing, when a
    spread falls through the chart floor between the start and a grid
    point.  The inverse-square metrics supply it; the flows of
    ``igac.dynamics`` integrate the geodesic equation without it.
    ``blocks`` lists coordinate groups on which the metric factorizes (the
    block submatrix depends only on the block's own coordinates), enabling
    separable volume integrals.  ``scale_coords`` are indices restricted to
    the open half line; ``in_chart`` holds them at or above the chart floor.
    ``floor_margin_fn(theta)`` gives their heights above the floor when the
    floor is set in another chart (``rescaled_chart``); by default it is
    ``theta[..., scale_coords] - _CHART_FLOOR``.
    ``source`` tags how the metric was obtained, analytic or quadrature.
    """

    def __init__(self, dim: int, matrix_fn: Callable, jet_fn: Callable = None,
                 source: str = "analytic", blocks=None, scale_coords=(),
                 volume_fn: Callable = None, connection_fn: Callable = None,
                 flow_fn: Callable = None, floor_margin_fn: Callable = None):
        self.dim = dim
        self._matrix_fn = matrix_fn
        self._jet_fn = jet_fn
        self._connection_fn = connection_fn
        self._volume_fn = volume_fn
        self._flow_fn = flow_fn
        self._floor_margin_fn = floor_margin_fn
        self.source = source
        self.blocks = tuple(tuple(b) for b in blocks) if blocks \
            else (tuple(range(dim)),)
        self.scale_coords = tuple(scale_coords)

    @property
    def has_exact_volume(self) -> bool:
        return self._volume_fn is not None

    @property
    def has_exact_flow(self) -> bool:
        return self._flow_fn is not None

    def floor_margin(self, theta) -> np.ndarray:
        """Height of each scale coordinate of theta (one point or a batch)
        above the chart floor, in ``scale_coords`` order: the one reading
        of the floor, for ``in_chart`` and for the floor events of the
        flows."""
        theta = np.asarray(theta, float)
        if self._floor_margin_fn is not None:
            return self._floor_margin_fn(theta)
        return theta[..., list(self.scale_coords)] - _CHART_FLOOR

    def in_chart(self, theta) -> bool:
        """Whether every scale coordinate of theta (one point or a batch)
        is at or above the chart floor; the one test of the open chart."""
        return bool(np.all(self.floor_margin(theta) >= 0.0))

    def eval(self, theta) -> np.ndarray:
        """Metric matrix at theta; accepts batched points (..., dim)."""
        theta = np.asarray(theta, float)
        return self._matrix_fn(theta)

    def jet(self, theta, order: int = 1):
        """(g, dg) with dg[c, a, b] = d g_ab / d theta_c.

        ``order=2`` returns (g, dg, d2g) with d2g[c, d, a, b] =
        d^2 g_ab / d theta_c d theta_d.  A metric without ``jet_fn``
        raises ValueError.
        """
        if self._jet_fn is None:
            raise ValueError("metric has no jet")
        return self._jet_fn(np.asarray(theta, float), order)

    def connection(self, theta, order: int = 1):
        """Gamma^a_bc, or (Gamma, dGamma) with dGamma[..., c, a, b, d]
        = d_c Gamma^a_bd for ``order=2``; accepts batched points (..., dim).
        A metric without ``connection_fn`` raises ValueError."""
        if self._connection_fn is None:
            raise ValueError("metric has no connection")
        return self._connection_fn(np.asarray(theta, float), order)

    def flow(self, theta0, v0, tau):
        """(theta, theta_dot) of the geodesic from (theta0, v0) at the
        offsets ``tau``, in closed form; only metrics with
        ``has_exact_flow`` support it."""
        if self._flow_fn is None:
            raise ValueError("metric has no closed-form flow")
        # float starts stay real and complex-step starts complex
        return self._flow_fn(np.asarray(theta0) * 1.0, np.asarray(v0) * 1.0,
                             np.asarray(tau, float))

    def box_volume(self, bounds) -> float | np.ndarray:
        """Exact integral of sqrt(det g) over each box of ``bounds``, shape
        (..., dim, 2) with a (lo, hi) pair per coordinate: a float for one
        box, shape (...) for a stack.  Only metrics with
        ``has_exact_volume`` support it."""
        if self._volume_fn is None:
            raise ValueError("metric has no closed-form box volume")
        bounds = np.asarray(bounds, float)
        # one box takes the stacked path too, bit for bit as in a stack
        flat = bounds.reshape(-1, self.dim, 2)
        vol = self._volume_fn(flat[..., 0], flat[..., 1])
        return float(vol[0]) if bounds.ndim == 2 \
            else vol.reshape(bounds.shape[:-2])

    def sqrt_det(self, theta) -> float | np.ndarray:
        g = self.eval(theta)
        det = np.linalg.det(g)
        if np.any(det <= 0):
            raise DegenerateMetricError("nonpositive metric determinant")
        return np.sqrt(det)

    def block_metric(self, block):
        """Restriction of the metric to one coordinate block, for
        ``eval`` and ``sqrt_det``."""
        idx = np.asarray(block)

        def sub(th):
            # out-of-block coordinates are irrelevant by the block contract;
            # ones keep scale coordinates inside the chart
            th = np.asarray(th, float)
            full = np.ones(th.shape[:-1] + (self.dim,))
            full[..., idx] = th
            g = self._matrix_fn(full)
            return g[..., idx[:, None], idx[None, :]]

        return MetricField(len(block), sub, source=self.source,
                           scale_coords=tuple(
                               i for i, c in enumerate(block)
                               if c in self.scale_coords))


def flat_metric(dim: int) -> MetricField:
    eye = np.eye(dim)

    def mat(th):
        th = np.asarray(th, float)
        return np.broadcast_to(eye, th.shape[:-1] + (dim, dim)).copy()

    def jet(th, order=1):
        # g followed by its first ``order`` derivatives, all zero
        return (eye.copy(),) + tuple(np.zeros((dim,) * k)
                                     for k in range(3, 3 + order))

    def connection(th, order=1):
        gam = np.zeros(th.shape[:-1] + (dim,) * 3)
        return gam if order == 1 else \
            (gam, np.zeros(th.shape[:-1] + (dim,) * 4))

    return MetricField(dim, mat, jet_fn=jet, connection_fn=connection,
                       volume_fn=lambda lo, hi: np.prod(hi - lo, axis=-1),
                       blocks=[(i,) for i in range(dim)])


# ---------------------------------------------------------------------------
# closed-form Fisher metrics
# ---------------------------------------------------------------------------

def _inverse_square_metric(dim, blocks, source="analytic") -> MetricField:
    """Metric C_k / s_k^2 on each coordinate block k, zero across blocks.

    ``blocks`` holds (indices, C) pairs: the block's chart indices, whose
    last entry is its spread coordinate s, and the constant SPD matrix C.
    Every block entry scales as s^-2, so d_s g = -2 g / s and
    d_s^2 g = 6 g / s^2 are exact and all other derivatives vanish.  The
    connection within a block with spread index sigma is Gamma^a_bc =
    T^a_bc / s with the constant T^a_bc = -(delta_ac delta_b sigma +
    delta_ab delta_c sigma - (C^-1)_a sigma C_bc), built once per metric, so
    d_s Gamma = -Gamma / s and its other derivatives vanish.  The
    box volume is prod_k sqrt(det C_k) * (mean-axis extents) *
    integral of s^-d_k over the spread interval.  ``source`` records how
    the C_k were obtained (closed form or quadrature).

    The geodesic flow is exact.  Write C = [[A, b], [b^T, c]] with the
    spread last and kappa = c - b^T A^-1 b, the Schur complement of A.  In
    the chart x = L (mu + A^-1 b s), L^T L = A / kappa, the block's line
    element is kappa (|dx|^2 + ds^2) / s^2: hyperbolic space of curvature
    -1 / kappa, whose geodesics are X(tau) = cosh(a tau) P + sinh(a tau) V / a
    on the hyperboloid, mapped back through the half-space chart
    (``_half_space_flow``).  A spread falls through the chart floor where
    a quadratic in e^(a tau) has its root (``_floor_exit``).
    """
    c_full = np.zeros((dim, dim))
    owner = np.empty(dim, dtype=int)     # spread coordinate of each index
    for idx, c in blocks:
        c_full[np.ix_(idx, idx)] = c
        owner[list(idx)] = idx[-1]
    ia, ib = np.nonzero(owner[:, None] == owner[None, :])
    ic = owner[ia]

    def mat(th):
        s = np.asarray(th, float)[..., owner]
        return c_full / (s[..., :, None] * s[..., None, :])

    def jet(th, order=1):
        s = np.asarray(th, float)[owner]
        g = c_full / (s[:, None] * s[None, :])
        dg = np.zeros((dim, dim, dim))
        dg[ic, ia, ib] = (-2.0 * g / s[:, None])[ia, ib]
        if order == 1:
            return g, dg
        d2g = np.zeros((dim, dim, dim, dim))
        d2g[ic, ic, ia, ib] = (6.0 * g / (s * s)[:, None])[ia, ib]
        return g, dg, d2g

    # T is symmetrized in (b, c) here: a quadrature C is symmetric only to
    # roundoff, and Gamma must be symmetric exactly
    t = np.zeros((dim, dim, dim))
    for idx, c in blocks:
        eye = np.eye(len(idx))
        t[np.ix_(idx, idx, idx)] = -(
            eye[:, None, :] * eye[-1][None, :, None]
            + eye[:, :, None] * eye[-1][None, None, :]
            - np.linalg.inv(c)[:, -1][:, None, None] * c[None])
    t = 0.5 * (t + np.swapaxes(t, 1, 2))
    rows = np.arange(dim)

    def connection(th, order=1):
        s = th[..., owner, None, None]
        gam = t / s
        if order == 1:
            return gam
        dgam = np.zeros(th.shape[:-1] + (dim,) * 4)
        dgam[..., owner, rows, :, :] = -gam / s
        return gam, dgam

    # the half-space chart of each block, y = mu + e s and x = L y:
    # ``e_full`` holds e = A^-1 b and ``root`` L^T on the mean coordinates,
    # zero on the spreads
    e_full = np.zeros(dim)
    root = np.zeros((dim, dim))
    for idx, c in blocks:
        mean = list(idx[:-1])
        if mean:
            e = np.linalg.solve(c[:-1, :-1], c[:-1, -1])
            e_full[mean] = e
            root[np.ix_(mean, mean)] = np.linalg.cholesky(
                c[:-1, :-1] / (c[-1, -1] - c[:-1, -1] @ e))
    same_block = (owner[:, None] == owner[None, :]).astype(float)
    is_spread = owner == rows

    def flow(th0, v0, tau):
        # each coordinate carries its block's start values: the spread s0,
        # u = s-dot / s, w^2 = |x-dot|^2 / s^2 and a^2 = u^2 + w^2, the
        # <V, V> of the hyperboloid tangent
        s0 = th0[..., owner]
        y_dot = v0 + e_full * v0[..., owner]
        x_dot = y_dot @ root
        u = v0[..., owner] / s0
        w2 = (x_dot * x_dot) @ same_block / (s0 * s0)
        a = np.sqrt(w2 + u * u)

        def states(tau):
            q, dq, f = _half_space_flow(u, w2, a, tau)
            s = s0[..., None, :] / q
            s_dot = -s * dq / q
            y_dot0 = y_dot[..., None, :]
            mean = th0[..., None, :] + y_dot0 * f \
                + e_full * (s0[..., None, :] - s)
            mean_dot = y_dot0 / (q * q) - e_full * s_dot
            return (np.where(is_spread, s, mean),
                    np.where(is_spread, s_dot, mean_dot))

        tau_exit = _floor_exit(s0.real / _CHART_FLOOR, u.real, w2.real,
                               a.real, tau)
        if tau_exit is not None:
            theta, theta_dot = states(np.array([tau_exit]))
            raise ChartBoundaryError(
                f"geodesic reached the chart floor at tau = {tau_exit}",
                last_state=(tau_exit, theta[..., 0, :],
                            theta_dot[..., 0, :]))
        return states(tau)

    root_dets = [np.sqrt(np.linalg.det(c)) for _, c in blocks]

    def volume(lo, hi):
        total = 1.0
        for (idx, _), root_det in zip(blocks, root_dets):
            means, s = idx[:-1], idx[-1]
            total = total * root_det * _inverse_power_integral(
                lo[:, s], hi[:, s], len(idx)) \
                * np.prod(hi[:, means] - lo[:, means], axis=1)
        return total

    return MetricField(dim, mat, jet_fn=jet, connection_fn=connection,
                       flow_fn=flow, source=source, volume_fn=volume,
                       blocks=[idx for idx, _ in blocks],
                       scale_coords=tuple(idx[-1] for idx, _ in blocks))


def _half_space_flow(u, w2, a, tau):
    """The geodesic of the upper half-space (|dx|^2 + ds^2) / s^2 from start
    rates u = s-dot / s and w^2 = |x-dot|^2 / s^2, with a^2 = u^2 + w^2,
    at the offsets ``tau``: arrays (..., n) of rates in, one entry per
    coordinate, and arrays (..., n_tau, n) out.

    Mapped from the hyperboloid, s0 / s = q = cosh(a tau) - u S with
    S = sinh(a tau) / a, x = x0 + x-dot0 f with f = S / q, and
    x-dot = x-dot0 / q^2.  With t = |tau| and u' = u sign(tau),
    q = e^(-a t) + (a - u') S(t), and a - u' = w^2 / (a + u') where u' > 0,
    so no term cancels near the floor, and at a = 0 (a block at rest)
    q = 1.  Returns (q, dq / dtau, f); complex inputs give the complex-step
    derivative.
    """
    tau = tau[:, None]
    t = np.abs(tau)
    sign = np.where(tau < 0, -1.0, 1.0)
    u, w2, a = (x[..., None, :] for x in (u, w2, a))
    at = a * t
    decay = np.exp(-at)
    moving = a != 0
    sinhc = np.where(moving, np.sinh(at) / np.where(moving, a, 1.0), t)
    u_t = sign * u
    # a > 0 is at least 1e-162, so a + u' stays far from underflow
    rising = (u_t.real > 0) & (a.real > 0)
    gap = np.where(rising, w2 / np.where(rising, a + u_t, 1.0), a - u_t)
    q = decay + gap * sinhc
    dq = sign * (gap * np.cosh(at) - a * decay)
    return q, dq, sign * sinhc / q


def _floor_exit(ratio, u, w2, a, tau):
    """The offset at which a spread first falls through the chart floor on
    the way from 0 to the farthest of ``tau``, or None.

    ``ratio`` = s0 / floor, per coordinate like the rates.
    s0 / s(tau) = ratio is the quadratic
    (a - u) z^2 - 2 a ratio z + (a + u) = 0 in z = e^(a tau); its larger
    root is the crossing ahead, its smaller root the one behind.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = a * (ratio + np.sqrt(np.maximum(ratio * ratio - w2 / (a * a),
                                                0.0)))
        ahead = np.where(u > 0, w2 / (a + u), a - u)
        behind = np.where(u < 0, w2 / (a - u), a + u)
        t_ahead = np.where(a > 0, (np.log(reach) - np.log(ahead)) / a, np.inf)
        t_behind = np.where(a > 0, (np.log(behind) - np.log(reach)) / a,
                            -np.inf)
    t_ahead, t_behind = t_ahead.min(), t_behind.max()
    hi, lo = tau.max(), tau.min()
    if hi > 0 and hi >= t_ahead:
        return max(float(t_ahead), 0.0)
    if lo < 0 and lo <= t_behind:
        return min(float(t_behind), 0.0)
    return None


def _inverse_power_integral(lo, hi, d):
    """integral of s^-d over [lo, hi], 0 < lo <= hi elementwise, written
    through log1p/expm1 so that thin intervals keep full relative precision."""
    log_ratio = np.log1p((hi - lo) / lo)
    if d == 1:
        return log_ratio
    return -lo ** (1 - d) * np.expm1((1 - d) * log_ratio) / (d - 1)


def analytic_fisher(model: StatModel) -> MetricField:
    """Closed-form Fisher-Rao metric for the supported families.

    gauss pair -> diag(1/s^2, 2/s^2); exponential -> 1/mu^2; Wigner-Dyson
    level spacing -> 4/mu^2; correlated bivariate Gaussian -> the (mu_x,
    mu_y, sigma) block with 1/(1-r^2) mean entries and 4/s^2 spread entry.
    """
    blocks = []
    for f in model.factors:
        if f.kind == "gauss_pair":
            c = np.diag([1.0, 2.0])
        elif f.kind == "exponential":
            c = np.array([[1.0]])
        elif f.kind == "wigner_dyson":
            c = np.array([[4.0]])
        elif f.kind == "gauss_biv":
            a = 1.0 / (1 - f.r ** 2)
            c = np.array([[a, -f.r * a, 0.0], [-f.r * a, a, 0.0],
                          [0.0, 0.0, 4.0]])
        else:
            raise UnsupportedFamilyError(f.kind)
        blocks.append((f.theta_at, c))
    return _inverse_square_metric(model.param_dim, blocks)


def macro_correlated_metric(r_values: Sequence[float]) -> MetricField:
    """Pairwise (mu_j, sigma_j) metric with constant macro-correlations r_j.

    Per-pair line element (d mu^2 + 2 r d mu d sigma + 2 d sigma^2) / sigma^2;
    the r_j are model constants, not coordinates.
    """
    r_values = list(np.atleast_1d(r_values))
    fails = correlation_failures(
        {f"r[{i}]": r for i, r in enumerate(r_values)})
    if fails:
        raise ParameterError(fails)
    r_values = [float(r) for r in r_values]
    return _inverse_square_metric(
        2 * len(r_values),
        [((2 * k, 2 * k + 1), np.array([[1.0, r], [r, 2.0]]))
         for k, r in enumerate(r_values)])


# ---------------------------------------------------------------------------
# Fisher metric by quadrature
# ---------------------------------------------------------------------------

def _factor_rule(f: _Factor, th, n):
    """Nodes (m, micro) and probability weights for one factor's density."""
    if f.kind == "gauss_pair":
        mu, s = th[f.theta_at[0]], th[f.theta_at[1]]
        t, w = gauss_hermite_prob(n)
        return (mu + s * t)[:, None], w
    if f.kind == "exponential":
        mu = th[f.theta_at[0]]
        t, w = gauss_laguerre(n)
        return (mu * t)[:, None], w
    if f.kind == "wigner_dyson":
        # substitute t = pi x^2 / (4 mu^2): the density becomes e^-t dt
        mu = th[f.theta_at[0]]
        t, w = gauss_laguerre(n)
        return (mu * np.sqrt(4.0 * t / np.pi))[:, None], w
    if f.kind == "gauss_biv":
        mux, muy, s = (th[i] for i in f.theta_at)
        r = f.r
        t, w = gauss_hermite_prob(n)
        z1, z2 = np.meshgrid(t, t, indexing="ij")
        x = mux + s * z1
        y = muy + s * (r * z1 + np.sqrt(1 - r * r) * z2)
        return np.stack([x.ravel(), y.ravel()], axis=-1), \
            np.outer(w, w).ravel()
    raise UnsupportedFamilyError(f.kind)


def _factor_fisher_block(model, f, th, n):
    nodes, w = _factor_rule(f, th, n)
    x = np.zeros((nodes.shape[0], model.micro_dim))
    x[:, list(f.micro_at)] = nodes
    s = np.zeros((nodes.shape[0], model.param_dim))
    _factor_score(f, th, x, s)
    sblk = s[:, list(f.theta_at)]
    return np.einsum("m,ma,mb->ab", w, sblk, sblk)


def fisher_quadrature(model: StatModel, nodes: int = 64,
                      rel_tol: float = 1e-9,
                      max_nodes: int = 4096) -> MetricField:
    """Fisher-Rao metric integrated numerically against the model density.

    Every factor is a location-scale family in its chart (x = mu + s t), so
    its score is h(t) / s and its Fisher block is exactly C / s^2 with
    C = E[h h^T] independent of theta.  C is integrated once, at the model's
    own theta, with Hermite rules for full-line factors and Laguerre rules
    for half-line factors, doubling the node count until the entrywise
    relative change falls below ``rel_tol``; the metric then has the exact
    jets and box volume of the closed forms.  Raises
    QuadratureAccuracyError (with the last block estimate attached) when the
    node cap is reached first.
    """
    th = model.theta
    blocks = []
    for f in model.factors:
        n = nodes
        cur = _factor_fisher_block(model, f, th, n)
        while True:
            if 2 * n > max_nodes:
                raise QuadratureAccuracyError(
                    f"fisher quadrature did not converge below {rel_tol} "
                    f"within {max_nodes} nodes", estimate=cur)
            nxt = _factor_fisher_block(model, f, th, 2 * n)
            scale = max(np.max(np.abs(nxt)), 1e-300)
            if np.max(np.abs(nxt - cur)) <= rel_tol * scale:
                break
            cur, n = nxt, 2 * n
        blocks.append((f.theta_at, nxt * th[f.theta_at[-1]] ** 2))
    return _inverse_square_metric(model.param_dim, blocks,
                                  source="quadrature")


# ---------------------------------------------------------------------------
# independent normalization / score-identity checks
# ---------------------------------------------------------------------------

def _factor_box(f: _Factor, th):
    if f.kind == "gauss_pair":
        mu, s = th[f.theta_at[0]], th[f.theta_at[1]]
        return [(mu - 13 * s, mu + 13 * s)]
    if f.kind == "exponential":
        return [(0.0, 90.0 * th[f.theta_at[0]])]
    if f.kind == "wigner_dyson":
        return [(1e-12, 13.0 * th[f.theta_at[0]])]
    mux, muy, s = (th[i] for i in f.theta_at)
    w = 13 * s   # marginals have spread exactly s for every r
    return [(mux - w, mux + w), (muy - w, muy + w)]


def _factor_grid(f, th):
    # 256 nodes per axis of the factor's box
    axes = [legendre_panels(lo, hi, 256, max_panel_ratio=1e18)
            for lo, hi in _factor_box(f, th)]
    if len(axes) == 1:
        return axes[0][0][:, None], axes[0][1]
    (x1, w1), (x2, w2) = axes
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=-1), np.outer(w1, w2).ravel()


def normalization_residual(model: StatModel) -> float:
    """max over factors of |integral of the density - 1|, by an independent
    truncated Gauss-Legendre rule (not the natural-weight rules)."""
    worst = 0.0
    for f in model.factors:
        nodes, w = _factor_grid(f, model.theta)
        x = np.zeros((nodes.shape[0], model.micro_dim))
        x[:, list(f.micro_at)] = nodes
        p = np.exp(_factor_logp(f, model.theta, x))
        worst = max(worst, abs(float(w @ p) - 1.0))
    return worst


def score_expectation_residual(model: StatModel) -> float:
    """max-abs of E[score] over the chart directions (vanishes exactly)."""
    worst = 0.0
    for f in model.factors:
        nodes, w = _factor_grid(f, model.theta)
        x = np.zeros((nodes.shape[0], model.micro_dim))
        x[:, list(f.micro_at)] = nodes
        p = np.exp(_factor_logp(f, model.theta, x))
        s = np.zeros((nodes.shape[0], model.param_dim))
        _factor_score(f, model.theta, x, s)
        worst = max(worst, float(np.max(np.abs((w * p) @ s))))
    return worst
