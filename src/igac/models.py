"""Parametric probability families and their information metrics.

A ``StatModel`` is a point in a parametric family P(X|theta): Gaussian pairs
parametrized by (mean, spread), exponential and Wigner-Dyson level-spacing
densities parametrized by their mean spacing, a correlated bivariate Gaussian
with a constant micro-correlation r, and products of these.  Every model
decomposes into independent factors, so log-densities, scores and Fisher
metrics compose block-diagonally.

Each factor is a location-scale family: its micro point is x = loc + s t,
with loc the factor's mean coordinates (or 0) and s its last coordinate, and
one record per family (``_Family``) holds everything in the standard
variable t: the log-density, the score h(t), the constant C = E[h h^T], the
natural Gauss rule, the truncation box and the support edge.  So
ln p = ln p0(t) - m ln s, the score is h(t) / s and the Fisher block is
C / s^2; C is known once per family, in t, and the closed-form and the
quadrature metric both build on it with exact first and second derivatives
and box volumes.

Chart conventions
-----------------
gaussian_diag uses the interleaved chart (mu_1, sigma_1, ..., mu_l, sigma_l);
gaussian_bivariate_corr uses (mu_x, mu_y, sigma) with r a model constant, not
a coordinate; exponential and wigner_dyson are one-dimensional in their mean.
All spread coordinates live on the open half line (0, inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ChartBoundaryError,
    DegenerateMetricError,
    DomainError,
    ParameterError,
    QuadratureAccuracyError,
)
from .quadrature import gauss_hermite_prob, gauss_laguerre, panel_rule

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


def _frozen(arr):
    a = np.array(arr, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Block:
    """The constants of an inverse-square block C / s^2, the spread s last:
    ``c`` = C = [[A, b], [b^T, c]]; ``t``, the connection constant T^a_bc
    of ``_inverse_square_metric``; the half-space chart x = L^T (mu + e s)
    of the block, from ``e`` = A^-1 b and ``root`` = L, the Cholesky factor
    of A / kappa with kappa = c - b^T A^-1 b (both empty without mean
    coordinates); and ``root_det`` = sqrt(det C)."""

    c: np.ndarray
    t: np.ndarray
    e: np.ndarray
    root: np.ndarray
    root_det: float


def _block(c) -> _Block:
    """The constants of the block C / s^2, computed where C is known: once
    per family, or once per build for a C new to it."""
    c = np.asarray(c, float)
    eye = np.eye(len(c))
    t = -(eye[:, None, :] * eye[-1][None, :, None]
          + eye[:, :, None] * eye[-1][None, None, :]
          - np.linalg.inv(c)[:, -1][:, None, None] * c[None])
    # symmetrized in (b, c): a quadrature C is symmetric only to roundoff,
    # and Gamma must be symmetric exactly
    t = 0.5 * (t + np.swapaxes(t, 1, 2))
    e, root = np.zeros(0), np.zeros((0, 0))
    if len(c) > 1:
        e = np.linalg.solve(c[:-1, :-1], c[:-1, -1])
        root = np.linalg.cholesky(c[:-1, :-1] / (c[-1, -1] - c[:-1, -1] @ e))
    return _Block(c, t, e, root, np.sqrt(np.linalg.det(c)))


@dataclass(frozen=True, eq=False)
class _Family:
    """A location-scale family in its standard variable t, shape (..., m).

    ln p0(t) = ``log_norm`` + ``kernel(t)``; ``score(t)`` is h(t), shape
    (..., k), the score in the factor's chart coordinates times s; ``c`` is
    E[h h^T] in closed form.  ``rule(n)`` is the natural Gauss rule of p0:
    nodes (N, m) and probability weights (N,).  ``support`` and ``box``
    hold (lo, hi) edges of t per axis, shape (m, 2): the support, whose
    lower edge belongs to it when ``closed``, and the truncation box,
    outside which p0 has no mass at double precision.  ``block`` holds the
    constants of the Fisher block C / s^2, computed once per record, when
    a metric first needs them.
    """

    log_norm: float
    kernel: Callable
    score: Callable
    c: np.ndarray
    rule: Callable
    box: np.ndarray
    support: np.ndarray = ((-np.inf, np.inf),)
    closed: bool = True

    def __post_init__(self):
        for name in ("c", "box", "support"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @cached_property
    def block(self) -> _Block:
        return _block(self.c)


_LOG_2PI = np.log(2.0 * np.pi)


def _column(rule, to_t=lambda u: u):
    """A one-axis rule n -> (nodes, weights), its nodes mapped by ``to_t``
    into a column (N, 1)."""
    def column(n):
        u, w = rule(n)
        return to_t(u)[:, None], w
    return column


# N(0, 1): the (mean, spread) pair
_GAUSS = _Family(-0.5 * _LOG_2PI, lambda t: -0.5 * t[..., 0] ** 2,
                 lambda t: np.concatenate([t, t * t - 1.0], axis=-1),
                 np.diag([1.0, 2.0]), _column(gauss_hermite_prob),
                 [(-13.0, 13.0)])
# e^-t on t >= 0, scaled by its mean
_EXPONENTIAL = _Family(0.0, lambda t: -t[..., 0], lambda t: t - 1.0,
                       [[1.0]], _column(gauss_laguerre), [(0.0, 90.0)],
                       [(0.0, np.inf)])
# the Wigner-Dyson surmise (pi t / 2) e^(-pi t^2 / 4) on t > 0, unit mean
_WIGNER_DYSON = _Family(
    np.log(np.pi / 2),
    lambda t: np.log(t[..., 0]) - 0.25 * np.pi * t[..., 0] ** 2,
    lambda t: 0.5 * np.pi * t * t - 2.0, [[4.0]],
    # u = pi t^2 / 4 turns p0(t) dt into e^-u du
    _column(gauss_laguerre, lambda u: np.sqrt(4.0 * u / np.pi)),
    [(0.0, 13.0)], [(0.0, np.inf)], closed=False)


def _bivariate(r: float) -> _Family:
    """The pair t of unit Gaussians with correlation r, located at (mu_x,
    mu_y) with one common spread: with P the inverse of the correlation
    matrix, ln p0 = -t^T P t / 2 + const and h = (P t, t^T P t - 2)."""
    a = 1.0 / (1 - r ** 2)

    def form(t):
        t1, t2 = t[..., 0], t[..., 1]
        p1, p2 = (t1 - r * t2) * a, (t2 - r * t1) * a
        return p1, p2, t1 * p1 + t2 * p2

    # both stack on a leading axis, so that each column is contiguous
    def score(t):
        p1, p2, q = form(t)
        return np.moveaxis(np.stack([p1, p2, q - 2.0]), 0, -1)

    def rule(n):
        z, w = gauss_hermite_prob(n)
        z1, z2 = np.meshgrid(z, z, indexing="ij")
        t2 = r * z1 + np.sqrt(1 - r * r) * z2
        return np.stack([z1.ravel(), t2.ravel()]).T, np.outer(w, w).ravel()

    # the marginals have unit spread for every r
    return _Family(-_LOG_2PI - 0.5 * np.log(1 - r * r),
                   lambda t: -0.5 * form(t)[2], score,
                   [[a, -r * a, 0.0], [-r * a, a, 0.0], [0.0, 0.0, 4.0]],
                   rule, [(-13.0, 13.0)] * 2, [(-np.inf, np.inf)] * 2)


def _cols(at: range) -> slice:
    return slice(at.start, at.stop)


@dataclass(frozen=True, eq=False)
class _Factor:
    """An independent factor of a model: its family and the contiguous
    ranges of its chart coordinates (the location coordinates, if any, then
    the scale s) and of its micro variables."""

    family: _Family
    theta_at: range
    micro_at: range

    def loc_scale(self, th):
        start, scale = self.theta_at.start, self.theta_at.stop - 1
        return (th[start:scale] if scale > start else 0.0), th[scale]

    def standard(self, th, x):
        """(t, s) of the factor's micro points x, shape (..., m); raises
        DomainError for a point outside the support."""
        loc, s = self.loc_scale(th)
        t = (x - loc) / s
        edge = self.family.support[:, 0]
        # negated, so that NaN fails the test too
        if not np.all(t >= edge if self.family.closed else t > edge):
            raise DomainError("micro point outside the support")
        return t, s

    def log_density(self, th, x):
        t, s = self.standard(th, x)
        return self.family.log_norm - len(self.micro_at) * np.log(s) \
            + self.family.kernel(t)

    def score(self, th, x):
        t, s = self.standard(th, x)
        return self.family.score(t) / s

    def to_x(self, th, edges):
        """(lo, hi) edges of t per micro axis, shape (m, 2), mapped to x."""
        loc, s = self.loc_scale(th)
        return (loc + s * edges.T).T


@dataclass(frozen=True, eq=False)
class StatModel:
    """Immutable parametric model; safe to share across threads."""

    theta: np.ndarray
    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))

    @property
    def param_dim(self) -> int:
        return self.theta.size

    @property
    def micro_dim(self) -> int:
        return sum(len(f.micro_at) for f in self.factors)

    def micro_bounds(self):
        """Support of each micro coordinate as (lo, hi) pairs."""
        return [(float(lo), float(hi)) for f in self.factors
                for lo, hi in f.to_x(self.theta, f.family.support)]


def _model(theta, *families: _Family) -> StatModel:
    """The model at ``theta`` with one factor per family, each on the next
    chart and micro coordinates in turn."""
    factors, p, q = [], 0, 0
    for fam in families:
        k, m = len(fam.c), len(fam.box)
        factors.append(_Factor(fam, range(p, p + k), range(q, q + m)))
        p, q = p + k, q + m
    return StatModel(theta, tuple(factors))


def _is_number(x) -> bool:
    """Whether x is a real number, no bool; int and float skip the ABC."""
    return isinstance(x, (int, float, Real)) and not isinstance(x, bool)


def positive_failures(values: dict) -> list:
    """(field, message) of each entry of ``values`` that is no positive
    number."""
    return [(name, f"must be a positive number, got {x}")
            for name, x in values.items() if not (_is_number(x) and x > 0)]


def correlation_failures(values: dict) -> list:
    """(field, message) of each entry of ``values`` that is no number in
    [0, 1)."""
    return [(name, f"must lie in [0, 1), got {x}")
            for name, x in values.items()
            if not (_is_number(x) and 0.0 <= x < 1.0)]


def gaussian_diag(means: Sequence[float], sigmas: Sequence[float]) -> StatModel:
    """l independent Gaussian micro-variables, chart (mu_k, sigma_k) per
    pair; each spread must be a positive number, ``sigmas[k]``."""
    # the entries as given, so that a bool is no spread
    means, sigmas = ([*v] if np.iterable(v) else [v] for v in (means, sigmas))
    fails = positive_failures({f"sigmas[{k}]": s
                               for k, s in enumerate(sigmas)})
    if len(means) != len(sigmas):
        fails.append(("sigmas", "length mismatch with means"))
    ParameterError.raise_any(fails)
    l = len(means)
    theta = np.empty(2 * l)
    theta[0::2], theta[1::2] = means, sigmas
    return _model(theta, *[_GAUSS] * l)


def exponential(mu: float) -> StatModel:
    ParameterError.raise_any(positive_failures({"mu": mu}))
    return _model([mu], _EXPONENTIAL)


def wigner_dyson(mu: float) -> StatModel:
    ParameterError.raise_any(positive_failures({"mu": mu}))
    return _model([mu], _WIGNER_DYSON)


def gaussian_bivariate_corr(mu_x: float, mu_y: float, sigma: float,
                            r: float = 0.0) -> StatModel:
    """Bivariate Gaussian with common spread and constant micro-correlation
    r, a number in (-1, 1)."""
    fails = positive_failures({"sigma": sigma})
    if not (_is_number(r) and -1.0 < r < 1.0):
        fails.append(("r", f"must lie in (-1, 1), got {r}"))
    ParameterError.raise_any(fails)
    return _model([mu_x, mu_y, sigma], _bivariate(r))


def product(*models: StatModel) -> StatModel:
    """Independent product; parameters and micro-variables concatenate."""
    return _model([x for m in models for x in m.theta],
                  *(f.family for m in models for f in m.factors))


def with_theta(model: StatModel, theta) -> StatModel:
    """Same family at a different chart point."""
    theta = np.asarray(theta, float)
    if theta.shape != (model.param_dim,):
        raise ParameterError([("theta", f"must have shape "
                                        f"({model.param_dim},)")])
    # the last parameter of every factor is its scale
    ParameterError.raise_any(positive_failures(
        {f"theta[{f.theta_at[-1]}]": theta[f.theta_at[-1]]
         for f in model.factors}))
    return StatModel(theta, model.factors)


# ---------------------------------------------------------------------------
# log-density and score, vectorized over micro points of shape (..., micro_dim)
# ---------------------------------------------------------------------------

def _micro_points(model: StatModel, x) -> np.ndarray:
    x = np.asarray(x, float)
    if x.shape[-1] != model.micro_dim:
        raise ValueError(f"micro point must have {model.micro_dim} components")
    return x


def log_density(model: StatModel, x) -> float | np.ndarray:
    """ln P(X|theta); exponentiates to a normalized density on the support."""
    x = _micro_points(model, x)
    total = sum(f.log_density(model.theta, x[..., _cols(f.micro_at)])
                for f in model.factors)
    return float(total) if x.ndim == 1 else total


def score(model: StatModel, x) -> np.ndarray:
    """Gradient of log_density with respect to the chart coordinates;
    raises DomainError for a point outside the support."""
    x = _micro_points(model, x)
    return np.concatenate([f.score(model.theta, x[..., _cols(f.micro_at)])
                           for f in model.factors], axis=-1)


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
    Every in-package metric supplies both.  ``volume_fn(lo, hi)`` maps box
    corners of shape (n, dim) to the exact integrals of sqrt(det g) over
    the boxes, shape (n,); without it, box volumes fall back to quadrature.
    ``flow_fn(theta0, v0, tau)`` is the exact geodesic flow: from starts of
    shape (..., dim), real or complex, it returns (theta, theta_dot) of
    shape (..., n_tau, dim) at the offsets ``tau`` from the start, and it
    raises ChartBoundaryError, with the state at the crossing, when a
    spread falls through the chart floor between the start and a grid
    point.  ``log_fn(theta0, theta1)``, its inverse, is the start velocity
    of the geodesic that reaches theta1 at unit offset.  The inverse-square
    metrics supply both, each in closed form once per hyperbolic block;
    the flows of ``igac.dynamics`` integrate the geodesic equation without
    them.
    ``factors`` holds a (coords, build) pair per factor of a product: the
    chart indices of a block of g that depends on them alone, zero across
    blocks, and a function that builds the factor's own MetricField.  A
    metric with one factor, the default, is that factor; ``blocks`` lists
    the coords.  ``scale_coords`` are indices restricted to the open half
    line; ``in_chart`` holds them at or above the chart floor.
    ``floor_margin_fn(theta)`` gives their heights above the floor when the
    floor is set in another chart (``rescaled_chart``); by default it is
    ``theta[..., scale_coords] - _CHART_FLOOR``.
    ``source`` tags how the metric was obtained, analytic or quadrature.
    """

    def __init__(self, dim: int, matrix_fn: Callable, jet_fn: Callable = None,
                 source: str = "analytic", factors=None, scale_coords=(),
                 volume_fn: Callable = None, connection_fn: Callable = None,
                 flow_fn: Callable = None, log_fn: Callable = None,
                 floor_margin_fn: Callable = None):
        self.dim = dim
        self._matrix_fn = matrix_fn
        self._jet_fn = jet_fn
        self._connection_fn = connection_fn
        self._volume_fn = volume_fn
        self._flow_fn = flow_fn
        self._log_fn = log_fn
        self._floor_margin_fn = floor_margin_fn
        self.source = source
        self._factors = {tuple(c): cache(b) for c, b in factors} \
            if len(factors or ()) > 1 else {tuple(range(dim)): None}
        self.scale_coords = tuple(scale_coords)

    @property
    def blocks(self) -> tuple:
        return tuple(self._factors)

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

    def log(self, theta0, theta1) -> np.ndarray:
        """The velocity at theta0 of the geodesic that reaches theta1 at
        unit offset, in closed form; only metrics with ``has_exact_flow``
        support it."""
        if self._log_fn is None:
            raise ValueError("metric has no closed-form log map")
        return self._log_fn(np.asarray(theta0, float),
                            np.asarray(theta1, float))

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

    def block_metric(self, coords) -> MetricField:
        """The factor on ``coords``, one of ``blocks`` (else ValueError),
        built once, on request only: its g, jets and connection are the
        metric's entries on its block, and it has a flow, log map and exact
        volume wherever the metric, which evaluates them stacked, has one."""
        coords = tuple(coords)
        if coords not in self._factors:
            raise ValueError(f"{coords} is not a factor block of the metric, "
                             f"whose blocks are {self.blocks}")
        build = self._factors[coords]
        return self if build is None else build()


def flat_metric(dim: int) -> MetricField:
    eye = np.eye(dim)

    def mat(th):
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
                       factors=[((i,), lambda: flat_metric(1))
                                for i in range(dim)])


# ---------------------------------------------------------------------------
# closed-form Fisher metrics
# ---------------------------------------------------------------------------

def _inverse_square_metric(blocks, source="analytic") -> MetricField:
    """Metric C_k / s_k^2 on each coordinate block k, zero across blocks.

    ``blocks`` holds the ``_Block`` of each block's constant SPD matrix C,
    in chart order: each block is a run of contiguous coordinates, its
    spread s last.  The constants are computed where C is known, so that
    a build only assembles arrays.  Every block entry scales as
    s^-2, so d_s g = -2 g / s and d_s^2 g = 6 g / s^2 are exact and all
    other derivatives vanish.  The connection within a block with spread
    index sigma is Gamma^a_bc = T^a_bc / s with the constant T^a_bc =
    -(delta_ac delta_b sigma + delta_ab delta_c sigma - (C^-1)_a sigma C_bc),
    so d_s Gamma = -Gamma / s and its other derivatives vanish.  The box
    volume is prod_k sqrt(det C_k) * (mean-axis extents) * integral of
    s^-d_k over the spread interval.  ``source`` records how the C_k were
    obtained (closed form or quadrature); a factor is its block's metric.

    The geodesic flow is exact.  Write C = [[A, b], [b^T, c]] with the
    spread last and kappa = c - b^T A^-1 b, the Schur complement of A.  In
    the chart x = L^T (mu + A^-1 b s), L L^T = A / kappa, the block's line
    element is kappa (|dx|^2 + ds^2) / s^2: hyperbolic space of curvature
    -1 / kappa, whose geodesics are X(tau) = cosh(a tau) P + sinh(a tau) V / a
    on the hyperboloid, mapped back through the half-space chart once per
    block (``_half_space_flow``).  A spread falls through the chart floor
    where a quadratic in e^(a tau) has its root (``_floor_exit``).  The
    geodesic between two points is an arc of the circle through both that
    is centred on the boundary, and the log map gives its start velocity
    (``_half_space_log``).
    """
    sizes = np.array([len(b.c) for b in blocks], dtype=int)
    spread = np.cumsum(sizes) - 1        # spread coordinate of each block
    start = spread + 1 - sizes           # first coordinate of each block
    dim = int(sizes.sum())
    c_full = np.zeros((dim, dim))
    t = np.zeros((dim, dim, dim))
    # the half-space chart of each block, y = mu + e s and x = L^T y:
    # ``e_full`` holds e and ``root`` L on the mean coordinates, zero on
    # the spreads
    e_full = np.zeros(dim)
    root = np.zeros((dim, dim))
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    for b, p, s in zip(blocks, start, spread):
        c_full[p:s + 1, p:s + 1] = b.c
        t[p:s + 1, p:s + 1, p:s + 1] = b.t
        e_full[p:s] = b.e
        root[p:s, p:s] = b.root
    owner = spread[block_of]             # spread coordinate of each index
    ia, ib = np.nonzero(owner[:, None] == owner[None, :])
    ic = owner[ia]

    def mat(th):
        s = th[..., owner]
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

    rows = np.arange(dim)

    def connection(th, order=1):
        s = th[..., owner, None, None]
        gam = t / s
        if order == 1:
            return gam
        dgam = np.zeros(th.shape[:-1] + (dim,) * 4)
        dgam[..., owner, rows, :, :] = -gam / s
        return gam, dgam

    def flow(th0, v0, tau):
        # per block: the spread s0, u = s-dot / s, w^2 = |x-dot|^2 / s^2
        # and a^2 = u^2 + w^2, the <V, V> of the hyperboloid tangent
        s0 = th0[..., spread]
        y_dot = v0 + e_full * v0[..., owner]
        x_dot = y_dot @ root
        u = v0[..., spread] / s0
        w2 = np.add.reduceat(x_dot * x_dot, start, axis=-1) / (s0 * s0)
        a = np.sqrt(w2 + u * u)

        def states(tau):
            q, dq, f = _half_space_flow(u, w2, a, tau)
            s = s0[..., None, :] / q
            s_dot = -s * dq / q
            # each coordinate takes its block's values
            q_c, f_c, s_c, s_dot_c = (x[..., block_of]
                                      for x in (q, f, s, s_dot))
            y_dot0 = y_dot[..., None, :]
            theta = th0[..., None, :] + y_dot0 * f_c \
                + e_full * (th0[..., owner][..., None, :] - s_c)
            theta_dot = y_dot0 / (q_c * q_c) - e_full * s_dot_c
            theta[..., spread], theta_dot[..., spread] = s, s_dot
            return theta, theta_dot

        tau_exit = _floor_exit(s0.real / _CHART_FLOOR, u.real, w2.real,
                               a.real, tau)
        if tau_exit is not None:
            theta, theta_dot = states(np.array([tau_exit]))
            raise ChartBoundaryError(
                f"geodesic reached the chart floor at tau = {tau_exit}",
                last_state=(tau_exit, theta[..., 0, :],
                            theta_dot[..., 0, :]))
        return states(tau)

    def log(th0, th1):
        s0, s1 = th0[..., spread], th1[..., spread]
        dy = th1 - th0 + e_full * (s1 - s0)[..., block_of]
        dx = dy @ root
        k, s_dot = _half_space_log(
            s0, s1, np.add.reduceat(dx * dx, start, axis=-1))
        v = 2.0 * (s0 * k)[..., block_of] * dy \
            - e_full * s_dot[..., block_of]
        v[..., spread] = s_dot
        return v

    def volume(lo, hi):
        total = 1.0
        for b, p, s in zip(blocks, start, spread):
            total = total * b.root_det * _inverse_power_integral(
                lo[:, s], hi[:, s], len(b.c)) \
                * np.prod(hi[:, p:s] - lo[:, p:s], axis=1)
        return total

    return MetricField(dim, mat, jet_fn=jet, connection_fn=connection,
                       flow_fn=flow, log_fn=log, source=source,
                       volume_fn=volume, scale_coords=spread.tolist(),
                       factors=[(range(p, s + 1), lambda b=b:
                                 _inverse_square_metric([b], source))
                                for b, p, s in zip(blocks, start, spread)])


def _half_space_flow(u, w2, a, tau):
    """The geodesic of the upper half-space (|dx|^2 + ds^2) / s^2 from start
    rates u = s-dot / s and w^2 = |x-dot|^2 / s^2, with a^2 = u^2 + w^2,
    at the offsets ``tau``: arrays (..., n) of rates in, one entry per
    block, and arrays (..., n_tau, n) out.

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

    ``ratio`` = s0 / floor, per block like the rates.
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


def _half_space_log(s0, s1, dx2):
    """(k, s-dot0) of the unit-time geodesic of the upper half-space
    (|dx|^2 + ds^2) / s^2 from (x0, s0) to (x1, s1), |x1 - x0|^2 = dx2,
    whose start velocity is x-dot0 = 2 s0 k (x1 - x0) and s-dot0; arrays
    of one entry per block.

    The geodesic is the arc of the circle through both points centred on
    the boundary, of length d = 2 asinh(sqrt(dx2 + ds^2) / (2 sqrt(s0 s1)))
    with ds = s1 - s0; the centre lies p / (2 |dx|) beyond x0 with
    p = dx2 + ds (s0 + s1).  So the start velocity, of speed s0 d, is
    s0 d (2 s0 (x1 - x0), p) / h with h = |(p, 2 s0 |dx|)|: k = s0 d / h.
    Where dx = 0 the arc is the vertical line and s-dot0 = s0 d sign(ds) =
    s0 ln(s1 / s0); between equal points d = 0, and so is k.
    """
    ds = s1 - s0
    p = dx2 + ds * (s0 + s1)
    h = np.hypot(p, 2.0 * s0 * np.sqrt(dx2))
    d = 2.0 * np.arcsinh(np.sqrt(dx2 + ds * ds) / (2.0 * np.sqrt(s0 * s1)))
    k = s0 * d / np.where(h > 0, h, 1.0)
    return k, k * p


def _inverse_power_integral(lo, hi, d):
    """integral of s^-d over [lo, hi], 0 < lo <= hi elementwise, written
    through log1p/expm1 so that thin intervals keep full relative precision."""
    log_ratio = np.log1p((hi - lo) / lo)
    if d == 1:
        return log_ratio
    return -lo ** (1 - d) * np.expm1((1 - d) * log_ratio) / (d - 1)


def analytic_fisher(model: StatModel) -> MetricField:
    """Closed-form Fisher-Rao metric: C / s^2 on each factor's block, with
    C the closed form of the factor's family."""
    return _inverse_square_metric([f.family.block for f in model.factors])


def macro_correlated_metric(r_values: Sequence[float]) -> MetricField:
    """Pairwise (mu_j, sigma_j) metric with constant macro-correlations r_j.

    Per-pair line element (d mu^2 + 2 r d mu d sigma + 2 d sigma^2) / sigma^2;
    the r_j are model constants, not coordinates.
    """
    # the entries as given, so that a bool is no correlation
    r_values = [*r_values] if np.iterable(r_values) else [r_values]
    ParameterError.raise_any(correlation_failures(
        {f"r[{i}]": r for i, r in enumerate(r_values)}))
    r_values = [float(r) for r in r_values]
    return _inverse_square_metric([_block([[1.0, r], [r, 2.0]])
                                   for r in r_values])


# ---------------------------------------------------------------------------
# Fisher metric by quadrature
# ---------------------------------------------------------------------------

def _quadrature_c(family: _Family):
    """E[h h^T] of ``family`` by its natural 8-node rule in t, confirmed by
    the 4-node rule to 1e-9 relative."""
    def estimate(n):
        t, w = family.rule(n)
        h = family.score(t)
        return np.einsum("m,ma,mb->ab", w, h, h)

    coarse, fine = estimate(4), estimate(8)
    if np.max(np.abs(fine - coarse)) <= \
            1e-9 * max(np.max(np.abs(fine)), 1e-300):
        return fine
    raise QuadratureAccuracyError(
        "fisher quadrature: the 4- and 8-node estimates of C differ by "
        "more than 1e-9 relative", estimate=fine)


def fisher_quadrature(model: StatModel) -> MetricField:
    """Fisher-Rao metric integrated numerically against the model density.

    Each factor's block is C / s^2 with C = E[h h^T] independent of theta,
    so C is integrated once per family, in t, with its natural rule
    (Hermite for full-line factors, Laguerre for half-line ones); the
    metric has the exact jets and box volume of the closed forms.

    For every family here h h^T is a polynomial of degree at most 4 in the
    rule's variable (Gaussian h = (t, t^2 - 1); exponential t - 1;
    Wigner-Dyson 2u - 2 in u = pi t^2 / 4; the bivariate pair degree 4 in
    its two unit normals), and an n-point Gauss rule is exact to degree
    2n - 1.  So the 4-node estimate is already exact, and the 8-node one,
    which is returned, agrees with it to round-off.  Where the two differ
    by more than 1e-9 relative, as for a score of higher degree,
    QuadratureAccuracyError carries the 8-node estimate of C.
    """
    consts = {fam: _block(_quadrature_c(fam))
              for fam in dict.fromkeys(f.family for f in model.factors)}
    return _inverse_square_metric([consts[f.family] for f in model.factors],
                                  source="quadrature")


# ---------------------------------------------------------------------------
# independent normalization / score-identity checks
# ---------------------------------------------------------------------------

def _box_integrals(model: StatModel):
    """(integral of p, integral of p times the score) of each factor over
    its truncation box, by composite Gauss-Legendre rules of four equal
    64-node panels per axis, not the natural-weight rules; no eigensolve
    of a 64-node rule is large enough to start a BLAS worker thread."""
    th = model.theta
    for f in model.factors:
        axes = [panel_rule(np.linspace(lo, hi, 5))
                for lo, hi in f.to_x(th, f.family.box)]
        x = np.stack(np.meshgrid(*(x for x, _ in axes), indexing="ij"),
                     axis=-1).reshape(-1, len(axes))
        w = np.prod(np.meshgrid(*(w for _, w in axes), indexing="ij"),
                    axis=0).ravel()
        wp = w * np.exp(f.log_density(th, x))
        # numpy's own sums: BLAS starts a worker thread for a dot this long
        yield float(wp.sum()), np.einsum("m,ma->a", wp, f.score(th, x))


def normalization_residual(model: StatModel) -> float:
    """max over factors of |integral of the density - 1| on the truncation
    box."""
    return max((abs(mass - 1.0) for mass, _ in _box_integrals(model)),
               default=0.0)


def score_expectation_residual(model: StatModel) -> float:
    """max-abs of E[score] over the chart directions (vanishes exactly)."""
    return max((float(np.max(np.abs(mean)))
                for _, mean in _box_integrals(model)), default=0.0)
