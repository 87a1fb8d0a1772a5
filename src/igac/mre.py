"""Maximum relative entropy updating under expectation constraints.

Given a prior density, constraints <f_j(X)> = F_j and normalization, the
maximizer of the relative entropy S[P, P_old] = -int P ln(P/P_old) is the
exponential tilt P_new = P_old exp(beta . f) / Z(beta), with the multipliers
fixed by grad ln Z = F.  These minimize the convex dual ln Z(beta) - beta . F,
whose gradient is the moment residual and whose Hessian is the tilted
covariance of f; one damped Newton iteration with Armijo backtracking solves
it for any number of constraints.  It starts from beta = 0, or, for the
first and second moments, from the tilt that takes the quadratic part of
ln P_old to the Gaussian the targets name, which is the solution wherever
ln P_old is quadratic and the support's truncation does not bind.

One support record per prior (``_support``) holds its working interval,
truncated ends and log-density.  Integrals use composite Gauss-Legendre
grids (2048 points, endpoint clustered); a tabulated prior on its own
support is read on its own rule, which for ``uniform_prior`` and every
posterior is that grid.  Infinite prior supports are truncated at the
prior's effective range, where ln Z is finite for every beta; whether Z
stays finite on the untruncated support is decided once, at the solution,
from the tilted log-density far beyond each truncated end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketingError, DomainError, \
    InfeasibleConstraintError, ParameterError
from .models import StatModel, log_density, _is_number, positive_failures
from .quadrature import panel_rule

__all__ = [
    "TabulatedDensity",
    "MrEProblem",
    "MrEResult",
    "uniform_prior",
    "solve_multiplier",
    "update",
    "relative_entropy",
    "constraint_function",
    "domain_failures",
]

_NEWTON_STEPS = 100
_HALVINGS = 60


@functools.lru_cache(maxsize=16)
def _composite_grid(lo: float, hi: float):
    """The working rule on (lo, hi): 32 equal panels of 64 Gauss-Legendre
    nodes, 2048 in all, clustered at the panel edges; built once per
    interval, as read-only arrays."""
    x, w = panel_rule(np.linspace(lo, hi, 33))
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """A density sampled on a quadrature grid over its (finite) domain.

    ``bounds`` records the true interval edges; the Gauss nodes themselves
    sit strictly inside it.
    """

    x: np.ndarray
    w: np.ndarray
    p: np.ndarray
    bounds: tuple = None

    def __post_init__(self):
        for name in ("x", "w", "p"):
            arr = np.asarray(getattr(self, name), float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.bounds is None:
            object.__setattr__(self, "bounds",
                               (float(self.x[0]), float(self.x[-1])))

    def mass(self) -> float:
        return float(self.w @ self.p)

    def moment(self, fn: Callable) -> float:
        return float(self.w @ (self.p * fn(self.x)))

    def density(self, xq):
        return np.interp(xq, self.x, self.p, left=0.0, right=0.0)


def uniform_prior(lo: float, hi: float) -> TabulatedDensity:
    """The uniform density on (lo, hi), lo < hi."""
    if not lo < hi:
        raise ParameterError([("hi", f"must exceed lo = {lo}, got {hi}")])
    x, w = _composite_grid(lo, hi)
    return TabulatedDensity(x, w, np.full_like(x, 1.0 / (hi - lo)),
                            bounds=(float(lo), float(hi)))


def _support(prior, domain):
    """(lo, hi, open_lo, open_hi, ln_p) of ``prior`` on ``domain``, or on
    its own support: the finite working interval, flags marking infinite
    ends, which only a StatModel prior may have and which are truncated at
    its effective range (a hard support edge, such as the origin of a
    half-line density, is not one), and the log-density of nodes."""
    if domain is not None:
        domain = (float(domain[0]), float(domain[1]))
    if isinstance(prior, StatModel):
        if prior.micro_dim != 1:
            raise ValueError("only one-dimensional priors are supported")
        lo, hi = prior.micro_bounds()[0] if domain is None else domain
        open_lo, open_hi = not np.isfinite(lo), not np.isfinite(hi)
        if open_lo or open_hi:
            f = prior.factors[0]
            box = f.to_x(prior.theta, f.family.box)[0]
            lo = box[0] if open_lo else lo
            hi = box[1] if open_hi else hi
        return lo, hi, open_lo, open_hi, \
            lambda x: log_density(prior, x[:, None])
    if isinstance(prior, TabulatedDensity):
        lo, hi = prior.bounds if domain is None else domain
        if not (prior.bounds[0] <= lo and hi <= prior.bounds[1]):
            raise DomainError(f"domain ({lo}, {hi}) leaves the support "
                              f"{prior.bounds} of the tabulated prior")
        return lo, hi, False, False, \
            lambda x: _log_values(prior.density(x))
    if domain is None:
        raise ValueError("a domain is required for callable priors")
    if not np.all(np.isfinite(domain)):
        raise ValueError("infinite domain requires a StatModel prior")
    return *domain, False, False, \
        lambda x: _log_values(np.asarray(prior(x), float))


def _log_values(vals):
    if np.any(vals < 0):
        raise ValueError("prior density must be nonnegative")
    return np.log(np.maximum(vals, 1e-300))


def domain_failures(domain) -> list:
    """("domain", message) unless ``domain`` is None or two numbers
    lo < hi; either end may be infinite."""
    if domain is None or isinstance(domain, (list, tuple, np.ndarray)) \
            and len(domain) == 2 and all(map(_is_number, domain)) \
            and domain[0] < domain[1]:
        return []
    return [("domain", f"must be two numbers lo < hi, got {domain!r}")]


@dataclass(frozen=True, eq=False)
class MrEProblem:
    """Prior, expectation constraints and the integration domain."""

    prior: object                       # StatModel | TabulatedDensity | callable
    constraints: tuple                  # ((fn, target), ...)
    domain: tuple = None                # (lo, hi); None = prior's own support

    def __post_init__(self):
        cons = tuple((fn, float(F)) for fn, F in self.constraints)
        ParameterError.raise_any(domain_failures(self.domain) + [
            (f"constraints[{i}]", f"target must be finite, got {F}")
            for i, (_, F) in enumerate(cons) if not np.isfinite(F)])
        object.__setattr__(self, "constraints", cons)


@dataclass(frozen=True, eq=False)
class MrEResult:
    beta: np.ndarray
    log_z: float
    posterior: TabulatedDensity
    achieved: np.ndarray
    objective: float                    # S[P_new, P_old] = log Z - beta . F


def _features(constraints, x):
    """The constraint functions on the nodes ``x``, one row per constraint
    (k, n), so the dual's contractions run over contiguous rows."""
    return np.array([np.asarray(fn(x), float) for fn, _ in constraints])


def _gaussian_start(x, lnp, f, targets):
    """Newton's start for constraints that take the values x and x^2 on the
    nodes, in either order, or None for any other constraints.

    The targets (m, s) name N(m, v), v = s - m^2, with natural parameters
    (m/v, -1/(2v)); the start is those less the quadratic part of ``lnp``,
    the quadratic through its first, middle and last node, which is exact
    for Gaussian, exponential and uniform priors.  Raises
    InfeasibleConstraintError for targets on or outside the moment cone,
    s <= m^2.
    """
    if len(f) != 2:
        return None
    for first in (0, 1):
        if np.array_equal(f[first], x) and np.array_equal(f[1 - first],
                                                          x * x):
            break
    else:
        return None
    m, s = float(targets[first]), float(targets[1 - first])
    if not s > m * m:
        raise InfeasibleConstraintError(
            f"second moment {s} must exceed the squared mean {m * m}")
    if x.size < 3:
        return None
    # Python floats: a start that overflows is rejected, not warned about
    mid = x.size // 2
    x0, x1, x2 = float(x[0]), float(x[mid]), float(x[-1])
    y0, y1, y2 = float(lnp[0]), float(lnp[mid]), float(lnp[-1])
    d01, d12 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    q2 = (d12 - d01) / (x2 - x0)
    q1 = d01 - q2 * (x0 + x1)
    v = s - m * m
    beta = [m / v - q1, -0.5 / v - q2]
    return np.array(beta if first == 0 else beta[::-1])


class _Workspace:
    """The working grid of a problem, its normalized log prior and features,
    and ``tilt``, the Gaussian start of ``_gaussian_start`` or None."""

    def __init__(self, problem: MrEProblem):
        prior = problem.prior
        lo, hi, self.open_lo, self.open_hi, self.ln_p = _support(
            prior, problem.domain)
        self.problem = problem
        self.bounds = (lo, hi)
        if isinstance(prior, TabulatedDensity) and self.bounds == prior.bounds:
            # on its own support a tabulated prior is read on its own rule
            self.x, self.w = prior.x, prior.w
            self.lnp_old = _log_values(prior.p)
        else:
            self.x, self.w = _composite_grid(lo, hi)
            self.lnp_old = self.ln_p(self.x)
        self.f = _features(problem.constraints, self.x)
        self.targets = np.array([F for _, F in problem.constraints])
        self.tilt = _gaussian_start(self.x, self.lnp_old, self.f,
                                    self.targets)
        self.lnpw = self.lnp_old + np.log(self.w)
        # ln(mass) is the dual's value at 0, in the same arithmetic
        top = self.lnpw.max()
        log_mass = top + math.log(np.exp(self.lnpw - top).sum())
        # an explicit domain conditions the prior on it
        if problem.domain is None and abs(np.expm1(log_mass)) > 1e-6:
            raise ValueError(f"prior is not normalized on its support "
                             f"(mass {np.exp(log_mass)})")
        self.lnp_old -= log_mass
        self.lnpw -= log_mass

    def start(self):
        """(beta, dual, tilted mean, tilted covariance) where Newton
        starts: the Gaussian tilt when the dual there lies below its value
        0 at beta = 0, else beta = 0."""
        if self.tilt is not None and self.tilt.any():
            with np.errstate(all="ignore"):     # an overflowing tilt is NaN
                trial = self.dual(self.tilt)
            if trial[0] < 0.0:
                return self.tilt, *trial
        zero = np.zeros(self.targets.size)
        return zero, 0.0, *self.dual(zero)[1:]

    def dual(self, beta):
        """(ln Z(beta) - beta . F, tilted mean of f, tilted covariance of
        f): the dual, its gradient plus F and its Hessian, from one
        max-shifted exponential, taken in place; the k-vector sums are
        divided by Z, not the n weights."""
        g = beta @ self.f
        g += self.lnpw
        top = g.max()
        g -= top
        prob = np.exp(g, out=g)
        total = prob.sum()
        mean = (self.f @ prob) / total
        centered = self.f - mean[:, None]
        cov = ((centered * prob) @ centered.T) / total
        return top + math.log(total) - beta @ self.targets, mean, cov


def _check_integrable(ws: _Workspace, beta):
    """Z is finite on the untruncated support only if ln P_old + beta . f
    decreases far beyond every truncated infinite end (100 and 10^4 spans
    of the working interval)."""
    lo, hi = ws.bounds
    reach = (hi - lo) * np.array([0.0, 1e2, 1e4])
    ends = [(x, side) for is_open, x, side in (
        (ws.open_lo, lo - reach, "-inf"), (ws.open_hi, hi + reach, "+inf"))
        if is_open]
    if not ends:
        return
    x = np.concatenate([x for x, _ in ends])
    g = ws.ln_p(x) + beta @ _features(ws.problem.constraints, x)
    for g_end, (_, side) in zip(g.reshape(-1, reach.size), ends):
        if not np.all(np.diff(g_end) < 0.0):
            raise InfeasibleConstraintError(
                f"tilted integrand does not decay toward {side}; Z diverges")


def _solve(ws: _Workspace, tol: float):
    """Damped Newton on the convex dual of the truncated problem, with
    Armijo backtracking, from the workspace's start; integrability is
    decided at the solution.  Returns beta with the dual and the tilted
    mean of f there."""
    # no tilt can push a moment outside the range of its f on the grid
    for f, F in zip(ws.f, ws.targets):
        if not f.min() < F < f.max():
            raise BracketingError(
                f"target {F} outside the reachable moment range "
                f"[{f.min()}, {f.max()}]")
    beta, val, mean, cov = ws.start()
    for _ in range(_NEWTON_STEPS):
        grad = mean - ws.targets
        res = float(abs(grad).max())
        if res < tol:
            _check_integrable(ws, beta)
            return beta, val, mean
        try:
            step = np.linalg.solve(cov, -grad)
        except np.linalg.LinAlgError as exc:
            raise InfeasibleConstraintError(
                "degenerate tilted covariance") from exc
        slope = float(grad @ step)      # minus the squared Newton decrement
        # below the dual's rounding the Armijo test means nothing
        rounding = 1e-13 * (1.0 + abs(val) + abs(beta @ ws.targets))
        t = 1.0
        for _ in range(_HALVINGS):
            trial = ws.dual(beta + t * step)
            if -slope < rounding or trial[0] <= val + 0.25 * t * slope:
                break
            t *= 0.5
        else:
            raise InfeasibleConstraintError(
                f"line search stalled; residual {res}")
        beta = beta + t * step
        val, mean, cov = trial
    raise InfeasibleConstraintError(
        f"no convergence in {_NEWTON_STEPS} Newton steps; residual "
        f"{np.max(np.abs(mean - ws.targets))} above {tol}")


def solve_multiplier(problem: MrEProblem, tol: float = 1e-12) -> MrEResult:
    """Minimize ln Z(beta) - beta . F, so that grad ln Z = F, and build the
    canonical posterior.

    Raises ParameterError at ``tol`` unless it is positive,
    BracketingError when a target lies outside the range of its constraint
    function on the working grid, and InfeasibleConstraintError when the
    tilt makes Z diverge on an infinite prior support or Newton does not
    bring the moment residual below ``tol``.
    """
    ParameterError.raise_any(positive_failures({"tol": tol}))
    ws = _Workspace(problem)
    beta, val, achieved = _solve(ws, tol)
    log_z = float(val + beta @ ws.targets)
    lnp_new = ws.lnp_old + beta @ ws.f - log_z
    posterior = TabulatedDensity(ws.x, ws.w, np.exp(lnp_new),
                                 bounds=ws.bounds)
    objective = log_z - float(beta @ achieved)
    return MrEResult(beta, log_z, posterior, achieved, objective)


def update(prior, mean: float, second_moment: float, domain=None,
           tol: float = 1e-12) -> MrEResult:
    """First- plus second-moment update; produces a (truncated) normal.
    Targets with second_moment <= mean**2 raise InfeasibleConstraintError."""
    problem = MrEProblem(prior, ((lambda x: x, mean),
                                 (lambda x: x ** 2, second_moment)),
                         domain=domain)
    return solve_multiplier(problem, tol)


def relative_entropy(p, q, domain=None) -> float:
    """S[p, q] = -int p ln(p/q); nonpositive, zero iff p = q.

    Both densities are read through ``_support`` on one interval: ``domain``,
    or else the support of ``p``.
    """
    lo, hi, _, _, ln_p = _support(p, domain)
    *_, ln_q = _support(q, (lo, hi))
    x, w = _composite_grid(lo, hi)
    lp, lq = ln_p(x), ln_q(x)
    pv = np.exp(lp)
    support = pv > 1e-15 * np.max(pv)
    if np.any(support & (lq < np.log(1e-280))):
        raise DomainError("p is not absolutely continuous w.r.t. q")
    integrand = np.where(support, pv * (lp - lq), 0.0)
    return -float(w @ integrand)


def constraint_function(name: str, coefficients: Sequence[float] = None):
    """Named moment functions for configuration files: identity, square,
    abs, and poly, sum c_k x^k over a nonempty list of numbers c_k."""
    if name == "identity":
        return lambda x: x
    if name == "square":
        return lambda x: x ** 2
    if name == "abs":
        return np.abs
    if name != "poly":
        raise ParameterError([("f", f"unknown constraint function {name!r}")])
    if not (isinstance(coefficients, (list, tuple, np.ndarray))
            and len(coefficients) and all(map(_is_number, coefficients))):
        raise ParameterError([("coefficients",
                               "poly constraint needs a nonempty list of "
                               f"numbers, got {coefficients!r}")])
    coeffs = list(map(float, coefficients))
    return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))
