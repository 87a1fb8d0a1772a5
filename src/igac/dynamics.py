"""Geodesic flows and Jacobi fields on metric fields.

A metric with a closed-form flow (``MetricField.flow``, supplied by every
inverse-square statistical metric, whose blocks are hyperbolic spaces) is
flowed exactly: geodesics are evaluated in closed form on the requested
grid, and a block of deviations (J, J-dot) is the complex-step derivative
of that flow, one complex evaluation for all columns and their carrier.
Any other metric integrates
theta-ddot^a + Gamma^a_bc theta-dot^b theta-dot^c = 0 with the adaptive
Dormand-Prince 8(5,3) pair (DOP853), carrying the deviation block, if
any, with the carrier state (theta, theta-dot) as one linearized system
that reads the metric's closed-form connection, so a right-hand-side call
needs no metric jet and no matrix inverse.  Jacobi fields are one column
of the deviation block.  A two-point problem on a metric with a
closed-form flow starts from the metric's closed-form log map, whose
geodesic already joins the two points; elsewhere, or on a miss at
round-off, it is solved by damped-Newton shooting on the initial
velocity, each shot flowing the n x n block that starts at
(J, J-dot) = (0, I), which is the exact Jacobian of the endpoint map.

Every flow returns its carrier as one ``GeodesicPath`` (grid, theta,
theta-dot, the speed g(theta-dot, theta-dot) and dense state access);
a ``JacobiTrace`` holds that path beside its field.  The one growth-rate
estimator reads the Jacobi intensity at the two ends of a trace.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from numbers import Integral
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BvpFailureError,
    ChartBoundaryError,
    DegeneratePlaneError,
    ParameterError,
    StiffnessError,
    UndefinedRateError,
)
from .geometry import ricci_scalar
from .models import MetricField

__all__ = [
    "GeodesicPath",
    "JacobiTrace",
    "n_out_failures",
    "integrate_geodesic",
    "solve_geodesic_bvp",
    "path_from_functions",
    "normal_direction",
    "integrate_jacobi",
    "lyapunov_sequence",
    "lyapunov_estimate",
    "jacobi_q_coefficient",
]

def _freeze(record, names):
    """Store each named field of a frozen record as a read-only float
    array."""
    for name in names:
        arr = np.asarray(getattr(record, name), float)
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """Discretized geodesic; ``state(tau)`` is (theta, theta_dot) at any
    tau inside the grid range, each of shape (dim,) for a scalar tau and
    (n, dim) for n of them.  ``GeodesicPath.on`` builds every path of this
    module and computes its speed."""

    tau_grid: np.ndarray
    theta: np.ndarray        # (n, dim)
    theta_dot: np.ndarray    # (n, dim)
    speed: np.ndarray        # g(theta_dot, theta_dot) per grid point
    state: Callable = field(repr=False)

    def __post_init__(self):
        _freeze(self, ("tau_grid", "theta", "theta_dot", "speed"))

    @classmethod
    def on(cls, metric: MetricField, tau_grid, theta, theta_dot,
           state) -> GeodesicPath:
        """The path with speed g(theta_dot, theta_dot) in ``metric`` and
        ``state`` as its ``state``."""
        speed = np.einsum("nab,na,nb->n", metric.eval(theta), theta_dot,
                          theta_dot)
        return cls(tau_grid, theta, theta_dot, speed, state)

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    @property
    def speed_drift(self) -> float:
        """The largest change of the speed along the path, relative to a
        positive start speed; a constant geodesic has speed 0 throughout."""
        speed0 = self.speed[0]
        return float(np.max(np.abs(self.speed / speed0 - 1.0 if speed0 > 0
                                   else self.speed - speed0)))


def _variational_rhs(metric, k: int):
    """Right-hand side of the geodesic flow and its linearization.

    The state is (theta, v, J, J-dot) with a deviation block J of shape
    (dim, k), flattened; a bare geodesic is the system with k = 0.
    Linearizing theta-ddot^a = -Gamma^a_bc v^b v^c gives
    J-ddot^a = -d_d Gamma^a_bc v^b v^c J^d - 2 Gamma^a_bc v^b J-dot^c,
    column by column.  Gamma and its derivative come from one
    ``MetricField.connection`` call per step stage, which evaluates the
    metric family's closed-form connection; with k = 0 that call reads
    Gamma alone.
    """
    dim = metric.dim

    def rhs(_tau, y):
        th, v = y[:dim], y[dim:2 * dim]
        if not k:
            gv = metric.connection(th) @ v
            return np.concatenate([v, -gv @ v])
        j, jdot = y[2 * dim:].reshape(2, dim, k)
        gam, dgam = metric.connection(th, order=2)
        gv = gam @ v                      # gv[a, b] = Gamma^a_bc v^c
        jdd = -(dgam @ v @ v).T @ j - 2.0 * gv @ jdot
        return np.concatenate([v, -gv @ v, jdot.ravel(), jdd.ravel()])

    return rhs


def _flow(metric: MetricField, theta0, v0, span, rtol: float, atol: float,
          block=None, what: str = "geodesic", t_eval=None,
          dense_output=False):
    """The one driver behind every flow of this module.

    Flows the geodesic from (theta0, v0) over ``span``, and with a
    deviation ``block`` (J, DJ/dtau), each of shape (dim, k), also its
    linearization; J-dot = DJ/dtau - Gamma(J, v0) once the start is known
    to lie in the chart, and each column flows at unit max-abs, so that
    none underflows when squared.  Returns (path, j, j_dot): the carrier
    as a ``GeodesicPath`` on ``t_eval``, or on a grid ending at the end of
    the span, and the block on that grid, each of shape (n, dim, k), k = 0
    without a block; the path has no ``state`` on DOP853 without
    ``dense_output``.  A closed-form flow is evaluated exactly
    (``_exact_flow``, tolerances unused); any other is integrated by
    DOP853 at ``rtol`` and ``atol``, the carrier's ``atol`` scaled by the
    max-abs entry of (theta0, v0) where that lies below 1, and an empty
    span holds the start at every grid point.  A start outside the chart,
    or a spread falling through the chart floor on the way, raises
    ChartBoundaryError, the latter with the carrier state (tau, theta,
    theta_dot) at the crossing, which DOP853 finds as the one terminal
    event on the lowest floor margin; step underflow raises
    StiffnessError.
    """
    theta0 = np.asarray(theta0, float)
    if not metric.in_chart(theta0):
        raise ChartBoundaryError(f"{what} start {theta0} outside the chart")
    dim = metric.dim
    v0 = np.asarray(v0, float)
    if block is None:
        j0 = jdot0 = np.zeros((dim, 0))
        exp = 0
    else:
        j0, dj0 = (np.asarray(b, float).reshape(dim, -1) for b in block)
        # an exact power of two per column keeps Gamma(J, v0) in range
        exp = np.frexp(np.max(np.abs(np.concatenate([j0, dj0])), axis=0))[1]
        j0, dj0 = np.ldexp(j0, -exp), np.ldexp(dj0, -exp)
        jdot0 = dj0 - np.einsum("abc,bk,c->ak", metric.connection(theta0),
                                j0, v0)
    size = np.max(np.abs(np.concatenate([j0, jdot0])), axis=0)
    size = np.where(size > 0, size, 1.0)
    j0, jdot0 = j0 / size, jdot0 / size
    if metric.has_exact_flow:
        grid = np.asarray([span[1]] if t_eval is None else t_eval, float)
        theta, theta_dot, j, jdot, state = _exact_flow(
            metric, theta0, v0, span[0], grid, j0, jdot0, what)
    else:
        k = j0.shape[1]
        y0 = np.concatenate([theta0, v0, j0.ravel(), jdot0.ravel()])
        # a carrier starting below unit size keeps its relative accuracy;
        # the deviation columns already start at unit size
        atol = np.full(y0.size, atol)
        reach = np.max(np.abs(y0[:2 * dim]))
        if 0 < reach < 1:
            atol[:2 * dim] *= reach

        # terminal when the lowest spread coordinate falls through the floor
        def floor_event(_tau, y):
            return np.min(metric.floor_margin(y[:dim]), initial=np.inf)
        floor_event.terminal, floor_event.direction = True, -1

        if span[0] != span[1]:
            sol = solve_ivp(_variational_rhs(metric, k), span, y0,
                            method="DOP853", rtol=rtol, atol=atol,
                            events=floor_event, t_eval=t_eval,
                            dense_output=dense_output)
        else:   # no step to take: the start holds at every grid point
            sol = SimpleNamespace(status=0, success=True, sol=lambda tau:
                                  np.multiply.outer(y0, np.ones_like(tau)))
            sol.t = np.asarray(span[1:] if t_eval is None else t_eval, float)
            sol.y = sol.sol(sol.t)
        if sol.status == 1:
            t_ev, y_ev = sol.t_events[0][-1], sol.y_events[0][-1]
            raise ChartBoundaryError(
                f"{what} reached the chart boundary at tau = {t_ev}",
                last_state=(t_ev, y_ev[:dim], y_ev[dim:2 * dim]))
        if not sol.success:
            raise StiffnessError(f"{what} integrator failed: {sol.message}")
        grid = sol.t
        theta, theta_dot = sol.y[:dim].T, sol.y[dim:2 * dim].T
        # rows a * k + column of J and of J-dot -> (n, dim, k) each
        j, jdot = np.moveaxis(
            sol.y[2 * dim:].reshape(2, dim, k, sol.t.size), -1, 1)
        state = None
        if dense_output:
            def state(tau):
                y = sol.sol(tau)
                return y[:dim].T, y[dim:2 * dim].T
    # a field beyond the float range overflows here, to inf
    with np.errstate(over="ignore"):
        return (GeodesicPath.on(metric, grid, theta, theta_dot, state),
                np.ldexp(j * size, exp), np.ldexp(jdot * size, exp))


# complex-step size: second-order terms (~1e-80) vanish against every
# first-order one, and the imaginary parts stay far above underflow
_STEP = 1e-40


def _exact_flow(metric: MetricField, theta0, v0, t0, grid, j0, jdot0,
                what):
    """(theta, theta_dot, j, j_dot, state) of ``_flow`` through the
    metric's closed-form flow, in one evaluation.

    The flow from ``t0`` is evaluated on ``grid``, whose last point also
    checks the whole span against the chart floor.  A deviation block
    of k columns flows from the k complex-step starts
    (theta0 + i h J, v0 + i h J-dot): the imaginary parts over h are the
    derivative of the flow in the direction of each column, and the real
    part of the first is the carrier, to O(h^2).
    """
    k = j0.shape[1]

    def carrier(x):
        return x[0].real if k else x

    starts = (theta0 + 1j * _STEP * j0.T, v0 + 1j * _STEP * jdot0.T) if k \
        else (theta0, v0)
    try:
        theta, theta_dot = metric.flow(*starts, grid - t0)
    except ChartBoundaryError as exc:
        tau, theta, theta_dot = exc.last_state
        raise ChartBoundaryError(
            f"{what} reached the chart boundary at tau = {t0 + tau}",
            last_state=(t0 + tau, carrier(theta), carrier(theta_dot))) \
            from None
    if k:
        # (k, n_tau, dim) -> (n_tau, dim, k)
        j, jdot = (np.moveaxis(part.imag, 0, -1) * (1.0 / _STEP)
                   for part in (theta, theta_dot))
    else:
        j = jdot = np.zeros(theta.shape + (0,))

    def state(tau):
        tau = np.asarray(tau, float)
        th, th_dot = metric.flow(theta0, v0, np.atleast_1d(tau) - t0)
        return (th[0], th_dot[0]) if tau.ndim == 0 else (th, th_dot)

    return carrier(theta), carrier(theta_dot), j, jdot, state


def n_out_failures(n_out) -> list:
    """("n_out", message) unless ``n_out`` is an integer >= 2."""
    if isinstance(n_out, Integral) and not isinstance(n_out, bool) \
            and n_out >= 2:
        return []
    return [("n_out", f"must be an integer >= 2, got {n_out!r}")]


def integrate_geodesic(metric: MetricField, theta0, v0, tau_end: float,
                       tol: float = 1e-10, n_out: int = 513) -> GeodesicPath:
    """Geodesic initial value problem, in closed form on metrics with an
    exact flow and with adaptive error control at ``tol`` otherwise.

    Affine parametrization keeps the speed g(v, v) constant; the relative
    drift is at round-off on the closed form and stays within an order of
    magnitude of ``tol`` on DOP853.  A start outside the chart, or a spread
    coordinate reaching the floor, raises ChartBoundaryError carrying the
    state at the crossing; step underflow raises StiffnessError.
    """
    ParameterError.raise_any(n_out_failures(n_out))
    return _flow(metric, theta0, v0, (0.0, tau_end), tol, tol * 1e-2,
                 t_eval=np.linspace(0.0, tau_end, n_out),
                 dense_output=True)[0]


def _shoot(metric: MetricField, theta_init, v0, tau_span: float,
           tol: float):
    """Endpoint theta(tau_span) of the geodesic from (theta_init, v0) and
    its exact Jacobian d theta(tau_span) / d v0.

    The variational flow from (J, J-dot) = (0, I), where covariant and
    ordinary derivatives of J agree: the complex-step derivative of a
    closed-form flow, or one DOP853 solve at the tolerances of
    ``integrate_geodesic`` without dense output.  Leaving the chart raises
    ChartBoundaryError.
    """
    dim = metric.dim
    path, j, _ = _flow(metric, theta_init, v0, (0.0, tau_span), tol,
                       tol * 1e-2, block=(np.zeros((dim, dim)), np.eye(dim)))
    return path.theta[-1], j[-1]


def solve_geodesic_bvp(metric: MetricField, theta_init, theta_final,
                       tau_span: float, tol: float = 1e-8,
                       max_iter: int = 50, n_out: int = 513) -> GeodesicPath:
    """Two-point geodesic: in closed form where the metric has an exact
    flow, by damped-Newton shooting on the initial velocity otherwise.

    On a closed-form metric the start velocity is the log map
    (``MetricField.log``) over ``tau_span``, and its geodesic is returned
    without a shot when its endpoint lies within ``tol`` of
    ``theta_final``; on a miss, shooting starts from it.  Shooting starts
    from the straight line elsewhere.  Each shot flows the variational
    block along with the geodesic, so it returns the endpoint together
    with the exact Jacobian of the endpoint map (simple shooting, Stoer &
    Bulirsch, Introduction to Numerical Analysis, section 7.3).  The Newton
    step is halved whenever the endpoint mismatch grows.  A start or end
    point outside the open chart raises ChartBoundaryError; failure to
    converge raises BvpFailureError with the best residual reached, its
    message naming why shooting stopped and how many shots it took.
    """
    ParameterError.raise_any(n_out_failures(n_out))   # before any shot
    theta_init = np.asarray(theta_init, float)
    theta_final = np.asarray(theta_final, float)
    for name, point in (("initial", theta_init), ("final", theta_final)):
        if not metric.in_chart(point):
            raise ChartBoundaryError(
                f"{name} point {point} outside the open chart")
    flow_tol = max(min(tol * 1e-3, 1e-10), 1e-13)
    if metric.has_exact_flow:
        # the log map gives the geodesic itself: its path is the answer
        # when it lands, and Newton starts from it only on a miss
        v = metric.log(theta_init, theta_final) / tau_span
        with contextlib.suppress(ChartBoundaryError):
            path = integrate_geodesic(metric, theta_init, v, tau_span,
                                      tol=flow_tol, n_out=n_out)
            if np.linalg.norm(path.theta[-1] - theta_final) < tol:
                return path
    else:
        v = (theta_final - theta_init) / tau_span
    shots = 0

    def shoot(v):
        nonlocal shots
        shots += 1
        end, jac = _shoot(metric, theta_init, v, tau_span, flow_tol)
        return end - theta_final, jac

    for _ in range(60):    # damp an initial shot that exits the chart
        try:
            res, jac = shoot(v)
            break
        except ChartBoundaryError:
            v = 0.5 * v
    else:
        raise BvpFailureError("no in-chart initial shot found",
                              best_residual=np.inf)
    best = float(np.linalg.norm(res))
    stop = f"Newton reached its cap of {max_iter} iterations"
    for _ in range(max_iter):
        if best < tol:
            break
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise BvpFailureError("singular shooting Jacobian",
                                  best_residual=best) from exc
        lam = 1.0
        while lam > 1e-8:
            cand = v + lam * step
            try:
                cres, cjac = shoot(cand)
            except ChartBoundaryError:
                lam *= 0.5
                continue
            if np.linalg.norm(cres) < best:
                v, res, jac = cand, cres, cjac
                best = float(np.linalg.norm(cres))
                break
            lam *= 0.5
        else:
            stop = f"no halved Newton step lowered the residual {best}"
            break
    if best < tol:
        return integrate_geodesic(metric, theta_init, v, tau_span,
                                  tol=flow_tol, n_out=n_out)
    raise BvpFailureError(
        f"shooting did not reach tolerance {tol} after {shots} shots: "
        f"{stop}", best_residual=best)


def path_from_functions(tau_grid, theta_fn: Callable, theta_dot_fn: Callable,
                        metric: MetricField) -> GeodesicPath:
    """Wrap closed-form trajectory functions as a GeodesicPath whose speed
    is g(theta_dot, theta_dot) in ``metric``.

    Each function maps a 1-D array of tau to an array of shape (n, dim)
    and a scalar tau to shape (dim,).  The grid takes one call of each, and
    ``state(tau)`` calls them at its tau.
    """
    def state(tau):
        return (np.asarray(theta_fn(tau), float),
                np.asarray(theta_dot_fn(tau), float))

    taus = np.asarray(tau_grid, float)
    return GeodesicPath.on(metric, taus, *state(taus), state)


# ---------------------------------------------------------------------------
# Jacobi fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JacobiTrace:
    """Geodesic deviation field along the carrier geodesic it was integrated
    with.

    ``path`` is the carrier, from the same solve as the field, on the
    field's grid; ``dj_dtau`` holds the covariant derivative DJ/Dtau;
    ``intensity`` is the metric norm of J and ``intensity_rate`` its
    tau-derivative.
    """

    path: GeodesicPath
    j: np.ndarray            # (n, dim)
    dj_dtau: np.ndarray
    intensity: np.ndarray
    intensity_rate: np.ndarray

    def __post_init__(self):
        _freeze(self, ("j", "dj_dtau", "intensity", "intensity_rate"))


def normal_direction(metric: MetricField, theta, v, axis: int = 1):
    """Unit vector g-orthogonal to v, built from a coordinate axis.

    The component along v is removed from the unit vector of ``axis``; when
    v is (nearly) parallel to that axis, the following axes are tried in
    turn.  Raises DegeneratePlaneError when no axis is usable, as for
    dimension 1 or v = 0, and ChartBoundaryError outside the chart.
    """
    theta = np.asarray(theta, float)
    if not metric.in_chart(theta):
        raise ChartBoundaryError(f"point {theta} outside the chart")
    v = np.asarray(v, float)
    g = metric.eval(theta)
    vv = v @ g @ v
    n = v.size
    if vv > 0:
        for k in range(n):
            i = (axis + k) % n
            w = np.zeros(n)
            w[i] = 1.0
            w = w - (v @ g @ w) / vv * v
            norm2 = w @ g @ w
            if norm2 > 1e-10 * g[i, i]:
                return w / np.sqrt(norm2)
    raise DegeneratePlaneError(
        f"no coordinate axis spans a nondegenerate plane with v = {v}")


def _square_safe(u):
    """(u 2^-s, s), s per row of ``u``: 0 where the row's largest entry is
    within 2^+-500, else the exact power of two taking it there (so that
    squares and metric forms of the row fit in the float range)."""
    # row maxima column by column: max(axis=-1) over a short axis is slow
    e = np.frexp(np.maximum.reduce(list(np.abs(u).T)))[1]
    s = e - np.clip(e, -500, 500)
    return np.ldexp(u, -s[..., None]), s


def integrate_jacobi(metric: MetricField, theta0, v0, tau_grid, J0, DJ0,
                     rtol: float = 1e-9) -> JacobiTrace:
    """Jacobi field along the geodesic from (theta0, v0) at ``tau_grid[0]``,
    as the linearized geodesic flow.

    (theta, v, J, J-dot) is one variational flow with a single deviation
    column: the complex-step derivative of a closed-form flow, or one
    adaptive DOP853 system in which the carrier takes part in step control;
    either way the carrier needs no separate geodesic solve.  Field and
    carrier are sampled on ``tau_grid``, which may run backward.  ``DJ0`` is
    the covariant derivative of J at the start; the field is linear in
    (J0, DJ0).  A carrier that starts outside the chart or reaches its
    boundary raises ChartBoundaryError, as in ``integrate_geodesic``, and
    an intensity or rate beyond the float range UndefinedRateError.
    """
    tau_grid = np.asarray(tau_grid, float)
    path, j, jdot = _flow(metric, theta0, v0, (tau_grid[0], tau_grid[-1]),
                          rtol, rtol * 1e-3, block=(J0, DJ0),
                          what="Jacobi carrier", t_eval=tau_grid)
    j, jdot = j[..., 0], jdot[..., 0]

    g = metric.eval(path.theta)
    with np.errstate(all="ignore"):
        dj_cov = jdot + np.einsum("nabc,nb,nc->na",
                                  metric.connection(path.theta), j,
                                  path.theta_dot)
        # the start itself: a J0 far below DJ0 flows as 0 in its column
        j[0], dj_cov[0] = J0, DJ0
        (ju, sj), (du, sd) = map(_square_safe, (j, dj_cov))
        root = np.sqrt(np.maximum(np.einsum("nab,na,nb->n", g, ju, ju), 0.0))
        # d|J|/dtau is g(DJ, J) / |J| where J is nonzero, |DJ| where J = 0
        rate = np.sqrt(np.maximum(np.einsum("nab,na,nb->n", g, du, du), 0.0))
        np.divide(np.einsum("nab,na,nb->n", g, du, ju), root, out=rate,
                  where=root > 0)
        inten, rate = np.ldexp(root, sj), np.ldexp(rate, sd)
    if not np.all(np.isfinite(inten) & np.isfinite(rate)):
        raise UndefinedRateError("Jacobi intensity beyond the float range")
    return JacobiTrace(path, j, dj_cov, inten, rate)


def _rates(trace: JacobiTrace, at):
    """``lyapunov_sequence`` at the grid points ``at`` of ``trace``; each
    point reads only itself and the start."""
    # elapsed affine parameter; backward traces are rated symmetrically
    tau_grid = trace.path.tau_grid
    elapsed = np.abs(tau_grid[at] - tau_grid[0])
    if not np.all(elapsed > 0):
        raise UndefinedRateError("no elapsed time for a rate estimate")
    with np.errstate(all="ignore"):
        pair, shift = _square_safe(np.column_stack(
            [trace.intensity, trace.intensity_rate]))
        sums = pair[:, 0] ** 2 + pair[:, 1] ** 2
        base, num, ratio = sums[0], sums[at], sums[at] / sums[0]
        # a ratio out of the normal range is a difference of logs, plus shifts
        normal = (ratio >= np.finfo(float).tiny) & (ratio < np.inf)
        rates = (np.where(normal, np.log(ratio), np.log(num) - np.log(base))
                 + 2 * np.log(2.0) * (shift[at] - shift[0])) / elapsed
    if base <= 0 or not np.any(trace.intensity > 0):
        raise UndefinedRateError("identically degenerate deviation trace")
    if not np.all(np.isfinite(rates)):
        raise UndefinedRateError("Jacobi intensity beyond the float range")
    return elapsed, rates


def lyapunov_sequence(trace: JacobiTrace):
    """(elapsed tau, lambda) at every grid point after the start, with
    lambda(tau) = ln[(|J|^2 + |dJ/dtau|^2) / (value at the start)] / tau,
    for convergence inspection."""
    tau_grid = trace.path.tau_grid
    return _rates(trace, tau_grid != tau_grid[0])


def lyapunov_estimate(trace: JacobiTrace) -> float:
    """Finite-time evaluation of the intensity growth-rate functional:
    lambda of ``lyapunov_sequence``, which doubles the exponential rate of
    |J| itself, at the end of the trace.

    It reads only the start and the end, so a trace sampled at its two
    ends gives the bits of a finer one.  A trace with no elapsed time
    raises UndefinedRateError.
    """
    return float(_rates(trace, [-1])[1][0])


def jacobi_q_coefficient(metric: MetricField, theta, v) -> float:
    """Scalar coefficient R |v|^2 / (N(N-1)) of the reduced deviation
    equation on an isotropic manifold; negative values signal instability."""
    theta = np.asarray(theta, float)
    v = np.asarray(v, float)
    g = metric.eval(theta)
    n = metric.dim
    return ricci_scalar(metric, theta) * float(v @ g @ v) / (n * (n - 1))
