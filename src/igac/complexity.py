"""Statistical volumes, complexity and entropy of geodesic exploration.

The volume of the region explored by a geodesic up to time tau is the
iterated integral of sqrt(det g) over the coordinate box spanned by the
trajectory (per-coordinate min/max over [0, tau]).  Its running time average
is the complexity C(tau); S(tau) = ln C(tau) is the entropy trace.  Late-time
behavior is summarized by least-squares fits to linear, logarithmic, power,
exponential and saturating forms.

A box is a pair of corner arrays lo, hi.  Closed-form metrics
(``analytic_fisher``, ``fisher_quadrature``, ``macro_correlated_metric``,
``flat_metric`` and ``iho_metric``) take all boxes of a trace in one exact
``MetricField.box_volume`` call; every other metric (``rescaled_chart``,
user metrics) goes through adaptive Gauss-Legendre quadrature
(``integrate_box``) per block and box, axis by axis.  A block whose volume
density does not factor across its axes has no volume there:
``integrate_box`` raises UnsupportedFamilyError.

The box reading of the region integral is a convention choice (the endpoint
notation leaves the region open for more than one coordinate); it is recorded
in every report so alternates can be compared later.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import FitFailureError, UndefinedEntropyError
from .models import MetricField
from .dynamics import GeodesicPath
from .quadrature import integrate_box

__all__ = [
    "ComplexityTrace",
    "AsymptoticFit",
    "volume_element",
    "path_box",
    "volume_between",
    "igc",
    "ige",
    "complexity_trace",
    "fit_asymptotics",
    "select_growth_form",
]

REGION_CONVENTION = "coordinate-box"


def volume_element(metric: MetricField, theta):
    """sqrt(det g); the invariant volume density in the chart."""
    return metric.sqrt_det(np.asarray(theta, float))


def path_box(path: GeodesicPath, tau: float):
    """Corners (lo, hi) of the per-coordinate range swept by the path over
    [tau_start, tau]."""
    t0 = path.tau_grid[0]
    lo, hi = (t0, tau) if tau >= t0 else (tau, t0)
    mask = (path.tau_grid >= lo) & (path.tau_grid <= hi)
    end, _ = path.state(tau)
    pts = np.vstack([path.theta[mask], end])
    return pts.min(axis=0), pts.max(axis=0)


# relative tolerance of the quadrature volume of metrics without a closed
# form; the chart-invariance checks of ``rescaled_chart`` compare at 1e-6
_QUAD_TOL = 1e-8


def _box_volumes(metric: MetricField, lo, hi) -> np.ndarray:
    """Volumes of the boxes with corners lo, hi of shape (n, dim).

    A box with zero extent on any axis has volume 0.  A metric with a
    closed-form box volume takes every box in one ``box_volume`` call; any
    other gets the product of per-block ``integrate_box`` integrals, box by
    box.
    """
    vol = np.zeros(len(lo))
    live = np.all(hi > lo, axis=1)
    if metric.has_exact_volume:
        vol[live] = metric.box_volume(np.stack([lo[live], hi[live]], -1))
        return vol
    subs = [(list(b), metric.block_metric(b)) for b in metric.blocks]
    for k in np.flatnonzero(live):
        vol[k] = np.prod([integrate_box(sub.sqrt_det, zip(lo[k, b], hi[k, b]),
                                        rel_tol=_QUAD_TOL)
                          for b, sub in subs])
    return vol


def _running_volumes(metric: MetricField, taus, pts):
    """delta-V of the running per-coordinate min/max boxes of the points
    ``pts`` (n, dim), and its running trapezoid average over ``taus``."""
    dv = _box_volumes(metric, np.minimum.accumulate(pts, axis=0),
                      np.maximum.accumulate(pts, axis=0))
    seg = 0.5 * (dv[1:] + dv[:-1]) * np.diff(taus)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    spans = taus - taus[0]
    return dv, np.divide(cum, spans, out=np.zeros_like(cum),
                         where=spans > 0)


def volume_between(metric: MetricField, path: GeodesicPath,
                   tau: float) -> float:
    """Volume of the coordinate box traced by the geodesic up to tau, on or
    off the path grid."""
    lo, hi = path_box(path, tau)
    return float(_box_volumes(metric, lo[None], hi[None])[0])


def igc(metric: MetricField, path: GeodesicPath, tau: float) -> float:
    """Time-averaged explored volume C(tau) by composite quadrature over the
    path grid, on the boxes of ``complexity_trace``: the grid points before
    tau, then ``path.state(tau)``."""
    if tau <= path.tau_grid[0]:
        raise ValueError("tau must exceed the start of the path")
    before = path.tau_grid < tau
    _, cvals = _running_volumes(
        metric, np.append(path.tau_grid[before], tau),
        np.vstack([path.theta[before], path.state(tau)[0]]))
    return float(cvals[-1])


def ige(metric: MetricField, path: GeodesicPath, tau: float) -> float:
    """Entropy trace S(tau) = ln C(tau)."""
    c = igc(metric, path, tau)
    if c <= 0:
        raise UndefinedEntropyError(f"complexity {c} has no logarithm")
    return float(np.log(c))


@dataclass(frozen=True, eq=False)
class ComplexityTrace:
    """Explored volume, its running average and the entropy, on a tau grid."""

    tau_grid: np.ndarray
    delta_v: np.ndarray
    igc: np.ndarray
    ige: np.ndarray
    region: str = REGION_CONVENTION


def complexity_trace(metric: MetricField,
                     path: GeodesicPath) -> ComplexityTrace:
    """Evaluate delta-V, C and S on the path's own tau grid.

    The box at each grid point is the running per-coordinate min/max of the
    path up to that point, the same box ``volume_between`` takes there; all
    of them go to one ``_box_volumes`` call.
    """
    dv, cvals = _running_volumes(metric, path.tau_grid, path.theta)
    with np.errstate(divide="ignore"):
        svals = np.log(cvals)
    return ComplexityTrace(path.tau_grid, dv, cvals, svals)


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

_FORMS = ("linear", "logarithmic", "power", "exponential", "ige_saturating")


@dataclass(frozen=True)
class AsymptoticFit:
    """Late-time fit of a complexity/entropy trace.

    params by form: linear S = a tau + b -> (a, b); logarithmic
    S = a ln tau + b -> (a, b); power C = a tau^b -> (a, b); exponential
    C = a e^(b tau) -> (a, b); ige_saturating S = m ln(L1 + L2 / tau)
    -> (L1, L2) with the multiplicity m fixed by the caller.
    """

    form: str
    params: tuple
    r2: float
    window: tuple


def _window_mask(taus, window, fit_window_fraction):
    if window is None:
        lo = taus[0] + fit_window_fraction * (taus[-1] - taus[0])
        hi = taus[-1]
    else:
        lo, hi = window
    return (taus >= lo) & (taus <= hi), (float(lo), float(hi))


def _lstsq_line(x, y):
    design = np.column_stack([x, np.ones_like(x)])
    if np.linalg.matrix_rank(design) < 2:
        raise FitFailureError("rank-deficient design matrix")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef, design @ coef


def _r2(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-24 else 0.0
    return min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def fit_asymptotics(trace: ComplexityTrace, form: str, multiplicity: int = 1,
                    window: tuple = None, fit_window_fraction: float = 0.25,
                    min_points: int = 32) -> AsymptoticFit:
    """Least-squares fit of the trace to one asymptotic form.

    The window defaults to the trace range with the first quarter (the
    transient) dropped; at least ``min_points`` finite samples are required.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}; choose from {_FORMS}")
    mask, win = _window_mask(trace.tau_grid, window, fit_window_fraction)
    taus = trace.tau_grid[mask]
    entropy_form = form in ("linear", "logarithmic", "ige_saturating")
    y = trace.ige[mask] if entropy_form else trace.igc[mask]
    good = np.isfinite(y) & (taus > 0)
    taus, y = taus[good], y[good]
    if taus.size < min_points:
        raise FitFailureError(
            f"only {taus.size} usable points in window {win}; "
            f"need {min_points}")

    if form == "linear":
        coef, yhat = _lstsq_line(taus, y)
    elif form == "logarithmic":
        coef, yhat = _lstsq_line(np.log(taus), y)
    elif form == "power":
        if np.any(y <= 0):
            raise FitFailureError("power fit needs positive complexity")
        coef, lhat = _lstsq_line(np.log(taus), np.log(y))
        coef = np.array([np.exp(coef[1]), coef[0]])
        yhat, y = lhat, np.log(y)
    elif form == "exponential":
        if np.any(y <= 0):
            raise FitFailureError("exponential fit needs positive complexity")
        coef, lhat = _lstsq_line(taus, np.log(y))
        coef = np.array([np.exp(coef[1]), coef[0]])
        yhat, y = lhat, np.log(y)
    else:   # ige_saturating: y = m ln(L1 + L2 / tau)
        m = float(multiplicity)
        tail = np.exp(y[-1] / m)
        head = np.exp(y[0] / m)
        guess = (tail, max(taus[0] * (head - tail), 1e-6))

        def model(t, l1, l2):
            return m * np.log(np.maximum(l1 + l2 / t, 1e-300))

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                coef, _ = curve_fit(model, taus, y, p0=guess, maxfev=20000)
        except RuntimeError as exc:
            raise FitFailureError(f"saturating fit diverged: {exc}") from exc
        yhat = model(taus, *coef)

    return AsymptoticFit(form, tuple(float(c) for c in coef),
                         _r2(y, yhat), win)


def select_growth_form(trace: ComplexityTrace, forms=("logarithmic", "linear"),
                       **kwargs):
    """Model selection among entropy growth forms by r2.

    Returns (winning fit, r2 margin over the runner-up, all fits).
    """
    fits = [fit_asymptotics(trace, f, **kwargs) for f in forms]
    ranked = sorted(fits, key=lambda f: f.r2, reverse=True)
    margin = ranked[0].r2 - ranked[1].r2 if len(ranked) > 1 else ranked[0].r2
    return ranked[0], margin, fits
