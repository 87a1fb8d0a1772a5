"""Statistical volumes, complexity and entropy of geodesic exploration.

The volume of the region explored by a geodesic up to time tau is the
iterated integral of sqrt(det g) over the coordinate box spanned by the
trajectory (per-coordinate min/max over [0, tau]).  Its running time average
is the complexity C(tau); S(tau) = ln C(tau) is the entropy trace.  Late-time
behavior is summarized by fits to linear, logarithmic, power, exponential
and saturating forms, each a least-squares line in transformed variables
(``AsymptoticFit``), whose r^2 is read in that space.

A box is a pair of corner arrays lo, hi.  Closed-form metrics
(``analytic_fisher``, ``fisher_quadrature``, ``macro_correlated_metric``,
``flat_metric`` and ``iho_metric``) take all boxes of a trace in one exact
``MetricField.box_volume`` call; every other metric (``rescaled_chart``,
user metrics) goes through 64-node Gauss-Legendre panels, halved until
converged (``integrate_box``), per factor (``MetricField.block_metric``)
and box, axis by axis.  A factor whose density does not factor across
its axes has no volume there: ``integrate_box`` raises UnsupportedFamilyError.

The box reading of the region integral is a convention choice (the endpoint
notation leaves the region open for more than one coordinate); it is recorded
in every report so alternates can be compared later.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import FitFailureError, ParameterError, UndefinedEntropyError
from .models import MetricField, _is_number
from .dynamics import GeodesicPath
from .quadrature import integrate_box

__all__ = [
    "ComplexityTrace",
    "AsymptoticFit",
    "volume_between",
    "igc",
    "ige",
    "complexity_trace",
    "fit_failures",
    "fit_asymptotics",
    "select_growth_form",
]

REGION_CONVENTION = "coordinate-box"


def _path_to(path: GeodesicPath, tau: float, at_start: bool = False):
    """(taus, points) of the path up to tau: the grid points strictly before
    tau in the path's direction, then ``path.state(tau)``.  ValueError
    unless tau lies past the start, or, with ``at_start``, at it."""
    grid = path.tau_grid
    ahead = np.sign(grid[-1] - grid[0]) * (tau - grid)
    if not (ahead[0] >= 0 if at_start else ahead[0] > 0):
        raise ValueError("tau must lie past the start of the path, in its "
                         "direction")
    before = ahead > 0
    return (np.append(grid[before], tau),
            np.vstack([path.theta[before], path.state(tau)[0]]))


def _box_volumes(metric: MetricField, lo, hi) -> np.ndarray:
    """Volumes of the boxes with corners lo, hi of shape (n, dim).

    A box with zero extent on any axis has volume 0.  A metric with a
    closed-form box volume takes every box in one ``box_volume`` call; any
    other gets the product of the ``integrate_box`` integrals of its
    factors, box by box.
    """
    vol = np.zeros(len(lo))
    live = np.all(hi > lo, axis=1)
    if metric.has_exact_volume:
        vol[live] = metric.box_volume(np.stack([lo[live], hi[live]], -1))
        return vol
    factors = [(list(c), metric.block_metric(c)) for c in metric.blocks]
    for k in np.flatnonzero(live):
        vol[k] = np.prod([integrate_box(f.sqrt_det, zip(lo[k, c], hi[k, c]))
                          for c, f in factors])
    return vol


def _running_volumes(metric: MetricField, taus, pts):
    """delta-V of the running per-coordinate min/max boxes of the points
    ``pts`` (n, dim), and its running trapezoid average over ``taus``.
    The average is over the elapsed |tau - tau_0|, so a path run backward
    in tau has the complexity of its time reverse."""
    dv = _box_volumes(metric, np.minimum.accumulate(pts, axis=0),
                      np.maximum.accumulate(pts, axis=0))
    seg = 0.5 * (dv[1:] + dv[:-1]) * np.abs(np.diff(taus))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    spans = np.abs(taus - taus[0])
    return dv, np.divide(cum, spans, out=np.zeros_like(cum),
                         where=spans > 0)


def volume_between(metric: MetricField, path: GeodesicPath,
                   tau: float) -> float:
    """Volume of the coordinate box traced by the geodesic up to tau, on or
    off the path grid: 0 at the start, and ValueError on its far side."""
    _, pts = _path_to(path, tau, at_start=True)
    return float(_box_volumes(metric, pts.min(axis=0)[None],
                              pts.max(axis=0)[None])[0])


def igc(metric: MetricField, path: GeodesicPath, tau: float) -> float:
    """Time-averaged explored volume C(tau) by composite quadrature over the
    path grid, on the boxes of ``complexity_trace``: the grid points before
    tau in the path's direction, then ``path.state(tau)``."""
    _, cvals = _running_volumes(metric, *_path_to(path, tau))
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

# each form as the line v(y, m) = a + b x(tau) through the trace y (S or C)
# it reads, with its params from the intercept a and slope b
_FORMS = {
    "linear": ("ige", lambda t: t, lambda y, m: y, lambda a, b: (b, a)),
    "logarithmic": ("ige", np.log, lambda y, m: y, lambda a, b: (b, a)),
    "power": ("igc", np.log, lambda y, m: np.log(y),
              lambda a, b: (np.exp(a), b)),
    "exponential": ("igc", lambda t: t, lambda y, m: np.log(y),
                    lambda a, b: (np.exp(a), b)),
    # S = m ln(L1 + L2 / tau) is the line e^(S/m) = L1 + L2 / tau
    "ige_saturating": ("ige", lambda t: 1.0 / t, lambda y, m: np.exp(y / m),
                       lambda a, b: (a, b)),
}


@dataclass(frozen=True)
class AsymptoticFit:
    """Late-time fit of a complexity/entropy trace: a least-squares line
    in the transformed variables of its form, with ``r2`` read there.

    linear S = a tau + b on (tau, S) -> (a, b); logarithmic S = a ln tau + b
    on (ln tau, S) -> (a, b); power C = a tau^b on (ln tau, ln C) -> (a, b);
    exponential C = a e^(b tau) on (tau, ln C) -> (a, b); ige_saturating
    S = m ln(L1 + L2 / tau) on (1/tau, e^(S/m)) -> (L1, L2), with the
    multiplicity m fixed by the caller.
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


def _fit_line(x, y):
    """Intercept a and slope b of the least-squares line y = a + b x;
    FitFailureError when a value is not finite or x has no spread."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitFailureError("line fit needs finite values")
    if x.size < 2 or not np.ptp(x) > 0:
        raise FitFailureError("line fit needs an abscissa with spread")
    dx = x - np.mean(x)
    b = float(dx @ (y - np.mean(y)) / (dx @ dx))
    return float(np.mean(y)) - b * float(np.mean(x)), b


def _r2(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-24 else 0.0
    return min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def fit_failures(form: str = "linear", fit_window_fraction: float = 0.25,
                 multiplicity: int = 1) -> list:
    """(field, message) of each argument of ``fit_asymptotics`` out of its
    range; the default window is empty at a fraction of 1 or more, and the
    multiplicity is a count, no bool."""
    fails = [] if isinstance(form, str) and form in _FORMS else [
        ("form", f"must be one of {tuple(_FORMS)}, got {form!r}")]
    if not (_is_number(fit_window_fraction)
            and 0.0 < fit_window_fraction < 1.0):
        fails.append(("fit_window_fraction",
                      f"must lie in (0, 1), got {fit_window_fraction!r}"))
    if not (isinstance(multiplicity, Integral)
            and not isinstance(multiplicity, bool) and multiplicity > 0):
        fails.append(("multiplicity",
                      f"must be a positive integer, got {multiplicity!r}"))
    return fails


# the fewest finite samples a fit window may hold
_MIN_POINTS = 16


def fit_asymptotics(trace: ComplexityTrace, form: str, multiplicity: int = 1,
                    window: tuple = None,
                    fit_window_fraction: float = 0.25) -> AsymptoticFit:
    """Least-squares fit of the trace to one asymptotic form.

    The window defaults to the trace range with the first quarter (the
    transient) dropped; at least ``_MIN_POINTS`` finite samples are
    required, and a transformed value that is not finite raises
    FitFailureError.
    """
    ParameterError.raise_any(fit_failures(form, fit_window_fraction,
                                          multiplicity))
    mask, win = _window_mask(trace.tau_grid, window, fit_window_fraction)
    which, x_of, v_of, params = _FORMS[form]
    taus = trace.tau_grid[mask]
    y = getattr(trace, which)[mask]
    good = np.isfinite(y) & (taus > 0)
    taus, y = taus[good], y[good]
    if taus.size < _MIN_POINTS:
        raise FitFailureError(
            f"only {taus.size} usable points in window {win}; "
            f"need {_MIN_POINTS}")
    with np.errstate(all="ignore"):
        x, v = x_of(taus), v_of(y, float(multiplicity))
    a, b = _fit_line(x, v)
    return AsymptoticFit(form, tuple(float(c) for c in params(a, b)),
                         _r2(v, a + b * x), win)


def select_growth_form(trace: ComplexityTrace, **kwargs):
    """Model selection between logarithmic and linear entropy growth by r2.

    Returns (winning fit, r2 margin over the runner-up, both fits).
    """
    fits = [fit_asymptotics(trace, f, **kwargs)
            for f in ("logarithmic", "linear")]
    ranked = sorted(fits, key=lambda f: f.r2, reverse=True)
    return ranked[0], ranked[0].r2 - ranked[1].r2, fits
