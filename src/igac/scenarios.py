"""End-to-end scenario drivers wiring models -> geometry -> dynamics ->
complexity, each cross-checked against closed forms.

Five drivers: uncorrelated Gaussian macrostates, macro-correlated Gaussian
pairs, an ensemble of inverted harmonic oscillators with an Ohmic frequency
spectrum, regular/chaotic level-spacing manifolds, and the colliding
wave-packet pair with its scattering observables.  Every report entry carries
its oracle value, tolerance and source tag; a report passes iff all its
checks do.

``ScatterConfig`` is the one record of the wave-packet pair: its initial
data, the derived rate a0 and amplitudes, and the scattering constants.
The wave-packet closed forms (the tanh/cosh geodesics, the average explored
volume, the prolongation) take it with the correlation r of the manifold
they describe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral, Real
from typing import Optional

import numpy as np
# No driver solves an ODE.  The binding stays because perfbench/tracing.py
# and its tests wrap igac.scenarios.solve_ivp.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq
from scipy.special import comb, gamma, gammainc

from . import complexity as cx
from . import dynamics as dyn
from . import geometry as geo
from . import models as md
from ._threads import parallel_map
from .errors import FitFailureError, ParameterError, RegimeError
from .quadrature import gauss_legendre

__all__ = [
    "Check",
    "ScenarioReport",
    "trace_columns",
    "PairsConfig",
    "SpinChainConfig",
    "IHOConfig",
    "ScatterConfig",
    "run_uncorrelated_gaussian",
    "run_macro_correlated",
    "run_iho",
    "run_spin_chain",
    "run_wavepacket",
    "scattering_observables",
    "exact_phase_shift",
    "prolongation",
    "r_from_igc",
    "purity_from_igc",
    "wavepacket_model",
    "wavepacket_manifold",
    "igc_closed_form",
    "macro_lambda1",
    "macro_alphas",
    "ohmic_density",
]

# The closed-form complexity of the wave-packet manifolds carries a constant
# region-normalization factor of 2 relative to the coordinate-box volume
# (verified numerically to machine precision; ratios, gaps and slopes are
# unaffected).
CLOSED_FORM_REGION_FACTOR = 2.0


@dataclass(frozen=True)
class Check:
    """One numeric comparison: value against oracle at a stated tolerance.

    Modes: "abs" |value - oracle| <= tol; "rel" the same scaled by |oracle|;
    "min" one-sided, value >= oracle - tol.
    """

    name: str
    value: float
    oracle: float
    tol: float
    source: str
    mode: str = "abs"           # abs | rel | min
    note: str = ""

    @property
    def passed(self) -> bool:
        v, o = self.value, self.oracle
        if not np.isfinite(v):
            return False
        if self.mode == "min":
            return bool(v >= o - self.tol)
        err = abs(v - o)
        bound = self.tol if self.mode == "abs" else self.tol * abs(o)
        return bool(err <= bound)

    def to_dict(self):
        return {"name": self.name, "value": self.value, "oracle": self.oracle,
                "tol": self.tol, "mode": self.mode, "source": self.source,
                "pass": self.passed, "note": self.note}


@dataclass
class ScenarioReport:
    scenario: str
    inputs: dict
    observables: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    region: str = cx.REGION_CONVENTION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, *args, **kwargs):
        self.checks.append(Check(*args, **kwargs))

    def failures(self):
        return [c.to_dict() for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "inputs": _plain(self.inputs),
            "observables": _plain(self.observables),
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
            "region": self.region,
            "pass": self.passed,
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def trace_columns(path=None, trace=None, jacobi=None) -> dict:
    """The columns of a report trace: tau, theta and speed of the
    GeodesicPath ``path``, by default the carrier of ``jacobi``; delta_v,
    igc and ige of the ComplexityTrace ``trace``, whose grid is tau when
    there is no path; jacobi_intensity of the JacobiTrace ``jacobi``."""
    path = jacobi.path if path is None and jacobi is not None else path
    cols = {} if path is None else {
        "tau": path.tau_grid, "theta": path.theta, "speed": path.speed}
    if trace is not None:
        cols = {"tau": trace.tau_grid, **cols, "delta_v": trace.delta_v,
                "igc": trace.igc, "ige": trace.ige}
    if jacobi is not None:
        cols["jacobi_intensity"] = jacobi.intensity
    return cols


def _exp_rate(taus, values, lo_frac=0.25):
    """Slope of ln(values) over the late window; values must be positive."""
    m = cx._window_mask(taus, None, lo_frac)[0] & (values > 0)
    if np.count_nonzero(m) < 8:
        raise FitFailureError("too few positive samples for a rate fit")
    return cx._fit_line(taus[m], np.log(values[m]))[1]


def _linear_slope(taus, values):
    m = np.isfinite(values)
    return cx._fit_line(taus[m], values[m])[1]


# ---------------------------------------------------------------------------
# uncorrelated Gaussian macrostates
# ---------------------------------------------------------------------------

def _count_failures(l):
    """The failure of a pair or oscillator count l that is no integer of
    at least 1."""
    return [] if isinstance(l, Integral) and l >= 1 else [
        ("l", f"must be at least 1, got {l}")]


def _settle_start(cfg, failures, dim, scales, start, velocity, tau_end):
    """The start rules of the geodesic configs: raise ParameterError with
    ``failures`` and each failure of theta0 and v0 of ``dim`` components
    (unchecked while dim is None), of the ``scales`` entries of theta0 (its
    spreads and rates) below the chart floor of ``MetricField.in_chart``
    and of tau_end > 0.  Else fill what ``cfg`` leaves None, as tuples of
    floats: theta0 = ``start()``, v0 = ``velocity(theta0)``, ``tau_end``."""
    theta0, v0 = cfg.theta0, cfg.v0
    failures += [(name, f"needs {dim} components, got {len(vec)}")
                 for name, vec in (("theta0", theta0), ("v0", v0))
                 if vec is not None and dim and len(vec) != dim]
    if theta0 is not None and len(theta0) == dim:
        failures += [(f"theta0[{i}]", f"must be at least the chart floor "
                      f"{md._CHART_FLOOR}, got {theta0[i]}")
                     for i in range(dim)[scales]
                     if not (md._is_number(theta0[i])
                             and theta0[i] >= md._CHART_FLOOR)]
    if cfg.tau_end is not None:
        failures += md.positive_failures({"tau_end": cfg.tau_end})
    ParameterError.raise_any(failures)
    theta0 = np.asarray(start() if theta0 is None else theta0, float)
    v0 = np.asarray(velocity(theta0) if v0 is None else v0, float)
    object.__setattr__(cfg, "theta0", tuple(theta0.tolist()))
    object.__setattr__(cfg, "v0", tuple(v0.tolist()))
    if cfg.tau_end is None:
        object.__setattr__(cfg, "tau_end", tau_end)


@dataclass(frozen=True)
class PairsConfig:
    """l Gaussian (mean, spread) pairs for ``run_uncorrelated_gaussian`` and
    ``run_macro_correlated``, which needs ``r``: one correlation in [0, 1)
    or one per pair, kept as one per pair.  Each pair starts by default at
    the top of a semicircle geodesic, theta = (0, 1), v = (sqrt(2), 0),
    where its explored volume grows like exp(tau); tau_end is 17.5."""

    l: int
    r: Optional[tuple] = None
    theta0: Optional[tuple] = None
    v0: Optional[tuple] = None
    tau_end: Optional[float] = None

    def __post_init__(self):
        failures = _count_failures(self.l)
        dim = None if failures else 2 * self.l
        if self.r is not None:
            rs = list(self.r) if isinstance(self.r, (list, tuple,
                                                     np.ndarray)) else [self.r]
            failures += md.correlation_failures(
                {f"r[{i}]": x for i, x in enumerate(rs)})
            if dim and len(rs) not in (1, self.l):
                failures.append(("r", f"needs 1 or l = {self.l} "
                                 f"correlations, got {len(rs)}"))
        _settle_start(self, failures, dim, slice(1, None, 2),
                      lambda: np.tile([0.0, 1.0], self.l),
                      lambda _: np.tile([np.sqrt(2.0), 0.0], self.l), 17.5)
        if self.r is not None:
            object.__setattr__(self, "r", tuple(map(float, rs))
                               * (self.l // len(rs)))


def _gaussian_model_at(theta):
    return md.gaussian_diag(theta[0::2], theta[1::2])


# grid points of each scenario's geodesic and entropy traces
_TRACE_POINTS = 257


def _ige_trace(metric, theta0, v0, tau_end):
    path = dyn.integrate_geodesic(metric, theta0, v0, tau_end,
                                  n_out=_TRACE_POINTS)
    return path, cx.complexity_trace(metric, path)


def run_uncorrelated_gaussian(cfg: PairsConfig) -> ScenarioReport:
    """Gaussian model with l independent (mean, spread) pairs, which take
    no macro-correlation ``r``.

    Verifies the constant negative scalar curvature -l (analytic and
    quadrature metrics), linear entropy growth with slope proportional to l,
    and the exponential deviation-field rate matching the per-pair slope.
    """
    if cfg.r is not None:
        raise ParameterError([("r", f"takes no correlation, got {cfg.r}")])
    l, tau_end = cfg.l, cfg.tau_end
    theta0, v0 = np.array(cfg.theta0), np.array(cfg.v0)
    model = _gaussian_model_at(theta0)
    metric = md.analytic_fisher(model)
    report = ScenarioReport("uncorrelated_gaussian",
                            {"l": l, "theta0": theta0, "v0": v0,
                             "tau_end": tau_end})

    report.add("ricci_scalar_analytic", geo.ricci_scalar(metric, theta0),
               -float(l), 1e-6, "closed form: constant curvature -l")
    qmetric = md.fisher_quadrature(model)
    report.add("ricci_scalar_quadrature", geo.ricci_scalar(qmetric, theta0),
               -float(l), 1e-4, "closed form: constant curvature -l")

    path, trace = _ige_trace(metric, theta0, v0, tau_end)
    # late window keeps the -ln(tau) finite-time correction small
    fit_window = (0.55 * tau_end, tau_end)
    fit = cx.fit_asymptotics(trace, "linear", window=fit_window)
    slope = fit.params[0]
    report.observables["ige_linear_slope"] = slope
    report.observables["ige_fit_r2"] = fit.r2
    report.add("speed_drift", path.speed_drift, 0.0, 1e-9,
               "affine parametrization", mode="abs")

    # deviation-field growth rate against the per-pair entropy slope
    j0 = np.zeros(metric.dim)
    dj0 = dyn.normal_direction(metric, theta0, v0)
    jac = dyn.integrate_jacobi(metric, theta0, v0, path.tau_grid, j0, dj0)
    jrate = _exp_rate(jac.path.tau_grid, jac.intensity)
    report.observables["jacobi_exp_rate"] = jrate
    report.add("jacobi_rate_vs_slope_per_pair", jrate, slope / l, 0.10,
               "entropy slope per pair", mode="rel")

    th2, vv2 = np.tile(theta0, 2), np.tile(v0, 2)
    m2 = md.analytic_fisher(_gaussian_model_at(th2))
    _, tr2 = _ige_trace(m2, th2, vv2, tau_end)
    slope2 = cx.fit_asymptotics(tr2, "linear", window=fit_window).params[0]
    report.observables["ige_slope_doubled"] = slope2
    report.add("slope_ratio_doubling", slope2 / slope, 2.0, 0.2,
               "entropy slope proportional to pair count", mode="abs")

    report.traces["geodesic"] = trace_columns(path, trace, jac)
    return report


# ---------------------------------------------------------------------------
# macro-correlated Gaussian pairs
# ---------------------------------------------------------------------------

def macro_lambda1(r: float) -> float:
    """Saturation level Lambda_1(r) = 2 r sqrt(2 - r^2) / (1 + sqrt(1 + 4 r^2))."""
    return 2 * r * np.sqrt(2 - r * r) / (1 + np.sqrt(1 + 4 * r * r))


def macro_alphas(r: float):
    """Exponent pair alpha_+- = (3 +- sqrt(1 + 4 r^2)) / 2."""
    s = np.sqrt(1 + 4 * r * r)
    return (3 + s) / 2, (3 - s) / 2


def macro_pair_ricci(r: float) -> float:
    """Kernel-route scalar curvature of one correlated (mean, spread) pair.

    The pair metric is a constant linear transform of the uncorrelated one,
    giving R = -2 / (2 - r^2); the reference closed form -8 (2 - r^2)^-3
    agrees only at r = 0 and is reported alongside, never substituted.
    """
    return -2.0 / (2.0 - r * r)


def run_macro_correlated(cfg: PairsConfig) -> ScenarioReport:
    """Gaussian pairs with constant macro-correlations r_j, ``cfg.r``.

    Reports the kernel scalar curvature next to the reference closed form
    (under the l-term reading of its sum), checks the r -> 0 degeneration
    against the uncorrelated model, and fits the entropy trace to both the
    saturating and linear forms.
    """
    if cfg.r is None:
        raise ParameterError([("r", "needs one correlation or one per pair")])
    l, r_list, tau_end = cfg.l, list(cfg.r), cfg.tau_end
    theta0, v0 = np.array(cfg.theta0), np.array(cfg.v0)
    metric = md.macro_correlated_metric(r_list)
    report = ScenarioReport("macro_correlated",
                            {"l": l, "r": r_list, "theta0": theta0, "v0": v0,
                             "tau_end": tau_end})

    kernel_r = geo.ricci_scalar(metric, theta0)
    derived = sum(macro_pair_ricci(r) for r in r_list)
    reference = sum(-8.0 * (2 - r * r) ** -3 for r in r_list)
    report.observables["ricci_scalar_kernel"] = kernel_r
    report.observables["ricci_scalar_reference_form"] = reference
    report.add("ricci_scalar_vs_constant_transform", kernel_r, derived, 1e-8,
               "isometry to the uncorrelated pair under a constant "
               "linear chart change")
    report.notes.append(
        "reference pair curvature -8(2-r^2)^-3 differs from the kernel "
        "value for r > 0; both are reported, neither is adjusted")

    tiny = md.macro_correlated_metric([1e-9] * l)
    report.add("ricci_limit_vanishing_r", geo.ricci_scalar(tiny, theta0),
               -float(l), 1e-6, "uncorrelated limit")

    path, trace = _ige_trace(metric, theta0, v0, tau_end)
    if max(r_list) < 1e-8:
        base_metric = md.analytic_fisher(_gaussian_model_at(theta0))
        _, trace0 = _ige_trace(base_metric, theta0, v0, tau_end)
        # an entry equal in both traces, -inf included, has gap 0; one
        # finite in a single trace an infinite gap
        apart = trace.ige != trace0.ige
        gap = float(np.max(np.abs(trace.ige[apart] - trace0.ige[apart]),
                           initial=0.0))
        report.add("ige_degeneration_at_r0", gap, 0.0, 1e-8,
                   "continuous limit of the pair metric")

    lin = cx.fit_asymptotics(trace, "linear")
    report.observables["ige_linear_slope"] = lin.params[0]
    report.observables["ige_linear_r2"] = lin.r2
    try:
        sat = cx.fit_asymptotics(trace, "ige_saturating", multiplicity=l)
        report.observables["lambda1_fitted"] = sat.params[0]
        report.observables["lambda2_fitted"] = sat.params[1]
        report.observables["ige_saturating_r2"] = sat.r2
    except FitFailureError as exc:
        report.notes.append(f"saturating fit unavailable: {exc}")
    report.observables["lambda1_formula"] = [macro_lambda1(r) for r in r_list]
    report.observables["alpha_plus"] = [macro_alphas(r)[0] for r in r_list]
    report.observables["alpha_minus"] = [macro_alphas(r)[1] for r in r_list]
    report.notes.append(
        "box-region entropy grows linearly at late times; the saturating "
        "form's Lambda_1 is reported for comparison with the reference "
        "asymptotics, whose volume-region convention is not recoverable")

    report.traces["geodesic"] = trace_columns(path, trace)
    return report


# ---------------------------------------------------------------------------
# inverted harmonic oscillators
# ---------------------------------------------------------------------------

def ohmic_density(omega, cutoff):
    """Linear frequency density 2 w / cutoff^2, normalized to 1 on [0, cutoff]."""
    omega = np.asarray(omega, float)
    return 2.0 * omega / cutoff ** 2


# common initial displacement x_j(0) of every oscillator
_IHO_AMPLITUDE = 1.0

# start of the window over which the closed-form entropy slope is fitted;
# a horizon tau_end must lie beyond it
_IHO_FIT_START = 10.0


@dataclass(frozen=True)
class IHOConfig:
    """Inverted-oscillator ensemble: explicit frequencies or an Ohmic draw.

    With ``omega`` given, Omega = sum(omega); otherwise l frequencies are
    placed at the quantile nodes of the Ohmic density with cutoff
    xi * omega_total.
    """

    l: int
    omega: Optional[tuple] = None
    omega_total: Optional[float] = None
    xi: float = 1.0
    tau_end: float = 60.0

    def __post_init__(self):
        failures = _count_failures(self.l)
        if self.omega is not None:
            if not failures and len(self.omega) != self.l:
                failures.append(("omega", f"needs one frequency per "
                                 f"oscillator, l = {self.l}, got "
                                 f"{len(self.omega)}"))
            failures += md.positive_failures(
                {f"omega[{i}]": w for i, w in enumerate(self.omega)})
        elif self.omega_total is None:
            failures.append(("omega", "provide omega or omega_total"))
        scales = {"xi": self.xi} if self.omega_total is None else \
            {"omega_total": self.omega_total, "xi": self.xi}
        failures += md.positive_failures(scales)
        tau_end = self.tau_end
        if not (isinstance(tau_end, Real) and tau_end > _IHO_FIT_START):
            failures.append(("tau_end", f"must be a number above the start "
                             f"{_IHO_FIT_START} of the slope fit, got "
                             f"{tau_end}"))
        ParameterError.raise_any(failures)
        if self.omega is not None:
            object.__setattr__(self, "omega",
                               tuple(float(w) for w in self.omega))

    @property
    def frequencies(self):
        if self.omega is not None:
            return np.array(self.omega)
        cut = self.xi * self.omega_total
        k = np.arange(1, self.l + 1)
        return cut * np.sqrt((k - 0.5) / self.l)

    @property
    def omega_sum(self) -> float:
        return float(np.sum(self.frequencies))

    @property
    def cutoff(self) -> float:
        return self.xi * self.omega_sum


def iho_metric(omegas) -> md.MetricField:
    """Conformally flat metric phi delta_ab, phi = 1 + sum w_j^2 x_j^2 / 2.

    Its connection is Gamma^a_bc = (delta_ab d_c phi + delta_ac d_b phi
    - delta_bc d_a phi) / (2 phi), and d_e Gamma follows by the quotient
    rule from the constant d_e d_c phi = w_c^2 delta_ec.  The box volume,
    the integral of phi^(l/2), is exact at every l (``_iho_box_volume``).
    """
    omegas = np.asarray(omegas, float)
    dim = omegas.size

    def mat(th):
        conf = 1.0 + 0.5 * np.sum(omegas ** 2 * th ** 2, axis=-1)
        eye = np.eye(dim)
        return conf[..., None, None] * eye

    # d_c d_d g_ab = w_c^2 delta_cd delta_ab
    d2g = np.einsum("cd,ab->cdab", np.diag(omegas ** 2), np.eye(dim))

    def jet(th, order=1):
        g = mat(th)
        dg = np.einsum("c,ab->cab", omegas ** 2 * th, np.eye(dim))
        return (g, dg) if order == 1 else (g, dg, d2g.copy())

    eye = np.eye(dim)

    def lc_terms(v):
        # delta_ab v_c + delta_ac v_b - delta_bc v_a, leading axes of v kept
        return (np.einsum("ab,...c->...abc", eye, v)
                + np.einsum("ac,...b->...abc", eye, v)
                - np.einsum("bc,...a->...abc", eye, v))

    half_d2 = 0.5 * lc_terms(np.diag(omegas ** 2))   # [e, a, b, c]

    def connection(th, order=1):
        phi = (1.0 + 0.5 * np.sum(omegas ** 2 * th ** 2, axis=-1))[
            ..., None, None, None]
        dphi = omegas ** 2 * th
        gam = lc_terms(dphi) / (2.0 * phi)
        if order == 1:
            return gam
        return gam, (half_d2 - dphi[..., :, None, None, None]
                     * gam[..., None, :, :, :]) / phi[..., None]

    return md.MetricField(dim, mat, jet_fn=jet, connection_fn=connection,
                          volume_fn=_iho_box_volume(omegas),
                          source="analytic")


# Odd-l volumes: trapezoid step in y = ln t and the t-range
# [_T_LO / phi_max, _T_HI / phi_min] of the Laplace integral.  The rule's
# error is about exp(-pi^2 / h) (the integrand is analytic for |Im y| <
# pi/2), 7e-18 at h = 1/4.  Below the range e^(-t phi) is taken as 1, which
# is off by (t phi_max)^(3/2) relative; above it the integrand holds
# erfc(6) = 2e-17 of the volume.
_LAPLACE_STEP = 0.25
_T_LO, _T_HI = 1e-11, 36.0


def _iho_box_volume(omegas):
    """Exact box volumes of the density phi^(l/2), phi = 1 + sum_j u_j,
    u_j = w_j^2 x_j^2 / 2, for a stack of boxes with corners lo, hi of
    shape (B, l).

    The moments M[n] = int phi^n e^(-t sum_j u_j) follow axis by axis from
    the binomial convolution M'[n] = sum_i C(n, i) U_j[n-i] M[i] of the
    per-axis moments U_j[k](t) = int u_j^k e^(-t u_j) dx_j.  Every term is
    positive, and the cost is O(l n^2) per t rather than a tensor rule.

    Even l = 2m takes the one node t = 0 for every box, where the U_j[k]
    are polynomial moments, exact on an (m+1)-node Gauss-Legendre rule, and
    the volume is M[m]: the whole stack goes through the rule and the
    convolution at once, as arrays of shape (B, l, m+1).  Odd l = 2m+1
    writes phi^(l/2) = phi^(m+1) phi^(-1/2) and phi^(-1/2) = pi^(-1/2)
    int_0^inf t^(-1/2) e^(-t phi) dt (DLMF 5.2.1), so the volume is a
    trapezoid rule in y = ln t over e^(-t) M[m+1](t), with the nodes below
    the range summed at t = 0.  Each odd-l box has its own t-range, so the
    stack goes box by box, the nodes t of one box stacked instead.
    U_j[k](t) is an incomplete-gamma difference, taken through the odd
    extension in x_j so that a box may straddle 0 or lie at negative x_j.
    Where e^(-t u_j) varies by at most a factor e over the box, the
    Gauss-Legendre rule takes U_j[k](t) instead: it keeps the digits that
    the difference would lose on a thin box.

    Both sums, over the Gauss-Legendre nodes and over the convolution
    index, add elementwise products term by term in a fixed order.  A
    matrix product, or ``np.sum`` on an array whose memory layout follows
    the stack, may order the additions differently with the size of the
    stack, and a box must get the same bits alone as in any stack
    (``MetricField.box_volume`` passes one box as a stack of one).
    """
    cs = 0.5 * omegas ** 2
    odd = omegas.size % 2
    n = (omegas.size + 1) // 2
    gl_t, gl_w = gauss_legendre(n + 1 + 9 * odd)
    k = np.arange(n + 1)
    a = k + 0.5
    gamma_a = gamma(a)
    binom = comb(k[:, None], k[None, :])
    shift = np.maximum(k[:, None] - k[None, :], 0)   # n - i where C(n, i) > 0

    def laplace_nodes(lo, hi, phi_max):
        closest = np.where(lo * hi > 0, np.minimum(lo * lo, hi * hi), 0.0)
        phi_min = 1.0 + cs @ closest
        y0 = np.log(_T_LO / phi_max)
        steps = np.ceil((np.log(_T_HI / phi_min) - y0) / _LAPLACE_STEP)
        y = y0 + _LAPLACE_STEP * np.arange(steps + 1)
        t = np.exp(y)
        # the t = 0 node stands for the nodes y0 - h, y0 - 2h, ..., where
        # e^(-t phi) = 1: its weight is sum_{j >= 1} e^((y0 - j h) / 2)
        tail = np.exp(0.5 * y0) / np.expm1(0.5 * _LAPLACE_STEP)
        wt = np.concatenate([[tail], np.exp(0.5 * y - t)])
        return np.concatenate([[0.0], t]), \
            _LAPLACE_STEP / np.sqrt(np.pi) * wt

    def gl_nodes(c, lo, hi):
        """Weights (hi - lo) / 2 w_p and u = c x_p^2 at the Gauss-Legendre
        nodes x_p of [lo, hi], on a last axis of nodes."""
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[..., None] + half[..., None] * gl_t
        return half[..., None] * gl_w, c * x * x

    def ordered_sum(terms):
        """Sum along the last axis, from the first term to the last."""
        return reduce(np.add, np.moveaxis(terms, -1, 0))

    def power_sums(wts, q):
        """U[..., k] = sum_p wts_p q_p^k for k = 0..n."""
        return ordered_sum(wts[..., None, :] * q[..., None, :] ** k[:, None])

    def top_moment(u):
        """M[..., n] from the per-axis moments u[..., j, k], by the
        convolution M'[..., n] = sum_i C(n, i) U[..., n-i] M[..., i]."""
        mom = np.ones(u.shape[:-2] + (n + 1,))
        for j in range(omegas.size):
            mom = ordered_sum(binom * u[..., j, shift] * mom[..., None, :])
        return mom[..., n]

    def even_volumes(lo, hi):
        return top_moment(power_sums(*gl_nodes(cs[:, None], lo, hi)))

    def axis_moments(c, lo, hi, t):
        """U[..., k] = int_lo^hi u^k e^(-t u) dx, u = c x^2, at each node t."""
        u = np.empty((t.size, n + 1))
        low = c * min(lo * lo, hi * hi) if lo * hi > 0 else 0.0
        flat = t * (c * max(lo * lo, hi * hi) - low) <= 1.0
        wts, q = gl_nodes(c, lo, hi)
        u[flat] = power_sums(wts * np.exp(-np.multiply.outer(t[flat], q)), q)
        tf = t[~flat, None]
        if tf.size:
            def odd_ext(x):     # int_0^x u^k e^(-t u) dx up to the prefactor
                return np.copysign(gammainc(a, tf * c * x * x), x)
            u[~flat] = gamma_a * (odd_ext(hi) - odd_ext(lo)) \
                / (2.0 * np.sqrt(c) * tf ** a)
        return u

    def odd_volume(lo, hi):
        phi_max = 1.0 + cs @ np.maximum(lo * lo, hi * hi)
        if not np.isfinite(phi_max):
            # phi passes the float range on the box, and so does its
            # volume, which overflows to inf as on the even-l rule
            return np.inf
        t, wt = laplace_nodes(lo, hi, phi_max)
        return wt @ top_moment(np.stack([axis_moments(c, lo_j, hi_j, t)
                                         for c, lo_j, hi_j in
                                         zip(cs, lo, hi)], axis=-2))

    if not odd:
        return even_volumes
    return lambda lo, hi: np.array([odd_volume(*box) for box in zip(lo, hi)])


def iho_delta_v_asymptotic(cfg: IHOConfig, tau):
    """Dominant-corner closed form of the explored volume at large tau."""
    w = cfg.frequencies
    tau = np.asarray(tau, float)
    grow = np.exp(np.add.outer(tau, np.zeros(cfg.l)) * w)     # (n, l)
    prod = _IHO_AMPLITUDE ** cfg.l * np.prod(grow, axis=-1)
    quad = np.sum((_IHO_AMPLITUDE * grow * w) ** 2, axis=-1)
    return prod * quad ** (cfg.l / 2) / (cfg.l * 2 ** (cfg.l / 2))


def iho_log_igc_closed_form(cfg: IHOConfig, tau):
    """ln of the Ohmic-spectrum average volume, growth rate (l/2) xi Omega.

    Kept in log space: the volume itself overflows once (l/2) xi Omega tau
    passes about 709.
    """
    tau = np.asarray(tau, float)
    l, xi = cfg.l, cfg.xi
    om = cfg.omega_sum
    log_pref = l * np.log(_IHO_AMPLITUDE ** 2 * xi * om / 2) - np.log(l)
    return log_pref + 0.5 * l * xi * om * tau - np.log(tau)


def run_iho(cfg: IHOConfig) -> ScenarioReport:
    """Inverted-oscillator ensemble entropy growth.

    Evaluates the Newtonian propagator of x-ddot_j = w_j^2 x_j, integrates
    the explored volume directly and through the dominant-corner form, and
    checks the closed-form average volume growth rate (l/2) xi Omega
    together with its proportionality to Omega under frequency doubling.
    """
    w = cfg.frequencies
    report = ScenarioReport("iho", {"l": cfg.l, "omega": w,
                                    "xi": cfg.xi, "tau_end": cfg.tau_end})

    # Ohmic normalization: int_0^w 2u/cut^2 du = (w / cut)^2 is 1 at w = cut
    cut = cfg.cutoff
    report.add("ohmic_normalization", (cut / cut) ** 2, 1.0, 0.0,
               "analytic integral of the linear density")

    # Newtonian propagator x0 cosh(w tau) + (v0 / w) sinh(w tau) of the
    # pure-growth initial data v0 = w x0
    x0 = np.full(cfg.l, _IHO_AMPLITUDE)
    v0 = w * x0
    taus = np.linspace(0.0, min(cfg.tau_end, 12.0 / np.max(w)), 201)[1:]
    wt = np.outer(taus, w)
    coords = x0 * np.cosh(wt) + v0 / w * np.sinh(wt)
    report.add("newtonian_growth",
               float(np.max(np.abs(coords / (x0 * np.exp(wt)) - 1.0))),
               0.0, 1e-7, "closed-form exponential solution")

    metric = iho_metric(w)
    path = dyn.path_from_functions(
        np.concatenate([[0.0], taus]),
        lambda t: x0 * np.exp(np.multiply.outer(t, w)),
        lambda t: w * x0 * np.exp(np.multiply.outer(t, w)),
        metric=metric)
    dv_num = cx.complexity_trace(metric, path).delta_v[1:]
    dv_asy = iho_delta_v_asymptotic(cfg, taus)
    rate_num = _exp_rate(taus, dv_num, lo_frac=0.5)
    rate_asy = _exp_rate(taus, dv_asy, lo_frac=0.5)
    report.observables["delta_v_rate_numeric"] = rate_num
    report.observables["delta_v_rate_asymptotic"] = rate_asy
    report.add("delta_v_rate_agreement", rate_num, rate_asy, 0.05,
               "dominant-corner form shares the growth rate", mode="rel")

    # closed-form average volume: rate and Omega proportionality
    fit_taus = np.linspace(_IHO_FIT_START, cfg.tau_end, 64)
    s1 = _linear_slope(fit_taus, iho_log_igc_closed_form(cfg, fit_taus))
    target = 0.5 * cfg.l * cfg.xi * cfg.omega_sum
    report.observables["igc_growth_rate"] = s1
    report.add("igc_growth_rate", s1, target, 0.05,
               "closed-form average volume", mode="rel")

    doubled = IHOConfig(cfg.l, omega=tuple(2 * w), xi=cfg.xi,
                        tau_end=cfg.tau_end)
    s2 = _linear_slope(fit_taus, iho_log_igc_closed_form(doubled, fit_taus))
    report.observables["ige_slope"] = s1
    report.observables["ige_slope_doubled_omega"] = s2
    report.add("ige_slope_doubling", s2 / s1, 2.0, 0.02,
               "entropy slope proportional to Omega", mode="rel")

    report.traces["volume"] = {"tau": taus, "theta": coords,
                               "delta_v": dv_num}
    return report


# ---------------------------------------------------------------------------
# level-spacing manifolds (regular vs chaotic energy statistics)
# ---------------------------------------------------------------------------

def spin_chain_model(regime: str, theta):
    theta = np.asarray(theta, float)
    if regime == "regular":
        return md.product(md.exponential(theta[0]), md.exponential(theta[1]))
    return md.product(md.wigner_dyson(theta[0]),
                      md.gaussian_diag([theta[1]], [theta[2]]))


@dataclass(frozen=True)
class SpinChainConfig:
    """The level-spacing manifold of ``run_spin_chain``: regular (two
    rates) or chaotic (a rate, a mean and a spread), each with its default
    start and horizon."""

    regime: str
    theta0: Optional[tuple] = None
    v0: Optional[tuple] = None
    tau_end: Optional[float] = None

    def __post_init__(self):
        if self.regime == "regular":
            _settle_start(self, [], 2, slice(None), lambda: (1.0, 1.0),
                          lambda th: (0.35 * th[0], 0.22 * th[1]), 60.0)
        elif self.regime == "chaotic":
            # spread decay rate 0.35 keeps sigma in the chart to tau 54
            _settle_start(self, [], 3, slice(None, None, 2),
                          lambda: (1.0, 0.0, 1.0),
                          lambda th: (0.3 * th[0], np.sqrt(2) * 0.35 * th[2],
                                      0.0), 50.0)
        else:
            _settle_start(self, [("regime", f"must be regular or chaotic, "
                                  f"got {self.regime!r}")],
                          None, None, None, None, None)


def run_spin_chain(cfg: SpinChainConfig) -> ScenarioReport:
    """Level-spacing statistics manifolds and their entropy growth class.

    The regular (Poisson x exponential-bath) manifold is flat and shows
    logarithmic entropy growth; the chaotic (Wigner-Dyson x Gaussian-bath)
    manifold has scalar curvature -1 and linear growth.  Classification is
    by r2 model selection between the two forms.
    """
    regime, tau_end = cfg.regime, cfg.tau_end
    theta0, v0 = np.array(cfg.theta0), np.array(cfg.v0)
    oracle_r, tol_r, expected_form = (0.0, 1e-8, "logarithmic") \
        if regime == "regular" else (-1.0, 1e-6, "linear")

    model = spin_chain_model(regime, theta0)
    metric = md.analytic_fisher(model)
    report = ScenarioReport("spin_chain",
                            {"regime": regime, "theta0": theta0, "v0": v0,
                             "tau_end": tau_end})
    report.add("ricci_scalar", geo.ricci_scalar(metric, theta0), oracle_r,
               tol_r, "flat product" if regime == "regular"
               else "flat spacing factor plus curvature -1 Gaussian factor")

    path, trace = _ige_trace(metric, theta0, v0, tau_end)
    window = (max(1.0, 0.04 * tau_end), tau_end)
    winner, margin, fits = cx.select_growth_form(trace, window=window)
    report.observables["growth_form"] = winner.form
    report.observables["r2_margin"] = margin
    for f in fits:
        report.observables[f"r2_{f.form}"] = f.r2
        if f.form == "logarithmic":
            report.observables["c_ig"] = f.params[0]
            report.observables["c_ig_prime"] = f.params[1]
        else:
            report.observables["k_ig"] = f.params[0]
    report.add("growth_classification",
               1.0 if winner.form == expected_form else 0.0, 1.0, 0.0,
               f"expected {expected_form} growth")
    report.add("classification_margin", margin, 0.05, 0.0,
               "winning r2 exceeds the loser by at least 0.05", mode="min")

    if regime == "chaotic":
        w = dyn.normal_direction(metric, theta0, v0, axis=2)
        jac = dyn.integrate_jacobi(metric, theta0, v0, path.tau_grid,
                                   np.zeros(metric.dim), w)
        lam = dyn.lyapunov_estimate(jac)
        report.observables["lyapunov_estimate"] = lam
        k_ig = report.observables["k_ig"]
        report.observables["k_ig_vs_half_lyapunov"] = k_ig / (0.5 * lam)
        report.notes.append(
            "the squared-intensity rate functional returns twice the "
            "deviation growth rate; K_IG tracks half the estimate")

    report.traces["geodesic"] = trace_columns(path, trace)
    return report


# ---------------------------------------------------------------------------
# colliding wave packets and scattering observables
# ---------------------------------------------------------------------------

def _cube(x: float) -> float:
    """x ** 3, and an infinity of the sign of x past the float range, where
    the float power raises OverflowError."""
    try:
        return x ** 3
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class ScatterConfig:
    """Head-on collision of two Gaussian wave packets, in hbar = 1 units,
    where k0 = p0 and sigma_k0 = sigma0.

    ``r`` is the post-collision micro-correlation, bounded by the
    prolongation regime; ``r_sweep`` the nonempty list of correlations in
    [0, 1) over which ``run_wavepacket`` checks the complexity compression.
    ``a0`` is the derived rate (1/tau0) asinh(p0 / (sqrt(2) sigma0)); the
    momentum-difference geodesics share the functional argument a0 * tau on
    both sides of the collision.
    """

    p0: float = 1.0
    sigma0: float = 0.1
    tau0: float = 1.0
    r0_separation: float = 10.0
    potential_range: float = 0.1
    mu_mass: float = 0.5
    r: float = 0.01
    r_sweep: tuple = (0.1, 0.3, 0.5)

    def __post_init__(self):
        failures = md.positive_failures(
            {"p0": self.p0, "sigma0": self.sigma0, "tau0": self.tau0}) \
            + md.correlation_failures({"r": self.r}) \
            + md.positive_failures(
                {name: getattr(self, name) for name in
                 ("r0_separation", "potential_range", "mu_mass")})
        sweep = list(self.r_sweep) if isinstance(
            self.r_sweep, (list, tuple, np.ndarray)) else []
        failures += md.correlation_failures(
            {f"r_sweep[{i}]": x for i, x in enumerate(sweep)})
        if not sweep:
            failures.append(("r_sweep", f"must be a nonempty list of "
                             f"correlations, got {self.r_sweep!r}"))
        ParameterError.raise_any(failures)
        object.__setattr__(self, "r_sweep", tuple(sweep))
        if self.p0 * self.potential_range > 0.3:
            warnings.warn("k0 L exceeds 0.3; the low-energy expansion "
                          "degrades", stacklevel=2)

    @property
    def a0(self) -> float:
        return np.arcsinh(self.p0 / (np.sqrt(2.0) * self.sigma0)) / self.tau0

    @property
    def mean_amplitude(self) -> float:
        """Asymptotic |mean| on the uncorrelated side."""
        return np.sqrt(self.p0 * self.p0 + 2.0 * (self.sigma0 * self.sigma0))

    @property
    def sigma_peak(self) -> float:
        """Common spread at the collision instant tau = 0."""
        return np.sqrt(0.5 * (self.p0 * self.p0) + self.sigma0 * self.sigma0)

    @property
    def m2(self) -> float:
        """2 k0^2 + sigma_k0^2, the momentum second moment of the pair."""
        return 2 * self.p0 ** 2 + self.sigma0 ** 2

    @property
    def eta_c(self) -> float:
        """eta_C = (8/3) k0^2 m2 R0 L^3, the purity lost per unit of
        micro-correlation, P = 1 - eta_C r."""
        return (8.0 / 3.0) * self.p0 ** 2 * self.m2 * self.r0_separation \
            * _cube(self.potential_range)

    @property
    def r_upper_bound(self) -> float:
        return 2.0 / prolongation_eta(self)


def wavepacket_model(cfg: ScatterConfig, r: float) -> md.StatModel:
    """Bivariate Gaussian at the collision instant, with correlation r."""
    return md.gaussian_bivariate_corr(0.0, 0.0, cfg.sigma_peak, r=r)


def wavepacket_manifold(cfg: ScatterConfig, r: float, branch: str = "after"):
    """(metric, theta0, v0) of the wave-packet manifold with correlation r,
    the start read off the closed-form geodesics of ``branch`` at tau = 0."""
    return _wavepacket_metric(cfg, r), *_wavepacket_start(cfg, r, branch)


def _wavepacket_metric(cfg: ScatterConfig, r: float):
    return md.analytic_fisher(wavepacket_model(cfg, r))


def _wavepacket_start(cfg: ScatterConfig, r: float, branch: str = "after"):
    amp = cfg.mean_amplitude
    if branch == "after":
        amp *= np.sqrt(1.0 - r)
    return (np.array([0.0, 0.0, cfg.sigma_peak]),
            np.array([-amp * cfg.a0, amp * cfg.a0, 0.0]))


def wavepacket_geodesics(cfg: ScatterConfig, r: float, tau, branch: str):
    """Closed-form geodesics (mu_1, mu_2, sigma) of the wave-packet manifolds.

    branch "before" is the uncorrelated pre-collision family (natural domain
    tau <= 0); branch "after" carries the sqrt(1 - r) mean compression of the
    post-collision family of correlation r (natural domain tau >= 0).  The
    two branches join continuously at tau = 0.
    """
    if branch not in ("before", "after"):
        raise ValueError("branch must be 'before' or 'after'")
    tau = np.asarray(tau, float)
    amp = cfg.mean_amplitude
    if branch == "after":
        amp = amp * np.sqrt(1.0 - r)
    u = cfg.a0 * tau
    mu1 = -amp * np.tanh(u)
    return mu1, -mu1, cfg.sigma_peak / np.cosh(u)


def igc_closed_form(cfg: ScatterConfig, r: float, tau) -> np.ndarray:
    """Closed-form average explored volume of the correlated manifold.

    Carries the region-normalization constant CLOSED_FORM_REGION_FACTOR
    relative to the coordinate-box volume.
    """
    lam = 2.0 * cfg.a0
    tau = np.asarray(tau, float)
    pref = 8.0 * np.sqrt((1 - r) / (1 + r)) / lam
    return pref * (-0.75 * lam + 0.25 * np.sinh(lam * tau) / tau
                   + np.tanh(0.5 * lam * tau) / tau)


def ige_gap_closed_form(r: float) -> float:
    """Entropy offset between correlated and uncorrelated exploration."""
    return 0.5 * np.log((1 - r) / (1 + r))


def r_from_igc(c_uncorr: float, c_corr: float) -> float:
    """Invert the complexity compression: r = (Cu^2 - Cc^2)/(Cu^2 + Cc^2)."""
    if not c_uncorr >= c_corr > 0:
        raise ValueError("need c_uncorr >= c_corr > 0")
    return (c_uncorr ** 2 - c_corr ** 2) / (c_uncorr ** 2 + c_corr ** 2)


def purity_from_igc(cfg: ScatterConfig, c_uncorr: float,
                    c_corr: float) -> float:
    """P = 1 - eta_C * r, with ``cfg.eta_c``."""
    return 1.0 - cfg.eta_c * r_from_igc(c_uncorr, c_corr)


def scattering_observables(cfg: ScatterConfig) -> dict:
    """Low-energy s-wave chain from the micro-correlation.

    V = r p0^2 / (2 mu); k_r = sqrt(1-r) k0; theta0 = -r (k0 L)^3 / 3;
    a_s = -theta0 / k0; cross section 4 pi a_s^2; purity
    P = 1 - 8 (2 k0^2 + sigma_k0^2) R0 a_s.
    """
    if cfg.r >= cfg.r_upper_bound:
        raise RegimeError(f"r = {cfg.r} at or above the regime bound "
                          f"{cfg.r_upper_bound}")
    if not cfg.eta_c > 0:
        raise RegimeError(f"eta_C = (8/3) k0^2 m2 R0 L^3 underflows to "
                          f"{cfg.eta_c}; the purity chain r -> P -> r has "
                          f"no inverse")
    k0, L = cfg.p0, cfg.potential_range
    v_pot = cfg.r * cfg.p0 ** 2 / (2 * cfg.mu_mass)
    k_r = np.sqrt(1 - cfg.r) * k0
    theta0 = -cfg.r * _cube(k0 * L) / 3.0
    a_s = -theta0 / k0
    m2 = cfg.m2
    purity = 1.0 - 8.0 * m2 * cfg.r0_separation * a_s
    if purity < 0:
        raise RegimeError("purity fell below zero; scattering length too "
                          "large for the linearized entropy")
    cross = 4 * np.pi * a_s ** 2
    r_qm = np.sqrt(8.0 * m2 * cfg.r0_separation * a_s)
    # initial-data form of the potential density; it coincides with V/L^3
    # exactly at the self-consistent correlation r = (8/3) k0^2 m2 R0 L^3
    # (where r matches r_qm)
    v_density = 4.0 * k0 ** 4 * m2 * cfg.r0_separation / (3.0 * cfg.mu_mass)
    return {
        "V": v_pot, "k_r": k_r, "theta0_shift": theta0, "a_s": a_s,
        "cross_section": cross, "r_qm": r_qm, "purity": purity,
        "potential_density": v_pot / _cube(L),
        "potential_density_initial_data_form": v_density,
        "self_consistent_r": cfg.eta_c,
    }


def exact_phase_shift(cfg: ScatterConfig) -> float:
    """Root of k_r cot(k_r L) = k0 cot(k0 L + theta) on (-pi/2, pi/2),
    bracketed where k0 L + theta lies in (0, pi); RegimeError when that
    bracket is empty or holds no sign change."""
    k0, L = cfg.p0, cfg.potential_range
    k_r = np.sqrt(1 - cfg.r) * k0
    if abs(np.sin(k_r * L)) < 1e-12:
        raise RegimeError("k_r L sits at a cotangent pole")
    lhs = k_r / np.tan(k_r * L)

    def f(theta):
        return k0 / np.tan(k0 * L + theta) - lhs

    lo = -k0 * L + 1e-12
    hi = np.pi - k0 * L - 1e-9
    lo, hi = max(lo, -np.pi / 2 + 1e-12), min(hi, np.pi / 2 - 1e-12)
    # past k0 L = 3 pi / 2 the bracket is empty, and a sign change on it
    # can be the cotangent's pole rather than a root
    if not (lo < hi and f(lo) * f(hi) <= 0):
        raise RegimeError(f"no phase shift in (-pi/2, pi/2) at k0 L = "
                          f"{k0 * L}")
    return float(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))


def prolongation_eta(cfg: ScatterConfig) -> float:
    """eta_Delta = exp(2 a0 tau0) / 2."""
    return 0.5 * np.exp(2.0 * cfg.a0 * cfg.tau0)


def prolongation(cfg: ScatterConfig) -> dict:
    """Extra time a correlated system needs to regain the momentum p0.

    Delta = -(1 / 2 a0) ln(1 - ((1-r)^-1/2 - 1) eta); feasible only below
    r < 2 / eta.  The exact crossing time tau* from the atanh inversion is
    reported for cross-validation when its argument stays below one.
    """
    if cfg.sigma0 / cfg.p0 > 0.3:
        warnings.warn("sigma0/p0 above 0.3; the prolongation expansion "
                      "degrades", stacklevel=2)
    delta = _prolongation_delta(cfg, cfg.r)
    t_arg = (1.0 - cfg.r) ** -0.5 * np.tanh(cfg.a0 * cfg.tau0)
    tau_star = float(np.arctanh(t_arg) / cfg.a0) if t_arg < 1.0 else None
    return {"delta": float(delta), "eta_delta": float(prolongation_eta(cfg)),
            "r_upper_bound": float(cfg.r_upper_bound),
            "tau_star_exact": tau_star, "tau0": cfg.tau0}


def _prolongation_delta(cfg: ScatterConfig, r):
    """Delta of ``prolongation`` at a correlation r, or elementwise over an
    array of them, which agrees with the one-r values to round-off; the
    first correlation whose logarithm has no positive argument raises
    RegimeError."""
    eta = prolongation_eta(cfg)
    with np.errstate(divide="ignore", invalid="ignore"):   # r >= 1
        arg = 1.0 - ((1.0 - r) ** -0.5 - 1.0) * eta
    beyond = np.atleast_1d(r)[~(np.atleast_1d(arg) > 0)]
    if beyond.size:
        raise RegimeError(f"r = {beyond[0]} beyond the bound 2/eta = "
                          f"{2 / eta}")
    return -np.log(arg) / (2.0 * cfg.a0)


def _wavepacket_lyapunov(args):
    """Finite-time rate of the normal deviation on the manifold of
    correlation r: ``lyapunov_estimate`` of the field at the two ends of
    its window, which are all that estimate reads of a finer trace."""
    cfg, r, metric = args
    a0 = cfg.a0
    th0, v0 = _wavepacket_start(cfg, r)
    # stay an order of magnitude above the sigma chart floor
    tau_cap = np.arccosh(cfg.sigma_peak / 1e-7) / a0
    ends = np.array([0.0, min(20.0 / a0, tau_cap)])
    jac = dyn.integrate_jacobi(metric, th0, v0, ends, np.zeros(3),
                               dyn.normal_direction(metric, th0, v0))
    return dyn.lyapunov_estimate(jac)


def run_wavepacket(cfg: ScatterConfig) -> ScenarioReport:
    """Full wave-packet chain: curvature, geodesics, deviation growth,
    complexity compression and the scattering observables."""
    r_sweep = cfg.r_sweep
    a0 = cfg.a0
    lam = 2.0 * a0
    report = ScenarioReport(
        "wavepacket",
        {"p0": cfg.p0, "sigma0": cfg.sigma0, "tau0": cfg.tau0, "r": cfg.r,
         "R0": cfg.r0_separation, "L": cfg.potential_range,
         "mu_mass": cfg.mu_mass, "r_sweep": list(r_sweep)})
    report.observables["a0"] = a0
    report.observables["lambda"] = lam

    r_geo = max(cfg.r, 0.5)
    lyapunov_rs = (0.0, 0.2, 0.5)
    sweep_rs = [0.0, *r_sweep]
    # one metric per distinct correlation of the run
    metrics = {r: _wavepacket_metric(cfg, r)
               for r in {r_geo, cfg.r, *lyapunov_rs, *sweep_rs}}

    # curvature of the correlated manifold at a generic point
    metric_c = metrics[r_geo]
    th_probe = np.array([0.3, -0.2, 0.8 * cfg.sigma_peak])
    rep = geo.curvature_report(metric_c, th_probe)
    for (plane, k) in rep.sectional:
        report.add(f"sectional_plane_{plane[0]}{plane[1]}", k, -0.25, 1e-6,
                   "isotropic constant-curvature manifold")
    report.add("ricci_scalar", rep.scalar, -1.5, 1e-6,
               "constant curvature, independent of r")
    report.add("weyl_max_abs", rep.weyl_max_abs, 0.0, 1e-8,
               "isotropy of the correlated manifold")

    # geodesics against the closed forms, both branches
    for branch, rr in (("before", 0.0), ("after", cfg.r)):
        th0, v0 = _wavepacket_start(cfg, rr, branch)
        sign = -1.0 if branch == "before" else 1.0
        path = dyn.integrate_geodesic(metrics[rr], th0, v0, sign * 5.0 / a0,
                                      n_out=_TRACE_POINTS)
        mu1, mu2, sig = wavepacket_geodesics(cfg, rr, path.tau_grid, branch)
        closed = np.column_stack([mu1, mu2, sig])
        err = float(np.max(np.abs(path.theta - closed)))
        report.add(f"geodesic_closed_form_{branch}", err, 0.0, 1e-6,
                   "tanh/cosh closed forms")
        report.add(f"speed_drift_{branch}", path.speed_drift, 0.0, 1e-8,
                   "affine parametrization")

    # deviation growth and rate, swept over correlations
    metric = metrics[cfg.r]
    th0, v0 = _wavepacket_start(cfg, cfg.r)
    dj0 = dyn.normal_direction(metric, th0, v0)
    jac = dyn.integrate_jacobi(metric, th0, v0,
                               np.linspace(0.0, 10.0 / a0, _TRACE_POINTS),
                               np.zeros(3), dj0)
    oracle = (1.0 / a0) * np.sinh(a0 * jac.path.tau_grid)   # |DJ0| = 1
    late = jac.path.tau_grid >= 0.1 / a0
    rel = np.max(np.abs(jac.intensity[late] - oracle[late])
                 / oracle[late])
    report.add("jacobi_intensity_closed_form", float(rel), 0.0, 1e-4,
               "sinh solution of the reduced deviation equation")
    q = dyn.jacobi_q_coefficient(metric, th0, v0)
    report.add("jacobi_q_coefficient", q, -a0 ** 2, 1e-8 * a0 ** 2,
               "Q = R |v|^2 / (N(N-1))")

    lam_values = parallel_map(_wavepacket_lyapunov,
                              [(cfg, r, metrics[r]) for r in lyapunov_rs])
    for r, val in zip(lyapunov_rs, lam_values):
        report.add(f"lyapunov_r{r}", val, lam, 0.05,
                   "rate 2 a0, independent of the correlation", mode="rel")
    report.observables["lyapunov_by_r"] = dict(
        zip(map(str, lyapunov_rs), lam_values))

    # complexity compression across the r sweep; one trace per manifold
    def wp_trace(r):
        wp_path = dyn.integrate_geodesic(
            metrics[r], *_wavepacket_start(cfg, r), 10.0 / lam, n_out=129)
        return cx.complexity_trace(metrics[r], wp_path)

    traces = dict(zip(sweep_rs, parallel_map(wp_trace, sweep_rs)))
    trace_u = traces[0.0]
    probe_idx = int(np.argmin(np.abs(trace_u.tau_grid - 5.0 / lam)))
    tau_probe = float(trace_u.tau_grid[probe_idx])
    c_u = float(trace_u.igc[probe_idx])
    for r in r_sweep:
        c_c = float(traces[r].igc[probe_idx])
        ratio = c_c / c_u
        target = np.sqrt((1 - r) / (1 + r))
        report.add(f"igc_ratio_r{r}", ratio, target, 0.02,
                   "compression factor sqrt((1-r)/(1+r))", mode="rel")
        report.add(f"ige_gap_r{r}", float(np.log(ratio)),
                   ige_gap_closed_form(r), 0.02,
                   "entropy gap (1/2) ln((1-r)/(1+r))")
        report.add(f"r_recovered_numeric_r{r}", r_from_igc(c_u, c_c), r,
                   0.02, "complexity inversion", mode="rel")
        cu_cf = float(igc_closed_form(cfg, 0.0, tau_probe))
        cc_cf = float(igc_closed_form(cfg, r, tau_probe))
        report.add(f"r_recovered_closed_form_r{r}",
                   r_from_igc(cu_cf, cc_cf), r, 1e-6,
                   "closed-form roundtrip", mode="rel")

    # shape of the numeric average volume against the closed form
    r_shape = r_sweep[-1]
    tr = traces[r_shape]
    win = (tr.tau_grid >= 2.0 / lam) & (tr.tau_grid <= 10.0 / lam)
    ratios = igc_closed_form(cfg, r_shape, tr.tau_grid[win]) \
        / tr.igc[win]
    report.observables["closed_form_region_factor"] = float(
        np.median(ratios))
    report.add("igc_closed_form_shape",
               float(np.max(np.abs(ratios / np.median(ratios) - 1.0))),
               0.0, 0.02, "tau-dependence of the closed form; overall "
               "constant is the region normalization")
    report.add("igc_region_factor", float(np.median(ratios)),
               CLOSED_FORM_REGION_FACTOR, 0.02,
               "box-region convention against the reference closed form",
               mode="rel")
    report.traces["complexity"] = trace_columns(trace=tr)

    # momentum ordering along the difference curve
    taus = np.linspace(0.0, 5.0 / a0, 64)
    p_unc = cfg.mean_amplitude * np.tanh(a0 * taus)
    p_cor = np.sqrt(1 - cfg.r) * p_unc
    report.add("momentum_ordering",
               float(np.min(p_unc - p_cor)), 0.0, 1e-15,
               "correlation reduces the relative momentum", mode="min")

    # scattering observables and their internal consistency
    obs = scattering_observables(cfg)
    report.observables["scattering"] = obs
    theta_exact = exact_phase_shift(cfg)
    report.observables["theta_exact"] = theta_exact
    if cfg.p0 * cfg.potential_range <= 0.1 and cfg.r <= 0.2:
        report.add("phase_shift_cubic_vs_exact", obs["theta0_shift"],
                   theta_exact, 0.01, "low-energy cubic expansion",
                   mode="rel")
    r_back = (1.0 - obs["purity"]) / cfg.eta_c
    report.add("purity_roundtrip", r_back, cfg.r, 1e-6,
               "r -> a_s -> P -> r closed-form chain", mode="rel")

    pro = prolongation(cfg)
    report.observables["prolongation"] = pro
    report.add("prolongation_at_r0", _prolongation_delta(cfg, 0.0), 0.0,
               1e-14, "no correlation, no delay")
    # Delta is defined below r* = 1 - (1 + 1/eta)^-2, which can lie
    # below the sweep's end
    r_star = 1.0 - (1.0 + 1.0 / pro["eta_delta"]) ** -2
    sweep = np.linspace(0.0, 0.9 * pro["r_upper_bound"], 24)
    sweep = sweep[sweep < r_star]
    deltas = _prolongation_delta(cfg, sweep)
    report.add("prolongation_monotone",
               float(np.min(np.diff(deltas))), 0.0, 1e-15,
               "delay grows with the correlation", mode="min")

    report.traces["geodesic_after"] = trace_columns(jacobi=jac)
    return report
