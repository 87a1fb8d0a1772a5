"""Command-line front end: config parsing, dispatch, deterministic emission.

Subcommands: curvature, geodesic, jacobi, ige, mre, scenario.  Configs are
YAML documents; all validation failures are reported together with the path
of the offending field.  Every number must be finite, except the ends of an
MrE ``domain``.  Outputs are a JSON report plus CSV traces with the fixed
header ``tau,theta_1..theta_N,speed,delta_v,igc,ige,jacobi_intensity``
(columns absent when not computed), floats printed with 17 significant
digits, LF line endings.  Exit status: 0 all oracle checks pass, 1 usage or
config error, 2 numeric check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import complexity as cx
from . import dynamics as dyn
from . import geometry as geo
from . import models as md
from . import mre
from . import scenarios as sc
from .errors import ConfigError, IgacError

_SCENARIOS = ("uncorrelated_gaussian", "macro_correlated", "iho",
              "spin_chain", "wavepacket", "custom_manifold", "mre_update")
_FORMATS = ("csv", "json")

_NUMERIC_DEFAULTS = {"fit_window_fraction": 0.25}

# the wave-packet config keys and the ScatterConfig fields they set
_SCATTER_FIELDS = {"p0": "p0", "sigma0": "sigma0", "tau0": "tau0",
                   "R0": "r0_separation", "L": "potential_range",
                   "mu_mass": "mu_mass", "r": "r"}

# the geodesic start of a scenario, each key optional
_START_KEYS = ("theta0", "v0", "tau_end")

# libyaml's parser when PyYAML was built with it; both loaders share the
# safe resolver and constructor, so they accept the same documents
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str, command: str = "scenario") -> dict:
    """Validated config with defaults filled, or ConfigError listing every
    failure with its field path.  One walk rejects every nan or infinite
    number; the field checks below then test type, sign and range only.
    A scenario key the config leaves out is left out here too: its default
    lives in the driver."""
    try:
        raw = yaml.load(text, Loader=_LOADER) or {}
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer past Python's digit limit for int(str)
        raise ConfigError([("<document>", f"not valid YAML: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be a mapping")])
    failures = []
    cfg = dict(raw)

    numerics = _section(cfg, "numerics", _NUMERIC_DEFAULTS, failures)
    # the fit window (tau0 + f (tau_end - tau0), tau_end) is empty at f >= 1
    frac = numerics.get("fit_window_fraction")
    if not _is_number(frac) or not 0.0 < frac < 1.0:
        failures.append(("numerics.fit_window_fraction",
                         f"must lie in (0, 1), got {frac!r}"))
    cfg["numerics"] = numerics

    output = _section(cfg, "output",
                      {"directory": ".", "formats": ["json", "csv"]}, failures)
    fmts = output.get("formats")
    if not isinstance(fmts, (list, tuple)) or \
            not set(fmts) <= set(_FORMATS) or not fmts:
        failures.append(("output.formats",
                         f"must be a nonempty subset of {_FORMATS}"))
    cfg["output"] = output

    if command == "scenario":
        _validate_scenario(cfg, failures)
    elif command in ("curvature", "geodesic", "jacobi", "ige"):
        _validate_manifold_command(cfg, command, failures)
    elif command == "mre":
        _validate_mre(cfg.get("mre"), "mre", failures)
        _check_positive(cfg.get("tol", 1e-12), "tol", failures)

    nonfinite = []
    _walk_nonfinite(cfg, "", _open_ends(cfg, command), nonfinite)
    if nonfinite or failures:
        # a field check adds nothing at a path the walk already rejected
        bad = {path for path, _ in nonfinite}
        raise ConfigError(nonfinite + [f for f in failures
                                       if f[0] not in bad])
    return cfg


def _open_ends(cfg, command):
    """Paths of the MrE domain ends, the only numbers that may be
    infinite: an infinite end leaves that side of the prior untruncated."""
    if command == "scenario" and cfg.get("scenario") == "mre_update":
        return ("parameters.domain[0]", "parameters.domain[1]")
    return ("mre.domain[0]", "mre.domain[1]") if command == "mre" else ()


def _walk_nonfinite(node, path, open_ends, failures):
    """Record every float leaf under ``node`` that is nan or infinite, and
    every integer leaf beyond the float range, at its field path
    (``a.b[0].c``); infinite floats pass at ``open_ends``."""
    if isinstance(node, float):
        if math.isnan(node) or math.isinf(node) and path not in open_ends:
            failures.append((path, f"must be finite, got {node!r}"))
    elif isinstance(node, int) and not isinstance(node, bool):
        try:
            float(node)
        except OverflowError:
            failures.append((path, "must be finite, got an integer beyond "
                                   "the float range"))
    elif isinstance(node, dict):
        for key, val in node.items():
            _walk_nonfinite(val, f"{path}.{key}" if path else str(key),
                            open_ends, failures)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _walk_nonfinite(val, f"{path}[{i}]", open_ends, failures)


def _section(cfg, key, defaults, failures):
    """The mapping at ``key`` laid over a copy of ``defaults``."""
    merged = dict(defaults)
    val = cfg.get(key) or {}
    if isinstance(val, dict):
        merged.update(val)
    else:
        failures.append((key, "must be a mapping"))
    return merged


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check_positive(val, path, failures):
    """Record a failure unless ``val`` is a positive number; a zero
    tolerance would leave a solver running unbounded."""
    if not _is_number(val) or not val > 0.0:
        failures.append((path, f"must be a positive number, got {val!r}"))


def _check_positive_keys(params, keys, failures):
    """``_check_positive`` on each of ``keys`` that ``params`` sets."""
    for key in keys:
        if key in params:
            _check_positive(params[key], f"parameters.{key}", failures)


def _check_vector(val, path, dim, failures):
    """``val`` must be a list of numbers, with ``dim`` entries unless
    ``dim`` is None."""
    if not isinstance(val, (list, tuple)) or \
            not all(_is_number(x) for x in val):
        failures.append((path, f"must be a list of numbers, got {val!r}"))
    elif dim is not None and len(val) != dim:
        failures.append((path, f"needs {dim} components for this manifold, "
                         f"got {len(val)}"))


def _check_correlations(r, path, failures):
    """Each macro-correlation a number in [0, 1); returns their count."""
    rs = list(r) if isinstance(r, (list, tuple)) else [r]
    for i, ri in enumerate(rs):
        if not _is_number(ri) or not 0.0 <= ri < 1.0:
            failures.append((f"{path}[{i}]", f"must lie in [0, 1), got {ri}"))
    return len(rs)


def _req(mapping, key, path, failures, types=None):
    """``mapping[key]``, or None with a failure recorded when it is missing
    or not of ``types``.  A bool is of no requested type, although Python
    counts it an int: ``l: true`` is no pair count."""
    if not isinstance(mapping, dict) or key not in mapping:
        failures.append((f"{path}.{key}", "missing required key"))
        return None
    val = mapping[key]
    if types and (not isinstance(val, types) or isinstance(val, bool)):
        failures.append((f"{path}.{key}", f"unexpected type {type(val).__name__}"))
        return None
    return val


def _validate_scenario(cfg, failures):
    name = cfg.get("scenario")
    if name not in _SCENARIOS:
        failures.append(("scenario",
                         f"unknown scenario {name!r}; choose from "
                         f"{_SCENARIOS}"))
        return
    params = cfg.get("parameters")
    if params is None:
        params = {}
        cfg["parameters"] = params
    if not isinstance(params, dict):
        failures.append(("parameters", "must be a mapping"))
        return
    l = None
    if name in ("uncorrelated_gaussian", "macro_correlated", "iho"):
        l = _req(params, "l", "parameters", failures, int)
        if l is not None and l < 1:
            failures.append(("parameters.l", "must be at least 1"))
            l = None
    if name in ("uncorrelated_gaussian", "macro_correlated"):
        # (mean, spread) pairs: every odd coordinate is a spread
        dim = 2 * l if l else None
        _check_start(params, dim, range(1, dim or 0, 2), failures)
    if name == "macro_correlated":
        r = _req(params, "r", "parameters", failures)
        if r is not None:
            n_r = _check_correlations(r, "parameters.r", failures)
            if l and n_r not in (1, l):
                failures.append(("parameters.r", f"needs 1 or l = {l} "
                                 f"correlations, got {n_r}"))
    if name == "iho":
        if "omega" not in params and "omega_total" not in params:
            failures.append(("parameters.omega",
                             "provide omega or omega_total"))
        if "omega" in params:
            omega = params["omega"]
            _check_vector(omega, "parameters.omega", l, failures)
            for i, w in enumerate(omega if isinstance(omega, list) else []):
                if _is_number(w) and not w > 0:
                    failures.append((f"parameters.omega[{i}]",
                                     f"must be positive, got {w!r}"))
        _check_positive_keys(params, ("omega_total", "xi"), failures)
        tau_end = params.get("tau_end")
        if "tau_end" in params and not (_is_number(tau_end)
                                        and tau_end > sc._IHO_FIT_START):
            failures.append(("parameters.tau_end",
                             f"must be a number above the start "
                             f"{sc._IHO_FIT_START} of the slope fit, got "
                             f"{tau_end!r}"))
    if name == "spin_chain":
        regime = _req(params, "regime", "parameters", failures, str)
        if regime is not None and regime not in _SPIN_CHAIN_STARTS:
            failures.append(("parameters.regime",
                             f"must be regular or chaotic, got {regime!r}"))
        _check_start(params, *_SPIN_CHAIN_STARTS.get(regime, (None, ())),
                     failures)
    if name == "wavepacket":
        r = params.get("r")
        if "r" in params and not (_is_number(r) and 0.0 <= r < 1.0):
            failures.append(("parameters.r", f"must lie in [0, 1), got {r}"))
        sweep = params.get("r_sweep")
        if isinstance(sweep, (list, tuple)) and sweep:
            _check_correlations(sweep, "parameters.r_sweep", failures)
        elif "r_sweep" in params:
            failures.append(("parameters.r_sweep", "must be a nonempty list "
                             f"of correlations, got {sweep!r}"))
        _check_positive_keys(params, [key for key in _SCATTER_FIELDS
                                      if key != "r"], failures)
    if name == "custom_manifold":
        dim = _validate_manifold(params.get("manifold"),
                                 "parameters.manifold", failures)
        if "theta" not in params:
            failures.append(("parameters.theta", "missing required key"))
        else:
            _check_vector(params["theta"], "parameters.theta", dim, failures)
    if name == "mre_update":
        _validate_mre(params, "parameters", failures)


# spin-chain regime: (dimension, indices of the scale coordinates)
_SPIN_CHAIN_STARTS = {"regular": (2, (0, 1)), "chaotic": (3, (0, 2))}


def _check_start(params, dim, scales, failures):
    """The geodesic start of a scenario: ``theta0`` and ``v0`` with ``dim``
    numbers each (any count when ``dim`` is None), the ``scales`` of
    ``theta0`` positive, and a positive ``tau_end``."""
    for key in ("theta0", "v0"):
        if key in params:
            _check_vector(params[key], f"parameters.{key}", dim, failures)
    theta0 = params.get("theta0")
    if dim is not None and isinstance(theta0, (list, tuple)) and \
            len(theta0) == dim and all(_is_number(x) for x in theta0):
        for i in scales:
            if not theta0[i] > 0:
                failures.append((f"parameters.theta0[{i}]",
                                 f"must be positive, got {theta0[i]!r}"))
    _check_positive_keys(params, ("tau_end",), failures)


def _validate_manifold(spec, path, failures):
    """Record the spec's failures; returns the manifold's dimension, or
    None when the spec is invalid."""
    kinds = ("gaussian_diag", "exponential", "wigner_dyson",
             "gaussian_bivariate_corr", "macro_correlated", "product")
    if not isinstance(spec, dict):
        failures.append((path, "missing manifold mapping"))
        return None
    kind = spec.get("kind")
    if kind not in kinds:
        failures.append((f"{path}.kind",
                         f"unknown manifold kind {kind!r}; choose from "
                         f"{kinds}"))
        return None
    n_failures = len(failures)
    dim = None
    if kind == "gaussian_diag":
        means = _req(spec, "means", path, failures, (list, tuple))
        sigmas = _req(spec, "sigmas", path, failures, (list, tuple))
        for key, vals in (("means", means), ("sigmas", sigmas)):
            if vals is not None:
                _check_vector(vals, f"{path}.{key}", None, failures)
        if len(failures) == n_failures:
            if any(s <= 0 for s in sigmas):
                failures.append((f"{path}.sigmas", "must be positive"))
            if len(means) != len(sigmas):
                failures.append((f"{path}.sigmas",
                                 "length mismatch with means"))
            dim = 2 * len(means)
    elif kind in ("exponential", "wigner_dyson"):
        mu = _req(spec, "mu", path, failures, (int, float))
        if mu is not None and mu <= 0:
            failures.append((f"{path}.mu", "must be positive"))
        dim = 1
    elif kind == "gaussian_bivariate_corr":
        for key in ("mu_x", "mu_y", "sigma"):
            _req(spec, key, path, failures, (int, float))
        sig = spec.get("sigma")
        if _is_number(sig) and sig <= 0:
            failures.append((f"{path}.sigma", "must be positive"))
        r = spec.get("r", 0.0)
        if not _is_number(r) or not -1.0 < r < 1.0:
            failures.append((f"{path}.r", f"must lie in (-1, 1), got {r}"))
        dim = 3
    elif kind == "macro_correlated":
        r = _req(spec, "r", path, failures, (list, tuple, int, float))
        if r is not None:
            dim = 2 * _check_correlations(r, f"{path}.r", failures)
    elif kind == "product":
        factors = _req(spec, "factors", path, failures, list)
        dims = [_validate_manifold(sub, f"{path}.factors[{i}]", failures)
                for i, sub in enumerate(factors or [])]
        dim = sum(dims) if None not in dims else None
    if dim == 0:
        failures.append((path, "manifold has no coordinates"))
    return dim if len(failures) == n_failures else None


def _validate_manifold_command(cfg, command, failures):
    dim = _validate_manifold(cfg.get("manifold"), "manifold", failures)
    if command == "curvature":
        required, vectors = ("theta",), ("theta",)
    else:
        required, vectors = ("theta0", "v0", "tau_end"), \
            ("theta0", "v0", "j0", "dj0")
        tau_end = cfg.get("tau_end", 1.0)
        # a missing tau_end is reported below; ige fits its entropy forms
        # over tau > 0
        if not _is_number(tau_end) or command == "ige" and not tau_end > 0:
            kind = "a positive number" if command == "ige" else "a number"
            failures.append(("tau_end", f"must be {kind}, got {tau_end!r}"))
    for key in required:
        if key not in cfg:
            failures.append((key, "missing required key"))
    if cfg.get("metric_source", "analytic") not in ("analytic", "quadrature"):
        failures.append(("metric_source", "must be analytic or quadrature"))
    if command == "ige":
        if cfg.get("fit_form", "linear") not in cx._FORMS:
            failures.append(("fit_form", f"must be one of {cx._FORMS}"))
        n_out = cfg.get("n_out", 257)
        if not isinstance(n_out, int) or isinstance(n_out, bool) or \
                n_out < 2:
            failures.append(("n_out", f"must be an integer >= 2, got "
                             f"{n_out!r}"))
    for key in vectors:
        if key in cfg:
            _check_vector(cfg[key], key, dim, failures)


# the checked keys of each prior family, with their defaults
_PRIOR_KEYS = {"exponential": {"mu": 1.0},
               "gaussian": {"mu": 0.0, "sigma": 1.0},
               "uniform": {"lo": -1.0, "hi": 1.0}}


def _check_prior(prior, path, failures):
    """Numeric parameters, positive scales (exponential ``mu``, gaussian
    ``sigma``) and ``lo < hi`` for the uniform prior."""
    n_failures = len(failures)
    vals = {key: prior.get(key, default)
            for key, default in _PRIOR_KEYS[prior["family"]].items()}
    for key, val in vals.items():
        positive = key == "sigma" or prior["family"] == "exponential"
        if not _is_number(val) or (positive and val <= 0):
            kind = "a positive" if positive else "a"
            failures.append((f"{path}.{key}",
                             f"must be {kind} number, got {val!r}"))
    if len(failures) == n_failures and "lo" in vals \
            and not vals["lo"] < vals["hi"]:
        failures.append((f"{path}.hi",
                         f"must exceed lo = {vals['lo']}, got {vals['hi']}"))


def _validate_mre(spec, path, failures):
    if not isinstance(spec, dict):
        failures.append((path, "missing mre problem mapping"))
        return
    prior = spec.get("prior")
    if not isinstance(prior, dict) or "family" not in prior:
        failures.append((f"{path}.prior.family", "missing required key"))
    elif prior["family"] not in _PRIOR_KEYS:
        failures.append((f"{path}.prior.family",
                         f"unknown prior family {prior['family']!r}"))
    else:
        _check_prior(prior, f"{path}.prior", failures)
    dom = spec.get("domain")
    if dom is not None and not (
            isinstance(dom, (list, tuple)) and len(dom) == 2
            and all(_is_number(x) for x in dom) and dom[0] < dom[1]):
        failures.append((f"{path}.domain",
                         f"must be two numbers lo < hi, got {dom!r}"))
    cons = spec.get("constraints")
    if not isinstance(cons, list) or not cons:
        failures.append((f"{path}.constraints",
                         "need a nonempty list of constraints"))
        return
    for i, c in enumerate(cons):
        if not isinstance(c, dict):
            failures.append((f"{path}.constraints[{i}]", "must be a mapping"))
            continue
        fname = c.get("f")
        if fname not in ("identity", "square", "abs", "poly"):
            failures.append((f"{path}.constraints[{i}].f",
                             f"unknown constraint function {fname!r}"))
        if "target" not in c:
            failures.append((f"{path}.constraints[{i}].target",
                             "missing required key"))
        elif not _is_number(c["target"]):
            failures.append((f"{path}.constraints[{i}].target",
                             f"must be a number, got {c['target']!r}"))
        coeffs = c.get("coefficients")
        if fname == "poly" and not (
                isinstance(coeffs, (list, tuple)) and coeffs
                and all(_is_number(x) for x in coeffs)):
            failures.append((f"{path}.constraints[{i}].coefficients",
                             "poly constraint needs a nonempty list of "
                             f"numbers, got {coeffs!r}"))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_metric(spec: dict, source: str = "analytic") -> md.MetricField:
    kind = spec["kind"]
    if kind == "macro_correlated":
        return md.macro_correlated_metric(np.atleast_1d(spec["r"]))
    model = build_model(spec)
    if source == "quadrature":
        return md.fisher_quadrature(model)
    return md.analytic_fisher(model)


def build_model(spec: dict) -> md.StatModel:
    kind = spec["kind"]
    if kind == "gaussian_diag":
        return md.gaussian_diag(spec["means"], spec["sigmas"])
    if kind == "exponential":
        return md.exponential(spec["mu"])
    if kind == "wigner_dyson":
        return md.wigner_dyson(spec["mu"])
    if kind == "gaussian_bivariate_corr":
        return md.gaussian_bivariate_corr(spec["mu_x"], spec["mu_y"],
                                          spec["sigma"], spec.get("r", 0.0))
    if kind == "product":
        return md.product(*[build_model(s) for s in spec["factors"]])
    raise ConfigError([("manifold.kind", f"unknown kind {kind!r}")])


def _build_prior(spec):
    fam = spec["family"]
    par = {**_PRIOR_KEYS[fam], **spec}
    if fam == "exponential":
        return md.exponential(par["mu"]), None
    if fam == "gaussian":
        return md.gaussian_diag([par["mu"]], [par["sigma"]]), None
    return mre.uniform_prior(par["lo"], par["hi"]), (par["lo"], par["hi"])


def _build_mre_problem(spec):
    prior, domain = _build_prior(spec["prior"])
    if spec.get("domain") is not None:
        domain = tuple(spec["domain"])
    constraints = [
        (mre.constraint_function(c["f"], c.get("coefficients")),
         float(c["target"]))
        for c in spec["constraints"]]
    return mre.MrEProblem(prior, tuple(constraints), domain=domain)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_csv(path: Path, trace: dict) -> None:
    """One trace file; fixed column order, 17 significant digits, LF."""
    taus = np.asarray(trace["tau"], float)
    columns = [("tau", taus)]
    theta = trace.get("theta")
    if theta is not None:
        theta = np.asarray(theta, float)
        for i in range(theta.shape[1]):
            columns.append((f"theta_{i + 1}", theta[:, i]))
    for key in ("speed", "delta_v", "igc", "ige", "jacobi_intensity"):
        if key in trace and trace[key] is not None:
            columns.append((key, np.asarray(trace[key], float)))
    # '%.17g' % x is format(x, '.17g') for every float, nan and inf too
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(name for name, _ in columns)]
    lines += [row % tuple(vals) for vals in
              np.column_stack([col for _, col in columns]).tolist()]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def emit(report: dict, traces: dict, outdir: Path, formats) -> list:
    """Write report.json and per-trace CSVs; returns the paths written."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        p = outdir / "report.json"
        p.write_text(json.dumps(report, indent=2, allow_nan=True) + "\n",
                     newline="\n")
        written.append(p)
    if "csv" in formats:
        for name, trace in traces.items():
            p = outdir / f"{name}.csv"
            emit_csv(p, trace)
            written.append(p)
    return written


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_curvature(cfg):
    metric = build_metric(cfg["manifold"], cfg.get("metric_source",
                                                   "analytic"))
    theta = np.asarray(cfg["theta"], float)
    rep = geo.curvature_report(metric, theta)
    report = sc.ScenarioReport("curvature", {"manifold": cfg["manifold"],
                                             "theta": theta})
    report.observables["ricci_scalar"] = rep.scalar
    report.observables["sectional"] = [
        {"plane": list(pl), "k": k} for pl, k in rep.sectional]
    report.observables["weyl_max_abs"] = rep.weyl_max_abs
    report.observables["ricci_tensor"] = rep.ricci
    report.add("metric_compatibility", rep.metric_compat_residual, 0.0, 1e-8,
               "Levi-Civita connection")
    report.add("scalar_vs_sectional_sum", rep.sectional_sum, rep.scalar,
               1e-8, "scalar equals the sectional sum")
    return report, {}


def _cmd_geodesic(cfg):
    metric = build_metric(cfg["manifold"], cfg.get("metric_source",
                                                   "analytic"))
    path = dyn.integrate_geodesic(metric, cfg["theta0"], cfg["v0"],
                                  float(cfg["tau_end"]))
    report = sc.ScenarioReport("geodesic", {k: cfg[k] for k in
                                            ("manifold", "theta0", "v0",
                                             "tau_end")})
    drift = float(np.max(np.abs(path.speed / path.speed[0] - 1.0)))
    report.add("speed_drift", drift, 0.0, 1e-9, "affine parametrization")
    report.observables["endpoint"] = path.theta[-1]
    trace = {"tau": path.tau_grid, "theta": path.theta, "speed": path.speed}
    return report, {"geodesic": trace}


def _cmd_jacobi(cfg):
    metric = build_metric(cfg["manifold"], cfg.get("metric_source",
                                                   "analytic"))
    j0 = np.asarray(cfg.get("j0", np.zeros(metric.dim)), float)
    if "dj0" in cfg:
        dj0 = np.asarray(cfg["dj0"], float)
    else:
        dj0 = dyn.normal_direction(metric, cfg["theta0"], cfg["v0"])
    jac = dyn.integrate_jacobi(metric, cfg["theta0"], cfg["v0"],
                               np.linspace(0.0, float(cfg["tau_end"]), 513),
                               j0, dj0)
    report = sc.ScenarioReport("jacobi", {k: cfg[k] for k in
                                          ("manifold", "theta0", "v0",
                                           "tau_end")})
    report.inputs["j0"] = j0
    report.inputs["dj0"] = dj0
    est = dyn.lyapunov_estimate(jac)
    report.observables["lyapunov_estimate"] = est.value
    report.observables["final_intensity"] = jac.intensity[-1]
    trace = {"tau": jac.tau_grid, "theta": jac.theta, "speed": jac.speed,
             "jacobi_intensity": jac.intensity}
    return report, {"jacobi": trace}


def _cmd_ige(cfg):
    metric = build_metric(cfg["manifold"], cfg.get("metric_source",
                                                   "analytic"))
    path = dyn.integrate_geodesic(metric, cfg["theta0"], cfg["v0"],
                                  float(cfg["tau_end"]),
                                  n_out=cfg.get("n_out", 257))
    trace = cx.complexity_trace(metric, path)
    report = sc.ScenarioReport("ige", {k: cfg[k] for k in
                                       ("manifold", "theta0", "v0",
                                        "tau_end")})
    form = cfg.get("fit_form", "linear")
    fit = cx.fit_asymptotics(trace, form, min_points=16,
                             fit_window_fraction=cfg["numerics"][
                                 "fit_window_fraction"])
    report.observables["fit"] = {"form": fit.form, "params": list(fit.params),
                                 "r2": fit.r2, "window": list(fit.window)}
    report.add("fit_r2", fit.r2, 1.0, 0.5, "goodness of the requested form",
               note="informational quality gate")
    out = {"tau": trace.tau_grid, "theta": path.theta, "speed": path.speed,
           "delta_v": trace.delta_v, "igc": trace.igc, "ige": trace.ige}
    return report, {"ige": out}


def _cmd_mre(cfg):
    problem = _build_mre_problem(cfg["mre"])
    tol = float(cfg.get("tol", 1e-12))
    result = mre.solve_multiplier(problem, tol=tol)
    report = sc.ScenarioReport("mre", {"mre": cfg["mre"]})
    report.observables["beta"] = result.beta
    report.observables["log_z"] = result.log_z
    report.observables["achieved"] = result.achieved
    report.observables["objective"] = result.objective
    targets = np.array([F for _, F in problem.constraints])
    report.add("achieved_moments", float(np.max(np.abs(result.achieved
                                                       - targets))),
               0.0, max(tol * 10, 1e-10), "constraint satisfaction")
    report.add("posterior_mass", result.posterior.mass(), 1.0, 1e-8,
               "normalization")
    report.observables["posterior_grid"] = {
        "x": result.posterior.x[::16], "p": result.posterior.p[::16]}
    return report, {}


def _given(params, keys):
    """The entries of ``params`` at those of ``keys`` it sets."""
    return {key: params[key] for key in keys if key in params}


def _run_named_scenario(cfg):
    name = cfg["scenario"]
    params = cfg["parameters"]
    num = cfg["numerics"]
    if name == "uncorrelated_gaussian":
        return sc.run_uncorrelated_gaussian(params["l"],
                                            **_given(params, _START_KEYS))
    if name == "macro_correlated":
        return sc.run_macro_correlated(params["l"], params["r"],
                                       **_given(params, _START_KEYS))
    if name == "iho":
        kw = _given(params, ("omega_total", "xi", "tau_end"))
        if "omega" in params:
            kw["omega"] = tuple(params["omega"])
        return sc.run_iho(sc.IHOConfig(params["l"], **kw))
    if name == "spin_chain":
        return sc.run_spin_chain(params["regime"],
                                 **_given(params, _START_KEYS))
    if name == "wavepacket":
        scfg = sc.ScatterConfig(**{field: params[key] for key, field in
                                   _SCATTER_FIELDS.items() if key in params})
        kw = {"r_sweep": tuple(params["r_sweep"])} \
            if "r_sweep" in params else {}
        return sc.run_wavepacket(scfg, **kw)
    if name == "custom_manifold":
        sub = {"manifold": params["manifold"], "theta": params["theta"],
               "numerics": num}
        report, _ = _cmd_curvature(sub)
        return report
    if name == "mre_update":
        report, _ = _cmd_mre({"mre": params, "numerics": num})
        return report
    raise ConfigError([("scenario", f"unknown scenario {name!r}")])


def _cmd_scenario(cfg):
    report = _run_named_scenario(cfg)
    traces = getattr(report, "traces", {})
    return report, traces


_COMMANDS = {
    "curvature": _cmd_curvature,
    "geodesic": _cmd_geodesic,
    "jacobi": _cmd_jacobi,
    "ige": _cmd_ige,
    "mre": _cmd_mre,
    "scenario": _cmd_scenario,
}


def run(cfg: dict, command: str) -> int:
    """Execute a validated config; returns the process exit status."""
    report, traces = _COMMANDS[command](cfg)
    outdir = Path(cfg["output"]["directory"])
    payload = report.to_dict()
    payload["command"] = command
    emit(payload, traces, outdir, cfg["output"]["formats"])
    if not report.passed:
        sys.stderr.write(json.dumps({"failures": report.failures()},
                                    indent=2) + "\n")
        return 2
    return 0


_PARSER = argparse.ArgumentParser(
    prog="igac",
    description="Fisher-Rao geometry, geodesic complexity and maximum "
                "relative entropy updates")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="YAML config path")
_PARSER.add_argument("--out", default=None, help="output directory")
_PARSER.add_argument("--format", default=None, choices=_FORMATS,
                     help="restrict output to one format")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # the status of a failed check here
        return 1 if exc.code else 0

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return 1
    try:
        cfg = parse_config(text, args.command)
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        if args.format is not None:
            cfg["output"]["formats"] = [args.format]
        return run(cfg, args.command)
    except ConfigError as exc:
        for path, msg in exc.failures:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 1
    except IgacError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
