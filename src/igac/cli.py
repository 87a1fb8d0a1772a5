"""Command-line front end: config parsing, dispatch, deterministic emission.

Subcommands: curvature, geodesic, jacobi, ige, mre, scenario.  Configs are
YAML documents; all validation failures are reported together with the path
of the offending field.  Every number must be finite, except the ends of an
MrE ``domain``.  This module checks the structure of a config only (each
required key present and of its type, each kind or family known, each
vector a list of numbers) and finiteness.  The ranges live in the library,
where the objects are built: a scenario driver's in its config
(``scenarios.IHOConfig``, ``scenarios.ScatterConfig``) or in
``scenarios.check_parameters``, a manifold's in the model constructors of
``igac.models``, and an MrE prior's, constraint's and domain's in
``igac.mre``.  Each of their failures is reported at its config path.
Outputs are a JSON report plus CSV traces with the fixed header
``tau,theta_1..theta_N,speed,delta_v,igc,ige,jacobi_intensity`` (columns
absent when not computed), floats printed with 17 significant digits, LF
line endings.  Exit status: 0 all oracle checks pass, 1 usage or config
error, 2 numeric check failure.
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
from .errors import ConfigError, IgacError, ParameterError

_SCENARIOS = ("uncorrelated_gaussian", "macro_correlated", "iho",
              "spin_chain", "wavepacket", "custom_manifold", "mre_update")
_FORMATS = ("csv", "json")

_NUMERIC_DEFAULTS = {"fit_window_fraction": 0.25}

# the wave-packet config keys and the ScatterConfig fields they set
_SCATTER_FIELDS = {"p0": "p0", "sigma0": "sigma0", "tau0": "tau0",
                   "R0": "r0_separation", "L": "potential_range",
                   "mu_mass": "mu_mass", "r": "r"}

# the geodesic start of a scenario, each key optional
_START = ("theta0", "v0", "tau_end")
# the keys each driver scenario reads, whose ranges its driver checks
_SCENARIO_KEYS = {"uncorrelated_gaussian": ("l", *_START),
                  "macro_correlated": ("l", "r", *_START),
                  "iho": ("l", "omega", "omega_total", "xi", "tau_end"),
                  "spin_chain": ("regime", *_START),
                  "wavepacket": (*_SCATTER_FIELDS, "r_sweep")}
# the keys a scenario requires, with their types (None: any)
_REQUIRED = {"uncorrelated_gaussian": {"l": int}, "iho": {"l": int},
             "macro_correlated": {"l": int, "r": None},
             "spin_chain": {"regime": str}}

# the config key of each ScatterConfig field
_CONFIG_KEYS = {field: key for key, field in _SCATTER_FIELDS.items()}

# libyaml's parser when PyYAML was built with it; both loaders share the
# safe resolver and constructor, so they accept the same documents
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str, command: str = "scenario") -> dict:
    """Validated config with defaults filled, or ConfigError listing every
    failure with its field path.  One walk rejects every nan or infinite
    number; the field checks below then test structure only, and leave
    each range to the library check that owns it.  A scenario key the
    config leaves out is left out here too: its default lives in the
    driver."""
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
    failures += [(f"numerics.{field}", msg) for field, msg in cx.fit_failures(
        fit_window_fraction=numerics.get("fit_window_fraction"))]
    cfg["numerics"] = numerics

    output = _section(cfg, "output",
                      {"directory": ".", "formats": ["json", "csv"]}, failures)
    fmts = output.get("formats")
    # a tuple compares its members by equality: an entry need not hash
    if not isinstance(fmts, (list, tuple)) or not fmts or \
            not all(fmt in _FORMATS for fmt in fmts):
        failures.append(("output.formats",
                         f"must be a nonempty subset of {_FORMATS}"))
    cfg["output"] = output

    nonfinite = []
    _walk_nonfinite(cfg, "", _open_ends(cfg, command), nonfinite)
    # a field check adds nothing at a path the walk already rejected
    bad = {path for path, _ in nonfinite}
    if command == "scenario":
        _validate_scenario(cfg, failures, bad)
    elif command in ("curvature", "geodesic", "jacobi", "ige"):
        _validate_manifold_command(cfg, command, failures, bad)
    elif command == "mre":
        _validate_mre(cfg.get("mre"), "mre", failures, bad)
        # the rule of mre.solve_multiplier
        failures += md.positive_failures({"tol": cfg.get("tol", 1e-12)})

    if nonfinite or failures:
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


def _check_vector(val, path, dim, failures):
    """``val`` must be a list of numbers, with ``dim`` entries unless
    ``dim`` is None."""
    if not isinstance(val, (list, tuple)) or \
            not all(md._is_number(x) for x in val):
        failures.append((path, f"must be a list of numbers, got {val!r}"))
    elif dim is not None and len(val) != dim:
        failures.append((path, f"needs {dim} components for this manifold, "
                         f"got {len(val)}"))


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


def _validate_scenario(cfg, failures, nonfinite):
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
    elif name == "custom_manifold":
        dim = _validate_manifold(params.get("manifold"),
                                 "parameters.manifold", failures, nonfinite)
        if _req(params, "theta", "parameters", failures) is not None:
            _check_vector(params["theta"], "parameters.theta", dim, failures)
    elif name == "mre_update":
        _validate_mre(params, "parameters", failures, nonfinite)
    else:
        _check_parameters(name, params, failures, nonfinite)


def _check_parameters(name, params, failures, nonfinite):
    """Record each required key that is missing or not of its type, each
    vector that is no list of numbers and each key set to null.  Then run
    the driver's own range checks on the keys with neither such a failure
    nor a path in ``nonfinite``, and record each of their failures at its
    config path."""
    for key, types in _REQUIRED.get(name, {}).items():
        _req(params, key, "parameters", failures, types)
    for key in ("theta0", "v0", "omega"):
        if key in params and key in _SCENARIO_KEYS[name]:
            _check_vector(params[key], f"parameters.{key}", None, failures)
    recorded = {path for path, _ in failures}
    for key in _SCENARIO_KEYS[name]:
        # a driver reads None as unset, which a config says by leaving the
        # key out
        if key in params and params[key] is None and \
                f"parameters.{key}" not in recorded:
            failures.append((f"parameters.{key}", "must not be null"))
    failed = {path.partition("[")[0]
              for path in nonfinite | {path for path, _ in failures}}
    typed = {key: params[key] for key in _SCENARIO_KEYS[name]
             if key in params and f"parameters.{key}" not in failed}
    if name == "iho":
        # IHOConfig reads omega and omega_total together: it checks a
        # config only when each of its IHO keys is sound
        whole = "l" in typed and \
            typed.keys() == params.keys() & set(_SCENARIO_KEYS[name])
        checks = [lambda: sc.IHOConfig(**typed)] if whole else []
    elif name == "wavepacket":
        checks = [lambda: _scatter_config(typed),
                  lambda: sc.check_parameters(r_sweep=typed.get("r_sweep"))]
    else:
        checks = [lambda: sc.check_parameters(**typed)]
    for check in checks:
        _record(check, "parameters", failures, _CONFIG_KEYS)


def _record(check, path, failures, fields=None):
    """``check()``, or None with each failure of its ParameterError recorded
    at ``path.field``, a field renamed through ``fields``."""
    try:
        return check()
    except ParameterError as exc:
        failures += [(f"{path}.{(fields or {}).get(field, field)}", msg)
                     for field, msg in exc.failures]


_NUMBER = (int, float)
# the model kinds: the constructor of each and its arguments, which are the
# spec's keys, with the type each must have; a spec may leave out those in
# _OPTIONAL, which take the constructor's default
_MODELS = {"gaussian_diag": (md.gaussian_diag,
                             {"means": list, "sigmas": list}),
           "exponential": (md.exponential, {"mu": _NUMBER}),
           "wigner_dyson": (md.wigner_dyson, {"mu": _NUMBER}),
           "gaussian_bivariate_corr": (
               md.gaussian_bivariate_corr,
               dict.fromkeys(("mu_x", "mu_y", "sigma", "r"), _NUMBER))}
_OPTIONAL = ("r",)
# a product's factors are models; a macro-correlated manifold has none
_FACTOR_KINDS = (*_MODELS, "product")
_MANIFOLD_KINDS = (*_MODELS, "macro_correlated", "product")


def _validate_manifold(spec, path, failures, nonfinite,
                       kinds=_MANIFOLD_KINDS):
    """Record the spec's failures; returns the manifold's dimension, or
    None when the spec is invalid.  A model leaf whose keys are present,
    typed and finite is built by its constructor, which checks the ranges;
    macro correlations meet the rule of ``macro_correlated_metric``."""
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
    if kind == "product":
        factors = _req(spec, "factors", path, failures, list)
        dims = [_validate_manifold(sub, f"{path}.factors[{i}]", failures,
                                   nonfinite, _FACTOR_KINDS)
                for i, sub in enumerate(factors or [])]
        dim = sum(dims) if None not in dims else None
    elif kind == "macro_correlated":
        r = _req(spec, "r", path, failures, (list, tuple, int, float))
        if r is not None:
            rs = r if isinstance(r, list) else [r]
            failures += md.correlation_failures(
                {f"{path}.r[{i}]": ri for i, ri in enumerate(rs)})
            dim = 2 * len(rs)
    else:
        for key, types in _MODELS[kind][1].items():
            if key in spec or key not in _OPTIONAL:
                val = _req(spec, key, path, failures, types)
                if types is list and val is not None:
                    _check_vector(val, f"{path}.{key}", None, failures)
        if len(failures) == n_failures and \
                not any(p.startswith(f"{path}.") for p in nonfinite):
            model = _record(lambda: build_model(spec), path, failures)
            dim = model.param_dim if model else None
    if dim == 0:
        failures.append((path, "manifold has no coordinates"))
    return dim if len(failures) == n_failures else None


def _validate_manifold_command(cfg, command, failures, nonfinite):
    spec = cfg.get("manifold")
    dim = _validate_manifold(spec, "manifold", failures, nonfinite)
    if command == "curvature":
        required, vectors = ("theta",), ("theta",)
    else:
        required, vectors = ("theta0", "v0", "tau_end"), \
            ("theta0", "v0", "j0", "dj0")
        tau_end = cfg.get("tau_end", 1.0)
        # a missing tau_end is reported below; ige fits its entropy forms
        # over tau > 0
        if not md._is_number(tau_end) or \
                command == "ige" and not tau_end > 0:
            kind = "a positive number" if command == "ige" else "a number"
            failures.append(("tau_end", f"must be {kind}, got {tau_end!r}"))
    for key in required:
        if key not in cfg:
            failures.append((key, "missing required key"))
    # a macro-correlated metric has no model density to integrate
    sources = ("analytic",) if isinstance(spec, dict) and \
        spec.get("kind") == "macro_correlated" else ("analytic", "quadrature")
    if cfg.get("metric_source", "analytic") not in sources:
        failures.append(("metric_source", f"must be one of {sources}"))
    if command == "ige":
        failures += [("fit_form", msg) for _, msg in
                     cx.fit_failures(cfg.get("fit_form", "linear"))]
        failures += dyn.n_out_failures(cfg.get("n_out", 257))
    for key in vectors:
        if key in cfg:
            _check_vector(cfg[key], key, dim, failures)


# each prior family: its builder, which takes the family's keys, and their
# defaults
_PRIORS = {"exponential": (md.exponential, {"mu": 1.0}),
           "gaussian": (lambda mu, sigma: md.gaussian_diag([mu], [sigma]),
                        {"mu": 0.0, "sigma": 1.0}),
           "uniform": (mre.uniform_prior, {"lo": -1.0, "hi": 1.0})}
# the config key of a field the gaussian prior's constructor names
_PRIOR_FIELDS = {"sigmas[0]": "sigma"}


def _validate_mre(spec, path, failures, nonfinite):
    """Record the problem's failures.  The prior, its keys numbers and
    finite, and each constraint function are built by their constructors;
    the domain meets the rule of ``mre.MrEProblem``."""
    if not isinstance(spec, dict):
        failures.append((path, "missing mre problem mapping"))
        return
    prior = spec.get("prior")
    if not isinstance(prior, dict) or "family" not in prior:
        failures.append((f"{path}.prior.family", "missing required key"))
    elif not isinstance(prior["family"], str) or \
            prior["family"] not in _PRIORS:
        failures.append((f"{path}.prior.family",
                         f"unknown prior family {prior['family']!r}"))
    else:
        ppath, n_failures = f"{path}.prior", len(failures)
        for key, default in _PRIORS[prior["family"]][1].items():
            if not md._is_number(prior.get(key, default)):
                failures.append((f"{ppath}.{key}",
                                 f"must be a number, got {prior[key]!r}"))
        if len(failures) == n_failures and \
                not any(p.startswith(f"{ppath}.") for p in nonfinite):
            _record(lambda: _build_prior(prior), ppath, failures,
                    _PRIOR_FIELDS)
    failures += [(f"{path}.{field}", msg)
                 for field, msg in mre.domain_failures(spec.get("domain"))]
    cons = spec.get("constraints")
    if not isinstance(cons, list) or not cons:
        failures.append((f"{path}.constraints",
                         "need a nonempty list of constraints"))
        return
    for i, c in enumerate(cons):
        cpath = f"{path}.constraints[{i}]"
        if not isinstance(c, dict):
            failures.append((cpath, "must be a mapping"))
            continue
        _record(lambda: mre.constraint_function(c.get("f"),
                                                c.get("coefficients")),
                cpath, failures)
        if "target" not in c:
            failures.append((f"{cpath}.target", "missing required key"))
        elif not md._is_number(c["target"]):
            failures.append((f"{cpath}.target",
                             f"must be a number, got {c['target']!r}"))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_metric(spec: dict, source: str = "analytic") -> md.MetricField:
    if spec["kind"] == "macro_correlated":
        return md.macro_correlated_metric(np.atleast_1d(spec["r"]))
    model = build_model(spec)
    if source == "quadrature":
        return md.fisher_quadrature(model)
    return md.analytic_fisher(model)


def build_model(spec: dict) -> md.StatModel:
    """The model of a spec of a model kind or a product of them."""
    if spec["kind"] == "product":
        return md.product(*map(build_model, spec["factors"]))
    build, keys = _MODELS[spec["kind"]]
    return build(**{key: spec[key] for key in keys if key in spec})


def _build_prior(spec):
    """The prior of a spec, and the domain of a uniform one."""
    build, defaults = _PRIORS[spec["family"]]
    par = {key: spec.get(key, default) for key, default in defaults.items()}
    return build(**par), (par["lo"], par["hi"]) if "lo" in par else None


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
    """One trace file; fixed column order, 17 significant digits, LF.  The
    whole table is one ``%`` format over its cells, row by row."""
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
    table = np.column_stack([col for _, col in columns])
    # '%.17g' % x is format(x, '.17g') for every float, nan and inf too;
    # no column name holds a '%'
    row = ",".join(["%.17g"] * len(columns))
    text = "\n".join([",".join(name for name, _ in columns)]
                     + [row] * len(table)) % tuple(table.ravel().tolist())
    path.write_text(text + "\n", newline="\n")


_escape = json.encoder.encode_basestring_ascii
# float.__repr__ of the values JSON has no literal for, and json's names
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOAT_ONLY = {float}
# looked up only after an identity test: 1 == True, so 1 would find "true"
_LITERALS = {None: "null", True: "true", False: "false"}


def _key_text(key) -> str:
    """A dict key as ``json`` coerces it to a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, allow_nan=True)``, byte for byte: ASCII
    escapes, ``NaN`` and ``Infinity``, and ``TypeError`` on a type json
    does not write.  Containers are walked here; leaves go to the C-level
    ``float.__repr__``, ``int.__repr__`` and string escape, where the
    stdlib walks indented output in pure-Python generators."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == _FLOAT_ONLY:
            body = sep.join(map(float.__repr__, obj))
            # 'n' is in nan and inf and in no finite float's repr
            if "n" in body:
                body = body.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            body = sep.join([_dumps(val, inner) for val in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([f"{_escape(_key_text(key))}: {_dumps(val, inner)}"
                         for key, val in obj.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def emit(report: dict, traces: dict, outdir: Path, formats) -> list:
    """Write report.json (``_dumps`` of ``report``) and the per-trace
    CSVs; returns the paths written."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        p = outdir / "report.json"
        p.write_text(_dumps(report) + "\n", newline="\n")
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


def _scatter_config(params):
    """The ScatterConfig of the wave-packet keys that ``params`` sets."""
    return sc.ScatterConfig(**{field: params[key] for key, field in
                               _SCATTER_FIELDS.items() if key in params})


# the scenarios whose config keys are their driver's keyword arguments
_DRIVERS = {"uncorrelated_gaussian": sc.run_uncorrelated_gaussian,
            "macro_correlated": sc.run_macro_correlated,
            "spin_chain": sc.run_spin_chain}


def _run_named_scenario(cfg):
    name, params = cfg["scenario"], cfg["parameters"]
    if name == "custom_manifold":
        return _cmd_curvature({"manifold": params["manifold"],
                               "theta": params["theta"]})[0]
    if name == "mre_update":
        return _cmd_mre({"mre": params})[0]
    if name in _DRIVERS:
        return _DRIVERS[name](**_given(params, _SCENARIO_KEYS[name]))
    if name == "iho":
        return sc.run_iho(sc.IHOConfig(**_given(params,
                                                _SCENARIO_KEYS["iho"])))
    kw = {"r_sweep": tuple(params["r_sweep"])} if "r_sweep" in params else {}
    return sc.run_wavepacket(_scatter_config(params), **kw)


def _cmd_scenario(cfg):
    report = _run_named_scenario(cfg)
    return report, report.traces


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
        sys.stderr.write(_dumps({"failures": report.failures()}) + "\n")
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
