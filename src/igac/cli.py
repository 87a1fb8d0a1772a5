"""Command-line front end: config parsing, dispatch, deterministic emission.

Subcommands: curvature, geodesic, jacobi, ige, mre, scenario.  A config is
a YAML document, with the exponent floats of YAML 1.2 (``1e-3``) read as
numbers.  ``parse_config`` validates it into a ``Plan``: the config with
its defaults filled, and the object its command runs, built by the library
constructor that checks its ranges (a manifold's in ``igac.models``, an
MrE problem's in ``igac.mre``, a scenario's config class in
``igac.scenarios``, which its driver runs); ``run`` executes the plan.
This module checks the structure of a config (each required key present
and of its type, each kind or family known, each vector a list of
numbers) and that every number is finite, except the ends of an MrE
``domain``, and reports all failures together, each at its field path.
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
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import complexity as cx
from . import dynamics as dyn
from . import geometry as geo
from . import models as md
from . import mre
from . import scenarios as sc
from .errors import ConfigError, IgacError, ParameterError

_FORMATS = ("csv", "json")

_NUMERIC_DEFAULTS = {"fit_window_fraction": 0.25}

# the geodesic start of a scenario, each key optional
_START = ("theta0", "v0", "tau_end")
# the keys each driver scenario reads, the fields of its config class
_SCENARIO_KEYS = {"uncorrelated_gaussian": ("l", *_START),
                  "macro_correlated": ("l", "r", *_START),
                  "iho": ("l", "omega", "omega_total", "xi", "tau_end"),
                  "spin_chain": ("regime", *_START),
                  "wavepacket": ("p0", "sigma0", "tau0", "R0", "L", "mu_mass",
                                 "r", "r_sweep")}
# each driver scenario: its driver, and the config class that checks its
# ranges and fills its defaults
_DRIVERS = {"uncorrelated_gaussian": (sc.run_uncorrelated_gaussian,
                                      sc.PairsConfig),
            "macro_correlated": (sc.run_macro_correlated, sc.PairsConfig),
            "iho": (sc.run_iho, sc.IHOConfig),
            "spin_chain": (sc.run_spin_chain, sc.SpinChainConfig),
            "wavepacket": (sc.run_wavepacket, sc.ScatterConfig)}
# the wave-packet keys whose ScatterConfig fields have other names
_FIELDS = {"R0": "r0_separation", "L": "potential_range"}
# the keys a scenario requires, with their types (None: any)
_REQUIRED = {"uncorrelated_gaussian": {"l": int}, "iho": {"l": int},
             "macro_correlated": {"l": int, "r": None},
             "spin_chain": {"regime": str}}
_SCENARIOS = (*_SCENARIO_KEYS, "custom_manifold", "mre_update")


def _loader(base):
    """``base`` reading the YAML 1.2 floats with an exponent (1e-3, 1e3,
    1.0e3), which PyYAML's YAML 1.1 rules leave as strings.  The subclass
    adds to its own copy of the resolver table; ``base`` keeps its rules."""
    loader = type(f"Igac{base.__name__}", (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)"
        r"[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    return loader


_PURE_LOADER = _loader(yaml.SafeLoader)
# libyaml's parser when PyYAML was built with it; both loaders share the
# resolver and the safe constructor, so they accept the same documents
_LOADER = _loader(yaml.CSafeLoader) if yaml.__with_libyaml__ else _PURE_LOADER


class Plan(NamedTuple):
    """A validated config, which reports echo, and the object its command
    runs: a manifold (a StatModel, or macro correlations), an MrEProblem,
    or the config of a scenario driver (PairsConfig, IHOConfig,
    SpinChainConfig or ScatterConfig)."""

    config: dict
    built: object


def parse_config(text: str, command: str = "scenario") -> Plan:
    """The plan of a validated config, or ConfigError listing every
    failure with its field path.  One walk rejects every nan or infinite
    number; the field checks below test structure only, and leave each
    range to the library constructor that owns it, whose object the plan
    keeps.  A scenario key the config leaves out has its driver's
    default."""
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
    fmts = _section(cfg, "output", {"directory": ".",
                                    "formats": ["json", "csv"]},
                    failures).get("formats")
    # a tuple compares its members by equality: an entry need not hash
    if not isinstance(fmts, (list, tuple)) or not fmts or \
            not all(fmt in _FORMATS for fmt in fmts):
        failures.append(("output.formats",
                         f"must be a nonempty subset of {_FORMATS}"))

    nonfinite = []
    _walk_nonfinite(cfg, "", _open_ends(cfg, command), nonfinite)
    # a field check adds nothing at a path the walk already rejected
    bad = {path for path, _ in nonfinite}
    built = None
    if command == "scenario":
        built = _validate_scenario(cfg, failures, bad)
    elif command in ("curvature", "geodesic", "jacobi", "ige"):
        built = _validate_manifold_command(cfg, command, failures, bad)
    elif command == "mre":
        built = _validate_mre(cfg.get("mre"), "mre", failures, bad)
        # the rule of mre.solve_multiplier
        failures += md.positive_failures({"tol": cfg.get("tol", 1e-12)})

    if nonfinite or failures:
        raise ConfigError(nonfinite + [f for f in failures
                                       if f[0] not in bad])
    return Plan(cfg, built)


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
    """The mapping at ``key`` laid over a copy of ``defaults``, which
    replaces it in ``cfg``."""
    merged = dict(defaults)
    val = cfg.get(key) or {}
    if isinstance(val, dict):
        merged.update(val)
    else:
        failures.append((key, "must be a mapping"))
    cfg[key] = merged
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
    """Record the scenario's failures; returns the object or keywords its
    scenario function is called with."""
    name = cfg.get("scenario")
    if name not in _SCENARIOS:
        failures.append(("scenario",
                         f"unknown scenario {name!r}; choose from "
                         f"{_SCENARIOS}"))
        return None
    if cfg.get("parameters") is None:
        cfg["parameters"] = {}
    params = cfg["parameters"]
    if not isinstance(params, dict):
        failures.append(("parameters", "must be a mapping"))
        return None
    if name == "custom_manifold":
        manifold = _validate_manifold(params.get("manifold"),
                                      "parameters.manifold", failures,
                                      nonfinite)
        _req(params, "theta", "parameters", failures)
        if "theta" in params:
            _check_vector(params["theta"], "parameters.theta",
                          _dim(manifold), failures)
        return manifold
    if name == "mre_update":
        return _validate_mre(params, "parameters", failures, nonfinite)
    return _check_parameters(name, params, failures, nonfinite)


def _check_parameters(name, params, failures, nonfinite):
    """Record each required key that is missing or not of its type, each
    vector that is no list of numbers and each key set to null.  Then build
    the scenario's config from its keys, each None that has such a failure
    or a path in ``nonfinite``, and record each of the config's failures
    at a key not rejected before.  Returns the config, or None."""
    for key, types in _REQUIRED.get(name, {}).items():
        _req(params, key, "parameters", failures, types)
    for key in ("theta0", "v0", "omega"):
        if key in params and key in _SCENARIO_KEYS[name]:
            _check_vector(params[key], f"parameters.{key}", None, failures)
    recorded = {path for path, _ in failures}
    for key in _SCENARIO_KEYS[name]:
        # a config class reads None as unset, which a config says by
        # leaving the key out
        if key in params and params[key] is None and \
                f"parameters.{key}" not in recorded:
            failures.append((f"parameters.{key}", "must not be null"))
    failed = {path.partition("[")[0]
              for path in nonfinite | {path for path, _ in failures}}
    sound = {_FIELDS.get(key, key): None if f"parameters.{key}" in failed
             else params[key] for key in _SCENARIO_KEYS[name]
             if key in params or key in _REQUIRED.get(name, {})}
    found = []
    config = _record(lambda: _DRIVERS[name][1](**sound), "parameters", found,
                     {field: key for key, field in _FIELDS.items()})
    failures += [f for f in found if f[0].partition("[")[0] not in failed]
    return config


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
    """Record the spec's failures; returns the manifold, a StatModel or
    macro correlations, or None when the spec is invalid.  A model leaf
    whose keys are present, typed and finite is built by its constructor,
    which checks the ranges; macro correlations meet the rule of
    ``macro_correlated_metric``."""
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
    manifold = None
    if kind == "product":
        factors = _req(spec, "factors", path, failures, list)
        models = [_validate_manifold(sub, f"{path}.factors[{i}]", failures,
                                     nonfinite, _FACTOR_KINDS)
                  for i, sub in enumerate(factors or [])]
        if all(m is not None for m in models):
            manifold = md.product(*models)
    elif kind == "macro_correlated":
        r = _req(spec, "r", path, failures, (list, tuple, int, float))
        if r is not None:
            rs = r if isinstance(r, list) else [r]
            failures += md.correlation_failures(
                {f"{path}.r[{i}]": ri for i, ri in enumerate(rs)})
            if len(failures) == n_failures:
                manifold = np.atleast_1d(r)
    else:
        for key, types in _MODELS[kind][1].items():
            if key in spec or key not in _OPTIONAL:
                val = _req(spec, key, path, failures, types)
                if types is list and val is not None:
                    _check_vector(val, f"{path}.{key}", None, failures)
        if len(failures) == n_failures and \
                not any(p.startswith(f"{path}.") for p in nonfinite):
            manifold = _record(lambda: build_model(spec), path, failures)
    if _dim(manifold) == 0:
        failures.append((path, "manifold has no coordinates"))
    return manifold if len(failures) == n_failures else None


def _dim(manifold):
    """The coordinate count of a built manifold; None for none."""
    return None if manifold is None else manifold.param_dim \
        if isinstance(manifold, md.StatModel) else 2 * len(manifold)


def _validate_manifold_command(cfg, command, failures, nonfinite):
    """Record the command's failures; returns its manifold."""
    spec = cfg.get("manifold")
    manifold = _validate_manifold(spec, "manifold", failures, nonfinite)
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
            _check_vector(cfg[key], key, _dim(manifold), failures)
    return manifold


# each prior family: its builder, which takes the family's keys, and their
# defaults
_PRIORS = {"exponential": (md.exponential, {"mu": 1.0}),
           "gaussian": (lambda mu, sigma: md.gaussian_diag([mu], [sigma]),
                        {"mu": 0.0, "sigma": 1.0}),
           "uniform": (mre.uniform_prior, {"lo": -1.0, "hi": 1.0})}
# the config key of a field the gaussian prior's constructor names
_PRIOR_FIELDS = {"sigmas[0]": "sigma"}


def _validate_mre(spec, path, failures, nonfinite):
    """Record the problem's failures; returns its MrEProblem, or None.  The
    prior, its keys numbers and finite, and each constraint function are
    built by their constructors; the domain meets ``mre.MrEProblem``."""
    if not isinstance(spec, dict):
        failures.append((path, "missing mre problem mapping"))
        return None
    n_failures = len(failures)
    prior, built = spec.get("prior"), None
    if not isinstance(prior, dict) or "family" not in prior:
        failures.append((f"{path}.prior.family", "missing required key"))
    elif not isinstance(prior["family"], str) or \
            prior["family"] not in _PRIORS:
        failures.append((f"{path}.prior.family",
                         f"unknown prior family {prior['family']!r}"))
    else:
        ppath = f"{path}.prior"
        for key, default in _PRIORS[prior["family"]][1].items():
            if not md._is_number(prior.get(key, default)):
                failures.append((f"{ppath}.{key}",
                                 f"must be a number, got {prior[key]!r}"))
        if len(failures) == n_failures and \
                not any(p.startswith(f"{ppath}.") for p in nonfinite):
            built = _record(lambda: _build_prior(prior), ppath, failures,
                            _PRIOR_FIELDS)
    failures += [(f"{path}.{field}", msg)
                 for field, msg in mre.domain_failures(spec.get("domain"))]
    cons = spec.get("constraints")
    if not isinstance(cons, list) or not cons:
        failures.append((f"{path}.constraints",
                         "need a nonempty list of constraints"))
        return None
    functions = []
    for i, c in enumerate(cons):
        cpath = f"{path}.constraints[{i}]"
        if not isinstance(c, dict):
            failures.append((cpath, "must be a mapping"))
            continue
        functions.append(_record(
            lambda: mre.constraint_function(c.get("f"),
                                            c.get("coefficients")),
            cpath, failures))
        if "target" not in c:
            failures.append((f"{cpath}.target", "missing required key"))
        elif not md._is_number(c["target"]):
            failures.append((f"{cpath}.target",
                             f"must be a number, got {c['target']!r}"))
    if len(failures) > n_failures or \
            any(p.startswith(f"{path}.") for p in nonfinite):
        return None
    prior, domain = built
    return mre.MrEProblem(prior, tuple(zip(functions, (c["target"]
                                                       for c in cons))),
                          domain=domain if spec.get("domain") is None
                          else tuple(spec["domain"]))


def build_metric(spec: dict, source: str = "analytic") -> md.MetricField:
    """The metric of a manifold spec; ConfigError when it is invalid."""
    failures = []
    manifold = _validate_manifold(spec, "manifold", failures, set())
    ConfigError.raise_any(failures)
    return _metric(manifold, source)


def _metric(manifold, source) -> md.MetricField:
    """The metric of a built manifold from ``source``."""
    if not isinstance(manifold, md.StatModel):
        return md.macro_correlated_metric(manifold)
    return (md.fisher_quadrature if source == "quadrature"
            else md.analytic_fisher)(manifold)


def build_model(spec: dict) -> md.StatModel:
    """The model of a spec of a model kind."""
    build, keys = _MODELS[spec["kind"]]
    return build(**{key: spec[key] for key in keys if key in spec})


def _build_prior(spec):
    """The prior of a spec, and the domain of a uniform one."""
    build, defaults = _PRIORS[spec["family"]]
    par = {key: spec.get(key, default) for key, default in defaults.items()}
    return build(**par), (par["lo"], par["hi"]) if "lo" in par else None


def emit_csv(path: Path, trace: dict) -> None:
    """One trace file; fixed column order, 17 significant digits, LF.  The
    whole table is one ``%`` format over its cells, row by row."""
    columns = [("tau", trace["tau"])]
    if trace.get("theta") is not None:
        theta = np.asarray(trace["theta"], float)
        columns += [(f"theta_{i + 1}", theta[:, i])
                    for i in range(theta.shape[1])]
    columns += [(key, trace[key]) for key in ("speed", "delta_v", "igc",
                                              "ige", "jacobi_intensity")
                if trace.get(key) is not None]
    table = np.column_stack([np.asarray(col, float) for _, col in columns])
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
        return "null" if obj is None else "true" if obj else "false"
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
        written.append(outdir / "report.json")
        written[-1].write_text(_dumps(report) + "\n", newline="\n")
    if "csv" in formats:
        for name, trace in traces.items():
            written.append(outdir / f"{name}.csv")
            emit_csv(written[-1], trace)
    return written


def _setup(plan, name, inputs):
    """The config of a manifold command, the metric of its manifold from
    the source it names, and a report echoing its ``inputs``."""
    cfg = plan.config
    return (cfg, _metric(plan.built, cfg.get("metric_source", "analytic")),
            sc.ScenarioReport(name, {k: cfg[k] for k in inputs}))


def _cmd_curvature(plan):
    cfg, metric, report = _setup(plan, "curvature", ("manifold",))
    theta = np.asarray(cfg["theta"], float)
    report.inputs["theta"] = theta
    rep = geo.curvature_report(metric, theta)
    report.observables.update(
        ricci_scalar=rep.scalar,
        sectional=[{"plane": list(pl), "k": k} for pl, k in rep.sectional],
        weyl_max_abs=rep.weyl_max_abs, ricci_tensor=rep.ricci)
    report.add("metric_compatibility", rep.metric_compat_residual, 0.0, 1e-8,
               "Levi-Civita connection")
    report.add("scalar_vs_sectional_sum", rep.sectional_sum, rep.scalar,
               1e-8, "scalar equals the sectional sum")
    return report


def _cmd_geodesic(plan):
    cfg, metric, report = _setup(plan, "geodesic", ("manifold", *_START))
    path = dyn.integrate_geodesic(metric, cfg["theta0"], cfg["v0"],
                                  float(cfg["tau_end"]))
    # relative to a positive start speed; a constant geodesic has speed 0
    speed0 = path.speed[0]
    drift = float(np.max(np.abs(path.speed / speed0 - 1.0 if speed0 > 0
                                else path.speed - speed0)))
    report.add("speed_drift", drift, 0.0, 1e-9, "affine parametrization")
    report.observables["endpoint"] = path.theta[-1]
    report.traces["geodesic"] = {"tau": path.tau_grid, "theta": path.theta,
                                 "speed": path.speed}
    return report


def _cmd_jacobi(plan):
    cfg, metric, report = _setup(plan, "jacobi", ("manifold", *_START))
    j0 = np.asarray(cfg.get("j0", np.zeros(metric.dim)), float)
    dj0 = np.asarray(cfg["dj0"], float) if "dj0" in cfg else \
        dyn.normal_direction(metric, cfg["theta0"], cfg["v0"])
    jac = dyn.integrate_jacobi(metric, cfg["theta0"], cfg["v0"],
                               np.linspace(0.0, float(cfg["tau_end"]), 513),
                               j0, dj0)
    report.inputs.update(j0=j0, dj0=dj0)
    report.observables.update(
        lyapunov_estimate=dyn.lyapunov_estimate(jac).value,
        final_intensity=jac.intensity[-1])
    report.traces["jacobi"] = {"tau": jac.tau_grid, "theta": jac.theta,
                               "speed": jac.speed,
                               "jacobi_intensity": jac.intensity}
    return report


def _cmd_ige(plan):
    cfg, metric, report = _setup(plan, "ige", ("manifold", *_START))
    path = dyn.integrate_geodesic(metric, cfg["theta0"], cfg["v0"],
                                  float(cfg["tau_end"]),
                                  n_out=cfg.get("n_out", 257))
    trace = cx.complexity_trace(metric, path)
    fit = cx.fit_asymptotics(trace, cfg.get("fit_form", "linear"),
                             min_points=16, fit_window_fraction=cfg[
                                 "numerics"]["fit_window_fraction"])
    report.observables["fit"] = {"form": fit.form, "params": list(fit.params),
                                 "r2": fit.r2, "window": list(fit.window)}
    report.add("fit_r2", fit.r2, 1.0, 0.5, "goodness of the requested form",
               note="informational quality gate")
    report.traces["ige"] = {
        "tau": trace.tau_grid, "theta": path.theta, "speed": path.speed,
        "delta_v": trace.delta_v, "igc": trace.igc, "ige": trace.ige}
    return report


def _cmd_mre(plan):
    cfg, problem = plan
    tol = float(cfg.get("tol", 1e-12))
    result = mre.solve_multiplier(problem, tol=tol)
    report = sc.ScenarioReport("mre", {"mre": cfg["mre"]})
    report.observables.update(beta=result.beta, log_z=result.log_z,
                              achieved=result.achieved,
                              objective=result.objective)
    residual = result.achieved - [F for _, F in problem.constraints]
    report.add("achieved_moments", float(np.max(np.abs(residual))), 0.0,
               max(tol * 10, 1e-10), "constraint satisfaction")
    report.add("posterior_mass", result.posterior.mass(), 1.0, 1e-8,
               "normalization")
    report.observables["posterior_grid"] = {
        "x": result.posterior.x[::16], "p": result.posterior.p[::16]}
    return report


def _run_named_scenario(plan):
    cfg, built = plan
    name, params = cfg["scenario"], cfg["parameters"]
    if name == "custom_manifold":
        return _cmd_curvature(Plan({"manifold": params["manifold"],
                                    "theta": params["theta"]}, built))
    if name == "mre_update":
        return _cmd_mre(Plan({"mre": params}, built))
    return _DRIVERS[name][0](built)


# each command's plan -> ScenarioReport, its traces in ``report.traces``
_COMMANDS = {"curvature": _cmd_curvature, "geodesic": _cmd_geodesic,
             "jacobi": _cmd_jacobi, "ige": _cmd_ige, "mre": _cmd_mre,
             "scenario": _run_named_scenario}


def run(plan: Plan, command: str) -> int:
    """Execute a validated plan; returns the process exit status."""
    report = _COMMANDS[command](plan)
    output = plan.config["output"]
    emit({**report.to_dict(), "command": command}, report.traces,
         Path(output["directory"]), output["formats"])
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
        plan = parse_config(text, args.command)
        if args.out is not None:
            plan.config["output"]["directory"] = args.out
        if args.format is not None:
            plan.config["output"]["formats"] = [args.format]
        return run(plan, args.command)
    except ConfigError as exc:
        for path, msg in exc.failures:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 1
    except IgacError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
