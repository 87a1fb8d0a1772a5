"""Command-line front end: config parsing, dispatch, deterministic emission.

Subcommands: curvature, geodesic, jacobi, ige, mre, scenario.  A config is
a YAML document, with the exponent floats of YAML 1.2 (``1e-3``) read as
numbers.  ``parse_config`` validates it into a ``Plan``: the config and
the object its command runs, every default filled, which ``run`` executes;
the scenarios custom_manifold and mre_update are the commands curvature
and mre on the mapping at ``parameters``.  Each range is checked by the
library constructor that owns it.  This module checks the structure of a
config (each required key present and of its type, each kind or family
known, each vector a list of numbers) and that every number is finite,
except the ends of an MrE ``domain``, and reports all failures together,
each at its field path.
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
from collections import namedtuple
from functools import partial
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

# the geodesic start of a command or a scenario
_START = ("theta0", "v0", "tau_end")
# the config keys that the reports of geodesic, jacobi and ige echo
_ECHO = ("manifold", *_START)


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
    runs: a ``Flow`` for curvature, geodesic, jacobi and ige; (MrEProblem,
    tol) for mre; for a scenario the config of its driver (PairsConfig,
    IHOConfig, SpinChainConfig or ScatterConfig), or for custom_manifold
    and mre_update the object of curvature and of mre."""

    config: dict
    built: object


# What a manifold command runs: the metric from its metric_source;
# curvature's point theta, or the start theta0 = theta, v0 and tau_end,
# vectors as float arrays; jacobi's j0 and dj0 (None: the unit normal to
# v0); ige's n_out, fit_form and fit_window_fraction.
Flow = namedtuple("Flow", "metric theta v0 tau_end j0 dj0 n_out fit_form "
                  "fit_window_fraction", defaults=(None,) * 7)


def parse_config(text: str, command: str = "scenario") -> Plan:
    """The plan of a validated config, or ConfigError listing every
    failure with its field path.  One walk rejects every nan or infinite
    number; the field checks below test structure only, and leave each
    range to the library constructor that owns it, whose object the plan
    keeps.  A key the config leaves out has its command's or its
    scenario driver's default."""
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

    # the walk's failures by path; a field check adds nothing at these
    nonfinite = {}
    _walk_nonfinite(cfg, "", nonfinite)
    built = _COMMANDS[command][0](cfg, failures, nonfinite)
    if nonfinite or failures:
        raise ConfigError([*nonfinite.items()] + [
            f for f in failures if f[0] not in nonfinite])
    return Plan(cfg, built)


def _walk_nonfinite(node, path, failures):
    """Record in the mapping ``failures`` every float leaf under ``node``
    that is nan or infinite, and every integer leaf beyond the float range,
    at its field path (``a.b[0].c``)."""
    if isinstance(node, float):
        if not math.isfinite(node):
            failures[path] = f"must be finite, got {node!r}"
    elif isinstance(node, int) and not isinstance(node, bool):
        try:
            float(node)
        except OverflowError:
            failures[path] = "must be finite, got an integer beyond the " \
                             "float range"
    elif isinstance(node, dict):
        for key, val in node.items():
            _walk_nonfinite(val, f"{path}.{key}" if path else str(key),
                            failures)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _walk_nonfinite(val, f"{path}[{i}]", failures)


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


def _check_scenario(cfg, failures, nonfinite):
    """Record the scenario's failures; returns the object its run takes."""
    name, names = cfg.get("scenario"), tuple(_SCENARIOS)
    if name not in names:       # by equality: a name need not hash
        failures.append(("scenario",
                         f"unknown scenario {name!r}; choose from {names}"))
        return None
    if cfg.get("parameters") is None:
        cfg["parameters"] = {}
    params = cfg["parameters"]
    if not isinstance(params, dict):
        failures.append(("parameters", "must be a mapping"))
        return None
    return _SCENARIOS[name][0](params, failures, nonfinite)


def _check_parameters(cls, required, keys, renamed, params, failures,
                      nonfinite):
    """Record each ``required`` key missing or not of its type (None: any),
    each vector that is no list of numbers and each of ``keys`` set to
    null.  Then build ``cls`` from those keys, each ``renamed`` to its
    field and None that has such a failure or a path in ``nonfinite``, and
    record each of its failures at a key not rejected before.  Returns the
    config, or None."""
    for key, types in required.items():
        _req(params, key, "parameters", failures, types)
    for key in ("theta0", "v0", "omega"):
        if key in params and key in keys:
            _check_vector(params[key], f"parameters.{key}", None, failures)
    recorded = {path for path, _ in failures}
    for key in keys:
        # a config class reads None as unset, which a config says by
        # leaving the key out
        if key in params and params[key] is None and \
                f"parameters.{key}" not in recorded:
            failures.append((f"parameters.{key}", "must not be null"))
    failed = {path.partition("[")[0]
              for path in nonfinite.keys() | {path for path, _ in failures}}
    sound = {renamed.get(key, key): None if f"parameters.{key}" in failed
             else params[key] for key in keys
             if key in params or key in required}
    found = []
    config = _record(lambda: cls(**sound), "parameters", found,
                     {field: key for key, field in renamed.items()})
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


def _check_flow(command, cfg, failures, nonfinite, at=""):
    """Record the failures of the keys of a manifold command in ``cfg``,
    each at the config path ``at`` + key; returns its Flow, or None."""
    spec = cfg.get("manifold")
    manifold = _validate_manifold(spec, f"{at}manifold", failures, nonfinite)
    if command == "curvature":
        required, vectors = ("theta",), ("theta",)
    else:
        required, vectors = _START, ("theta0", "v0", "j0", "dj0")
        # a missing tau_end is reported below; ige fits its entropy forms
        # over tau > 0
        tau_end = cfg.get("tau_end", 1.0)
        if not md._is_number(tau_end) or \
                command == "ige" and not tau_end > 0:
            kind = "a positive number" if command == "ige" else "a number"
            failures.append((f"{at}tau_end",
                             f"must be {kind}, got {tau_end!r}"))
    failures += [(f"{at}{key}", "missing required key") for key in required
                 if key not in cfg]
    # a macro-correlated metric has no model density to integrate
    sources = ("analytic",) if isinstance(spec, dict) and \
        spec.get("kind") == "macro_correlated" else ("analytic", "quadrature")
    source = cfg.get("metric_source", "analytic")
    if source not in sources:
        failures.append((f"{at}metric_source", f"must be one of {sources}"))
    form, n_out = cfg.get("fit_form", "linear"), cfg.get("n_out", 257)
    if command == "ige":
        failures += [(f"{at}fit_form", msg)
                     for _, msg in cx.fit_failures(form)]
        failures += [(at + key, msg) for key, msg in dyn.n_out_failures(n_out)]
    for key in vectors:
        if key in cfg:
            _check_vector(cfg[key], f"{at}{key}", _dim(manifold), failures)
    if failures or nonfinite:
        return None
    metric = _metric(manifold, source)
    vec = {key: np.asarray(cfg[key], float) for key in vectors if key in cfg}
    if command == "curvature":
        return Flow(metric, vec["theta"])
    return Flow(metric, vec["theta0"], vec["v0"], float(cfg["tau_end"]),
                vec.get("j0", np.zeros(metric.dim)), vec.get("dj0"), n_out,
                form, cfg["numerics"]["fit_window_fraction"])


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
    built by their constructors; the domain meets ``mre.MrEProblem``.  An
    infinite domain end leaves that side of the prior untruncated: the
    walk's failure there is taken back from ``nonfinite``."""
    if not isinstance(spec, dict):
        failures.append((path, "missing mre problem mapping"))
        return None
    ends = spec.get("domain")
    for i, end in enumerate(ends[:2] if isinstance(ends, list) else []):
        if isinstance(end, float) and math.isinf(end):
            del nonfinite[f"{path}.domain[{i}]"]
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


def _check_update(path, settings, spec, failures, nonfinite):
    """Record the failures of the MrE problem ``spec`` at ``path`` and of
    the ``tol`` in ``settings`` by the rule of ``mre.solve_multiplier``;
    returns (problem, tol), or None."""
    problem = _validate_mre(spec, path, failures, nonfinite)
    tol = settings.get("tol", 1e-12)
    failures += md.positive_failures({"tol": tol})
    return None if failures or nonfinite else (problem, float(tol))


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
    """One new trace file; fixed column order, 17 significant digits, LF.  The
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
    path.unlink(missing_ok=True)
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
    """Write report.json (``_dumps`` of ``report``) and the per-trace CSVs,
    each a new file: on ext4 unlinking an old one (or a symlink) and making
    it anew is faster than rewriting it in place.  Returns the paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        written.append(outdir / "report.json")
        written[-1].unlink(missing_ok=True)
        written[-1].write_text(_dumps(report) + "\n", newline="\n")
    if "csv" in formats:
        for name, trace in traces.items():
            written.append(outdir / f"{name}.csv")
            emit_csv(written[-1], trace)
    return written


def _cmd_curvature(cfg, flow):
    report = sc.ScenarioReport("curvature", {"manifold": cfg["manifold"],
                                             "theta": flow.theta})
    rep = geo.curvature_report(flow.metric, flow.theta)
    report.observables.update(
        ricci_scalar=rep.scalar,
        sectional=[{"plane": list(pl), "k": k} for pl, k in rep.sectional],
        weyl_max_abs=rep.weyl_max_abs, ricci_tensor=rep.ricci)
    report.add("metric_compatibility", rep.metric_compat_residual, 0.0, 1e-8,
               "Levi-Civita connection")
    report.add("scalar_vs_sectional_sum", rep.sectional_sum, rep.scalar,
               1e-8, "scalar equals the sectional sum")
    return report


def _cmd_geodesic(cfg, flow):
    report = sc.ScenarioReport("geodesic", {k: cfg[k] for k in _ECHO})
    path = dyn.integrate_geodesic(flow.metric, flow.theta, flow.v0,
                                  flow.tau_end)
    report.add("speed_drift", path.speed_drift, 0.0, 1e-9,
               "affine parametrization")
    report.observables["endpoint"] = path.theta[-1]
    report.traces["geodesic"] = {"tau": path.tau_grid, "theta": path.theta,
                                 "speed": path.speed}
    return report


def _cmd_jacobi(cfg, flow):
    report = sc.ScenarioReport("jacobi", {k: cfg[k] for k in _ECHO})
    dj0 = dyn.normal_direction(flow.metric, flow.theta, flow.v0) \
        if flow.dj0 is None else flow.dj0
    jac = dyn.integrate_jacobi(flow.metric, flow.theta, flow.v0,
                               np.linspace(0.0, flow.tau_end, 513), flow.j0,
                               dj0)
    report.inputs.update(j0=flow.j0, dj0=dj0)
    report.observables.update(
        lyapunov_estimate=dyn.lyapunov_estimate(jac).value,
        final_intensity=jac.intensity[-1])
    report.traces["jacobi"] = {"tau": jac.path.tau_grid,
                               "theta": jac.path.theta,
                               "speed": jac.path.speed,
                               "jacobi_intensity": jac.intensity}
    return report


def _cmd_ige(cfg, flow):
    report = sc.ScenarioReport("ige", {k: cfg[k] for k in _ECHO})
    path = dyn.integrate_geodesic(flow.metric, flow.theta, flow.v0,
                                  flow.tau_end, n_out=flow.n_out)
    trace = cx.complexity_trace(flow.metric, path)
    fit = cx.fit_asymptotics(trace, flow.fit_form, min_points=16,
                             fit_window_fraction=flow.fit_window_fraction)
    report.observables["fit"] = {"form": fit.form, "params": list(fit.params),
                                 "r2": fit.r2, "window": list(fit.window)}
    report.add("fit_r2", fit.r2, 1.0, 0.5, "goodness of the requested form",
               note="informational quality gate")
    report.traces["ige"] = {
        "tau": trace.tau_grid, "theta": path.theta, "speed": path.speed,
        "delta_v": trace.delta_v, "igc": trace.igc, "ige": trace.ige}
    return report


def _cmd_mre(spec, built):
    problem, tol = built
    result = mre.solve_multiplier(problem, tol=tol)
    report = sc.ScenarioReport("mre", {"mre": spec})
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


def _run_named_scenario(cfg, built):
    return _SCENARIOS[cfg["scenario"]][1](cfg["parameters"], built)


def _driver(run, cls, required, optional, renamed=None):
    """The entry of a driver scenario: its check builds ``cls`` from the
    ``required`` and ``optional`` keys, and ``run`` runs that config."""
    return (partial(_check_parameters, cls, required, (*required, *optional),
                    renamed or {}), lambda _, config: run(config))


# each scenario: the check of the mapping at ``parameters`` (mapping,
# failures, nonfinite -> the object its run takes, or None), and the run
# (mapping, which holds the inputs its report echoes, and object ->
# ScenarioReport); the last two are the commands they name
_SCENARIOS = {
    "uncorrelated_gaussian": _driver(sc.run_uncorrelated_gaussian,
                                     sc.PairsConfig, {"l": int}, _START),
    "macro_correlated": _driver(sc.run_macro_correlated, sc.PairsConfig,
                                {"l": int, "r": None}, _START),
    "iho": _driver(sc.run_iho, sc.IHOConfig, {"l": int},
                   ("omega", "omega_total", "xi", "tau_end")),
    "spin_chain": _driver(sc.run_spin_chain, sc.SpinChainConfig,
                          {"regime": str}, _START),
    "wavepacket": _driver(sc.run_wavepacket, sc.ScatterConfig, {},
                          ("p0", "sigma0", "tau0", "R0", "L", "mu_mass", "r",
                           "r_sweep"),
                          {"R0": "r0_separation", "L": "potential_range"}),
    "custom_manifold": (partial(_check_flow, "curvature", at="parameters."),
                        _cmd_curvature),
    "mre_update": (partial(_check_update, "parameters", {}), _cmd_mre)}

# each command: the check of the whole config and the run, as above; the
# run's report has its traces in ``report.traces``
_COMMANDS = {
    **{name: (partial(_check_flow, name), run) for name, run in (
        ("curvature", _cmd_curvature), ("geodesic", _cmd_geodesic),
        ("jacobi", _cmd_jacobi), ("ige", _cmd_ige))},
    "mre": (lambda cfg, *found: _check_update("mre", cfg, cfg.get("mre"),
                                               *found),
            lambda cfg, update: _cmd_mre(cfg["mre"], update)),
    "scenario": (_check_scenario, _run_named_scenario)}


def run(plan: Plan, command: str) -> int:
    """Execute a validated plan; returns the process exit status."""
    report = _COMMANDS[command][1](*plan)
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
