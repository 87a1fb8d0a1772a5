"""Span tracing of igac layers, installed from outside the package.

``Tracer.install`` replaces each public layer function by a wrapper that
records a span (name, start, end, parent span, op id) in memory.  Every
binding of the function inside the ``igac`` modules is replaced, so names
imported with ``from ... import`` are traced where their callers look them
up; ``MetricField.eval`` and ``MetricField.jet`` are replaced on the class.
The current span lives in a context variable and ``parallel_map`` items run
in a copy of the caller's context, so spans opened in worker threads keep
their parent and op id.

Counters that do not depend on the machine are recorded at the same
boundaries: ODE right-hand-side evaluations and non-zero solver statuses
(from the ``solve_ivp`` result each module receives), integrand points of
``integrate_box``, metric eval and jet calls, BVP shots, failed multiplier
solves and bytes emitted.  A layer's self time is its span time minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_CURRENT = contextvars.ContextVar("perfbench_span", default=(-1, -1))
_OP = contextvars.ContextVar("perfbench_op", default=-1)

# (layer name, module, attribute) of every traced public function
LAYERS = (
    ("dynamics.integrate_geodesic", "igac.dynamics", "integrate_geodesic"),
    ("dynamics.integrate_jacobi", "igac.dynamics", "integrate_jacobi"),
    ("dynamics.solve_geodesic_bvp", "igac.dynamics", "solve_geodesic_bvp"),
    ("geometry.christoffel", "igac.geometry", "christoffel"),
    ("geometry.riemann", "igac.geometry", "riemann"),
    ("geometry.ricci_scalar", "igac.geometry", "ricci_scalar"),
    ("geometry.curvature_report", "igac.geometry", "curvature_report"),
    ("complexity.complexity_trace", "igac.complexity", "complexity_trace"),
    ("complexity.volume_between", "igac.complexity", "volume_between"),
    ("complexity.fit_asymptotics", "igac.complexity", "fit_asymptotics"),
    ("quadrature.integrate_box", "igac.quadrature", "integrate_box"),
    ("mre.solve_multiplier", "igac.mre", "solve_multiplier"),
    ("cli.parse_config", "igac.cli", "parse_config"),
    ("cli.emit", "igac.cli", "emit"),
    ("threads.parallel_map", "igac._threads", "parallel_map"),
)

OP_SPAN = "op"

# per-layer metrics reported by a traced run, with their units
PER_LAYER = (
    [(f"{name}.{field}", "s" if field.endswith("_s") else "count")
     for name in ("dynamics.integrate_jacobi", "models.metric_jet",
                  "dynamics.integrate_geodesic", "dynamics.solve_geodesic_bvp",
                  "geometry.christoffel", "geometry.riemann",
                  "geometry.ricci_scalar", "geometry.curvature_report",
                  "models.quadrature_metric_eval",
                  "complexity.complexity_trace", "complexity.volume_between",
                  "complexity.fit_asymptotics", "quadrature.integrate_box",
                  "mre.solve_multiplier", "cli.parse_config", "cli.emit",
                  OP_SPAN)
     for field in ("calls", "self_s")]
    + [("dynamics.integrate_jacobi.nfev", "count"),
       ("dynamics.integrate_geodesic.nfev", "count"),
       ("dynamics.solve_ivp.nonzero_status", "count"),
       ("scenarios.solve_ivp.nfev", "count"),
       ("dynamics.solve_geodesic_bvp.shots", "count"),
       ("models.metric_eval.calls", "count"),
       ("quadrature.integrate_box.nodes", "count"),
       ("mre.solve_multiplier.failed", "count"),
       ("cli.emit.bytes", "bytes"),
       ("threads.parallel_map.calls", "count"),
       ("threads.parallel_map.wall_s", "s"),
       ("threads.parallel_map.busy_s", "s"),
       ("threads.parallel_map.items", "count"),
       ("trace.overhead_s", "s")])


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._cols = {"idx": array("q"), "name": array("i"),
                      "parent": array("q"), "op": array("q"),
                      "start": array("d"), "end": array("d")}
        self.counters: Counter = Counter()
        self._patches: list = []
        self.missing: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def current_name(self) -> str:
        nid = _CURRENT.get()[1]
        return self.names[nid] if nid >= 0 else ""

    def _record(self, idx, nid, parent, t0, t1):
        cols = self._cols
        with self._lock:
            cols["idx"].append(idx)
            cols["name"].append(nid)
            cols["parent"].append(parent)
            cols["op"].append(_OP.get())
            cols["start"].append(t0)
            cols["end"].append(t1)

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` may replace the
        arguments and ``after(result)`` sees the result."""
        nid = self.name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = _CURRENT.get()[0]
            idx = next(self._seq)
            token = _CURRENT.set((idx, nid))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                _CURRENT.reset(token)
                self._record(idx, nid, parent, t0, t1)
            if after is not None:
                after(result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span carrying ``op_id``."""
        token = _OP.set(op_id)
        try:
            return self.spanned(OP_SPAN, fn)(*args)
        finally:
            _OP.reset(token)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_bindings(self, original, new):
        """Replace every igac module global bound to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname == "igac" or modname.startswith("igac."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, attr, new)

    def install(self, igac) -> None:
        for name, modname, attr in LAYERS:
            mod = sys.modules.get(modname)
            original = getattr(mod, attr, None) if mod else None
            if original is None:
                self.missing.append(name)
                continue
            self._patch_bindings(original, self._layer_wrapper(name,
                                                               original))
        self._install_metric_field(igac.models.MetricField)
        self._install_solve_ivp()
        if self.missing:
            sys.stderr.write("perfbench: layers not found, reported as 0: "
                             f"{', '.join(self.missing)}\n")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _layer_wrapper(self, name, fn):
        if name == "quadrature.integrate_box":
            def before(args, kwargs):
                integrand = args[0]

                def counted(pts):
                    self.count("quadrature.integrate_box.nodes", len(pts))
                    return integrand(pts)

                return (counted,) + tuple(args[1:]), kwargs

            return self.spanned(name, fn, before=before)
        if name == "dynamics.integrate_geodesic":
            def before(args, kwargs):
                if self.current_name() == "dynamics.solve_geodesic_bvp":
                    self.count("dynamics.solve_geodesic_bvp.shots")
                return args, kwargs

            return self.spanned(name, fn, before=before)
        if name == "mre.solve_multiplier":
            inner = self.spanned(name, fn)

            @functools.wraps(fn)
            def solve(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except Exception:
                    self.count("mre.solve_multiplier.failed")
                    raise

            return solve
        if name == "cli.emit":
            def after(paths):
                self.count("cli.emit.bytes",
                           sum(Path(p).stat().st_size for p in paths))

            return self.spanned(name, fn, after=after)
        if name == "threads.parallel_map":
            return self.spanned(name, self._parallel_map(fn))
        return self.spanned(name, fn)

    def _parallel_map(self, fn_map):
        perf = time.perf_counter

        @functools.wraps(fn_map)
        def parallel_map(fn, items):
            # one context copy per item, taken in the calling thread
            jobs = [(contextvars.copy_context(), x) for x in items]
            self.count("threads.parallel_map.items", len(jobs))

            def job(pair):
                t0 = perf()
                try:
                    return pair[0].run(fn, pair[1])
                finally:
                    self.count("threads.parallel_map.busy_ns",
                               int((perf() - t0) * 1e9))

            return fn_map(job, jobs)

        return parallel_map

    def _install_metric_field(self, cls):
        eval_original = cls.__dict__["eval"]
        eval_spanned = self.spanned("models.quadrature_metric_eval",
                                    eval_original)

        @functools.wraps(eval_original)
        def eval_(field, theta):
            self.count("models.metric_eval.calls")
            if field.source == "quadrature":
                return eval_spanned(field, theta)
            return eval_original(field, theta)

        self._patch(cls, "eval", eval_)
        self._patch(cls, "jet", self.spanned("models.metric_jet",
                                             cls.__dict__["jet"]))

    def _install_solve_ivp(self):
        from scipy.integrate import solve_ivp

        for modname in ("igac.dynamics", "igac.scenarios"):
            mod = sys.modules.get(modname)
            if mod is None or getattr(mod, "solve_ivp", None) is not solve_ivp:
                continue
            label = modname.split(".")[1]
            self._patch(mod, "solve_ivp", self._ivp_wrapper(label, solve_ivp))

    def _ivp_wrapper(self, label, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapped(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            owner = self.current_name()
            key = owner if owner.startswith(label + ".") \
                else f"{label}.solve_ivp"
            self.count(f"{key}.nfev", int(sol.nfev))
            if sol.status != 0:
                self.count(f"{label}.solve_ivp.nonzero_status")
            return sol

        return wrapped

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        with self._lock:
            return {k: np.array(v) for k, v in self._cols.items()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        s = self.spans()
        dur = s["end"] - s["start"]
        covered = np.zeros_like(dur)
        pos = {int(i): k for k, i in enumerate(s["idx"])}
        # union of each parent's child intervals, children sorted by start
        order = np.lexsort((s["start"], s["parent"]))
        last_parent, reach = None, -np.inf
        for k in order:
            p = int(s["parent"][k])
            if p < 0 or p not in pos:
                continue
            if p != last_parent:
                last_parent, reach = p, -np.inf
            lo, hi = max(s["start"][k], reach), s["end"][k]
            if hi > lo:
                covered[pos[p]] += hi - lo
            reach = max(reach, hi)
        self_s = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = s["name"] == nid
            out[f"{name}.calls"] = int(np.count_nonzero(mask))
            out[f"{name}.self_s"] = float(np.sum(self_s[mask]))
            out[f"{name}.wall_s"] = float(np.sum(dur[mask]))
        out.update(self.counters)
        out["threads.parallel_map.busy_s"] = \
            self.counters.get("threads.parallel_map.busy_ns", 0) * 1e-9
        return out
