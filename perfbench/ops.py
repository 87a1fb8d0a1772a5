"""Running one benchmark op and judging its result.

An op is one in-process ``igac.cli.main`` call on a YAML config written
during set-up, or, for two-point geodesics (which the CLI does not expose),
one ``igac.dynamics.solve_geodesic_bvp`` call.  An op fails when it raises,
exits non-zero, reports a check with ``pass: false``, misses its BVP
tolerance, or disagrees with the benchmark's own closed form.  The last case,
and a report that fails a check while the CLI exits 0, are wrong answers
given as right ones: they make the run incorrect, not merely failed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import yaml


# libyaml's emitter when PyYAML was built with it: rounds of the mre
# workload write hundreds of configs between timed stretches
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class Runner:
    """Executes ops against the igac package imported by the caller."""

    def __init__(self, igac, workdir: Path):
        self.cli = igac.cli
        self.dynamics = igac.dynamics
        self.workdir = Path(workdir)
        self.outdir = self.workdir / "out"
        self.report = self.outdir / "report.json"

    def prepare(self, ops: list, tag: str) -> list:
        """Write the config files of a list of ops, named by ``tag`` and
        position; done before timing starts."""
        for i, op in enumerate(ops):
            if op.get("command"):
                path = self.workdir / "configs" / f"{tag}-{i}.yaml"
                path.parent.mkdir(parents=True, exist_ok=True)
                cfg = dict(op["config"],
                           output={"directory": str(self.outdir),
                                   "formats": ["json", "csv"]})
                path.write_text(yaml.dump(cfg, Dumper=_DUMPER,
                                          sort_keys=False))
                op["path"] = str(path)
        return ops

    def run(self, op: dict):
        """(ok, wrong, reason): wrong marks an incorrect result given as ok."""
        if op.get("command") is None:
            return self._run_bvp(op["bvp"])
        self.report.unlink(missing_ok=True)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main([op["command"], "--config", op["path"]])
        except Exception as exc:  # an uncaught error is a failed op
            return False, False, f"raised {type(exc).__name__}: {exc}"
        if code != 0 and not self.report.exists():
            return False, False, f"exit {code}: {_first_line(err)}"
        payload = json.loads(self.report.read_text())
        bad = [c["name"] for c in payload["checks"] if not c["pass"]]
        if bad:
            return False, code == 0, f"exit {code}: failed checks {bad}"
        if code != 0:
            return False, False, f"exit {code}: {_first_line(err)}"
        reason = verify(op, payload)
        return reason is None, reason is not None, reason

    def _run_bvp(self, spec):
        try:
            metric = self.cli.build_metric(spec["manifold"])
            path = self.dynamics.solve_geodesic_bvp(
                metric, spec["theta_init"], spec["theta_final"],
                spec["tau_span"], tol=spec["tol"])
        except Exception as exc:  # BvpFailureError and friends
            return False, False, f"raised {type(exc).__name__}: {exc}"
        miss = float(np.linalg.norm(path.theta[-1] - spec["theta_final"]))
        start = float(np.max(np.abs(path.theta[0] - spec["theta_init"])))
        if miss > spec["tol"] or start > 1e-12:
            return False, True, (f"endpoint misses by {miss:.3g} "
                                 f"(tol {spec['tol']}), start by {start:.3g}")
        return True, False, None


def _first_line(buf: io.StringIO) -> str:
    text = buf.getvalue().strip()
    return text.splitlines()[0][:200] if text else "(no message)"


def verify(op: dict, payload: dict):
    """Benchmark-side oracle for a passing report; a reason string or None."""
    expect = op.get("expect")
    if expect:
        got = payload["observables"]["ricci_scalar"]
        want = expect["ricci_scalar"]
        if abs(got - want) > expect["rel_tol"] * max(1.0, abs(want)):
            return f"ricci scalar {got} against closed form {want}"
    if op["kind"] == "mre/gaussian":
        # a N(0, 1) prior tilted by exp(b1 x + b2 x^2) is N(m, v):
        # b1 = m / v, b2 = 1/2 - 1 / (2 v)
        dom = op["domain"]
        var = dom["second"] - dom["mean"] ** 2
        want = np.array([dom["mean"] / var, 0.5 - 0.5 / var])
        got = np.asarray(payload["observables"]["beta"], float)
        if np.max(np.abs(got - want)) > 1e-6 * max(1.0, np.max(np.abs(want))):
            return f"beta {got.tolist()} against closed form {want.tolist()}"
    return None
