"""igac benchmark: one workload per invocation, every op checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports igac from ``src/``.  Workloads
are listed in ``BENCHMARK.json`` and generated by ``inputs.py``.

The process started here only measures.  Each set-up happens in a fresh
child process: interpreter start, ``import igac``, input generation and one
untimed warm-up op, timed from spawn until the child reports it is ready.
Of the ``SETUP_SAMPLES`` children the last one goes on to run the workload,
and ``setup_s`` is the median set-up time.

With ``--trace 0`` the child runs rounds of ops one after another (a
closed loop with one client) and reports the end-to-end metrics.  The
number of rounds is fixed by ``--seconds`` (``inputs.measured_rounds``:
about that many reference seconds of work at the seed commit), not by the
clock, so a seed always gives the same ops, the same ``attempted`` and the
same ``failed``, however fast the machine runs.  With ``--trace 1`` it
runs a fixed number of rounds twice, untraced and then traced, and reports
per-layer calls, self times and counters plus the tracing overhead (traced
minus untraced wall time); the fixed round count makes the counters repeat
exactly for a seed.  Spans of the traced pass are written to
``.perfbench_out/trace-<workload>.npz``.

Every failed op is printed with its reason.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``correct`` is false when an op returned a wrong result as a
passing one.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
CAL_ITERS = 10000
CAL_EVERY_S = 1.5
REF_SPEED = 1.0e5
SETUP_TIMEOUT_S = 40.0
RUN_TIMEOUT_S = 120.0

# times are reference seconds (see machine_speed)
END_TO_END = (("ok_ops_per_s", "1/s"), ("ok_frac", "ratio"),
              ("cpu_s_per_ok_op", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# parent: spawns the set-up children and prints the result
# ---------------------------------------------------------------------------

def _read_line(proc, deadline):
    """Next stdout line of ``proc``, or None at EOF or past ``deadline``."""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            return None
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            return line if line else None


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def parent(args) -> int:
    # a terminated parent still runs the finally clauses that stop its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    samples = 1 if args.trace else SETUP_SAMPLES
    setups, result = [], None
    for i in range(samples):
        speed = machine_speed()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = _read_line(proc, t0 + SETUP_TIMEOUT_S)
            if line is None or line.strip() != "ready":
                sys.stderr.write("perfbench: set-up failed\n")
                return 1
            wall = time.perf_counter() - t0
            setups.append(wall * 0.5 * (speed + machine_speed()) / REF_SPEED)
            if i < samples - 1:
                proc.stdin.close()
                proc.wait(timeout=30)
                continue
            proc.stdin.write("go\n")
            proc.stdin.close()
            deadline = time.perf_counter() + RUN_TIMEOUT_S
            while (line := _read_line(proc, deadline)) is not None:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
                else:
                    sys.stdout.write(line)
            if proc.wait(timeout=30) != 0 or result is None:
                sys.stderr.write("perfbench: measuring child failed\n")
                return 1
        finally:
            _stop(proc)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        print(f"setup samples (reference s): "
              f"{', '.join(f'{t:.4f}' for t in setups)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# child: set-up, then measurement
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = self.ok = self.wrong = 0
        self.failures = []

    def add(self, op, outcome):
        ok, wrong, reason = outcome
        self.attempted += 1
        self.ok += ok
        self.wrong += wrong
        if not ok:
            tag = "WRONG" if wrong else "FAILED"
            self.failures.append(f"{tag} op {self.attempted} {op['kind']}: "
                                 f"{reason} | inputs {op.get('domain')}")


def machine_speed() -> float:
    """Iterations per second of a fixed loop of 3x3 numpy operations.

    igac's inner loops are of this kind, and load from other processes on
    the machine slows both alike; dividing by this speed turns a time on a
    busy machine into reference seconds (REF_SPEED iterations each).
    """
    import numpy as np

    a = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        b = np.linalg.inv(a)
        float((np.einsum("ab,bc->ac", a, b) @ a)[0, 0])
    return CAL_ITERS / (time.perf_counter() - t0)


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(runner, stream, first, n_rounds):
    """``n_rounds`` rounds, ``first`` and those that follow in ``stream``.

    The machine speed is sampled at op boundaries at least every
    ``CAL_EVERY_S``; the op wall and CPU time between two samples is scaled
    to reference seconds by their mean.
    """
    tally, elapsed, ref_wall, ref_cpu = Tally(), 0.0, 0.0, 0.0
    stretch = [0.0, 0.0]            # op wall and CPU time since last sample
    speed, sampled = machine_speed(), time.perf_counter()

    def close_stretch():
        nonlocal speed, sampled, ref_wall, ref_cpu
        after = machine_speed()
        scale = 0.5 * (speed + after) / REF_SPEED
        ref_wall += stretch[0] * scale
        ref_cpu += stretch[1] * scale
        stretch[:] = [0.0, 0.0]
        speed, sampled = after, time.perf_counter()

    ops = first
    for k in range(n_rounds):
        if k:
            ops = runner.prepare(next(stream), "m")
        for op in ops:
            c0, t0 = _cpu_s(), time.perf_counter()
            tally.add(op, runner.run(op))
            wall = time.perf_counter() - t0
            elapsed += wall
            stretch[0] += wall
            stretch[1] += _cpu_s() - c0
            if time.perf_counter() - sampled >= CAL_EVERY_S:
                close_stretch()
    if stretch[0] > 0:
        close_stretch()
    metrics = {
        "ok_ops_per_s": tally.ok / ref_wall,
        "ok_frac": tally.ok / tally.attempted,
        # with no passing op, the CPU time of all ops stands for one
        "cpu_s_per_ok_op": ref_cpu / max(tally.ok, 1),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{tally.attempted} ops in {elapsed:.3f} s wall = {ref_wall:.3f} "
          f"reference s; ok ops per wall second {tally.ok / elapsed:.6g}",
          flush=True)
    units = dict(END_TO_END)
    return tally, {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}


def measure_traced(igac, runner, stream, first, workload):
    from inputs import TRACE_ROUNDS
    from tracing import PER_LAYER, Tracer

    ops = list(first)
    for k in range(1, TRACE_ROUNDS[workload]):
        ops += runner.prepare(next(stream), f"t{k}")
    tally = Tally()
    t0 = time.perf_counter()
    for op in ops:
        tally.add(op, runner.run(op))
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(igac)
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tally.add(op, tracer.run_op(i, runner.run, op))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"trace-{workload}.npz")
    summary = tracer.summary()
    summary["trace.overhead_s"] = traced - untraced
    print(f"traced {len(ops)} ops: untraced {untraced:.4f} s, traced "
          f"{traced:.4f} s", flush=True)
    return tally, {name: {"value": summary.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}


def child(args) -> int:
    # Linux: end with the parent, even when it is killed outright
    PR_SET_PDEATHSIG = 1
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    sys.path.insert(0, str(ROOT / "src"))
    import igac
    import igac.cli  # the console-script module; igac/__init__ skips it

    if not Path(igac.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: igac imported from {igac.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 1
    import inputs
    from ops import Runner

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(igac, workdir)
        stream = inputs.rounds(args.workload, args.seed)
        first = runner.prepare(next(stream), "m" if not args.trace else "t0")
        runner.run(runner.prepare([inputs.warmup_op(args.workload)],
                                  "w")[0])
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            tally, metrics = measure_traced(igac, runner, stream, first,
                                            args.workload)
        else:
            tally, metrics = measure(
                runner, stream, first,
                inputs.measured_rounds(args.workload, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failures:
        print(line)
    print("RESULT " + json.dumps({
        "attempted": tally.attempted, "failed": tally.attempted - tally.ok,
        "wrong": tally.wrong, "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
