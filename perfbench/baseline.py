"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--write]

Runs ``run.py`` once per (workload, seed), one after another, and prints
per metric the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (Q3 - Q1) / median.  With ``--write`` the summary, the run
environment and the measured commit go to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "IGAC_THREADS": os.environ.get("IGAC_THREADS"),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True).stdout
    wall = time.perf_counter() - t0
    return json.loads(out.strip().splitlines()[-1]), wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res, wall = run_once(workload, seed, bench["run_seconds"])
            runs.append(res)
            print(f"{workload} seed {seed}: wall {wall:.1f} s, attempted "
                  f"{res['attempted']}, failed {res['failed']}, correct "
                  f"{res['correct']}, " + ", ".join(
                      f"{k} {m['value']:.6g}"
                      for k, m in res["metrics"].items()), flush=True)
        summary[workload] = {}
        for m in bench["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            summary[workload][m["name"]] = s
            print(f"  {workload} {m['name']}: median {s['median']:.6g} "
                  f"Q1 {s['q1']:.6g} Q3 {s['q3']:.6g} spread "
                  f"{s['spread']:.4f} (bound {m['bound']})", flush=True)
    if args.write:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
        doc = {"commit": commit or None, "seeds": args.seeds,
               "run_seconds": bench["run_seconds"],
               "environment": environment(), "end_to_end": summary}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
