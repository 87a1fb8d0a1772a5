"""Tests of the benchmark itself: input domains, tracing, output contract.

    python3 -m pytest -q perfbench

The tests do not require ops to pass: the MrE in-cone failures are a known
defect that the benchmark reports as measured.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import igac  # noqa: E402
import igac.cli  # noqa: E402

import inputs  # noqa: E402
from ops import Runner  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SEEDS = (0, 1, 7, 2024, 99991)


def _ops(workload, seed, n_rounds=2):
    stream = inputs.rounds(workload, seed)
    return [op for _ in range(n_rounds) for op in next(stream)]


def test_same_seed_same_inputs_and_seeds_differ():
    for workload in inputs.WORKLOADS:
        a = json.dumps(_ops(workload, 5), default=str)
        assert a == json.dumps(_ops(workload, 5), default=str)
        assert a != json.dumps(_ops(workload, 6), default=str)


@pytest.mark.parametrize("seed", SEEDS)
def test_wavepacket_inputs_below_regime_bound(seed):
    bound = igac.scenarios.ScatterConfig(p0=1.0, sigma0=0.1,
                                         tau0=1.0).r_upper_bound
    assert inputs.wavepacket_r_bound() == pytest.approx(bound, rel=1e-12)
    for op in _ops("wavepacket", seed):
        params = op["config"]["parameters"]
        assert 0.0 < params["r"] < bound
        sweep = params["r_sweep"]
        assert 0.0 < sweep[0] < sweep[1] < sweep[2] < bound


@pytest.mark.parametrize("seed", SEEDS)
def test_iho_frequencies_in_range(seed):
    for op in _ops("iho", seed):
        params = op["config"]["parameters"]
        assert params["l"] == 2 and len(params["omega"]) == 2
        assert all(0.3 <= w <= 2.0 for w in params["omega"])


@pytest.mark.parametrize("seed", SEEDS)
def test_mre_targets_inside_moment_cone(seed):
    families = set()
    for op in _ops("mre", seed, n_rounds=1):
        spec = op["config"]["mre"]
        prior = spec["prior"]
        mean = spec["constraints"][0]["target"]
        var = spec["constraints"][1]["target"] - mean ** 2
        families.add(prior["family"])
        assert var > 0
        if prior["family"] == "exponential":
            assert mean > 0
        if prior["family"] == "uniform":
            lo, hi = prior["lo"], prior["hi"]
            assert lo < mean < hi and var < (hi - mean) * (mean - lo)
    assert families == {"gaussian", "exponential", "uniform"}


def _spread_indices(metric):
    return list(metric.scale_coords)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_manifold_spreads_stay_above_chart_floor(seed):
    dims = set()
    for op in _ops("manifold", seed, n_rounds=1):
        dims.add(op["dim"])
        if op["command"] in ("geodesic", "ige"):
            cfg = op["config"]
            metric = igac.cli.build_metric(cfg["manifold"])
            path = igac.dynamics.integrate_geodesic(
                metric, cfg["theta0"], cfg["v0"], cfg["tau_end"])
            lowest = path.theta[:, _spread_indices(metric)].min()
            bound = op["domain"]["min_spread"]
            assert bound > 1e3 * inputs.CHART_FLOOR
            assert lowest >= bound * (1 - 1e-9)
        elif op["command"] is None:
            spec = op["bvp"]
            metric = igac.cli.build_metric(spec["manifold"])
            for pt in (spec["theta_init"], spec["theta_final"]):
                spreads = np.asarray(pt)[_spread_indices(metric)]
                assert spreads.min() >= op["domain"]["min_spread"]
            assert op["domain"]["min_spread"] > 1e3 * inputs.CHART_FLOOR
        else:
            metric = igac.cli.build_metric(op["config"]["manifold"])
            theta = np.asarray(op["config"]["theta"])
            assert theta[_spread_indices(metric)].min() >= 0.5
    assert min(dims) == 2 and max(dims) == 8


def test_closed_form_curvature_matches_igac():
    for op in _ops("manifold", 3, n_rounds=1):
        if op["kind"].startswith("curvature/"):
            cfg = op["config"]
            metric = igac.cli.build_metric(cfg["manifold"])
            got = igac.geometry.ricci_scalar(metric, cfg["theta"])
            assert got == pytest.approx(op["expect"]["ricci_scalar"],
                                        rel=1e-6, abs=1e-6)


def _traced_counts(workload, seed, workdir, n_ops):
    runner = Runner(igac, workdir)
    ops = runner.prepare(next(inputs.rounds(workload, seed))[:n_ops], "t")
    tracer = Tracer()
    tracer.install(igac)
    try:
        for i, op in enumerate(ops):
            tracer.run_op(i, runner.run, op)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    timed = [k for k in summary if k.endswith(("_s", "_ns"))]
    return {k: v for k, v in summary.items() if k not in timed}, summary


@pytest.mark.parametrize("workload,n_ops", [("manifold", 28), ("mre", 48)])
def test_trace_counters_repeat_exactly(workload, n_ops, tmp_path):
    first, summary = _traced_counts(workload, 11, tmp_path / "a", n_ops)
    second, _ = _traced_counts(workload, 11, tmp_path / "b", n_ops)
    assert first == second
    assert first["op.calls"] == n_ops
    # self times partition each op's wall time when nothing runs in threads
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(summary["op.wall_s"], rel=1e-9)
    if workload == "manifold":
        for key in ("dynamics.integrate_geodesic.nfev",
                    "dynamics.solve_geodesic_bvp.shots",
                    "quadrature.integrate_box.nodes",
                    "models.quadrature_metric_eval.calls",
                    "geometry.curvature_report.calls", "cli.emit.bytes"):
            assert first[key] > 0, key
    else:
        assert first["mre.solve_multiplier.calls"] == n_ops


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {
        (igac.complexity, "integrate_box"): igac.complexity.integrate_box,
        (igac.quadrature, "integrate_box"): igac.quadrature.integrate_box,
        (igac.scenarios, "parallel_map"): igac.scenarios.parallel_map,
        (igac.dynamics, "solve_ivp"): igac.dynamics.solve_ivp,
        (igac.scenarios, "solve_ivp"): igac.scenarios.solve_ivp,
        (igac.models.MetricField, "jet"): igac.models.MetricField.jet,
        (igac.models.MetricField, "eval"): igac.models.MetricField.eval,
    }
    tracer = Tracer()
    tracer.install(igac)
    try:
        assert not tracer.missing
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr


def test_worker_thread_spans_keep_parent_and_op():
    metric = igac.cli.build_metric({"kind": "gaussian_diag", "means": [0.0],
                                    "sigmas": [1.0]})
    tracer = Tracer()
    tracer.install(igac)
    try:
        tracer.run_op(7, igac.scenarios.parallel_map,
                      lambda s: igac.geometry.christoffel(metric, [0.0, s]),
                      [1.0, 2.0, 3.0, 4.0])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = np.array(tracer.names)[spans["name"]]
    pmap = spans["idx"][names == "threads.parallel_map"]
    assert pmap.size == 1
    chris = names == "geometry.christoffel"
    assert chris.sum() == 4
    assert np.all(spans["parent"][chris] == pmap[0])
    assert np.all(spans["op"] == 7)
    summary = tracer.summary()
    assert summary["threads.parallel_map.items"] == 4
    assert summary["threads.parallel_map.busy_s"] > 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_run_prints_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "mre", "--seed", "3", "--seconds",
                    "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want
        # every failed op is listed with its reason
        listed = [ln for ln in proc.stdout.splitlines()
                  if ln.startswith(("FAILED op", "WRONG op"))]
        assert len(listed) == result["failed"]
    assert {n for n, _ in PER_LAYER} == {m["name"] for m in bench["per_layer"]}


def test_run_repeats_its_ops_and_failures_for_a_seed():
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "mre", "--seed", "5", "--seconds",
                    "2", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    want = inputs.measured_rounds("mre", 2) * 3 * inputs.MRE_DRAWS_PER_PRIOR
    assert results[0]["attempted"] == results[1]["attempted"] == want
    assert results[0]["failed"] == results[1]["failed"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mre", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
