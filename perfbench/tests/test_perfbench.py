"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import exact_alloc  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, installed_wrappers  # noqa: E402

import relialloc  # noqa: E402
import relialloc.cli  # noqa: E402

TINY = {"table1": 200, "simulate_chain": 20, "exact_alloc": 100}


def test_tracer_wraps_every_binding_and_restores_the_originals():
    original = relialloc.adaptive_sampling.hybrid_two_stage
    assert installed_wrappers() == []
    tracer = Tracer("test")
    tracer.install()
    try:
        wrapped = installed_wrappers()
        for name in (
            "relialloc.adaptive_sampling.hybrid_two_stage",
            "relialloc.cli.hybrid_two_stage",
            "relialloc.experiments.hybrid_two_stage",
            "relialloc.hybrid_two_stage",
            "relialloc.adaptive_sampling.SimulatedSource.draw_many",
        ):
            assert name in wrapped
        assignment = relialloc.cases.load_case("A")
        rng = relialloc.replication_rng(1, 0, 0)
        relialloc.hybrid_two_stage(
            relialloc.SimulatedSource(assignment, rng), assignment.topology, 20
        )
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert relialloc.cli.hybrid_two_stage is original
    names = {span[1] for span in tracer.spans}
    assert {"adaptive_sampling.hybrid_two_stage", "adaptive_sampling.draw_many"} <= names
    draws = sum(s[7] for s in tracer.spans if s[1] == "adaptive_sampling.draw_many")
    assert draws == 20


def test_untraced_pass_installs_no_wrappers_and_traced_pass_removes_them():
    out = exact_alloc.child(seed=5, seconds=0, pool=60, trace=False)
    assert "trace" not in out and installed_wrappers() == []
    out = exact_alloc.child(seed=5, seconds=0, pool=60, trace=True)
    assert out["trace"]["allocation.rule_allocation.calls"] == 60
    assert installed_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_untraced_run_passes_its_checks(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, size=TINY[workload])
    assert result.failures == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert set(result.metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in result.metrics.values())
    assert installed_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    reps = TINY[workload]
    result = run.run_workload(workload, seed=4, seconds=0, trace=True, size=reps)
    assert result.failures == []
    assert set(result.metrics) == set(run.PER_LAYER)
    m = result.metrics
    assert m["trace.overhead"] > 0
    if workload == "table1":
        assert m["adaptive_sampling.draws"] == run.TABLE1_T * len(run.TABLE1_TARGETS) * reps
        assert m["adaptive_sampling.hybrid_two_stage.calls"] == len(run.TABLE1_TARGETS) * reps
    elif workload == "simulate_chain":
        assert m["adaptive_sampling.draws"] == run.CHAIN_T * reps
        assert m["cli.output_bytes"] > 0
    else:
        assert m["adaptive_sampling.draws"] == 0
        assert m["allocation.brute_force_optimal.calls"] == reps // exact_alloc.ORACLE_EVERY
        assert m["variance_analysis.system_variance.calls"] > 0


def test_exact_check_catches_a_wrong_variance():
    queries = exact_alloc.make_queries(7, 60)
    out = exact_alloc.child(seed=7, seconds=0, pool=60, trace=False)
    results = json.loads(json.dumps(out["results"]))
    assert exact_alloc.check_results(queries, results)[0] == []
    results[3]["var"] *= 1 + 10 * exact_alloc.REL_TOL
    results[5]["counts"][0][0] += 1
    bad = exact_alloc.check_results(queries, results)[0]
    assert {k for k, _ in bad} == {3, 5}


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
