"""relialloc benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

  table1          ``relialloc experiment --table1`` at T=20 over cases A-D
  simulate_chain  ``relialloc simulate case:chain_2_3_4_5 --T 6400 --scheme hybrid``
  exact_alloc     a seeded stream of rule-allocation and evaluation queries,
                  2% of them brute-force certified, run through the library

Load is closed-loop: one caller in one process at a time. The CLI runs
with its default thread count. Every command's output is checked; a
failed check fails that operation and makes ``correct`` false.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same work untraced and once more under the span
tracer, and reports the per-layer metrics. The last line of standard
output is the JSON result; earlier lines name every metric with its unit
and give the machine record. Everything the run writes goes under
``.perfbench-runs/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-runs"

#: Fresh interpreter starts per run; ``setup_s`` is their median.
SETUP_STARTS = 7
#: A run always makes at least this many CLI invocations, so medians exist.
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit. Metrics a workload
#: does not exercise read 0.
PER_LAYER = {
    "experiments.replication_rng.calls": "count",
    "experiments.replication_rng.self_s": "s",
    "experiments.rep_concurrency": "ratio",
    "adaptive_sampling.hybrid_two_stage.calls": "count",
    "adaptive_sampling.hybrid_two_stage.p50_us": "us",
    "adaptive_sampling.hybrid_two_stage.p99_us": "us",
    "adaptive_sampling.two_stage_subsystem.calls": "count",
    "adaptive_sampling.draw_many.calls": "count",
    "adaptive_sampling.draw_many.self_s": "s",
    "adaptive_sampling.draws": "count",
    "adaptive_sampling.mle_cv.calls": "count",
    "adaptive_sampling.mle_cv.clamped": "count",
    "adaptive_sampling.clamped_share": "ratio",
    "allocation.integerize.calls": "count",
    "allocation.integerize.self_s": "s",
    "allocation.rule_allocation.calls": "count",
    "allocation.rule_allocation.p50_us": "us",
    "allocation.brute_force_optimal.calls": "count",
    "allocation.brute_force_optimal.candidates": "count",
    "allocation.brute_force_optimal.us_per_candidate": "us",
    "variance_analysis.system_variance.calls": "count",
    "variance_analysis.system_variance.p50_us": "us",
    "variance_analysis.lower_bound_system.calls": "count",
    "variance_analysis.lower_bound_system.p50_us": "us",
    "system_model.subsystem_reliability.calls": "count",
    "system_model.subsystem_reliability.calls_per_op": "1/op",
    "system_model.coeff_variation.calls": "count",
    "system_model.coeff_variation.calls_per_op": "1/op",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "experiments.self_s": "s",
    "adaptive_sampling.self_s": "s",
    "allocation.self_s": "s",
    "variance_analysis.self_s": "s",
    "system_model.self_s": "s",
    "trace.overhead": "ratio",
    "variance_analysis.max_rel_err": "ratio",
    "variance_analysis.bound_violations": "count",
    "variance_analysis.probe_max_rel_err": "ratio",
    "variance_analysis.probe_bound_violations": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("RELIALLOC_SEED", None)
    return env


@dataclass(frozen=True)
class Child:
    code: int
    start: float
    wall_s: float
    rss_mb: float


def run_child(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child process; wall time from spawn to reap, its own peak RSS.

    ``os.wait4`` gives the rusage of this child alone (not the cumulative
    ``RUSAGE_CHILDREN``). A watchdog kills a child that outlives ``timeout``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024.0)


def measure_setup(cases: tuple[str, ...], work: Path) -> float:
    """Median wall time of fresh interpreters importing the CLI and loading
    the workload's bundled systems."""
    code = "import sys, relialloc.cli; from relialloc.cases import load_case; [load_case(n) for n in sys.argv[1:]]"
    walls = []
    for _ in range(SETUP_STARTS):
        child = run_child([sys.executable, "-c", code, *cases], work / "setup.log")
        if child.code:
            raise BenchError(f"setup start failed with exit code {child.code}: {(work / 'setup.log').read_text()}")
        walls.append(child.wall_s)
    return statistics.median(walls)


# ---------------------------------------------------------------- checks

TABLE1_T = 20
#: Criterion-2 targets for the rounded mean first-block budget, tolerance 2.
TABLE1_TARGETS = {"A": 16, "B": 11, "C": 4, "D": 12}
TABLE1_TOLERANCE = 2
CHAIN_CASE = "chain_2_3_4_5"
CHAIN_T = 6400
#: Criterion-4 upper limit on Var/Q at T=6400.
CHAIN_VAR_RATIO = 1.10


def check_table1(out: Path, reps: int) -> list[str]:
    failures = []
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    got = {row["case"]: int(row["rounded_T1"]) for row in rows}
    if sorted(got) != sorted(TABLE1_TARGETS) or len(rows) != len(TABLE1_TARGETS):
        failures.append(f"expected one row per case {sorted(TABLE1_TARGETS)}, got {[r['case'] for r in rows]}")
    for case, target in TABLE1_TARGETS.items():
        if case in got and abs(got[case] - target) > TABLE1_TOLERANCE:
            failures.append(f"case {case}: rounded_T1={got[case]}, target {target} +/- {TABLE1_TOLERANCE}")
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    if meta["config"]["reps"] != reps:
        failures.append(f"sidecar reps {meta['config']['reps']} != {reps}")
    for case, totals in meta["mean_block_totals"].items():
        if abs(sum(totals) - TABLE1_T) > 1e-9 * TABLE1_T:
            failures.append(f"case {case}: mean_block_totals {totals} sum to {sum(totals)!r}, not {TABLE1_T}")
    return failures


def check_chain(out: Path, reps: int) -> list[str]:
    from relialloc import lower_bound_system
    from relialloc.cases import load_case

    system = load_case(CHAIN_CASE)
    sizes = system.topology.block_sizes
    n = len(sizes)
    failures = []
    with open(out, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    expected = ["rep", "R_hat"] + [f"T_{j + 1}" for j in range(n)]
    expected += [f"M_{i + 1}_{j + 1}" for j in range(n) for i in range(sizes[j])]
    if header != expected:
        failures.append(f"header {header} != {expected}")
        return failures
    if len(rows) != reps + 1 or rows[-1][0] != "mean":
        failures.append(f"expected {reps} replication rows and a mean row, got {len(rows)} rows")
    for row in rows[:-1]:
        totals = [int(v) for v in row[2 : 2 + n]]
        flat = [int(v) for v in row[2 + n :]]
        bad = []
        if sum(totals) != CHAIN_T:
            bad.append(f"sum T_j = {sum(totals)}")
        pos = 0
        for j, size in enumerate(sizes):
            if sum(flat[pos : pos + size]) != totals[j]:
                bad.append(f"block {j + 1} M sum {sum(flat[pos : pos + size])} != T_{j + 1}={totals[j]}")
            pos += size
        if min(flat) < 1:
            bad.append("a component has M < 1")
        if bad:
            failures.append(f"rep {row[0]}: " + "; ".join(bad))
            if len(failures) >= 5:
                break
    summary = json.loads(out.with_suffix(".meta.json").read_text())["summary"]
    var, se = summary["var_R_hat"], summary["se_var"]
    q = lower_bound_system(system, CHAIN_T)
    low, high = q - 3 * se, CHAIN_VAR_RATIO * q + 3 * se
    if not low <= var <= high:
        failures.append(f"var_R_hat={var:.6g} outside [{low:.6g}, {high:.6g}] (Q={q:.6g}, se={se:.3g})")
    return failures


@dataclass(frozen=True)
class CliWorkload:
    name: str
    command: tuple[str, ...]
    cases: tuple[str, ...]
    reps: int
    check: Callable[[Path, int], list[str]]

    def args(self, seed: int, reps: int, out: Path) -> list[str]:
        return [*self.command, "--reps", str(reps), "--seed", str(seed), "--out", str(out)]

    def run_check(self, out: Path, reps: int) -> list[str]:
        """The output checks; unreadable output fails the check."""
        try:
            return self.check(out, reps)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


CLI_WORKLOADS = {
    "table1": CliWorkload(
        "table1", ("experiment", "--table1", "--T", str(TABLE1_T)),
        ("A", "B", "C", "D"), 1000, check_table1,
    ),
    "simulate_chain": CliWorkload(
        "simulate_chain", ("simulate", f"case:{CHAIN_CASE}", "--T", str(CHAIN_T), "--scheme", "hybrid"),
        (CHAIN_CASE,), 1000, check_chain,
    ),
}
WORKLOADS = (*CLI_WORKLOADS, "exact_alloc")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    report: list[tuple[str, float, str]]
    failures: list[str]
    accuracy: dict[str, float]
    samples: dict[str, list[float]] = field(default_factory=dict)


def _invocation_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def run_cli_workload(wl: CliWorkload, seed: int, seconds: float, trace: bool,
                     work: Path, reps: int | None = None) -> Result:
    """Invoke the CLI back to back for ``seconds``; one invocation at a time."""
    reps = reps or wl.reps
    setup = None if trace else measure_setup(wl.cases, work)
    runs: list[Child] = []
    failures: list[str] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        k = len(runs)
        out = work / f"run{k}.csv"
        child = run_child(
            [sys.executable, "-m", "relialloc.cli", *wl.args(_invocation_seed(seed, k), reps, out)],
            work / f"run{k}.log",
        )
        runs.append(child)
        bad = [f"exit code {child.code}: {(work / f'run{k}.log').read_text()[-500:]}"] if child.code else wl.run_check(out, reps)
        if bad:
            failed += 1
            failures += [f"{wl.name} run {k}: {msg}" for msg in bad]
    walls = [r.wall_s for r in runs]
    rates = [reps / w for w in walls]
    report = [
        ("reps_per_s", statistics.median(rates), "replications/s"),
        ("reps_per_s_total", reps * len(runs) / sum(walls), "replications/s"),
        ("cli_wall_p50_s", statistics.median(walls), "s"),
        ("peak_rss_mb", statistics.median(r.rss_mb for r in runs), "MB"),
        ("error_rate", failed / len(runs), "failed/attempted"),
        ("invocations", len(runs), "count"),
        ("replications_per_invocation", reps, "count"),
    ]
    attempted = len(runs)
    if not trace:
        report.insert(0, ("setup_s", setup, "s"))
        metrics = {
            "setup_s": setup,
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        return Result(not failures, attempted, failed, metrics, report, failures, {}, {"cli_wall_s": walls})

    out = work / "traced.csv"
    summary_path = work / "traced.summary.json"
    spans_path = WORK / f"{wl.name}.spans.jsonl"
    traced = run_child(
        [sys.executable, str(HERE / "traced_cli.py"), str(summary_path), str(spans_path),
         f"{wl.name}-{seed}", str(reps), "--", *wl.args(_invocation_seed(seed, 0), reps, out)],
        work / "traced.log",
    )
    attempted += 1
    bad = [f"exit code {traced.code}: {(work / 'traced.log').read_text()[-500:]}"] if traced.code else wl.run_check(out, reps)
    if not bad and out.read_bytes() != (work / "run0.csv").read_bytes():
        bad.append("traced output differs from the untraced output of the same seed")
    if bad:
        failed += 1
        failures += [f"{wl.name} traced run: {msg}" for msg in bad]
        if not summary_path.exists():
            return Result(False, attempted, failed, {}, report, failures, {})
    summary = json.loads(summary_path.read_text())
    traced_wall = summary.pop("command_end") - traced.start
    metrics = dict(summary)
    metrics["cli.output_bytes"] = out.stat().st_size + out.with_suffix(".meta.json").stat().st_size
    metrics["trace.overhead"] = traced_wall / statistics.median(walls)
    metrics.update({f"variance_analysis.{k}": 0 for k in
                    ("max_rel_err", "bound_violations", "probe_max_rel_err", "probe_bound_violations")})
    return Result(not failures, attempted, failed, metrics, report, failures, {})


def run_exact_alloc(seed: int, seconds: float, trace: bool, work: Path, pool: int | None = None) -> Result:
    """Run the query stream in one child process, then check it exactly."""
    import exact_alloc

    pool = pool or exact_alloc.POOL
    setup = None if trace else measure_setup(exact_alloc.PROBE_CASES, work)
    out = work / "exact.json"
    child = run_child(
        [sys.executable, str(HERE / "exact_alloc.py"), "--seed", str(seed), "--seconds", str(seconds),
         "--pool", str(pool), "--trace", str(int(trace)), "--out", str(out)],
        work / "exact.log",
    )
    if child.code:
        failure = f"exact_alloc child exit code {child.code}: {(work / 'exact.log').read_text()[-1000:]}"
        return Result(False, 1, 1, {}, [], [failure], {})
    data = json.loads(out.read_text())
    queries = exact_alloc.make_queries(seed, pool)
    bad, accuracy = exact_alloc.check_results(queries, data["results"])
    accuracy.update(exact_alloc.accuracy_probe())
    failures = [msg for _, msg in bad] + data["errors"]
    failed = data["failed"] + len({k for k, _ in bad})
    attempted = data["attempted"]
    report = [
        ("queries_per_s", data["queries_per_s"], "queries/s"),
        ("query_p50_us", data["p50_us"], "us"),
        ("query_p99_us", data["p99_us"], "us"),
        ("latency_samples", data["samples"], "count"),
        ("peak_rss_mb", child.rss_mb, "MB"),
        ("error_rate", failed / attempted, "failed/attempted"),
        ("pool_passes", data["passes"], "count"),
    ]
    if trace:
        metrics = dict(data["trace"])
        metrics["cli.output_bytes"] = 0
        metrics.update({f"variance_analysis.{k}": v for k, v in accuracy.items()})
        spans = out.with_suffix(".spans.jsonl")
        if spans.exists():
            spans.replace(WORK / "exact_alloc.spans.jsonl")
    else:
        report.insert(0, ("setup_s", setup, "s"))
        metrics = {
            "setup_s": setup,
            "ops_per_s": data["queries_per_s"],
            "op_p50_ms": data["p50_us"] / 1e3,
            "peak_rss_mb": child.rss_mb,
        }
    return Result(not failures, attempted, failed, metrics, report, failures, accuracy,
                  {"pass_s": data["pass_s"]})


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cli_threads": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> Result:
    """Run one workload in a fresh scratch directory under ``.perfbench-runs``.

    ``size`` overrides the replications per invocation (CLI workloads) or
    the query pool (``exact_alloc``); the benchmark's own tests use it.
    """
    work = WORK / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name == "exact_alloc":
            return run_exact_alloc(seed, seconds, trace, work, size)
        return run_cli_workload(CLI_WORKLOADS[name], seed, seconds, trace, work, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _require_sources() -> None:
    if not (SRC / "relialloc" / "__init__.py").is_file():
        raise BenchError(f"relialloc sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relialloc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        _require_sources()
        machine = machine_record()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    if result.correct and set(result.metrics) != set(units):
        print(f"error: metric set mismatch: {sorted(set(result.metrics) ^ set(units))}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{result.attempted} attempted, {result.failed} failed")
    for name, value, unit in result.report:
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        for name in PER_LAYER:
            if name in result.metrics:
                print(f"  {name} = {result.metrics[name]:.6g} {PER_LAYER[name]}")
    if result.accuracy:
        print(f"accuracy (not gated): {json.dumps(result.accuracy, sort_keys=True)}")
    for msg in result.failures[:20]:
        print(f"FAILED CHECK: {msg}")

    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in units.items() if name in result.metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "report": {n: [v, u] for n, v, u in result.report},
        "accuracy": result.accuracy, "failures": result.failures, "metrics": metrics,
        "samples": result.samples,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
