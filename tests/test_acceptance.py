"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value here is either analytically forced, was
computed through an independent oracle (enumeration, exhaustive search),
or is a published benchmark figure with its stated tolerance.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from relialloc import (
    Allocation,
    ReliabilityAssignment,
    balanced_allocation,
    brute_force_optimal,
    empirical_variance,
    lagrange_decomposition,
    lower_bound_subsystem,
    lower_bound_system,
    replication_rng,
    rule_allocation,
    run_convergence_sweep,
    run_fixed_split_experiment,
    run_hybrid_expectation,
    simulate_fixed_allocation,
    subsystem_variance,
    system_variance,
)
from relialloc.cases import load_case
from relialloc.cli import main as cli_main

from conftest import random_allocation, random_assignment

MASTER_SEED = 20260808


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_variance_and_monte_carlo_agreement():
    start = time.time()
    a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
    alloc = Allocation(a.topology, ((10, 10), (10, 10)))
    exact = system_variance(a, alloc)
    exact_ok = abs(exact - 0.014937890625) < 1e-12

    r_hats = simulate_fixed_allocation(a, alloc, 1_000_000, replication_rng(MASTER_SEED, 0, 0))
    var, se = empirical_variance(r_hats)
    mc_ok = abs(var - exact) < 3 * se
    elapsed = time.time() - start
    report(
        "criterion 1 (exact variance + Monte Carlo)",
        exact_ok and mc_ok and elapsed < 10.0,
        f"exact={exact!r} mc={var:.8f} se={se:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_budget_table_reproduction():
    expected = {"A": 16, "B": 11, "C": 4, "D": 12}
    observed = {}
    for name, target in expected.items():
        observed[name] = run_hybrid_expectation(
            load_case(name), 20, 20_000, MASTER_SEED
        ).rounded_t1
    ok = all(abs(observed[k] - expected[k]) <= 2 for k in expected)
    report(
        "criterion 2 (mean first-block budget, cases A-D)",
        ok,
        f"observed={observed} expected={expected} tolerance=+/-2",
    )


def test_criterion_3_fixed_split_minimum_location():
    targets = {"C": 4, "A": 16}
    details = []
    ok = True
    for name, target in targets.items():
        points = run_fixed_split_experiment(load_case(name), 20, 10_000, MASTER_SEED)
        best = min(points, key=lambda p: p.var_hat)
        details.append(f"case {name}: argmin T1={best.t1} (target {target})")
        ok = ok and abs(best.t1 - target) <= 2
    report("criterion 3 (variance-minimizing split)", ok, "; ".join(details))


def test_criterion_4_convergence_of_the_hybrid_design():
    small, large = run_convergence_sweep(
        load_case("chain_2_3_4_5"), (100, 6400), 5_000, MASTER_SEED
    )
    decreasing = large.excess < small.excess
    ratio = large.var_hat / large.q_bound
    lower = 1.0 - 3 * large.se / large.q_bound
    ratio_ok = lower <= ratio <= 1.10
    report(
        "criterion 4 (excess-of-variance convergence)",
        decreasing and ratio_ok,
        f"excess(100)={small.excess:.4f} excess(6400)={large.excess:.4f} "
        f"Var/Q(6400)={ratio:.4f} in [{lower:.4f}, 1.10]",
    )


def test_criterion_5_bound_dominance_property_suite():
    rng = np.random.default_rng(MASTER_SEED)
    worst = np.inf
    for _ in range(1000):
        a = random_assignment(rng, max_blocks=4, max_slots=4, lo=0.05, hi=0.95)
        alloc = random_allocation(rng, a, lo=1, hi=50)
        gap = system_variance(a, alloc) - lower_bound_system(a, alloc.total)
        worst = min(worst, gap)
        for j in range(a.topology.subsystem_count):
            gap_j = subsystem_variance(a, j, alloc) - lower_bound_subsystem(
                a, j, sum(alloc.block(j))
            )
            worst = min(worst, gap_j)
    report(
        "criterion 5 (bound dominance, 1000 random systems)",
        worst >= -1e-12,
        f"smallest Var-Q gap={worst:.3e}",
    )


def test_criterion_6_lagrange_identity_property_suite():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        numerators = rng.uniform(1e-3, 1e3, size=k)
        sizes = rng.uniform(1e-2, 1e2, size=k)
        leading, remainder = lagrange_decomposition(numerators, sizes)
        direct = float(np.sum(numerators / sizes))
        worst = max(worst, abs(leading + remainder - direct) / direct)
    report(
        "criterion 6 (Lagrange identity, 1000 random instances)",
        worst <= 1e-10,
        f"worst relative error={worst:.3e}",
    )


def _small_instance(rng):
    """System with at most 5 component slots and a budget of at most 30."""
    while True:
        n_blocks = int(rng.integers(1, 3))
        sizes = [int(rng.integers(1, 5)) for _ in range(n_blocks)]
        if sum(sizes) <= 5:
            break
    blocks = [
        [float(rng.uniform(0.05, 0.95)) for _ in range(size)] for size in sizes
    ]
    a = ReliabilityAssignment.from_blocks(blocks)
    total = int(rng.integers(a.topology.component_count, 31))
    return a, total


def test_criterion_7_rule_near_optimality_against_oracle():
    # Passes at its pinned seed, but the closed-form rule is first-order (it
    # ignores the product cross terms): on a small tail of random instances
    # at these sizes (about 1.5%, worst about 2x) its integer allocation
    # exceeds 1.25x the exhaustive optimum, so this 50-instance sample is a
    # check, not a guarantee. The bound is asserted as stated rather than
    # widened to fit.
    a = ReliabilityAssignment.from_blocks([[0.9, 0.5]])
    best, best_var = brute_force_optimal(a, 4, 1)
    pinned_ok = best.counts == ((3, 1),) and abs(best_var - 0.0175) < 1e-12

    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_ratio = 1.0
    violators = []
    for _ in range(50):
        system, total = _small_instance(rng)
        _, optimal_var = brute_force_optimal(system, total, 1)
        ruled_var = system_variance(system, rule_allocation(system, total))
        assert ruled_var >= optimal_var - 1e-12
        ratio = ruled_var / optimal_var
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.25:
            blocks = [[round(v, 3) for v in b] for b in system.values]
            violators.append(f"ratio={ratio:.3f} T={total} blocks={blocks}")
    detail = f"pinned optimum ok={pinned_ok}, worst rule/optimal ratio={worst_ratio:.4f}"
    if violators:
        detail += "; over-bound instances: " + " | ".join(violators)
    report(
        "criterion 7 (rule vs exhaustive oracle)",
        pinned_ok and worst_ratio <= 1.25,
        detail,
    )


def test_criterion_8_wide_parallel_block_example():
    a = load_case("parallel_four")
    balanced_var = system_variance(a, balanced_allocation(a.topology, 100))
    ruled_var = system_variance(a, rule_allocation(a, 100))
    balanced_ok = balanced_var == pytest.approx(1.4231e-6, rel=1e-3)
    ratio = balanced_var / ruled_var
    report(
        "criterion 8 (rule beats balanced on the wide block)",
        balanced_ok and ruled_var < balanced_var and ratio >= 2.0,
        f"balanced={balanced_var:.4e} rule={ruled_var:.4e} ratio={ratio:.2f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    sim_args = ["simulate", "case:A", "--T", "20", "--reps", "60", "--seed", "11"]
    blobs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 4)):
        out = tmp_path / name
        result = runner.invoke(cli_main, sim_args + ["--out", str(out), "--threads", str(threads)])
        assert result.exit_code == 0, result.output
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        meta.pop("output")
        blobs.append((out.read_bytes(), json.dumps(meta, sort_keys=True)))
    sim_ok = blobs[0] == blobs[1] == blobs[2]

    exp_args = [
        "experiment", "--convergence", "--system", "case:chain_2_3_4_5",
        "--sweep", "100:200:100", "--reps", "40", "--seed", "11",
    ]
    exp_blobs = []
    for name, threads in (("e1.csv", 1), ("e2.csv", 2)):
        out = tmp_path / name
        result = runner.invoke(cli_main, exp_args + ["--out", str(out), "--threads", str(threads)])
        assert result.exit_code == 0, result.output
        exp_blobs.append(out.read_bytes())
    exp_ok = exp_blobs[0] == exp_blobs[1]

    report(
        "criterion 9 (byte-identical reruns, thread-independent)",
        sim_ok and exp_ok,
        f"simulate identical={sim_ok} experiment identical={exp_ok}",
    )
