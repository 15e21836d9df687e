"""Seeded Monte Carlo experiment harness.

Three experiment drivers, each a pure function of its arguments (system,
budget or budgets, replication count, master seed):

  run_fixed_split_experiment  variance of the estimate as the two-block
                              budget split varies, the pilot floor apart
  run_hybrid_expectation      mean realized first-block budget under the
                              hybrid design
  run_convergence_sweep       optimality gap T * (Var - Q) along a budget
                              sweep

Every Monte Carlo replication, here and in the CLI's ``simulate``, runs
through one loop, ``_map_replications``, which owns the stream convention:
replication k at a point draws from
``replication_rng(master seed, point key, k)``, so sweep points are
independent and reruns reproduce results exactly. A replication of budget
T draws exactly T outcomes, the first T uniforms of its stream in draw
order; the loop takes them as one block and checks that all were used.
Replications run one after another on the calling thread, in index order,
and aggregation walks them in that order, adding with
``system_model.ordered_sum``, to keep emitted numbers byte-stable on every
Python version. The replication work is pure Python bound by the
interpreter lock, so worker threads would only slow it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive_sampling import (
    SampleLedger,
    SimulatedSource,
    estimate_reliability,
    hybrid_two_stage,
    pilot_size,
    two_stage_subsystem,
)
from .system_model import ReliabilityAssignment, ordered_sum
from .variance_analysis import (
    Allocation,
    AllocationError,
    lower_bound_system,
    system_variance,
)

#: The CLI's default replication counts.
TABLE_REPLICATIONS = 20_000
SWEEP_REPLICATIONS = 5_000


@dataclass(frozen=True)
class FixedSplitPoint:
    """Summary for one first-block budget in the fixed-split experiment."""

    t1: int
    t2: int
    var_hat: float
    se: float
    mean_r_hat: float
    exact_conditional_mean: float


@dataclass(frozen=True)
class SweepPoint:
    """Summary for one budget in the convergence sweep."""

    total: int
    var_hat: float
    se: float
    q_bound: float
    excess: float
    mean_r_hat: float


@dataclass(frozen=True)
class HybridExpectation:
    """Aggregate hybrid-design behavior at one budget."""

    total: int
    replications: int
    mean_block_totals: tuple[float, ...]
    mean_t1: float
    rounded_t1: int
    var_hat: float
    se: float
    mean_r_hat: float


_WORD = 0xFFFFFFFF


def _seed_words(values) -> np.ndarray:
    """Little-endian 32-bit words of each nonnegative integer, concatenated.

    These are the words ``SeedSequence`` derives from a tuple of the same
    integers, so both seed the same pool; handing it the array skips its
    per-element coercion.
    """
    words = []
    for value in values:
        value = int(value)
        if value < 0:
            raise ValueError(f"stream key entries must be nonnegative, got {value}")
        words.append(value & _WORD)
        value >>= 32
        while value:
            words.append(value & _WORD)
            value >>= 32
    return np.array(words, dtype=np.uint32)


def replication_rng(master_seed: int, point_key: int, replication: int) -> np.random.Generator:
    """Independent stream for one replication of one experiment point.

    The same stream as ``Generator(PCG64(SeedSequence((master_seed,
    point_key, replication))))``.
    """
    seq = np.random.SeedSequence(_seed_words((master_seed, point_key, replication)))
    return np.random.Generator(np.random.PCG64(seq))


def empirical_variance(samples) -> tuple[float, float]:
    """Unbiased sample variance and its standard error.

    The standard error comes from the plug-in fourth-moment formula
    Var(s^2) ~= (m4 - (K-3)/(K-1) * s^4) / K with central sample moments.
    """
    x = np.asarray(samples, dtype=float)
    k = x.size
    if k < 2:
        raise ValueError("need at least 2 samples")
    mean = x.mean()
    dev = x - mean
    m2 = float(np.mean(dev * dev))
    m4 = float(np.mean(dev**4))
    var = m2 * k / (k - 1)
    var_of_var = (m4 - (k - 3) / (k - 1) * m2 * m2) / k
    return var, math.sqrt(max(var_of_var, 0.0))


def _estimate_summary(r_hats) -> tuple[float, float, float]:
    """Mean of the estimates, then ``empirical_variance``'s (var, se).

    The mean is the ``ordered_sum`` of the estimates in replication order,
    so every driver and the CLI's ``simulate`` report the same bits for the
    same replications.
    """
    var, se = empirical_variance(r_hats)
    return float(ordered_sum(r_hats) / len(r_hats)), var, se


def simulate_fixed_allocation(
    assignment: ReliabilityAssignment, allocation: Allocation, replications: int, rng
) -> np.ndarray:
    """Vectorized replication of the estimator under a fixed allocation.

    Success counts per slot are binomial draws, which is distributionally
    identical to summing individual Bernoulli outcomes. Returns one
    reliability estimate per replication.
    """
    allocation.require_positive()
    r_hat = np.ones(replications)
    for j in range(assignment.topology.subsystem_count):
        block_failure = np.ones(replications)
        for p, m in zip(assignment.block(j), allocation.block(j)):
            successes = rng.binomial(m, p, size=replications)
            block_failure *= 1.0 - successes / m
        r_hat *= 1.0 - block_failure
    return r_hat


def _map_replications(
    assignment: ReliabilityAssignment, replications: int, master_seed: int, point_key: int,
    design, draws: int,
) -> list:
    """``design(source)`` for replications 0, 1, ... in index order, on the calling thread.

    Replication k draws from ``SimulatedSource(assignment,
    replication_rng(master_seed, point_key, k), draws)``; no other code
    derives a replication's stream. The source takes the replication's
    ``draws`` uniforms as one block, and a replication that leaves any of
    them unused is an error, so every design is checked to draw exactly
    ``draws`` outcomes. The name is private but stays as it is, because
    the benchmark's tracer times this function by name for
    ``rep_concurrency``.
    """
    results = []
    for k in range(replications):
        source = SimulatedSource(assignment, replication_rng(master_seed, point_key, k), draws)
        results.append(design(source))
        if source.remaining:
            raise RuntimeError(
                f"replication {k} left {source.remaining} of its {draws} draws unused"
            )
    return results


def _hybrid_replications(
    assignment: ReliabilityAssignment, total: int, replications: int, master_seed: int,
    point_key: int,
):
    """All hybrid replications at one budget: (r_hats, block_totals)."""
    topology = assignment.topology

    def design(source):
        result = hybrid_two_stage(source, topology, total)
        return result.reliability_estimate, result.block_budgets

    outcomes = _map_replications(
        assignment, replications, master_seed, point_key, design, total
    )
    return [o[0] for o in outcomes], [o[1] for o in outcomes]


def _require_two_blocks(assignment: ReliabilityAssignment) -> None:
    if assignment.topology.subsystem_count != 2:
        raise AllocationError("the fixed-split design needs exactly two subsystems")


def fixed_split_replications(
    assignment: ReliabilityAssignment, total: int, t1: int, replications: int, master_seed: int
) -> list[tuple[float, tuple[tuple[int, ...], ...]]]:
    """(R_hat, per-slot counts) of each replication of one fixed split.

    The component-level two-stage design runs on the first block with
    budget ``t1`` and on the second with ``total - t1``; ``t1`` is the
    point key. Two-block systems only, with ``t1`` in 1..total-1.
    """
    _require_two_blocks(assignment)
    if not 0 < t1 < total:
        raise AllocationError(f"T1 = {t1} must lie in 1..T-1 for T = {total}")
    topology = assignment.topology

    def design(source):
        ledger = SampleLedger(topology)
        two_stage_subsystem(source, 0, t1, ledger)
        two_stage_subsystem(source, 1, total - t1, ledger)
        return estimate_reliability(ledger, topology), tuple(tuple(b) for b in ledger.draws)

    return _map_replications(assignment, replications, master_seed, t1, design, total)


def run_fixed_split_experiment(
    assignment: ReliabilityAssignment, total: int, replications: int, master_seed: int
) -> list[FixedSplitPoint]:
    """Variance of the estimate per first-block budget, two-block systems only.

    For each split (T1, T - T1) with T1 from the pilot floor up to the
    mirrored floor, the component-level two-stage design runs independently
    on each block. The exact variance conditioned on the realized
    allocations is reported alongside the Monte Carlo variance.
    """
    _require_two_blocks(assignment)
    low = pilot_size(total)
    points = []
    for t1 in range(low, total - low + 1):
        outcomes = fixed_split_replications(assignment, total, t1, replications, master_seed)
        mean, var, se = _estimate_summary([o[0] for o in outcomes])

        # one exact variance per distinct allocation, in order of first use
        variances = {
            counts: system_variance(assignment, Allocation(assignment.topology, counts))
            for counts in dict.fromkeys(counts for _, counts in outcomes)
        }
        exact = ordered_sum(variances[counts] for _, counts in outcomes)
        points.append(
            FixedSplitPoint(
                t1=t1,
                t2=total - t1,
                var_hat=var,
                se=se,
                mean_r_hat=mean,
                exact_conditional_mean=exact / replications,
            )
        )
    return points


def run_hybrid_expectation(
    assignment: ReliabilityAssignment, total: int, replications: int, master_seed: int
) -> HybridExpectation:
    """Mean realized block budgets (and estimator statistics) under the hybrid design."""
    r_hats, block_totals = _hybrid_replications(assignment, total, replications, master_seed, 0)
    mean, var, se = _estimate_summary(r_hats)
    totals = np.array(block_totals, dtype=float)
    mean_totals = tuple(float(v) for v in totals.mean(axis=0))
    return HybridExpectation(
        total=total,
        replications=replications,
        mean_block_totals=mean_totals,
        mean_t1=mean_totals[0],
        rounded_t1=round(mean_totals[0]),
        var_hat=var,
        se=se,
        mean_r_hat=mean,
    )


def run_convergence_sweep(
    assignment: ReliabilityAssignment, budgets, replications: int, master_seed: int
) -> list[SweepPoint]:
    """Optimality gap T * (Var - Q) at each budget; a budget is its own point key."""
    points = []
    for total in budgets:
        r_hats, _ = _hybrid_replications(assignment, total, replications, master_seed, total)
        mean, var, se = _estimate_summary(r_hats)
        q = lower_bound_system(assignment, total)
        points.append(
            SweepPoint(
                total=total,
                var_hat=var,
                se=se,
                q_bound=q,
                excess=total * (var - q),
                mean_r_hat=mean,
            )
        )
    return points


def format_value(value) -> str:
    """CSV cell text: shortest round-trip decimal for floats, plain for ints."""
    if isinstance(value, bool):
        raise TypeError("no boolean cells in experiment output")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def fixed_split_rows(points: list[FixedSplitPoint]) -> tuple[list[str], list[list[str]]]:
    header = ["T1", "var_hat", "se", "mean_R_hat"]
    rows = [
        [format_value(p.t1), format_value(p.var_hat), format_value(p.se), format_value(p.mean_r_hat)]
        for p in points
    ]
    return header, rows


def convergence_rows(points: list[SweepPoint]) -> tuple[list[str], list[list[str]]]:
    header = ["T", "var_hat", "se", "Q", "excess"]
    rows = [
        [
            format_value(p.total),
            format_value(p.var_hat),
            format_value(p.se),
            format_value(p.q_bound),
            format_value(p.excess),
        ]
        for p in points
    ]
    return header, rows


def table_rows(results: list[tuple[str, HybridExpectation]]) -> tuple[list[str], list[list[str]]]:
    header = ["case", "mean_T1", "rounded_T1"]
    rows = [
        [name, format_value(res.mean_t1), format_value(res.rounded_t1)]
        for name, res in results
    ]
    return header, rows
