"""Two-stage and hybrid two-stage adaptive sampling designs.

The component-level scheme for one parallel block with budget T_j:

  Stage 1  observe a pilot of L_j = floor(sqrt(T_j)) units per component
           (capped at T_j // n_j so the pilot always fits the budget),
  Stage 2  estimate each inverse coefficient of variation from the pooled
           counts, convert to within-block fractions, round to integer
           targets that sum to T_j with the pilot as per-slot floor, and
           top every component up to its target.

The hybrid scheme runs the component-level scheme twice per block: first
with a uniform block budget L = floor(sqrt(T)) to buy estimates, then with
block budgets set by the across-block rule (floored at L so no block is
starved). All previously drawn units are pooled: they count toward every
later floor, target, and estimate, which is what makes the grand total
come out to exactly T.

A single replication is strictly sequential. Distinct replications own
their ledgers and random streams, so each depends only on its own stream;
the experiment drivers run them one after another in index order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import component_fractions, integerize
from .system_model import ReliabilityAssignment, SystemTopology, block_weight
from .variance_analysis import Allocation, AllocationError


class BudgetError(AllocationError):
    """Sampling budget cannot satisfy the design's floors."""


class SourceExhaustedError(RuntimeError):
    """A replay source ran out of recorded outcomes for a slot."""


class BernoulliSource:
    """Stream of binary outcomes per component slot (i, j)."""

    def draw(self, i: int, j: int) -> int:
        raise NotImplementedError

    def draw_many(self, i: int, j: int, count: int) -> int:
        """Number of successes in ``count`` consecutive draws from slot (i, j)."""
        return sum(self.draw(i, j) for _ in range(count))


class SimulatedSource(BernoulliSource):
    """Outcomes simulated from an assignment with a seeded random stream.

    One generator serves the whole replication; draws consume it in call
    order, so a fixed (seed, replication) pair fixes every outcome.
    """

    def __init__(self, assignment: ReliabilityAssignment, rng: np.random.Generator):
        self.assignment = assignment
        self.rng = rng

    def draw(self, i: int, j: int) -> int:
        return int(self.rng.random() < self.assignment.values[j][i])

    def draw_many(self, i: int, j: int, count: int) -> int:
        if count <= 0:
            return 0
        return int(np.count_nonzero(self.rng.random(count) < self.assignment.values[j][i]))


class ReplaySource(BernoulliSource):
    """Outcomes replayed from recorded sequences, one queue per slot.

    Exhausting a queue is a hard error: a recording that cannot cover the
    requested design is a defect, not a boundary condition.
    """

    def __init__(self, topology: SystemTopology, outcomes):
        self.topology = topology
        self._queues = [[list() for _ in range(size)] for size in topology.block_sizes]
        for i, j, outcome in outcomes:
            topology.check_subsystem(j)
            if not 0 <= i < topology.block_sizes[j]:
                raise IndexError(f"component index {i} out of range in subsystem {j}")
            if outcome not in (0, 1):
                raise ValueError(f"outcomes must be 0 or 1, got {outcome!r}")
            self._queues[j][i].append(int(outcome))
        self._cursor = [[0] * size for size in topology.block_sizes]

    @classmethod
    def from_csv(cls, path, topology: SystemTopology) -> "ReplaySource":
        """Read ``subsystem,component,outcome`` rows (1-based indices)."""
        outcomes = []
        with open(Path(path), newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"subsystem", "component", "outcome"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"replay file needs columns {sorted(required)}, got {reader.fieldnames}"
                )
            for row in reader:
                outcomes.append(
                    (int(row["component"]) - 1, int(row["subsystem"]) - 1, int(row["outcome"]))
                )
        return cls(topology, outcomes)

    def draw(self, i: int, j: int) -> int:
        pos = self._cursor[j][i]
        queue = self._queues[j][i]
        if pos >= len(queue):
            raise SourceExhaustedError(
                f"replay exhausted for component {i + 1} of subsystem {j + 1} "
                f"after {len(queue)} outcomes"
            )
        self._cursor[j][i] = pos + 1
        return queue[pos]


class SampleLedger:
    """Per-slot draw and success counts accumulated during a replication."""

    def __init__(self, topology: SystemTopology):
        self.topology = topology
        self.draws = [[0] * size for size in topology.block_sizes]
        self.successes = [[0] * size for size in topology.block_sizes]

    def record(self, i: int, j: int, draws: int, successes: int) -> None:
        if draws < 0 or not 0 <= successes <= draws:
            raise ValueError(f"bad ledger update: draws={draws} successes={successes}")
        self.draws[j][i] += draws
        self.successes[j][i] += successes

    def block_draws(self, j: int) -> tuple[int, ...]:
        return tuple(self.draws[j])

    def block_total(self, j: int) -> int:
        return sum(self.draws[j])

    def to_allocation(self) -> Allocation:
        return Allocation(self.topology, tuple(tuple(block) for block in self.draws))


@dataclass(frozen=True)
class HybridResult:
    """Outcome of one hybrid replication."""

    ledger: SampleLedger
    allocation: Allocation
    reliability_estimate: float
    block_budgets: tuple[int, ...]


def pilot_size(total: int) -> int:
    """Default pilot: integer square root of the budget, at least 1."""
    if total < 1:
        raise ValueError(f"budget must be positive, got {total}")
    return max(1, math.isqrt(int(total)))


def mle_cv(draws: int, successes: int) -> tuple[float, float, float]:
    """Clamped maximum-likelihood estimates from a pilot count.

    Successes are pulled into [0.5, draws - 0.5] before estimating, so the
    coefficient of variation and its inverse stay finite and positive even
    for all-failure or all-success pilots. Returns (reliability, cv, 1/cv).
    """
    if draws < 1:
        raise ValueError("need at least one draw to estimate")
    s = min(max(float(successes), 0.5), draws - 0.5)
    r_hat = s / draws
    cv = math.sqrt(1.0 / r_hat - 1.0)
    return r_hat, cv, math.sqrt(r_hat / (1.0 - r_hat))


def _block_pilot(budget: int, existing: list[int]) -> int:
    """Largest workable pilot: sqrt rule capped by the budget per slot and
    by what the pooled draws already in the ledger leave room for."""
    pilot = max(1, min(pilot_size(budget), budget // len(existing)))
    while sum([e if e > pilot else pilot for e in existing]) > budget:
        if pilot == 1:
            raise BudgetError(
                f"budget {budget} cannot top every slot up to one draw "
                f"given existing draws {existing}"
            )
        pilot -= 1
    return pilot


def plan_block_targets(cv_inverses, budget: int, floors) -> tuple[int, ...]:
    """Combine estimated inverse cvs with floors into final slot targets
    that sum to ``budget``."""
    return integerize(component_fractions(cv_inverses), budget, floors)


def two_stage_subsystem(
    source: BernoulliSource, j: int, budget: int, ledger: SampleLedger
) -> tuple[int, ...]:
    """Run the component-level two-stage design on block j.

    Draws previously recorded in the ledger count toward the pilot, the
    targets, and the estimates. On return the block's draws total exactly
    ``budget``. Returns the realized per-slot counts; the ledger is
    updated in place.
    """
    ledger.topology.check_subsystem(j)
    # The ledger's own per-block lists: ``record`` updates them in place.
    draws = ledger.draws[j]
    successes = ledger.successes[j]
    spent = sum(draws)
    if spent > budget:
        raise BudgetError(
            f"subsystem {j + 1} already holds {spent} draws, over its budget {budget}"
        )
    pilot = _block_pilot(budget, draws)

    # Stage 1: top every slot up to the pilot size.
    for i, have in enumerate(draws):
        need = pilot - have
        if need > 0:
            ledger.record(i, j, need, source.draw_many(i, j, need))

    # Stage 2: allocate the rest by estimated inverse cv, then top up. The
    # pooled draws are the floors; integerize copies them before any top-up.
    cv_inverses = [mle_cv(d, s)[2] for d, s in zip(draws, successes)]
    for i, target in enumerate(plan_block_targets(cv_inverses, budget, draws)):
        need = target - draws[i]
        if need > 0:
            ledger.record(i, j, need, source.draw_many(i, j, need))
    return ledger.block_draws(j)


def hybrid_two_stage(
    source: BernoulliSource, topology: SystemTopology, total: int
) -> HybridResult:
    """Run the hybrid two-stage design over the whole system.

    Stage 1 spends L = floor(sqrt(total)) in each block through the
    component-level scheme; Stage 2 re-runs the scheme per block with
    budgets from the across-block rule, floored at L. The realized grand
    total is exactly ``total``.
    """
    n = topology.subsystem_count
    outer_pilot = pilot_size(total)
    if total < n * outer_pilot:
        raise BudgetError(
            f"budget {total} below {n} blocks x pilot {outer_pilot}"
        )
    if any(outer_pilot < size for size in topology.block_sizes):
        raise BudgetError(
            f"block pilot {outer_pilot} cannot reach every component "
            f"(largest block has {max(topology.block_sizes)})"
        )

    ledger = SampleLedger(topology)
    for j in range(n):
        two_stage_subsystem(source, j, outer_pilot, ledger)

    # Across-block predictor from the pooled pilot counts (clamped means).
    weights = []
    for draws, successes in zip(ledger.draws, ledger.successes):
        inv_sum = 0.0
        failure = 1.0
        for d, s in zip(draws, successes):
            r_hat, _, cv_inv = mle_cv(d, s)
            inv_sum += cv_inv
            failure *= 1.0 - r_hat
        weights.append(block_weight(1.0 - failure, inv_sum))
    w_total = sum(weights)
    fractions = [w / w_total for w in weights]
    block_budgets = integerize(fractions, total, outer_pilot)

    for j in range(n):
        two_stage_subsystem(source, j, block_budgets[j], ledger)

    return HybridResult(
        ledger=ledger,
        allocation=ledger.to_allocation(),
        reliability_estimate=estimate_reliability(ledger, topology),
        block_budgets=tuple(block_budgets),
    )


def estimate_reliability(ledger: SampleLedger, topology: SystemTopology) -> float:
    """Plug-in system reliability from raw (unclamped) sample means.

    Clamping is reserved for allocation decisions; the reported estimate
    is exactly the product of block estimates built from sample means.
    """
    r = 1.0
    for j, size in enumerate(topology.block_sizes):
        draws = ledger.draws[j]
        successes = ledger.successes[j]
        failure = 1.0
        for i in range(size):
            if draws[i] < 1:
                raise ValueError(
                    f"component {i + 1} of subsystem {j + 1} has no draws"
                )
            failure *= 1.0 - successes[i] / draws[i]
        r *= 1.0 - failure
    return r
