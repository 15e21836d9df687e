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
starved). That rule is the known-reliability allocation's own: the
subsystem fractions of ``system_model.block_constants``, ``block_weights``
and ``_normalized``, evaluated at the clamped pilot estimates. All
previously drawn units are pooled: they count toward every later floor,
target, and estimate, which is what makes the grand total come out to
exactly T. The reported estimate is ``1 - system_model._failure`` of the
raw sample means per block, multiplied over the blocks.

A block whose pooled draws already fill its budget after the pilot has
only one allocation its floors allow, so the scheme returns there without
estimating anything. That covers the hybrid scheme's whole first pass at
small budgets and every second-pass block that gets only its floor L.

The designs see outcomes through one method, ``draw_many(i, j, count)``:
the number of successes in the next ``count`` outcomes of slot (i, j).
``SimulatedSource`` simulates them from a seeded stream, ``ReplaySource``
counts them off recorded queues.

A single replication is strictly sequential. Distinct replications own
their ledgers and random streams, so each depends only on its own stream;
the experiment drivers run them one after another in index order. Every
replication of the hybrid and fixed-split schemes draws exactly T
outcomes, so its source can take all T uniforms from the stream as one
block up front and hand them out in call order (``SimulatedSource`` with
``draws``); PCG64 returns the same doubles for ``random(a)`` followed by
``random(b)`` as for ``random(a + b)``, so the outcomes do not change.

The design's three decisions are cached pure functions of integer counts:
the block pilot of (budget, pooled draws), the stage-2 targets of
(budget, pooled draws, pooled successes), and the across-block budgets
of (total, draws and successes of the whole ledger). Each keeps a bounded
``functools.lru_cache``, so a repeated input skips its estimates and
rounding; a cached answer equals a recomputed one, and the outputs never
depend on what ran before. Every check on the ledger and the source runs
on every call, and a raised error is never cached.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .allocation import component_fractions, integerize
from .system_model import (
    ReliabilityAssignment,
    SystemTopology,
    _failure,
    _normalized,
    block_constants,
    block_weights,
)
from .variance_analysis import Allocation, AllocationError


class BudgetError(AllocationError):
    """Sampling budget cannot satisfy the design's floors."""


class SourceExhaustedError(RuntimeError):
    """A source ran out of outcomes: a replay queue or a simulated block."""


class BernoulliSource:
    """Stream of binary outcomes per component slot (i, j)."""

    def draw_many(self, i: int, j: int, count: int) -> int:
        """Number of successes in ``count`` consecutive draws from slot (i, j);
        0 for ``count <= 0``."""
        raise NotImplementedError


#: The list/array crossover, in uniforms per block. Blocks up to this
#: length are held as a Python list and each request is counted by a list
#: scan; longer blocks stay a numpy array and each request is counted by
#: ``count_nonzero`` on a slice. A list costs about 0.06 us per uniform
#: (``tolist`` plus the scan), a numpy count about 2 us per request, so
#: the list wins while a block is short for the requests made on it.
#: Measured per hybrid replication (Python 3.11.7, numpy 2.4.6), list
#: against array: case A 81/87 us at T=20, 110/114 at T=400, 136/125 at
#: T=800; the 14-slot chain 250/271 us at T=400, 220/212 at T=800,
#: 505/265 at T=6400.
LIST_BLOCK_MAX = 512

#: The request-length crossover on a numpy block, in uniforms. A request
#: up to this length is counted by a list scan of its slice's
#: ``tolist()``; a longer one by ``count_nonzero``. The numpy count costs
#: a flat 1.2-2.1 us per request whatever its length, the list scan about
#: 0.45 us plus 0.05 us per uniform; the two met between 24 and 28
#: uniforms (micro-benchmark of one slice of a 6400-uniform block, Python
#: 3.11.7, numpy 2.4.6). On the 14-slot chain at T=6400, 68% of requests
#: are 16 uniforms or fewer.
SHORT_REQUEST_MAX = 24


class SimulatedSource(BernoulliSource):
    """Outcomes simulated from an assignment with a seeded random stream.

    One generator serves the whole replication; draws consume it in call
    order, so a fixed (seed, replication) pair fixes every outcome. Draw j
    of the replication is a success when uniform j of the stream falls
    below the slot's reliability.

    With ``draws`` given, the source takes that many uniforms from the
    stream at once and each request counts successes in the next ones; a
    request past the end raises ``SourceExhaustedError`` and ``remaining``
    tells how many are left unused. Without it, each request takes exactly
    its own uniforms from the stream. Both see the same outcomes.
    """

    def __init__(
        self, assignment: ReliabilityAssignment, rng: np.random.Generator,
        draws: int | None = None,
    ):
        self.assignment = assignment
        self.rng = rng
        self._per_call = draws is None
        self._uniforms = () if draws is None else self._take(draws)
        self._cursor = 0

    def _take(self, count: int):
        uniforms = self.rng.random(count)
        return uniforms.tolist() if count <= LIST_BLOCK_MAX else uniforms

    @property
    def remaining(self) -> int:
        """Uniforms of the block not yet handed out."""
        return len(self._uniforms) - self._cursor

    def draw_many(self, i: int, j: int, count: int) -> int:
        if count <= 0:
            return 0
        if self._per_call:
            self._uniforms = self._take(count)
            self._cursor = 0
        start = self._cursor
        end = start + count
        uniforms = self._uniforms
        if end > len(uniforms):
            raise SourceExhaustedError(
                f"{count} draws requested with {len(uniforms) - start} of the "
                f"replication's {len(uniforms)} uniforms left"
            )
        self._cursor = end
        p = self.assignment.values[j][i]
        if type(uniforms) is list:
            return len([u for u in uniforms[start:end] if u < p])
        if count <= SHORT_REQUEST_MAX:
            return len([u for u in uniforms[start:end].tolist() if u < p])
        return int(np.count_nonzero(uniforms[start:end] < p))


class ReplaySource(BernoulliSource):
    """Outcomes replayed from recorded sequences, one queue per slot.

    Exhausting a queue is a hard error: a recording that cannot cover the
    requested design is a defect, not a boundary condition. A request
    longer than what is left raises before consuming anything.
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

    def draw_many(self, i: int, j: int, count: int) -> int:
        if count <= 0:
            return 0
        queue = self._queues[j][i]
        start = self._cursor[j][i]
        end = start + count
        if end > len(queue):
            raise SourceExhaustedError(
                f"replay exhausted for component {i + 1} of subsystem {j + 1}: "
                f"{count} outcomes requested, {len(queue) - start} left"
            )
        self._cursor[j][i] = end
        return sum(queue[start:end])


class SampleLedger:
    """Per-slot draw and success counts accumulated during a replication.

    ``draws[j][i]`` and ``successes[j][i]`` are plain lists; the designs
    update them in place.
    """

    def __init__(self, topology: SystemTopology):
        self.topology = topology
        self.draws = [[0] * size for size in topology.block_sizes]
        self.successes = [[0] * size for size in topology.block_sizes]

    def to_allocation(self) -> Allocation:
        return Allocation(self.topology, tuple(tuple(block) for block in self.draws))


@dataclass(frozen=True)
class HybridResult:
    """Outcome of one hybrid replication."""

    ledger: SampleLedger
    reliability_estimate: float
    block_budgets: tuple[int, ...]

    @cached_property
    def allocation(self) -> Allocation:
        """The realized per-slot counts, built on first use: the experiment
        drivers read only the estimate and the block budgets."""
        return self.ledger.to_allocation()


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


#: Entries kept by each of the three decision caches. Distinct keys
#: (pilot, stage-2 targets, across-block budgets) measured over seeded
#: hybrid runs: cases A-D at T=20, 1000 replications each, 14 / 133 / 81
#: against 16000 / 6260 / 4000 calls (20000 each: 14 / 134 / 81); the
#: fixed-split sweeps of cases A and C at T=20, 10000 replications per
#: split, 13 / 173; the 14-slot chain at T=6400, 1000 replications,
#: 3101 / 3668 / 1000 against 8000 / 6376 / 1000 calls. All of these
#: T=20 runs fit. On the chain the across-block key never repeats and the
#: stage-2 key hits 42% unbounded (36% at this size), so the bound is
#: there to cap memory: about 0.5 MB (tracemalloc) with all three full.
DECISION_CACHE_SIZE = 1024


@lru_cache(maxsize=DECISION_CACHE_SIZE)
def _block_pilot(budget: int, existing: tuple[int, ...]) -> int:
    """Largest workable pilot: sqrt rule capped by the budget per slot and
    by what the pooled draws already in the ledger leave room for."""
    pilot = max(1, min(pilot_size(budget), budget // len(existing)))
    while sum([e if e > pilot else pilot for e in existing]) > budget:
        if pilot == 1:
            raise BudgetError(
                f"budget {budget} cannot top every slot up to one draw "
                f"given existing draws {list(existing)}"
            )
        pilot -= 1
    return pilot


@lru_cache(maxsize=DECISION_CACHE_SIZE)
def _block_targets(
    budget: int, draws: tuple[int, ...], successes: tuple[int, ...]
) -> tuple[int, ...]:
    """Stage-2 slot targets of a block from its pooled counts, which are
    also the floors."""
    cv_inverses = [mle_cv(d, s)[2] for d, s in zip(draws, successes)]
    return plan_block_targets(cv_inverses, budget, draws)


@lru_cache(maxsize=DECISION_CACHE_SIZE)
def _block_budgets(
    total: int, draws: tuple[tuple[int, ...], ...], successes: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """Across-block budgets from the pooled counts of the whole ledger: the
    rule's subsystem fractions at the clamped estimates, rounded with the
    pilot floor(sqrt(total)) as every block's floor."""
    estimates = [[mle_cv(d, s)[0] for d, s in zip(*block)] for block in zip(draws, successes)]
    fractions = _normalized(block_weights(block_constants(estimates)))
    return integerize(fractions, total, pilot_size(total))


def plan_block_targets(cv_inverses, budget: int, floors) -> tuple[int, ...]:
    """Combine estimated inverse cvs with floors into final slot targets
    that sum to ``budget``."""
    return integerize(component_fractions(cv_inverses), budget, floors)


def _top_up(
    source: BernoulliSource, j: int, draws: list[int], successes: list[int], targets
) -> None:
    """Draw every slot of block j that is below its target up to it, updating
    the ledger's per-block lists in place."""
    for i, target in enumerate(targets):
        need = target - draws[i]
        if need > 0:
            got = source.draw_many(i, j, need)
            if not 0 <= got <= need:
                raise ValueError(f"source returned {got} successes in {need} draws")
            draws[i] = target
            successes[i] += got


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
    draws = ledger.draws[j]
    successes = ledger.successes[j]
    spent = sum(draws)
    if spent > budget:
        raise BudgetError(
            f"subsystem {j + 1} already holds {spent} draws, over its budget {budget}"
        )
    pilot = _block_pilot(budget, tuple(draws))

    # Stage 1: top every slot up to the pilot size.
    _top_up(source, j, draws, successes, [pilot] * len(draws))
    # Draws that fill the budget are the only allocation their floors allow.
    if sum(draws) == budget:
        return tuple(draws)

    # Stage 2: allocate the rest by estimated inverse cv, then top up. The
    # pooled draws are the floors.
    _top_up(source, j, draws, successes, _block_targets(budget, tuple(draws), tuple(successes)))
    return tuple(draws)


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
    if outer_pilot < max(topology.block_sizes):
        raise BudgetError(
            f"block pilot {outer_pilot} cannot reach every component "
            f"(largest block has {max(topology.block_sizes)})"
        )

    ledger = SampleLedger(topology)
    for j in range(n):
        two_stage_subsystem(source, j, outer_pilot, ledger)

    # Across-block rule from the pooled pilot counts (clamped estimates).
    block_budgets = _block_budgets(
        total, tuple(map(tuple, ledger.draws)), tuple(map(tuple, ledger.successes))
    )
    for j in range(n):
        two_stage_subsystem(source, j, block_budgets[j], ledger)

    return HybridResult(
        ledger=ledger,
        reliability_estimate=estimate_reliability(ledger, topology),
        block_budgets=block_budgets,
    )


def estimate_reliability(ledger: SampleLedger, topology: SystemTopology) -> float:
    """Plug-in system reliability from raw (unclamped) sample means.

    Clamping is reserved for allocation decisions; the reported estimate
    is exactly the product of block estimates built from sample means.
    """
    r = 1.0
    for j, (draws, successes) in enumerate(zip(ledger.draws, ledger.successes)):
        if min(draws) < 1:
            raise ValueError(
                f"component {draws.index(min(draws)) + 1} of subsystem {j + 1} has no draws"
            )
        r *= 1.0 - _failure(map(operator.truediv, successes, draws))
    return r
