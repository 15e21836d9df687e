"""Allocation rules: closed-form optima, integer rounding, brute-force oracle.

The closed-form rules minimize the leading mismatch penalty of the variance
(see ``lagrange_decomposition``): within a block, sample sizes proportional
to the inverse coefficients of variation; across blocks, budgets
proportional to (1 - R_j)/R_j times the block's summed inverse cv. The
rules accept either true reliabilities or estimates; the caller decides.
The rules and the oracle take their block constants from one call of
``system_model.block_constants``, and the rules their block weights and
fractions from ``block_weights`` and ``_normalized`` beside it.

The brute-force oracle walks every composition of the budget in
lexicographic order as an odometer over the slots: the first slot turns
slowest, the second-to-last is swept by an inner loop and the last takes
what is left. The walk keeps, for each slot, the partial products of the
variance formula over the slots before it, so a candidate costs about one
slot update instead of a full evaluation, in the same floating-point
operations as the closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .system_model import (
    BlockConstants,
    ReliabilityAssignment,
    SystemTopology,
    _normalized,
    block_constants,
    block_weights,
    ordered_sum,
)
from .variance_analysis import Allocation, AllocationError, system_variance

#: Hard cap on the number of candidate allocations the oracle will enumerate.
ORACLE_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """Brute-force search space exceeds the enumeration guard."""


@dataclass(frozen=True)
class AllocationRulePlan:
    """Rule-based real-valued sampling fractions, before integer rounding."""

    component_fractions: tuple[tuple[float, ...], ...]
    subsystem_fractions: tuple[float, ...]


def component_fractions(cv_inverses: Sequence[float]) -> tuple[float, ...]:
    """Within-block sampling fractions, proportional to the inverse cv."""
    if any(x <= 0 for x in cv_inverses):
        raise ValueError("inverse coefficients of variation must be positive")
    total = ordered_sum(cv_inverses)
    return tuple(x / total for x in cv_inverses)


def subsystem_weights(assignment: ReliabilityAssignment) -> tuple[float, ...]:
    """Unnormalized block weights (1 - R_j)/R_j * sum_i 1/c_ij."""
    return tuple(block_weights(block_constants(assignment.values)))


def subsystem_fractions(assignment: ReliabilityAssignment) -> tuple[float, ...]:
    """Across-block budget fractions, the normalized subsystem weights."""
    return _normalized(subsystem_weights(assignment))


def rule_plan(assignment: ReliabilityAssignment) -> AllocationRulePlan:
    """Full rule-based plan: block fractions plus within-block fractions."""
    blocks = block_constants(assignment.values)
    comp = tuple(component_fractions(inv_cv) for _, _, inv_cv, _ in blocks)
    return AllocationRulePlan(comp, _normalized(block_weights(blocks)))


def _checked_floors(
    k: int, floor_per_slot: int | Sequence[int], total: int
) -> tuple[list[int], int]:
    """The per-slot floors of a k-slot rounding, one per slot from a scalar
    or a sequence, checked to be nonnegative and covered by the budget;
    returned with the budget, which must be integral (an int, a numpy
    integer; a float raises TypeError)."""
    if k < 1:
        raise AllocationError("need at least one slot")
    if hasattr(floor_per_slot, "__iter__"):
        floors = [int(f) for f in floor_per_slot]
    else:  # any integral scalar: int, bool, a numpy integer
        floors = [operator.index(floor_per_slot)] * k
    if len(floors) != k or min(floors) < 0:
        raise AllocationError("need one nonnegative floor per slot")
    total = operator.index(total)
    if total < sum(floors):
        raise AllocationError(
            f"budget {total} cannot cover per-slot floors summing to {sum(floors)}"
        )
    return floors, total


def _repair(counts: list[int], floors: Sequence[int], excess: int) -> None:
    """Take ``excess`` units, one at a time, each off the currently largest
    count above its floor (ties resolved toward the lowest index)."""
    if excess <= 0:
        return
    # Each count above its floor, else -1, which max never picks: the
    # callers' sum(floors) <= total guarantees an eligible slot exists.
    above = [count if count > floor else -1 for count, floor in zip(counts, floors)]
    for _ in range(excess):
        largest = above.index(max(above))  # index finds the first of equal counts
        counts[largest] -= 1
        above[largest] = counts[largest] if counts[largest] > floors[largest] else -1


def integerize(
    fractions: Sequence[float], total: int, floor_per_slot: int | Sequence[int] = 0
) -> tuple[int, ...]:
    """Round fractions of a budget to integers that sum exactly to the budget.

    Every slot but the last gets max(floor, int(fraction * total)); the last
    slot takes the remainder. If the remainder falls short of the last
    slot's floor, the repair loop moves units off the currently largest
    other slot (ties resolved toward the lowest index) until it does not.
    Floors may be a scalar or one value per slot.
    """
    k = len(fractions)
    floors, total = _checked_floors(k, floor_per_slot, total)
    counts = [max(floors[i], math.floor(fractions[i] * total)) for i in range(k - 1)]
    _repair(counts, floors, floors[-1] - (total - sum(counts)))
    return tuple(counts) + (total - sum(counts),)


def apportion(
    fractions: Sequence[float], total: int, floor_per_slot: int | Sequence[int] = 0
) -> tuple[int, ...]:
    """Largest-remainder rounding of fractions to integers summing to the budget.

    Unlike ``integerize`` (whose floor-and-remainder convention the adaptive
    designs are specified against), this starts every slot at the larger of
    its floor and its rounded-down share, then hands leftover units to the
    slots furthest below their real-valued share, lap after lap in that
    order until none is left. With fractions that sum to 1 one lap
    suffices: a slot its floor has lifted above its share then never
    receives a unit, and no slot ends more than one unit away from its
    share unless a floor forces it. The counts always sum to the budget.
    Ties and over-allocation repair resolve toward the lowest index.
    """
    k = len(fractions)
    floors, total = _checked_floors(k, floor_per_slot, total)
    scaled = [float(f) * total for f in fractions]
    counts = [max(fl, math.floor(s)) for fl, s in zip(floors, scaled)]
    short = total - sum(counts)
    if short > 0:
        by_deficit = sorted(range(k), key=lambda i: (counts[i] - scaled[i], i))
        while short > 0:  # more than one lap only if the fractions sum below 1
            for i in by_deficit[:short]:
                counts[i] += 1
            short -= k
    _repair(counts, floors, sum(counts) - total)
    return tuple(counts)


def balanced_allocation(topology: SystemTopology, total: int) -> Allocation:
    """Equal sample sizes per component; remainder goes to the last slot."""
    slots = topology.component_count
    if total < slots:
        raise AllocationError(f"budget {total} below one observation per slot ({slots})")
    share = total // slots
    flat = [share] * (slots - 1) + [total - share * (slots - 1)]
    return _allocation_from_flat(topology, flat)


def rule_allocation(assignment: ReliabilityAssignment, total: int) -> Allocation:
    """Integerized rule-based allocation for the whole system.

    Block budgets follow the subsystem fractions (floored at the block
    size so every slot can be observed), then each block splits its budget
    by component fractions with a floor of one observation per slot.
    Rounding uses largest-remainder apportionment at both levels.
    """
    topo = assignment.topology
    if total < topo.component_count:
        raise AllocationError(
            f"budget {total} below one observation per slot ({topo.component_count})"
        )
    plan = rule_plan(assignment)
    block_budgets = apportion(plan.subsystem_fractions, total, list(topo.block_sizes))
    blocks = []
    for j, budget in enumerate(block_budgets):
        blocks.append(apportion(plan.component_fractions[j], budget, 1))
    return Allocation(topo, tuple(blocks))


def _allocation_from_flat(topology: SystemTopology, flat: Sequence[int]) -> Allocation:
    blocks = []
    pos = 0
    for size in topology.block_sizes:
        blocks.append(tuple(flat[pos : pos + size]))
        pos += size
    return Allocation(topology, tuple(blocks))


def composition_count(total: int, parts: int, minimum: int) -> int:
    """Number of candidates the oracle would enumerate (stars and bars)."""
    free = total - parts * minimum
    if free < 0:
        return 0
    return math.comb(free + parts - 1, parts - 1)


def brute_force_optimal(
    assignment: ReliabilityAssignment,
    total: int,
    min_per_slot: int = 1,
    guard: int = ORACLE_GUARD,
) -> tuple[Allocation, float]:
    """Exhaustively minimize the exact system variance over integer allocations.

    Enumerates every split of ``total`` with at least ``min_per_slot``
    observations per component. Ties break toward the lexicographically
    smallest allocation (flat, block-major order). Guarded: raises
    OracleGuardError if the candidate count exceeds ``guard``.
    """
    topo = assignment.topology
    slots = topo.component_count
    if min_per_slot < 1:
        raise AllocationError("the variance is undefined below one observation per slot")
    if total < slots * min_per_slot:
        raise AllocationError(
            f"budget {total} cannot give {min_per_slot} observations to each of {slots} slots"
        )
    n_candidates = composition_count(total, slots, min_per_slot)
    if n_candidates > guard:
        raise OracleGuardError(
            f"{n_candidates} candidate allocations exceed the guard of {guard}"
        )

    best = _best_composition(block_constants(assignment.values), total, min_per_slot)
    allocation = _allocation_from_flat(topo, best)
    # recompute through the public path so the reported value is authoritative
    return allocation, system_variance(assignment, allocation)


def _best_composition(
    blocks: Sequence[BlockConstants], total: int, minimum: int
) -> tuple[int, ...] | None:
    """First composition in lexicographic order with the least variance.

    Returns None when no candidate has a variance below infinity. Float
    operations match ``system_variance`` on each candidate exactly:
    products accumulate slot by slot from 1.0, block terms are
    (1 - R_j)^2 * (P_j - 1) + R_j^2, and the system product accumulates
    block by block.
    """
    # Per slot: u_ij, and for the slot that closes its block the constants
    # ((1 - R_j)^2, R_j^2) of that block's term, else None.
    u = []
    close = []
    base = 1.0
    for r_j, u_j, _, _ in blocks:
        u.extend(u_j)
        close.extend([None] * (len(u_j) - 1))
        close.append(((1.0 - r_j) ** 2, r_j * r_j))
        base *= r_j * r_j
    last = len(u) - 1
    if not last:  # one slot, one candidate, and its variance is finite
        return (total,)
    swept = last - 1
    counts = [minimum] * len(u)
    # State entering slot s: the block's partial product, the product of the
    # closed blocks' terms, and the budget left for slots s onwards.
    inner = [1.0] * len(u)
    outer = [1.0] * len(u)
    left = [total] * len(u)
    best = None
    best_var = math.inf
    stale = 0  # first slot whose outgoing state must be recomputed
    while True:
        for s in range(stale, swept):
            prod = inner[s] * (1.0 + u[s] / counts[s])
            term = close[s]
            if term is None:
                inner[s + 1] = prod
                outer[s + 1] = outer[s]
            else:
                inner[s + 1] = 1.0
                outer[s + 1] = outer[s] * (term[0] * (prod - 1.0) + term[1])
            left[s + 1] = left[s] - counts[s]
        # Sweep the second-to-last slot; the last slot takes the rest.
        head = inner[swept]
        acc = outer[swept]
        rest = left[swept]
        x = u[swept]
        y = u[last]
        c_last, d_last = close[last]
        if close[swept] is None:
            for m in range(minimum, rest - minimum + 1):
                prod = head * (1.0 + x / m) * (1.0 + y / (rest - m))
                var = acc * (c_last * (prod - 1.0) + d_last) - base
                if var < best_var:
                    best_var = var
                    best = (*counts[:swept], m, rest - m)
        else:
            c_swept, d_swept = close[swept]
            for m in range(minimum, rest - minimum + 1):
                closed = acc * (c_swept * (head * (1.0 + x / m) - 1.0) + d_swept)
                var = closed * (c_last * (1.0 + y / (rest - m) - 1.0) + d_last) - base
                if var < best_var:
                    best_var = var
                    best = (*counts[:swept], m, rest - m)
        # Odometer: advance the rightmost slot before the swept one that can
        # still grow, and reset the slots after it to the minimum.
        stale = swept - 1
        while stale >= 0 and counts[stale] == left[stale] - (last - stale) * minimum:
            stale -= 1
        if stale < 0:
            return best
        counts[stale] += 1
        for s in range(stale + 1, swept):
            counts[s] = minimum
