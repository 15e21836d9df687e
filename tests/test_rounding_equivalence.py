"""The rounding rules against verbatim references of their former loops.

``integerize`` and ``apportion`` once kept one repair loop each; both now
share one helper. The references below repeat the former code: the floor
check, the start counts and the loop that takes a unit off the largest slot
above its floor (lowest index on ties). On seeded instances with scalar
and per-slot floors, feasible and not, the rules must return the same
counts or raise the same exception type, except where the former
``apportion`` returned counts that missed the budget: there the mended
rule must meet it. The balanced split, which used to go through
``integerize``, is checked against integer division.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from relialloc import AllocationError, apportion, balanced_allocation, integerize
from relialloc.system_model import SystemTopology

INSTANCES = 12_000


# ---------------------------------------------------------------------------
# references, verbatim


def ref_checked_floors(k, floor_per_slot, total):
    if k < 1:
        raise AllocationError("need at least one slot")
    if isinstance(floor_per_slot, int):
        floors = [floor_per_slot] * k
    else:
        floors = [int(f) for f in floor_per_slot]
    if len(floors) != k or min(floors) < 0:
        raise AllocationError("need one nonnegative floor per slot")
    total = int(total)
    if total < sum(floors):
        raise AllocationError(
            f"budget {total} cannot cover per-slot floors summing to {sum(floors)}"
        )
    return floors, total


def ref_integerize(fractions, total, floor_per_slot=0):
    k = len(fractions)
    floors, total = ref_checked_floors(k, floor_per_slot, total)
    counts = [max(floors[i], math.floor(fractions[i] * total)) for i in range(k - 1)]
    last = total - sum(counts)
    while last < floors[-1]:
        largest = None
        for i in range(k - 1):
            if counts[i] > floors[i] and (largest is None or counts[i] > counts[largest]):
                largest = i
        # sum(floors) <= total guarantees an eligible slot exists
        counts[largest] -= 1
        last += 1
    return tuple(counts) + (last,)


def ref_apportion(fractions, total, floor_per_slot=0):
    k = len(fractions)
    floors, total = ref_checked_floors(k, floor_per_slot, total)
    scaled = [float(f) * total for f in fractions]
    counts = [max(fl, math.floor(s)) for fl, s in zip(floors, scaled)]
    short = total - sum(counts)
    if short > 0:
        by_deficit = sorted(range(k), key=lambda i: (counts[i] - scaled[i], i))
        for i in by_deficit[:short]:
            counts[i] += 1
    while sum(counts) > total:
        largest = None
        for i in range(k):
            if counts[i] > floors[i] and (largest is None or counts[i] > counts[largest]):
                largest = i
        counts[largest] -= 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# instances


def _instance(rng: random.Random):
    """Fractions, budget and floors; about one in eight is infeasible."""
    k = rng.randint(0, 7) if rng.random() < 0.02 else rng.randint(1, 7)
    kind = rng.random()
    if kind < 0.6:  # normalized
        weights = [rng.uniform(0.001, 1.0) for _ in range(k)]
        fractions = [w / sum(weights) for w in weights]
    elif kind < 0.8:  # some slots at zero, as for a near-perfect block
        weights = [rng.choice([0.0, rng.uniform(0.01, 1.0)]) for _ in range(k)]
        total_weight = sum(weights) or 1.0
        fractions = [w / total_weight for w in weights]
    else:  # unnormalized: shares that overshoot or fall short of the budget
        fractions = [rng.uniform(0.0, 1.5) for _ in range(k)]
    if rng.random() < 0.5:
        floors = rng.randint(0, 4)
        floor_sum = floors * k
    else:
        floors = [rng.randint(0, 5) for _ in range(k)]
        floor_sum = sum(floors)
        if floors and rng.random() < 0.02:
            floors = floors[:-1] if rng.random() < 0.5 else floors + [1]
    total = floor_sum + rng.randint(0, 60)
    if rng.random() < 0.125:
        total = floor_sum - rng.randint(1, 3)
    return fractions, total, floors


def _outcome(rule, fractions, total, floors):
    try:
        return rule(fractions, total, floors)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def _needs_repair(rule, fractions, total, floors) -> bool:
    """Whether the start counts of a feasible instance overshoot the budget."""
    if isinstance(floors, int):
        floors = [floors] * len(fractions)
    starts = [max(fl, math.floor(f * total)) for fl, f in zip(floors, fractions)]
    if rule is integerize:  # the last slot takes the remainder instead
        return sum(starts[:-1]) + floors[-1] > total
    return sum(starts) > total


@pytest.mark.parametrize(
    "rule, reference", [(integerize, ref_integerize), (apportion, ref_apportion)],
    ids=["integerize", "apportion"],
)
def test_rule_matches_its_former_loop(rule, reference):
    """Same counts or exception wherever the former loop met its contract.

    The former ``apportion`` loop handed out at most one leftover unit per
    slot, so for fractions that sum well below 1 its counts fell short of
    the budget; those instances are compared by the contract alone: the
    counts sum to the budget and respect the floors.
    """
    rng = random.Random(20121)
    raised = repaired = short = 0
    for _ in range(INSTANCES):
        fractions, total, floors = _instance(rng)
        expected = _outcome(reference, fractions, total, floors)
        got = _outcome(rule, fractions, total, floors)
        if isinstance(expected, type):
            raised += 1
        elif sum(expected) != total:
            short += 1
            slot_floors = [floors] * len(fractions) if isinstance(floors, int) else floors
            assert sum(got) == total, (fractions, total, floors)
            assert all(c >= f for c, f in zip(got, slot_floors)), (fractions, total, floors)
            continue
        else:
            repaired += _needs_repair(rule, fractions, total, floors)
        assert got == expected, (fractions, total, floors)
    # the instances reach the errors and the repair loop, not only the easy path
    assert raised > INSTANCES // 20
    assert repaired > INSTANCES // 20
    # only the former apportion loop ever missed the budget
    assert (short > INSTANCES // 50) if rule is apportion else not short


@pytest.mark.parametrize(
    "fractions, total, expected",
    [
        ([0.1, 0.1], 100, (50, 50)),
        ([0.1, 0.3], 100, (40, 60)),
        ([0.0, 0.0, 0.0], 7, (3, 2, 2)),
        ([0.25, 0.0], 9, (6, 3)),
    ],
)
def test_apportion_hands_out_every_leftover_unit(fractions, total, expected):
    # leftover units go lap after lap in deficit order, ties to the lowest index
    assert apportion(fractions, total) == expected


@pytest.mark.parametrize("rule", [integerize, apportion])
@pytest.mark.parametrize("total", [10.7, 10.0, 10.9])
def test_float_budget_raises(rule, total):
    with pytest.raises(TypeError):
        rule([0.5, 0.5], total)


@pytest.mark.parametrize("rule", [integerize, apportion])
def test_numpy_integer_budget(rule):
    assert rule([0.3, 0.7], np.int64(10), 1) == rule([0.3, 0.7], 10, 1)


@pytest.mark.parametrize("rule", [integerize, apportion])
@pytest.mark.parametrize(
    "fractions, total, floor",
    [([0.5, 0.5], 10, 2), ([0.98, 0.02], 10, 3), ([0.2, 0.3, 0.5], 9, 3)],
)
def test_numpy_integer_scalar_floor(rule, fractions, total, floor):
    assert rule(fractions, total, np.int64(floor)) == rule(fractions, total, floor)


@pytest.mark.parametrize("rule", [integerize, apportion])
def test_numpy_integer_scalar_floor_is_still_checked(rule):
    with pytest.raises(AllocationError):
        rule([0.5, 0.5], 3, np.int64(2))


def _topology(slots: int) -> SystemTopology:
    """Blocks of three slots, the last one shorter."""
    return SystemTopology(tuple(min(3, slots - s) for s in range(0, slots, 3)))


def test_balanced_is_integer_division_with_the_remainder_last():
    for k in range(1, 61):
        topology = _topology(k)
        for total in range(k, 1000):
            share = total // k
            flat = [c for block in balanced_allocation(topology, total).counts for c in block]
            assert flat == [share] * (k - 1) + [total - (k - 1) * share], (k, total)


def test_balanced_49_slots_at_98_is_all_twos():
    flat = [c for block in balanced_allocation(_topology(49), 98).counts for c in block]
    assert flat == [2] * 49
