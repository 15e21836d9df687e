"""The exact engine against verbatim references of its former per-function formulas.

Each reference below repeats the formula the engine used before the block
constants moved into ``system_model.block_constants``: the same float
expressions in the same order, with ``sum()`` and ``+=`` where they were.
``sum`` is shadowed below by the left-to-right addition builtin ``sum()``
does up to Python 3.11 (from 3.12 it compensates rounding), so the
references mean on every interpreter what they meant when the engine was
checked against them.
The engine must reproduce every value exactly (``==``, not approx), and
raise what the reference raises. The brute-force oracle is checked
against the plain recursive enumeration it replaced.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from relialloc import (
    Allocation,
    OracleGuardError,
    ReliabilityAssignment,
    brute_force_optimal,
    excess_variance,
    lower_bound_subsystem,
    lower_bound_system,
    rule_allocation,
    rule_plan,
    subsystem_fractions,
    subsystem_variance,
    system_variance,
)
from relialloc import allocation as allocation_module
from relialloc.allocation import (
    AllocationRulePlan,
    apportion,
    component_fractions,
    composition_count,
    subsystem_weights,
)
from relialloc.cases import available, load_case

MAX_T = 6400


def sum(values, start=0):
    """Builtin ``sum()`` as up to Python 3.11: one term at a time, in order."""
    for value in values:
        start = start + value
    return start


# ---------------------------------------------------------------------------
# references, verbatim


def ref_subsystem_reliability(assignment, j):
    failure = 1.0
    for v in assignment.block(j):
        failure *= 1.0 - v
    return 1.0 - failure


def ref_inv_cv(p):
    return math.sqrt(p / (1.0 - p))


def ref_cv_inv_sq(p):
    return p / (1.0 - p)


def ref_subsystem_variance(assignment, j, allocation):
    allocation.require_positive(j)
    r_j = ref_subsystem_reliability(assignment, j)
    prod = 1.0
    for p, m in zip(assignment.block(j), allocation.block(j)):
        prod *= 1.0 + ref_cv_inv_sq(p) / m
    return (1.0 - r_j) ** 2 * (prod - 1.0)


def ref_system_variance(assignment, allocation):
    allocation.require_positive()
    prod = 1.0
    base = 1.0
    for j in range(assignment.topology.subsystem_count):
        r_j = ref_subsystem_reliability(assignment, j)
        prod *= ref_subsystem_variance(assignment, j, allocation) + r_j * r_j
        base *= r_j * r_j
    return prod - base


def ref_lower_bound_subsystem(assignment, j, total):
    r_j = ref_subsystem_reliability(assignment, j)
    inv_sum = sum(ref_inv_cv(p) for p in assignment.block(j))
    return (1.0 - r_j) ** 2 * inv_sum * inv_sum / total


def ref_lower_bound_system(assignment, total):
    r = 1.0
    weight = 0.0
    for j in range(assignment.topology.subsystem_count):
        r_j = ref_subsystem_reliability(assignment, j)
        r *= r_j
        inv_sum = sum(ref_inv_cv(p) for p in assignment.block(j))
        weight += (1.0 - r_j) / r_j * inv_sum
    return r * r * weight * weight / total


def ref_subsystem_weights(assignment):
    weights = []
    for j in range(assignment.topology.subsystem_count):
        r_j = ref_subsystem_reliability(assignment, j)
        inv_sum = sum(ref_inv_cv(p) for p in assignment.block(j))
        weights.append((1.0 - r_j) / r_j * inv_sum)
    return tuple(weights)


def ref_subsystem_fractions(assignment):
    weights = ref_subsystem_weights(assignment)
    total = sum(weights)
    return tuple(w / total for w in weights)


def ref_rule_plan(assignment):
    comp = tuple(
        component_fractions([ref_inv_cv(p) for p in assignment.block(j)])
        for j in range(assignment.topology.subsystem_count)
    )
    return AllocationRulePlan(comp, ref_subsystem_fractions(assignment))


def ref_rule_allocation(assignment, total):
    topo = assignment.topology
    plan = ref_rule_plan(assignment)
    block_budgets = apportion(plan.subsystem_fractions, total, list(topo.block_sizes))
    blocks = []
    for j, budget in enumerate(block_budgets):
        blocks.append(apportion(plan.component_fractions[j], budget, 1))
    return Allocation(topo, tuple(blocks))


def ref_compositions(total, parts, minimum):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in ref_compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def ref_candidate_variance(block_data, base, candidate):
    prod = 1.0
    pos = 0
    for omr2, rj2, u in block_data:
        p = 1.0
        for x in u:
            p *= 1.0 + x / candidate[pos]
            pos += 1
        prod *= omr2 * (p - 1.0) + rj2
    return prod - base


def ref_block_data(assignment):
    block_data = []
    for j in range(assignment.topology.subsystem_count):
        r_j = ref_subsystem_reliability(assignment, j)
        u = [p / (1.0 - p) for p in assignment.block(j)]
        block_data.append(((1.0 - r_j) ** 2, r_j * r_j, u))
    base = 1.0
    for _, rj2, _ in block_data:
        base *= rj2
    return block_data, base


def ref_brute_force(assignment, total, min_per_slot, candidates=None):
    """(counts, variance) of the first least-variance candidate, plain loop."""
    block_data, base = ref_block_data(assignment)
    if candidates is None:
        slots = assignment.topology.component_count
        candidates = ref_compositions(total, slots, min_per_slot)
    best = None
    best_var = math.inf
    for candidate in candidates:
        var = ref_candidate_variance(block_data, base, candidate)
        if var < best_var:
            best_var = var
            best = candidate
    blocks = []
    pos = 0
    for size in assignment.topology.block_sizes:
        blocks.append(tuple(best[pos : pos + size]))
        pos += size
    allocation = Allocation(assignment.topology, tuple(blocks))
    return allocation.counts, ref_system_variance(assignment, allocation)


# ---------------------------------------------------------------------------
# instances


def exact_alloc_instances(seed, count):
    """Systems and budgets shaped like the exact_alloc benchmark's queries."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        slots = sum(sizes)
        total = round(math.exp(rng.uniform(math.log(slots), math.log(MAX_T))))
        total = min(max(total, slots), MAX_T)
        blocks = [[rng.uniform(0.01, 0.99) for _ in range(s)] for s in sizes]
        out.append((ReliabilityAssignment.from_blocks(blocks), total))
    return out


def bundled_instances():
    out = []
    for name in available():
        assignment = load_case(name)
        slots = assignment.topology.component_count
        for total in (slots, slots + 1, 20, 100, 400, 1600, 6400):
            out.append((assignment, max(total, slots)))
    return out


INSTANCES = exact_alloc_instances(20260808, 400) + bundled_instances()


def same(engine, reference, *args):
    """Engine and reference return identical values or raise the same error."""
    try:
        expected = reference(*args)
    except Exception as exc:  # the engine must fail the same way
        with pytest.raises(type(exc)) as info:
            engine(*args)
        assert str(info.value) == str(exc)
        return
    assert engine(*args) == expected


# ---------------------------------------------------------------------------
# the exact engine


class TestExactEngine:
    def test_variances(self):
        for a, total in INSTANCES:
            alloc = ref_rule_allocation(a, total)
            assert system_variance(a, alloc) == ref_system_variance(a, alloc)
            for j in range(a.topology.subsystem_count):
                assert subsystem_variance(a, j, alloc) == ref_subsystem_variance(a, j, alloc)
            var = ref_system_variance(a, alloc)
            expected = total * (var - ref_lower_bound_system(a, total))
            assert excess_variance(a, var, total) == expected

    def test_variances_of_uneven_allocations(self):
        rng = np.random.default_rng(7)
        for a, total in INSTANCES[:200]:
            counts = tuple(
                tuple(int(c) for c in rng.integers(1, 200, len(block))) for block in a.values
            )
            alloc = Allocation(a.topology, counts)
            assert system_variance(a, alloc) == ref_system_variance(a, alloc)
            for j in range(a.topology.subsystem_count):
                assert subsystem_variance(a, j, alloc) == ref_subsystem_variance(a, j, alloc)

    def test_lower_bounds(self):
        for a, total in INSTANCES:
            assert lower_bound_system(a, total) == ref_lower_bound_system(a, total)
            for j in range(a.topology.subsystem_count):
                block_total = max(1, total // a.topology.subsystem_count)
                assert lower_bound_subsystem(a, j, block_total) == ref_lower_bound_subsystem(
                    a, j, block_total
                )

    def test_rule(self):
        for a, total in INSTANCES:
            assert subsystem_weights(a) == ref_subsystem_weights(a)
            assert subsystem_fractions(a) == ref_subsystem_fractions(a)
            assert rule_plan(a) == ref_rule_plan(a)
            assert rule_allocation(a, total) == ref_rule_allocation(a, total)

    def test_block_index_out_of_range_fails_alike(self):
        a = ReliabilityAssignment.from_blocks([[0.2, 0.5], [0.9]])
        for counts in (((3, 4), (5,)), ((3, 4), (0,))):
            alloc = Allocation(a.topology, counts)
            for j in (-2, -1, 2):
                same(subsystem_variance, ref_subsystem_variance, a, j, alloc)
                same(lower_bound_subsystem, ref_lower_bound_subsystem, a, j, 10)

    @pytest.mark.parametrize(
        "blocks",
        [
            [[1e-300]],  # R_j rounds to 0: the weight divides by zero
            [[0.5, 0.5], [1e-300, 1e-300]],
            [[1 - 1e-16]],  # R_j rounds to 1: the weight is 0
            [[1 - 1e-12, 1 - 1e-12], [0.3]],
            [[5e-324, 0.4]],
        ],
    )
    def test_degenerate_blocks_fail_alike(self, blocks):
        a = ReliabilityAssignment.from_blocks(blocks)
        alloc = Allocation(a.topology, tuple((3,) * len(b) for b in blocks))
        same(system_variance, ref_system_variance, a, alloc)
        same(lower_bound_system, ref_lower_bound_system, a, 10)
        same(lower_bound_subsystem, ref_lower_bound_subsystem, a, 0, 10)
        same(subsystem_weights, ref_subsystem_weights, a)
        same(subsystem_fractions, ref_subsystem_fractions, a)
        same(rule_plan, ref_rule_plan, a)
        same(rule_allocation, ref_rule_allocation, a, 10)


# ---------------------------------------------------------------------------
# the brute-force oracle


def oracle_instances(seed, count, minimum):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        slots = rng.randint(2, 5)
        sizes = []
        while sum(sizes) < slots:
            sizes.append(rng.randint(1, slots - sum(sizes)))
        blocks = [[rng.uniform(0.01, 0.99) for _ in range(s)] for s in sizes]
        total = slots * minimum
        while composition_count(total + 1, slots, minimum) <= 600:
            total += 1
        out.append((ReliabilityAssignment.from_blocks(blocks), rng.randint(slots * minimum, total)))
    return out


class TestOracle:
    @pytest.mark.parametrize("minimum", [1, 2])
    def test_matches_plain_enumeration(self, minimum):
        for a, total in oracle_instances(minimum, 60, minimum):
            best, best_var = brute_force_optimal(a, total, minimum)
            assert (best.counts, best_var) == ref_brute_force(a, total, minimum)

    @pytest.mark.parametrize(
        "blocks, total, winner",
        [([[0.4, 0.4]], 7, ((3, 4),)), ([[0.5], [0.5]], 9, ((4,), (5,)))],
    )
    def test_tie_goes_to_the_lexicographically_smallest(self, blocks, total, winner):
        # two identical slots: swapping their counts leaves the variance
        # bit-identical, and an odd budget puts the optimum on such a pair
        a = ReliabilityAssignment.from_blocks(blocks)
        data, base = ref_block_data(a)
        low, high = total // 2, total - total // 2
        assert ref_candidate_variance(data, base, (low, high)) == ref_candidate_variance(
            data, base, (high, low)
        )
        best, best_var = brute_force_optimal(a, total, 1)
        assert best.counts == winner
        assert (best.counts, best_var) == ref_brute_force(a, total, 1)

    def test_rounding_orders_permuted_optima_alike(self):
        # Identical components make permuted allocations equal in exact
        # arithmetic; only the rounding of each candidate's variance decides
        # between them, so the walk must round exactly as the closed form.
        rng = random.Random(3)
        for _ in range(400):
            p, q = (round(rng.uniform(0.05, 0.95), 2) for _ in range(2))
            blocks = [[p] * rng.randint(2, 5)]
            ends = rng.randrange(4)
            if ends & 1:
                blocks.insert(0, [q])
            if ends & 2:  # with ends == 3, two identical single-slot blocks
                blocks.append([q])
            a = ReliabilityAssignment.from_blocks(blocks)
            slots = a.topology.component_count
            total = rng.randint(slots + 1, slots + 12)
            best, best_var = brute_force_optimal(a, total, 1)
            assert (best.counts, best_var) == ref_brute_force(a, total, 1)

    @pytest.mark.parametrize("blocks", [[[0.42]], [[0.2, 0.5, 0.9]], [[0.3], [0.6], [0.9]]])
    def test_one_slot_one_block_and_single_slot_blocks(self, blocks):
        a = ReliabilityAssignment.from_blocks(blocks)
        slots = a.topology.component_count
        for minimum in (1, 3):
            for total in (slots * minimum, slots * minimum + 1, 17, 29):
                if total >= slots * minimum:
                    best, best_var = brute_force_optimal(a, total, minimum)
                    assert (best.counts, best_var) == ref_brute_force(a, total, minimum)

    def test_guard_raises_before_any_enumeration(self, monkeypatch):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.6], [0.7]])
        assert composition_count(12, 3, 1) == 55

        def no_enumeration(*args):
            raise AssertionError("the guard must trip before the constants are built")

        monkeypatch.setattr(allocation_module, "block_constants", no_enumeration)
        with pytest.raises(OracleGuardError):
            brute_force_optimal(a, 12, 1, guard=54)
        monkeypatch.undo()
        best, _ = brute_force_optimal(a, 12, 1, guard=55)
        assert best.total == 12

    @pytest.mark.parametrize("total, candidates", [(1200, 1), (1201, 1200)])
    def test_thousand_slot_system_does_not_recurse(self, total, candidates):
        # 240 blocks of 5 slots: the walk is iterative, so the slot count is
        # not bounded by the interpreter's recursion limit
        rng = random.Random(11)
        a = ReliabilityAssignment.from_blocks(
            [[rng.uniform(0.01, 0.99) for _ in range(5)] for _ in range(240)]
        )
        slots = a.topology.component_count
        assert slots == 1200 and composition_count(total, slots, 1) == candidates
        best, best_var = brute_force_optimal(a, total, 1)
        extra = total - slots
        # every candidate is one observation per slot plus ``extra`` more at
        # one slot; lexicographic order puts the extra unit last first
        units = [
            tuple(1 + extra * (i == k) for i in range(slots))
            for k in reversed(range(slots - candidates, slots))
        ]
        assert (best.counts, best_var) == ref_brute_force(a, total, 1, units)
