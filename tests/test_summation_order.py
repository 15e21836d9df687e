"""Float sums add in index order, whatever the Python version.

Builtin ``sum()`` adds floats one by one up to Python 3.11; from 3.12 on it
adds them with Neumaier's compensation, which moves last bits. The package
adds floats only through ``system_model.ordered_sum``, so its numbers do
not depend on the interpreter. Two checks, both on this interpreter:

- every public path that adds floats runs with a ``sum`` that refuses
  floats, and returns what it returns without the patch;
- the rule's fractions and the system lower bound of every bundled case
  keep their pinned bits (those of builtin ``sum`` on 3.11) under an
  emulation of 3.12's compensated ``sum``.
"""

from __future__ import annotations

import builtins
import hashlib
import math
import random

import pytest

from relialloc import (
    adaptive_sampling,
    brute_force_optimal,
    lagrange_decomposition,
    lower_bound_subsystem,
    lower_bound_system,
    rule_allocation,
    rule_plan,
    run_convergence_sweep,
    run_fixed_split_experiment,
    run_hybrid_expectation,
    system_variance,
)
from relialloc.allocation import balanced_allocation
from relialloc.cases import available, load_case
from relialloc.experiments import _estimate_summary
from relialloc.system_model import ordered_sum

BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()`` in Python: an int fast path, then
    Neumaier-compensated addition of exact floats (ints added plainly),
    then plain ``+`` for anything else."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                total += item
                continue
            total = total + item
            break
        else:
            return total
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                if c and math.isfinite(c):
                    total += c
                total = total + item
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        total = total + item
    return total


def int_only_sum(iterable, /, start=0):
    """Builtin ``sum()`` for anything but floats."""
    items = list(iterable)
    if isinstance(start, float) or any(isinstance(x, float) for x in items):
        raise AssertionError("a float sum went through builtin sum()")
    return BUILTIN_SUM(items, start)


CASE_A = load_case("A")
CHAIN = load_case("chain_2_3_4_5")
CHAIN_BALANCED = balanced_allocation(CHAIN.topology, 140)

PATHS = {
    "rule_plan": lambda: rule_plan(CHAIN),
    "rule_allocation": lambda: rule_allocation(CHAIN, 200),
    "system_variance": lambda: system_variance(CHAIN, CHAIN_BALANCED),
    "lower_bound_subsystem": lambda: lower_bound_subsystem(CHAIN, 3, 50.0),
    "lower_bound_system": lambda: lower_bound_system(CHAIN, 200),
    "lagrange_decomposition": lambda: lagrange_decomposition(
        [0.3, 1.2, 2.0], [3.0, 5.0, 7.0]
    ),
    "brute_force_optimal": lambda: brute_force_optimal(CASE_A, 12),
    "run_fixed_split_experiment": lambda: run_fixed_split_experiment(CASE_A, 12, 20, 3),
    "run_hybrid_expectation": lambda: run_hybrid_expectation(CASE_A, 20, 20, 3),
    "run_convergence_sweep": lambda: run_convergence_sweep(CHAIN, [25, 36], 10, 3),
    "_estimate_summary": lambda: _estimate_summary([0.1, 0.2, 0.7, 1e-17]),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_no_float_goes_through_builtin_sum(path, monkeypatch):
    expected = PATHS[path]()
    # the design's decisions are cached: recompute them under the patch
    for name in ("_block_pilot", "_block_targets", "_block_budgets"):
        getattr(adaptive_sampling, name).cache_clear()
    monkeypatch.setattr(builtins, "sum", int_only_sum)
    assert PATHS[path]() == expected


def test_int_only_sum_refuses_floats():
    assert int_only_sum([1, 2, 3]) == 6
    with pytest.raises(AssertionError):
        int_only_sum([1, 2.0])


#: SHA-256 of repr((component fractions, subsystem fractions,
#: lower_bound_system at T=1000)) per bundled case, as builtin ``sum``
#: gave them on Python 3.11.
PINNED = {
    "A": "fcd4a3679e6de99e8684f2fcff006ed731a21f533fcafa4bd311626458756be9",
    "B": "9984301eb75c094701e5601b6699211ef77529fae5d2bc1cae0d008b0d9e67ea",
    "C": "cd72ef95e2bfa1e5100eb0f58340d3a8d9167398b927e087b4ea477a358923bd",
    "D": "94d7785d90e7edf6a1ee56a87b6ae072d138023719b7fa47f1a810220e89742c",
    "chain_2_3_4_5": "ce5d5ffa7bf58c77ee315af21c6ba5c47479def73cc236a6eebbf66c78e612f2",
    "parallel_four": "eb450a5d763773ef5b36e4e2722211543eeae8db897a0bfd2468bec8da3f45ae",
}


def test_every_bundled_case_is_pinned():
    assert sorted(PINNED) == sorted(available())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rule_and_bound_keep_their_bits_under_a_compensated_sum(name, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assignment = load_case(name)
    plan = rule_plan(assignment)
    values = (
        plan.component_fractions,
        plan.subsystem_fractions,
        lower_bound_system(assignment, 1000),
    )
    assert hashlib.sha256(repr(values).encode()).hexdigest() == PINNED[name]


def test_the_emulation_compensates():
    # the sum of ten 0.1s is 0.9999999999999999 added in order, 1.0 compensated
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([2, 0.5, 1]) == 3.5


def test_ordered_sum_adds_in_index_order():
    rng = random.Random(7)
    for _ in range(2000):
        xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(rng.randint(0, 9))]
        total = 0.0
        for x in xs:
            total += x
        assert ordered_sum(xs) == total
        assert ordered_sum(iter(xs)) == total
