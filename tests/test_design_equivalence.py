"""The hybrid design's across-block budgets and the plug-in estimate against
verbatim references of their former loops.

``_block_budgets`` once computed the across-block weights in a loop of its
own; it now evaluates the allocation rule's functions
(``system_model.block_constants``, ``block_weights``, ``_normalized``) at
the clamped pilot estimates. ``estimate_reliability`` once ran its own
failure product; it now calls ``system_model._failure`` on the sample
means. The references below repeat the former code. Their one deviation:
the former builtin ``sum()`` of the weights is spelled ``left_sum``, the
left-to-right addition builtin ``sum()`` does up to Python 3.11, so the
references mean the same on every interpreter. On seeded random ledgers,
with all-failure and all-success slots among them, the new code must give
the same bits (``==``) and raise what the references raise.
"""

from __future__ import annotations

import math
import random

import pytest

from relialloc import adaptive_sampling
from relialloc.adaptive_sampling import SampleLedger, estimate_reliability, mle_cv, pilot_size
from relialloc.allocation import integerize
from relialloc.system_model import SystemTopology, _normalized, block_constants, block_weights

LEDGERS = 4000


# ---------------------------------------------------------------------------
# references, verbatim but for ``left_sum`` and the split of the fractions
# from their rounding


def left_sum(values):
    total = 0
    for v in values:
        total = total + v
    return total


def ref_block_weight(reliability, inv_sum):
    return (1.0 - reliability) / reliability * inv_sum


def ref_block_budgets(total, draws, successes):
    fractions = ref_block_fractions(draws, successes)
    return integerize(fractions, total, pilot_size(total))


def ref_block_fractions(draws, successes):
    weights = []
    for block_draws, block_successes in zip(draws, successes):
        inv_sum = 0.0
        failure = 1.0
        for d, s in zip(block_draws, block_successes):
            r_hat, _, cv_inv = mle_cv(d, s)
            inv_sum += cv_inv
            failure *= 1.0 - r_hat
        weights.append(ref_block_weight(1.0 - failure, inv_sum))
    w_total = left_sum(weights)
    return [w / w_total for w in weights]


def ref_estimate_reliability(ledger, topology):
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


# ---------------------------------------------------------------------------
# ledgers


def _ledger(rng: random.Random) -> SampleLedger:
    """Pooled counts of a random system; slots that never or always
    succeeded are common, and one draw per slot is the least."""
    topology = SystemTopology(
        tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
    )
    ledger = SampleLedger(topology)
    for block_draws, block_successes in zip(ledger.draws, ledger.successes):
        for i in range(len(block_draws)):
            d = rng.choice([1, 2, rng.randint(1, 12), rng.randint(1, 400)])
            kind = rng.random()
            if kind < 0.2:
                s = 0
            elif kind < 0.4:
                s = d
            else:
                s = rng.randint(0, d)
            block_draws[i] = d
            block_successes[i] = s
    return ledger


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception and its message are the contract
        return type(exc), str(exc)


def test_block_budgets_match_the_former_loop():
    rng = random.Random(18)
    clamped = 0
    for _ in range(LEDGERS):
        ledger = _ledger(rng)
        n = ledger.topology.subsystem_count
        # at budgets near 2**62 a last-bit change of a fraction moves its count
        total = rng.choice([rng.randint(n * n, 6400), rng.randint(2**40, 2**62)])
        draws = tuple(map(tuple, ledger.draws))
        successes = tuple(map(tuple, ledger.successes))
        estimates = [
            [mle_cv(d, s)[0] for d, s in zip(bd, bs)] for bd, bs in zip(draws, successes)
        ]
        fractions = _normalized(block_weights(block_constants(estimates)))
        assert list(fractions) == ref_block_fractions(draws, successes)
        expected = ref_block_budgets(total, draws, successes)
        assert adaptive_sampling._block_budgets.__wrapped__(total, draws, successes) == expected
        assert adaptive_sampling._block_budgets(total, draws, successes) == expected
        clamped += any(
            s in (0, d) for bd, bs in zip(draws, successes) for d, s in zip(bd, bs)
        )
    assert clamped > LEDGERS // 2  # the clamp is exercised, not only the easy path


def test_estimate_reliability_matches_the_former_loop():
    rng = random.Random(1812)
    for _ in range(LEDGERS):
        ledger = _ledger(rng)
        if rng.random() < 0.05:  # a slot with no draws raises
            j = rng.randrange(ledger.topology.subsystem_count)
            ledger.draws[j][rng.randrange(ledger.topology.block_sizes[j])] = 0
        topology = ledger.topology
        expected = _outcome(ref_estimate_reliability, ledger, topology)
        assert _outcome(estimate_reliability, ledger) == expected


@pytest.mark.parametrize("success", [0, 1])
def test_all_failure_and_all_success_ledgers(success):
    topology = SystemTopology((2, 3))
    ledger = SampleLedger(topology)
    for block_draws, block_successes in zip(ledger.draws, ledger.successes):
        for i in range(len(block_draws)):
            block_draws[i] = 5
            block_successes[i] = 5 * success
    draws = tuple(map(tuple, ledger.draws))
    successes = tuple(map(tuple, ledger.successes))
    assert estimate_reliability(ledger) == float(success)
    assert ref_estimate_reliability(ledger, topology) == float(success)
    budgets = adaptive_sampling._block_budgets.__wrapped__(400, draws, successes)
    assert budgets == ref_block_budgets(400, draws, successes)
    assert sum(budgets) == 400 and math.isqrt(400) <= min(budgets)
