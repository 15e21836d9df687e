"""Seeded Monte Carlo experiment harness.

Three experiment drivers, each a pure function of its arguments (system,
budget or budgets, replication count, master seed):

  run_fixed_split_experiment  variance of the estimate as the two-block
                              budget split varies, the pilot floor apart
  run_hybrid_expectation      mean realized first-block budget under the
                              hybrid design
  run_convergence_sweep       optimality gap T * (Var - Q) along a budget
                              sweep

Every Monte Carlo run, here and in the CLI's ``simulate``, goes through one
records function, ``simulate_records``, which gives one (R_hat, per-slot
counts) record per replication of a scheme, and one summary of such
records, ``summarize_records``. Every scheme is a design, and the
replications of every design run through one loop, ``_map_replications``,
which owns the stream convention: replication k at a point draws from the
stream of ``replication_rng(master seed, point key, k)``, which is
``Generator(PCG64(SeedSequence((master seed, point key, k))))``, so sweep
points are independent, replication k's record does not depend on the
replication count, and reruns reproduce results exactly. The loop derives
the PCG64 states of a whole point in one vectorised pass
(``_stream_states``: ``SeedSequence``'s hashing as uint32 array
arithmetic, PCG64's seeding step on Python integers, in bounded chunks),
sets each on one generator in turn, and never builds a ``SeedSequence``;
tests hold the derived streams equal to ``SeedSequence``'s bit for bit.
``replication_rng`` is the one-replication case of the same derivation.
A replication of budget T draws exactly T outcomes, the first T uniforms
of its stream in draw order; the loop takes them as one block and checks
that all were used. Replications run one after another on the calling
thread, in index order, and aggregation walks them in that order, adding
with ``system_model.ordered_sum``, to keep emitted numbers byte-stable on
every Python version. The replication work is pure Python bound by the
interpreter lock, so worker threads would only slow it down.
"""

from __future__ import annotations

import itertools
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
from .allocation import balanced_allocation
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

#: The sampling schemes of ``simulate_records``.
SCHEMES = ("hybrid", "balanced", "fixed-split")


@dataclass(frozen=True)
class RecordSummary:
    """What ``summarize_records`` reports about a list of records."""

    mean_r_hat: float
    var_hat: float
    se: float
    mean_block_totals: tuple[float, ...]
    mean_counts: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class FixedSplitPoint:
    """Summary for one first-block budget in the fixed-split experiment.

    ``exact_conditional_mean`` is the mean over replications of
    ``system_variance`` at each replication's realized allocation M,
    E[V(M)]. It is not Var(R_hat | M): given M, the pilot outcomes that
    chose M are not binomial.
    """

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
#: ``SeedSequence``'s hash constants and PCG64's 128-bit multiplier, as
#: numpy defines them (``numpy/random/bit_generator.pyx``, ``pcg64.h``).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645

#: Replications whose streams are derived in one vectorised pass, so
#: memory stays bounded whatever the replication count. A pass costs about
#: 180 us plus 0.6 us per replication, and its arrays about 0.4 KB per
#: replication. At 512 a 1000-replication ``experiment --table1`` peaks at
#: the anonymous memory that seeding each replication through
#: ``SeedSequence`` took; at 1024 it peaked 0.2 MB higher, for 0.2 us less
#: per replication (2-core Xeon, Python 3.11.7, numpy 2.4.6).
STREAM_CHUNK = 512


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, as ``SeedSequence`` splits it."""
    value = int(value)
    if value < 0:
        raise ValueError(f"stream key entries must be nonnegative, got {value}")
    return [value >> 32 * i & _WORD for i in range(max(1, (value.bit_length() + 31) // 32))]


def _hash(value: np.ndarray, constants) -> np.ndarray:
    """``SeedSequence``'s hash of uint32 words with the next pair of its running constants."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _hash_constants(init: int, mult: int):
    """Pairs (h_k, h_k+1) of the running hash constant h_0 = init, h_k+1 = h_k * mult."""
    while True:
        yield init, (init := init * mult & _WORD)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _pcg64_states(entropy: list[np.ndarray]) -> tuple[list[int], list[int]]:
    """PCG64's (state, inc) after ``PCG64(SeedSequence(words))``, as two lists, for
    each column of uint32 entropy words.

    ``SeedSequence.mix_entropy`` into a pool of four words, then
    ``generate_state(4, uint64)``, both as uint32 array arithmetic, then
    PCG64's seeding step on Python integers.
    """
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in (entropy + [0 * entropy[0]] * 3)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hash(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    halves = np.array([_hash(word, constants) for word in pool * 2], np.uint64)
    # Joined low half first, the four uint64 words are state high, state
    # low, sequence high and sequence low. Modulo 2**128,
    # inc = 2 * sequence + 1 and state = (seed + inc) * mult + inc.
    seed_hi, seed_lo, seq_hi, seq_lo = (halves[::2] | halves[1::2] << 32).tolist()
    incs = [(hi << 65 | lo << 1 | 1) % 2**128 for hi, lo in zip(seq_hi, seq_lo)]
    states = [
        (((hi << 64 | lo) + inc) * _PCG_MULT + inc) % 2**128
        for hi, lo, inc in zip(seed_hi, seed_lo, incs)
    ]
    return states, incs


def _stream_states(master_seed: int, point_key: int, start: int, count: int):
    """PCG64 states of replications start, ..., start + count - 1 at one point.

    Each equals the state of ``PCG64(SeedSequence((master_seed, point_key,
    k)))``. They are derived ``STREAM_CHUNK`` replications at a time, and
    a chunk never crosses a multiple of 2**32: within it only the index's
    lowest word varies, so every key has the same number of words.
    """
    key = [np.array([w], np.uint32) for w in _words(master_seed) + _words(point_key)]
    end = start + count
    while start < end:
        upper = [np.array([w], np.uint32) for w in _words(start)[1:]]
        stop = min(end, start + STREAM_CHUNK, (start | _WORD) + 1)
        low = np.arange(start & _WORD, (start & _WORD) + stop - start, dtype=np.uint32)
        for s, i in zip(*_pcg64_states(key + [low] + upper)):
            state = {"state": s, "inc": i}
            yield {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        start = stop


def replication_rng(master_seed: int, point_key: int, replication: int) -> np.random.Generator:
    """Independent stream for one replication of one experiment point.

    The same stream as ``Generator(PCG64(SeedSequence((master_seed,
    point_key, replication))))``: the one-replication case of the
    derivation ``_map_replications`` runs for a whole point.
    """
    bit_generator = np.random.PCG64(0)
    bit_generator.state = next(_stream_states(master_seed, point_key, replication, 1))
    return np.random.Generator(bit_generator)


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


def simulate_fixed_allocation(
    assignment: ReliabilityAssignment, allocation: Allocation, replications: int, rng
) -> np.ndarray:
    """Vectorized replication of the estimator under a fixed allocation.

    Success counts per slot are binomial draws from the one stream
    ``rng``, which is distributionally identical to summing individual
    Bernoulli outcomes. Returns one reliability estimate per replication.
    No CLI run calls it: the balanced scheme of ``simulate_records`` draws
    per-replication streams. It is the fast one-stream reference against
    which tests and acceptance criterion 1 check the exact variance.
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

    Replication k draws from ``SimulatedSource(assignment, rng, draws)``,
    where ``rng`` is one generator per point set to the state of
    ``replication_rng(master_seed, point_key, k)``. The states of the whole
    point come from one vectorised derivation (``_stream_states``), which a
    test holds equal to ``SeedSequence``'s bit for bit. The source takes the
    replication's ``draws`` uniforms as one block, and a replication that
    leaves any of them unused is an error, so every design is checked to
    draw exactly ``draws`` outcomes. The name is private but stays as it
    is, because the benchmark's tracer times this function by name for
    ``rep_concurrency``.
    """
    results = []
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for k, state in enumerate(_stream_states(master_seed, point_key, 0, replications)):
        bit_generator.state = state
        source = SimulatedSource(assignment, rng, draws)
        results.append(design(source))
        if source.remaining:
            raise RuntimeError(
                f"replication {k} left {source.remaining} of its {draws} draws unused"
            )
    return results


def _require_two_blocks(assignment: ReliabilityAssignment) -> None:
    if assignment.topology.subsystem_count != 2:
        raise AllocationError("the fixed-split design needs exactly two subsystems")


def simulate_records(
    assignment: ReliabilityAssignment, scheme: str, total: int, replications: int,
    master_seed: int, t1: int | None = None, point_key: int = 0,
) -> list[tuple[float, tuple[tuple[int, ...], ...]]]:
    """(R_hat, per-slot counts) of each replication of one scheme at budget ``total``.

    ``hybrid`` runs the hybrid two-stage design at ``point_key``.
    ``fixed-split`` runs the component-level two-stage design on the first
    block with budget ``t1`` and on the second with ``total - t1``, at point
    key ``t1``; two-block systems only, with ``t1`` in 1..total-1.
    ``balanced`` takes each slot's count of the equal-share allocation at
    ``point_key``, block by block and within a block in component order.
    All three run through ``_map_replications``, so record k depends on
    ``master_seed``, the point key and k, not on ``replications``.
    """
    intern = {}.setdefault  # equal count tuples of one call share one object
    if scheme == "balanced":
        counts = balanced_allocation(assignment.topology, total).counts

        def design(source):
            ledger = SampleLedger(assignment.topology)
            for j, block in enumerate(counts):
                for i, m in enumerate(block):
                    ledger.draws[j][i] = m
                    ledger.successes[j][i] = source.draw_many(i, j, m)
            return estimate_reliability(ledger), counts

    elif scheme == "hybrid":

        def design(source):
            result = hybrid_two_stage(source, assignment.topology, total)
            counts = tuple(map(tuple, result.ledger.draws))
            return result.reliability_estimate, intern(counts, counts)

    elif scheme == "fixed-split":
        _require_two_blocks(assignment)
        if t1 is None or not 0 < t1 < total:
            raise AllocationError(f"T1 = {t1} must lie in 1..T-1 for T = {total}")
        point_key = t1

        def design(source):
            ledger = SampleLedger(assignment.topology)
            two_stage_subsystem(source, 0, t1, ledger)
            two_stage_subsystem(source, 1, total - t1, ledger)
            counts = tuple(map(tuple, ledger.draws))
            return estimate_reliability(ledger), intern(counts, counts)

    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return _map_replications(assignment, replications, master_seed, point_key, design, total)


def summarize_records(records) -> RecordSummary:
    """Mean estimate, ``empirical_variance``'s (var, se), and mean counts.

    The mean estimate is the ``ordered_sum`` of the estimates in
    replication order; each mean count is an integer sum over the records
    divided once. Every driver and the CLI's ``simulate`` report these
    bits for the same records.
    """
    r_hats, counts = zip(*records)
    k = len(r_hats)
    var, se = empirical_variance(r_hats)
    slot_sums = [[sum(slot) for slot in zip(*block)] for block in zip(*counts)]
    return RecordSummary(
        mean_r_hat=float(ordered_sum(r_hats) / k),
        var_hat=var,
        se=se,
        mean_block_totals=tuple(sum(block) / k for block in slot_sums),
        mean_counts=tuple(tuple(c / k for c in block) for block in slot_sums),
    )


def run_fixed_split_experiment(
    assignment: ReliabilityAssignment, total: int, replications: int, master_seed: int
) -> list[FixedSplitPoint]:
    """Variance of the estimate per first-block budget, two-block systems only.

    For each split (T1, T - T1) with T1 from the pilot floor up to the
    mirrored floor, the component-level two-stage design runs independently
    on each block. Beside the Monte Carlo variance each point reports
    E[V(M)], the mean over replications of ``system_variance`` at the
    realized allocation M. That is not the variance conditioned on the
    realized allocations.
    """
    _require_two_blocks(assignment)
    low = pilot_size(total)
    points = []
    for t1 in range(low, total - low + 1):
        records = simulate_records(assignment, "fixed-split", total, replications, master_seed, t1)
        summary = summarize_records(records)

        # one exact variance per distinct allocation, in order of first use
        variances = {
            counts: system_variance(assignment, Allocation(assignment.topology, counts))
            for counts in dict.fromkeys(counts for _, counts in records)
        }
        exact = ordered_sum(variances[counts] for _, counts in records)
        points.append(
            FixedSplitPoint(
                t1=t1,
                t2=total - t1,
                var_hat=summary.var_hat,
                se=summary.se,
                mean_r_hat=summary.mean_r_hat,
                exact_conditional_mean=exact / replications,
            )
        )
    return points


def run_hybrid_expectation(
    assignment: ReliabilityAssignment, total: int, replications: int, master_seed: int
) -> HybridExpectation:
    """Mean realized block budgets (and estimator statistics) under the hybrid design."""
    records = simulate_records(assignment, "hybrid", total, replications, master_seed)
    summary = summarize_records(records)
    mean_t1 = summary.mean_block_totals[0]
    return HybridExpectation(
        total=total,
        replications=replications,
        mean_block_totals=summary.mean_block_totals,
        mean_t1=mean_t1,
        rounded_t1=round(mean_t1),
        var_hat=summary.var_hat,
        se=summary.se,
        mean_r_hat=summary.mean_r_hat,
    )


def run_convergence_sweep(
    assignment: ReliabilityAssignment, budgets, replications: int, master_seed: int
) -> list[SweepPoint]:
    """Optimality gap T * (Var - Q) at each budget; a budget is its own point key."""
    points = []
    for total in budgets:
        records = simulate_records(
            assignment, "hybrid", total, replications, master_seed, point_key=total
        )
        summary = summarize_records(records)
        q = lower_bound_system(assignment, total)
        points.append(
            SweepPoint(
                total=total,
                var_hat=summary.var_hat,
                se=summary.se,
                q_bound=q,
                excess=total * (summary.var_hat - q),
                mean_r_hat=summary.mean_r_hat,
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
    rows = [[format_value(v) for v in (p.t1, p.var_hat, p.se, p.mean_r_hat)] for p in points]
    return header, rows


def convergence_rows(points: list[SweepPoint]) -> tuple[list[str], list[list[str]]]:
    header = ["T", "var_hat", "se", "Q", "excess"]
    rows = [
        [format_value(v) for v in (p.total, p.var_hat, p.se, p.q_bound, p.excess)] for p in points
    ]
    return header, rows


def table_rows(results: list[tuple[str, HybridExpectation]]) -> tuple[list[str], list[list[str]]]:
    header = ["case", "mean_T1", "rounded_T1"]
    rows = [[name, format_value(r.mean_t1), format_value(r.rounded_t1)] for name, r in results]
    return header, rows
