import numpy as np
import pytest

from relialloc import (
    BudgetError,
    ReliabilityAssignment,
    ReplaySource,
    SampleLedger,
    SimulatedSource,
    SourceExhaustedError,
    estimate_reliability,
    hybrid_two_stage,
    mle_cv,
    pilot_size,
    replication_rng,
    rule_plan,
    simulate_fixed_allocation,
    system_reliability,
    two_stage_subsystem,
)
from relialloc import adaptive_sampling
from relialloc.adaptive_sampling import (
    DECISION_CACHE_SIZE,
    LIST_BLOCK_MAX,
    SHORT_REQUEST_MAX,
    plan_block_targets,
)
from relialloc.cases import load_case
from relialloc.experiments import simulate_records
from relialloc.variance_analysis import Allocation, AllocationError

from conftest import random_assignment


class TestPilotSize:
    @pytest.mark.parametrize("total,expected", [(20, 4), (100, 10), (3, 1), (1, 1)])
    def test_values(self, total, expected):
        assert pilot_size(total) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pilot_size(0)


class TestMleCv:
    def test_balanced_pilot(self):
        r, cv, cv_inv = mle_cv(10, 5)
        assert r == pytest.approx(0.5)
        assert cv == pytest.approx(1.0)
        assert cv_inv == pytest.approx(1.0)

    def test_all_failures_clamped(self):
        r, cv, _ = mle_cv(10, 0)
        assert r == pytest.approx(0.05)
        assert cv == pytest.approx(np.sqrt(19.0), rel=1e-12)

    def test_all_successes_clamped(self):
        r, _, cv_inv = mle_cv(10, 10)
        assert r == pytest.approx(0.95)
        assert cv_inv == pytest.approx(np.sqrt(19.0), rel=1e-12)

    def test_needs_draws(self):
        with pytest.raises(ValueError):
            mle_cv(0, 0)


class TestBlockTargets:
    def test_three_to_one_estimates(self):
        assert plan_block_targets([3.0, 1.0], 20, [4, 4]) == (15, 5)

    def test_plan_validates(self):
        with pytest.raises(AllocationError):
            plan_block_targets([1.0, 1.0], 4, [4, 4])  # floors exceed the budget


DECISIONS = ("_block_pilot", "_block_targets", "_block_budgets")


def clear_decision_caches():
    for name in DECISIONS:
        getattr(adaptive_sampling, name).cache_clear()


def scripted_source(topology, per_slot):
    """Replay source with a fixed outcome list per slot (i, j)."""
    rows = []
    for (i, j), outcomes in per_slot.items():
        rows.extend((i, j, o) for o in outcomes)
    return ReplaySource(topology, rows)


class TestTwoStageSubsystem:
    def test_budget_and_floor_conservation(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        rng = replication_rng(3, 0, 0)
        ledger = SampleLedger(a.topology)
        counts = two_stage_subsystem(SimulatedSource(a, rng), 0, 20, ledger)
        assert sum(counts) == 20
        assert all(c >= 4 for c in counts)
        assert sum(ledger.draws[0]) == 20

    def test_existing_draws_count_toward_budget(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        ledger = SampleLedger(a.topology)
        ledger.draws[0][:] = [6, 2]
        ledger.successes[0][:] = [3, 1]
        rng = replication_rng(3, 0, 1)
        counts = two_stage_subsystem(SimulatedSource(a, rng), 0, 20, ledger)
        assert sum(counts) == 20
        assert counts[0] >= 6  # draws are never discarded

    def test_over_budget_ledger_rejected(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        ledger = SampleLedger(a.topology)
        ledger.draws[0][0] = 30
        ledger.successes[0][0] = 10
        with pytest.raises(BudgetError):
            two_stage_subsystem(SimulatedSource(a, replication_rng(0, 0, 0)), 0, 20, ledger)

    def test_replay_reruns_identically(self):
        a = ReliabilityAssignment.from_blocks([[0.6, 0.4]])
        per_slot = {
            (0, 0): [1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1],
            (1, 0): [0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0],
        }
        ledgers = []
        for _ in range(2):
            ledger = SampleLedger(a.topology)
            two_stage_subsystem(scripted_source(a.topology, per_slot), 0, 16, ledger)
            ledgers.append((ledger.draws, ledger.successes))
        assert ledgers[0] == ledgers[1]

    def test_replay_exhaustion_is_hard_error(self):
        a = ReliabilityAssignment.from_blocks([[0.6, 0.4]])
        source = scripted_source(a.topology, {(0, 0): [1, 0], (1, 0): [1]})
        with pytest.raises(SourceExhaustedError):
            two_stage_subsystem(source, 0, 16, SampleLedger(a.topology))

    @pytest.fixture
    def no_estimates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mle_cv called on a full block")

        monkeypatch.setattr(adaptive_sampling, "mle_cv", refuse)
        clear_decision_caches()  # a cached answer would skip mle_cv

    def test_full_ledger_returns_unchanged_without_estimates(self, rng, no_estimates):
        # Draws that already fill the budget are the only allocation their
        # floors allow: no draw, no estimate, and the plan agrees.
        for _ in range(50):
            a = random_assignment(rng, max_blocks=1, max_slots=5)
            size = a.topology.block_sizes[0]
            draws = [int(d) for d in rng.integers(1, 12, size=size)]
            successes = [int(rng.integers(0, d + 1)) for d in draws]
            ledger = SampleLedger(a.topology)
            ledger.draws[0][:] = draws
            ledger.successes[0][:] = successes
            empty = ReplaySource(a.topology, [])  # any draw is SourceExhaustedError
            assert two_stage_subsystem(empty, 0, sum(draws), ledger) == tuple(draws)
            assert (ledger.draws, ledger.successes) == ([draws], [successes])
            cv_inverses = [mle_cv(d, s)[2] for d, s in zip(draws, successes)]
            assert plan_block_targets(cv_inverses, sum(draws), draws) == tuple(draws)

    def test_pilot_that_fills_the_budget_skips_estimates(self, no_estimates):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        ledger = SampleLedger(a.topology)
        source = SimulatedSource(a, replication_rng(3, 0, 0), 4)
        assert two_stage_subsystem(source, 0, 4, ledger) == (2, 2)
        assert source.remaining == 0

    def test_small_budget_caps_pilot(self):
        # five slots, budget 10: the sqrt pilot (3) would not fit; 2 does
        a = ReliabilityAssignment.from_blocks([[0.5] * 5])
        ledger = SampleLedger(a.topology)
        counts = two_stage_subsystem(
            SimulatedSource(a, replication_rng(5, 0, 0)), 0, 10, ledger
        )
        assert sum(counts) == 10
        assert all(c >= 2 for c in counts)


class TestHybrid:
    def test_budget_exactness_and_floors(self, rng):
        for _ in range(25):
            a = random_assignment(rng, max_blocks=3, max_slots=3, lo=0.1, hi=0.9)
            total = int(rng.integers(30, 200))
            pilot = pilot_size(total)
            if total < a.topology.subsystem_count * pilot:
                continue
            if any(pilot < s for s in a.topology.block_sizes):
                continue
            stream = replication_rng(9, 0, int(rng.integers(0, 1000)))
            result = hybrid_two_stage(SimulatedSource(a, stream), a.topology, total)
            assert result.allocation.total == total
            assert sum(result.block_budgets) == total
            assert result.allocation.block_totals == result.block_budgets
            assert all(b >= pilot for b in result.block_budgets)
            assert all(c >= 1 for blk in result.allocation.counts for c in blk)

    def test_determinism(self):
        a = ReliabilityAssignment.from_blocks([[0.1, 0.11], [0.9, 0.99]])
        runs = []
        for _ in range(2):
            stream = replication_rng(123, 0, 7)
            result = hybrid_two_stage(SimulatedSource(a, stream), a.topology, 20)
            runs.append(
                (
                    result.allocation.counts,
                    result.reliability_estimate,
                    result.block_budgets,
                    [list(b) for b in result.ledger.successes],
                )
            )
        assert runs[0] == runs[1]

    def test_infeasible_budget_rejected(self):
        # pilot floor(sqrt(3)) = 1 cannot reach both slots of a block
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(BudgetError):
            hybrid_two_stage(
                SimulatedSource(a, replication_rng(0, 0, 0)), a.topology, 3
            )

    def test_symmetric_blocks_split_evenly_for_large_budgets(self):
        a = ReliabilityAssignment.from_blocks([[0.4, 0.6], [0.4, 0.6]])
        shares = []
        for rep in range(40):
            stream = replication_rng(31, 0, rep)
            result = hybrid_two_stage(SimulatedSource(a, stream), a.topology, 4000)
            shares.append(result.block_budgets[0] / 4000)
        assert np.mean(shares) == pytest.approx(0.5, abs=0.02)

    def test_realized_fractions_converge_to_rule(self):
        # max deviation from the closed-form fractions shrinks as T grows
        a = ReliabilityAssignment.from_blocks([[0.5, 0.55], [0.51, 0.6]])
        plan = rule_plan(a)
        reps = 200
        deviations = []
        for total in (100, 1000, 10000):
            dev = 0.0
            for rep in range(reps):
                stream = replication_rng(17, total, rep)
                result = hybrid_two_stage(SimulatedSource(a, stream), a.topology, total)
                for j, block in enumerate(result.allocation.counts):
                    t_j = sum(block)
                    dev = max(
                        dev, abs(t_j / total - plan.subsystem_fractions[j])
                    )
                    for i, c in enumerate(block):
                        dev = max(dev, abs(c / t_j - plan.component_fractions[j][i]))
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]


def _recorded_calls(monkeypatch, name, total):
    calls = []
    draw_many = SimulatedSource.draw_many

    def recording(self, i, j, count):
        calls.append((i, j, count))
        return draw_many(self, i, j, count)

    monkeypatch.setattr(SimulatedSource, "draw_many", recording)
    a = load_case(name)
    result = hybrid_two_stage(
        SimulatedSource(a, replication_rng(11, 0, 3), total), a.topology, total
    )
    return calls, result


class TestDrawManyCallStructure:
    """The (i, j, count) sequence of one seeded hybrid replication, drawn
    from a one-block source. A benchmark that traces ``draw_many`` counts
    these calls, so the design must keep making exactly them."""

    def test_case_a_at_20(self, monkeypatch):
        calls, result = _recorded_calls(monkeypatch, "A", 20)
        assert calls == [
            (0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 1, 2), (0, 0, 2), (1, 0, 2), (0, 0, 4), (1, 0, 4),
        ]
        assert result.allocation.counts == ((8, 8), (2, 2))
        assert result.reliability_estimate == 0.34375

    def test_chain_at_400(self, monkeypatch):
        calls, result = _recorded_calls(monkeypatch, "chain_2_3_4_5", 400)
        assert calls == [
            (0, 0, 4), (1, 0, 4), (0, 0, 10), (1, 0, 2),
            (0, 1, 4), (1, 1, 4), (2, 1, 4), (1, 1, 3), (2, 1, 5),
            (0, 2, 4), (1, 2, 4), (2, 2, 4), (3, 2, 4), (0, 2, 2), (1, 2, 1), (2, 2, 1),
            (0, 3, 4), (1, 3, 4), (2, 3, 4), (3, 3, 4), (4, 3, 4),
            (0, 0, 4), (1, 0, 12), (0, 0, 118), (1, 0, 186),
        ]
        assert result.block_budgets == (340, 20, 20, 20)
        assert result.reliability_estimate == 0.4681545559400231


def _hybrid_runs(name, total, reps):
    """Estimate, ledger and block budgets of seeded hybrid replications."""
    a = load_case(name)
    runs = []
    for k in range(reps):
        source = SimulatedSource(a, replication_rng(13, total, k), total)
        result = hybrid_two_stage(source, a.topology, total)
        assert source.remaining == 0
        ledger = result.ledger
        runs.append(
            (result.reliability_estimate, ledger.draws, ledger.successes, result.block_budgets)
        )
    return runs


def _cache_hits():
    return sum(getattr(adaptive_sampling, name).cache_info().hits for name in DECISIONS)


def _cold_warm_uncached(monkeypatch, run):
    clear_decision_caches()
    cold = run()
    hits = _cache_hits()
    warm = run()
    assert _cache_hits() > hits  # the rerun answered from the caches
    with monkeypatch.context() as patch:
        for name in DECISIONS:
            patch.setattr(adaptive_sampling, name, getattr(adaptive_sampling, name).__wrapped__)
        uncached = run()
    return cold, warm, uncached


class TestDecisionCaches:
    """The design's decisions are cached pure functions: outputs never
    depend on what the caches already hold."""

    @pytest.mark.parametrize(
        "name,total,reps",
        [("A", 20, 40), ("B", 20, 40), ("C", 20, 40), ("D", 20, 40),
         ("chain_2_3_4_5", 400, 15), ("chain_2_3_4_5", 6400, 6)],
    )
    def test_hybrid_replications_do_not_depend_on_the_caches(
        self, monkeypatch, name, total, reps
    ):
        cold, warm, uncached = _cold_warm_uncached(
            monkeypatch, lambda: _hybrid_runs(name, total, reps)
        )
        assert cold == warm == uncached

    @pytest.mark.parametrize("t1", [4, 10, 16])
    def test_fixed_split_replications_do_not_depend_on_the_caches(self, monkeypatch, t1):
        cold, warm, uncached = _cold_warm_uncached(
            monkeypatch,
            lambda: simulate_records(load_case("A"), "fixed-split", 20, 30, 13, t1),
        )
        assert cold == warm == uncached

    def test_budget_error_is_raised_again_on_a_repeated_key(self):
        # Three slots, budget 4, pooled draws (2, 2, 0): even a pilot of one
        # draw per slot needs 5.
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5, 0.5]])
        clear_decision_caches()
        for _ in range(2):
            ledger = SampleLedger(a.topology)
            ledger.draws[0][:] = [2, 2, 0]
            ledger.successes[0][:] = [1, 1, 0]
            with pytest.raises(BudgetError):
                two_stage_subsystem(ReplaySource(a.topology, []), 0, 4, ledger)
        info = adaptive_sampling._block_pilot.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_targets_do_not_follow_later_ledger_changes(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.8]])
        ledger = SampleLedger(a.topology)
        ledger.draws[0][:] = [4, 4]
        ledger.successes[0][:] = [1, 3]
        key = (20, tuple(ledger.draws[0]), tuple(ledger.successes[0]))
        expected = adaptive_sampling._block_targets.__wrapped__(*key)
        clear_decision_caches()
        targets = adaptive_sampling._block_targets(*key)
        assert targets == expected
        # The design tops the ledger up to these targets in place.
        source = SimulatedSource(a, replication_rng(2, 0, 0), 12)
        assert two_stage_subsystem(source, 0, 20, ledger) == expected
        ledger.draws[0][0] += 5
        assert targets == expected
        assert adaptive_sampling._block_targets(*key) == expected

    def test_every_cache_is_bounded(self):
        for name in DECISIONS:
            maxsize = getattr(adaptive_sampling, name).cache_info().maxsize
            assert maxsize == DECISION_CACHE_SIZE
        assert 0 < DECISION_CACHE_SIZE < float("inf")


class TestEstimateReliability:
    def make_ledger(self, blocks, draws, successes):
        a = ReliabilityAssignment.from_blocks(blocks)
        ledger = SampleLedger(a.topology)
        ledger.draws = [list(block) for block in draws]
        ledger.successes = [list(block) for block in successes]
        return a, ledger

    def test_all_successes(self):
        a, ledger = self.make_ledger([[0.5, 0.5]], [[4, 4]], [[4, 4]])
        assert estimate_reliability(ledger) == pytest.approx(1.0)

    def test_mirrors_structure_formula(self):
        a, ledger = self.make_ledger(
            [[0.5, 0.5], [0.5, 0.5]], [[10, 10], [10, 10]], [[5, 5], [5, 5]]
        )
        assert estimate_reliability(ledger) == pytest.approx(0.5625)

    def test_single_slot_sample_mean(self):
        a, ledger = self.make_ledger([[0.5]], [[10]], [[3]])
        assert estimate_reliability(ledger) == pytest.approx(0.3)

    def test_zero_draw_slot_rejected(self):
        a, ledger = self.make_ledger([[0.5, 0.5]], [[10, 0]], [[5, 0]])
        with pytest.raises(ValueError):
            estimate_reliability(ledger)


class TestSources:
    def test_simulated_source_deterministic(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        seqs = []
        for _ in range(2):
            src = SimulatedSource(a, replication_rng(4, 2, 9))
            seqs.append([src.draw_many(0, 0, 1) for _ in range(20)] + [src.draw_many(1, 0, 30)])
        assert seqs[0] == seqs[1]

    def test_simulated_frequencies(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        src = SimulatedSource(a, replication_rng(4, 0, 0))
        n = 20000
        assert src.draw_many(0, 0, n) / n == pytest.approx(0.3, abs=0.02)
        assert src.draw_many(1, 0, n) / n == pytest.approx(0.7, abs=0.02)

    @pytest.mark.parametrize(
        "total", [20, LIST_BLOCK_MAX, LIST_BLOCK_MAX + 1, 6400],
        ids=["list-20", "list-max", "array-min", "array-6400"],
    )
    def test_block_counts_equal_per_call_counts(self, total):
        # Random request sequences summing to the block, zero counts included.
        a = ReliabilityAssignment.from_blocks([[0.2, 0.5, 0.9], [0.35], [0.6, 0.999]])
        slots = [(i, j) for j, size in enumerate(a.topology.block_sizes) for i in range(size)]
        plan_rng = np.random.default_rng(total)
        for rep in range(20):
            cuts = np.sort(plan_rng.integers(0, total + 1, size=int(plan_rng.integers(1, 40))))
            counts = np.diff(np.concatenate(([0], cuts, [total]))).tolist()
            picks = plan_rng.integers(0, len(slots), size=len(counts)).tolist()
            block = SimulatedSource(a, replication_rng(5, total, rep), total)
            per_call = SimulatedSource(a, replication_rng(5, total, rep))
            got = [block.draw_many(*slots[s], c) for s, c in zip(picks, counts)]
            assert got == [per_call.draw_many(*slots[s], c) for s, c in zip(picks, counts)]
            assert block.remaining == 0

    @pytest.mark.parametrize(
        "count", [1, SHORT_REQUEST_MAX, SHORT_REQUEST_MAX + 1, 4 * SHORT_REQUEST_MAX]
    )
    def test_array_block_counts_short_and_long_requests_alike(self, count):
        # Requests on either side of the crossover take the list scan or the
        # numpy count; both must count the same uniforms the same way.
        a = ReliabilityAssignment.from_blocks([[0.2, 0.5, 0.9], [0.999]])
        slots = [(0, 0), (1, 0), (2, 0), (0, 1)]
        total = 6400
        assert total > LIST_BLOCK_MAX
        uniforms = replication_rng(6, count, 0).random(total)
        src = SimulatedSource(a, replication_rng(6, count, 0), total)
        for k, start in enumerate(range(0, total, count)):
            i, j = slots[k % len(slots)]
            n = min(count, total - start)
            expected = int(np.count_nonzero(uniforms[start:start + n] < a.values[j][i]))
            assert src.draw_many(i, j, n) == expected
        assert src.remaining == 0

    def test_block_counts_the_streams_uniforms_in_order(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        uniforms = replication_rng(4, 2, 9).random(30)
        src = SimulatedSource(a, replication_rng(4, 2, 9), 30)
        assert src.draw_many(0, 0, 10) == int(np.count_nonzero(uniforms[:10] < 0.3))
        assert src.draw_many(1, 0, 20) == int(np.count_nonzero(uniforms[10:] < 0.7))

    @pytest.mark.parametrize("total", [20, 6400], ids=["list", "array"])
    def test_drawing_past_the_block_is_exhaustion(self, total):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        src = SimulatedSource(a, replication_rng(4, 0, 0), total)
        src.draw_many(0, 0, total - 3)
        with pytest.raises(SourceExhaustedError):
            src.draw_many(1, 0, 4)
        assert src.remaining == 3
        src.draw_many(1, 0, 3)
        assert src.remaining == 0

    def test_replay_csv_round_trip(self, tmp_path):
        a = ReliabilityAssignment.from_blocks([[0.5], [0.5]])
        path = tmp_path / "outcomes.csv"
        path.write_text(
            "subsystem,component,outcome\n1,1,1\n1,1,0\n2,1,1\n2,1,1\n"
        )
        src = ReplaySource.from_csv(path, a.topology)
        assert [src.draw_many(0, 0, 1), src.draw_many(0, 0, 1)] == [1, 0]
        assert src.draw_many(0, 1, 2) == 2
        with pytest.raises(SourceExhaustedError):
            src.draw_many(0, 0, 1)

    def test_replay_request_past_the_queue_consumes_nothing(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        src = ReplaySource(a.topology, [(0, 0, 1), (0, 0, 0), (0, 0, 1), (1, 0, 1)])
        assert src.draw_many(0, 0, 1) == 1
        with pytest.raises(SourceExhaustedError):
            src.draw_many(0, 0, 3)
        # The failed request left the cursor where it was.
        assert src.draw_many(0, 0, 2) == 1
        with pytest.raises(SourceExhaustedError):
            src.draw_many(0, 0, 1)
        assert src.draw_many(1, 0, 1) == 1

    def test_zero_count_returns_zero(self):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        replay = ReplaySource(a.topology, [(0, 0, 1)])
        assert replay.draw_many(0, 0, 0) == 0
        assert replay.draw_many(0, 0, 1) == 1
        assert replay.draw_many(0, 0, 0) == 0  # even on an exhausted queue
        simulated = SimulatedSource(a, replication_rng(4, 0, 0), 1)
        assert simulated.draw_many(0, 0, 0) == 0
        assert simulated.remaining == 1

    def test_replay_rejects_bad_header(self, tmp_path):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            ReplaySource.from_csv(path, a.topology)


class TestFixedAllocationUnbiasedness:
    def test_monte_carlo_mean_matches_truth(self):
        a = ReliabilityAssignment.from_blocks([[0.1, 0.11], [0.9, 0.99]])
        alloc = Allocation(a.topology, ((10, 10), (10, 10)))
        r_hats = simulate_fixed_allocation(a, alloc, 100_000, replication_rng(8, 0, 0))
        r = system_reliability(a)
        se = r_hats.std(ddof=1) / np.sqrt(r_hats.size)
        assert abs(r_hats.mean() - r) < 3 * se
