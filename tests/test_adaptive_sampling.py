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
from relialloc.adaptive_sampling import plan_block_targets
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
        assert ledger.block_total(0) == 20

    def test_existing_draws_count_toward_budget(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        ledger = SampleLedger(a.topology)
        ledger.record(0, 0, 6, 3)
        ledger.record(1, 0, 2, 1)
        rng = replication_rng(3, 0, 1)
        counts = two_stage_subsystem(SimulatedSource(a, rng), 0, 20, ledger)
        assert sum(counts) == 20
        assert counts[0] >= 6  # draws are never discarded

    def test_over_budget_ledger_rejected(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        ledger = SampleLedger(a.topology)
        ledger.record(0, 0, 30, 10)
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


class TestEstimateReliability:
    def make_ledger(self, blocks, draws, successes):
        a = ReliabilityAssignment.from_blocks(blocks)
        ledger = SampleLedger(a.topology)
        for j, block in enumerate(draws):
            for i, d in enumerate(block):
                ledger.record(i, j, d, successes[j][i])
        return a, ledger

    def test_all_successes(self):
        a, ledger = self.make_ledger([[0.5, 0.5]], [[4, 4]], [[4, 4]])
        assert estimate_reliability(ledger, a.topology) == pytest.approx(1.0)

    def test_mirrors_structure_formula(self):
        a, ledger = self.make_ledger(
            [[0.5, 0.5], [0.5, 0.5]], [[10, 10], [10, 10]], [[5, 5], [5, 5]]
        )
        assert estimate_reliability(ledger, a.topology) == pytest.approx(0.5625)

    def test_single_slot_sample_mean(self):
        a, ledger = self.make_ledger([[0.5]], [[10]], [[3]])
        assert estimate_reliability(ledger, a.topology) == pytest.approx(0.3)

    def test_zero_draw_slot_rejected(self):
        a, ledger = self.make_ledger([[0.5, 0.5]], [[10, 0]], [[5, 0]])
        with pytest.raises(ValueError):
            estimate_reliability(ledger, a.topology)


class TestSources:
    def test_simulated_source_deterministic(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        seqs = []
        for _ in range(2):
            src = SimulatedSource(a, replication_rng(4, 2, 9))
            seqs.append([src.draw(0, 0) for _ in range(20)] + [src.draw_many(1, 0, 30)])
        assert seqs[0] == seqs[1]

    def test_simulated_frequencies(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.7]])
        src = SimulatedSource(a, replication_rng(4, 0, 0))
        n = 20000
        assert src.draw_many(0, 0, n) / n == pytest.approx(0.3, abs=0.02)
        assert src.draw_many(1, 0, n) / n == pytest.approx(0.7, abs=0.02)

    def test_replay_csv_round_trip(self, tmp_path):
        a = ReliabilityAssignment.from_blocks([[0.5], [0.5]])
        path = tmp_path / "outcomes.csv"
        path.write_text(
            "subsystem,component,outcome\n1,1,1\n1,1,0\n2,1,1\n2,1,1\n"
        )
        src = ReplaySource.from_csv(path, a.topology)
        assert [src.draw(0, 0), src.draw(0, 0)] == [1, 0]
        assert src.draw_many(0, 1, 2) == 2
        with pytest.raises(SourceExhaustedError):
            src.draw(0, 0)

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
