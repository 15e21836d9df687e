import itertools
import threading

import numpy as np
import pytest

from relialloc import (
    Allocation,
    AllocationError,
    ReliabilityAssignment,
    SimulatedSource,
    empirical_variance,
    lower_bound_system,
    replication_rng,
    run_convergence_sweep,
    run_fixed_split_experiment,
    run_hybrid_expectation,
    simulate_fixed_allocation,
    system_variance,
)
from relialloc.cases import load_case
from relialloc.experiments import (
    _estimate_summary,
    _hybrid_replications,
    _map_replications,
    convergence_rows,
    fixed_split_replications,
    fixed_split_rows,
    table_rows,
)


class TestEmpiricalVariance:
    def test_two_point_sample(self):
        var, se = empirical_variance([0.0, 1.0])
        assert var == pytest.approx(0.5)
        assert se > 0

    def test_constant_sample(self):
        var, se = empirical_variance([0.7] * 10)
        assert var == 0.0
        assert se == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            empirical_variance([1.0])

    def test_bernoulli_means(self):
        # sample means of size 10 have variance p(1-p)/10
        rng = replication_rng(2, 0, 0)
        samples = rng.binomial(10, 0.5, size=200_000) / 10
        var, se = empirical_variance(samples)
        assert abs(var - 0.025) < 3 * se


def index_order_mean(xs):
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


class TestEstimateSummary:
    def test_mean_adds_in_index_order(self):
        # numpy's pairwise mean gives 0.33689999999999987 on this sample
        xs = [0.1] * 10 + [0.7] * 13 + [1e-3] * 7
        mean, var, se = _estimate_summary(xs)
        assert mean == index_order_mean(xs) == 0.3368999999999998
        assert (var, se) == empirical_variance(xs)

    def test_every_driver_reports_the_index_order_mean(self):
        a = load_case("D")
        hybrid, _ = _hybrid_replications(a, 20, 40, 6, 0)
        assert run_hybrid_expectation(a, 20, 40, 6).mean_r_hat == index_order_mean(hybrid)
        swept, _ = _hybrid_replications(a, 20, 40, 6, 20)
        assert run_convergence_sweep(a, [20], 40, 6)[0].mean_r_hat == index_order_mean(swept)
        point = run_fixed_split_experiment(a, 20, 40, 6)[0]
        split = [r for r, _ in fixed_split_replications(a, 20, point.t1, 40, 6)]
        assert point.mean_r_hat == index_order_mean(split)


class TestFixedAllocationOracle:
    def test_empirical_matches_exact_variance(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        alloc = Allocation(a.topology, ((10, 10), (10, 10)))
        r_hats = simulate_fixed_allocation(a, alloc, 100_000, replication_rng(4, 0, 0))
        var, se = empirical_variance(r_hats)
        assert abs(var - system_variance(a, alloc)) < 3 * se


class TestFixedSplitExperiment:
    def test_deterministic_with_two_replications(self):
        first = run_fixed_split_experiment(load_case("C"), 20, 2, 5)
        second = run_fixed_split_experiment(load_case("C"), 20, 2, 5)
        assert first == second
        assert [p.t1 for p in first] == list(range(4, 17))

    def test_split_budgets_are_exact(self):
        points = run_fixed_split_experiment(load_case("D"), 20, 5, 5)
        assert all(p.t1 + p.t2 == 20 for p in points)

    def test_symmetric_system_gives_symmetric_curve(self):
        a = ReliabilityAssignment.from_blocks([[0.4, 0.6], [0.4, 0.6]])
        points = run_fixed_split_experiment(a, 20, 3000, 5)
        by_t1 = {p.t1: p for p in points}
        for t1 in (4, 6, 8):
            left, right = by_t1[t1], by_t1[20 - t1]
            tol = 4 * (left.se + right.se)
            assert abs(left.var_hat - right.var_hat) < tol

    def test_needs_two_blocks(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        with pytest.raises(ValueError):
            run_fixed_split_experiment(a, 20, 2, 5)

    def test_needs_two_blocks_even_with_an_empty_split_range(self):
        a = ReliabilityAssignment.from_blocks([[0.5], [0.5], [0.5]])
        with pytest.raises(ValueError, match="two subsystems"):
            run_fixed_split_experiment(a, 1, 2, 5)
        with pytest.raises(ValueError, match="two subsystems"):
            fixed_split_replications(a, 20, 10, 2, 5)

    @pytest.mark.parametrize("t1", [0, 20, 25])
    def test_split_outside_the_budget_names_t1_and_t(self, t1):
        with pytest.raises(AllocationError, match=f"T1 = {t1} .* T = 20"):
            fixed_split_replications(load_case("A"), 20, t1, 2, 5)


class TestMapReplications:
    @pytest.mark.parametrize("replications", [1, 4])
    def test_calls_in_index_order_on_calling_thread(self, replications):
        a = load_case("A")
        calls = []

        def design(source):
            assert isinstance(source, SimulatedSource) and source.assignment is a
            drawn = source.rng.random(3).tolist()
            calls.append((threading.get_ident(), drawn))
            return drawn

        # An empty block leaves the whole stream to the design.
        results = _map_replications(a, replications, 11, 7, design, 0)
        expected = [replication_rng(11, 7, k).random(3).tolist() for k in range(replications)]
        assert calls == [(threading.get_ident(), drawn) for drawn in expected]
        assert results == expected


    def test_a_design_that_leaves_draws_unused_fails(self):
        a = load_case("A")
        with pytest.raises(RuntimeError, match="left 5 of its 20 draws unused"):
            _map_replications(a, 2, 11, 7, lambda source: source.draw_many(0, 0, 15), 20)

    def test_a_design_that_uses_its_whole_block_passes(self):
        a = load_case("A")
        results = _map_replications(a, 2, 11, 7, lambda source: source.draw_many(0, 0, 20), 20)
        expected = [
            int(np.count_nonzero(replication_rng(11, 7, k).random(20) < a.values[0][0]))
            for k in range(2)
        ]
        assert results == expected


#: 32-bit word boundaries: one word, the largest one-word value, two words, three words.
SEED_VALUES = (0, 1, 2**32 - 1, 2**32, 2**64 + 7)


class TestReplicationRng:
    def test_equals_tuple_seeding(self):
        for key in itertools.product(SEED_VALUES, repeat=3):
            reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
            assert np.array_equal(replication_rng(*key).random(8), reference.random(8)), key

    @pytest.mark.parametrize("position", range(3))
    def test_negative_entry_is_value_error(self, position):
        key = [3, 4, 5]
        key[position] = -1
        with pytest.raises(ValueError):
            replication_rng(*key)


class TestHybridExpectation:
    def test_case_a_mean_near_published_value(self):
        res = run_hybrid_expectation(load_case("A"), 20, 2000, 5)
        assert abs(res.rounded_t1 - 16) <= 2
        assert sum(res.mean_block_totals) == pytest.approx(20.0, abs=1e-9)


class TestConvergenceSweep:
    def test_single_component_bound_is_tight(self):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        for p in run_convergence_sweep(a, (25, 100), 4000, 5):
            assert abs(p.excess) < p.total * 4 * p.se

    def test_var_respects_bound_up_to_noise(self):
        for p in run_convergence_sweep(load_case("chain_2_3_4_5"), (100, 400), 400, 5):
            assert p.var_hat >= p.q_bound - 3 * p.se
            assert p.q_bound == pytest.approx(
                lower_bound_system(load_case("chain_2_3_4_5"), p.total), rel=1e-12
            )

    def test_rerun_is_identical(self):
        a = load_case("chain_2_3_4_5")
        assert run_convergence_sweep(a, (100, 200), 50, 9) == run_convergence_sweep(
            a, (100, 200), 50, 9
        )

    def test_points_do_not_depend_on_sweep_order(self):
        # A budget is its own point key, so a sweep need not ascend.
        a = load_case("A")
        ascending = run_convergence_sweep(a, (20, 40), 5, 3)
        assert run_convergence_sweep(a, (40, 20), 5, 3) == ascending[::-1]


class TestConfigValidation:
    def test_replications_floor(self):
        # A sample variance needs two replications; a stream key, a
        # nonnegative seed. The drivers leave both checks to the code that
        # needs them (empirical_variance, numpy's SeedSequence).
        a = load_case("A")
        for run in (
            lambda reps, seed: run_hybrid_expectation(a, 20, reps, seed),
            lambda reps, seed: run_fixed_split_experiment(a, 20, reps, seed),
            lambda reps, seed: run_convergence_sweep(a, (20,), reps, seed),
        ):
            with pytest.raises(ValueError):
                run(1, 0)
            with pytest.raises(ValueError):
                run(2, -1)


class TestRowFormats:
    def test_fixed_split_columns(self):
        header, rows = fixed_split_rows(run_fixed_split_experiment(load_case("C"), 20, 2, 5))
        assert header == ["T1", "var_hat", "se", "mean_R_hat"]
        assert len(rows) == 13

    def test_convergence_columns(self):
        points = run_convergence_sweep(load_case("chain_2_3_4_5"), (100,), 2, 5)
        header, rows = convergence_rows(points)
        assert header == ["T", "var_hat", "se", "Q", "excess"]
        assert rows[0][0] == "100"

    def test_table_columns(self):
        header, rows = table_rows([("A", run_hybrid_expectation(load_case("A"), 20, 2, 5))])
        assert header == ["case", "mean_T1", "rounded_T1"]
        assert rows[0][0] == "A"
