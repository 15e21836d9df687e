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
    STREAM_CHUNK,
    _map_replications,
    _stream_states,
    convergence_rows,
    fixed_split_rows,
    simulate_records,
    summarize_records,
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
        summary = summarize_records([(x, ((1,),)) for x in xs])
        assert summary.mean_r_hat == index_order_mean(xs) == 0.3368999999999998
        assert (summary.var_hat, summary.se) == empirical_variance(xs)

    def test_every_driver_reports_the_index_order_mean(self):
        a = load_case("D")
        hybrid = [r for r, _ in simulate_records(a, "hybrid", 20, 40, 6)]
        assert run_hybrid_expectation(a, 20, 40, 6).mean_r_hat == index_order_mean(hybrid)
        swept = [r for r, _ in simulate_records(a, "hybrid", 20, 40, 6, point_key=20)]
        assert run_convergence_sweep(a, [20], 40, 6)[0].mean_r_hat == index_order_mean(swept)
        point = run_fixed_split_experiment(a, 20, 40, 6)[0]
        split = [r for r, _ in simulate_records(a, "fixed-split", 20, 40, 6, point.t1)]
        assert point.mean_r_hat == index_order_mean(split)


class TestSimulateRecords:
    @pytest.mark.parametrize(
        "scheme,t1", [("hybrid", None), ("balanced", None), ("fixed-split", 7)]
    )
    def test_one_record_per_replication_spending_the_budget(self, scheme, t1):
        a = load_case("C")
        records = simulate_records(a, scheme, 20, 12, 3, t1)
        assert len(records) == 12
        for r_hat, counts in records:
            assert isinstance(r_hat, float)
            assert sum(map(sum, counts)) == 20
            assert tuple(map(len, counts)) == a.topology.block_sizes
        if scheme == "fixed-split":
            assert {tuple(map(sum, counts)) for _, counts in records} == {(7, 13)}

    def test_unknown_scheme_and_missing_t1_are_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'adaptive'"):
            simulate_records(load_case("A"), "adaptive", 20, 2, 5)
        with pytest.raises(AllocationError, match="T1 = None"):
            simulate_records(load_case("A"), "fixed-split", 20, 2, 5)

    def test_summary_equals_the_drivers_bit_for_bit(self):
        a = load_case("B")
        hybrid = summarize_records(simulate_records(a, "hybrid", 20, 50, 8))
        expected = run_hybrid_expectation(a, 20, 50, 8)
        assert hybrid.mean_block_totals == expected.mean_block_totals
        assert (hybrid.mean_r_hat, hybrid.var_hat, hybrid.se) == (
            expected.mean_r_hat, expected.var_hat, expected.se
        )
        point = run_fixed_split_experiment(a, 20, 50, 8)[3]
        split = summarize_records(simulate_records(a, "fixed-split", 20, 50, 8, point.t1))
        assert (split.mean_r_hat, split.var_hat, split.se) == (
            point.mean_r_hat, point.var_hat, point.se
        )
        assert split.mean_block_totals == (point.t1, point.t2)

    def test_mean_counts_divide_integer_sums_once(self):
        records = [(0.5, ((1, 2), (4,))), (0.25, ((2, 2), (3,))), (0.0, ((1, 3), (3,)))]
        summary = summarize_records(records)
        assert summary.mean_counts == ((4 / 3, 7 / 3), (10 / 3,))
        assert summary.mean_block_totals == (11 / 3, 10 / 3)
        assert summary.mean_r_hat == 0.75 / 3


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
            simulate_records(a, "fixed-split", 20, 2, 5, 10)

    @pytest.mark.parametrize("t1", [0, 20, 25])
    def test_split_outside_the_budget_names_t1_and_t(self, t1):
        with pytest.raises(AllocationError, match=f"T1 = {t1} .* T = 20"):
            simulate_records(load_case("A"), "fixed-split", 20, 2, 5, t1)


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


def seed_sequence_state(*key):
    return np.random.PCG64(np.random.SeedSequence(key)).state


class TestStreamDerivation:
    """The vectorised derivation gives ``SeedSequence``'s streams bit for bit.

    NEP 19 keeps these streams stable across numpy versions, but the
    derivation re-implements them, so these tests hold it to numpy's own
    ``SeedSequence`` on every numpy the package allows.
    """

    @pytest.mark.parametrize("replications", [0, 1, STREAM_CHUNK + 1])
    @pytest.mark.parametrize("total", [0, 1, 20, 6400])
    def test_each_replication_draws_its_seed_sequence_uniforms(self, total, replications):
        # seed and key of two and three words: six entropy words in all
        seed, key = 2**32, 2**64 + 7
        results = _map_replications(
            load_case("A"), replications, seed, key, lambda s: s.rng.random(total).tobytes(), 0
        )
        expected = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key, k))))
            .random(total)
            .tobytes()
            for k in range(replications)
        ]
        assert results == expected

    @pytest.mark.parametrize("key", SEED_VALUES)
    @pytest.mark.parametrize("seed", SEED_VALUES)
    def test_every_word_layout_across_a_chunk_boundary(self, seed, key):
        states = list(_stream_states(seed, key, 0, STREAM_CHUNK + 1))
        for k in (0, 1, STREAM_CHUNK - 1, STREAM_CHUNK):
            assert states[k] == seed_sequence_state(seed, key, k), k
        assert len(states) == STREAM_CHUNK + 1

    @pytest.mark.parametrize("start", [2**32 - 2, 2**32 + 7, 2**64 - 2, 2**96 + 1])
    def test_indices_of_two_words_and_more(self, start):
        # the first two cross from one word count to the next
        states = list(_stream_states(5, 6, start, 4))
        assert states == [seed_sequence_state(5, 6, k) for k in range(start, start + 4)]

    @pytest.mark.parametrize("position", range(3))
    def test_a_negative_entry_raises_before_any_design_runs(self, position):
        key = [3, 4, 0]
        key[position] = -1
        calls = []
        with pytest.raises(ValueError, match="nonnegative"):
            if position < 2:
                _map_replications(load_case("A"), 2, key[0], key[1], calls.append, 0)
            else:
                next(_stream_states(*key, 2))
        assert calls == []


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
