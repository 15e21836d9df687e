import threading

import pytest

from relialloc import (
    Allocation,
    ExperimentConfig,
    ReliabilityAssignment,
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
    _map_replications,
    convergence_rows,
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


class TestFixedAllocationOracle:
    def test_empirical_matches_exact_variance(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        alloc = Allocation(a.topology, ((10, 10), (10, 10)))
        r_hats = simulate_fixed_allocation(a, alloc, 100_000, replication_rng(4, 0, 0))
        var, se = empirical_variance(r_hats)
        assert abs(var - system_variance(a, alloc)) < 3 * se


class TestFixedSplitExperiment:
    def test_deterministic_with_two_replications(self):
        config = ExperimentConfig(
            assignment=load_case("C"), replications=2, master_seed=5, total=20
        )
        first = run_fixed_split_experiment(config)
        second = run_fixed_split_experiment(config)
        assert first == second
        assert [p.t1 for p in first] == list(range(4, 17))

    def test_split_budgets_are_exact(self):
        config = ExperimentConfig(
            assignment=load_case("D"), replications=5, master_seed=5, total=20
        )
        points = run_fixed_split_experiment(config)
        assert all(p.t1 + p.t2 == 20 for p in points)

    def test_symmetric_system_gives_symmetric_curve(self):
        a = ReliabilityAssignment.from_blocks([[0.4, 0.6], [0.4, 0.6]])
        config = ExperimentConfig(
            assignment=a, replications=3000, master_seed=5, total=20
        )
        points = run_fixed_split_experiment(config)
        by_t1 = {p.t1: p for p in points}
        for t1 in (4, 6, 8):
            left, right = by_t1[t1], by_t1[20 - t1]
            tol = 4 * (left.se + right.se)
            assert abs(left.var_hat - right.var_hat) < tol

    def test_needs_two_blocks(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        config = ExperimentConfig(assignment=a, replications=2, master_seed=5, total=20)
        with pytest.raises(ValueError):
            run_fixed_split_experiment(config)

    def test_single_split_matches_full_sweep_point(self):
        base = dict(assignment=load_case("D"), replications=50, master_seed=5, total=20)
        full = run_fixed_split_experiment(ExperimentConfig(**base))
        single = run_fixed_split_experiment(ExperimentConfig(**base, fixed_t1=9))
        assert single == [p for p in full if p.t1 == 9]
        with pytest.raises(ValueError):
            run_fixed_split_experiment(ExperimentConfig(**base, fixed_t1=3))


class TestMapReplications:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_calls_in_index_order_on_calling_thread(self, threads):
        calls = []

        def fn(k):
            calls.append((k, threading.get_ident()))
            return k * k

        results = _map_replications(7, threads, fn)
        assert results == [k * k for k in range(7)]
        assert calls == [(k, threading.get_ident()) for k in range(7)]


class TestHybridExpectation:
    def test_case_a_mean_near_published_value(self):
        config = ExperimentConfig(
            assignment=load_case("A"), replications=2000, master_seed=5, total=20
        )
        res = run_hybrid_expectation(config)
        assert abs(res.rounded_t1 - 16) <= 2
        assert sum(res.mean_block_totals) == pytest.approx(20.0, abs=1e-9)

    def test_threads_do_not_change_results(self):
        base = dict(assignment=load_case("B"), replications=200, master_seed=6, total=20)
        serial = run_hybrid_expectation(ExperimentConfig(**base, threads=1))
        threaded = run_hybrid_expectation(ExperimentConfig(**base, threads=4))
        assert serial == threaded


class TestConvergenceSweep:
    def test_single_component_bound_is_tight(self):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        config = ExperimentConfig(
            assignment=a, replications=4000, master_seed=5, sweep=(25, 100)
        )
        for p in run_convergence_sweep(config):
            assert abs(p.excess) < p.total * 4 * p.se

    def test_var_respects_bound_up_to_noise(self):
        config = ExperimentConfig(
            assignment=load_case("chain_2_3_4_5"),
            replications=400,
            master_seed=5,
            sweep=(100, 400),
        )
        for p in run_convergence_sweep(config):
            assert p.var_hat >= p.q_bound - 3 * p.se
            assert p.q_bound == pytest.approx(
                lower_bound_system(load_case("chain_2_3_4_5"), p.total), rel=1e-12
            )

    def test_rerun_is_identical(self):
        config = ExperimentConfig(
            assignment=load_case("chain_2_3_4_5"),
            replications=50,
            master_seed=9,
            sweep=(100, 200),
        )
        assert run_convergence_sweep(config) == run_convergence_sweep(config)


class TestConfigValidation:
    def test_replications_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(assignment=load_case("A"), replications=1, master_seed=0)

    def test_sweep_must_ascend(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                assignment=load_case("A"), replications=2, master_seed=0, sweep=(200, 100)
            )


class TestRowFormats:
    def test_fixed_split_columns(self):
        config = ExperimentConfig(
            assignment=load_case("C"), replications=2, master_seed=5, total=20
        )
        header, rows = fixed_split_rows(run_fixed_split_experiment(config))
        assert header == ["T1", "var_hat", "se", "mean_R_hat"]
        assert len(rows) == 13

    def test_convergence_columns(self):
        config = ExperimentConfig(
            assignment=load_case("chain_2_3_4_5"),
            replications=2,
            master_seed=5,
            sweep=(100,),
        )
        header, rows = convergence_rows(run_convergence_sweep(config))
        assert header == ["T", "var_hat", "se", "Q", "excess"]
        assert rows[0][0] == "100"

    def test_table_columns(self):
        config = ExperimentConfig(
            assignment=load_case("A"), replications=2, master_seed=5, total=20
        )
        header, rows = table_rows([("A", run_hybrid_expectation(config))])
        assert header == ["case", "mean_T1", "rounded_T1"]
        assert rows[0][0] == "A"
