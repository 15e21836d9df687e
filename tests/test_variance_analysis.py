import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relialloc import (
    Allocation,
    AllocationError,
    ReliabilityAssignment,
    coeff_variation,
    excess_variance,
    lagrange_decomposition,
    lower_bound_subsystem,
    lower_bound_system,
    subsystem_reliability,
    subsystem_variance,
    system_variance,
)

from conftest import (
    enumerated_system_variance,
    random_allocation,
    random_assignment,
    subset_cross_sum,
)


def make(blocks, counts):
    a = ReliabilityAssignment.from_blocks(blocks)
    return a, Allocation(a.topology, tuple(tuple(c) for c in counts))


class TestSubsystemVariance:
    def test_single_bernoulli_mean(self):
        a, alloc = make([[0.5]], [[10]])
        assert subsystem_variance(a, 0, alloc) == pytest.approx(0.025, abs=1e-15)

    def test_symmetric_pair(self):
        a, alloc = make([[0.5, 0.5]], [[10, 10]])
        assert subsystem_variance(a, 0, alloc) == pytest.approx(0.013125, abs=1e-12)

    def test_skewed_pair(self):
        a, alloc = make([[0.9, 0.5]], [[3, 1]])
        assert subsystem_variance(a, 0, alloc) == pytest.approx(0.0175, abs=1e-12)

    def test_zero_count_rejected(self):
        a, alloc = make([[0.5, 0.5]], [[10, 0]])
        with pytest.raises(AllocationError):
            subsystem_variance(a, 0, alloc)


class TestSystemVariance:
    def test_balanced_two_by_two(self):
        a, alloc = make([[0.5, 0.5], [0.5, 0.5]], [[10, 10], [10, 10]])
        assert system_variance(a, alloc) == pytest.approx(0.014937890625, abs=1e-12)

    def test_single_block_collapses(self):
        a, alloc = make([[0.3, 0.7, 0.9]], [[4, 7, 2]])
        assert system_variance(a, alloc) == pytest.approx(
            subsystem_variance(a, 0, alloc), rel=1e-12
        )

    def test_wide_parallel_block_balanced(self):
        a, alloc = make([[0.05, 0.1, 0.95, 0.99]], [[25, 25, 25, 25]])
        assert system_variance(a, alloc) == pytest.approx(1.4231e-6, rel=1e-3)

    def test_matches_enumeration_oracle(self, rng):
        # exhaustive joint-outcome oracle, tiny counts keep it tractable
        for _ in range(40):
            a = random_assignment(rng, max_blocks=3, max_slots=3)
            alloc = random_allocation(rng, a, lo=1, hi=3)
            expected = enumerated_system_variance(a, alloc)
            assert system_variance(a, alloc) == pytest.approx(
                expected, rel=1e-10, abs=1e-15
            )

    def test_monotone_in_each_count(self, rng):
        for _ in range(20):
            a = random_assignment(rng, max_blocks=3, max_slots=3)
            alloc = random_allocation(rng, a, lo=1, hi=8)
            base = system_variance(a, alloc)
            for j, block in enumerate(alloc.counts):
                for i in range(len(block)):
                    bumped = [list(b) for b in alloc.counts]
                    bumped[j][i] += 1
                    more = Allocation(a.topology, tuple(tuple(b) for b in bumped))
                    assert system_variance(a, more) < base

    def test_expansion_consistency(self, rng):
        # separable-terms-plus-cross-terms form agrees with the product form
        for _ in range(50):
            a = random_assignment(rng)
            alloc = random_allocation(rng, a, lo=1, hi=20)
            for j in range(a.topology.subsystem_count):
                r_j = subsystem_reliability(a, j)
                ratios = [
                    coeff_variation(p)[1] ** 2 / m
                    for p, m in zip(a.block(j), alloc.block(j))
                ]
                rebuilt = (1.0 - r_j) ** 2 * (sum(ratios) + subset_cross_sum(ratios))
                assert rebuilt == pytest.approx(
                    subsystem_variance(a, j, alloc), rel=1e-12, abs=1e-18
                )


class TestLagrangeDecomposition:
    def test_proportional_has_zero_remainder(self):
        leading, remainder = lagrange_decomposition([1.0, 1.0], [1.0, 1.0])
        assert leading == pytest.approx(2.0, abs=1e-15)
        assert remainder == pytest.approx(0.0, abs=1e-15)

    def test_root_proportional_sizes(self):
        leading, remainder = lagrange_decomposition([4.0, 1.0], [2.0, 1.0])
        assert leading == pytest.approx(3.0, abs=1e-15)
        assert remainder == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lagrange_decomposition([1.0], [1.0, 2.0])

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            lagrange_decomposition([1.0, -2.0], [1.0, 1.0])

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k
                ),
                st.lists(
                    st.floats(min_value=1e-2, max_value=1e2), min_size=k, max_size=k
                ),
            )
        )
    )
    @settings(max_examples=300)
    def test_identity(self, pair):
        numerators, sizes = pair
        leading, remainder = lagrange_decomposition(numerators, sizes)
        direct = sum(a / n for a, n in zip(numerators, sizes))
        assert leading + remainder == pytest.approx(direct, rel=1e-12)
        assert remainder >= 0.0


class TestLowerBounds:
    def test_symmetric_block(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        assert lower_bound_subsystem(a, 0, 20) == pytest.approx(0.0125, abs=1e-15)

    def test_single_component_attained(self):
        a, alloc = make([[0.42]], [[17]])
        q = lower_bound_subsystem(a, 0, 17)
        assert q == pytest.approx(0.42 * 0.58 / 17, rel=1e-12)
        assert q == pytest.approx(subsystem_variance(a, 0, alloc), rel=1e-12)

    def test_skewed_block(self):
        a = ReliabilityAssignment.from_blocks([[0.9, 0.5]])
        assert lower_bound_subsystem(a, 0, 4) == pytest.approx(0.01, abs=1e-14)

    def test_system_bound_two_by_two(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        assert lower_bound_system(a, 40) == pytest.approx(0.0140625, abs=1e-14)

    def test_system_bound_single_component(self):
        a, alloc = make([[0.42]], [[17]])
        assert lower_bound_system(a, 17) == pytest.approx(
            system_variance(a, alloc), rel=1e-12
        )

    def test_weighted_system_bound(self):
        # weights (1-R_j)/R_j * sum(1/c) computed independently per block
        a = ReliabilityAssignment.from_blocks([[0.2, 0.4], [0.6, 0.3]])
        weights = []
        for j in range(2):
            r_j = subsystem_reliability(a, j)
            weights.append(
                (1 - r_j) / r_j * sum(coeff_variation(p)[1] for p in a.block(j))
            )
        assert weights[0] == pytest.approx(1.2152, abs=2e-4)
        assert weights[1] == pytest.approx(0.7309, abs=2e-4)
        r = subsystem_reliability(a, 0) * subsystem_reliability(a, 1)
        expected = r * r * sum(weights) ** 2 / 20
        assert lower_bound_system(a, 20) == pytest.approx(expected, rel=1e-12)

    def test_rejects_tiny_budget(self):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        with pytest.raises(AllocationError):
            lower_bound_subsystem(a, 0, 0)
        with pytest.raises(AllocationError):
            lower_bound_system(a, 0.5)

    def test_dominance_on_random_instances(self, rng):
        for _ in range(200):
            a = random_assignment(rng)
            alloc = random_allocation(rng, a)
            total = alloc.total
            assert system_variance(a, alloc) >= lower_bound_system(a, total) - 1e-12
            for j in range(a.topology.subsystem_count):
                assert (
                    subsystem_variance(a, j, alloc)
                    >= lower_bound_subsystem(a, j, sum(alloc.block(j))) - 1e-12
                )


class TestExcessVariance:
    def test_zero_at_the_bound(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        q = lower_bound_system(a, 40)
        assert excess_variance(a, q, 40) == pytest.approx(0.0, abs=1e-15)

    def test_balanced_two_by_two(self):
        a, alloc = make([[0.5, 0.5], [0.5, 0.5]], [[10, 10], [10, 10]])
        var = system_variance(a, alloc)
        assert excess_variance(a, var, alloc.total) == pytest.approx(0.035015625, abs=1e-12)

    def test_nonnegative_for_exact_variances(self, rng):
        for _ in range(100):
            a = random_assignment(rng)
            alloc = random_allocation(rng, a)
            assert excess_variance(a, system_variance(a, alloc), alloc.total) >= -1e-12

    def test_bare_variance_needs_budget(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        with pytest.raises(TypeError):
            excess_variance(a, 0.01)
        with pytest.raises(ValueError):
            excess_variance(a, -0.01, 10)


class TestAllocationType:
    def test_totals(self):
        _, alloc = make([[0.5, 0.5], [0.5, 0.5, 0.5]], [[3, 4], [1, 2, 5]])
        assert alloc.block_totals == (7, 8)
        assert alloc.total == 15

    def test_negative_rejected(self):
        with pytest.raises(AllocationError):
            Allocation.from_blocks([[3, -1]])

    def test_shape_checked_against_assignment(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        other = Allocation.from_blocks([[5, 5, 5]])
        with pytest.raises(AllocationError):
            system_variance(a, other)
