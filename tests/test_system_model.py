import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relialloc import (
    ReliabilityAssignment,
    SystemSpecError,
    SystemTopology,
    coeff_variation,
    load_system,
    parse_system,
    subsystem_reliability,
    system_reliability,
)
from relialloc.system_model import dump_system

from conftest import random_assignment

probs = st.floats(min_value=0.01, max_value=0.99)
blocks_strategy = st.lists(st.lists(probs, min_size=1, max_size=4), min_size=1, max_size=4)


class TestSubsystemReliability:
    def test_two_halves(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5]])
        assert subsystem_reliability(a, 0) == pytest.approx(0.75, abs=1e-15)

    def test_high_reliability_block(self):
        a = ReliabilityAssignment.from_blocks([[0.9, 0.99], [0.1, 0.11]])
        assert subsystem_reliability(a, 0) == pytest.approx(0.999, abs=1e-12)

    def test_single_component_passthrough(self):
        a = ReliabilityAssignment.from_blocks([[0.37]])
        assert subsystem_reliability(a, 0) == pytest.approx(0.37, abs=1e-15)

    def test_index_out_of_range(self):
        a = ReliabilityAssignment.from_blocks([[0.5]])
        with pytest.raises(IndexError):
            subsystem_reliability(a, 1)


class TestSystemReliability:
    def test_two_by_two(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        assert system_reliability(a) == pytest.approx(0.5625, abs=1e-15)

    def test_mixed_blocks(self):
        a = ReliabilityAssignment.from_blocks([[0.1, 0.11], [0.9, 0.99]])
        assert system_reliability(a) == pytest.approx(0.198801, abs=1e-12)

    def test_single_subsystem_collapses(self):
        a = ReliabilityAssignment.from_blocks([[0.3, 0.6, 0.8]])
        assert system_reliability(a) == subsystem_reliability(a, 0)

    def test_bounded_by_weakest_block(self, rng):
        for _ in range(50):
            a = random_assignment(rng)
            r = system_reliability(a)
            block_rs = [
                subsystem_reliability(a, j) for j in range(a.topology.subsystem_count)
            ]
            assert 0.0 < r
            if len(block_rs) > 1:
                assert r < min(block_rs)
            else:
                assert r == block_rs[0]

    def test_strictly_increasing_per_component(self, rng):
        for _ in range(20):
            a = random_assignment(rng, lo=0.1, hi=0.9)
            base = system_reliability(a)
            for j, block in enumerate(a.values):
                for i in range(len(block)):
                    bumped = [list(b) for b in a.values]
                    bumped[j][i] += 1e-6
                    assert system_reliability(
                        ReliabilityAssignment.from_blocks(bumped)
                    ) > base


class TestCoeffVariation:
    def test_symmetric(self):
        c, c_inv = coeff_variation(0.5)
        assert c == pytest.approx(1.0, abs=1e-15)
        assert c_inv == pytest.approx(1.0, abs=1e-15)

    def test_high_reliability(self):
        c, c_inv = coeff_variation(0.9)
        assert c == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert c_inv == pytest.approx(3.0, abs=1e-12)

    def test_low_reliability(self):
        _, c_inv = coeff_variation(0.2)
        assert c_inv == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            coeff_variation(bad)

    @given(probs)
    def test_product_is_one(self, p):
        c, c_inv = coeff_variation(p)
        assert c * c_inv == pytest.approx(1.0, rel=1e-12)


class TestDuality:
    # A series-parallel system is handled by duality: complement every
    # reliability and take 1 minus the parallel-series reliability.
    def test_half_is_fixed_point(self):
        a = ReliabilityAssignment.from_blocks([[0.5, 0.5], [0.5, 0.5]])
        dual = a.complement()
        assert dual.topology == a.topology
        assert dual.values == a.values

    def test_componentwise_complement(self):
        a = ReliabilityAssignment.from_blocks([[0.2, 0.4], [0.6, 0.3]])
        assert a.complement().values == ((0.8, 0.6), (0.4, 0.7))

    @given(blocks_strategy)
    @settings(max_examples=100)
    def test_involution(self, blocks):
        a = ReliabilityAssignment.from_blocks(blocks)
        twice = a.complement().complement()
        assert twice.topology == a.topology
        for orig, back in zip(a.values, twice.values):
            for x, y in zip(orig, back):
                assert x == pytest.approx(y, abs=1e-15)

    def test_series_parallel_identity(self, rng):
        # direct series-parallel evaluation vs duality through the engine
        for _ in range(100):
            a = random_assignment(rng)
            direct_failure = 1.0
            for block in a.values:
                series = 1.0
                for v in block:
                    series *= v
                direct_failure *= 1.0 - series
            assert 1.0 - system_reliability(a.complement()) == pytest.approx(
                1.0 - direct_failure, rel=1e-12
            )


class TestConstruction:
    def test_rejects_zero_and_one(self):
        for bad in (0.0, 1.0):
            with pytest.raises(SystemSpecError):
                ReliabilityAssignment.from_blocks([[bad, 0.5]])

    def test_rejects_empty_block(self):
        with pytest.raises(SystemSpecError):
            SystemTopology(())
        with pytest.raises(SystemSpecError):
            SystemTopology((2, 0))

    def test_rejects_shape_mismatch(self):
        topo = SystemTopology((2, 2))
        with pytest.raises(SystemSpecError):
            ReliabilityAssignment(topo, ((0.5,), (0.5, 0.5)))

    def test_component_count(self):
        assert SystemTopology((2, 3, 4, 5)).component_count == 14


class TestSystemFiles:
    def test_round_trip(self, tmp_path):
        payload = {"blocks": [[0.1, 0.11], [0.9, 0.99]]}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(payload))
        a = load_system(path)
        assert dump_system(a) == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemSpecError):
            load_system(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"blocks": []}',
            '{"blocks": [[]]}',
            '{"blocks": [[0.5, "x"]]}',
            '{"blocks": [[0.5, 1.0]]}',
        ],
    )
    def test_malformed_payloads(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemSpecError):
            load_system(path)

    def test_parse_rejects_bool(self):
        with pytest.raises(SystemSpecError):
            parse_system({"blocks": [[True, 0.5]]})

    def test_parse_rejects_block_whose_reliability_rounds_to_zero(self):
        with pytest.raises(SystemSpecError, match="subsystem 2"):
            parse_system({"blocks": [[0.5], [1e-300, 1e-17]]})
        # a tiny component beside a workable one is fine
        assert parse_system({"blocks": [[1e-300, 0.5]]}).values == ((1e-300, 0.5),)
