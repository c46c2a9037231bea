import numpy as np
import pytest

from adalab.core import (
    FiniteDistribution,
    PartitionedDomain,
    Query,
    Sample,
    Transcript,
    distribution_from_dict,
    empirical_mean,
    empirical_means_over_support,
    load_json,
    query_from_dict,
    sample_from_dict,
    true_mean,
)


class TestPartitionedDomain:
    def test_element_layout_is_block_major(self):
        dom = PartitionedDomain(num_blocks=3, block_size=4)
        assert dom.size == 12
        assert dom.slot_of(0) == 0
        assert dom.slot_of(7) == 3
        assert dom.slot_of(11) == 3
        np.testing.assert_array_equal(dom.block_elements(1), [4, 5, 6, 7])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PartitionedDomain(num_blocks=0, block_size=4)
        with pytest.raises(ValueError):
            PartitionedDomain(num_blocks=2, block_size=-1)

    def test_rejects_out_of_range_element(self):
        dom = PartitionedDomain(num_blocks=2, block_size=2)
        with pytest.raises(ValueError):
            dom.slot_of(4)
        with pytest.raises(ValueError):
            dom.slot_of(-1)
        with pytest.raises(ValueError):
            dom.block_elements(2)


class TestSample:
    def test_array_view_is_read_only_and_cached(self):
        s = Sample((3, 1, 4, 1))
        arr = s.as_array()
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 9
        assert s.as_array() is arr
        assert len(s) == 4

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError):
            Sample((0, -1))


class TestQuery:
    def test_values_and_overrides(self):
        q = Query(0.25, {2: 1.0, 5: 0.0})
        assert q.value(0) == 0.25
        assert q.value(2) == 1.0
        assert q.value(5) == 0.0
        np.testing.assert_array_equal(
            q.values_at(np.array([0, 2, 5, 7])), [0.25, 1.0, 0.0, 0.25]
        )

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Query(1.5)
        with pytest.raises(ValueError):
            Query(0.0, {1: -0.25})

    def test_overrides_are_immutable(self):
        q = Query(0.0, {1: 1.0})
        with pytest.raises(TypeError):
            q.overrides[2] = 0.5

    def test_equality_and_hash(self):
        assert Query(0.5, {1: 1.0}) == Query(0.5, {1: 1.0})
        assert Query(0.5, {1: 1.0}) != Query(0.5, {2: 1.0})
        assert hash(Query(0.25)) == hash(Query(0.25))


class TestFiniteDistribution:
    def test_validates_probabilities(self):
        s = [Sample((0,)), Sample((1,))]
        with pytest.raises(ValueError):
            FiniteDistribution(s, [0.5, 0.6])
        with pytest.raises(ValueError):
            FiniteDistribution(s, [1.0, 0.0])
        with pytest.raises(ValueError):
            FiniteDistribution([Sample((0,)), Sample((0,))], [0.5, 0.5])

    def test_sample_matrix_only_for_uniform_lengths(self):
        uniform = FiniteDistribution([Sample((0, 1)), Sample((2, 3))], [0.5, 0.5])
        assert uniform.sample_matrix().shape == (2, 2)
        ragged = FiniteDistribution([Sample((0,)), Sample((1, 2))], [0.5, 0.5])
        assert ragged.sample_matrix() is None


class TestMeans:
    def test_empirical_mean_by_hand(self):
        q = Query(0.25, {2: 1.0})
        assert empirical_mean(q, Sample((0, 1, 2, 2))) == (0.25 + 0.25 + 1.0 + 1.0) / 4

    def test_true_mean_is_probability_weighted(self):
        q = Query(0.0, {1: 1.0})
        dist = FiniteDistribution(
            [Sample((0, 0)), Sample((1, 0)), Sample((1, 1))], [0.5, 0.25, 0.25]
        )
        # 0.5*0 + 0.25*0.5 + 0.25*1
        assert true_mean(q, dist) == 0.375
        np.testing.assert_array_equal(
            empirical_means_over_support(q, dist), [0.0, 0.5, 1.0]
        )

    def test_true_mean_handles_ragged_support(self):
        q = Query(0.0, {1: 1.0})
        dist = FiniteDistribution([Sample((1,)), Sample((0, 0, 1))], [0.5, 0.5])
        assert true_mean(q, dist) == pytest.approx(0.5 * 1.0 + 0.5 * (1 / 3))

    def test_degenerate_sample_raises(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            empirical_mean(Query(0.5), Sample(()))


class TestSerialization:
    def test_reads_the_documented_schema(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            '{"samples": [{"elements": [0]}, {"elements": [1, 2]}], "probabilities": [0.25, 0.75]}'
        )
        dist = distribution_from_dict(load_json(str(path)))
        assert dist.samples == (Sample((0,)), Sample((1, 2)))
        np.testing.assert_array_equal(dist.probabilities, [0.25, 0.75])
        assert sample_from_dict({"elements": [5, 0, 5]}) == Sample((5, 0, 5))
        query = query_from_dict({"default_value": 0.125, "overrides": [[2, 0.5], [9, 1.0]]})
        assert query == Query(0.125, {9: 1.0, 2: 0.5})

    def test_transcript_accessors(self):
        t = Transcript(rounds=((Query(0.5), 0.25),), mechanism="oracle")
        assert t.queries == (Query(0.5),)
        assert t.answers == (0.25,)
        assert len(t) == 1
