import json

import numpy as np
import pytest

from adalab.core import (
    FiniteDistribution,
    PartitionedDomain,
    Query,
    Sample,
    Transcript,
    distribution_from_dict,
    distribution_to_dict,
    dump_json,
    empirical_mean,
    empirical_means_over_support,
    load_json,
    query_from_dict,
    query_to_dict,
    sample_from_dict,
    sample_to_dict,
    transcript_from_dict,
    transcript_to_dict,
    true_mean,
)


class TestPartitionedDomain:
    def test_element_layout_is_block_major(self):
        dom = PartitionedDomain(num_blocks=3, block_size=4)
        assert dom.size == 12
        assert dom.element(0, 0) == 0
        assert dom.element(2, 3) == 11
        assert dom.block_of(7) == 1
        assert dom.slot_of(7) == 3
        np.testing.assert_array_equal(dom.block_elements(1), [4, 5, 6, 7])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PartitionedDomain(num_blocks=0, block_size=4)
        with pytest.raises(ValueError):
            PartitionedDomain(num_blocks=2, block_size=-1)

    def test_rejects_out_of_range_element(self):
        dom = PartitionedDomain(num_blocks=2, block_size=2)
        with pytest.raises(ValueError):
            dom.block_of(4)
        with pytest.raises(ValueError):
            dom.element(1, 2)


class TestSample:
    def test_array_view_is_read_only_and_cached(self):
        s = Sample((3, 1, 4, 1))
        arr = s.as_array()
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 9
        assert s.as_array() is arr
        assert len(s) == 4

    def test_validate_in_domain(self):
        dom = PartitionedDomain(num_blocks=2, block_size=2)
        Sample((0, 3)).validate_in(dom)
        with pytest.raises(ValueError):
            Sample((0, 4)).validate_in(dom)

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

    def test_draw_follows_probabilities(self):
        dist = FiniteDistribution([Sample((0,)), Sample((1,))], [0.75, 0.25])
        rng = np.random.default_rng(5)
        hits = sum(dist.draw_index(rng) == 0 for _ in range(4000)) / 4000
        assert abs(hits - 0.75) < 4 * np.sqrt(0.75 * 0.25 / 4000)

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
    def test_sample_round_trip(self):
        s = Sample((5, 0, 5))
        assert sample_from_dict(sample_to_dict(s)) == s

    def test_query_round_trip_preserves_overrides(self):
        q = Query(0.125, {9: 1.0, 2: 0.5})
        back = query_from_dict(query_to_dict(q))
        assert back == q
        # overrides serialize as sorted pairs so files diff cleanly
        assert query_to_dict(q)["overrides"] == [[2, 0.5], [9, 1.0]]

    def test_distribution_round_trip(self):
        dist = FiniteDistribution([Sample((0,)), Sample((1, 2))], [0.25, 0.75])
        back = distribution_from_dict(distribution_to_dict(dist))
        assert back.samples == dist.samples
        np.testing.assert_allclose(back.probabilities, dist.probabilities)

    def test_transcript_round_trip_and_json_file(self, tmp_path):
        t = Transcript(
            rounds=((Query(0.5), 0.5), (Query(0.0, {1: 1.0}), 0.25)),
            mechanism="real",
            seed=7,
        )
        back = transcript_from_dict(transcript_to_dict(t))
        assert back == t
        path = tmp_path / "t.json"
        dump_json(transcript_to_dict(t), str(path))
        assert transcript_from_dict(load_json(str(path))) == t
        # the file is plain JSON
        json.loads(path.read_text())

    def test_transcript_accessors(self):
        t = Transcript(rounds=((Query(0.5), 0.25),), mechanism="oracle")
        assert t.queries == (Query(0.5),)
        assert t.answers == (0.25,)
        assert len(t) == 1
