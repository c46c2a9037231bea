import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adalab.attack import build_hard_instance, draw_info_tables, make_info_query
from adalab.core import (
    FiniteDistribution,
    Query,
    Sample,
    Transcript,
    _override_hits,
    check_sample_size,
    distribution_from_dict,
    empirical_mean,
    empirical_means_over_support,
    load_json,
    query_from_dict,
    sample_from_dict,
    true_mean,
)


class TestSample:
    def test_ids_and_counts_are_read_only_arrays(self):
        s = Sample((3, 1, 4, 1))
        ids, counts = s.ids, s.counts
        assert ids.dtype == np.int64 and counts.dtype == np.float64
        assert ids.tolist() == [1, 3, 4] and counts.tolist() == [2.0, 1.0, 1.0]
        for arr in (ids, counts):
            with pytest.raises(ValueError):
                arr[0] = 9
        assert s.ids is ids and s.counts is counts
        assert len(s) == 4

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError, match="non-negative ids"):
            Sample((0, -1))
        with pytest.raises(ValueError, match="non-negative ids"):
            Sample.from_counts([-1, 0], [1, 1])

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((1.5, 2), "64-bit integers, got 1.5"),
            (("3", 2), "64-bit integers, got 3"),
            # beside a float, numpy holds 2**62 + 1 as the float64 2**62, another element
            ((2**62 + 1, 1.0), r"64-bit integers, got 4611686018427387905 \(ids read as floats must be whole and below 2\*\*53\)"),
            ((1.0, -(2**53)), r"64-bit integers, got -9007199254740992 \(ids read as floats"),
            (((1, 2), (3, 4)), "flat sequence of ids"),
        ],
    )
    def test_rejects_ids_it_would_have_truncated(self, elements, message):
        with pytest.raises(ValueError, match=message):
            Sample(elements)

    def test_integral_floats_are_ids(self):
        s = Sample((2.0, 1))
        np.testing.assert_array_equal(s.ids, [1, 2])
        assert s == Sample((2, 1)) and hash(s) == hash(Sample((2, 1)))
        assert s != Sample((2, 1, 1)) and s != Sample((1, 3)) and s != (2, 1)

    def test_a_sample_is_a_multiset(self):
        # nothing the lab computes reads the order of a sample's elements
        s = Sample((5, 0, 5, 2))
        assert s == Sample((0, 2, 5, 5)) == Sample.from_counts([0, 2, 5], [1, 1, 2])
        assert hash(s) == hash(Sample.from_counts(np.array([0, 2, 5]), np.array([1.0, 1.0, 2.0])))
        assert s != Sample((0, 2, 5)) and s != Sample((0, 2, 2, 5))

    @pytest.mark.parametrize(
        "ids, counts, message",
        [
            ([2, 1], [1, 1], "sample ids must increase strictly"),
            ([1, 1], [1, 1], "sample ids must increase strictly"),
            ([1, 2], [1], "1-D and of one length"),
            ([1], [0], "whole numbers of at least 1"),
            ([1], [1.5], "whole numbers of at least 1"),
            ([1], [np.nan], "whole numbers of at least 1"),
            ([1.5], [1], "64-bit integers, got 1.5"),
        ],
    )
    def test_from_counts_checks_its_arrays(self, ids, counts, message):
        with pytest.raises(ValueError, match=message):
            Sample.from_counts(ids, counts)

    def test_counts_stay_below_two_to_the_53(self):
        # float64 holds every whole count below 2**53, and so does every sum of them
        assert len(Sample.from_counts([0, 7], [2**53 - 2, 1])) == 2**53 - 1
        for counts in ([2**53], [2**53 - 1, 1], [2**52, 2**52], [2**53, 1], [np.inf]):
            with pytest.raises(ValueError, match=r"is not below 2\*\*53"):
                Sample.from_counts(np.arange(len(counts)), counts)
        with pytest.raises(ValueError, match=r"sample size 9007199254740993 is not below 2\*\*53"):
            check_sample_size(2**53 + 1)


class TestQuery:
    def test_values_and_overrides(self):
        q = Query(0.25, {2: 1.0, 5: 0.0})
        assert q.value(0) == 0.25
        assert q.value(2) == 1.0
        assert q.value(5) == 0.0
        assert q.value(7) == 0.25
        assert Query(0.5).value(3) == 0.5

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Query(1.5)
        with pytest.raises(ValueError):
            Query(0.0, {1: -0.25})

    def test_overrides_are_immutable(self):
        q = Query(0.0, {1: 1.0})
        with pytest.raises(TypeError):
            q.overrides[2] = 0.5
        with pytest.raises(ValueError):
            q.ids[0] = 2
        with pytest.raises(ValueError):
            q.vals[0] = 0.5

    def test_equality_and_hash(self):
        assert Query(0.5, {1: 1.0}) == Query(0.5, {1: 1.0})
        assert Query(0.5, {1: 1.0}) != Query(0.5, {2: 1.0})
        assert Query(0.5, {1: 1.0}) != Query(0.5, {1: 0.5})
        assert Query(0.5, {1: 0.5}) != Query(0.5)
        assert hash(Query(0.25)) == hash(Query(0.25))

    def test_dict_and_array_built_queries_are_one_value(self):
        ids, vals = np.array([2, 7]), np.array([0.5, 1.0])
        by_arrays = Query.from_arrays(0.25, ids, vals)
        ids[0], vals[0] = 5, 0.0  # the query keeps its own copies
        by_dict = Query(0.25, {7: 1.0, 2: 0.5})
        assert by_dict == by_arrays and hash(by_dict) == hash(by_arrays)
        np.testing.assert_array_equal(by_dict.ids, [2, 7])
        assert by_dict.ids.dtype == np.int64 and by_dict.vals.dtype == np.float64
        assert dict(by_arrays.overrides) == {2: 0.5, 7: 1.0}

    def test_negative_zero_is_zero(self):
        assert Query(0.0, {1: -0.0}) == Query(0.0, {1: 0.0})
        assert hash(Query(0.0, {1: -0.0})) == hash(Query(0.0, {1: 0.0}))
        assert Query(-0.0).default_value.hex() == "0x0.0p+0"

    def test_rejects_float_ids_numpy_would_round(self):
        # a mapping that mixes 2**62 + 1 with a float key arrives as float64,
        # where 2**62 + 1 reads as 2**62, another element
        message = r"override ids must be 64-bit integers, got 4.611686018427388e\+18 \(ids read as floats"
        with pytest.raises(ValueError, match=message):
            Query(0.0, {2**62 + 1: 1.0, 1.0: 0.5})
        # below 2**53 every whole float is one int
        assert Query(0.0, {2**53 - 1: 1.0, 1.0: 0.5}).ids.tolist() == [1, 2**53 - 1]
        assert Sample((2**53 - 1, 1.0)).ids.tolist() == [1, 2**53 - 1]

    @pytest.mark.parametrize(
        "ids, vals, message",
        [
            ([3, 1], [1.0, 1.0], "increase strictly; 1 repeats or is out of order"),
            ([1, 4, 4], [1.0, 0.5, 1.0], "increase strictly; 4 repeats or is out of order"),
            ([-2, 1], [1.0, 1.0], "non-negative"),
            ([1, 2], [np.nan, 1.0], "must lie in"),
            ([1, 2], [1.0, 1.5], "must lie in"),
            ([1, 2], [-0.25, 1.0], "must lie in"),
            ([1.5, 2], [1.0, 1.0], "must be 64-bit integers, got 1.5"),
            ([1, 2], [1.0], "one length"),
        ],
    )
    def test_from_arrays_rejects_bad_overrides(self, ids, vals, message):
        with pytest.raises(ValueError, match=message):
            Query.from_arrays(0.0, np.array(ids), np.array(vals))

    @pytest.mark.parametrize(
        "vals, first",
        [
            ([0.5, np.nan, 1.5, -0.1], "nan"),
            ([0.5, -0.1, np.nan, 1.5], "-0.1"),
            ([1.0, 1.5, -0.1, np.nan], "1.5"),
            ([np.nan, np.nan, 0.25, 0.25], "nan"),
        ],
    )
    def test_range_error_names_the_first_offender(self, vals, first):
        with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {first}$"):
            Query.from_arrays(0.0, np.arange(4), np.array(vals))

    @pytest.mark.parametrize("default", [np.nan, 1.25, -0.5])
    def test_from_arrays_rejects_bad_default(self, default):
        with pytest.raises(ValueError, match="must lie in"):
            Query.from_arrays(default, np.array([], dtype=np.int64), np.array([]))

    def test_sparse_lookup_matches_dense(self):
        # a 2-D lookup with ids past 2,000,000 and up to 2**40
        top = 2_000_000
        q = Query.from_arrays(0.25, np.array([3, 70, top - 1, top, top + 5]), np.array([1.0, 0.0, 0.5, 0.75, 1.0]))
        elements = np.array([[0, 3, 70], [top - 1, top, top + 5], [top + 4, 70, 2], [top + 6, 1, 2**40]])
        by_value = [[q.value(e) for e in row] for row in elements]
        by_mapping = [[q.overrides.get(int(e), q.default_value) for e in row] for row in elements]
        assert by_value == by_mapping
        assert {type(value) for row in by_value for value in row} == {float}
        assert [Query(0.5).value(e) for e in (top, 0)] == [0.5, 0.5]


class TestFiniteDistribution:
    def test_validates_probabilities(self):
        s = [Sample((0,)), Sample((1,))]
        with pytest.raises(ValueError):
            FiniteDistribution(s, [0.5, 0.6])
        with pytest.raises(ValueError):
            FiniteDistribution(s, [1.0, 0.0])
        with pytest.raises(ValueError):
            FiniteDistribution([Sample((0,)), Sample((0,))], [0.5, 0.5])


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
        for build in (lambda: Sample(()), lambda: Sample.from_counts([], [])):
            with pytest.raises(ValueError, match="degenerate sample: a sample needs at least one element"):
                build()

    def test_true_mean_keeps_the_last_query_by_value(self):
        dist = FiniteDistribution([Sample((0, 1)), Sample((2, 2, 3))], [0.25, 0.75])

        def reference(q):
            return float(np.add.reduce(empirical_means_over_support(q, dist) * dist.probabilities))

        first = Query(0.0, {1: 1.0, 3: 0.5})
        stored = true_mean(first, dist)
        assert stored == reference(first)
        again = Query(0.0, {3: 0.5, 1: 1.0})  # a new object, equal by value
        assert true_mean(again, dist) is stored
        other = Query(0.25, {2: 1.0})
        assert true_mean(other, dist) == reference(other)
        assert list(dist._last_true_mean) == [other]
        assert true_mean(first, dist) == reference(first)


def elements_of(sample):
    """The sample's elements, each id as often as it occurs, in increasing order."""
    return np.repeat(sample.ids, sample.counts.astype(np.int64))


def gathered_means(query, dist):
    """Reference: the query as a dense table over the support's ids,
    gathered at the support stacked as an (m, n) array when every sample
    has one length (sample by sample otherwise), then averaged per sample."""
    arrays = [elements_of(s) for s in dist.samples]
    table = np.full(max(int(a.max()) for a in arrays) + 1, query.default_value)
    inside = query.ids < table.size
    table[query.ids[inside]] = query.vals[inside]
    if len({a.size for a in arrays}) == 1:
        return table[np.stack(arrays)].mean(axis=1)
    return np.array([table[a].mean() for a in arrays])


def assert_means_match_the_gather(query, dist):
    reference = gathered_means(query, dist)
    assert empirical_means_over_support(query, dist).tobytes() == reference.tobytes()
    assert true_mean(query, dist).hex() == float(np.add.reduce(reference * dist.probabilities)).hex()
    assert [empirical_mean(query, s).hex() for s in dist.samples] == [float(x).hex() for x in reference]


def assert_means_within_the_rounding_bound(query, dist):
    """Each empirical mean, of one sample or over the support, lies within
    (h + 8) * 2**-53 of the exact rational mean, h the query's override ids
    found in the sample: the bound core's mean rule states, above the
    roundings of (v - d), (v - d) * c, d * n, h - 1 additions, one more
    and the division, each at most 2**-53 of a value of magnitude at most 1
    once divided by n. The true mean is ``mean_under`` of the support's means."""
    support = empirical_means_over_support(query, dist)
    for sample, mean in zip(dist.samples, support):
        exact = sum(Fraction(query.value(e)) * int(c) for e, c in zip(sample.ids, sample.counts)) / len(sample)
        bound = Fraction(int(np.count_nonzero(np.isin(query.ids, sample.ids))) + 8, 2**53)
        assert abs(Fraction(empirical_mean(query, sample)) - exact) <= bound
        assert abs(Fraction(float(mean)) - exact) <= bound
    assert true_mean(query, dist).hex() == float(np.add.reduce(support * dist.probabilities)).hex()


@st.composite
def supports(draw, shared: bool, ragged: bool):
    """Up to five distinct samples with weights; each sample draws its
    elements from its own eight ids, or all from the same four when
    ``shared``."""
    m = draw(st.integers(2 if shared else 1, 5))
    n = draw(st.integers(1, 6))
    rows = []
    for row in range(m):
        length = draw(st.integers(1, 6)) if ragged else n
        base = 0 if shared else 8 * row
        elements = draw(st.lists(st.integers(0, 3 if shared else 7), min_size=length, max_size=length))
        rows.append(tuple(base + e for e in elements))
    assume(len({tuple(sorted(row)) for row in rows}) == m)  # distinct as multisets
    weights = np.array(draw(st.lists(st.floats(0.125, 1.0), min_size=m, max_size=m)))
    return FiniteDistribution([Sample(r) for r in rows], weights / weights.sum())


def queries(default, values):
    return st.builds(Query, st.just(default), st.dictionaries(st.integers(0, 45), values, max_size=12))


ZERO_ONE = st.sampled_from([0.0, -0.0, 1.0])


class TestFastMeans:
    """A 0/1 query's means must equal the gather's bit for bit, on supports
    whose rows share no element (counts found among all rows' ids at once)
    or share some (sample by sample); any other query's means lie within the
    mean rule's rounding bound of the exact ones."""

    @pytest.mark.parametrize("default", [0.0, 1.0])
    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_one_queries(self, default, ragged, data):
        dist = data.draw(supports(shared=False, ragged=ragged))
        query = data.draw(queries(default, ZERO_ONE))
        assert dist.element_rows is not None
        assert_means_match_the_gather(query, dist)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_elements_take_the_gather(self, data):
        dist = data.draw(supports(shared=True, ragged=data.draw(st.booleans())))
        assume(dist.element_rows is None)
        query = data.draw(queries(data.draw(ZERO_ONE), ZERO_ONE))
        assert_means_match_the_gather(query, dist)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_other_queries_lie_within_the_rounding_bound(self, data):
        dist = data.draw(supports(shared=data.draw(st.booleans()), ragged=data.draw(st.booleans())))
        query = data.draw(queries(data.draw(st.floats(0.0, 1.0)), st.floats(0.0, 1.0)))
        assert_means_within_the_rounding_bound(query, dist)

    @given(m=st.integers(1, 4), n=st.integers(129, 1100), overrides=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_other_queries_on_long_uniform_samples(self, m, n, overrides, seed):
        # up to 80 override hits a sample, summed one by one over the
        # support and pairwise for a sample: both stay within the bound
        rng = np.random.default_rng(seed)
        rows = {tuple(rng.integers(0, 3 * n, n).tolist()) for _ in range(m)}
        dist = FiniteDistribution([Sample(r) for r in rows], np.full(len(rows), 1.0 / len(rows)))
        ids = np.unique(rng.integers(0, 3 * n, overrides))
        query = Query.from_arrays(float(rng.random()), ids, rng.random(ids.size))
        assert_means_within_the_rounding_bound(query, dist)

    def test_hard_instance_queries(self):
        inst = build_hard_instance(0.25, 0.01, 16)  # four copies of each element per sample
        _, tables = draw_info_tables(inst, np.random.default_rng(1), np.random.default_rng(2), 300)
        # the info queries and a closing slot indicator
        for query in [make_info_query(table) for table in tables] + [inst.slot_query(16)]:
            assert_means_match_the_gather(query, inst.distribution)


@st.composite
def dense_supports(draw):
    """Samples whose distinct elements are exactly 0 .. size - 1, each in
    one row and repeated at random, with weights."""
    size = draw(st.integers(1, 40))
    row_of = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=12))
    rows = {}
    for e in [*range(size), *repeats]:
        rows.setdefault(row_of[e], []).append(e)
    weights = np.array(draw(st.lists(st.floats(0.125, 1.0), min_size=len(rows), max_size=len(rows))))
    return list(rows.values()), weights / weights.sum()


class TestDenseLookup:
    """On a support whose elements are exactly 0 .. size - 1 a 0/1 query's
    ids are their own positions; the means must equal, bit for bit, those
    of the same support and query with every id moved up by one, which
    take the binary search."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_direct_lookup_matches_the_search(self, data):
        rows, probabilities = data.draw(dense_supports())
        default = data.draw(ZERO_ONE)
        query = data.draw(queries(default, ZERO_ONE))  # ids up to 45 reach past the support
        shifted_query = Query.from_arrays(default, query.ids + 1, query.vals)
        dist = FiniteDistribution([Sample(r) for r in rows], probabilities)
        shifted = FiniteDistribution([Sample([e + 1 for e in r]) for r in rows], probabilities)
        size = sum(len(set(r)) for r in rows)
        elements = dist.element_rows[0]
        assert elements.tolist() == list(range(size))
        if query.ids.size == 0 or query.ids[-1] < size:
            assert _override_hits(query, elements)[0] is query.ids
        else:
            assert _override_hits(query, elements)[0] is not query.ids
        assert _override_hits(shifted_query, shifted.element_rows[0])[0] is not shifted_query.ids
        means = empirical_means_over_support(query, dist)
        assert means.tobytes() == empirical_means_over_support(shifted_query, shifted).tobytes()
        assert true_mean(query, dist).hex() == true_mean(shifted_query, shifted).hex()
        # one sample holding every element is dense by itself
        whole, whole_shifted = Sample(sum(rows, [])), Sample([e + 1 for r in rows for e in r])
        for sample, moved in [*zip(dist.samples, shifted.samples), (whole, whole_shifted)]:
            assert empirical_mean(query, sample).hex() == empirical_mean(shifted_query, moved).hex()
        assert_means_match_the_gather(query, dist)


ROOT = Path(__file__).resolve().parent.parent
BIT_PINS = ["tests/test_mechanisms.py::test_oracle_loop_keeps_its_bits", "tests/test_core.py::TestFastMeans"]


def blas_is_openblas() -> bool:
    try:  # numpy before 1.25 has no mode argument; some builds list no dependencies
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_means_keep_their_bits_under_other_blas_kernels(coretype):
    """OpenBLAS picks its kernels from the CPU at run time. Forced to another
    CPU's kernels in a child process, the tests that pin means and the oracle
    loop's digest bit for bit still pass: no mean reads the BLAS."""
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *BIT_PINS]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


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
