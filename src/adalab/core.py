"""Core value types: samples, distributions, queries, transcripts.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads and processes. Derived data is
built on first use and kept: a distribution's element -> row index and its
last true mean (one entry, keyed by the query's value), and a query's
override mapping and hash. The hash, read on every true mean, is a plain
attribute rather than a ``cached_property``, whose every miss takes a lock
under Python 3.11.

A sample is a multiset, its sorted distinct int64 ids and their counts, so
its size n sizes no array; a query stores its overrides as sorted int64 ids
and float64 values, and one lookup rule reads them: a binary search of the
ids. One mean rule gives every empirical mean from the query's ids found
among the sample's ids (or a support's, when its rows share none), their
counts and n. Counts are float64 and n lies below 2**53, so a 0/1 query's
sums are exact counts and its means keep the looked-up values' mean's bits.
Where the sorted distinct ids are exactly 0 .. size - 1 (the hard instance's
support) and every override id lies below size, each id is its own position.
A true mean is ``mean_under``, which calls no BLAS.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12


def check_sample_size(n) -> None:
    """Refuse 2**53 elements or more: below, float64 holds every count and partial
    sum of counts exactly, and a larger total sums to at least 2**53 in any order."""
    if n >= 2**53:
        raise ValueError(f"sample size {n} is not below 2**53, where float64 counts stop being exact")


class Sample:
    """Multiset of domain elements: ``ids``, the distinct element ids in
    increasing order (int64), and ``counts``, how often each occurs (float64
    whole numbers), both read-only. ``Sample(elements)`` counts a sequence
    of ids; ``Sample.from_counts`` takes the two arrays. Both check ids as
    query ids are checked, and the size, ``len``: at least 1, below 2**53.
    """

    def __init__(self, elements):
        self._store(*np.unique(_element_ids(elements, "sample elements"), return_counts=True))

    @classmethod
    def from_counts(cls, ids, counts) -> "Sample":
        """Sample of ids in strictly increasing order, each a whole number of times."""
        sample = cls.__new__(cls)
        sample._store(_element_ids(ids, "sample elements"), counts)
        return sample

    def _store(self, ids: np.ndarray, counts) -> None:
        counts = np.array(counts, dtype=np.float64)
        if counts.shape != ids.shape:
            raise ValueError("sample ids and counts must be 1-D and of one length")
        if not ids.size:
            raise ValueError("degenerate sample: a sample needs at least one element")
        _check_sorted_ids(ids, "sample")
        if np.count_nonzero(~(counts >= 1.0) | (counts != np.trunc(counts))):
            raise ValueError("sample counts must be whole numbers of at least 1")
        total = np.add.reduce(counts)
        check_sample_size(total)
        ids.setflags(write=False)
        counts.setflags(write=False)
        self.ids, self.counts, self._len = ids, counts, int(total)

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.counts, other.counts)

    def __hash__(self) -> int:
        return hash((self.ids.tobytes(), self.counts.tobytes()))


class Query:
    """Per-element query table: a default value plus sparse overrides.

    Values live in [0, 1] and the table is fixed at construction; queries
    built from random draws cannot be influenced by whoever answers them.

    The overrides are two read-only arrays: ``ids``, the overridden element
    ids in increasing order without repeats (int64), and ``vals``, their
    values (float64), with -0.0 stored as 0.0. ``Query(default, mapping)``
    sorts a mapping into them; ``Query.from_arrays`` takes them as they are.
    Both check them the same way. Built on first use and kept: the
    ``overrides`` mapping, and the hash in the plain attribute ``_hash``,
    which ``_store`` sets to None.
    """

    def __init__(self, default_value: float = 0.0, overrides: Mapping[int, float] | None = None):
        table = overrides or {}
        ids = np.asarray(list(table.keys()))
        order = np.argsort(ids, kind="stable")
        self._store(default_value, ids[order], np.fromiter(table.values(), np.float64, len(table))[order])

    @classmethod
    def from_arrays(cls, default_value: float, ids, vals) -> "Query":
        """Query from override ids in strictly increasing order and their values."""
        query = cls.__new__(cls)
        query._store(default_value, ids, vals)
        return query

    def _store(self, default_value: float, ids, vals) -> None:
        default_value = float(default_value) + 0.0
        if not 0.0 <= default_value <= 1.0:
            raise ValueError(f"query values must lie in [0, 1], got {default_value}")
        ids = _element_ids(ids, "override ids")
        vals = np.asarray(vals, dtype=np.float64) + 0.0
        if vals.shape != ids.shape:
            raise ValueError("override ids and values must be 1-D and of one length")
        lo, hi = (np.minimum.reduce(vals), np.maximum.reduce(vals)) if vals.size else (default_value, default_value)
        if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
            outside = ~((vals >= 0.0) & (vals <= 1.0))
            raise ValueError(f"query values must lie in [0, 1], got {vals[outside][0]}")
        _check_sorted_ids(ids, "override")
        ids.setflags(write=False)
        vals.setflags(write=False)
        self.default_value = default_value
        self.ids = ids
        self.vals = vals
        self._hash = None

    @functools.cached_property
    def overrides(self) -> Mapping[int, float]:
        """Read-only element id -> value mapping of the overrides."""
        return MappingProxyType(dict(zip(self.ids.tolist(), self.vals.tolist())))

    def value(self, element: int) -> float:
        pos = int(np.searchsorted(self.ids, element))  # the one lookup rule: a binary search of the ids
        hit = pos < self.ids.size and self.ids[pos] == element
        return float(self.vals[pos]) if hit else self.default_value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.default_value == other.default_value
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.default_value, self.ids.tobytes(), self.vals.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Query(default_value={self.default_value!r}, overrides={self.ids.size} entries)"


def _element_ids(raw, what: str) -> np.ndarray:
    """``raw`` as a new 1-D int64 array, when every entry is an int64."""
    arr = np.asarray(raw)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence of ids")
    if arr.dtype.kind != "i" and arr.size:
        # numpy holds a list with an int of 2**63 or more as uint64, and one that mixes
        # ints with a float as float64, exact only below 2**53: neither casts unchanged
        if arr.dtype.kind == "u":
            fits = arr <= np.iinfo(np.int64).max
        elif arr.dtype.kind == "f":
            fits = (np.abs(arr) < 2.0**53) & (arr == np.trunc(arr))
        else:
            fits = np.zeros(arr.shape, dtype=bool)
        if not fits.all():
            beside = " (ids read as floats must be whole and below 2**53)" if arr.dtype.kind == "f" else ""
            raise ValueError(f"{what} must be 64-bit integers, got {raw[int(np.argmin(fits))]}{beside}")
    return arr.astype(np.int64)


def _check_sorted_ids(ids: np.ndarray, kind: str) -> None:
    """The override or sample ids must increase strictly from a non-negative first id."""
    unordered = ids[1:] <= ids[:-1]
    if np.count_nonzero(unordered):
        raise ValueError(f"{kind} ids must increase strictly; {ids[1:][unordered][0]} repeats or is out of order")
    if ids.size and ids[0] < 0:
        raise ValueError(f"{kind} elements must be non-negative ids")


class FiniteDistribution:
    """Distribution over samples with explicit support and probabilities."""

    def __init__(self, samples: Sequence[Sample], probabilities: Sequence[float]):
        samples = tuple(samples)
        probs = np.asarray(probabilities, dtype=np.float64)
        if len(samples) == 0:
            raise ValueError("distribution needs a non-empty support")
        if len(samples) != probs.size:
            raise ValueError("support and probabilities must have the same length")
        if np.any(probs <= 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be positive and finite")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if len(set(samples)) != len(samples):
            raise ValueError("support entries must be distinct")
        self.samples = samples
        self.probabilities = probs
        self.probabilities.setflags(write=False)
        # query -> true mean of the last query asked, replaced whole on a miss
        self._last_true_mean: dict[Query, float] = {}

    @functools.cached_property
    def element_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(elements, rows, counts, lengths): the distinct ids of every support
        sample in increasing order, the one row holding each and its count
        there, and each row's length, as float64. None when an id lies in
        more than one row."""
        lengths = np.array([len(s) for s in self.samples], dtype=np.float64)
        elements = np.concatenate([s.ids for s in self.samples])
        order = np.argsort(elements, kind="stable")
        elements = elements[order]
        if np.count_nonzero(elements[1:] == elements[:-1]):
            return None
        rows = np.repeat(np.arange(lengths.size), [s.ids.size for s in self.samples])[order]
        return elements, rows, np.concatenate([s.counts for s in self.samples])[order], lengths


def _override_hits(query: Query, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the query's override ids occur in ``elements`` (non-empty,
    increasing, distinct, non-negative), and those overrides' values."""
    ids, size = query.ids, elements.size
    if elements[-1] == size - 1 and (ids.size == 0 or ids[-1] < size):
        # the elements are exactly 0 .. size - 1: each id is its own position
        return ids, query.vals
    pos = np.minimum(elements.searchsorted(ids), size - 1)
    hit = elements[pos] == ids
    return pos[hit], query.vals[hit]


def empirical_mean(query: Query, sample: Sample) -> float:
    """Average of the query table over the sample's elements, by the one mean
    rule: (d * n + sum of (v - d) * c over the override hits) / n, for default
    d and c copies of a hit of value v. A 0/1 query's sum is an exact count;
    any other mean lies within (hits + 8) * 2**-53 of the exact one."""
    n = len(sample)
    pos, vals = _override_hits(query, sample.ids)
    default = query.default_value
    return float((default * n + np.add.reduce((vals - default) * sample.counts[pos])) / n)


def empirical_means_over_support(query: Query, dist: FiniteDistribution) -> np.ndarray:
    """Empirical mean of ``query`` on every support sample, in support order,
    by ``empirical_mean``'s rule (a row's hits summed in id order)."""
    if dist.element_rows is not None:
        elements, rows, counts, lengths = dist.element_rows
        pos, vals = _override_hits(query, elements)
        default = query.default_value
        delta = np.bincount(rows[pos], weights=(vals - default) * counts[pos], minlength=lengths.size)
        return (default * lengths + delta) / lengths
    return np.array([empirical_mean(query, s) for s in dist.samples])


def mean_under(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mean of ``values`` under ``probs`` over the last axis: products, then
    numpy's pairwise sum, in one order on every CPU (a BLAS dot's varies)."""
    return np.add.reduce(values * probs, axis=-1)


def true_mean(query: Query, dist: FiniteDistribution) -> float:
    """Expected empirical mean of the query: ``mean_under`` the distribution.

    The distribution keeps the last query's mean, so asking one query twice
    in a row computes it once."""
    mean = dist._last_true_mean.get(query)
    if mean is None:
        mean = float(mean_under(dist.probabilities, empirical_means_over_support(query, dist)))
        dist._last_true_mean = {query: mean}
    return mean


@dataclass(frozen=True)
class Transcript:
    """Rounds of (query, answer) plus which mechanism produced them."""

    rounds: tuple[tuple[Query, float], ...]
    mechanism: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple((q, float(a)) for q, a in self.rounds))

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def queries(self) -> tuple[Query, ...]:
        return tuple(q for q, _ in self.rounds)

    @property
    def answers(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.rounds)


# --- JSON input -------------------------------------------------------------
#
# Schemas of the files ``check-concentration`` reads:
#   Sample:       {"elements": [int, ...]}, a multiset: two samples whose
#                 elements are permutations of one another are one sample
#   Query:        {"default_value": float, "overrides": [[int, float], ...]}
#   Distribution: {"samples": [Sample, ...], "probabilities": [float, ...]}


def sample_from_dict(data: Mapping) -> Sample:
    return Sample(data["elements"])


def query_from_dict(data: Mapping) -> Query:
    query = Query(data["default_value"], dict(data["overrides"]))
    if query.ids.size != len(data["overrides"]):
        raise ValueError("query overrides name an element id more than once")
    return query


def distribution_from_dict(data: Mapping) -> FiniteDistribution:
    samples = [sample_from_dict(d) for d in data["samples"]]
    return FiniteDistribution(samples, data["probabilities"])


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
