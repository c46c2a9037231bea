"""Core value types: partitioned domains, samples, distributions, queries, transcripts.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads and processes. Derived data is
built on first use and kept: a sample's element array and element counts, a
distribution's element -> row index, and a query's override mapping and
hash.

A query stores its overrides as sorted int64 ids and float64 values, and
one lookup rule reads them: a binary search of the ids. The means of a
query whose values are all 0 or 1 are integer counts read from those ids
and the element -> row index, divided by the sample size; any other query,
or a support whose rows share an element, looks up each sample's elements
and averages them, one sample at a time.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PartitionedDomain:
    """Finite domain of ``num_blocks * block_size`` elements with dense ids.

    Element (block i, slot j) has id ``i * block_size + j``; ``slot_of``
    recovers the slot by integer division.
    """

    num_blocks: int
    block_size: int

    def __post_init__(self) -> None:
        if self.num_blocks < 1 or self.block_size < 1:
            raise ValueError("domain needs at least one block and one slot per block")

    @property
    def size(self) -> int:
        return self.num_blocks * self.block_size

    def slot_of(self, element: int) -> int:
        if not (0 <= element < self.size):
            raise ValueError(f"element {element} outside domain of size {self.size}")
        return element % self.block_size

    def block_elements(self, block: int) -> np.ndarray:
        """All element ids of one block, in slot order."""
        if not (0 <= block < self.num_blocks):
            raise ValueError(f"block {block} out of range")
        start = block * self.block_size
        return np.arange(start, start + self.block_size, dtype=np.int64)


@dataclass(frozen=True)
class Sample:
    """Ordered tuple of domain elements; duplicates are expected.

    Elements are checked by the rule query override ids follow: integers,
    or floats with integral values, and never negative.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        array = _element_ids(self.elements, "sample elements")
        if array.ndim != 1:
            raise ValueError("sample elements must be a flat sequence of ids")
        if np.count_nonzero(array < 0):
            raise ValueError("sample elements must be non-negative ids")
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "elements", tuple(array.tolist()))

    def __len__(self) -> int:
        return len(self.elements)

    def as_array(self) -> np.ndarray:
        """The elements as a read-only int64 array."""
        return self._array

    @functools.cached_property
    def element_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct elements in increasing order, and how often each occurs."""
        return np.unique(self.as_array(), return_counts=True)


class Query:
    """Per-element query table: a default value plus sparse overrides.

    Values live in [0, 1] and the table is fixed at construction; queries
    built from random draws cannot be influenced by whoever answers them.

    The overrides are two read-only arrays: ``ids``, the overridden element
    ids in increasing order without repeats (int64), and ``vals``, their
    values (float64), with -0.0 stored as 0.0. ``Query(default, mapping)``
    sorts a mapping into them; ``Query.from_arrays`` takes them as they are.
    Both check them the same way. ``binary`` says whether the default and
    every override value are 0 or 1. Built on first use and kept: the
    ``overrides`` mapping and the hash.
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
        if ids.ndim != 1 or vals.shape != ids.shape:
            raise ValueError("override ids and values must be 1-D and of one length")
        outside = ~((vals >= 0.0) & (vals <= 1.0))
        if np.count_nonzero(outside):
            raise ValueError(f"query values must lie in [0, 1], got {vals[outside][0]}")
        unordered = ids[1:] <= ids[:-1]
        if np.count_nonzero(unordered):
            raise ValueError(
                f"override ids must increase strictly; {ids[1:][unordered][0]} repeats or is out of order"
            )
        if ids.size and ids[0] < 0:
            raise ValueError("override elements must be non-negative ids")
        ids.setflags(write=False)
        vals.setflags(write=False)
        self.default_value = default_value
        self.ids = ids
        self.vals = vals
        self.binary = default_value in (0.0, 1.0) and np.count_nonzero((vals == 0.0) | (vals == 1.0)) == vals.size

    @functools.cached_property
    def overrides(self) -> Mapping[int, float]:
        """Read-only element id -> value mapping of the overrides."""
        return MappingProxyType(dict(zip(self.ids.tolist(), self.vals.tolist())))

    def value(self, element: int) -> float:
        return float(self._look_up(int(element)))

    def values_at(self, elements: np.ndarray) -> np.ndarray:
        """Table lookup for an int array of element ids, of the same shape."""
        return self._look_up(elements)

    def _look_up(self, elements) -> np.ndarray:
        # The one lookup rule. value() calls it directly, not through
        # values_at, so perfbench's values_at span counts array lookups only.
        elements = np.asarray(elements, dtype=np.int64)
        if self.ids.size == 0:
            return np.full(elements.shape, self.default_value)
        pos = np.minimum(np.searchsorted(self.ids, elements), self.ids.size - 1)
        return np.where(self.ids[pos] == elements, self.vals[pos], self.default_value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.default_value == other.default_value
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.default_value, self.ids.tobytes(), self.vals.tobytes()))

    def __repr__(self) -> str:
        return f"Query(default_value={self.default_value!r}, overrides={self.ids.size} entries)"


def _element_ids(raw, what: str) -> np.ndarray:
    """``raw`` as a new int64 array, when every entry is an integer."""
    arr = np.asarray(raw)
    if arr.dtype.kind not in "iu" and arr.size:
        bad = arr if arr.dtype.kind != "f" else arr[~(np.isfinite(arr) & (arr == np.trunc(arr)))]
        if bad.size:
            raise ValueError(f"{what} must be 64-bit integers, got {bad.ravel()[0]}")
    return arr.astype(np.int64)


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
        if len({s.elements for s in samples}) != len(samples):
            raise ValueError("support entries must be distinct")
        self.samples = samples
        self.probabilities = probs
        self.probabilities.setflags(write=False)

    @property
    def support_size(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def element_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(elements, rows, counts, lengths): every element of the support in
        increasing order, the one support row holding it and its count there,
        and each row's length. None when an element lies in more than one row
        or a row is empty."""
        lengths = np.array([len(s) for s in self.samples])
        if not lengths.all():
            return None
        elements = np.concatenate([s.as_array() for s in self.samples])
        rows = np.repeat(np.arange(lengths.size), lengths)
        order = np.argsort(elements, kind="stable")
        elements, rows = elements[order], rows[order]
        repeat = elements[1:] == elements[:-1]
        if (rows[1:] != rows[:-1])[repeat].any():
            return None
        starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
        counts = np.diff(np.append(starts, elements.size))
        return elements[starts], rows[starts], counts, lengths


def _override_hits(query: Query, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the query's override ids occur in ``elements`` (non-empty,
    increasing, distinct), and those overrides' values."""
    pos = np.minimum(np.searchsorted(elements, query.ids), elements.size - 1)
    hit = elements[pos] == query.ids
    return pos[hit], query.vals[hit]


# A query whose values are all 0 or 1 has an integer count as its sum over
# any sample, which float64 adds exactly in any order, so count / n equals
# the looked-up values' mean bit for bit. Other queries look up and average.


def empirical_mean(query: Query, sample: Sample) -> float:
    """Average of the query table over the sample's elements."""
    n = len(sample)
    if n == 0:
        raise ValueError("degenerate sample: cannot average over zero elements")
    if not query.binary:
        return float(query.values_at(sample.as_array()).mean())
    elements, counts = sample.element_counts
    pos, vals = _override_hits(query, elements)
    default = query.default_value
    return float((default * n + ((vals - default) * counts[pos]).sum()) / n)


def empirical_means_over_support(query: Query, dist: FiniteDistribution) -> np.ndarray:
    """Empirical mean of ``query`` on every support sample, in support order."""
    if query.binary and dist.element_rows is not None:
        elements, rows, counts, lengths = dist.element_rows
        pos, vals = _override_hits(query, elements)
        default = query.default_value
        delta = np.bincount(rows[pos], weights=(vals - default) * counts[pos], minlength=lengths.size)
        return (default * lengths + delta) / lengths
    return np.array([empirical_mean(query, s) for s in dist.samples])


def true_mean(query: Query, dist: FiniteDistribution) -> float:
    """Expected empirical mean of the query under the sampling distribution."""
    return float(dist.probabilities @ empirical_means_over_support(query, dist))


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
#   Sample:       {"elements": [int, ...]}
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
