"""Core value types: partitioned domains, samples, distributions, queries, transcripts.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads and processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12

# Dense evaluation tables above this domain size would dominate memory for
# no benefit; larger domains fall back to sparse evaluation.
_DENSE_CACHE_LIMIT = 2_000_000


@dataclass(frozen=True)
class PartitionedDomain:
    """Finite domain of ``num_blocks * block_size`` elements with dense ids.

    Element (block i, slot j) has id ``i * block_size + j``; block and slot
    are recovered by integer division.
    """

    num_blocks: int
    block_size: int

    def __post_init__(self) -> None:
        if self.num_blocks < 1 or self.block_size < 1:
            raise ValueError("domain needs at least one block and one slot per block")

    @property
    def size(self) -> int:
        return self.num_blocks * self.block_size

    def element(self, block: int, slot: int) -> int:
        if not (0 <= block < self.num_blocks):
            raise ValueError(f"block {block} out of range")
        if not (0 <= slot < self.block_size):
            raise ValueError(f"slot {slot} out of range")
        return block * self.block_size + slot

    def block_of(self, element: int) -> int:
        self._check(element)
        return element // self.block_size

    def slot_of(self, element: int) -> int:
        self._check(element)
        return element % self.block_size

    def block_elements(self, block: int) -> np.ndarray:
        """All element ids of one block, in slot order."""
        if not (0 <= block < self.num_blocks):
            raise ValueError(f"block {block} out of range")
        start = block * self.block_size
        return np.arange(start, start + self.block_size, dtype=np.int64)

    def _check(self, element: int) -> None:
        if not (0 <= element < self.size):
            raise ValueError(f"element {element} outside domain of size {self.size}")


@dataclass(frozen=True)
class Sample:
    """Ordered tuple of domain elements; duplicates are expected."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(int(e) for e in self.elements)
        if any(e < 0 for e in elems):
            raise ValueError("sample elements must be non-negative ids")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def as_array(self) -> np.ndarray:
        cached = getattr(self, "_array", None)
        if cached is None:
            cached = np.asarray(self.elements, dtype=np.int64)
            cached.setflags(write=False)
            object.__setattr__(self, "_array", cached)
        return cached

    def validate_in(self, domain: PartitionedDomain) -> None:
        if len(self) and int(self.as_array().max(initial=0)) >= domain.size:
            raise ValueError("sample contains elements outside the domain")


class Query:
    """Per-element query table: a default value plus sparse overrides.

    Values live in [0, 1] and the table is fixed at construction; queries
    built from random draws cannot be influenced by whoever answers them.
    """

    def __init__(self, default_value: float = 0.0, overrides: Mapping[int, float] | None = None):
        default_value = float(default_value)
        _check_query_value(default_value)
        table: dict[int, float] = {}
        for element, value in (overrides or {}).items():
            element = int(element)
            if element < 0:
                raise ValueError("override elements must be non-negative ids")
            value = float(value)
            _check_query_value(value)
            table[element] = value
        self.default_value = default_value
        self.overrides: Mapping[int, float] = MappingProxyType(table)
        self._dense: np.ndarray | None = None

    def value(self, element: int) -> float:
        return self.overrides.get(int(element), self.default_value)

    def values_at(self, elements: np.ndarray) -> np.ndarray:
        """Vectorized table lookup for an int array of element ids."""
        elements = np.asarray(elements, dtype=np.int64)
        if elements.size == 0:
            return np.empty(elements.shape, dtype=np.float64)
        needed = int(elements.max()) + 1
        if needed <= _DENSE_CACHE_LIMIT:
            if self._dense is None or self._dense.size < needed:
                self._dense = self._build_dense(max(needed, 2 * len(self.overrides)))
            return self._dense[elements]
        out = np.full(elements.shape, self.default_value, dtype=np.float64)
        for element, value in self.overrides.items():
            out[elements == element] = value
        return out

    def _build_dense(self, size: int) -> np.ndarray:
        dense = np.full(size, self.default_value, dtype=np.float64)
        if self.overrides:
            idx = np.fromiter(self.overrides.keys(), dtype=np.int64, count=len(self.overrides))
            vals = np.fromiter(self.overrides.values(), dtype=np.float64, count=len(self.overrides))
            inside = idx < size
            dense[idx[inside]] = vals[inside]
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.default_value == other.default_value and dict(self.overrides) == dict(other.overrides)

    def __hash__(self) -> int:
        return hash((self.default_value, tuple(sorted(self.overrides.items()))))

    def __repr__(self) -> str:
        return f"Query(default_value={self.default_value!r}, overrides={len(self.overrides)} entries)"


def _check_query_value(value: float) -> None:
    if not np.isfinite(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"query values must lie in [0, 1], got {value}")


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
        self._matrix: np.ndarray | None = None
        self._uniform_length = len({len(s) for s in samples}) == 1 and len(samples[0]) > 0

    @property
    def support_size(self) -> int:
        return len(self.samples)

    def sample_matrix(self) -> np.ndarray | None:
        """Support stacked as an (m, n) int array when all samples share n."""
        if not self._uniform_length:
            return None
        if self._matrix is None:
            self._matrix = np.stack([s.as_array() for s in self.samples])
            self._matrix.setflags(write=False)
        return self._matrix

    def draw_index(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.support_size, p=self.probabilities))

    def draw(self, rng: np.random.Generator) -> Sample:
        return self.samples[self.draw_index(rng)]


def empirical_mean(query: Query, sample: Sample) -> float:
    """Average of the query table over the sample's elements."""
    if len(sample) == 0:
        raise ValueError("degenerate sample: cannot average over zero elements")
    return float(query.values_at(sample.as_array()).mean())


def empirical_means_over_support(query: Query, dist: FiniteDistribution) -> np.ndarray:
    """Empirical mean of ``query`` on every support sample, in support order."""
    matrix = dist.sample_matrix()
    if matrix is not None:
        return query.values_at(matrix).mean(axis=1)
    return np.array([empirical_mean(query, s) for s in dist.samples])


def true_mean(query: Query, dist: FiniteDistribution) -> float:
    """Expected empirical mean of the query under the sampling distribution."""
    return float(dist.probabilities @ empirical_means_over_support(query, dist))


@dataclass(frozen=True)
class Transcript:
    """Rounds of (query, answer) plus which mechanism produced them."""

    rounds: tuple[tuple[Query, float], ...]
    mechanism: str
    seed: int | None = None

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


# --- JSON serialization -----------------------------------------------------
#
# Schemas (stable field names):
#   Sample:       {"elements": [int, ...]}
#   Query:        {"default_value": float, "overrides": [[int, float], ...]}
#   Distribution: {"samples": [Sample, ...], "probabilities": [float, ...]}
#   Transcript:   {"mechanism": str, "seed": int|null,
#                  "rounds": [{"query": Query, "answer": float}, ...]}


def sample_to_dict(sample: Sample) -> dict:
    return {"elements": list(sample.elements)}


def sample_from_dict(data: Mapping) -> Sample:
    return Sample(tuple(data["elements"]))


def query_to_dict(query: Query) -> dict:
    return {
        "default_value": query.default_value,
        "overrides": [[e, v] for e, v in sorted(query.overrides.items())],
    }


def query_from_dict(data: Mapping) -> Query:
    return Query(data["default_value"], {int(e): float(v) for e, v in data["overrides"]})


def distribution_to_dict(dist: FiniteDistribution) -> dict:
    return {
        "samples": [sample_to_dict(s) for s in dist.samples],
        "probabilities": [float(p) for p in dist.probabilities],
    }


def distribution_from_dict(data: Mapping) -> FiniteDistribution:
    samples = [sample_from_dict(d) for d in data["samples"]]
    return FiniteDistribution(samples, data["probabilities"])


def transcript_to_dict(transcript: Transcript) -> dict:
    return {
        "mechanism": transcript.mechanism,
        "seed": transcript.seed,
        "rounds": [{"query": query_to_dict(q), "answer": a} for q, a in transcript.rounds],
    }


def transcript_from_dict(data: Mapping) -> Transcript:
    rounds = tuple((query_from_dict(r["query"]), float(r["answer"])) for r in data["rounds"])
    return Transcript(rounds=rounds, mechanism=data["mechanism"], seed=data.get("seed"))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")
