"""Noise-addition mechanisms over a fixed sample, an oracle, and a hybrid.

A mechanism answers bounded queries with noisy means rounded to a finite
grid. The real mechanism perturbs the sample's empirical mean, the oracle
perturbs the distribution's true mean, and the hybrid behaves like the real
mechanism until it sees a query whose empirical mean strays from the true
mean by more than ``epsilon_switch``, after which it permanently answers
like the oracle. That switch rule lives in ``MechanismKind.sample_rounds``,
and only ``MechanismState._advance`` sets the switch flag and round count;
the output grid lives in ``grid_index`` and, for arrays, ``_grid_indices``.
Every answer path here and the LLR in ``bounds`` reads them.

Randomness contract: real and hybrid draw from one sequential noise stream,
so a hybrid that never switches consumes draws in lockstep with a real
mechanism built from the same seed (their transcripts are then bit
identical). Oracle-branch draws come from an independent stream keyed by
the round index, so a switch never desynchronizes later rounds. Exactly one
noise value is consumed per answer, from the stream of the branch taken.

The oracle's draw for round r is numpy's
``default_rng(SeedSequence(entropy=oracle_seed, spawn_key=(r,))).laplace(0.0, scale)``,
bit for bit. adalab computes that chain (SeedSequence's mixing, PCG64's
seeding and XSL-RR output, ``random_laplace``) with Python ints, so a round
builds no numpy objects; the run entropy is mixed once per mechanism, on its
first oracle draw. tests/test_mechanisms.py compares it with numpy over
seeds, scales and rounds, since numpy keeps bit-generator streams stable
across versions (NEP 19) but not its distribution methods.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import FiniteDistribution, Query, Sample, Transcript, empirical_mean, true_mean

_FAMILIES = ("laplace", "gaussian")
_GRID_REL_TOL = 1e-9
# The output interval; quantize reads these module names because reading a
# class attribute through an instance is slower on the per-answer path.
_CLIP_LO, _CLIP_HI = -0.5, 1.5


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family, scale, and the finite output grid of the mechanism.

    ``scale == 0`` is the degenerate noiseless limit: draws are exactly 0
    but still consume one stream value per answer. The grid is the values
    ``clip_lo + i * grid_step`` for ``i = 0 .. span/grid_step``; answers are
    clipped to ``[clip_lo, clip_hi]`` before rounding. The clip interval and
    the tolerated noise mass outside ``[clip_lo - 1, clip_hi]`` are fixed.
    """

    family: str = "laplace"
    scale: float = 0.1
    grid_step: float = 2.0**-20

    clip_lo = _CLIP_LO
    clip_hi = _CLIP_HI
    tail_tolerance = 0.05

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.scale < 0 or not math.isfinite(self.scale):
            raise ValueError("noise scale must be a finite non-negative real")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        span = self.clip_hi - self.clip_lo
        bins = span / self.grid_step
        if abs(bins - round(bins)) > _GRID_REL_TOL * bins or round(bins) < 1:
            raise ValueError("grid_step must divide the clip interval into whole bins")
        tail = self.stray_tail_mass()
        if tail > self.tail_tolerance:
            raise ValueError(
                f"noise mass {tail:.3g} outside [clip_lo - 1, clip_hi] exceeds "
                f"tolerance {self.tail_tolerance:.3g}"
            )

    @property
    def n_bins(self) -> int:
        return round((self.clip_hi - self.clip_lo) / self.grid_step)

    def stray_tail_mass(self) -> float:
        """Noise mass outside [clip_lo - 1, clip_hi], computed analytically."""
        low = self.clip_lo - 1.0
        return float(noise_cdf(self, low) + (1.0 - noise_cdf(self, self.clip_hi)))

    def variance(self) -> float:
        if self.family == "laplace":
            return 2.0 * self.scale**2
        return self.scale**2


def noise_cdf(spec: NoiseSpec, x) -> np.ndarray | float:
    """CDF of the centered noise draw at x (step function when scale is 0)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.scale == 0.0:
        return np.where(x >= 0.0, 1.0, 0.0)
    if spec.family == "laplace":
        # One tail's mass beyond |x|: exp of a non-positive number cannot overflow.
        tail = 0.5 * np.exp(-np.abs(x) / spec.scale)
        return np.where(x < 0.0, tail, 1.0 - tail)
    from scipy.special import erfc  # only Gaussian noise needs scipy

    return 0.5 * erfc(-x / (spec.scale * math.sqrt(2.0)))


def sample_noise(
    spec: NoiseSpec, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """One centered noise draw as a float, or ``size`` draws as an array.

    Every value consumes exactly one stream value, so one draw of ``size``
    values equals ``size`` single draws in order.
    """
    draw = rng.laplace if spec.family == "laplace" else rng.normal
    if size is None:
        return float(draw(0.0, spec.scale))
    return draw(0.0, spec.scale, size)


def grid_index(spec: NoiseSpec, value: float) -> int:
    """Index of the grid value ``value`` rounds to: clip to the output
    interval, then round the offset in grid steps.

    Exact half-bin ties go to the even index (banker's rounding).
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError("cannot quantize NaN")
    value = min(max(value, _CLIP_LO), _CLIP_HI)
    return round((value - _CLIP_LO) / spec.grid_step)


def quantize(spec: NoiseSpec, value: float) -> float:
    """Clip to the output interval, then round to the nearest grid value,
    ``clip_lo + grid_index(spec, value) * grid_step``.

    Exact half-bin ties go toward ``clip_lo + even * grid_step``.
    """
    return _CLIP_LO + grid_index(spec, value) * spec.grid_step


def _grid_indices(spec: NoiseSpec, values: np.ndarray) -> np.ndarray:
    """``grid_index`` of each value, bit for bit (``np.rint`` also sends ties
    to the even index), but without its NaN check."""
    values = np.maximum(values, _CLIP_LO)  # a copy, worked on in place
    np.minimum(values, _CLIP_HI, out=values)
    values -= _CLIP_LO
    values /= spec.grid_step
    return np.rint(values, out=values).astype(np.intp)


def quantize_array(spec: NoiseSpec, values) -> np.ndarray:
    """``quantize`` applied elementwise, equal to it bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("cannot quantize NaN")
    return _CLIP_LO + _grid_indices(spec, values) * spec.grid_step


def output_distribution(spec: NoiseSpec, mean: float) -> np.ndarray:
    """Exact law of ``quantize(mean + noise)`` over the grid values.

    Interior grid values collect the noise mass within half a step on either
    side; the two edge values also absorb the clipped tails. Requires a
    continuous noise family (scale > 0).
    """
    if spec.scale == 0.0:
        raise ValueError("exact output law needs scale > 0")
    # bin edges as offsets from the mean
    offsets = spec.clip_lo + (np.arange(spec.n_bins) + 0.5) * spec.grid_step - mean
    cdf = np.asarray(noise_cdf(spec, offsets))
    sf = noise_cdf(spec, -offsets)  # P(noise > offset), by the noise's symmetry
    probs = np.empty(spec.n_bins + 1, dtype=np.float64)
    probs[0] = cdf[0]
    # Above the mean CDF values round toward 1 and their differences cancel
    # to 0; differences of the survival function keep those bins exact.
    probs[1:-1] = np.where(offsets[:-1] >= 0.0, sf[:-1] - sf[1:], np.diff(cdf))
    probs[-1] = sf[-1]
    return probs


# The MechanismState inputs each kind reads (MechanismKind.reads), and how
# construction errors name each input.
_READS = {
    "real": ("sample", "real_rng"),
    "oracle": ("distribution", "oracle_seed"),
    "hybrid": ("sample", "distribution", "real_rng", "oracle_seed"),
}
_INPUT_NAMES = {
    "sample": "a sample",
    "distribution": "a distribution",
    "real_rng": "a real-noise stream",
    "oracle_seed": "an oracle-noise seed",
}


@dataclass(frozen=True)
class MechanismKind:
    """Which mean a mechanism perturbs: sample, distribution, or switching."""

    name: str
    epsilon_switch: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _READS:
            raise ValueError(f"unknown mechanism kind {self.name!r}; expected real, oracle, or hybrid")
        if self.name == "hybrid":
            if self.epsilon_switch is None or not (self.epsilon_switch > 0):
                raise ValueError("hybrid needs epsilon_switch > 0")
        elif self.epsilon_switch is not None:
            raise ValueError(f"{self.name} mechanism takes no epsilon_switch")

    @property
    def reads(self) -> tuple[str, ...]:
        """The ``MechanismState`` inputs this kind reads, by keyword."""
        return _READS[self.name]

    def sample_rounds(self, emp, tru, rounds: int, switched: bool = False) -> int:
        """How many of the next ``rounds`` rounds, whose queries have means
        ``emp`` and ``tru`` (arrays, or floats for one round), this kind
        answers from the sample before its first oracle-side round: all for
        real, none for the oracle or a ``switched`` hybrid, and for another
        hybrid the rounds before the first query that ``switches``."""
        if self.name != "hybrid" or switched:
            return rounds if self.name == "real" else 0
        trips = switches(emp, tru, self.epsilon_switch)
        if isinstance(trips, np.ndarray):
            return int(trips.argmax()) if trips.any() else rounds
        return 0 if trips else rounds

    def check_noise(self, noise: NoiseSpec) -> None:
        """A kind with a keyed oracle stream draws Laplace noise only."""
        if "oracle_seed" in self.reads and noise.family != "laplace":
            raise ValueError("oracle and hybrid mechanisms support only Laplace noise")

    @staticmethod
    def real() -> "MechanismKind":
        return MechanismKind("real")

    @staticmethod
    def oracle() -> "MechanismKind":
        return MechanismKind("oracle")

    @staticmethod
    def hybrid(epsilon_switch: float) -> "MechanismKind":
        return MechanismKind("hybrid", float(epsilon_switch))


class MechanismState:
    """One mechanism instance: kind, noise spec, data, and noise streams.

    It takes exactly the inputs ``kind.reads`` names and rejects any other:
    the real mechanism holds only a sample and its sequential stream, so it
    can never read a distribution, and the oracle only a distribution and
    its keyed stream, so it can never read a sample; the hybrid holds all
    four. ``switched`` is monotone: once the hybrid answers a round in
    oracle mode, all later rounds are oracle rounds.
    """

    def __init__(
        self,
        kind: MechanismKind,
        noise: NoiseSpec,
        *,
        sample: Sample | None = None,
        distribution: FiniteDistribution | None = None,
        real_rng: np.random.Generator | None = None,
        oracle_seed: int | None = None,
    ):
        reads = kind.reads
        given = {"sample": sample, "distribution": distribution, "real_rng": real_rng, "oracle_seed": oracle_seed}
        for key, value in given.items():
            if key in reads and value is None:
                raise ValueError(f"{kind.name} mechanism requires {_INPUT_NAMES[key]}")
            if key not in reads and value is not None:
                raise ValueError(f"{kind.name} mechanism never reads {_INPUT_NAMES[key]}; do not pass one")
        if oracle_seed is not None:
            if isinstance(oracle_seed, bool) or not isinstance(oracle_seed, numbers.Integral) or oracle_seed < 0:
                raise ValueError(f"oracle_seed must be a non-negative integer, got {oracle_seed!r}")
        kind.check_noise(noise)
        if sample is not None and len(sample) == 0:
            raise ValueError("degenerate sample: mechanism needs at least one element")
        self.kind = kind
        self.noise = noise
        self.sample = sample
        self.distribution = distribution
        self.switched = False
        self.switch_round: int | None = None
        self.rounds_answered = 0
        self._real_rng = real_rng
        self._oracle_seed = None if oracle_seed is None else int(oracle_seed)
        self._oracle_pool: tuple[list[int], int] | None = None

    def _advance(self, rounds: int, sample_rounds: int) -> int:
        """Count ``rounds`` answered rounds, the first ``sample_rounds`` from the
        sample (a hybrid switches at the next, for good); return the first's index."""
        first = self.rounds_answered
        if sample_rounds < rounds and self.kind.name == "hybrid" and not self.switched:
            self.switched, self.switch_round = True, first + sample_rounds
        self.rounds_answered = first + rounds
        return first

    def _oracle_noise(self, round_index: int) -> float:
        if self._oracle_pool is None:
            self._oracle_pool = _entropy_pool(self._oracle_seed)
        return _keyed_laplace(self._oracle_pool, round_index, self.noise.scale)


# --- the oracle's keyed draw ------------------------------------------------------
#
# numpy's SeedSequence -> PCG64 -> Generator.laplace chain in Python ints. The
# constants are SeedSequence's hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit multiplier.

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# generate_state's hash constant before each of its eight output words, and after the last
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9))


def _uint32_words(value: int) -> list[int]:
    """A non-negative int's 32-bit words, least significant first; [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_in(pool: list[int], const: int, words: list[int]) -> tuple[list[int], int]:
    """SeedSequence's four-word pool and hash constant after mixing in entropy
    words that come after the first four."""
    pool = list(pool)
    for word in words:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _entropy_pool(entropy: int) -> tuple[list[int], int]:
    """SeedSequence's pool and hash constant after mixing in the run entropy,
    padded to four words as numpy pads it when a spawn key follows."""
    words = _uint32_words(entropy)
    words += [0] * (4 - len(words))
    const = _INIT_A
    pool = []
    for word in words[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    return _mix_in(pool, const, words[4:])


def _keyed_laplace(entropy_pool: tuple[list[int], int], key: int, scale: float) -> float:
    """``float(default_rng(SeedSequence(entropy, spawn_key=(key,))).laplace(0.0, scale))``,
    given ``_entropy_pool(entropy)``."""
    pool, _ = _mix_in(*entropy_pool, _uint32_words(key))
    # generate_state(4, np.uint64): eight 32-bit words, each uint64 low word first
    words = []
    for i, word in enumerate(pool + pool):
        value = (word ^ _STATE_HASH[i]) * _STATE_HASH[i + 1] & _MASK32
        words.append(value ^ value >> 16)
    # PCG64 seeding: uint64s 0-1 are the 128-bit seed and 2-3 the stream, high half first
    seed = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
    inc = (words[5] << 97 | words[4] << 65 | words[7] << 33 | words[6] << 1 | 1) & _MASK128
    state = ((inc + seed) * _PCG_MULT + inc) & _MASK128
    while True:  # random_laplace draws again on u == 0
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        out = (state >> 64 ^ state) & _MASK64
        u = (((out >> rot | out << 64 - rot) & _MASK64) >> 11) * 2.0**-53
        # numpy's operations in numpy's order: loc = 0.0 keeps signed zeros
        # alike, and 2.0 - 2.0 * u would round differently from 2.0 - u - u
        if u >= 0.5:
            return 0.0 - scale * math.log(2.0 - u - u)
        if u > 0.0:
            return 0.0 + scale * math.log(u + u)


def switches(emp: float, tru: float, epsilon_switch: float) -> bool:
    """The hybrid's switch rule: the query's empirical mean strays from its
    true mean by more than ``epsilon_switch`` (elementwise on arrays)."""
    return abs(emp - tru) > epsilon_switch


def perturbed_mean(state: MechanismState, query: Query) -> tuple[float, bool]:
    """The mean ``state`` perturbs to answer ``query``, and whether that
    answer comes from the oracle side (``MechanismKind.sample_rounds``).
    Reads no noise, changes no state, and skips a switched hybrid's unread
    empirical mean."""
    emp = None if state.sample is None or state.switched else empirical_mean(query, state.sample)
    tru = None if state.distribution is None else true_mean(query, state.distribution)
    if state.kind.sample_rounds(emp, tru, 1, state.switched):
        return emp, False
    return tru, True


def answer(state: MechanismState, query: Query) -> float:
    """Answer one query, mutating the state (round counter, switch flag)."""
    if not isinstance(query, Query):
        raise TypeError(f"expected a Query, got {type(query).__name__}")
    mean, oracle_side = perturbed_mean(state, query)
    round_index = state._advance(1, 0 if oracle_side else 1)
    noise = state._oracle_noise(round_index) if oracle_side else sample_noise(state.noise, state._real_rng)
    return quantize(state.noise, mean + noise)


def answer_batch(state: MechanismState, emp: np.ndarray | None, tru: np.ndarray | None) -> np.ndarray:
    """Answer queries given only their means, as consecutive ``answer``
    calls would: the same draws from the same streams, the same answers and
    the same state afterwards.

    ``emp`` holds the queries' empirical means on the held sample and
    ``tru`` their true means. A kind reads only the means of the data it
    holds, which must be 1-D arrays of one length; the others may be None.
    Only queries that do not depend on earlier answers can be answered as
    one batch.
    """
    kind = state.kind
    pairs = (("emp", emp, "sample"), ("tru", tru, "distribution"))
    read = {name: means for name, means, data in pairs if data in kind.reads}
    lengths = {len(means) if np.ndim(means) == 1 else None for means in read.values()}
    if len(lengths) != 1 or None in lengths:
        raise ValueError(f"{kind.name} mechanism reads {' and '.join(read)} as 1-D means arrays of one length")
    (rounds,) = lengths
    sample_rounds = kind.sample_rounds(emp, tru, rounds, state.switched)
    first = state._advance(rounds, sample_rounds)
    raw = np.empty(rounds, dtype=np.float64)
    if sample_rounds:
        raw[:sample_rounds] = emp[:sample_rounds] + sample_noise(state.noise, state._real_rng, sample_rounds)
    for offset in range(sample_rounds, rounds):
        raw[offset] = tru[offset] + state._oracle_noise(first + offset)
    return quantize_array(state.noise, raw)


def run_interaction(analyst, mech: MechanismState, k: int) -> Transcript:
    """Drive ``k`` rounds of analyst-vs-mechanism and collect the transcript.

    The analyst is any object with ``next_query(rounds) -> Query`` where
    ``rounds`` is the tuple of (query, answer) pairs so far. Deterministic
    given the analyst's own seeds, the mechanism seeds, and the sample.
    """
    if k < 0:
        raise ValueError("round count must be non-negative")
    rounds: list[tuple[Query, float]] = []
    for i in range(k):
        query = analyst.next_query(tuple(rounds))
        if not isinstance(query, Query):
            raise ValueError(
                f"analyst produced {type(query).__name__} instead of a Query at round {i}"
            )
        rounds.append((query, answer(mech, query)))
    return Transcript(rounds=tuple(rounds), mechanism=mech.kind.name)
