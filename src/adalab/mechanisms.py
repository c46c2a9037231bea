"""Noise-addition mechanisms over a fixed sample, an oracle, and a hybrid.

A mechanism answers bounded queries with noisy means rounded to a finite
grid. The real mechanism perturbs the sample's empirical mean, the oracle
perturbs the distribution's true mean, and the hybrid behaves like the real
mechanism until it sees a query whose empirical mean strays from the true
mean by more than ``epsilon_switch``, after which it permanently answers
like the oracle. That switch rule lives in ``MechanismKind.sample_rounds``,
and only ``MechanismState._advance`` sets the switch flag and round count;
the output grid lives in ``grid_index`` and, for arrays, ``_grid_indices``,
whose frame of positions ``_position_frame`` hands the LLR's affine map.
Every answer path here and the LLR in ``bounds`` reads them. One round rule,
``answer_means``, and one batch rule, ``answer_batch``, answer queries from
their means and alone call ``_advance``; ``answer`` takes a query's means
and calls ``answer_means``.

Randomness contract: real and hybrid draw from one sequential noise stream,
so a hybrid that never switches consumes draws in lockstep with a real
mechanism built from the same seed (their transcripts are then bit
identical). Oracle-branch draws come from an independent stream keyed by
the round index, so a switch never desynchronizes later rounds. Exactly one
noise value is consumed per answer, from the stream of the branch taken.

The oracle's draw for round r is numpy's
``default_rng(SeedSequence(entropy=oracle_seed, spawn_key=(r,))).laplace(0.0, scale)``,
bit for bit. numpy's own ``SeedSequence`` mixes the seed, once per block of
64 spawn keys (``_BLOCK_TRIALS``); ``_spawned_state_words`` mixes in the
block's keys and computes the state words SeedSequence hands PCG64 (its
``generate_state``) with the same arithmetic on uint64 arrays: the rounds of
one block for the oracle and the trials of one block for the harness's
per-trial streams. A mechanism caches its latest block of round
words, filled on its first oracle draw; each round seeds a PCG64 with its
four words (``_StateWords``) and draws numpy's own ``laplace(0.0, scale)``.
tests/test_mechanisms.py compares the draws with numpy over seeds, scales
and rounds, and tests/test_harness.py the trial streams.

numpy's Laplace formula (``random_laplace`` at loc 0.0 for one uniform
double) lives in ``_laplace_from_uniform``. For the LLR in ``bounds``, which
reads only each answer's grid index, ``laplace_uniforms`` reads the doubles
numpy's Laplace draw would read and ``laplace_grid_indices`` turns a
round-major block of them, ``_BLOCK_VALUES`` doubles at most, into grid
indices through one affine map of a vectorized ``np.log``; it recomputes
with ``_laplace_from_uniform`` every value near a bin edge, so each index
equals the one of numpy's draw. tests/test_mechanisms.py compares both with
numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import FiniteDistribution, Query, Sample, Transcript, empirical_mean, true_mean

_FAMILIES = ("laplace", "gaussian")
_GRID_REL_TOL = 1e-9


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

    clip_lo = -0.5
    clip_hi = 1.5
    tail_tolerance = 0.05

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.scale < 0 or not math.isfinite(self.scale):
            raise ValueError("noise scale must be a finite non-negative real")
        if not 0.0 < self.grid_step < math.inf:  # NaN fails this too
            raise ValueError(f"grid_step must be positive and finite, got {self.grid_step}")
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


# The output interval as module names, which only the grid rule's functions
# read: reading a class attribute through an instance is slower on the
# per-answer path.
_CLIP_LO, _CLIP_HI = NoiseSpec.clip_lo, NoiseSpec.clip_hi


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


def _laplace_from_uniform(u: float, scale: float) -> float:
    """numpy's ``random_laplace`` at loc 0.0 for the nonzero double ``u``, in
    numpy's operations and order: loc 0.0 keeps signed zeros alike, and
    ``2.0 - 2.0 * u`` would round differently from ``2.0 - u - u``."""
    if u >= 0.5:
        return 0.0 - scale * math.log(2.0 - u - u)
    return 0.0 + scale * math.log(u + u)


def laplace_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """The ``size`` uniform doubles that ``rng.laplace(0.0, scale, size)``
    would read, leaving ``rng`` in the state that draw leaves it in.
    ``random_laplace`` draws again on 0.0, so zeros are dropped and the
    stream is read further."""
    u = rng.random(size)
    while size and not u.min():  # the doubles are never negative, so a zero is the minimum
        kept = u[u != 0.0]
        u = np.concatenate((kept, rng.random(size - kept.size)))
    return u


# Uniform doubles per block the LLR hands laplace_grid_indices: 125 KiB per
# float64 temporary, under glibc's 128 KiB mmap threshold, so the allocator
# hands each back to its heap and reuses it block after block. Arrays of a
# whole 2,000 x 20 direction (320 KB each) lie above glibc's mmap and trim
# thresholds and took 248 minor page faults per llr-exact call.
_BLOCK_VALUES = 16_000
# Values within this distance (in value units, not grid steps) of a bin edge
# are recomputed with libm; see laplace_grid_indices for why it suffices.
_EDGE_BAND = 2.0**-40


def laplace_grid_indices(spec: NoiseSpec, u: np.ndarray, means) -> np.ndarray:
    """``_grid_indices(spec, laplace + means[:, None])`` bit for bit, as a
    new C-contiguous array, where ``laplace`` holds
    ``_laplace_from_uniform(u, spec.scale)`` of each double of ``u``, a
    (k, rows) array (or view) of nonzero doubles (``laplace_uniforms``),
    round r of every transcript in row r, and ``means`` holds one mean per
    round. It copies ``u`` round-major, so each round's mean is one scalar
    of one row, and its temporaries are the size of ``u``: a caller passes
    blocks of about ``_BLOCK_VALUES`` doubles.

    Each double goes to its grid position through one affine map of a
    vectorized ``np.log`` of numpy's branch value
    ``t = min(u + u, (2.0 - u) - u)``: ``(scale / step) * copysign(log t,
    u - 0.5)`` plus the round's ``(mean - clip_lo) / step``, clipped to
    ``[0, (clip_hi - clip_lo) / step]``, the frame of ``_grid_positions``
    (``_position_frame``). That is the position of numpy's Laplace value
    ``mean + (0.0 -/+ scale * log t)``, rounded in other places and taken
    with ``np.log``, which is not libm's ``log`` and differs from it in the
    last bit of about one value in 300. Every position within ``_EDGE_BAND``
    (2**-40 value units, 2**-40 / step positions) of a bin edge, a
    half-integer position, exact ties included, is recomputed with
    ``_laplace_from_uniform`` and ``grid_index``.

    That band holds the gap between this map's position and the
    reference's on every grid ``NoiseSpec`` accepts, so any other position
    lies on the reference's side of every edge. A nonzero double gives
    ``t >= 2**-53``, so ``|log t| < 37`` and one ulp of it is at most
    2**-47. numpy's vectorized log and libm's differed by at most one ulp
    over 2e7 doubles (numpy 2.4, AVX-512), and even 64 ulps would move a
    position by less than 0.51 * 64 * 2**-47 / step < 2**-41 / step, since
    the tail tolerance caps a Laplace scale at 1.5 / ln 20 < 0.51. The noise
    is then below 19 in size, so a position can come near the clip interval
    only from a mean within 19 of it: every term the map adds is below
    22 / step, every value the reference rounds below 22, and each of the
    nine roundings (the map's scale, product, shift, division and sum; the
    reference's product, sum, shift and division) moves a position by at
    most 2**-48 / step. The band counts value units, not grid steps, so it
    holds at any step; at a step of 2**-39 or less every value is
    recomputed. The clip moves no index: its bounds are the reference's own
    clipped positions, so a clipped position that differs from the
    reference's lies within the gap of it and is tested like any other.
    """
    means = np.asarray(means, dtype=np.float64)
    scale = spec.scale
    clip_lo, step, top = _position_frame(spec)
    # a position this far or farther from the nearest whole one lies within the band of a half step
    near_edge = 0.5 - _EDGE_BAND / step
    u = np.ascontiguousarray(u)
    positions = u + u
    other = 2.0 - u
    other -= u
    np.minimum(positions, other, out=positions)  # u + u below 0.5, (2.0 - u) - u from 0.5 up
    np.log(positions, out=positions)
    np.subtract(u, 0.5, out=other)
    np.copysign(positions, other, out=positions)  # log t below 0.5, -log t from 0.5 up
    positions *= scale / step
    positions += ((means - clip_lo) / step)[:, None]
    np.clip(positions, 0.0, top, out=positions)
    np.rint(positions, out=other)
    indices = other.astype(np.intp)
    positions -= other
    near = np.abs(positions, out=positions) >= near_edge
    if near.any():
        for row, col in zip(*np.nonzero(near)):
            value = _laplace_from_uniform(float(u[row, col]), scale) + means[row]
            indices[row, col] = grid_index(spec, value)
    return indices


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


def _position_frame(spec: NoiseSpec) -> tuple[float, float, float]:
    """The frame of ``_grid_positions``, which puts a value at
    ``(value - clip_lo) / grid_step`` clipped to ``[0, last]``: ``clip_lo``,
    ``grid_step`` and ``last = (clip_hi - clip_lo) / grid_step``."""
    return _CLIP_LO, spec.grid_step, (_CLIP_HI - _CLIP_LO) / spec.grid_step


def _grid_positions(spec: NoiseSpec, values: np.ndarray) -> np.ndarray:
    """Each value's offset from ``clip_lo`` in grid steps after clipping, as
    ``grid_index`` computes it before rounding, in a new array."""
    positions = np.maximum(values, _CLIP_LO)  # a copy, worked on in place
    np.minimum(positions, _CLIP_HI, out=positions)
    positions -= _CLIP_LO
    positions /= spec.grid_step
    return positions


def _grid_indices(spec: NoiseSpec, values: np.ndarray) -> np.ndarray:
    """``grid_index`` of each value, bit for bit (``np.rint`` also sends ties
    to the even index), but without its NaN check."""
    positions = _grid_positions(spec, values)
    return np.rint(positions, out=positions).astype(np.intp)


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
            # an infinite threshold never switches: the real mechanism under another name
            if self.epsilon_switch is None or not (0 < self.epsilon_switch < math.inf):
                raise ValueError(f"hybrid needs epsilon_switch > 0 and finite, got {self.epsilon_switch}")
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
        self.kind = kind
        self.noise = noise
        self.sample = sample
        self.distribution = distribution
        self.switched = False
        self.switch_round: int | None = None
        self.rounds_answered = 0
        self._real_rng = real_rng
        self._oracle_seed = None if oracle_seed is None else int(oracle_seed)
        self._oracle_block: tuple[int, np.ndarray] | None = None

    def _advance(self, rounds: int, sample_rounds: int) -> int:
        """Count ``rounds`` answered rounds, the first ``sample_rounds`` from the
        sample (a hybrid switches at the next, for good); return the first's index."""
        first = self.rounds_answered
        if sample_rounds < rounds and self.kind.name == "hybrid" and not self.switched:
            self.switched, self.switch_round = True, first + sample_rounds
        self.rounds_answered = first + rounds
        return first

    def _oracle_noise(self, round_index: int) -> float:
        """Round ``round_index``'s oracle noise: numpy's Laplace draw from a
        PCG64 seeded with the round's state words, read from the cached block
        of the 64 rounds that holds it."""
        block, row = divmod(round_index, _BLOCK_TRIALS)
        if self._oracle_block is None or self._oracle_block[0] != block:
            words = _spawned_state_words(self._oracle_seed, block * _BLOCK_TRIALS, _BLOCK_TRIALS)
            self._oracle_block = block, words
        bit_generator = np.random.PCG64(_StateWords(self._oracle_block[1][row]))
        return sample_noise(self.noise, np.random.Generator(bit_generator))


# --- the keyed chain ---------------------------------------------------------------
#
# numpy's SeedSequence mixes the run entropy (_entropy_pool); its mixing of
# spawn-key words and its generate_state run here on uint64 arrays. The constants
# are SeedSequence's hash constants (numpy/random/bit_generator.pyx).

_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# generate_state's hash constant before each of its eight output words, and after the last
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)], dtype=np.uint64)
# a hash constant times these: the constants a spawn-key word meets in its four hashmix steps
_MULT_A_POWERS = np.array([pow(_MULT_A, i, 1 << 32) for i in range(5)], dtype=np.uint64)
# spawn keys per block of state words: trials for the harness's streams, rounds
# for the oracle; a block aligned to a multiple of 64 never crosses a multiple
# of 2**32, so the keys of one block share their 32-bit word count
_BLOCK_TRIALS = 64


def _uint32_words(value: int) -> list[int]:
    """A non-negative int's 32-bit words, least significant first; [0] for 0."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _mix_in(pool: np.ndarray, const: int, words: list) -> tuple[list, int]:
    """SeedSequence's pool and hash constant after mixing in spawn-key words,
    each hashed and mixed into all four pool words at once; array words give
    arrays, elementwise, and are left unchanged."""
    pool = np.asarray(pool, dtype=np.uint64)
    for word in words:
        # hashmix step i xors with consts[i], then multiplies by consts[i + 1]
        consts = const * _MULT_A_POWERS & _MASK32
        value = (np.asarray(word, dtype=np.uint64)[..., None] ^ consts[:4]) * consts[1:] & _MASK32
        value ^= value >> 16
        mixed = (_MIX_MULT_L * pool - _MIX_MULT_R * value) & _MASK32
        pool = mixed ^ mixed >> 16
        const = int(consts[4])
    return [pool[..., i] for i in range(4)], const


def _entropy_pool(entropy: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool and hash constant after mixing in the run entropy,
    padded to four words as numpy pads it when a spawn key follows (numpy
    hashes missing words as zeros). The constant has met one multiply per
    hashmix: 16 for the first four words and their cross-mix, then 4 for
    each later word."""
    steps = 16 + 4 * max(0, len(_uint32_words(entropy)) - 4)
    return np.random.SeedSequence(entropy).pool, _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32


def _spawned_state_words(entropy: int, first: int, count: int, streams: int = 0) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)``
    for the keys ``(first + i,)``, ``i < count``, as a read-only (count, 4)
    uint64 array or, given ``streams``, for the keys ``(first + i, s)``,
    ``s < streams``, as a (count, streams, 4) array; computed with array
    arithmetic. The keys must share one 32-bit word count: the range may
    not cross a multiple of 2**32."""
    low, *high = _uint32_words(first)
    if low + count - 1 > _MASK32:
        raise ValueError(f"keys {first} to {first + count - 1} cross a multiple of 2**32")
    pool, const = _entropy_pool(entropy)
    keys = np.arange(low, low + count, dtype=np.uint64)
    key_words = [keys[:, None], *high, np.arange(streams, dtype=np.uint64)] if streams else [keys, *high]
    pool = _mix_in(pool, const, key_words)[0]
    # generate_state's eight 32-bit words from the pool read twice, paired low word first
    words = (np.stack(pool * 2, axis=-1) ^ _STATE_HASH[:8]) * _STATE_HASH[1:] & _MASK32
    words ^= words >> 16
    table = words[..., 0::2] | words[..., 1::2] << 32
    table.flags.writeable = False
    return table


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Four ready uint64 state words, handed to ``PCG64`` as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 state words only; asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def switches(emp: float, tru: float, epsilon_switch: float) -> bool:
    """The hybrid's switch rule: the query's empirical mean strays from its
    true mean by more than ``epsilon_switch`` (elementwise on arrays)."""
    return abs(emp - tru) > epsilon_switch


def _query_means(state: MechanismState, query: Query) -> tuple[float | None, float | None]:
    """The empirical and true means of ``query`` that ``state`` holds the
    data for (else None), skipping a switched hybrid's unread empirical mean."""
    emp = None if state.sample is None or state.switched else empirical_mean(query, state.sample)
    tru = None if state.distribution is None else true_mean(query, state.distribution)
    return emp, tru


def perturbed_mean(state: MechanismState, query: Query) -> float:
    """The mean ``state`` perturbs to answer ``query``: the empirical mean on
    a sample-side round (``MechanismKind.sample_rounds``), else the true mean.
    Reads no noise and changes no state."""
    emp, tru = _query_means(state, query)
    return emp if state.kind.sample_rounds(emp, tru, 1, state.switched) else tru


def answer(state: MechanismState, query: Query) -> float:
    """Answer one query, mutating the state (round counter, switch flag)."""
    if not isinstance(query, Query):
        raise TypeError(f"expected a Query, got {type(query).__name__}")
    return answer_means(state, *_query_means(state, query))


def answer_means(state: MechanismState, emp: float | None, tru: float | None) -> float:
    """Answer one query given only its means, as ``answer`` would: the
    one-round form of ``answer_batch``, with the scalar ``quantize``.

    ``emp`` is the query's empirical mean on the held sample and ``tru``
    its true mean; a kind reads only the means of the data it holds, and
    a switched hybrid reads no ``emp``.
    """
    sample_side = state.kind.sample_rounds(emp, tru, 1, state.switched)
    round_index = state._advance(1, sample_side)
    if sample_side:
        return quantize(state.noise, emp + sample_noise(state.noise, state._real_rng))
    return quantize(state.noise, tru + state._oracle_noise(round_index))


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
