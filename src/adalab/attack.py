"""Concentrated-query attacks that break noise-addition mechanisms.

Two constructions are provided. The score attack builds a correlated hard
instance (every element of a sample repeats one hidden within-block slot),
issues oblivious randomized info queries on the first block, accumulates a
correlation score per candidate slot from the mechanism's answers, and
finishes with an indicator query on the identified slot whose empirical
mean is near 1 while its true mean is near 0. The block-scan attack simply
probes 1/gamma disjoint candidate samples with indicator queries; the one
matching the held sample answers near 1 against a true mean of gamma.

Both issue only queries whose deviation mass is tiny by construction, so
breaking the mechanism cannot be blamed on pathological queries.

The score attack has two implementations with equal results. The harness
runs each trial through ``run_score_attack_arrays``, which draws and
answers all k info rounds as array operations. ``run_score_attack`` is the
per-round reference: one ``info_round`` per query, returning the transcript.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FiniteDistribution,
    Query,
    Sample,
    Transcript,
    empirical_mean,
    true_mean,
)
from .mechanisms import MechanismState, answer, answer_batch

# Variance of one score increment, decomposed as the noiseless part plus the
# noise contribution: Var(W_t) = (13/180)/r^2 + Var(noise)/3, obtained by
# integrating the score gap over p ~ U[0,1], Bernoulli tables, and centered
# noise. The Chernoff exponent k*mu^2/(2*Var) with signal mu = 1/(6r) then
# needs k >= 72*Var*r^2*ln(support/(blocks*beta)).
_NOISELESS_GAP_VARIANCE = 13.0 / 180.0
_SUPPORT_ELEMENT_LIMIT = 20_000_000


def _ceil(x: float) -> int:
    return math.ceil(x - 1e-9)


def instance_shape(eps: float, gamma: float) -> tuple[int, int, int]:
    """Blocks r, population N, and support size m of the hard instance."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    r = max(1, round(1.0 / eps))
    population = max(_ceil(1.0 / eps**2), _ceil(1.0 / (eps * gamma)))
    population = r * _ceil(population / r)
    return r, population, population // r


class HardInstance:
    """Correlated population where one hidden slot determines the sample.

    The domain has r blocks of m slots, and element (block i, slot j) has
    id ``i * m + j``. Support sample j consists of the slot-j element of
    every block, each repeated n/r times; the sampling distribution is
    uniform over the m slots.
    """

    def __init__(self, eps: float, gamma: float, n: int):
        r, _, m = instance_shape(eps, gamma)
        if n < r:
            raise ValueError("sample too small for 1/eps blocks")
        if n % r != 0:
            raise ValueError(f"sample size {n} must be a multiple of the block count {r}")
        self.n = int(n)
        self.num_blocks = r
        self.support_size = m
        self.copies_per_block = n // r
        self._distribution: FiniteDistribution | None = None

    @property
    def final_true_mean(self) -> float:
        return 1.0 / self.support_size

    def slot_elements(self, slot: int) -> np.ndarray:
        """The ids of one slot's element in every block, in block order."""
        if not (0 <= slot < self.support_size):
            raise ValueError(f"slot {slot} out of range")
        return slot + self.support_size * np.arange(self.num_blocks, dtype=np.int64)

    def make_sample(self, slot: int) -> Sample:
        return Sample(np.repeat(self.slot_elements(slot), self.copies_per_block))

    @property
    def distribution(self) -> FiniteDistribution:
        """Explicit uniform support; built lazily, large instances stay cheap."""
        if self._distribution is None:
            m = self.support_size
            if m * self.n > _SUPPORT_ELEMENT_LIMIT:
                raise ValueError(
                    f"instance support holds {m} samples of {self.n} elements, "
                    "too large to materialize; closed-form calculators cover this scale"
                )
            self._distribution = FiniteDistribution(
                [self.make_sample(j) for j in range(m)], np.full(m, 1.0 / m)
            )
        return self._distribution


def build_hard_instance(eps: float, gamma: float, n: int) -> HardInstance:
    return HardInstance(eps, gamma, n)


@dataclass
class AttackState:
    """Per-run attacker state: one score per candidate slot."""

    scores: np.ndarray
    rng_p: np.random.Generator
    rng_table: np.random.Generator
    rounds: list[tuple[Query, float]] = field(default_factory=list)
    last_increments: np.ndarray | None = None


def new_attack_state(
    inst: HardInstance, k: int, rng_p: np.random.Generator, rng_table: np.random.Generator
) -> AttackState:
    if k < 0:
        raise ValueError("round budget must be non-negative")
    return AttackState(
        scores=np.zeros(inst.support_size, dtype=np.float64),
        rng_p=rng_p,
        rng_table=rng_table,
    )


def make_info_query(table: np.ndarray) -> Query:
    """Query holding a 0/1 table on the first block and 0 elsewhere."""
    slots = np.flatnonzero(table)
    return Query.from_arrays(0.0, slots, np.ones(slots.size))


def draw_info_tables(
    inst: HardInstance, rng_p: np.random.Generator, rng_table: np.random.Generator, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``rounds`` info queries' p ~ U[0, 1] and their Bernoulli(p)
    tables over the first block's slots, as a (rounds, m) bool array.

    A Generator's draw of N values equals N single draws, so any split of
    the rounds into calls draws the same queries. ``random`` draws the
    doubles ``uniform(0, 1)`` draws, in half its time per call.
    """
    p = rng_p.random(rounds)
    return p, rng_table.random((rounds, inst.support_size)) < p[:, None]


def info_query_means(
    inst: HardInstance, mech: MechanismState, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Empirical means on the mechanism's held sample of the info queries
    with these (rounds, m) 0/1 tables, and their true means when the
    mechanism holds a distribution (else None).

    Both equal ``empirical_mean``'s and ``true_mean``'s bit for bit. A
    mechanism that reads a distribution must hold ``inst.distribution``,
    whose true means follow from the instance layout.
    """
    if mech.distribution is not None and mech.distribution is not inst.distribution:
        raise ValueError("mechanism distribution must be the instance's own")
    elements = mech.sample.as_array()
    # An info query is the table on block one and 0 elsewhere; its 0/1 sums
    # are exact, so dividing them by the sample size gives the means exactly.
    emp = tables[:, elements[elements < inst.support_size]].sum(axis=1) / len(elements)
    if mech.distribution is None:
        return emp, None
    # support sample j holds slot j of block one copies_per_block times
    support_means = tables * inst.copies_per_block / inst.n
    probs = mech.distribution.probabilities
    return emp, np.array([probs @ row for row in support_means])  # true_mean's dot, row by row


def _draw_info_query(
    inst: HardInstance, rng_p: np.random.Generator, rng_table: np.random.Generator
) -> tuple[float, np.ndarray, Query]:
    """Draw one info query: its p, its 0/1 table and the query."""
    p, tables = draw_info_tables(inst, rng_p, rng_table, 1)
    table = tables[0].astype(np.float64)
    return float(p[0]), table, make_info_query(table)


def info_round(state: AttackState, inst: HardInstance, mech: MechanismState) -> AttackState:
    """One info round: random table on block one, then a score update.

    The per-slot increment is (answer - p/r) * (table[slot] - p); its mean
    is 1/(6r) on the hidden slot and 0 elsewhere. With p = 0 the table is
    all zeros and every increment vanishes.
    """
    p, table, query = _draw_info_query(inst, state.rng_p, state.rng_table)
    observed = answer(mech, query)
    increments = (observed - p / inst.num_blocks) * (table - p)
    state.scores += increments
    state.last_increments = increments
    state.rounds.append((query, observed))
    return state


def final_query(state: AttackState, inst: HardInstance) -> Query:
    """Indicator of the best-scoring slot across all blocks; ties take the
    smallest slot."""
    elements = inst.slot_elements(int(np.argmax(state.scores)))
    return Query.from_arrays(0.0, elements, np.ones(inst.num_blocks))


@dataclass(frozen=True)
class ScoreAttackResult:
    true_index: int
    guess_index: int
    success: bool
    final_answer: float
    final_deviation: float
    sample_deviation: float
    transcript: Transcript | None  # None from run_score_attack_arrays


def _hidden_slot(inst: HardInstance, sample: Sample) -> int:
    m = inst.support_size
    slots = {e % m for e in sample.elements}
    if len(slots) != 1 or max(sample.elements) >= inst.num_blocks * m:
        raise ValueError("mechanism sample is not a hard-instance support sample")
    return slots.pop()


def run_score_attack(
    inst: HardInstance,
    mech: MechanismState,
    k: int,
    rng_p: np.random.Generator,
    rng_table: np.random.Generator,
) -> ScoreAttackResult:
    """Full attack: k info rounds, then the identifying final query.

    The attacker side sees only its own queries and the answers; the held
    sample is read here only afterwards, to score the run. Reports both the
    noisy final deviation |answer - true mean| and the de-noised sample
    deviation |empirical mean - true mean|.
    """
    if k < 1:
        raise ValueError("score attack needs at least one info round")
    if mech.sample is None:
        raise ValueError("mechanism must hold a sample drawn from the instance")
    state = new_attack_state(inst, k, rng_p, rng_table)
    for _ in range(k):
        info_round(state, inst, mech)
    closing = final_query(state, inst)
    final_answer = answer(mech, closing)
    state.rounds.append((closing, final_answer))
    transcript = Transcript(tuple(state.rounds), mechanism=mech.kind.name)
    true_index = _hidden_slot(inst, mech.sample)
    guess_index = int(np.argmax(state.scores))
    target = inst.final_true_mean
    return ScoreAttackResult(
        true_index=true_index,
        guess_index=guess_index,
        success=guess_index == true_index,
        final_answer=final_answer,
        final_deviation=abs(final_answer - target),
        sample_deviation=abs(empirical_mean(closing, mech.sample) - target),
        transcript=transcript,
    )


def run_score_attack_arrays(
    inst: HardInstance,
    mech: MechanismState,
    k: int,
    rng_p: np.random.Generator,
    rng_table: np.random.Generator,
) -> ScoreAttackResult:
    """``run_score_attack`` as array operations over all k info rounds.

    Info queries never read answers, and a Generator's draw of N values
    equals N single draws, so the k tables are drawn as one (k, m) array and
    answered in one batch; the result equals ``run_score_attack``'s field
    for field, with no transcript. A mechanism that reads a distribution
    must hold ``inst.distribution`` (see ``info_query_means``).
    """
    if k < 1:
        raise ValueError("score attack needs at least one info round")
    if mech.sample is None:
        raise ValueError("mechanism must hold a sample drawn from the instance")
    true_index = _hidden_slot(inst, mech.sample)
    p, tables = draw_info_tables(inst, rng_p, rng_table, k)
    emp, tru = info_query_means(inst, mech, tables)
    observed = answer_batch(mech, emp, tru)
    # info_round's (answer - p/r) * (table - p), factors swapped, which
    # keeps each product's bits; casting the 0/1 tables first, then working
    # in place, skips numpy's slower mixed bool-float loop and a temporary
    increments = tables.astype(np.float64)
    increments -= p[:, None]
    increments *= (observed - p / inst.num_blocks)[:, None]
    # numpy sums axis 0 of a C-contiguous (k, m) array with m >= 2 by adding
    # row after row into zeros, which is info_round's += bit for bit, signed
    # zeros included. With m = 1 numpy sums pairwise, but then argmax is 0
    # whatever the one score is.
    scores = increments.sum(axis=0)
    guess_index = int(scores.argmax())
    # every element sits at true_index (_hidden_slot), so the closing
    # indicator counts all n elements or none
    close_emp = 1.0 if guess_index == true_index else 0.0
    close_tru = None if tru is None else mech.distribution.probabilities[guess_index : guess_index + 1]
    final_answer = float(answer_batch(mech, np.array([close_emp]), close_tru)[0])
    target = inst.final_true_mean
    return ScoreAttackResult(
        true_index=true_index,
        guess_index=guess_index,
        success=guess_index == true_index,
        final_answer=final_answer,
        final_deviation=abs(final_answer - target),
        sample_deviation=abs(close_emp - target),
        transcript=None,
    )


class InfoRoundAnalyst:
    """Analyst issuing only the attack's oblivious info queries.

    Never reads answers, so two instances built from identically seeded
    generators produce identical query sequences: the per-round
    counterpart of ``draw_info_tables``, for ``run_interaction``.
    """

    deterministic = False

    def __init__(
        self, inst: HardInstance, rng_p: np.random.Generator, rng_table: np.random.Generator
    ):
        self.inst = inst
        self.rng_p = rng_p
        self.rng_table = rng_table

    def next_query(self, rounds) -> Query:
        return _draw_info_query(self.inst, self.rng_p, self.rng_table)[2]


class FixedQueryAnalyst:
    """Replays a fixed query list; deterministic by construction."""

    deterministic = True

    def __init__(self, queries):
        self.queries = tuple(queries)

    def next_query(self, rounds) -> Query:
        return self.queries[len(rounds)]


# --- disjoint-block attack ---------------------------------------------------


class BlockInstance:
    """1/gamma disjoint candidate samples, one drawn uniformly.

    Candidate block i holds the n elements with ids ``i * n .. i * n + n - 1``.
    """

    def __init__(self, gamma: float, n: int):
        if not (0.0 < gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if n < 1:
            raise ValueError("sample size must be at least 1")
        r = max(1, _ceil(1.0 / gamma))
        self.n = int(n)
        self.num_candidates = r
        samples = [Sample(np.arange(i * n, (i + 1) * n, dtype=np.int64)) for i in range(r)]
        self.distribution = FiniteDistribution(samples, np.full(r, 1.0 / r))

    def query_for_block(self, block: int) -> Query:
        if not (0 <= block < self.num_candidates):
            raise ValueError(f"block {block} out of range")
        return Query.from_arrays(0.0, self.distribution.samples[block].as_array(), np.ones(self.n))


@functools.lru_cache(maxsize=1)
def build_block_instance(gamma: float, n: int) -> BlockInstance:
    """The block instance of (gamma, n), cached by value: a simple-attack
    trial draws its held block from it and ``run_simple_attack`` probes it."""
    return BlockInstance(gamma, n)


@dataclass(frozen=True)
class SimpleAttackResult:
    worst_deviation: float
    breaking_query_index: int
    deviations: tuple[float, ...]


def run_simple_attack(gamma: float, n: int, mech: MechanismState) -> SimpleAttackResult:
    """Probe every candidate block with its indicator query.

    The mechanism must hold a sample drawn from the matching block
    instance. Returns the worst |answer - true mean| over the 1/gamma
    queries and the index of the query whose empirical mean on the held
    sample equals 1. The queries never read answers, so they are answered
    in one ``answer_batch``, as one ``answer`` per block in order would.
    """
    inst = build_block_instance(gamma, n)
    if mech.sample is None:
        raise ValueError("mechanism must hold a sample drawn from the instance")
    queries = [inst.query_for_block(block) for block in range(inst.num_candidates)]
    emp = np.array([empirical_mean(query, mech.sample) for query in queries])
    tru = np.array([true_mean(query, inst.distribution) for query in queries])
    held = np.flatnonzero(emp == 1.0)
    if held.size == 0:
        raise ValueError("held sample matches no candidate block")
    mech_tru = None if mech.distribution is None else np.array([true_mean(q, mech.distribution) for q in queries])
    deviations = np.abs(answer_batch(mech, emp, mech_tru) - tru)
    return SimpleAttackResult(
        worst_deviation=float(deviations.max()),
        breaking_query_index=int(held[-1]),
        deviations=tuple(deviations.tolist()),
    )


# --- attack round constants ---------------------------------------------------


def calibrated_attack_constant(r: int, noise_variance: float) -> float:
    """Constant from the exact per-round score-gap variance.

    72 * Var(W_t) with Var(W_t) = (13/180)/r^2 + noise_variance/3, scaled
    by a safety factor of 2 that absorbs clipping bias and the normal
    approximation.
    """
    if r < 1:
        raise ValueError("need at least one block")
    if noise_variance < 0:
        raise ValueError("noise variance must be non-negative")
    gap_variance = _NOISELESS_GAP_VARIANCE / (r * r) + noise_variance / 3.0
    return 72.0 * gap_variance * 2.0
