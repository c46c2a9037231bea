"""Concentrated-query attacks that break noise-addition mechanisms.

Two constructions are provided. The score attack builds a correlated hard
instance (every element of a sample repeats one hidden within-block slot),
issues oblivious randomized info queries on the first block, accumulates a
correlation score per candidate slot from the mechanism's answers, and
finishes with an indicator query on the identified slot whose empirical
mean is near 1 while its true mean is near 0. The block-scan attack runs on
the hard instance with one block (eps = 1, ``BlockInstance``), whose 1/gamma
candidate samples each hold one slot's element n times: it probes every
slot's indicator on the real mechanism, and the one matching the held sample
answers near 1 against a true mean of gamma. ``HardInstance.slot_query`` builds
every slot indicator, the score attack's closing query included.

Both issue only queries whose deviation mass is tiny by construction, so
breaking the mechanism cannot be blamed on pathological queries.

The score attack has one implementation, ``run_score_attack``: it draws and
answers all k info rounds as array operations, takes its guess from one
matrix-vector product when a rounding bound certifies it (else from the
running score sums, ``_score_sums``), and answers the closing query with
the scalar ``answer_means``. Its transcript is built when first read, so a
caller that only reads the result, as the harness does, builds no query.
``new_attack_state`` and ``info_round`` are the per-round API, one info
round per call, for callers that read each round's score increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    FiniteDistribution,
    Query,
    Sample,
    Transcript,
    check_sample_size,
    mean_under,
)
from .mechanisms import MechanismState, answer, answer_batch, answer_means

# Variance of one score increment, decomposed as the noiseless part plus the
# noise contribution: Var(W_t) = (13/180)/r^2 + Var(noise)/3, obtained by
# integrating the score gap over p ~ U[0,1], Bernoulli tables, and centered
# noise. The Chernoff exponent k*mu^2/(2*Var) with signal mu = 1/(6r) then
# needs k >= 72*Var*r^2*ln(support/(blocks*beta)).
_NOISELESS_GAP_VARIANCE = 13.0 / 180.0
# elements any one array of a run may hold, sized from its params
_SUPPORT_ELEMENT_LIMIT = 20_000_000


def check_elements(what: str, count: int) -> None:
    """Raise ``what`` and the limit if ``count`` elements exceed it."""
    if count > _SUPPORT_ELEMENT_LIMIT:
        raise ValueError(f"{what}, above the limit of {_SUPPORT_ELEMENT_LIMIT}")


def _ceil(x: float) -> int:
    return math.ceil(x - 1e-9)


def instance_shape(eps: float, gamma: float) -> tuple[int, int, int]:
    """Blocks r, population N, and support size m of the hard instance, the
    block instance's too (eps = 1). The one rule for eps and gamma: each in
    (0, 1], with 1/eps**2 and 1/(eps * gamma) finite floats."""
    if not (0.0 < eps <= 1.0 and eps**2 > 0.0 and 1.0 / eps**2 < math.inf):
        raise ValueError(f"eps must lie in (0, 1], with 1/eps**2 a finite float; got {eps}")
    if not (0.0 < gamma <= 1.0 and eps * gamma > 0.0 and 1.0 / (eps * gamma) < math.inf):
        raise ValueError(f"gamma must lie in (0, 1], with 1/gamma and 1/(eps * gamma) finite floats; got {gamma}")
    r = max(1, round(1.0 / eps))
    population = max(_ceil(1.0 / eps**2), _ceil(1.0 / (eps * gamma)))
    population = r * _ceil(population / r)
    return r, population, population // r


class HardInstance:
    """Correlated population where one hidden slot determines the sample.

    The domain has r blocks of m slots, and element (block i, slot j) has
    id ``i * m + j``. Support sample j consists of the slot-j element of
    every block, each n/r times, held as r ids and their counts; the
    sampling distribution is uniform over the m slots.
    """

    def __init__(self, eps: float, gamma: float, n: int):
        r, _, m = instance_shape(eps, gamma)
        if n < r:
            raise ValueError(f"sample size {n} must be at least the block count {r}")
        if n % r != 0:
            raise ValueError(f"sample size {n} must be a multiple of the block count {r}")
        check_sample_size(n)
        self.n = int(n)
        self.num_blocks = r
        self.support_size = m
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
        return Sample.from_counts(self.slot_elements(slot), np.full(self.num_blocks, self.n // self.num_blocks))

    def slot_query(self, slot: int) -> Query:
        """Indicator of one slot's element in every block."""
        return Query.from_arrays(0.0, self.slot_elements(slot), np.ones(self.num_blocks))

    @property
    def distribution(self) -> FiniteDistribution:
        """Explicit uniform support; built lazily, large instances stay cheap."""
        if self._distribution is None:
            self.check_support()
            m = self.support_size
            self._distribution = FiniteDistribution(
                [self.make_sample(j) for j in range(m)], np.full(m, 1.0 / m)
            )
        return self._distribution

    def check_support(self) -> None:
        m, r = self.support_size, self.num_blocks
        check_elements(f"hard instance support holds m * r = {m} * {r} elements", m * r)


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
    """Zero scores for ``info_round`` calls. ``k`` is the round budget the
    caller means to spend: it is checked to be non-negative and not stored,
    so nothing stops a caller at k rounds."""
    if k < 0:
        raise ValueError("round budget must be non-negative")
    return AttackState(
        scores=np.zeros(inst.support_size, dtype=np.float64),
        rng_p=rng_p,
        rng_table=rng_table,
    )


def make_info_query(table: np.ndarray) -> Query:
    """Query holding a 0/1 table on the first block and 0 elsewhere."""
    slots = table.nonzero()[0]
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

    Both equal ``empirical_mean``'s and ``true_mean``'s bit for bit (one
    ``mean_under`` call for all rows). The mechanism must hold an instance
    sample, and ``inst.distribution`` if it reads one: the layout gives the means.
    """
    if mech.distribution is not None and mech.distribution is not inst.distribution:
        raise ValueError("mechanism distribution must be the instance's own")
    # an info query is the table on block one and 0 elsewhere, and the sample
    # holds one block-one id, its slot, n/r times: each mean is exactly (n/r or 0)/n
    sample = mech.sample
    emp = tables[:, sample.ids[0]] * sample.counts[0] / len(sample)
    if mech.distribution is None:
        return emp, None
    # support sample j holds slot j of block one n/r times, a mean of (n/r)/n = 1/r
    return emp, mean_under(mech.distribution.probabilities, tables / inst.num_blocks)


def info_round(state: AttackState, inst: HardInstance, mech: MechanismState) -> AttackState:
    """One info round: random table on block one, then a score update.

    The per-slot increment is (answer - p/r) * (table[slot] - p); its mean
    is 1/(6r) on the hidden slot and 0 elsewhere. With p = 0 the table is
    all zeros and every increment vanishes.
    """
    ps, tables = draw_info_tables(inst, state.rng_p, state.rng_table, 1)
    p, table = float(ps[0]), tables[0].astype(np.float64)
    query = make_info_query(table)
    observed = answer(mech, query)
    increments = (observed - p / inst.num_blocks) * (table - p)
    state.scores += increments
    state.last_increments = increments
    state.rounds.append((query, observed))
    return state


@dataclass(frozen=True)
class ScoreAttackResult:
    """One score attack's outcome. ``transcript``, the k info queries and the
    closing query with their answers, is built from the kept tables and
    answers when first read."""

    true_index: int
    guess_index: int
    success: bool
    final_answer: float
    final_deviation: float
    sample_deviation: float
    _inst: HardInstance = field(repr=False, compare=False)
    _tables: np.ndarray = field(repr=False, compare=False)
    _answers: np.ndarray = field(repr=False, compare=False)
    _mechanism: str = field(repr=False, compare=False)

    @cached_property
    def transcript(self) -> Transcript:
        rounds = [(make_info_query(table), a) for table, a in zip(self._tables, self._answers.tolist())]
        rounds.append((self._inst.slot_query(self.guess_index), self.final_answer))
        return Transcript(tuple(rounds), mechanism=self._mechanism)


def _hidden_slot(inst: HardInstance, sample: Sample) -> int:
    ids, m = sample.ids, inst.support_size
    slots = ids % m
    if ids[0] >= m or np.count_nonzero(slots != slots[0]) or ids[-1] >= inst.num_blocks * m:
        raise ValueError("mechanism sample holds no single slot of the instance")
    return int(slots[0])


def _score_sums(increments: np.ndarray, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``info_round``'s running score sums after all k rounds, bit for bit
    (for m >= 2; see below), from the 0/1 tables as a (k, m) float array,
    which this overwrites; ``weights`` holds each round's ``answer - p / r``."""
    # info_round's (answer - p/r) * (table - p), factors swapped, which
    # keeps each product's bits; tables already cast to floats, worked on
    # in place, skip numpy's slower mixed bool-float loop and a temporary
    increments -= p[:, None]
    increments *= weights[:, None]
    # numpy sums axis 0 of a C-contiguous (k, m) array with m >= 2 by adding
    # row after row into zeros, which is info_round's += bit for bit, signed
    # zeros included. With m = 1 numpy sums pairwise, but then argmax is 0
    # whatever the one score is.
    return increments.sum(axis=0)


def run_score_attack(
    inst: HardInstance,
    mech: MechanismState,
    k: int,
    rng_p: np.random.Generator,
    rng_table: np.random.Generator,
) -> ScoreAttackResult:
    """Full attack: k info rounds, then the identifying final query.

    The attacker side sees only its own queries and the answers; the held
    sample is read here only to score the run. Reports both the noisy final
    deviation |answer - true mean| and the de-noised sample deviation
    |empirical mean - true mean|. A mechanism that reads a distribution
    must hold ``inst.distribution`` (see ``info_query_means``).

    Info queries never read answers, and a Generator's draw of N values
    equals N single draws, so the k tables are drawn as one (k, m) array and
    answered in one batch: the queries, answers, streams and mechanism state
    are those of k ``info_round`` calls and one ``answer`` of the closing
    query.

    The guess is the argmax of the scores S_j that ``info_round`` adds row
    by row from zeros, found from one matrix-vector product and certified.
    With weights w_t = answer_t - p_t / r as computed, round t adds
    fl(fl(table_tj - p_t) * w_t) to S_j: the exact a_tj = w_t (table_tj - p_t)
    within two roundings, and |a_tj| <= |w_t| since 0 <= p_t <= 1. The k - 1
    additions round once more each, so S_j lies within e(k + 1) * sum|w| of
    A_j = sum_t a_tj, where e(n) = n u / (1 - n u) and u = 2**-53. A_j is
    B_j - C, with B_j = sum_t w_t table_tj and C = sum_t w_t p_t the same
    for every slot. ``w @ tables`` sums B_j's exact products; a dot product
    of length k in any order, with or without FMA, lies within e(k) * sum|w|
    of B_j. So if the top slot g of the product beats every other slot j by
    more than 4 e(k + 1) * sum|w|, then S_g > S_j for every j: g is the
    running sum's argmax, and no tie can arise. The bound used,
    8 (k + 2) u * sum|w|, exceeds that by more than the roundings of
    computing sum|w|, the bound and the top value minus the bound; a further
    (k + 2) * 2**-1074 covers products that underflow, which err by up to
    2**-1075 each, absolutely rather than relatively. When another slot lies
    within the bound of the top value (ties, as in a noiseless run of few
    rounds), the running sums are computed (``_score_sums``) and their argmax
    taken, ties to the smallest slot.
    """
    if k < 1:
        raise ValueError("score attack needs at least one info round")
    if mech.sample is None:
        raise ValueError("mechanism must hold a sample drawn from the instance")
    true_index = _hidden_slot(inst, mech.sample)
    p, tables = draw_info_tables(inst, rng_p, rng_table, k)
    emp, tru = info_query_means(inst, mech, tables)
    answers = answer_batch(mech, emp, tru)
    weights = answers - p / inst.num_blocks
    increments = tables.astype(np.float64)
    approx = weights @ increments
    guess_index = int(approx.argmax())
    bound = 8 * (k + 2) * 2.0**-53 * np.abs(weights).sum() + (k + 2) * 2.0**-1074
    if np.count_nonzero(approx >= approx[guess_index] - bound) > 1:
        guess_index = int(_score_sums(increments, p, weights).argmax())
    # every element sits at true_index (_hidden_slot), so the closing
    # indicator counts all n elements or none
    close_emp = 1.0 if guess_index == true_index else 0.0
    close_tru = None if tru is None else float(mech.distribution.probabilities[guess_index])
    final_answer = answer_means(mech, close_emp, close_tru)
    target = inst.final_true_mean
    return ScoreAttackResult(
        true_index=true_index,
        guess_index=guess_index,
        success=guess_index == true_index,
        final_answer=final_answer,
        final_deviation=abs(final_answer - target),
        sample_deviation=abs(close_emp - target),
        _inst=inst,
        _tables=tables,
        _answers=answers,
        _mechanism=mech.kind.name,
    )


# InfoRoundAnalyst draws this many rounds' tables in one draw_info_tables call
_INFO_BLOCK_ROUNDS = 16


class InfoRoundAnalyst:
    """Analyst issuing only the attack's oblivious info queries.

    Never reads answers, so two instances built from identically seeded
    generators produce identical query sequences: the per-round
    counterpart of ``draw_info_tables``, for ``run_interaction``.

    The analyst owns its two generators; nothing else may draw from them.
    It draws ``_INFO_BLOCK_ROUNDS`` rounds' tables in one call whenever the
    last block is used up, so it may have drawn up to 15 rounds ahead of the
    query it returns. A Generator's draw of N values equals N single draws,
    so the queries are the ones per-round draws give.
    """

    def __init__(
        self, inst: HardInstance, rng_p: np.random.Generator, rng_table: np.random.Generator
    ):
        self.inst = inst
        self.rng_p = rng_p
        self.rng_table = rng_table
        self._tables = iter(())

    def next_query(self, rounds) -> Query:
        table = next(self._tables, None)
        if table is None:
            _, tables = draw_info_tables(self.inst, self.rng_p, self.rng_table, _INFO_BLOCK_ROUNDS)
            self._tables = iter(tables)
            table = next(self._tables)
        return make_info_query(table)


class FixedQueryAnalyst:
    """Replays a fixed query list, whatever the answers."""

    def __init__(self, queries):
        self.queries = tuple(queries)

    def next_query(self, rounds) -> Query:
        return self.queries[len(rounds)]


# --- disjoint-block attack ---------------------------------------------------


def simple_attack_rounds(gamma: float) -> int:
    """Queries the block-scan attack needs: one per candidate block."""
    return instance_shape(1.0, gamma)[2]


class BlockInstance(HardInstance):
    """The hard instance with one block (eps = 1): 1/gamma candidate samples,
    candidate i holding slot i's element n times, one drawn uniformly."""

    def __init__(self, gamma: float, n: int):
        super().__init__(1.0, gamma, n)
        self.num_candidates = self.support_size
        # a trial builds one answer per block
        check_elements(f"block instance of gamma {gamma} holds {self.num_candidates} blocks", self.num_candidates)

    def query_for_block(self, block: int) -> Query:
        return self.slot_query(block)


def build_block_instance(gamma: float, n: int) -> BlockInstance:
    return BlockInstance(gamma, n)


@dataclass(frozen=True)
class SimpleAttackResult:
    worst_deviation: float
    breaking_query_index: int
    deviations: tuple[float, ...]


def scan_blocks(inst: BlockInstance, mech: MechanismState) -> SimpleAttackResult:
    """Probe every candidate block of ``inst`` with its indicator query, all
    answered in one ``answer_batch``, as one ``answer`` per block in order
    would be.

    It attacks the real mechanism, which answers from the sample alone: the
    sample must be drawn from ``inst``, and a mechanism that reads a
    distribution is refused before any answer. Returns the worst
    |answer - true mean| over the 1/gamma queries and the held block. No
    query is built: the layout gives each empirical mean as
    ``empirical_mean`` would, n/n or 0/n, where the held sample is one id n
    times (``_hidden_slot`` finds its slot), and every true mean is 1/r.
    """
    if "distribution" in mech.kind.reads:
        raise ValueError(f"the block attack answers from the sample alone; a {mech.kind.name} mechanism reads a distribution")
    held = _hidden_slot(inst, mech.sample)
    emp = (np.arange(inst.num_candidates) == held) * 1.0
    deviations = np.abs(answer_batch(mech, emp, None) - inst.final_true_mean)
    return SimpleAttackResult(float(deviations.max()), held, tuple(deviations.tolist()))


def run_simple_attack(gamma: float, n: int, mech: MechanismState) -> SimpleAttackResult:
    """``scan_blocks`` on ``build_block_instance(gamma, n)``; a caller that
    holds the instance passes it to ``scan_blocks`` instead."""
    return scan_blocks(build_block_instance(gamma, n), mech)


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
