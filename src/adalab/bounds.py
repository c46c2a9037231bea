"""Closed-form calculators and diagnostics for mechanism accuracy.

The positive side bounds the accuracy of the real mechanism by comparing
it to the oracle: per-query output laws of the unswitched hybrid and the
oracle differ by a bounded log ratio, the ratios compose over k rounds into
``composed_epsilon``, and the oracle itself fails only through noise tails
(``noise_escape_mass``) or concentration failures (k * gamma), and
``run_llr_experiment`` samples the composed ratio over a fixed query list,
in round-major blocks of ``mechanisms._BLOCK_VALUES`` uniform doubles at
most (125 KiB per float64 temporary, under glibc's 128 KiB mmap threshold).
The negative side turns the attack analyses into round-count thresholds,
and ``gap_row`` puts both sides at one eps in one row.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .attack import FixedQueryAnalyst, calibrated_attack_constant, check_elements, instance_shape, simple_attack_rounds
from .core import FiniteDistribution, Query, Sample, Transcript, empirical_mean, true_mean
from .mechanisms import (
    MechanismKind,
    MechanismState,
    NoiseSpec,
    _BLOCK_VALUES,
    laplace_grid_indices,
    laplace_uniforms,
    output_distribution,
    perturbed_mean,
)

logger = logging.getLogger(__name__)

# shares of beta for rho, noise escape mass, k * gamma and composed divergence
_BUDGET = (0.25, 0.25, 0.25, 0.25)
_MAX_ROUNDS = 10**12


def composed_epsilon(k: int, eps: float, b: float, rho: float) -> float:
    """Divergence bound after k rounds of per-round log ratio at most eps/b.

    sqrt(2k ln(1/rho)) * (eps/b) + k * (eps/b) * (e^(eps/b) - 1); the first
    term is the martingale fluctuation at confidence rho, the second the
    accumulated per-round mean.
    """
    if k < 0:
        raise ValueError("round count must be non-negative")
    if eps < 0 or b <= 0:
        raise ValueError("need eps >= 0 and b > 0")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    ratio = eps / b
    try:
        growth = math.expm1(ratio)
    except OverflowError:
        growth = math.inf
    bound = math.sqrt(2.0 * k * math.log(1.0 / rho)) * ratio + k * ratio * growth
    if not math.isfinite(bound):
        raise ValueError(f"composed bound overflows a float at eps/b = {ratio:g} (eps {eps}, b {b})")
    return bound


def noise_escape_mass(k: int, alpha: float, b: float) -> float:
    """Chance that any of k Laplace draws at scale b exceeds alpha in size.

    1 - (1 - e^(-alpha/b))^k, from the unclipped Laplace tail.
    """
    if k < 0:
        raise ValueError("round count must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if b < 0:
        raise ValueError("scale must be non-negative")
    if k == 0 or b == 0.0:
        return 0.0
    if alpha == 0.0:
        return 1.0
    return -math.expm1(k * math.log1p(-math.exp(-alpha / b)))


@dataclass(frozen=True)
class AccuracyParams:
    """Inputs to the transferred accuracy bound for the real mechanism."""

    eps: float
    gamma: float
    alpha: float
    beta: float
    rho: float
    b: float
    k: int


def accuracy_lower_bound(params: AccuracyParams) -> float:
    """Transferred accuracy: e^(-composed) * (1 - k*gamma - escape - rho).

    At k = 0 the interaction is empty and trivially accurate, so the bound
    is 1 (no composition slack is charged).
    """
    if params.k == 0:
        return 1.0
    star = composed_epsilon(params.k, params.eps, params.b, params.rho)
    escape = noise_escape_mass(params.k, params.alpha, params.b)
    inner = 1.0 - params.k * params.gamma - escape - params.rho
    return max(0.0, math.exp(-star) * inner)


def accuracy_noise_scale(alpha: float, eps: float) -> float:
    """The positive result's Laplace scale alpha / (2 ln(1/eps))."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha / (2.0 * math.log(1.0 / eps))


def _budget_feasible(k: int, eps: float, gamma: float, alpha: float, beta: float, b: float) -> bool:
    rho = beta * _BUDGET[0]
    if k * gamma > beta * _BUDGET[2]:
        return False
    if noise_escape_mass(k, alpha, b) > beta * _BUDGET[1]:
        return False
    return composed_epsilon(k, eps, b, rho) <= beta * _BUDGET[3]


def max_accurate_rounds(eps: float, gamma: float, alpha: float, beta: float) -> int:
    """Largest k the accuracy bound certifies at failure level beta.

    Uses b = alpha / (2 ln(1/eps)) and requires each failure term (rho,
    escape mass, k*gamma, composed divergence) to stay within its share of
    beta, 1/4 each. Every term grows with k, so the largest feasible k is
    found by bracket-and-bisect. Returns 0 with a diagnostic when even one
    round is infeasible.
    """
    if not (0.0 < eps < alpha):
        raise ValueError("need 0 < eps < alpha")
    if not (0.0 < gamma < 1.0) or not (0.0 < beta < 1.0) or not (0.0 < alpha <= 1.0):
        raise ValueError("gamma, beta in (0, 1) and alpha in (0, 1] required")
    b = accuracy_noise_scale(alpha, eps)
    if not _budget_feasible(1, eps, gamma, alpha, beta, b):
        rho = beta * _BUDGET[0]
        logger.info(
            "no accurate round budget at eps=%g alpha=%g beta=%g: "
            "one round already gives composed divergence %.3g (cap %.3g), "
            "escape mass %.3g (cap %.3g), gamma mass %.3g (cap %.3g)",
            eps, alpha, beta,
            composed_epsilon(1, eps, b, rho), beta * _BUDGET[3],
            noise_escape_mass(1, alpha, b), beta * _BUDGET[1],
            gamma, beta * _BUDGET[2],
        )
        return 0
    lo, hi = 1, 2
    while hi <= _MAX_ROUNDS and _budget_feasible(hi, eps, gamma, alpha, beta, b):
        lo, hi = hi, hi * 2
    if hi > _MAX_ROUNDS:
        return _MAX_ROUNDS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _budget_feasible(mid, eps, gamma, alpha, beta, b):
            lo = mid
        else:
            hi = mid
    return lo


def max_accurate_rounds_details(eps: float, gamma: float, alpha: float, beta: float) -> dict:
    """The search result plus the terms it balanced, for reports."""
    k = max_accurate_rounds(eps, gamma, alpha, beta)
    b = accuracy_noise_scale(alpha, eps)
    rho = beta * _BUDGET[0]
    params = AccuracyParams(eps=eps, gamma=gamma, alpha=alpha, beta=beta, rho=rho, b=b, k=k)
    return {
        "k": k,
        "b": b,
        "rho": rho,
        "budget": list(_BUDGET),
        "composed_epsilon": composed_epsilon(k, eps, b, rho) if k else 0.0,
        "noise_escape_mass": noise_escape_mass(k, alpha, b),
        "gamma_mass": k * gamma,
        "accuracy_lower_bound": accuracy_lower_bound(params),
    }


def score_attack_rounds(eps: float, gamma: float, beta: float, constant: float) -> int:
    """Rounds after which the score attack identifies with chance >= 1 - beta.

    ceil(constant * r^2 * ln(support * r / (r * beta))) on the hard-instance
    shape at (eps, gamma).
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if not 0.0 < constant < math.inf:
        raise ValueError(f"constant must be positive and finite, got {constant}")
    r, population, _ = instance_shape(eps, gamma)
    rounds = constant * r * r * math.log(population / (r * beta))
    if not rounds < math.inf:
        raise ValueError(f"score attack rounds overflow a float at beta {beta} (eps {eps}, gamma {gamma})")
    return math.ceil(rounds)


def breaking_rounds(
    eps: float, gamma: float, beta: float, constant: float | None = None
) -> int:
    """Round threshold at which some concentrated-query attack breaks accuracy.

    The cheaper of the block-scan attack (1/gamma queries, noise-free
    analysis) and the score attack. When no constant is supplied the score
    attack is costed at its noiseless calibration, the floor over noise
    scales; pass a mechanism-calibrated constant for a specific target.
    """
    return breaking_rounds_details(eps, gamma, beta, constant)["breaking_rounds"]


def breaking_rounds_details(
    eps: float, gamma: float, beta: float, constant: float | None = None
) -> dict:
    """The instance shape, both attacks' round counts and the cheaper one."""
    r, population, support = instance_shape(eps, gamma)
    if constant is None:
        constant = calibrated_attack_constant(r, noise_variance=0.0)
    scan = simple_attack_rounds(gamma)
    score = score_attack_rounds(eps, gamma, beta, constant)
    return {
        "blocks": r,
        "population": population,
        "support": support,
        "constant": constant,
        "simple_attack_rounds": scan,
        "score_attack_rounds": score,
        "breaking_rounds": min(scan, score),
        "winner": "simple" if scan <= score else "score",
    }


def gap_row(eps: float, gamma: float, alpha: float, beta: float) -> dict:
    """Both sides of the gap at eps: ``max_accurate_rounds_details``,
    ``breaking_rounds_details`` at the noiseless calibration, and
    ``breaking_rounds_matched``, the attack costed at the certified noise
    (Laplace variance 2 b^2), with the certified share of it. The breaking
    side goes first, so an input the hard instance refuses fails with its error."""
    breaking = breaking_rounds_details(eps, gamma, beta)
    certified = max_accurate_rounds_details(eps, gamma, alpha, beta)
    b = certified["b"]
    matched = breaking_rounds(eps, gamma, beta, calibrated_attack_constant(breaking["blocks"], 2.0 * b * b))
    fraction = certified["k"] / matched
    return {"eps": eps, **certified, **breaking, "breaking_rounds_matched": matched, "certified_fraction": fraction}


# --- transcript predicates -----------------------------------------------------


def transcript_accurate(transcript: Transcript, dist: FiniteDistribution, alpha: float) -> bool:
    """Every answer within alpha of the query's true mean."""
    return all(abs(a - true_mean(q, dist)) <= alpha for q, a in transcript.rounds)


# --- divergence diagnostics ----------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    max_divergence_ab: float
    max_divergence_ba: float
    kl_ab: float
    kl_ba: float


def _divergences(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    live = p > 0.0
    if np.any(live & (q == 0.0)):
        return math.inf, math.inf
    log_ratio = np.log(p[live] / q[live])
    return float(np.max(log_ratio)), float(np.sum(p[live] * log_ratio))


def divergence_diagnostics(
    mech_a: MechanismState, mech_b: MechanismState, query: Query
) -> DivergenceReport:
    """Exact divergences between two mechanisms' one-query output laws.

    Both mechanisms must share the same output grid. Per-answer
    probabilities come from the analytic noise CDF over each grid bin;
    support mismatches (one side gives an answer zero probability) report
    infinite divergence.
    """
    if mech_a.noise.grid_step != mech_b.noise.grid_step:
        raise ValueError("mechanisms must share one output grid")
    p = output_distribution(mech_a.noise, perturbed_mean(mech_a, query))
    q = output_distribution(mech_b.noise, perturbed_mean(mech_b, query))
    (max_ab, kl_ab), (max_ba, kl_ba) = _divergences(p, q), _divergences(q, p)
    return DivergenceReport(max_divergence_ab=max_ab, max_divergence_ba=max_ba, kl_ab=kl_ab, kl_ba=kl_ba)


# --- composed log-likelihood-ratio experiment -----------------------------------


@dataclass(frozen=True)
class LlrReport:
    threshold: float
    frac_exceed_hybrid: float
    frac_exceed_oracle: float
    trials: int
    k: int


def check_llr_draw(trials: int, k: int) -> None:
    """At most the element limit of values per LLR direction, read in
    blocks: a bound on run length and on ``harness._run_llr``'s k queries."""
    check_elements(f"llr experiment draws trials * k = {trials} * {k} noise values per direction", trials * k)


def _block_llrs(noise: NoiseSpec, means: np.ndarray, terms: np.ndarray, term_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The log ratio of each transcript of a block, summed in round order.

    ``u`` is the block's (k, transcripts) view of uniform doubles, round r
    of every transcript in row r; ``means`` holds each round's drawn mean
    and ``term_rows`` its row of ``terms``, C-contiguous rows of n_bins + 1
    log ratios by grid index. Round r's offset, ``term_rows[r]`` times
    n_bins + 1, is added to its integer grid indices, so one ``take`` from
    the flattened terms gives a (k, transcripts) C-contiguous array of each
    answer's term.
    """
    indices = laplace_grid_indices(noise, u, means)
    indices += (term_rows * (noise.n_bins + 1))[:, None]
    drawn = terms.ravel().take(indices)
    if drawn.shape[1] == 1 and len(drawn) > 1:
        # numpy would sum a single column pairwise; accumulating adds in order
        return np.add.accumulate(drawn[:, 0])[-1:]
    # numpy reduces axis 0 of a C-contiguous array of two or more columns by
    # adding row after row, each transcript's sum in round order. It starts
    # from round 0 rather than 0.0, which can only give -0.0 for +0.0.
    return np.add.reduce(drawn, axis=0)


def run_llr_experiment(
    analyst: FixedQueryAnalyst,
    sample: Sample,
    dist: FiniteDistribution,
    k: int,
    eps: float,
    noise: NoiseSpec,
    rho: float,
    trials: int,
    seed: int,
    epsilon_switch: float | None = None,
) -> LlrReport:
    """Sample transcripts both ways and compare log ratios to the bound.

    For each transcript the exact log-likelihood ratio between the
    unswitched-hybrid law and the oracle law is the sum over rounds of
    per-answer log ratios; the report gives the fraction exceeding
    ``composed_epsilon(k, eps, b, rho)`` under either sampling direction,
    each of which the bound caps by rho. Requires Laplace noise, a coarse
    grid so bin probabilities are well separated from underflow, and a
    positive switch threshold ``epsilon_switch`` (``eps`` if None).

    The analyst must be a ``FixedQueryAnalyst`` holding at least k queries
    (any other is refused first). Its first k are asked whatever the
    answers, so the switch round (``MechanismKind.sample_rounds``) and each
    round's mean and log-ratio terms are found once. Each block runs
    round-major (``_block_llrs``): its doubles viewed as (k, rows),
    ``mechanisms.laplace_grid_indices`` gives every answer's grid index
    straight from them, one ``take`` gathers every answer's term, and one
    reduction sums each transcript's terms in round order.

    Randomness contract: each direction has its own stream, spawned from
    ``seed``, and reads from it the ``trials * k`` uniform doubles that
    numpy's ``laplace(0.0, scale, trials * k)`` reads, zeros skipped
    (``mechanisms.laplace_uniforms``), transcript-major: transcript t's
    round r reads double ``t * k + r``. It reads them in blocks of about
    ``mechanisms._BLOCK_VALUES``, so its memory stays flat in trials; the
    blocks read the same doubles, zeros skipped alike, as one draw of all of
    them. Its noise values equal that draw's bit for bit, which equals one
    draw of k values per transcript, in transcript order.
    ``trials * k`` may not exceed the element limit (``check_llr_draw``).
    A query's means are computed once per distinct query, cached by its
    value, never by object identity; each round reads one row of log ratios
    per distinct pair of the hybrid's mean and the true mean.
    """
    if not isinstance(analyst, FixedQueryAnalyst):
        raise ValueError(f"log-ratio accounting replays a FixedQueryAnalyst's list; got {type(analyst).__name__}")
    hybrid = MechanismKind.hybrid(eps if epsilon_switch is None else epsilon_switch)
    hybrid.check_noise(noise)
    if noise.n_bins > 64:
        raise ValueError("use a coarse grid (at most 64 bins)")
    if trials < 1:
        raise ValueError("need at least one trial")
    check_llr_draw(trials, k)
    if len(analyst.queries) < k:
        raise ValueError(f"the fixed query list holds {len(analyst.queries)} queries, fewer than k = {k} rounds")
    threshold = composed_epsilon(k, eps, noise.scale, rho)

    @functools.cache
    def log_law(mean: float) -> np.ndarray:
        """Log-probability of each grid value under ``mean``, by grid index;
        -inf where the law puts no mass."""
        with np.errstate(divide="ignore"):
            return np.log(output_distribution(noise, mean))

    @functools.cache
    def means_of(query: Query) -> tuple[float, float]:
        """The query's empirical and true means."""
        return empirical_mean(query, sample), true_mean(query, dist)

    pairs = [means_of(query) for query in analyst.queries[:k]]
    emps, trus = (np.array([means[i] for means in pairs]) for i in range(2))
    switch_round = hybrid.sample_rounds(emps, trus, k)
    # the hybrid's mean of each round
    hybrid_means = np.concatenate((emps[:switch_round], trus[switch_round:]))
    # one row of log laws per distinct (hybrid mean, true mean) pair, and each round's row
    law_rows: dict[tuple[float, float], int] = {}
    keys = ((emp if r < switch_round else tru, tru) for r, (emp, tru) in enumerate(pairs))
    term_rows = np.array([law_rows.setdefault(key, len(law_rows)) for key in keys], dtype=np.intp)
    hybrid_laws, true_laws = (np.array([log_law(key[i]) for key in law_rows]) for i in range(2))

    def one_direction(sample_hybrid: bool, rng: np.random.Generator) -> float:
        block_rows = max(1, _BLOCK_VALUES // max(k, 1))
        exceed = 0
        # inf - inf is nan, as in Python float arithmetic, without a warning
        with np.errstate(invalid="ignore"):
            # each round's drawn mean, and its log ratio by grid index: +inf
            # on a bin the other law never yields
            if sample_hybrid:
                means, terms = hybrid_means, hybrid_laws - true_laws
            else:
                means, terms = trus, true_laws - hybrid_laws
            for start in range(0, trials, block_rows):
                rows = min(block_rows, trials - start)
                uniforms = laplace_uniforms(rng, rows * k).reshape(rows, k).T
                llr = _block_llrs(noise, means, terms, term_rows, uniforms)
                exceed += int(np.count_nonzero(np.greater(llr, threshold)))
        return exceed / trials

    rng_h = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    rng_o = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return LlrReport(
        threshold=threshold,
        frac_exceed_hybrid=one_direction(True, rng_h),
        frac_exceed_oracle=one_direction(False, rng_o),
        trials=trials,
        k=k,
    )
