import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from adalab.bounds import (
    AccuracyParams,
    LlrReport,
    accuracy_lower_bound,
    accuracy_noise_scale,
    breaking_rounds,
    breaking_rounds_details,
    composed_epsilon,
    divergence_diagnostics,
    gap_row,
    max_accurate_rounds,
    max_accurate_rounds_details,
    noise_escape_mass,
    _block_llrs,
    run_llr_experiment,
    score_attack_rounds,
    simple_attack_rounds,
    transcript_accurate,
)
from adalab.attack import FixedQueryAnalyst, calibrated_attack_constant, instance_shape
from adalab.core import FiniteDistribution, Query, Sample, Transcript, empirical_mean, true_mean
from adalab.mechanisms import (
    _BLOCK_VALUES,
    MechanismKind,
    MechanismState,
    NoiseSpec,
    _laplace_from_uniform,
    grid_index,
    laplace_grid_indices,
    laplace_uniforms,
    output_distribution,
    quantize,
    sample_noise,
    switches,
)

IDENTITY = Query(0.0, {1: 1.0})


def two_sample_dist(n, ones):
    zeros = Sample((0,) * n)
    mixed = Sample((1,) * ones + (0,) * (n - ones))
    return zeros, mixed, FiniteDistribution((zeros, mixed), (0.5, 0.5))


class TestComposedEpsilon:
    def test_frozen_landmark(self):
        # eps/b = 0.1, k = 1, rho = e^-2: sqrt(2*2)*0.1 + 0.1*expm1(0.1)
        assert composed_epsilon(1, 0.01, 0.1, math.exp(-2)) == 0.21051709180756475

    def test_zero_rounds_cost_nothing(self):
        assert composed_epsilon(0, 0.5, 0.1, 0.5) == 0.0

    @given(
        k=st.integers(min_value=0, max_value=500),
        extra=st.integers(min_value=1, max_value=500),
        eps=st.floats(min_value=1e-6, max_value=0.5),
        b=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_rounds(self, k, extra, eps, b):
        assert composed_epsilon(k, eps, b, 0.1) <= composed_epsilon(k + extra, eps, b, 0.1)

    @given(
        k=st.integers(min_value=0, max_value=10_000),
        eps=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.01, max_value=10.0),
        rho=st.floats(min_value=1e-12, max_value=0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_advanced_composition(self, k, eps, b, rho):
        # Dwork, Rothblum & Vadhan 2010: k rounds of eps'-DP compose to
        # sqrt(2k ln(1/delta')) eps' + k eps' (e^eps' - 1) at failure delta'
        e = eps / b
        bound = math.sqrt(2 * k * math.log(1 / rho)) * e + k * e * (math.exp(e) - 1)
        assert composed_epsilon(k, eps, b, rho) == pytest.approx(bound, rel=1e-9)

    def test_shrinking_rho_costs_more(self):
        assert composed_epsilon(10, 0.01, 0.1, 0.01) > composed_epsilon(10, 0.01, 0.1, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            composed_epsilon(-1, 0.01, 0.1, 0.5)
        with pytest.raises(ValueError, match="b > 0"):
            composed_epsilon(1, 0.01, 0.0, 0.5)
        with pytest.raises(ValueError, match="rho"):
            composed_epsilon(1, 0.01, 0.1, 1.0)
        # e^(eps/b) overflows, and a finite e^(eps/b) whose bound overflows
        for k, eps in [(4, 1e7), (100, 70.0)]:
            with pytest.raises(ValueError, match="composed bound overflows a float at eps/b"):
                composed_epsilon(k, eps, 0.1, 0.5)


class TestNoiseEscapeMass:
    def test_half_life_landmark(self):
        # alpha = b ln 2 puts exactly half the mass past the window each round
        b = 0.1
        assert noise_escape_mass(1, b * math.log(2), b) == pytest.approx(0.5)
        assert noise_escape_mass(2, b * math.log(2), b) == pytest.approx(0.75)

    def test_degenerate_inputs(self):
        assert noise_escape_mass(0, 0.5, 0.1) == 0.0
        assert noise_escape_mass(5, 0.5, 0.0) == 0.0
        assert noise_escape_mass(3, 0.0, 0.1) == 1.0

    @given(
        k=st.integers(min_value=1, max_value=200),
        alpha=st.floats(min_value=0.01, max_value=2.0),
        b=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_union_bound_dominates(self, k, alpha, b):
        mass = noise_escape_mass(k, alpha, b)
        assert 0.0 <= mass <= 1.0
        assert mass <= min(1.0, k * math.exp(-alpha / b)) + 1e-12
        assert mass >= noise_escape_mass(k - 1, alpha, b) - 1e-15


class TestAccuracyLowerBound:
    def test_no_rounds_is_certain(self):
        p = AccuracyParams(eps=0.01, gamma=1e-6, alpha=0.1, beta=0.1, rho=0.025, b=0.01, k=0)
        assert accuracy_lower_bound(p) == 1.0

    def test_frozen_landmark(self):
        b = accuracy_noise_scale(0.1, 1e-5)
        p = AccuracyParams(eps=1e-5, gamma=1e-6, alpha=0.1, beta=0.1, rho=0.025, b=b, k=15)
        assert accuracy_lower_bound(p) == pytest.approx(0.9515761442256885, abs=1e-12)

    def test_clamped_at_zero(self):
        p = AccuracyParams(eps=0.01, gamma=0.4, alpha=0.1, beta=0.1, rho=0.3, b=0.01, k=2)
        assert accuracy_lower_bound(p) == 0.0

    def test_noise_scale_landmarks(self):
        assert accuracy_noise_scale(0.1, 0.01) == pytest.approx(0.1 / (2 * math.log(100)))
        assert accuracy_noise_scale(0.1, 1e-5) == pytest.approx(0.0043429448190325185)
        with pytest.raises(ValueError, match="eps"):
            accuracy_noise_scale(0.1, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            accuracy_noise_scale(0.0, 0.01)


class TestMaxAccurateRounds:
    def test_frozen_landmarks(self):
        assert max_accurate_rounds(1e-5, 1e-6, 0.1, 0.1) == 15
        assert max_accurate_rounds(0.01, 1e-6, 0.1, 0.1) == 0

    def test_answer_sits_on_the_boundary(self):
        """k passes every budget cap and k + 1 breaks at least one."""
        d = max_accurate_rounds_details(1e-5, 1e-6, 0.1, 0.1)
        k, b, rho = d["k"], d["b"], d["rho"]
        cap = 0.1 * 0.25
        assert d["composed_epsilon"] <= cap
        assert d["noise_escape_mass"] <= cap
        assert d["gamma_mass"] <= cap
        next_terms = (
            composed_epsilon(k + 1, 1e-5, b, rho),
            noise_escape_mass(k + 1, 0.1, b),
            (k + 1) * 1e-6,
        )
        assert any(t > cap for t in next_terms)

    def test_details_report_bound(self):
        d = max_accurate_rounds_details(1e-5, 1e-6, 0.1, 0.1)
        assert d["accuracy_lower_bound"] == pytest.approx(0.9515761442256885, abs=1e-12)
        assert d["budget"] == [0.25, 0.25, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError, match="0 < eps < alpha"):
            max_accurate_rounds(0.2, 1e-6, 0.1, 0.1)


class TestAttackRoundCounts:
    def test_score_rounds_frozen(self):
        assert score_attack_rounds(0.25, 0.01, 0.1, 1.0) == 111
        assert score_attack_rounds(0.25, 0.01, 0.1, 1.61) == 178
        assert score_attack_rounds(0.25, 0.01, 0.1, 1.13) == 125

    def test_score_rounds_by_hand(self):
        # r = 4, population = 400: ceil(C * 16 * ln(400 / (4 * 0.1)))
        assert score_attack_rounds(0.25, 0.01, 0.1, 1.0) == math.ceil(16 * math.log(1000))

    def test_score_rounds_validation(self):
        with pytest.raises(ValueError, match="beta"):
            score_attack_rounds(0.25, 0.01, 1.0, 1.0)
        for constant in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"constant must be positive and finite, got {constant}"):
                score_attack_rounds(0.25, 0.01, 0.1, constant)

    def test_score_rounds_past_a_float_name_beta(self):
        # ln(population / (r * beta)) is inf at a subnormal beta: once ceil(inf), an OverflowError
        with pytest.raises(ValueError, match=re.escape("score attack rounds overflow a float at beta 5e-324")):
            score_attack_rounds(0.25, 0.01, 5e-324, 1.0)

    def test_simple_rounds(self):
        assert simple_attack_rounds(1 / 3) == 3
        assert simple_attack_rounds(0.01) == 100
        assert simple_attack_rounds(1.0) == 1
        with pytest.raises(ValueError):
            simple_attack_rounds(0.0)

    def test_breaking_rounds_frozen(self):
        assert breaking_rounds(0.25, 0.01, 0.1) == 72
        assert breaking_rounds(0.01, 1e-6, 0.1) == 168

    def test_breaking_details(self):
        d = breaking_rounds_details(0.25, 0.01, 0.1)
        assert d["constant"] == pytest.approx(0.65)
        assert d["simple_attack_rounds"] == 100
        assert d["score_attack_rounds"] == 72
        assert d["breaking_rounds"] == 72
        assert d["winner"] == "score"
        assert (d["blocks"], d["population"], d["support"]) == (4, 400, 100)

    def test_simple_attack_wins_when_score_is_expensive(self):
        d = breaking_rounds_details(0.25, 0.01, 0.1, constant=100.0)
        assert d["winner"] == "simple"
        assert d["breaking_rounds"] == 100

    def test_scaling_band(self):
        """Certified rounds track 1 / (eps^2 ln^2(1/eps)) within a constant."""
        ratios = []
        for eps in (1e-5, 3e-6, 1e-6):
            k = max_accurate_rounds(eps, 1e-6, 0.1, 0.1)
            ratios.append(k * eps**2 * math.log(1 / eps) ** 2)
        assert max_accurate_rounds(1e-5, 1e-6, 0.1, 0.1) == 15
        assert max_accurate_rounds(3e-6, 1e-6, 0.1, 0.1) == 144
        assert max_accurate_rounds(1e-6, 1e-6, 0.1, 0.1) == 1102
        assert all(1e-7 <= r <= 4e-7 for r in ratios)
        assert max(ratios) <= 8 * min(ratios)


# README's two bounds commands as (eps values, gamma, alpha, beta); the
# second is acceptance test_11's eps list
README_BOUNDS = (
    ((0.25, 0.1, 0.01), 0.01, 0.9, 0.1),
    ((0.01, 1e-5, 3e-6, 1e-6), 1e-6, 0.1, 0.1),
)


class TestGapRow:
    @pytest.mark.parametrize("eps_values, gamma, alpha, beta", README_BOUNDS)
    def test_row_holds_both_sides_details(self, eps_values, gamma, alpha, beta):
        for eps in eps_values:
            row = gap_row(eps, gamma, alpha, beta)
            certified = max_accurate_rounds_details(eps, gamma, alpha, beta)
            breaking = breaking_rounds_details(eps, gamma, beta)
            assert set(certified).isdisjoint(breaking)
            matched = row["breaking_rounds_matched"]
            assert row == {
                "eps": eps, **certified, **breaking,
                "breaking_rounds_matched": matched, "certified_fraction": certified["k"] / matched,
            }

    def test_matched_rounds_cost_the_attack_at_the_certified_noise(self):
        eps_values, gamma, alpha, beta = README_BOUNDS[1]
        rows = [gap_row(eps, gamma, alpha, beta) for eps in eps_values]
        for eps, row in zip(eps_values, rows):
            # acceptance test_11's inline formula
            scale = accuracy_noise_scale(alpha, eps)
            constant = calibrated_attack_constant(instance_shape(eps, gamma)[0], 2.0 * scale * scale)
            assert row["breaking_rounds_matched"] == breaking_rounds(eps, gamma, beta, constant=constant)
            assert row["k"] < row["breaking_rounds_matched"]
        assert [row["k"] for row in rows] == [0, 15, 144, 1102]
        assert [row["breaking_rounds_matched"] for row in rows] == [1992, 10**6, 10**6, 10**6]
        # the noiseless floor, which the certified rounds pass at eps 1e-6
        assert [row["breaking_rounds"] for row in rows] == [168] * 4


class TestTranscriptPredicates:
    def test_transcript_accurate(self):
        _, _, dist = two_sample_dist(4, 2)

        def wrap(*rounds):
            return Transcript(rounds=rounds, mechanism="real")

        assert transcript_accurate(wrap((IDENTITY, 0.25)), dist, 0.01)
        assert transcript_accurate(wrap((IDENTITY, 0.5)), dist, 0.25)
        assert not transcript_accurate(wrap((IDENTITY, 0.6)), dist, 0.3)
        assert transcript_accurate(wrap(), dist, 0.0)


class TestDivergenceDiagnostics:
    def test_identical_mechanisms_diverge_nowhere(self):
        zeros, mixed, _ = two_sample_dist(4, 2)
        noise = NoiseSpec(scale=0.1, grid_step=0.125)
        a = MechanismState(
            MechanismKind.real(), noise, sample=mixed, real_rng=np.random.default_rng(0)
        )
        b = MechanismState(
            MechanismKind.real(), noise, sample=mixed, real_rng=np.random.default_rng(1)
        )
        rep = divergence_diagnostics(a, b, IDENTITY)
        assert rep.max_divergence_ab == rep.max_divergence_ba == 0.0
        assert rep.kl_ab == rep.kl_ba == 0.0

    def test_laplace_shift_is_exactly_shift_over_scale(self):
        # means 0.5 and 9/16 are a 1/16 shift; with b = 5/32 the ratio is 0.4
        half = Sample((1, 0))
        nine = Sample((1,) * 9 + (0,) * 7)
        noise = NoiseSpec(scale=0.15625, grid_step=0.125)
        a = MechanismState(
            MechanismKind.real(), noise, sample=half, real_rng=np.random.default_rng(0)
        )
        b = MechanismState(
            MechanismKind.real(), noise, sample=nine, real_rng=np.random.default_rng(0)
        )
        rep = divergence_diagnostics(a, b, IDENTITY)
        assert rep.max_divergence_ab == pytest.approx(0.4, abs=1e-12)
        assert rep.max_divergence_ba == pytest.approx(0.4, abs=1e-12)
        assert 0.0 < rep.kl_ab < 0.4
        assert 0.0 < rep.kl_ba < 0.4

    def test_rejects_mismatched_grids(self):
        s = Sample((1, 0))
        a = MechanismState(
            MechanismKind.real(),
            NoiseSpec(scale=0.1, grid_step=0.125),
            sample=s,
            real_rng=np.random.default_rng(0),
        )
        b = MechanismState(
            MechanismKind.real(),
            NoiseSpec(scale=0.1, grid_step=0.25),
            sample=s,
            real_rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="share one output grid"):
            divergence_diagnostics(a, b, IDENTITY)

    def test_hybrid_past_switch_matches_oracle(self):
        zeros, mixed, dist = two_sample_dist(4, 2)
        noise = NoiseSpec(scale=0.1, grid_step=0.125)
        hybrid = MechanismState(
            MechanismKind.hybrid(0.1),
            noise,
            sample=mixed,
            distribution=dist,
            real_rng=np.random.default_rng(0),
            oracle_seed=7,
        )
        oracle = MechanismState(
            MechanismKind.oracle(), noise, distribution=dist, oracle_seed=8
        )
        # identity deviation 0.25 > 0.1, so the hybrid answers from the truth
        rep = divergence_diagnostics(hybrid, oracle, IDENTITY)
        assert rep.max_divergence_ab == 0.0 and rep.kl_ab == 0.0
        lenient = MechanismState(
            MechanismKind.hybrid(0.5),
            noise,
            sample=mixed,
            distribution=dist,
            real_rng=np.random.default_rng(0),
            oracle_seed=7,
        )
        rep2 = divergence_diagnostics(lenient, oracle, IDENTITY)
        assert rep2.max_divergence_ab == pytest.approx(0.25 / 0.1, abs=1e-9)


class TestLlrExperiment:
    def make_args(self, **over):
        zeros, mixed, dist = two_sample_dist(8, 1)
        args = dict(
            analyst=FixedQueryAnalyst([IDENTITY] * 4),
            sample=mixed,
            dist=dist,
            k=4,
            eps=0.0625,
            noise=NoiseSpec(scale=0.3125, grid_step=2**-5),
            rho=0.05,
            trials=200,
            seed=99,
        )
        args.update(over)
        return args

    def test_validation(self, monkeypatch):
        from adalab.attack import InfoRoundAnalyst, build_hard_instance

        inst = build_hard_instance(0.25, 0.01, 16)
        roving = InfoRoundAnalyst(inst, np.random.default_rng(0), np.random.default_rng(1))
        # refused first: before the other checks, any law is computed or any double drawn
        with monkeypatch.context() as patched:
            for name in ("output_distribution", "laplace_uniforms"):
                patched.setattr(f"adalab.bounds.{name}", lambda *args: pytest.fail(f"{name} called"))
            with pytest.raises(ValueError, match="replays a FixedQueryAnalyst's list; got InfoRoundAnalyst"):
                run_llr_experiment(**self.make_args(analyst=roving, trials=0))
        with pytest.raises(ValueError, match="Laplace"):
            run_llr_experiment(
                **self.make_args(noise=NoiseSpec("gaussian", 0.3125, grid_step=2**-5))
            )
        with pytest.raises(ValueError, match="64 bins"):
            run_llr_experiment(**self.make_args(noise=NoiseSpec(scale=0.3125)))
        with pytest.raises(ValueError, match="at least one trial"):
            run_llr_experiment(**self.make_args(trials=0))
        # before the fixed list's length is read, any law is computed or anything is drawn
        with pytest.raises(ValueError, match=r"trials \* k = 1000000 \* 21 noise values .* limit of 20000000"):
            run_llr_experiment(**self.make_args(trials=10**6, k=21))

    def test_bound_holds_on_small_instance(self):
        args = self.make_args()
        rep = run_llr_experiment(**args)
        assert rep.k == 4 and rep.trials == 200
        assert rep.threshold == composed_epsilon(4, 0.0625, 0.3125, 0.05)
        assert 0.0 <= rep.frac_exceed_hybrid <= 0.1
        assert 0.0 <= rep.frac_exceed_oracle <= 0.1

    def test_fresh_query_objects_match_interned_ones(self, monkeypatch):
        # The laws are cached by the query's value, never by id(): a list of
        # fresh equal-valued objects computes the one law pair that a list
        # of one object repeated does, and gives the same report.
        import adalab.bounds

        laws = []
        law = adalab.bounds.output_distribution
        monkeypatch.setattr(adalab.bounds, "output_distribution", lambda noise, mean: laws.append(mean) or law(noise, mean))
        _, mixed, dist = two_sample_dist(8, 4)
        # a switch threshold no query trips keeps every round's log ratio live
        common = dict(sample=mixed, dist=dist, k=10, eps=0.0625, rho=0.05, epsilon_switch=1.0)
        common.update(noise=NoiseSpec(scale=0.15625, grid_step=2**-5), trials=300, seed=7)
        fresh = run_llr_experiment(FixedQueryAnalyst([Query(0.0, {1: 1.0}) for _ in range(10)]), **common)
        assert laws == [0.5, 0.25]  # the empirical and the true mean's laws, once each
        interned = run_llr_experiment(FixedQueryAnalyst([Query(0.0, {1: 1.0})] * 10), **common)
        assert laws == [0.5, 0.25] * 2
        assert interned.frac_exceed_hybrid > 0.0
        assert fresh == interned

    def test_far_tail_ratio_is_finite(self):
        # A mean gap of 50 noise scales puts the hybrid's answers where the
        # oracle law's CDF rounds to 1; the exact ratio there is finite,
        # about 50 per round, so every transcript exceeds the threshold.
        _, mixed, dist = two_sample_dist(4, 4)
        rep = run_llr_experiment(
            analyst=FixedQueryAnalyst([IDENTITY] * 2),
            sample=mixed,
            dist=dist,
            k=2,
            eps=0.01,
            noise=NoiseSpec(scale=0.01, grid_step=0.03125),
            rho=0.05,
            trials=20,
            seed=1,
            epsilon_switch=0.6,
        )
        assert rep.threshold == 6.898200422122661
        assert rep.frac_exceed_hybrid == rep.frac_exceed_oracle == 1.0

    def test_zero_gap_never_exceeds(self):
        s = Sample((1, 0, 1, 0))
        dist = FiniteDistribution((s,), (1.0,))
        rep = run_llr_experiment(
            analyst=FixedQueryAnalyst([IDENTITY] * 3),
            sample=s,
            dist=dist,
            k=3,
            eps=0.0625,
            noise=NoiseSpec(scale=0.3125, grid_step=2**-5),
            rho=0.05,
            trials=50,
            seed=5,
        )
        assert rep.frac_exceed_hybrid == 0.0
        assert rep.frac_exceed_oracle == 0.0


def reference_llr(analyst, sample, dist, k, eps, noise, rho, trials, seed, epsilon_switch=None):
    """The per-round LLR loop as it stood before the per-transcript draw:
    one noise draw, one quantize and one grid index recomputed from the
    answer per round, each transcript's queries asked of the analyst."""
    switch_at = eps if epsilon_switch is None else epsilon_switch
    threshold = composed_epsilon(k, eps, noise.scale, rho)

    @functools.cache
    def means_for(query):
        return empirical_mean(query, sample), true_mean(query, dist)

    @functools.cache
    def log_law(mean):
        with np.errstate(divide="ignore"):
            return np.log(output_distribution(noise, mean)).tolist()

    clip_lo = noise.clip_lo

    def one_direction(sample_hybrid, rng):
        exceed = 0
        for _ in range(trials):
            rounds = []
            switched = False
            llr = 0.0
            for _ in range(k):
                query = analyst.next_query(tuple(rounds))
                emp, tru = means_for(query)
                switched = switched or switches(emp, tru, switch_at)
                mean_h = tru if switched else emp
                drawn_mean = mean_h if sample_hybrid else tru
                observed = quantize(noise, drawn_mean + sample_noise(noise, rng))
                index = round((observed - clip_lo) / noise.grid_step)
                log_h = log_law(mean_h)[index]
                log_o = log_law(tru)[index]
                llr += log_h - log_o if sample_hybrid else log_o - log_h
                rounds.append((query, observed))
            if llr > threshold:
                exceed += 1
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


# Query weights on element 1 of the mixed lists, round after round. With half
# the sample on element 1 and a support of it and all zeros, a query of
# weight w has emp - tru = w / 4: 1/32, 1/16 and 1/4. So at eps = 0.01 an
# epsilon_switch of None trips on the first query, 0.1 only on weight 1 (a
# mixed list's third round) and 0.5 never.
WEIGHTS = (0.125, 0.25, 1.0)


class TestGridIndex:
    @given(
        bins=st.integers(1, 2**21),
        rel=st.floats(-5e-10, 5e-10),
        value=st.one_of(st.floats(-1.0, 2.0), st.floats(allow_nan=False)),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_index_is_the_index_of_the_quantized_value(self, bins, rel, value):
        try:
            spec = NoiseSpec(scale=0.1, grid_step=2.0 / bins * (1.0 + rel))
        except ValueError:
            reject()
        index = grid_index(spec, value)
        assert round((quantize(spec, value) - spec.clip_lo) / spec.grid_step) == index
        assert 0 <= index <= spec.n_bins


def fixed_list(name, k):
    """``k`` queries of element 1: weight 0.25 each round ("single"), or
    weights 0.125, 0.25 and 1.0 in turn ("mixed")."""
    if name == "single":
        return [Query(0.0, {1: 0.25})] * k
    return [Query(0.0, {1: WEIGHTS[r % 3]}) for r in range(k)]


class TestLlrFixedQueries:
    # The low threshold (rho 0.5) makes both exceed fractions land strictly
    # between 0 and 1 when a transcript runs unswitched for a while.
    COMMON = dict(eps=0.01, rho=0.5, noise=NoiseSpec(scale=0.15625, grid_step=0.125), seed=23)

    def run_both(self, name, k, trials, epsilon_switch):
        _, mixed, dist = two_sample_dist(8, 4)
        args = dict(sample=mixed, dist=dist, k=k, trials=trials, epsilon_switch=epsilon_switch, **self.COMMON)
        return (
            run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list(name, k)), **args),
            reference_llr(analyst=FixedQueryAnalyst(fixed_list(name, k)), **args),
        )

    @pytest.mark.parametrize("k", [0, 1, 20])
    # at k 20, a row short of the first block's edge, on it and one row past it
    @pytest.mark.parametrize("trials", [1, 7, 300, *(_BLOCK_VALUES // 20 + edge for edge in (-1, 0, 1))])
    @pytest.mark.parametrize("epsilon_switch", [None, 0.1, 0.5])
    @pytest.mark.parametrize("name", ["single", "mixed"])
    def test_matches_reference_bit_for_bit(self, name, epsilon_switch, trials, k):
        fixed, reference = self.run_both(name, k, trials, epsilon_switch)
        assert fixed == reference
        assert type(fixed.frac_exceed_hybrid) is float and type(fixed.frac_exceed_oracle) is float

    @pytest.mark.parametrize("grid_step", [2**-5, 0.1])
    @pytest.mark.parametrize("epsilon_switch", [None, 0.1, 0.5])
    def test_other_grids_match_reference(self, epsilon_switch, grid_step):
        # a finer grid, and one whose step 0.1 puts the bin edges off binary fractions
        _, mixed, dist = two_sample_dist(8, 4)
        common = dict(sample=mixed, dist=dist, k=12, eps=0.01, rho=0.5, trials=80, seed=17)
        common.update(noise=NoiseSpec(scale=0.15625, grid_step=grid_step), epsilon_switch=epsilon_switch)
        analyst = FixedQueryAnalyst(fixed_list("mixed", 12))
        assert run_llr_experiment(analyst, **common) == reference_llr(analyst, **common)

    @pytest.mark.parametrize("epsilon_switch", [None, 0.1, 0.5])
    def test_laws_with_empty_bins_match_reference(self, epsilon_switch):
        # at scale 0.001 the far bins' masses underflow to 0, so the log laws
        # hold -inf and their differences nan, which must neither warn nor
        # reach a drawn bin
        _, mixed, dist = two_sample_dist(8, 4)
        common = dict(sample=mixed, dist=dist, k=6, eps=1e-4, rho=0.5, trials=50, seed=3)
        common.update(noise=NoiseSpec(scale=0.001, grid_step=0.0625), epsilon_switch=epsilon_switch)
        assert min(output_distribution(common["noise"], 0.0)) == 0.0
        fixed = run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list("mixed", 6)), **common)
        assert fixed == reference_llr(analyst=FixedQueryAnalyst(fixed_list("mixed", 6)), **common)

    @pytest.mark.parametrize("name, epsilon_switch", [("single", 0.1), ("mixed", 0.5)])
    def test_unswitched_rounds_give_fractions_inside_zero_one(self, name, epsilon_switch):
        # so the bit-for-bit comparison above also compares fractions that
        # are neither 0 nor 1
        fixed, _ = self.run_both(name, 20, 300, epsilon_switch)
        assert 0.0 < fixed.frac_exceed_hybrid < 1.0 and 0.0 < fixed.frac_exceed_oracle < 1.0

    def test_short_list_fails_before_any_draw(self):
        _, mixed, dist = two_sample_dist(8, 4)
        args = dict(sample=mixed, dist=dist, k=5, trials=3, **self.COMMON)
        with pytest.raises(ValueError, match="holds 4 queries, fewer than k = 5 rounds"):
            run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list("mixed", 4)), **args)

    def test_long_list_asks_its_first_k_queries(self):
        _, mixed, dist = two_sample_dist(8, 4)
        args = dict(sample=mixed, dist=dist, k=5, trials=50, epsilon_switch=0.5, **self.COMMON)
        longer = run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list("mixed", 9)), **args)
        assert longer == run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list("mixed", 5)), **args)

    def test_memory_stays_flat_in_trials(self):
        # each direction reads its doubles one block at a time, so ten times
        # the trials of README's llr run peak no higher
        _, mixed, dist = two_sample_dist(64, 4)

        def peak(trials):
            args = dict(sample=mixed, dist=dist, k=20, trials=trials, epsilon_switch=0.5, **self.COMMON)
            tracemalloc.start()
            try:
                run_llr_experiment(analyst=FixedQueryAnalyst(fixed_list("mixed", 20)), **args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= 1.1 * peak(2_000)

    @pytest.mark.parametrize("trials, k", [(1, 1), (7, 5), (300, 20)])
    def test_one_draw_equals_one_draw_per_transcript(self, trials, k):
        # a direction's one read of uniform doubles gives each transcript's
        # noise as numpy's draw of k values per transcript, bit for bit
        noise = NoiseSpec(scale=0.15625, grid_step=0.125)
        whole = laplace_uniforms(np.random.default_rng(5), trials * k)
        rng = np.random.default_rng(5)
        rows = [sample_noise(noise, rng, k) for _ in range(trials)]
        drawn = np.array([_laplace_from_uniform(u, noise.scale) for u in whole.tolist()])
        assert drawn.reshape(trials, k).tobytes() == np.array(rows).tobytes()


def reference_index(spec, u, mean):
    """The grid index of ``mean`` plus numpy's Laplace value of ``u``, by libm."""
    return grid_index(spec, _laplace_from_uniform(u, spec.scale) + mean)


def switch_points(spec, mean, stride):
    """The doubles in (0, 1) at which ``reference_index`` first reaches
    every ``stride``-th index it takes, found by bisection on the doubles'
    bit patterns, which order positive doubles as their values."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (2.0**-53, 1.0 - 2.0**-53))
    index = lambda bits: reference_index(spec, float(np.int64(bits).view(np.float64)), mean)
    points = []
    for target in range(index(lo) + 1, index(hi) + 1, stride):
        below, above = lo, hi  # index(below) < target <= index(above)
        while above - below > 1:
            middle = (below + above) // 2
            below, above = (below, middle) if index(middle) >= target else (middle, above)
        points.append(float(np.int64(above).view(np.float64)))
    return points


def edge_doubles(spec, means, stride=1):
    """Each switch point of each mean with its neighbours, 0.5 with its
    neighbours, and the least and greatest nonzero doubles numpy draws."""
    doubles = {2.0**-53, 1.0 - 2.0**-53}
    for point in [0.5, *(p for mean in means for p in switch_points(spec, mean, stride))]:
        doubles |= {float(np.nextafter(point, 0.0)), point, float(np.nextafter(point, 1.0))}
    return sorted(doubles)


class TestRoundMajorBlocks:
    """A block's round-major pipeline, ``laplace_grid_indices`` with the
    round offsets, one ``take`` and one in-order sum, against libm."""

    @pytest.mark.parametrize(
        "scale, grid_step, k, stride",
        [
            (0.15625, 0.125, 3, 1),
            # steps whose last position (clip_hi - clip_lo) / step lies above
            # and below a whole one, near the largest scale NoiseSpec accepts
            (0.5, 2 / 49, 3, 1),
            (0.5, 2 / 93, 3, 1),
            # round 128's offset 128 * 8193 passes 2**20
            (0.1, 2**-12, 129, 97),
        ],
    )
    def test_every_index_at_the_bin_edges_is_libms(self, scale, grid_step, k, stride):
        spec = NoiseSpec(scale=scale, grid_step=grid_step)
        # an interior mean, one on a bin edge and two beyond the clip
        round_means = [0.3, spec.clip_lo + (spec.n_bins // 3 + 0.5) * grid_step, 1.45, -0.45]
        doubles = edge_doubles(spec, round_means, stride)
        means = np.resize(round_means, k)
        u = np.tile(doubles, (k, 1))
        expected = [[reference_index(spec, x, mean) for x in doubles] for mean in means]
        assert laplace_grid_indices(spec, u, means).tolist() == expected
        # row 0 of terms is zero and row 1 each grid index, which only the checked round reads
        terms = np.stack((np.zeros(spec.n_bins + 1), np.arange(spec.n_bins + 1)))
        for checked in (0, k - 1):
            rows = (np.arange(k) == checked).astype(np.intp)
            assert _block_llrs(spec, means, terms, rows, u).tolist() == expected[checked]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_sums_add_round_after_round(self, rows):
        # 1 + 2**-53 rounds back to 1, so only the in-order sum of 1 and
        # nineteen 2**-53 terms is 1; summed pairwise they give more
        spec = NoiseSpec(scale=0.15625, grid_step=0.125)
        terms = np.full((20, spec.n_bins + 1), 2.0**-53)
        terms[0] = 1.0
        u = laplace_uniforms(np.random.default_rng(4), 20 * rows).reshape(rows, 20).T
        assert _block_llrs(spec, np.full(20, 0.5), terms, np.arange(20), u).tolist() == [1.0] * rows


ROOT = Path(__file__).resolve().parent.parent
LLR_PINS = [
    "tests/test_bounds.py::TestLlrFixedQueries",
    "tests/test_bounds.py::TestRoundMajorBlocks",
    "tests/test_cli.py::TestReadmeAttacks::test_records_are_pinned[llr]",
    "tests/test_cli.py::TestReadmeAttacks::test_records_are_pinned[llr-50000]",
]
# the CPU features whose dispatch gives numpy's AVX-512 np.log
AVX512_LOG = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(
    not all(numpy_cpu_features().get(feature) for feature in AVX512_LOG), reason="numpy dispatches no AVX-512 np.log here"
)
def test_llr_keeps_its_bits_under_another_np_log():
    """numpy picks its vectorized ``np.log`` from the CPU at run time. With
    the AVX-512 kernels turned off in a child process, the LLR's comparisons
    with libm and the README llr digests still pass: the near-edge recompute
    makes every grid index libm's whichever ``np.log`` runs."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_LOG)}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *LLR_PINS]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
