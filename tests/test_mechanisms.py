import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adalab
from adalab.attack import InfoRoundAnalyst, build_hard_instance
from adalab.bounds import accuracy_noise_scale
from adalab.core import FiniteDistribution, Query, Sample, empirical_mean, true_mean
from adalab.harness import derive_entropy, derive_rng
from adalab.mechanisms import (
    _BLOCK_VALUES,
    MechanismKind,
    MechanismState,
    NoiseSpec,
    _entropy_pool,
    _grid_indices,
    _laplace_from_uniform,
    _mix_in,
    _spawned_state_words,
    answer,
    answer_batch,
    answer_means,
    grid_index,
    laplace_grid_indices,
    laplace_uniforms,
    noise_cdf,
    output_distribution,
    quantize,
    quantize_array,
    run_interaction,
    sample_noise,
)

COARSE = NoiseSpec(scale=0.1, grid_step=0.25)


def two_point_setup(n=8, ones=8):
    held = Sample((1,) * ones + (0,) * (n - ones))
    other = Sample((0,) * n)
    dist = FiniteDistribution([other, held], [0.5, 0.5])
    return held, dist


class TestNoiseSpec:
    def test_defaults_are_valid(self):
        spec = NoiseSpec()
        assert spec.n_bins == 2**21
        assert spec.variance() == pytest.approx(2 * 0.1**2)

    def test_gaussian_variance(self):
        assert NoiseSpec(family="gaussian", scale=0.2).variance() == pytest.approx(0.04)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseSpec(family="cauchy")

    def test_rejects_grid_not_dividing_span(self):
        with pytest.raises(ValueError):
            NoiseSpec(grid_step=0.3)

    def test_rejects_heavy_stray_tails(self):
        # scale 1.0 leaves far more than 5 percent outside [clip_lo-1, clip_hi]
        with pytest.raises(ValueError, match="exceeds tolerance"):
            NoiseSpec(scale=1.0)

    def test_scale_zero_allowed(self):
        assert NoiseSpec(scale=0.0).variance() == 0.0


class TestNoiseCdf:
    def test_laplace_landmarks(self):
        spec = NoiseSpec(scale=0.1)
        assert noise_cdf(spec, 0.0) == pytest.approx(0.5)
        assert noise_cdf(spec, 0.1) == pytest.approx(1 - 0.5 * math.exp(-1))
        assert noise_cdf(spec, -0.1) == pytest.approx(0.5 * math.exp(-1))

    def test_gaussian_landmarks(self):
        spec = NoiseSpec(family="gaussian", scale=0.1)
        assert noise_cdf(spec, 0.0) == pytest.approx(0.5)
        assert noise_cdf(spec, 0.1) == pytest.approx(0.8413447460685429)

    @pytest.mark.filterwarnings("error")
    def test_laplace_far_tails_do_not_overflow(self):
        spec = NoiseSpec(scale=0.001, grid_step=2**-10)
        assert noise_cdf(spec, [-1.0, 1.0]).tolist() == [0.0, 1.0]

    def test_laplace_matches_two_sided_formula_bit_for_bit(self):
        x = np.linspace(-3.0, 3.0, 6001)
        expected = np.where(x < 0.0, 0.5 * np.exp(x / 0.1), 1.0 - 0.5 * np.exp(-x / 0.1))
        np.testing.assert_array_equal(noise_cdf(NoiseSpec(scale=0.1), x), expected)

    def test_import_leaves_scipy_special_unloaded(self):
        src = os.path.dirname(os.path.dirname(adalab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, adalab; sys.exit('scipy.special' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_scale_zero_is_step(self):
        spec = NoiseSpec(scale=0.0)
        assert noise_cdf(spec, -1e-9) == 0.0
        assert noise_cdf(spec, 0.0) == 1.0

    def test_sample_noise_moments(self):
        rng = np.random.default_rng(3)
        spec = NoiseSpec(scale=0.1)
        draws = np.array([sample_noise(spec, rng) for _ in range(20000)])
        assert abs(draws.mean()) < 4 * draws.std() / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(spec.variance(), rel=0.05)

    def test_scale_zero_draw_is_zero_but_consumes_stream(self):
        spec = NoiseSpec(scale=0.0)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        assert sample_noise(spec, rng_a) == 0.0
        rng_b.laplace(0.0, 1.0)
        # both streams advanced by exactly one draw
        assert rng_a.uniform() == rng_b.uniform()

    @pytest.mark.parametrize("family,scale", [("laplace", 0.1), ("gaussian", 0.1), ("laplace", 0.0)])
    def test_sized_draw_equals_single_draws(self, family, scale):
        spec = NoiseSpec(family=family, scale=scale)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        many = sample_noise(spec, rng_a, 50)
        single = np.array([sample_noise(spec, rng_b) for _ in range(50)])
        assert many.tobytes() == single.tobytes()
        assert rng_a.uniform() == rng_b.uniform()


class TestQuantize:
    def test_exact_grid_points_survive(self):
        spec = NoiseSpec()
        assert quantize(spec, 1.0) == 1.0
        assert quantize(spec, 0.0) == 0.0
        assert quantize(spec, -0.5) == -0.5
        assert quantize(spec, 1.5) == 1.5

    def test_clips_before_rounding(self):
        spec = NoiseSpec()
        assert quantize(spec, 99.0) == 1.5
        assert quantize(spec, -99.0) == -0.5

    def test_half_bin_ties_go_to_even_index(self):
        # indices of -0.375 and -0.125 on the 0.25 grid are 0.5 and 1.5
        assert quantize(COARSE, -0.375) == -0.5
        assert quantize(COARSE, -0.125) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            quantize(COARSE, float("nan"))

    def test_array_matches_scalar_bit_for_bit(self):
        # half-bin ties at even and odd indices, both clip edges, beyond them, infinities
        ties = [-0.375, -0.125, 0.125, 0.375, 1.375, 1.125]
        edges = [-0.5, 1.5, -0.5000001, 1.5000001, -99.0, 99.0, -np.inf, np.inf, 0.0, -0.0]
        noisy = np.random.default_rng(4).uniform(-1.0, 2.0, 500)
        for spec in (COARSE, NoiseSpec()):
            values = np.concatenate([ties, edges, noisy])
            scalar = np.array([quantize(spec, v) for v in values])
            assert quantize_array(spec, values).tobytes() == scalar.tobytes()
            assert list(_grid_indices(spec, values)) == [grid_index(spec, v) for v in values]
        assert list(quantize_array(COARSE, ties)) == [-0.5, 0.0, 0.0, 0.5, 1.5, 1.0]

    def test_array_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            quantize_array(COARSE, [0.1, float("nan"), 0.2])

    @given(st.floats(-2, 3, allow_nan=False))
    @settings(max_examples=100)
    def test_idempotent(self, x):
        once = quantize(COARSE, x)
        assert quantize(COARSE, once) == once


class TestOutputDistribution:
    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("mean", [0.0, 0.37, 1.0])
    def test_sums_to_one(self, family, mean):
        spec = NoiseSpec(family=family, scale=0.1, grid_step=0.25)
        assert output_distribution(spec, mean).sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        spec = COARSE
        mean = 0.3
        probs = output_distribution(spec, mean)
        rng = np.random.default_rng(11)
        vals = spec.clip_lo + np.arange(spec.n_bins + 1) * spec.grid_step
        draws = np.array([quantize(spec, mean + sample_noise(spec, rng)) for _ in range(40000)])
        for v, p in zip(vals, probs):
            freq = np.mean(draws == v)
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws.size) + 1e-9

    def test_edge_bins_absorb_clipped_tails(self):
        spec = NoiseSpec(scale=0.1, grid_step=0.25)
        probs = output_distribution(spec, 1.5)
        # mean on the upper clip: at least the upper half of the noise lands there
        assert probs[-1] >= 0.5

    def test_requires_positive_scale(self):
        with pytest.raises(ValueError):
            output_distribution(NoiseSpec(scale=0.0), 0.5)

    @pytest.mark.parametrize("family,scale", [("laplace", 0.02), ("gaussian", 0.05)])
    def test_upper_tail_bins_stay_exact(self, family, scale):
        # The law of mean 0.25 at v mirrors the law of mean 0.5 at 0.75 - v, so
        # its upper tail must equal that law's lower tail. Upper-tail bins formed
        # as differences of CDF values near 1 cancelled to 0.
        spec = NoiseSpec(family=family, scale=scale, grid_step=2.0**-10)
        index = lambda v: round((v - spec.clip_lo) / spec.grid_step)
        upper = output_distribution(spec, 0.25)[index(0.5) : index(1.25)]
        lower = output_distribution(spec, 0.5)[index(0.25) : index(-0.5) : -1]
        assert np.all(upper > 0.0)
        np.testing.assert_allclose(upper, lower, rtol=1e-12, atol=0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.001, 0.05))
    @settings(max_examples=40)
    def test_laplace_shift_ratio_sandwich(self, mean, shift):
        """A mean shift of d moves every atom's probability by at most e^(d/b)."""
        spec = NoiseSpec(scale=0.15625, grid_step=0.125)
        p = output_distribution(spec, mean)
        q = output_distribution(spec, mean + shift)
        live = (p > 0) & (q > 0)
        ratios = np.log(p[live] / q[live])
        assert np.max(np.abs(ratios)) <= shift / spec.scale + 1e-9
        assert not np.any((p > 0) ^ (q > 0))


class TestMechanismKind:
    def test_factories(self):
        assert MechanismKind.real().name == "real"
        assert MechanismKind.oracle().epsilon_switch is None
        assert MechanismKind.hybrid(0.25).epsilon_switch == 0.25

    def test_hybrid_requires_positive_switch(self):
        with pytest.raises(ValueError):
            MechanismKind.hybrid(0.0)
        for threshold in (math.inf, math.nan):
            # a hybrid that never switches is the real mechanism
            with pytest.raises(ValueError, match=f"epsilon_switch > 0 and finite, got {threshold}"):
                MechanismKind.hybrid(threshold)
        with pytest.raises(ValueError):
            MechanismKind("real", epsilon_switch=0.1)
        with pytest.raises(ValueError):
            MechanismKind("weird")


# The MechanismState inputs each kind reads, and how its errors name each.
READS = {
    "real": {"sample", "real_rng"},
    "oracle": {"distribution", "oracle_seed"},
    "hybrid": {"sample", "distribution", "real_rng", "oracle_seed"},
}
INPUT_NAMES = {
    "sample": "a sample",
    "distribution": "a distribution",
    "real_rng": "a real-noise stream",
    "oracle_seed": "an oracle-noise seed",
}
MECHANISMS = {"real": MechanismKind.real(), "oracle": MechanismKind.oracle(), "hybrid": MechanismKind.hybrid(0.1)}


class TestMechanismStateConstruction:
    @pytest.mark.parametrize("key", sorted(INPUT_NAMES))
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_inputs_follow_kind_reads(self, name, key):
        """A read input left out raises "requires"; an input the kind never
        reads, given, raises "never reads"."""
        held, dist = two_point_setup()
        inputs = dict(sample=held, distribution=dist, real_rng=np.random.default_rng(0), oracle_seed=1)
        given = {k: inputs[k] for k in READS[name] ^ {key}}
        if key in READS[name]:
            message = f"{name} mechanism requires {INPUT_NAMES[key]}"
        else:
            message = f"{name} mechanism never reads {INPUT_NAMES[key]}; do not pass one"
        with pytest.raises(ValueError, match=f"^{message}$"):
            MechanismState(MECHANISMS[name], COARSE, **given)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_oracle_seed_must_be_a_non_negative_integer(self, seed):
        held, dist = two_point_setup()
        with pytest.raises(ValueError, match=f"oracle_seed must be a non-negative integer, got {seed!r}"):
            MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=seed)
        with pytest.raises(ValueError, match="oracle_seed must be a non-negative integer"):
            MechanismState(
                MechanismKind.hybrid(0.1),
                COARSE,
                sample=held,
                distribution=dist,
                real_rng=np.random.default_rng(0),
                oracle_seed=seed,
            )

    def test_oracle_and_hybrid_are_laplace_only(self):
        held, dist = two_point_setup()
        gauss = NoiseSpec(family="gaussian", scale=0.1, grid_step=0.25)
        with pytest.raises(ValueError, match="Laplace"):
            MechanismState(MechanismKind.oracle(), gauss, distribution=dist, oracle_seed=1)
        with pytest.raises(ValueError, match="Laplace"):
            MechanismState(
                MechanismKind.hybrid(0.1),
                gauss,
                sample=held,
                distribution=dist,
                real_rng=np.random.default_rng(0),
                oracle_seed=1,
            )
        MechanismState(
            MechanismKind.real(), gauss, sample=held, real_rng=np.random.default_rng(0)
        )


class TestAnswering:
    def test_real_answer_is_quantized_noisy_empirical_mean(self):
        held, _ = two_point_setup(n=8, ones=2)
        spec = NoiseSpec(scale=0.0)
        mech = MechanismState(
            MechanismKind.real(), spec, sample=held, real_rng=np.random.default_rng(0)
        )
        assert answer(mech, Query(0.0, {1: 1.0})) == 0.25
        assert mech.rounds_answered == 1

    def test_switched_hybrid_takes_no_empirical_mean(self, monkeypatch):
        """Once switched, a hybrid answers from the oracle side alone: it takes
        no empirical mean, and its answers are the oracle's at the same rounds."""
        held, dist = two_point_setup()
        hybrid = MechanismState(
            MechanismKind.hybrid(0.25),
            COARSE,
            sample=held,
            distribution=dist,
            real_rng=np.random.default_rng(1),
            oracle_seed=7,
        )
        bad = Query(0.0, {1: 1.0})  # empirical mean 1, true mean 0.5
        queries = [bad, Query(0.5), bad, Query(0.25, {0: 1.0})]
        first = answer(hybrid, queries[0])
        assert hybrid.switched
        calls = []
        monkeypatch.setattr(
            "adalab.mechanisms.empirical_mean", lambda *args: calls.append(args) or empirical_mean(*args)
        )
        answers = [first] + [answer(hybrid, q) for q in queries[1:]]
        assert calls == []
        oracle = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=7)
        assert answers == [answer(oracle, q) for q in queries]

    def test_real_stream_is_sequential_and_reproducible(self):
        held, _ = two_point_setup()
        make = lambda: MechanismState(
            MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(42)
        )
        q = Query(0.5)
        first = [answer(make(), q) for _ in range(1)]
        mech = make()
        again = [answer(mech, q), answer(mech, q)]
        assert again[0] == first[0]
        # two draws from one stream rarely coincide even on a coarse grid
        mech2 = make()
        assert [answer(mech2, q), answer(mech2, q)] == again

    def test_oracle_noise_is_keyed_by_round_index(self):
        _, dist = two_point_setup()
        q = Query(0.5)
        a = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=99)
        b = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=99)
        seq = [answer(a, q) for _ in range(5)]
        assert [answer(b, q) for _ in range(5)] == seq
        # replaying the same round index on a fresh state gives the same draw
        c = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=99)
        assert answer(c, q) == seq[0]
        d = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=100)
        assert [answer(d, q) for _ in range(5)] != seq

    def test_oracle_ignores_any_sample_information(self):
        _, dist = two_point_setup()
        mech = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=1)
        assert mech.sample is None

    def test_hybrid_switches_once_and_stays(self):
        held, dist = two_point_setup()  # empirical 1.0 vs true 0.5 on the indicator
        spec = NoiseSpec(scale=0.0)
        mech = MechanismState(
            MechanismKind.hybrid(0.25),
            spec,
            sample=held,
            distribution=dist,
            real_rng=np.random.default_rng(0),
            oracle_seed=5,
        )
        good, bad = Query(0.5), Query(0.0, {1: 1.0})
        assert answer(mech, good) == 0.5
        assert not mech.switched
        assert answer(mech, bad) == 0.5  # oracle side answers with the true mean
        assert mech.switched and mech.switch_round == 1
        assert answer(mech, good) == 0.5
        assert mech.switched and mech.switch_round == 1

    def test_hybrid_boundary_deviation_does_not_switch(self):
        held, dist = two_point_setup()
        spec = NoiseSpec(scale=0.0)
        mech = MechanismState(
            MechanismKind.hybrid(0.5),
            spec,
            sample=held,
            distribution=dist,
            real_rng=np.random.default_rng(0),
            oracle_seed=5,
        )
        # deviation exactly 0.5 is not strictly above the threshold
        assert answer(mech, Query(0.0, {1: 1.0})) == 1.0
        assert not mech.switched

    def test_hybrid_matches_real_until_switch(self):
        held, dist = two_point_setup()
        real = MechanismState(
            MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(7)
        )
        hybrid = MechanismState(
            MechanismKind.hybrid(0.25),
            COARSE,
            sample=held,
            distribution=dist,
            real_rng=np.random.default_rng(7),
            oracle_seed=3,
        )
        good, bad = Query(0.5), Query(0.0, {1: 1.0})
        for _ in range(4):
            assert answer(hybrid, good) == answer(real, good)
        answer(hybrid, bad), answer(real, bad)
        assert hybrid.switch_round == 4

    @pytest.mark.parametrize("kind", ["real", "oracle", "hybrid", "hybrid-switched"])
    def test_answer_batch_matches_consecutive_answers(self, kind):
        held, dist = two_point_setup()  # indicator: empirical 1.0 vs true 0.5
        good, bad = Query(0.5), Query(0.0, {1: 1.0})
        queries = [good, Query(0.25), bad, good, bad, Query(0.75)]

        def make():
            if kind == "real":
                return MechanismState(
                    MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(7)
                )
            if kind == "oracle":
                return MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=3)
            mech = MechanismState(
                MechanismKind.hybrid(0.25),
                COARSE,
                sample=held,
                distribution=dist,
                real_rng=np.random.default_rng(7),
                oracle_seed=3,
            )
            if kind == "hybrid-switched":
                answer(mech, bad)
            return mech

        one, batched = make(), make()
        expected = [answer(one, q) for q in queries]
        emp = np.array([empirical_mean(q, held) for q in queries]) if one.sample is not None else None
        tru = np.array([true_mean(q, dist) for q in queries]) if one.distribution is not None else None
        assert list(answer_batch(batched, emp, tru)) == expected
        # the one-round rule, given each query's means as floats
        scalar = make()
        means = zip(*(m.tolist() if m is not None else [None] * len(queries) for m in (emp, tru)))
        assert [answer_means(scalar, e, t) for e, t in means] == expected
        for mech in (batched, scalar):
            for field in ("rounds_answered", "switched", "switch_round"):
                assert getattr(mech, field) == getattr(one, field)
        if kind == "hybrid":
            assert batched.switch_round == 2
        if one._real_rng is not None:
            assert batched._real_rng.uniform() == scalar._real_rng.uniform() == one._real_rng.uniform()

    # indicator query ids per round: 0 the good query (no switch), 1 a
    # constant, 2 the bad query (emp 1.0 vs tru 0.5 trips 0.25)
    QUERIES = (Query(0.5), Query(0.25), Query(0.0, {1: 1.0}))

    @given(
        kind=st.sampled_from(["real", "oracle", "hybrid"]),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=12),
        cuts=st.sets(st.integers(1, 11)),
    )
    @example(kind="hybrid", picks=[0, 1, 2, 0], cuts={2})  # switch at a batch's first round
    @example(kind="hybrid", picks=[0, 2, 1, 2], cuts={3})  # switch mid-batch
    @example(kind="hybrid", picks=[2, 0, 1, 0], cuts={1, 2})  # switch in an earlier batch
    # oracle words come in blocks of 64 rounds: a batch over rounds 60-70
    @example(kind="oracle", picks=[0, 1, 2] * 24, cuts={60, 71})
    # a switch at round 66, in a batch from round 64, and a later batch across round 128
    @example(kind="hybrid", picks=[0, 1] * 33 + [2] + [1, 0] * 32, cuts={64, 70, 127})
    @settings(max_examples=150, deadline=None)
    def test_any_split_into_batches_matches_one_answer_per_query(self, kind, picks, cuts):
        held, dist = two_point_setup()
        queries = [self.QUERIES[pick] for pick in picks]

        def make():
            data = dict(sample=held, real_rng=np.random.default_rng(11), distribution=dist, oracle_seed=4)
            mech_kind = MechanismKind.hybrid(0.25) if kind == "hybrid" else MechanismKind(kind)
            return MechanismState(mech_kind, COARSE, **{key: data[key] for key in mech_kind.reads})

        one, batched = make(), make()
        bounds = [0, *sorted(cut for cut in cuts if cut < len(queries)), len(queries)]
        for lo, hi in zip(bounds, bounds[1:]):
            expected = [answer(one, q) for q in queries[lo:hi]]
            emp = np.array([empirical_mean(q, held) for q in queries[lo:hi]])
            tru = np.array([true_mean(q, dist) for q in queries[lo:hi]])
            assert list(answer_batch(batched, emp, tru)) == expected
            for field in ("rounds_answered", "switched", "switch_round"):
                assert getattr(batched, field) == getattr(one, field)
        if kind == "hybrid" and 2 in picks:
            assert batched.switch_round == picks.index(2)
        if one._real_rng is not None:
            assert batched._real_rng.uniform() == one._real_rng.uniform()

    @pytest.mark.parametrize(
        "kind, emp, tru",
        [
            ("hybrid", [0.5], [0.5] * 5),  # lengths differ
            ("hybrid", [0.5] * 5, None),  # tru missing
            ("hybrid", None, [0.5] * 5),  # emp missing
            ("hybrid", [[0.5, 0.5]], [[0.5, 0.5]]),  # not 1-D
            ("real", 0.5, None),  # not 1-D
            ("real", None, [0.5]),  # the one array it reads missing
            ("oracle", [0.5], None),
        ],
    )
    def test_answer_batch_rejects_missing_or_misshapen_means(self, kind, emp, tru):
        held, dist = two_point_setup()
        data = dict(sample=held, real_rng=np.random.default_rng(0), distribution=dist, oracle_seed=1)
        mech_kind = MechanismKind.hybrid(0.25) if kind == "hybrid" else MechanismKind(kind)
        mech = MechanismState(mech_kind, COARSE, **{key: data[key] for key in mech_kind.reads})
        as_array = lambda means: None if means is None else np.array(means)
        with pytest.raises(ValueError, match="1-D means arrays of one length"):
            answer_batch(mech, as_array(emp), as_array(tru))
        assert mech.rounds_answered == 0 and not mech.switched

    def test_answer_batch_ignores_means_the_kind_does_not_read(self):
        held, dist = two_point_setup()
        real = MechanismState(MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(0))
        oracle = MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=1)
        assert len(answer_batch(real, np.array([0.5, 0.5]), np.array([0.5]))) == 2
        assert len(answer_batch(oracle, None, np.array([0.5, 0.5, 0.5]))) == 3

    def test_rejects_non_query(self):
        held, _ = two_point_setup()
        mech = MechanismState(
            MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(0)
        )
        with pytest.raises(TypeError):
            answer(mech, 0.5)


def numpy_oracle_draw(seed: int, round_index: int, scale: float) -> float:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(round_index,)))
    return float(rng.laplace(0.0, scale))


class TestOracleStream:
    """The oracle's keyed draw against numpy's SeedSequence -> PCG64 -> laplace
    chain, whose state words it reads from blocks of 64 rounds."""

    SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64, 2**255 + 3, 5 << 192] + [
        derive_entropy(master, trial, "mech_noise_oracle") for master, trial in ((0, 0), (9, 1), (123, 4567))
    ]
    SCALES = [0.0, 1e-3, NoiseSpec().scale, accuracy_noise_scale(0.3, 0.01)]
    ROUNDS = [*range(100), 2**32 - 1, 2**32, 10**12, 2**64 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy_bit_for_bit(self, seed):
        _, dist = two_point_setup()
        for scale in self.SCALES:
            mech = MechanismState(MechanismKind.oracle(), NoiseSpec(scale=scale), distribution=dist, oracle_seed=seed)
            for r in self.ROUNDS:
                got, want = mech._oracle_noise(r), numpy_oracle_draw(seed, r, scale)
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (seed, scale, r)

    @pytest.mark.parametrize("entropy", [0, 5, 2**32 - 1, 2**160 + 9])
    def test_mix_in_on_arrays_matches_numpy_pools(self, entropy):
        """``_mix_in`` over uint64 word arrays gives, element by element, the
        pool of numpy's ``SeedSequence`` with those words as its spawn key,
        and leaves the arrays as they were (an in-place ``^=`` would change them)."""
        pool, const = _entropy_pool(entropy)
        first = np.array([0, 1, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint64)
        second = np.array([2**32 - 1, 0, 7, 2**32 - 1, 12345], dtype=np.uint64)
        words = [first.copy(), 2**32 - 1, second.copy()]
        arrays = _mix_in(pool, const, words)[0]
        np.testing.assert_array_equal(words[0], first)
        np.testing.assert_array_equal(words[2], second)
        for i in range(first.size):
            seq = np.random.SeedSequence(entropy, spawn_key=(int(first[i]), 2**32 - 1, int(second[i])))
            assert [int(word[i]) for word in arrays] == seq.pool.tolist()

    def test_state_words_refuse_a_range_across_a_word_count(self):
        """Trials 2**32 - 1 and 2**32 have one and two 32-bit words."""
        with pytest.raises(ValueError, match=r"cross a multiple of 2\*\*32"):
            _spawned_state_words(1, 2**32 - 1, 2, 5)

    def test_numpy_integer_seed_draws_as_its_int(self):
        _, dist = two_point_setup()
        make = lambda seed: MechanismState(MechanismKind.oracle(), COARSE, distribution=dist, oracle_seed=seed)
        assert make(np.uint64(2**64 - 1))._oracle_noise(3) == make(2**64 - 1)._oracle_noise(3)


# PCG64's 128-bit multiplier, as numpy's pcg64.h defines it
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_with_a_zero_at(seed: int, position: int) -> np.random.Generator:
    """A PCG64 Generator whose double number ``position`` (from 0) is 0.0:
    numpy's PCG64 steps its 128-bit state, then outputs the rotated xor of
    its halves, which is 0 when the halves are equal."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    half = int(np.random.default_rng(seed + 1).integers(2**63))
    target = half << 64 | half  # the state after ``position + 1`` steps
    inverse = pow(_PCG64_MULT, -1, 2**128)
    for _ in range(position + 1):
        target = (target - inc) * inverse % 2**128
    state["state"]["state"] = target
    rng.bit_generator.state = state
    return rng


class StubStream:
    """Hands out fixed doubles in order through ``random(size)``."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.read = 0

    def random(self, size):
        out = np.array(self.doubles[self.read : self.read + size])
        self.read += size
        return out


class TestLaplaceGrid:
    """The uniform doubles numpy's Laplace draw reads, and the grid indices
    of their noise computed in blocks, against numpy's own draw."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("size", [0, 1, 7, 8193, 40_000])
    def test_uniforms_leave_the_state_of_numpys_draw(self, seed, size):
        drawn, read = np.random.default_rng(seed), np.random.default_rng(seed)
        laplace = drawn.laplace(0.0, 0.15625, size)
        u = laplace_uniforms(read, size)
        assert read.bit_generator.state == drawn.bit_generator.state
        assert np.array([_laplace_from_uniform(x, 0.15625) for x in u.tolist()]).tobytes() == laplace.tobytes()

    @pytest.mark.parametrize("position", [0, 3, 9])
    def test_a_zero_double_is_skipped_as_numpy_skips_it(self, position):
        drawn, read = pcg64_with_a_zero_at(5, position), pcg64_with_a_zero_at(5, position)
        assert pcg64_with_a_zero_at(5, position).random(position + 1)[-1] == 0.0
        laplace = drawn.laplace(0.0, 0.1, 10)
        u = laplace_uniforms(read, 10)
        assert read.bit_generator.state == drawn.bit_generator.state
        assert 0.0 not in u
        assert [_laplace_from_uniform(x, 0.1) for x in u.tolist()] == laplace.tolist()

    def test_zeros_in_the_refill_are_skipped_too(self):
        stream = StubStream([0.25, 0.0, 0.5, 0.0, 0.0, 0.75, 0.0, 0.125, 0.375])
        assert laplace_uniforms(stream, 3).tolist() == [0.25, 0.5, 0.75]
        assert stream.read == 6  # the third nonzero double was the stream's sixth

    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 0.01, 0.1, 0.15625, 0.5]),
        grid_step=st.sampled_from([0.125, 0.1, 1 / 32, 2.0**-20]),
        k=st.sampled_from([0, 1, 3, 20, 41]),
        edge=st.sampled_from([-1, 0, 1]),
        spread=st.sampled_from([0.0, 0.5, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_indices_equal_numpys_draw_on_its_grid(self, seed, scale, grid_step, k, edge, spread):
        spec = NoiseSpec(scale=scale, grid_step=grid_step)
        rows = max(1, _BLOCK_VALUES // max(k, 1)) + edge  # a row short of a block edge, on it, or past it
        # means inside the clip interval at spread 0.5, and mostly outside it at 3.0
        means = 0.5 + np.random.default_rng(seed).uniform(-spread, spread, k)
        drawn, read = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _grid_indices(spec, drawn.laplace(0.0, scale, rows * k).reshape(rows, k) + means)
        got = laplace_grid_indices(spec, laplace_uniforms(read, rows * k).reshape(rows, k).T, means)
        assert got.flags.c_contiguous and got.dtype == expected.dtype and got.T.tobytes() == expected.tobytes()

    def test_more_rounds_than_a_block_holds(self):
        spec = NoiseSpec(scale=0.1, grid_step=0.125)
        k = _BLOCK_VALUES + 1
        means = np.linspace(-0.7, 1.7, k)
        expected = _grid_indices(spec, np.random.default_rng(3).laplace(0.0, 0.1, 2 * k).reshape(2, k) + means)
        u = laplace_uniforms(np.random.default_rng(3), 2 * k).reshape(2, k).T
        assert laplace_grid_indices(spec, u, means).T.tobytes() == expected.tobytes()

    def test_values_on_a_bin_edge_are_recomputed(self, monkeypatch):
        # u = 0.5 gives noise 0.0, so mean 1/16 sits on position 4.5 of the
        # 1/8 grid, a tie that goes to the even index; its neighbours land
        # within a few ulps of it, on either side
        spec = NoiseSpec(scale=0.15625, grid_step=0.125)
        u = np.array([[np.nextafter(0.5, 0.0)], [0.5], [np.nextafter(0.5, 1.0)]])
        recomputed = []

        def counted(x, scale):
            recomputed.append(x)
            return _laplace_from_uniform(x, scale)

        monkeypatch.setattr(adalab.mechanisms, "_laplace_from_uniform", counted)
        indices = laplace_grid_indices(spec, u, [1 / 16] * 3)
        assert recomputed == u[:, 0].tolist()
        expected = [grid_index(spec, _laplace_from_uniform(x, spec.scale) + 1 / 16) for x in u[:, 0].tolist()]
        assert indices[:, 0].tolist() == expected and expected[1] == 4


def test_oracle_loop_keeps_its_bits():
    """Acceptance test_09's adaptive loop (seed 9), 20 trials of 50 rounds
    without its early stop: a digest of every round's answer, true mean and
    empirical mean, each as ``float.hex``. A change to the query build, the
    means or the keyed noise that moves one bit fails here, not only through
    test_09's statistical floor."""
    inst = build_hard_instance(0.01, 0.01, 100)
    dist = inst.distribution
    noise = NoiseSpec(scale=accuracy_noise_scale(0.3, 0.01))
    digest = hashlib.sha256()
    for trial in range(20):
        sample = inst.make_sample(int(derive_rng(9, trial, "sample_draw").integers(inst.support_size)))
        mech = MechanismState(
            MechanismKind.oracle(), noise, distribution=dist, oracle_seed=derive_entropy(9, trial, "mech_noise_oracle")
        )
        analyst = InfoRoundAnalyst(inst, derive_rng(9, trial, "attack_p"), derive_rng(9, trial, "attack_bernoulli"))
        rounds = []
        for _ in range(50):
            query = analyst.next_query(tuple(rounds))
            observed = answer(mech, query)
            rounds.append((query, observed))
            for value in (observed, true_mean(query, dist), empirical_mean(query, sample)):
                digest.update(value.hex().encode())
    assert digest.hexdigest() == "15bd429425969cf154757a1572ceb1f28d59c8df74eb8878ac15c53d46148405"


class FixedAnalyst:
    def __init__(self, queries):
        self.queries = list(queries)

    def next_query(self, rounds):
        return self.queries[len(rounds)]


class TestRunInteraction:
    def test_collects_transcript(self):
        held, _ = two_point_setup(n=4, ones=1)
        spec = NoiseSpec(scale=0.0)
        mech = MechanismState(
            MechanismKind.real(), spec, sample=held, real_rng=np.random.default_rng(0)
        )
        t = run_interaction(FixedAnalyst([Query(0.5), Query(0.0, {1: 1.0})]), mech, 2)
        assert t.answers == (0.5, 0.25)
        assert t.mechanism == "real"

    def test_rejects_non_query_output(self):
        held, _ = two_point_setup()
        mech = MechanismState(
            MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="instead of a Query at round 0"):
            run_interaction(FixedAnalyst(["not a query"]), mech, 1)

    def test_analyst_sees_growing_prefix(self):
        held, _ = two_point_setup()
        seen = []

        class Recorder:
            def next_query(self, rounds):
                seen.append(len(rounds))
                return Query(0.5)

        mech = MechanismState(
            MechanismKind.real(), COARSE, sample=held, real_rng=np.random.default_rng(0)
        )
        run_interaction(Recorder(), mech, 3)
        assert seen == [0, 1, 2]
