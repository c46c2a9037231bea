import math

import numpy as np
import pytest

from adalab.attack import (
    AttackState,
    BlockInstance,
    FixedQueryAnalyst,
    InfoRoundAnalyst,
    build_block_instance,
    build_hard_instance,
    calibrated_attack_constant,
    final_query,
    info_round,
    instance_shape,
    make_info_query,
    new_attack_state,
    run_score_attack,
    run_simple_attack,
)
from adalab.core import Query, Sample, empirical_mean, true_mean
from adalab.mechanisms import MechanismKind, MechanismState, NoiseSpec

NOISELESS = NoiseSpec(scale=0.0)


def real_mech(sample, seed=0, noise=NOISELESS):
    return MechanismState(
        MechanismKind.real(), noise, sample=sample, real_rng=np.random.default_rng(seed)
    )


class TestInstanceShape:
    @pytest.mark.parametrize(
        "eps,gamma,expected",
        [
            (0.25, 0.01, (4, 400, 100)),
            (0.2, 0.0125, (5, 400, 80)),
            (0.3, 0.5, (3, 12, 4)),
            (0.5, 1.0, (2, 4, 2)),
        ],
    )
    def test_known_shapes(self, eps, gamma, expected):
        assert instance_shape(eps, gamma) == expected

    def test_population_is_block_multiple(self):
        for eps in (0.11, 0.17, 0.23):
            r, population, m = instance_shape(eps, 0.003)
            assert population == r * m
            assert population >= math.ceil(1 / (eps * 0.003)) - r


class TestHardInstance:
    def test_sample_holds_one_slot_per_block(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        s = inst.make_sample(7)
        arr = s.as_array()
        assert len(s) == 16
        # four copies of the slot-7 element of each of the four blocks
        assert sorted(set(arr)) == [7, 107, 207, 307]
        assert all(np.count_nonzero(arr == e) == 4 for e in set(arr))

    def test_rejects_bad_sample_sizes(self):
        with pytest.raises(ValueError, match="too small"):
            build_hard_instance(0.25, 0.01, 2)
        with pytest.raises(ValueError, match="multiple of the block count"):
            build_hard_instance(0.25, 0.01, 18)

    def test_rejects_bad_slot(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        with pytest.raises(ValueError):
            inst.make_sample(100)

    def test_distribution_is_uniform_over_slots(self):
        inst = build_hard_instance(0.5, 1.0, 4)
        dist = inst.distribution
        assert dist.support_size == inst.support_size == 2
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])
        assert inst.final_true_mean == 0.5

    def test_distribution_guards_huge_supports(self):
        inst = build_hard_instance(0.01, 1e-6, 100)
        assert inst.support_size == 1_000_000
        with pytest.raises(ValueError, match="too large to materialize"):
            inst.distribution

    def test_draw_index_in_range(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        rng = np.random.default_rng(0)
        assert all(0 <= inst.draw_index(rng) < 100 for _ in range(50))


class TestInfoRounds:
    def test_info_query_reads_first_block_only(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        table = np.zeros(100)
        table[3] = 1.0
        q = make_info_query(inst, table)
        assert q.value(3) == 1.0  # slot 3 of block 0
        assert q.value(103) == 0.0  # slot 3 of block 1 is untouched
        assert q.value(4) == 0.0

    def test_increment_formula_by_hand(self):
        """Increments follow (observed - p/r)(table - p) for a recoverable p."""
        inst = build_hard_instance(0.25, 0.01, 16)
        mech = real_mech(inst.make_sample(0))
        state = new_attack_state(inst, 1, np.random.default_rng(1), np.random.default_rng(2))
        info_round(state, inst, mech)
        query, observed = state.rounds[0]
        table = np.array([query.value(j) for j in range(100)])
        z = state.last_increments
        ones = table == 1.0
        assert 0 < ones.sum() < 100
        z_one, z_zero = z[ones][0], z[~ones][0]
        assert np.all(z[ones] == z_one) and np.all(z[~ones] == z_zero)
        scale = z_one - z_zero  # equals observed - p/4
        p = -z_zero / scale
        assert 0.0 <= p <= 1.0
        np.testing.assert_allclose(z, scale * (table - p), atol=1e-12)
        np.testing.assert_allclose(observed - p / 4, scale, atol=1e-12)
        assert state.scores == pytest.approx(z)
        assert state.rounds_done == 1

    def test_scores_accumulate(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        mech = real_mech(inst.make_sample(0), noise=NoiseSpec())
        state = new_attack_state(inst, 5, np.random.default_rng(1), np.random.default_rng(2))
        running = np.zeros(100)
        for _ in range(5):
            info_round(state, inst, mech)
            running += state.last_increments
        assert state.scores == pytest.approx(running)

    def test_hidden_slot_mean_increment(self):
        """Per-round score increments: 1/(6r) on the hidden slot, 0 elsewhere."""
        inst = build_hard_instance(0.25, 0.01, 16)
        hidden = 42
        mech = real_mech(inst.make_sample(hidden), seed=3, noise=NoiseSpec())
        state = new_attack_state(inst, 30_000, np.random.default_rng(4), np.random.default_rng(5))
        total = np.zeros(100)
        total_sq = np.zeros(100)
        for _ in range(30_000):
            info_round(state, inst, mech)
            z = state.last_increments
            total += z
            total_sq += z * z
            state.rounds.clear()
        mean = total / 30_000
        sd = np.sqrt(total_sq / 30_000 - mean**2)
        margin = 5 * sd / math.sqrt(30_000)
        assert abs(mean[hidden] - 1 / 24) <= margin[hidden]
        others = np.delete(np.arange(100), hidden)
        assert np.all(np.abs(mean[others]) <= margin[others])

    def test_final_query_selects_best_scores_across_blocks(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        state = new_attack_state(inst, 1, np.random.default_rng(0), np.random.default_rng(0))
        state.scores[13] = 5.0
        q = final_query(state, inst)
        assert all(q.value(13 + 100 * b) == 1.0 for b in range(4))
        assert q.value(14) == 0.0

    def test_final_query_tie_goes_to_smallest_slot(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        state = new_attack_state(inst, 1, np.random.default_rng(0), np.random.default_rng(0))
        state.scores[20] = 3.0
        state.scores[60] = 3.0
        assert final_query(state, inst).value(20) == 1.0


class TestScoreAttack:
    def test_noiseless_run_is_exact(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        mech = real_mech(inst.make_sample(55), seed=0)
        res = run_score_attack(
            inst, mech, 80, rng_p=np.random.default_rng(10), rng_table=np.random.default_rng(11)
        )
        assert res.success and res.guess_index == 55
        assert res.sample_deviation == 0.99
        assert res.final_answer == 1.0
        assert res.final_deviation == 0.99
        assert len(res.transcript) == 81

    def test_requires_sample_and_rounds(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        mech = real_mech(inst.make_sample(0))
        with pytest.raises(ValueError, match="at least one info round"):
            run_score_attack(inst, mech, 0, np.random.default_rng(0), np.random.default_rng(0))
        oracle = MechanismState(
            MechanismKind.oracle(),
            NoiseSpec(),
            distribution=build_hard_instance(0.5, 1.0, 4).distribution,
            oracle_seed=1,
        )
        with pytest.raises(ValueError, match="must hold a sample"):
            run_score_attack(
                build_hard_instance(0.5, 1.0, 4),
                oracle,
                2,
                np.random.default_rng(0),
                np.random.default_rng(0),
            )

    def test_rejects_sample_not_from_instance(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        stray = Sample((0, 1) * 8)  # mixes slots 0 and 1
        mech = real_mech(stray)
        with pytest.raises(ValueError):
            run_score_attack(inst, mech, 2, np.random.default_rng(0), np.random.default_rng(0))

    def test_analyst_flags(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        analyst = InfoRoundAnalyst(inst, np.random.default_rng(0), np.random.default_rng(1))
        assert analyst.deterministic is False
        fixed = FixedQueryAnalyst([Query(0.5)])
        assert fixed.deterministic is True
        assert fixed.next_query(()) == Query(0.5)

    def test_identically_seeded_analysts_agree(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        a = InfoRoundAnalyst(inst, np.random.default_rng(6), np.random.default_rng(7))
        b = InfoRoundAnalyst(inst, np.random.default_rng(6), np.random.default_rng(7))
        for _ in range(5):
            assert a.next_query(()) == b.next_query(())


class TestBlockAttack:
    def test_instance_layout(self):
        inst = build_block_instance(0.1, 3)
        assert inst.num_candidates == 10
        assert inst.distribution.support_size == 10
        q = inst.query_for_block(2)
        assert q.value(6) == 1.0 and q.value(9) == 0.0
        assert true_mean(q, inst.distribution) == pytest.approx(0.1)

    def test_gamma_reciprocal_rounding(self):
        assert build_block_instance(1 / 3, 2).num_candidates == 3
        assert build_block_instance(0.01, 2).num_candidates == 100

    def test_noiseless_attack_is_exact(self):
        inst = build_block_instance(0.1, 5)
        held = 6
        mech = real_mech(inst.distribution.samples[held])
        res = run_simple_attack(0.1, 5, mech)
        assert res.breaking_query_index == held
        assert res.worst_deviation == 0.9
        assert len(res.deviations) == 10
        assert res.deviations[held] == 0.9
        assert all(d == pytest.approx(0.1) for i, d in enumerate(res.deviations) if i != held)

    def test_rejects_foreign_sample(self):
        mech = real_mech(Sample((0, 50)))
        with pytest.raises(ValueError, match="matches no candidate block"):
            run_simple_attack(0.1, 2, mech)


class TestAttackConstants:
    def test_calibrated_landmarks(self):
        assert calibrated_attack_constant(4, 0.02) == pytest.approx(1.61)
        assert calibrated_attack_constant(4, 0.01) == pytest.approx(1.13)
        assert calibrated_attack_constant(4, 0.0) == pytest.approx(0.65)

    def test_calibrated_matches_monte_carlo_variance(self):
        """The constant's variance model against simulated score increments.

        One round, hidden slot against one competitor: the gap between their
        increments has mean 1/(6r) and variance (13/180)/r^2 + Var(noise)/3.
        """
        r, b = 4, 0.1
        rng = np.random.default_rng(12)
        M = 400_000
        p = rng.uniform(size=M)
        t_hidden = (rng.uniform(size=M) < p).astype(float)
        t_other = (rng.uniform(size=M) < p).astype(float)
        eta = rng.laplace(0.0, b, size=M)
        gap = ((t_hidden - p) / r + eta) * (t_hidden - t_other)
        model_var = (13 / 180) / r**2 + (2 * b * b) / 3
        assert gap.mean() == pytest.approx(1 / (6 * r), abs=5 * gap.std() / math.sqrt(M))
        assert gap.var() == pytest.approx(model_var, rel=0.02)
        assert calibrated_attack_constant(r, 2 * b * b) == pytest.approx(72 * model_var * 2)

    def test_safety_factor_scales_linearly(self):
        base = calibrated_attack_constant(4, 0.02, safety=1.0)
        assert calibrated_attack_constant(4, 0.02, safety=3.0) == pytest.approx(3 * base)
