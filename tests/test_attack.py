import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import adalab.attack
from adalab.attack import (
    BlockInstance,
    InfoRoundAnalyst,
    SimpleAttackResult,
    _hidden_slot,
    _score_sums,
    build_block_instance,
    build_hard_instance,
    calibrated_attack_constant,
    draw_info_tables,
    info_query_means,
    info_round,
    instance_shape,
    make_info_query,
    new_attack_state,
    run_score_attack,
    run_simple_attack,
    simple_attack_rounds,
)
from adalab.core import Sample, Transcript, empirical_mean, true_mean
from adalab.harness import derive_entropy, derive_rng
from adalab.mechanisms import MechanismKind, MechanismState, NoiseSpec, answer

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

    @pytest.mark.parametrize("eps, gamma", [(0.25, 5e-324), (1.0, 5e-324), (0.25, 1e-308), (1e-10, 1e-300)])
    def test_gamma_too_small_for_a_float(self, eps, gamma):
        # 1/(eps * gamma) would be 1/0 or inf, which no count can be rounded up from
        with pytest.raises(ValueError, match=f"with 1/gamma and 1/\\(eps \\* gamma\\) finite floats; got {gamma}"):
            instance_shape(eps, gamma)

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 5e-324])
    def test_eps_too_small_for_a_float(self, eps):
        # 1/eps**2 would be 1/0 or inf: once a ZeroDivisionError traceback
        with pytest.raises(ValueError, match=re.escape(f"with 1/eps**2 a finite float; got {eps}")):
            instance_shape(eps, 0.5)

    def test_smallest_eps_that_fits(self):
        r, population, _ = instance_shape(1e-154, 1.0)
        assert r == round(1e154) and population >= math.ceil(1e308) - r

    def test_smallest_gammas_that_fit(self):
        # 1/gamma and 1/(eps * gamma) just below the largest float
        gamma = 1 / 1.7e308
        assert simple_attack_rounds(gamma) == math.ceil(1 / gamma)
        assert instance_shape(0.5, 2 * gamma)[1] == math.ceil(1 / (0.5 * 2 * gamma))
        with pytest.raises(ValueError, match="finite floats; got 5e-324"):
            simple_attack_rounds(5e-324)


class TestHardInstance:
    def test_sample_holds_one_slot_per_block(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        s = inst.make_sample(7)
        assert len(s) == 16
        # four copies of the slot-7 element of each of the four blocks
        assert s.ids.tolist() == [7, 107, 207, 307] and s.counts.tolist() == [4.0] * 4
        assert s == Sample([7, 107, 207, 307] * 4)

    def test_sample_size_sizes_no_array(self):
        # a sample of 10**9 elements holds its four ids and their counts
        s = build_hard_instance(0.25, 0.01, 10**9).make_sample(7)
        assert len(s) == 10**9 and s.ids.tolist() == [7, 107, 207, 307] and s.counts.tolist() == [2.5e8] * 4
        with pytest.raises(ValueError, match=r"sample size 9007199254740996 is not below 2\*\*53"):
            build_hard_instance(0.25, 0.01, 2**53 + 4)

    def test_rejects_bad_sample_sizes(self):
        with pytest.raises(ValueError, match="sample size 2 must be at least the block count 4"):
            build_hard_instance(0.25, 0.01, 2)
        with pytest.raises(ValueError, match="multiple of the block count"):
            build_hard_instance(0.25, 0.01, 18)

    def test_slot_elements_are_block_major(self):
        inst = build_hard_instance(0.25, 0.01, 16)  # 4 blocks of 100 slots
        assert (inst.num_blocks, inst.support_size) == (4, 100)
        for slot, ids in [(0, [0, 100, 200, 300]), (7, [7, 107, 207, 307]), (99, [99, 199, 299, 399])]:
            np.testing.assert_array_equal(inst.slot_elements(slot), ids)
            np.testing.assert_array_equal(inst.make_sample(slot).ids, ids)
            # the slot's indicator is 1 on its element in every block, 0 elsewhere
            query = inst.slot_query(slot)
            assert [query.value(e) for e in ids] == [1.0] * 4 and query.value(ids[0] + 1) == 0.0

    def test_rejects_bad_slot(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        for slot in (-1, 100):
            with pytest.raises(ValueError, match=f"slot {slot} out of range"):
                inst.slot_elements(slot)
            with pytest.raises(ValueError, match=f"slot {slot} out of range"):
                inst.make_sample(slot)

    def test_distribution_is_uniform_over_slots(self):
        inst = build_hard_instance(0.5, 1.0, 4)
        dist = inst.distribution
        assert len(dist.samples) == inst.support_size == 2
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])
        assert inst.final_true_mean == 0.5

    def test_distribution_guards_huge_supports(self):
        inst = build_hard_instance(0.01, 1e-6, 100)
        assert inst.support_size == 1_000_000
        with pytest.raises(ValueError, match=r"support holds m \* r = 1000000 \* 100 elements, above the limit"):
            inst.distribution


class TestInfoRounds:
    def test_info_query_reads_first_block_only(self):
        table = np.zeros(100)
        table[3] = 1.0
        q = make_info_query(table)
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
        assert len(state.rounds) == 1

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
        # slots 0 and 1 mixed; one slot, but outside the 4 blocks of 100
        # slots, or without its block-one id
        for stray in ((0, 1) * 8, (400,) * 16, (107, 207) * 8):
            for attack in (reference_score_attack, run_score_attack):
                mech = real_mech(Sample(stray))
                with pytest.raises(ValueError, match="holds no single slot of the instance"):
                    attack(inst, mech, 2, np.random.default_rng(0), np.random.default_rng(0))

    def test_identically_seeded_analysts_agree(self):
        inst = build_hard_instance(0.25, 0.01, 16)
        a = InfoRoundAnalyst(inst, np.random.default_rng(6), np.random.default_rng(7))
        b = InfoRoundAnalyst(inst, np.random.default_rng(6), np.random.default_rng(7))
        for _ in range(5):
            assert a.next_query(()) == b.next_query(())

    @pytest.mark.parametrize("k", [1, 15, 16, 17, 50])
    def test_analyst_issues_the_drawn_tables_across_block_edges(self, k):
        # the analyst draws its tables in blocks; its queries must be the
        # ones one k-round draw gives, through the one table-to-query rule
        inst = build_hard_instance(0.25, 0.01, 16)
        analyst = InfoRoundAnalyst(inst, np.random.default_rng(4), np.random.default_rng(5))
        _, tables = draw_info_tables(inst, np.random.default_rng(4), np.random.default_rng(5), k)
        issued = [analyst.next_query(()) for _ in range(k)]
        assert issued == [make_info_query(table) for table in tables]


# (eps, gamma, n, k, noise, epsilon_switch or None for the real mechanism,
# expected switching); the support-size-1, 2 and 3 instances and k = 1 pin
# the edges of the row-order score sum
ARRAY_ATTACK_CONFIGS = {
    "readme": (0.25, 0.01, 16, 178, NoiseSpec(), None, "never"),
    "gaussian": (0.25, 0.01, 16, 124, NoiseSpec(family="gaussian"), None, "never"),
    "noiseless": (0.25, 0.01, 16, 40, NOISELESS, None, "never"),
    "eps-half": (0.5, 0.01, 8, 60, NoiseSpec(), None, "never"),
    "one-round": (0.25, 0.01, 16, 1, NoiseSpec(), None, "never"),
    "support-1": (1.0, 1.0, 1, 20, NoiseSpec(), None, "never"),
    "support-2": (0.5, 1.0, 2, 30, NoiseSpec(), None, "never"),
    "support-3": (1.0, 1 / 3, 3, 30, NoiseSpec(), None, "never"),
    "hybrid-closing": (0.25, 0.01, 16, 178, NoiseSpec(), 0.25, "closing"),
    "hybrid-early": (0.25, 0.01, 16, 178, NoiseSpec(), 0.05, "early"),
    "hybrid-never": (0.25, 0.01, 16, 178, NoiseSpec(), 1.0, "never"),
    "hybrid-noiseless": (0.25, 0.01, 16, 40, NOISELESS, 0.25, "closing"),
}


def seeded_attack_run(attack, eps, gamma, n, k, noise, epsilon_switch, trial, master=1):
    """One attack run seeded as the harness seeds trial ``trial``."""
    inst = build_hard_instance(eps, gamma, n)
    sample = inst.make_sample(int(derive_rng(master, trial, "sample_draw").integers(inst.support_size)))
    real_rng = derive_rng(master, trial, "mech_noise_real")
    if epsilon_switch is None:
        mech = MechanismState(MechanismKind.real(), noise, sample=sample, real_rng=real_rng)
    else:
        mech = MechanismState(
            MechanismKind.hybrid(epsilon_switch),
            noise,
            sample=sample,
            distribution=inst.distribution,
            real_rng=real_rng,
            oracle_seed=derive_entropy(master, trial, "mech_noise_oracle"),
        )
    rngs = derive_rng(master, trial, "attack_p"), derive_rng(master, trial, "attack_bernoulli")
    return attack(inst, mech, k, *rngs), mech, rngs


class ReplayedDraws:
    """Stands in for a Generator's ``random``, serving ``values`` in order;
    a Generator's draw of N values equals N single draws, so any split of
    the draws reads the same values."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=np.float64).ravel(), 0

    def random(self, size):
        count = int(np.prod(size))
        drawn = self.values[self.used : self.used + count]
        assert drawn.size == count, "more draws than values"
        self.used += count
        return drawn.reshape(size)


def replayed_attack_pair(inst, held, noise, epsilon_switch, p, uniforms, seed):
    """``reference_score_attack`` and ``run_score_attack`` on mechanisms built
    alike, each with the info tables' p values and uniforms replayed."""
    results = []
    for attack in (reference_score_attack, run_score_attack):
        sample = inst.make_sample(held)
        if epsilon_switch is None:
            mech = real_mech(sample, seed, noise)
        else:
            mech = MechanismState(
                MechanismKind.hybrid(epsilon_switch),
                noise,
                sample=sample,
                distribution=inst.distribution,
                real_rng=np.random.default_rng(seed),
                oracle_seed=seed + 1,
            )
        results.append(attack(inst, mech, len(p), ReplayedDraws(p), ReplayedDraws(uniforms)))
    return results


class TestArrayAttack:
    """``run_score_attack``, which answers its info rounds as arrays, against
    the per-round ``reference_score_attack``."""

    @pytest.mark.parametrize("eps, n", [(0.25, 16), (0.5, 8)])
    def test_info_query_means_match_the_gathers_bit_for_bit(self, eps, n):
        inst = build_hard_instance(eps, 0.01, n)
        sample = inst.make_sample(3)
        hybrid = MechanismState(
            MechanismKind.hybrid(0.25),
            NoiseSpec(),
            sample=sample,
            distribution=inst.distribution,
            real_rng=np.random.default_rng(0),
            oracle_seed=1,
        )
        _, tables = draw_info_tables(inst, np.random.default_rng(2), np.random.default_rng(3), 300)
        emp, tru = info_query_means(inst, hybrid, tables)
        queries = [make_info_query(table) for table in tables]
        assert emp.tolist() == [empirical_mean(q, sample) for q in queries]
        assert tru.tolist() == [true_mean(q, inst.distribution) for q in queries]
        real_emp, real_tru = info_query_means(inst, real_mech(sample), tables)
        assert real_emp.tolist() == emp.tolist() and real_tru is None

    @pytest.mark.parametrize("name", sorted(ARRAY_ATTACK_CONFIGS))
    def test_matches_reference_bit_for_bit(self, name):
        *config, switching = ARRAY_ATTACK_CONFIGS[name]
        k = config[3]
        switch_rounds = []
        for trial in range(6):
            ref, ref_mech, ref_rngs = seeded_attack_run(reference_score_attack, *config, trial)
            got, mech, rngs = seeded_attack_run(run_score_attack, *config, trial)
            for field in (
                "true_index", "guess_index", "success", "final_answer", "final_deviation", "sample_deviation"
            ):
                assert getattr(got, field) == getattr(ref, field), (name, trial, field)
            for field in ("rounds_answered", "switched", "switch_round"):
                assert getattr(mech, field) == getattr(ref_mech, field), (name, trial, field)
            # every stream was consumed exactly as far as the reference consumed it
            for stream, ref_stream in zip((*rngs, mech._real_rng), (*ref_rngs, ref_mech._real_rng)):
                assert stream.random() == ref_stream.random()
            # the same queries and answers, each answer in its bits, so a -0.0 cannot hide
            assert len(got.transcript) == len(ref.transcript) == k + 1
            assert got.transcript.queries == ref.transcript.queries
            assert [np.float64(a).tobytes() for a in got.transcript.answers] == [
                np.float64(a).tobytes() for a in ref.transcript.answers
            ]
            assert got.transcript.mechanism == ref.transcript.mechanism == mech.kind.name
            switch_rounds.append(mech.switch_round)
        if switching == "never":
            assert switch_rounds == [None] * 6
        elif switching == "closing":
            assert k in switch_rounds and set(switch_rounds) <= {None, k}
        else:
            assert min(r for r in switch_rounds if r is not None) <= 4

    @given(
        data=st.data(),
        k=st.integers(1, 300),
        m=st.integers(2, 200),
        r=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_sum_adds_rows_in_order(self, data, k, m, r, seed):
        # the attack's score sum must equal info_round's running sum
        # from zeros bit for bit, signed zeros included (accumulate's last
        # row keeps a -0.0 that this sum does not); this fails if numpy
        # changes its axis-0 reduction order
        tables = np.random.default_rng(seed).random((k, m)) < 0.5
        p = data.draw(hnp.arrays(np.float64, k, elements=st.floats(0.0, 1.0)))
        observed = data.draw(hnp.arrays(np.float64, k, elements=st.floats(-0.5, 1.5)))
        increments = tables.astype(np.float64)
        increments -= p[:, None]
        increments *= (observed - p / r)[:, None]
        running = np.zeros(m)
        for row in increments:
            running += row
        assert increments.sum(axis=0).view(np.int64).tolist() == running.view(np.int64).tolist()

    @given(
        data=st.data(),
        shape=st.sampled_from([(1.0, 1), (1.0, 2), (1.0, 3), (1.0, 5), (0.5, 2), (0.5, 3)]),
        k=st.integers(1, 12),
        noise=st.sampled_from([NOISELESS, NoiseSpec(scale=0.0, grid_step=0.125), NoiseSpec()]),
        epsilon_switch=st.sampled_from([None, 0.25]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_guess_is_the_running_sums_argmax(self, data, shape, k, noise, epsilon_switch, seed):
        # few slots, few rounds and p values and uniforms from small sets make
        # ties common; a slot's uniforms copied from another slot's give it
        # the same table column, so the two tie exactly in every round
        eps, slots = shape
        inst = build_hard_instance(eps, 1.0 / slots, round(1.0 / eps))
        m = inst.support_size
        levels = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.7]) | st.floats(0.0, 1.0, exclude_max=True)
        p = data.draw(st.lists(levels, min_size=k, max_size=k))
        uniforms = np.array(data.draw(st.lists(st.lists(levels, min_size=m, max_size=m), min_size=k, max_size=k)))
        copies = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        uniforms = uniforms[:, copies]
        held = data.draw(st.integers(0, m - 1))
        ref, got = replayed_attack_pair(inst, held, noise, epsilon_switch, p, uniforms, seed)
        for field in ("true_index", "guess_index", "success", "final_answer", "final_deviation", "sample_deviation"):
            assert getattr(got, field) == getattr(ref, field), field

    def test_only_near_ties_take_the_running_sum(self, monkeypatch):
        summed = []

        def counted(*args):
            summed.append(args)
            return _score_sums(*args)

        monkeypatch.setattr(adalab.attack, "_score_sums", counted)
        # two slots with one table column tie exactly: the running sum
        # decides, and its argmax takes the smaller slot
        inst = build_hard_instance(1.0, 0.5, 1)
        p, uniforms = [0.5, 0.25, 0.75], [[0.25, 0.25], [0.5, 0.5], [0.0, 0.0]]
        ref, got = replayed_attack_pair(inst, 1, NOISELESS, None, p, uniforms, 0)
        assert len(summed) == 1 and got.guess_index == ref.guess_index == 0
        # slots 3 and 4 tie in the running sums, and the product puts them
        # within the certified bound of each other, whichever one the BLAS
        # kernel's rounding puts ahead: the running sums decide, for 3
        inst = build_hard_instance(1.0, 0.2, 1)
        p = [0.1, 0.1, 0.7, 0.9, 1 / 3, 1 / 3]
        uniforms = [
            [0.1, 0.7, 1 / 3, 0.7, 0.7],
            [0.25, 0.9, 0.9, 1 / 3, 0.1],
            [0.9, 0.25, 0.7, 0.25, 0.25],
            [0.1, 1 / 3, 0.7, 0.1, 0.25],
            [0.9, 0.9, 0.1, 0.1, 0.1],
            [0.9, 0.9, 1 / 3, 0.1, 0.25],
        ]
        tables = (np.array(uniforms) < np.array(p)[:, None]).astype(np.float64)
        weights = tables[:, 3] - np.array(p) / inst.num_blocks  # the noiseless answers are column 3
        approx, sums = weights @ tables, _score_sums(tables.copy(), np.array(p), weights)
        bound = 8 * (len(p) + 2) * 2.0**-53 * np.abs(weights).sum() + (len(p) + 2) * 2.0**-1074  # as in the attack
        assert sums[3] == sums[4] == sums.max() and np.flatnonzero(approx >= approx.max() - bound).tolist() == [3, 4]
        ref, got = replayed_attack_pair(inst, 3, NOISELESS, None, p, uniforms, 0)
        assert len(summed) == 2 and got.guess_index == ref.guess_index == 3
        # the README config's trials are decided by the product alone
        summed.clear()
        *config, _ = ARRAY_ATTACK_CONFIGS["readme"]
        for trial in range(20):
            got, _, _ = seeded_attack_run(run_score_attack, *config, trial)
            ref, _, _ = seeded_attack_run(reference_score_attack, *config, trial)
            assert got.guess_index == ref.guess_index
        assert summed == []

    def test_refuses_a_foreign_distribution(self):
        # the info queries' means are read from the instance's own layout, so
        # another instance's distribution is refused before any answer
        inst = build_hard_instance(0.25, 0.01, 16)
        hybrid = MechanismState(
            MechanismKind.hybrid(0.25),
            NoiseSpec(),
            sample=inst.make_sample(0),
            distribution=build_hard_instance(0.25, 0.01, 16).distribution,
            real_rng=np.random.default_rng(0),
            oracle_seed=1,
        )
        with pytest.raises(ValueError, match="instance's own"):
            run_score_attack(inst, hybrid, 2, np.random.default_rng(0), np.random.default_rng(0))
        assert hybrid.rounds_answered == 0


def reference_score_attack(inst, mech, k, rng_p, rng_table):
    """The score attack one ``info_round`` per info query, then one
    ``answer`` of the closing indicator on the top-scoring slot, ties to the
    smallest; its result holds the transcript."""
    state = new_attack_state(inst, k, rng_p, rng_table)
    for _ in range(k):
        info_round(state, inst, mech)
    guess_index = int(np.argmax(state.scores))
    closing = inst.slot_query(guess_index)
    final_answer = answer(mech, closing)
    state.rounds.append((closing, final_answer))
    true_index = _hidden_slot(inst, mech.sample)
    target = inst.final_true_mean
    return SimpleNamespace(
        true_index=true_index,
        guess_index=guess_index,
        success=guess_index == true_index,
        final_answer=final_answer,
        final_deviation=abs(final_answer - target),
        sample_deviation=abs(empirical_mean(closing, mech.sample) - target),
        transcript=Transcript(tuple(state.rounds), mechanism=mech.kind.name),
    )


def reference_simple_attack(gamma, n, mech):
    """The block-scan attack one ``answer`` per block, in block order."""
    inst = build_block_instance(gamma, n)
    deviations, breaking = [], -1
    for block in range(inst.num_candidates):
        query = inst.query_for_block(block)
        deviations.append(abs(answer(mech, query) - true_mean(query, inst.distribution)))
        if empirical_mean(query, mech.sample) == 1.0:
            breaking = block
    return SimpleAttackResult(
        worst_deviation=float(deviations[int(np.argmax(deviations))]),
        breaking_query_index=breaking,
        deviations=tuple(float(d) for d in deviations),
    )


class TestBlockAttack:
    def test_instance_layout(self):
        # the hard instance with one block: candidate i is slot i's element n times
        inst = build_block_instance(0.1, 3)
        assert (inst.num_blocks, inst.num_candidates) == (1, 10)
        assert inst.make_sample(2) == Sample([2, 2, 2])
        assert len(inst.distribution.samples) == 10
        assert inst.distribution.samples[2] == inst.make_sample(2)
        q = inst.query_for_block(2)
        assert q == inst.slot_query(2)
        assert q.value(2) == 1.0 and q.value(3) == 0.0
        assert true_mean(q, inst.distribution) == pytest.approx(0.1)

    def test_rejects_bad_block(self):
        inst = build_block_instance(0.1, 3)
        for block in (-1, inst.num_candidates):
            with pytest.raises(ValueError, match=f"slot {block} out of range"):
                inst.query_for_block(block)

    def test_gamma_reciprocal_rounding(self):
        assert build_block_instance(1 / 3, 2).num_candidates == 3
        assert build_block_instance(0.01, 2).num_candidates == 100

    def test_block_counts_past_ten_thousand_run(self):
        # a trial is linear in blocks: the 10,000-block limit it once needed is gone
        inst = build_block_instance(1 / 10_001, 1)
        assert inst.num_candidates == 10_001
        res = run_simple_attack(1 / 10_001, 1, real_mech(inst.make_sample(10_000)))
        assert res.breaking_query_index == 10_000 and res.worst_deviation == 1.0 - 1.0 / 10_001
        assert len(res.deviations) == 10_001

    def test_sizes_past_the_element_limit(self):
        with pytest.raises(ValueError, match="gamma 1e-08 holds 100000000 blocks, above the limit of 20000000"):
            BlockInstance(1e-8, 1)
        # n sizes no array: a candidate is one id and its count
        sample = BlockInstance(0.5, 10**9).make_sample(1)
        assert sample.ids.tolist() == [1] and len(sample) == 10**9

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

    @pytest.mark.parametrize(
        "elements", [(0, 0), (3,), (9, 9, 9), (5, 4), (10,), (20,), (1, 2), (0, 50), (19, 20), (0, 10)]
    )
    def test_held_block_is_the_one_the_means_find(self, elements):
        # any sample of one block's id alone is held there, as the
        # reference's empirical mean of 1 finds; any other is rejected
        ref = reference_simple_attack(0.1, 2, real_mech(Sample(elements)))
        if ref.breaking_query_index == -1:
            with pytest.raises(ValueError, match="holds no single slot of the instance"):
                run_simple_attack(0.1, 2, real_mech(Sample(elements)))
        else:
            assert run_simple_attack(0.1, 2, real_mech(Sample(elements))) == ref

    def test_refuses_mechanisms_that_read_a_distribution(self):
        # the attack answers from the sample alone, so it refuses the oracle
        # and the hybrid before any answer, whatever distribution they hold
        inst = build_block_instance(0.1, 5)
        oracle = MechanismState(MechanismKind.oracle(), NoiseSpec(scale=0.1), distribution=inst.distribution, oracle_seed=1)
        hybrid = MechanismState(
            MechanismKind.hybrid(0.5),
            NoiseSpec(scale=0.1),
            sample=inst.make_sample(1),
            distribution=inst.distribution,
            real_rng=np.random.default_rng(0),
            oracle_seed=1,
        )
        for mech in (oracle, hybrid):
            with pytest.raises(ValueError, match=f"answers from the sample alone; a {mech.kind.name} mechanism reads"):
                run_simple_attack(0.1, 5, mech)
            assert mech.rounds_answered == 0
        assert hybrid._real_rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("gamma, n", [(0.1, 5), (0.125, 3), (1 / 3, 4), (1 / 300, 2)])
    def test_matches_reference_bit_for_bit(self, gamma, n):
        noise = NoiseSpec(scale=0.1)
        inst = build_block_instance(gamma, n)
        for held in sorted({0, inst.num_candidates - 1, *range(1, inst.num_candidates, 3)}):
            ref_mech, mech = (real_mech(inst.make_sample(held), held, noise) for _ in range(2))
            ref = reference_simple_attack(gamma, n, ref_mech)
            got = run_simple_attack(gamma, n, mech)
            assert [d.hex() for d in got.deviations] == [d.hex() for d in ref.deviations]
            assert got.worst_deviation.hex() == ref.worst_deviation.hex()
            assert got.breaking_query_index == ref.breaking_query_index == held
            assert mech.rounds_answered == ref_mech.rounds_answered == inst.num_candidates
            assert mech._real_rng.random() == ref_mech._real_rng.random()


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
