import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adalab import attack, harness
from adalab.attack import InfoRoundAnalyst, build_hard_instance
from adalab.bounds import composed_epsilon, transcript_accurate
from adalab.core import Query, empirical_mean, true_mean
from adalab.harness import (
    STREAMS,
    ExperimentConfig,
    _mechanism,
    _positive_trial,
    _resolve_params,
    _simple_attack_trial,
    _two_sample_instance,
    check_claim,
    derive_entropy,
    derive_rng,
    evaluate_assertions,
    load_config,
    run_experiment,
    to_json,
    write_outputs,
)
from adalab.mechanisms import MechanismKind, MechanismState, NoiseSpec, run_interaction

# each trial and one-shot kind's required params, at values that resolve
RUNNABLE = {
    "attack": {"eps": 0.25, "gamma": 0.01, "n": 16},
    "simple_attack": {"gamma": 0.2, "n": 10},
    "positive_accuracy": {"eps": 0.005, "gamma": 0.05, "alpha": 0.9, "beta": 0.9, "n": 400},
    "llr": {"eps": 0.0625, "k": 2, "rho": 0.05, "n": 8},
    "divergence": {"mech_a": "real", "mech_b": "oracle", "n": 4, "ones": 2},
}


def attack_config(**over):
    base = dict(
        kind="attack",
        trials=3,
        seed=5,
        params={"eps": 0.25, "gamma": 0.01, "n": 16, "k": 5},
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_deterministic_and_stream_separated(self):
        states = {}
        for stream in STREAMS:
            states[stream] = derive_entropy(42, 3, stream)
            assert derive_entropy(42, 3, stream) == states[stream]
        assert len(set(states.values())) == len(STREAMS)

    def test_trials_do_not_collide(self):
        assert derive_entropy(42, 0, "sample_draw") != derive_entropy(42, 1, "sample_draw")

    def test_rng_and_entropy(self):
        x = derive_rng(7, 0, "mech_noise_real").standard_normal(3)
        y = derive_rng(7, 0, "mech_noise_real").standard_normal(3)
        np.testing.assert_array_equal(x, y)
        e = derive_entropy(7, 0, "mech_noise_oracle")
        assert isinstance(e, int) and 0 <= e < 2**256
        assert e == derive_entropy(7, 0, "mech_noise_oracle")

    def test_unknown_stream(self):
        with pytest.raises(ValueError, match="unknown stream"):
            derive_entropy(1, 0, "nope")

    @pytest.mark.parametrize(
        "kind", [MechanismKind.real(), MechanismKind.oracle(), MechanismKind.hybrid(0.25)], ids=lambda k: k.name
    )
    def test_mechanism_holds_what_its_kind_reads(self, kind):
        """Given all the data, ``_mechanism`` keeps the data ``kind.reads``
        names and holds exactly the trial streams it names."""
        held, dist, _ = _two_sample_instance("llr", 8, 4)
        mech = _mechanism(kind, NoiseSpec(), sample=held, distribution=dist, master=3, trial=2)
        reads = set(kind.reads)
        assert mech.sample is (held if "sample" in reads else None)
        assert mech.distribution is (dist if "distribution" in reads else None)
        if "real_rng" in reads:
            assert mech._real_rng.random() == derive_rng(3, 2, "mech_noise_real").random()
        else:
            assert mech._real_rng is None
        expected_seed = derive_entropy(3, 2, "mech_noise_oracle") if "oracle_seed" in reads else None
        assert mech._oracle_seed == expected_seed


# block edges (64 trials a table) and word-count edges (2**32, 2**64)
EDGE_TRIALS = (0, 1, 63, 64, 127, 128, 2**32 - 65, 2**32 - 1, 2**32, 2**32 + 63, 2**64 - 1, 2**64 + 5)
EDGE_MASTERS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**130, np.int64(5), np.uint64(2**64 - 1))


class TestStreams:
    """``derive_rng`` and ``derive_entropy`` read their words from a cached
    block table; each must equal numpy's SeedSequence chain bit for bit."""

    @staticmethod
    def check(master, trial):
        for index, stream in enumerate(STREAMS):
            seq = np.random.SeedSequence(entropy=master, spawn_key=(trial, index))
            words = seq.generate_state(4, np.uint64)
            ours, theirs = derive_rng(master, trial, stream), np.random.default_rng(seq)
            assert ours.bit_generator.state == theirs.bit_generator.state
            np.testing.assert_array_equal(ours.random(8), theirs.random(8))
            assert derive_entropy(master, trial, stream) == int.from_bytes(words.tobytes(), "little")

    @pytest.mark.parametrize("master", EDGE_MASTERS, ids=repr)
    def test_edge_trials_match_numpy(self, master):
        for trial in EDGE_TRIALS:
            self.check(master, trial)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**130),
        st.one_of(st.integers(0, 1000), st.integers(2**32 - 200, 2**32 + 200), st.integers(0, 2**70)),
    )
    def test_random_masters_and_trials_match_numpy(self, master, trial):
        self.check(master, trial)

    def test_switching_masters_and_blocks_reads_fresh_tables(self):
        for master, trial in ((1, 0), (2, 0), (1, 0), (1, 64), (1, 5), (2, 64)):
            self.check(master, trial)

    def test_true_is_one(self):
        assert derive_entropy(True, True, "attack_p") == derive_entropy(1, 1, "attack_p")
        assert derive_rng(True, True, "attack_p").random() == derive_rng(1, 1, "attack_p").random()

    @pytest.mark.parametrize("master, trial", [(-1, 0), (0, -1)])
    @pytest.mark.parametrize("derive", [derive_rng, derive_entropy])
    def test_negative_values_raise(self, derive, master, trial):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            derive(master, trial, "sample_draw")

    @pytest.mark.parametrize("master, trial", [(1.5, 0), (2.0, 0), (0, 1.5), (0, 2.0), (0, np.float64(2.0))])
    @pytest.mark.parametrize("derive", [derive_rng, derive_entropy])
    def test_non_integers_raise(self, derive, master, trial):
        with pytest.raises((TypeError, ValueError)):
            derive(master, trial, "sample_draw")

    @pytest.mark.parametrize("derive", [derive_rng, derive_entropy])
    def test_unknown_stream_message(self, derive):
        message = f"unknown stream 'nope'; expected one of {STREAMS}"
        with pytest.raises(ValueError) as raised:
            derive(1, 0, "nope")
        assert str(raised.value) == message

    def test_seed_words_are_read_only_and_do_not_spawn(self):
        rng = derive_rng(3, 4, "attack_p")
        with pytest.raises(ValueError):
            rng.bit_generator.seed_seq.generate_state(8)
        with pytest.raises(TypeError):
            rng.spawn(1)
        with pytest.raises(ValueError):
            rng.bit_generator.seed_seq.words[0] = 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(kind="nope")
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(kind="attack", trials=0)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(kind="attack", seed=-1)
        for field in ("trials", "seed"):
            for value in (True, 2.5, 2.0, "2"):
                with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
                    ExperimentConfig(kind="attack", **{field: value})
        for value in (True, 2.5, 2.0, "2", 0, -1):
            with pytest.raises(ValueError, match=f"threads must be None or an integer of at least 1, got {value!r}"):
                ExperimentConfig(kind="attack", threads=value)
        with pytest.raises(ValueError, match="params"):
            ExperimentConfig(kind="attack", params=[1])
        with pytest.raises(ValueError, match="assertions"):
            ExperimentConfig(kind="attack", assertions={})

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"kind": "simple_attack", "trials": 2, "params": {"gamma": 0.2, "n": 10}})
        )
        cfg = load_config(str(path))
        assert cfg.kind == "simple_attack" and cfg.trials == 2
        assert cfg.params == {"gamma": 0.2, "n": 10}

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "attack", "foo": 1}))
        with pytest.raises(ValueError, match=r"unknown config keys: \['foo'\]"):
            load_config(str(path))

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("attack", {"mechanism": "hybrid"}, "hybrid needs epsilon_switch > 0"),
            ("positive_accuracy", {"epsilon_switch": -1}, "hybrid needs epsilon_switch > 0"),
            ("positive_accuracy", {"noise_scale": -1}, "noise scale must be a finite non-negative real"),
            ("attack", {"mechanism": "hybrid", "epsilon_switch": 0}, "hybrid needs epsilon_switch > 0"),
            ("simple_attack", {"noise_scale": -1}, "noise scale must be a finite non-negative real"),
            ("simple_attack", {"grid_step": 0.3}, "grid_step must divide the clip interval"),
            ("divergence", {"mech_a": "reel"}, "unknown mechanism kind 'reel'; expected real, oracle, or hybrid"),
            ("divergence", {"mech_a": "hybrid"}, "hybrid needs epsilon_switch > 0"),
            ("llr", {"epsilon_switch": -1}, "hybrid needs epsilon_switch > 0"),
            (
                "attack",
                {"mechanism": "hybrid", "epsilon_switch": 0.25, "noise_family": "gaussian"},
                "oracle and hybrid mechanisms support only Laplace noise",
            ),
            ("divergence", {"noise_family": "gaussian"}, "oracle and hybrid mechanisms support only Laplace noise"),
        ],
    )
    def test_resolve_builds_the_runs_noise_and_mechanisms(self, kind, bad, message):
        """A param the run's NoiseSpec or MechanismKind rejects stops the run
        at resolve, with the constructor's message, before any trial."""
        with pytest.raises(ValueError, match=message):
            _resolve_params(ExperimentConfig(kind=kind, params={**RUNNABLE[kind], **bad}))

    @pytest.mark.parametrize(
        "kind, over", [("attack", {"mechanism": "hybrid", "epsilon_switch": 0.25}), ("positive_accuracy", {})]
    )
    def test_resolve_leaves_the_support_unbuilt(self, kind, over):
        """Resolving builds the hard instance but not its support: only a
        trial whose mechanism reads the distribution builds it."""
        run = _resolve_params(ExperimentConfig(kind=kind, params={**RUNNABLE[kind], **over}))
        assert run.instance._distribution is None

    def test_simple_attack_trial_leaves_the_support_unbuilt(self):
        """A simple-attack trial builds its held block alone, one id 30
        times, and never the support of 10**6 such samples."""
        run = _resolve_params(ExperimentConfig(kind="simple_attack", params={"gamma": 1e-6, "n": 30}))
        record = _simple_attack_trial(run, 0, 0)
        assert record["identified"] and run.instance._distribution is None

    def test_simple_attack_trial_scans_the_runs_instance(self, monkeypatch):
        """A trial scans the instance its run resolved and builds no other."""
        run = _resolve_params(ExperimentConfig(kind="simple_attack", params={"gamma": 0.1, "n": 5}))
        built = []
        monkeypatch.setattr(attack.HardInstance, "__init__", lambda *args: built.append(args))
        records = [_simple_attack_trial(run, 3, trial) for trial in range(4)]
        assert built == [] and all(record["identified"] for record in records)


class TestRunExperimentKinds:
    def test_attack_records_and_summary(self):
        result = run_experiment(attack_config())
        assert [r["trial"] for r in result.records] == [0, 1, 2]
        for r in result.records:
            assert set(r) == {
                "trial", "j_s", "j_star", "success", "final_deviation", "sample_deviation"
            }
            assert 0 <= r["j_s"] < 100
        s = result.summary
        assert s["kind"] == "attack" and s["k"] == 5
        assert 0.0 <= s["success_rate"] <= 1.0
        assert "constant" in s["params"]

    def test_attack_hybrid_reports_switching(self):
        cfg = attack_config(
            params={
                "eps": 0.25, "gamma": 0.01, "n": 16, "k": 5,
                "mechanism": "hybrid", "epsilon_switch": 0.25,
            }
        )
        result = run_experiment(cfg)
        assert all("switched" in r and "switch_round" in r for r in result.records)
        assert "switch_rate" in result.summary

    @pytest.mark.parametrize("over", [{}, {"mechanism": "hybrid", "epsilon_switch": 0.25}], ids=["real", "hybrid"])
    def test_attack_trials_build_no_query(self, monkeypatch, over):
        """A trial never reads its score attack's transcript, so it builds no
        query; the result builds the transcript once, when it is read."""
        stored, results = [], []
        store, attack_run = Query._store, harness.run_score_attack

        def counted_store(query, *args):
            stored.append(args)
            store(query, *args)

        def kept_attack(*args, **kwargs):
            results.append(attack_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(Query, "_store", counted_store)
        monkeypatch.setattr(harness, "run_score_attack", kept_attack)
        # README's attack: k 178 from the calibrated constant
        run_experiment(attack_config(params={"eps": 0.25, "gamma": 0.01, "n": 16, **over}))
        assert len(results) == 3 and stored == []
        transcript = results[0].transcript
        assert results[0].transcript is transcript
        assert len(transcript) == len(stored) == 179 and transcript.mechanism == over.get("mechanism", "real")

    def test_attack_k_defaults_from_calibration(self):
        cfg = attack_config(trials=1, params={"eps": 0.25, "gamma": 0.01, "n": 16})
        result = run_experiment(cfg)
        # laplace scale 0.1 has variance 0.02: the calibrated constant is 1.61
        assert result.summary["params"]["constant"] == pytest.approx(1.61)
        assert result.summary["k"] == 178

    def test_simple_attack_noiseless_is_exact(self):
        cfg = ExperimentConfig(
            kind="simple_attack",
            trials=4,
            seed=2,
            params={"gamma": 0.2, "n": 10, "noise_scale": 0.0},
        )
        result = run_experiment(cfg)
        s = result.summary
        assert s["identification_rate"] == 1.0
        assert s["min_worst_deviation"] == 0.8
        assert s["rounds"] == 5
        assert all(r["identified"] for r in result.records)

    def test_positive_accuracy_zero_rounds(self):
        cfg = ExperimentConfig(
            kind="positive_accuracy",
            trials=2,
            seed=3,
            params={"eps": 0.25, "gamma": 0.01, "alpha": 0.3, "beta": 0.1, "n": 16, "k": 0},
        )
        result = run_experiment(cfg)
        assert result.summary["accuracy_rate"] == 1.0
        assert result.summary["switch_rate"] == 0.0
        assert all(r["rounds"] == 0 for r in result.records)

    def test_positive_accuracy_resolves_rounds(self):
        cfg = ExperimentConfig(
            kind="positive_accuracy",
            trials=2,
            seed=3,
            params={"eps": 0.005, "gamma": 0.05, "alpha": 0.9, "beta": 0.9, "n": 400},
        )
        result = run_experiment(cfg)
        assert result.summary["k"] == 4
        assert result.summary["noise_scale"] == pytest.approx(0.9 / (2 * np.log(200)))
        for r in result.records:
            assert r["rounds"] == 4
            assert isinstance(r["accurate"], bool)

    def test_llr_summary(self):
        cfg = ExperimentConfig(
            kind="llr",
            trials=30,
            seed=4,
            params={"eps": 0.0625, "k": 3, "rho": 0.05, "n": 8, "noise_scale": 0.3125},
        )
        result = run_experiment(cfg)
        s = result.summary
        assert s["k"] == 3 and s["trials"] == 30
        assert s["threshold"] == composed_epsilon(3, 0.0625, 0.3125, 0.05)
        assert len(result.records) == 1

    @pytest.mark.parametrize("epsilon_switch", [None, 0.001])  # the hybrid never switches, or from round 0
    def test_llr_call_evaluates_its_laws_once(self, monkeypatch, epsilon_switch):
        # the fixed cost of a call, counted: NoiseSpec's tail check reads one
        # noise_cdf call, and one law evaluation of every distinct mean two
        import adalab.bounds
        import adalab.mechanisms

        calls = {}
        for module, name in ((adalab.mechanisms, "noise_cdf"), (adalab.bounds, "output_distribution")):

            def counted(*args, _name=name, _original=getattr(module, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        params = {"eps": 0.03125, "noise_scale": 0.15625, "grid_step": 0.125, "k": 20, "rho": 0.05, "n": 64}
        if epsilon_switch is not None:
            params["epsilon_switch"] = epsilon_switch
        run_experiment(ExperimentConfig(kind="llr", trials=2000, seed=1, params=params))
        assert calls == {"noise_cdf": 3, "output_distribution": 1}

    def test_divergence_real_vs_oracle(self):
        cfg = ExperimentConfig(
            kind="divergence",
            seed=0,
            params={"mech_a": "real", "mech_b": "oracle", "n": 4, "ones": 2},
        )
        s = run_experiment(cfg).summary
        # empirical 0.5 vs true 0.25 under laplace scale 0.1
        assert s["max_divergence_ab"] == pytest.approx(2.5, rel=1e-7)
        same = run_experiment(
            ExperimentConfig(
                kind="divergence",
                seed=0,
                params={"mech_a": "real", "mech_b": "real", "n": 4, "ones": 2},
            )
        ).summary
        assert same["max_divergence_ab"] == 0.0 and same["kl_ab"] == 0.0

    def test_divergence_far_tails_are_finite(self):
        # Laplace scale 0.02: upper-tail bins of the real side's law once
        # cancelled to 0, reporting an infinite divergence
        cfg = ExperimentConfig(
            kind="divergence",
            seed=0,
            params={"mech_a": "real", "mech_b": "oracle", "n": 4, "ones": 2, "noise_scale": 0.02},
        )
        s = run_experiment(cfg).summary
        assert s["max_divergence_ab"] == pytest.approx(s["max_divergence_ba"], rel=0.0, abs=1e-9)
        assert s["max_divergence_ab"] == pytest.approx(0.25 / 0.02, abs=1e-9)
        assert s["kl_ab"] == pytest.approx(s["kl_ba"], abs=1e-9)

    def test_bounds_table(self):
        params = {"eps_values": [0.25], "gamma": 0.01, "beta": 0.1, "alpha": 0.9}
        result = run_experiment(ExperimentConfig(kind="bounds_table", params=params))
        assert result.summary == {"rows": 1, "kind": "bounds_table", "trials": 1, "seed": 0, "params": params}
        row = result.records[0]
        assert (row["k"], row["breaking_rounds"], row["breaking_rounds_matched"]) == (0, 72, 100)
        assert row["budget"] == "[0.25, 0.25, 0.25, 0.25]"
        with pytest.raises(ValueError, match=r"needs params \['alpha'\]"):
            run_experiment(
                ExperimentConfig(kind="bounds_table", params={"eps_values": [0.01], "gamma": 1e-6, "beta": 0.1})
            )
        # an eps at or above alpha certifies nothing: max_accurate_rounds refuses it
        with pytest.raises(ValueError, match="need 0 < eps < alpha"):
            run_experiment(ExperimentConfig(kind="bounds_table", params={**params, "alpha": 0.25}))

    def test_missing_params_named_in_error(self):
        with pytest.raises(ValueError, match=r"attack experiment needs params \['n'\]"):
            run_experiment(
                ExperimentConfig(kind="attack", params={"eps": 0.25, "gamma": 0.01})
            )


def seeded_hybrid(noise, sample, dist, epsilon_switch, master, trial):
    """A hybrid mechanism seeded as the harness seeds trial ``trial``."""
    return MechanismState(
        MechanismKind.hybrid(epsilon_switch),
        noise,
        sample=sample,
        distribution=dist,
        real_rng=derive_rng(master, trial, "mech_noise_real"),
        oracle_seed=derive_entropy(master, trial, "mech_noise_oracle"),
    )


def positive_reference(params, master, trial):
    """``_positive_trial`` one round at a time: the info-round analyst
    against the hybrid, with every mean gathered query by query."""
    eps, k = params["eps"], params["k"]
    inst = build_hard_instance(eps, params["gamma"], params["n"])
    dist = inst.distribution
    sample = inst.make_sample(int(derive_rng(master, trial, "sample_draw").integers(inst.support_size)))
    hybrid = seeded_hybrid(NoiseSpec(), sample, dist, params["epsilon_switch"], master, trial)
    analyst = InfoRoundAnalyst(
        inst, derive_rng(master, trial, "attack_p"), derive_rng(master, trial, "attack_bernoulli")
    )
    transcript = run_interaction(analyst, hybrid, k)
    return {
        "trial": trial,
        "rounds": k,
        "accurate": transcript_accurate(transcript, dist, params["alpha"]),
        "queries_good": all(
            abs(empirical_mean(q, sample) - true_mean(q, dist)) <= eps for q in transcript.queries
        ),
        "switched": hybrid.switched,
        "switch_round": -1 if hybrid.switch_round is None else hybrid.switch_round,
    }


class TestBatchedTrialsMatchPerRound:
    """The batched answer-blind trials against their per-round references,
    record for record. The trials read their params as ``_resolve_params``
    leaves them, defaults filled."""

    @pytest.mark.parametrize(
        "epsilon_switch, covers",
        [
            (0.3, lambda rounds: rounds == {-1}),  # no switch
            (0.05, lambda rounds: 0 in rounds),  # a switch at round 0
            (0.1875, lambda rounds: max(rounds) > 0),  # mid-run switches
        ],
    )
    def test_positive(self, epsilon_switch, covers):
        given = {
            "eps": 0.25, "gamma": 0.01, "n": 16, "k": 40, "alpha": 0.5, "beta": 0.1,
            "noise_scale": 0.1, "epsilon_switch": epsilon_switch,
        }
        run = _resolve_params(ExperimentConfig(kind="positive_accuracy", params=given))
        batched = [_positive_trial(run, 9, trial) for trial in range(12)]
        assert to_json(batched) == to_json([positive_reference(run.params, 9, t) for t in range(12)])
        assert covers({record["switch_round"] for record in batched})


class TestParallelism:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("attack", {"eps": 0.25, "gamma": 0.01, "n": 16, "k": 5}),
            ("attack", {"eps": 0.25, "gamma": 0.01, "n": 16, "k": 5, "mechanism": "hybrid", "epsilon_switch": 0.1}),
            ("positive_accuracy", RUNNABLE["positive_accuracy"]),
            ("simple_attack", RUNNABLE["simple_attack"]),
        ],
        ids=["real-attack", "hybrid-attack", "positive", "simple-attack"],
    )
    def test_thread_pool_matches_serial(self, kind, params):
        """Pool workers read the run as unpickled: the hard instance builds
        its support there, and the block instance arrives as a copy."""
        serial, pooled = (
            run_experiment(ExperimentConfig(kind=kind, trials=4, seed=5, params=params, threads=threads))
            for threads in (1, 2)
        )
        assert pooled.records == serial.records
        assert to_json(pooled.summary) == to_json(serial.summary)


class TestOutputs:
    def test_write_outputs(self, tmp_path):
        result = run_experiment(
            ExperimentConfig(
                kind="simple_attack",
                trials=3,
                seed=2,
                params={"gamma": 0.2, "n": 10, "noise_scale": 0.0},
            )
        )
        paths = write_outputs(result, str(tmp_path / "runs" / "demo"))
        lines = Path(paths["jsonl"]).read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["trial"] == 0
        header = Path(paths["csv"]).read_text().splitlines()[0].split(",")
        assert header == [
            "trial", "held_block", "breaking_query_index", "identified", "worst_deviation"
        ]
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["kind"] == "simple_attack"
        assert summary["identification_rate"] == 1.0

    def test_non_finite_floats_become_strings(self):
        text = to_json({"x": [np.float64("inf"), -float("inf"), float("nan")], "n": np.int64(3)})
        assert text == '{"x": ["Infinity", "-Infinity", "NaN"], "n": 3}'
        values = json.loads(text)["x"]
        assert [float(v) for v in values[:2]] == [float("inf"), float("-inf")]
        assert np.isnan(float(values[2]))


class TestAssertions:
    def test_pass_and_fail(self):
        summary = {"success_rate": 0.9, "nested": {"k": 72}}
        ok = [
            {"metric": "success_rate", "op": "ge", "value": 0.5},
            {"metric": "nested.k", "op": "eq", "value": 72},
        ]
        assert evaluate_assertions(summary, ok) == []
        bad = evaluate_assertions(summary, [{"metric": "success_rate", "op": "ge", "value": 0.95}])
        assert len(bad) == 1 and "not ge" in bad[0]

    def test_malformed_and_missing(self):
        summary = {"x": 1, "params": {"n": 4}}
        out = evaluate_assertions(
            summary,
            [
                {"metric": "y", "op": "ge", "value": 0},
                {"metric": "params", "op": "ge", "value": 1},
            ],
        )
        assert len(out) == 2
        assert "not found" in out[0]
        assert out[1] == "assertion on 'params': metric is not a number"

    @pytest.mark.parametrize(
        "claim, message",
        [
            ({"metric": "x"}, "malformed"),
            ({"metric": "x", "op": "between", "value": 1}, "unknown op"),
            ("not a dict", "malformed"),
            (
                {"metric": "x", "op": "ge", "value": "0.9"},
                "malformed assertion {'metric': 'x', 'op': 'ge', 'value': '0.9'}: value must be a real number",
            ),
            ({"metric": "x", "op": "ge", "value": True}, "malformed"),
            ({"metric": 5, "op": "ge", "value": 1}, "metric must be a non-empty string"),
            ({"metric": "", "op": "ge", "value": 1}, "metric must be a non-empty string"),
            ({"metric": "x", "op": ["ge"], "value": 1}, "unknown op ['ge']"),
            ({"metric": "x", "op": "ge", "value": float("nan")}, "value must be finite"),
            ({"metric": "x", "op": "ge", "value": float("-inf")}, "value must be finite"),
            ({"metric": "x", "op": "ge", "value": 1, "note": "extra"}, "needs exactly the keys metric, op, value"),
        ],
    )
    def test_check_claim_rejects_malformed_claims(self, claim, message):
        """Each malformed claim raises, naming the claim; ``evaluate_assertions``
        raises on it too, rather than reporting a failed claim."""
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            check_claim(claim)
        assert repr(claim) in str(info.value)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_assertions({"x": 1}, [claim])
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(kind="attack", assertions=[claim])

    def test_check_claim_accepts_well_formed_claims(self):
        for claim in (
            {"metric": "params.k", "op": "eq", "value": 178},
            {"metric": "x", "op": "lt", "value": np.float64(-0.5)},
        ):
            check_claim(claim)
