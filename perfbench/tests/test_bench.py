"""Tests of the benchmark itself: span arithmetic, metric names, tiny runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import adalab  # noqa: E402
import bench  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("f", 2.25, 2.75, 2),
        ("b", 5.0, 9.0, 0),
        ("d", 5.0, 6.0, 4),
        ("d", 6.5, 8.0, 4),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["a"] == pytest.approx(3.0 - 1.0)
    assert got["c"] == pytest.approx(1.0 - 0.5)
    assert got["f"] == pytest.approx(0.5)
    assert got["b"] == pytest.approx(4.0 - 1.0 - 1.5)
    assert got["d"] == pytest.approx(2.5)


def test_recorder_traces_direct_imports_and_restores_them():
    answer, attack_answer = adalab.answer, adalab.attack.answer
    inst = adalab.build_hard_instance(0.25, 0.01, 16)
    mech = adalab.MechanismState(
        adalab.MechanismKind.real(),
        adalab.NoiseSpec(),
        sample=inst.make_sample(3),
        real_rng=adalab.derive_rng(0, 0, "mech_noise_real"),
    )
    rngs = adalab.derive_rng(0, 0, "attack_p"), adalab.derive_rng(0, 0, "attack_bernoulli")
    with SpanRecorder() as recorder:
        adalab.run_score_attack(inst, mech, 2, *rngs)
    calls = recorder.calls()
    assert calls["attack.run_score_attack"] == 1
    assert calls["attack.info_round"] == 2
    assert calls["mechanisms.answer.real"] == 3
    assert calls["core.Query"] == 3
    parents = {recorder.spans[p][0] for name, _, _, p in recorder.spans if name == "mechanisms.answer.real"}
    assert parents == {"attack.info_round", "attack.run_score_attack"}
    assert adalab.answer is answer and adalab.attack.answer is attack_answer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_trips_no_check_and_names_every_metric(name):
    metrics, facts = bench.measure(name, seed=3, seconds=0.0, batch_trials=2)
    assert facts["failed"] == 0 and facts["errors"] == [], facts["errors"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert all(m["value"] > 0 for m in metrics.values())
    # analyst rounds are timed alone only on the adaptive loop
    assert ("round_us_p50" in facts) == (name == "oracle-adaptive")

    traced, facts, _ = bench.measure_traced(name, seed=3, batch_trials=2)
    assert facts["failed"] == 0 and facts["errors"] == [], facts["errors"]
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}


def test_a_raising_first_pool_batch_is_reported_as_failed(monkeypatch):
    def broken(self, index, workers):
        raise RuntimeError("no pool")

    monkeypatch.setattr(WORKLOADS["attack-pool"], "_experiment", broken)
    metrics, facts = bench.measure("attack-pool", seed=3, seconds=0.0, batch_trials=2)
    assert facts["attempted"] > 0 and facts["failed"] == facts["attempted"]
    assert any("no pool" in error for error in facts["errors"])


def test_metric_names_and_units_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_traced_call_counts_repeat_for_a_seed():
    first, _, _ = bench.measure_traced("llr-exact", seed=5, batch_trials=2)
    second, _, _ = bench.measure_traced("llr-exact", seed=5, batch_trials=2)
    counts = {k: v["value"] for k, v in first.items() if ".calls" in k}
    assert counts == {k: v["value"] for k, v in second.items() if ".calls" in k}
    assert counts["mechanisms.noise_cdf.calls"] > 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = [sys.executable, *SPEC["command"], "--workload", "llr-exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
