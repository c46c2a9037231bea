"""Measurement loop, metrics and output of the adalab benchmark.

An untraced run (``--trace 0``) times batches of one workload until the
run length is used up and reports the end-to-end metrics; set-up time is
taken from fresh processes. A traced run (``--trace 1``) runs a fixed
number of batches twice each, untraced and then under the span recorder,
so its call counts repeat exactly for a seed, and reports per-layer
metrics plus the recorder's overhead.

Host speed on small shared machines drifts by up to 2x over tens of
seconds, and CPU time drifts with it, so a median inside one run cannot
remove it. Every window of at least ``CALIBRATION_WINDOW_S`` of batches and
every set-up probe is therefore bracketed by ``calibrate()``, a fixed
loop that never calls adalab, and its times are divided by the host's
slowdown: the bracketing calibration time over ``NOMINAL_CALIBRATION_S``.
Timings are thus reported at the speed of a host whose calibration takes
that long. Unscaled wall-clock figures are printed in the run line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7
# _calibration()'s typical time on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4
NOMINAL_CALIBRATION_S = 0.016
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_PASSES = 5

LAYERS = (
    "core.Query",
    "core.values_at",
    "core.empirical_mean",
    "core.true_mean",
    "attack.info_round",
    "attack.make_info_query",
    "attack.run_score_attack",
    "attack.next_query",
    "attack.build_hard_instance",
    "attack.distribution",
    "mechanisms.answer.real",
    "mechanisms.answer.oracle",
    "mechanisms.sample_noise",
    "mechanisms.quantize",
    "mechanisms.noise_cdf",
    "mechanisms.answer_probability",
    "bounds.run_llr_experiment",
    "harness.derive_rng",
    "harness.derive_entropy",
    "harness.run_experiment",
)
COUNTERS = ("core.Query.entries", "core.values_at.elements")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and gather work."""
    import numpy as np

    rng = np.random.default_rng(12345)
    table = np.zeros(256)
    big = rng.random(20_000)
    picks = rng.integers(0, big.size, size=10_000)
    acc = 0.0
    start = time.perf_counter()
    for i in range(400):
        overrides = {j: 1.0 for j in range(i % 7, 200, 5)}
        idx = np.fromiter(overrides.keys(), dtype=np.int64, count=len(overrides))
        table[idx] = 1.0
        acc += float(table[idx].mean()) + float(rng.laplace(0.0, 0.1))
        table[idx] = 0.0
    for _ in range(120):
        acc += float(big[picks].mean())
        dense = np.full(big.size, 0.5)
        dense[picks[:500]] = 1.0
        acc += float(rng.random(100).sum())
    counts: dict[int, float] = {}
    for i in range(4000):
        counts[i % 97] = float(i)
        acc += len(counts) + int(counts.get(i % 13, 0.0)) + sum(x for x in (i, i + 1, i + 2))
    return time.perf_counter() - start


def _calibration() -> float:
    # the median passes over a first pass on cold caches and a pass cut into by other work
    return statistics.median(calibrate() for _ in range(CALIBRATION_PASSES))


def _slowdown(before: float, after: float) -> float:
    return (before + after) / (2.0 * NOMINAL_CALIBRATION_S)


def _run_batch(workload, index: int):
    from workloads import Batch

    start = time.perf_counter()
    try:
        return workload.run_batch(index)
    except Exception as exc:  # a raising batch counts as failed; the run goes on
        seconds = time.perf_counter() - start
        return Batch(workload.batch_trials, seconds, failed=workload.batch_trials, errors=[repr(exc)])


def _run_checks(workload) -> list[str]:
    try:
        return workload.run_checks()
    except Exception as exc:  # a raising check fails the run, which still reports
        return [f"run check raised {exc!r}"]


def _percentiles(samples) -> dict[str, float]:
    if len(samples) < 2:
        return {"p50": samples[0], "p95": samples[0], "p99": samples[0]}
    cuts = statistics.quantiles(samples, n=100)
    return {"p50": statistics.median(samples), "p95": cuts[94], "p99": cuts[98]}


def measure(name: str, seed: int, seconds: float, batch_trials: int | None = None) -> tuple[dict, dict]:
    """Time batches of one workload for ``seconds``; metrics and run facts.

    A batch is not started when the last window's time says it would end
    past ``seconds``, but the batches the records digest covers always run.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, batch_trials)
    digest = hashlib.sha256()
    batches = []
    slowdowns = []
    _calibration()  # a process's first passes run on cold caches
    calibration = _calibration()
    window, start = 0.0, time.perf_counter()
    while len(batches) < workload.digest_batches or time.perf_counter() + window - start <= seconds:
        # calibrate once per window of batches, so small batches stay cheap
        first, window_start = len(batches), time.perf_counter()
        while not batches[first:] or time.perf_counter() - window_start < CALIBRATION_WINDOW_S:
            batch = _run_batch(workload, len(batches))
            if len(batches) < workload.digest_batches:
                digest.update(batch.payload)
            batches.append(batch)
        before, calibration = calibration, _calibration()
        slowdowns += [_slowdown(before, calibration)] * (len(batches) - first)
        window = time.perf_counter() - window_start
    wall = time.perf_counter() - start
    run_errors = _run_checks(workload)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    done = [(b, k) for b, k in zip(batches, slowdowns) if not b.failed and b.seconds > 0]
    rates = [b.trials * k / b.seconds for b, k in done] or [0.0]
    metrics = {
        "trials_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    facts = _facts(workload, batches, run_errors)
    facts.update(
        {
            "records_sha256": digest.hexdigest(),
            "digest_trials": sum(b.trials for b in batches[: workload.digest_batches]),
            "wall_s": wall,
            "host_slowdown": statistics.median(slowdowns),
            "wall_trials_per_s": statistics.median([b.trials / b.seconds for b, _ in done] or [0.0]),
        }
    )
    rounds = [s / k for b, k in done for s in b.round_seconds]
    if rounds:  # only a workload that times each analyst round alone has them
        percentiles = _percentiles(rounds)
        facts.update({f"round_us_{p}": v * 1e6 for p, v in percentiles.items()})
        facts["round_samples"] = len(rounds)
    return metrics, facts


def measure_traced(name: str, seed: int, batch_trials: int | None = None):
    """Run a fixed set of batches untraced, then traced; per-layer metrics."""
    from spans import SpanRecorder, self_times
    from workloads import WORKLOADS

    recorder = SpanRecorder()
    with recorder:
        workload = WORKLOADS[name](seed, batch_trials)
    batches = []
    plain = traced = 0.0
    for index in range(workload.trace_batches):
        untraced = _run_batch(workload, index)
        with recorder:
            batch = _run_batch(workload, index)
        if batch.payload != untraced.payload:
            batch.failed = batch.trials
            batch.errors.append(f"batch {index}: traced records differ from untraced")
        plain += untraced.seconds
        traced += batch.seconds
        batches += [untraced, batch]
    run_errors = _run_checks(workload)

    trials = sum(b.trials for b in batches) // 2
    calls = recorder.calls()
    self_s = self_times(recorder.spans)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(calls.get(layer, 0), "count")
        metrics[f"{layer}.calls_per_trial"] = metric(calls.get(layer, 0) / trials, "count/trial")
        metrics[f"{layer}.self_s"] = metric(self_s.get(layer, 0.0), "s")
    for counter in COUNTERS:
        metrics[counter] = metric(recorder.counts.get(counter, 0), "count")
    metrics["trace.overhead_frac"] = metric(traced / plain - 1.0 if plain > 0 else 0.0, "ratio")
    facts = _facts(workload, batches, run_errors)
    facts.update({"traced_trials": trials, "untraced_s": plain, "traced_s": traced, "untraced_targets": recorder.missing})
    return metrics, facts, recorder


def _facts(workload, batches, run_errors) -> dict:
    attempted = sum(b.trials for b in batches)
    failed = sum(b.failed for b in batches)
    if run_errors:
        failed = attempted
    errors = [e for b in batches for e in b.errors] + run_errors
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seed_rule": workload.seed_rule,
        "batch_trials": workload.batch_trials,
        "batches": len(batches),
        "workers": workload.workers,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "errors": errors[:10],
    }


def setup_seconds(name: str, seed: int) -> tuple[float, list[float]]:
    """Median scaled time of fresh processes that import adalab and set up."""
    command = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    times, wall = [], []
    calibration = _calibration()
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        probe_process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in 50 ms steps; a timer bounds the blocking wait instead
        killer = threading.Timer(120, probe_process.kill)
        killer.start()
        try:
            code = probe_process.wait()
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        before, calibration = calibration, _calibration()
        if probe:  # the first probe warms the bytecode and file caches
            times.append(seconds / _slowdown(before, calibration))
            wall.append(seconds)
    return statistics.median(times), wall


def environment(seed: int) -> dict:
    import adalab
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "adalab": getattr(adalab, "__version__", None),
        "commit": git_commit(ROOT),
        "seed": seed,
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def emit(metrics: dict, facts: dict) -> None:
    print(json.dumps({"run": facts}, sort_keys=True))
    result = {
        "correct": facts["failed"] == 0,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
