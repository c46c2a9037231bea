"""The benchmark's workloads: their batches of trials and output checks.

Every workload drives adalab through its public package namespace, looked
up at call time so the span recorder's wrappers are seen. A batch is a
fixed number of trials whose inputs depend only on the run seed and the
batch index, so a run that stops on the clock has run exactly the inputs
of any other run with that seed, up to where it stopped.

Checks come in two kinds. A trial check is exact and marks one trial
failed. A run check is statistical (the acceptance suite's Monte Carlo
bounds) and is applied to all trials of the run together, because a
batch of a few trials is too small for the bound to hold reliably.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import adalab

SEED_STRIDE = 100_000

_clock = time.perf_counter


def batch_seed(seed: int, index: int) -> int:
    """Master seed of one batch of a harness workload."""
    return seed * SEED_STRIDE + index


@dataclass
class Batch:
    trials: int
    seconds: float
    failed: int = 0
    payload: bytes = b""
    round_seconds: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _records_bytes(records) -> bytes:
    return json.dumps(records, sort_keys=True).encode()


class Workload:
    name = ""
    seed_rule = f"batch b runs run_experiment with seed = seed * {SEED_STRIDE} + b"
    batch_trials = 1
    trace_batches = 1
    digest_batches = 2
    workers = 1

    def __init__(self, seed: int, batch_trials: int | None = None):
        self.seed = seed
        if batch_trials is not None:
            self.batch_trials = batch_trials
        self.setup()

    def setup(self) -> None:
        """Work a user pays once before the first trial."""

    def run_batch(self, index: int) -> Batch:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Statistical checks over every trial run so far."""
        return []


# --- score attack against the real mechanism (README's first command) -------------

ATTACK_PARAMS = {"eps": 0.25, "gamma": 0.01, "n": 16}
ATTACK_BETA = 0.1


class AttackReal(Workload):
    name = "attack-real"
    # 60 trials per run_experiment call. On a 2-vCPU x86-64 VM a serial call's fixed cost
    # (~5 ms of ~1.8 s) is too small for call size to move the rate, and calls this short
    # let the host calibration bracket each one closely.
    batch_trials = 60

    def setup(self) -> None:
        eps, gamma, n = ATTACK_PARAMS["eps"], ATTACK_PARAMS["gamma"], ATTACK_PARAMS["n"]
        blocks, _, _ = adalab.instance_shape(eps, gamma)
        constant = adalab.calibrated_attack_constant(blocks, adalab.NoiseSpec().variance())
        self.k = adalab.score_attack_rounds(eps, gamma, ATTACK_BETA, constant)
        self.support = adalab.build_hard_instance(eps, gamma, n).support_size
        self.trials = 0
        self.successes = 0

    def _experiment(self, index: int, workers: int):
        config = adalab.ExperimentConfig(
            kind="attack",
            trials=self.batch_trials,
            seed=batch_seed(self.seed, index),
            params=dict(ATTACK_PARAMS),
            threads=workers,
        )
        start = _clock()
        result = adalab.run_experiment(config)
        return result, _clock() - start

    def run_batch(self, index: int) -> Batch:
        result, seconds = self._experiment(index, self.workers)
        batch = Batch(self.batch_trials, seconds)
        # test_03's invariant: a correct guess pins the empirical mean at 1
        bad = [
            r
            for r in result.records
            if not (
                0 <= r["j_s"] < self.support
                and 0 <= r["j_star"] < self.support
                and r["success"] == (r["j_s"] == r["j_star"])
                and (not r["success"] or r["sample_deviation"] == 0.99)
            )
        ]
        if bad:
            batch.failed = len(bad)
            batch.errors.append(f"{len(bad)} bad attack records, first {bad[0]}")
        if result.summary["k"] != self.k:
            batch.failed = self.batch_trials
            batch.errors.append(f"k resolved to {result.summary['k']}, expected {self.k}")
        self.trials += len(result.records)
        self.successes += sum(bool(r["success"]) for r in result.records)
        batch.payload = _records_bytes(result.records)
        return batch

    def run_checks(self) -> list[str]:
        rate = self.successes / max(self.trials, 1)
        return [] if rate >= 0.9 else [f"success_rate {rate:.4f} < 0.9 over {self.trials} trials"]


class AttackPool(AttackReal):
    """attack-real's config through the harness's two-worker process pool."""

    name = "attack-pool"
    # attack-real's 60-trial calls, so pool and serial are compared at one call size.
    # Starting and joining the pool (~36 ms a call on a 2-vCPU x86-64 VM) is about 3% of
    # a call; README's 200-trial calls would cut that to 1% but gave 5 calls a run, and
    # run-to-run spreads of 0.10-0.18 instead of 0.06-0.10.
    batch_trials = 60
    workers = 2

    def setup(self) -> None:
        super().setup()
        self.first_payload = None

    def run_batch(self, index: int) -> Batch:
        batch = super().run_batch(index)
        if index == 0:
            self.first_payload = batch.payload
        return batch

    def run_checks(self) -> list[str]:
        # README: records are identical to a serial run's for any thread count
        errors = super().run_checks()
        if self.first_payload is None:
            return errors + ["batch 0 produced no records to compare with a serial run"]
        result, _ = self._experiment(0, 1)
        if _records_bytes(result.records) != self.first_payload:
            errors.append("pool records of batch 0 differ from the serial run's")
        return errors


# --- adaptive analyst against the oracle (acceptance test_09's loop) ----------------

ORACLE_EPS = 0.01
ORACLE_INSTANCE = (0.01, 0.01, 100)
ORACLE_GAMMA = 1e-6
ORACLE_ALPHA = 0.3
ORACLE_ROUNDS = 50


class OracleAdaptive(Workload):
    name = "oracle-adaptive"
    seed_rule = "trial t draws derive_rng(seed, t, stream) and derive_entropy(seed, t, stream), as test_09 does"
    batch_trials = 5
    trace_batches = 32

    def setup(self) -> None:
        self.inst = adalab.build_hard_instance(*ORACLE_INSTANCE)
        self.dist = self.inst.distribution
        self.scale = adalab.accuracy_noise_scale(ORACLE_ALPHA, ORACLE_EPS)
        self.noise = adalab.NoiseSpec(scale=self.scale)
        self.trials = 0
        self.jointly_good = 0

    def run_batch(self, index: int) -> Batch:
        inst, dist, seed = self.inst, self.dist, self.seed
        batch = Batch(self.batch_trials, 0.0)
        answers: list[float] = []
        for trial in range(index * self.batch_trials, (index + 1) * self.batch_trials):
            start = _clock()
            slot = int(adalab.derive_rng(seed, trial, "sample_draw").integers(inst.support_size))
            sample = inst.make_sample(slot)
            mech = adalab.MechanismState(
                adalab.MechanismKind.oracle(),
                self.noise,
                distribution=dist,
                oracle_seed=adalab.derive_entropy(seed, trial, "mech_noise_oracle"),
            )
            analyst = adalab.InfoRoundAnalyst(
                inst, adalab.derive_rng(seed, trial, "attack_p"), adalab.derive_rng(seed, trial, "attack_bernoulli")
            )
            rounds = []
            means = []
            good = True
            for _ in range(ORACLE_ROUNDS):
                round_start = _clock()
                query = analyst.next_query(tuple(rounds))
                observed = adalab.answer(mech, query)
                batch.round_seconds.append(_clock() - round_start)
                rounds.append((query, observed))
                tru = adalab.true_mean(query, dist)
                emp = adalab.empirical_mean(query, sample)
                means.append((tru, emp))
                good = good and abs(emp - tru) <= ORACLE_EPS and abs(observed - tru) <= ORACLE_ALPHA
            batch.seconds += _clock() - start
            self.trials += 1
            self.jointly_good += good
            error = self._check_trial(slot, rounds, means)
            if error:
                batch.failed += 1
                batch.errors.append(f"trial {trial}: {error}")
            answers.extend(a for _, a in rounds)
        batch.payload = json.dumps(answers).encode()
        return batch

    def _check_trial(self, slot: int, rounds, means) -> str | None:
        # Support sample j holds slot j of each block once, and info queries
        # live on block one, so both means have closed forms.
        blocks, support = self.inst.num_blocks, self.inst.support_size
        spec = self.noise
        for (query, observed), (tru, emp) in zip(rounds, means):
            if abs(tru - len(query.overrides) / (blocks * support)) > 1e-12:
                return f"true mean {tru} is not {len(query.overrides)}/{blocks * support}"
            if abs(emp - query.value(slot) / blocks) > 1e-12:
                return f"empirical mean {emp} is not {query.value(slot)}/{blocks}"
            if not (spec.clip_lo <= observed <= spec.clip_hi):
                return f"answer {observed} outside the output interval"
        return None

    def floor(self) -> float:
        escape = adalab.noise_escape_mass(ORACLE_ROUNDS, ORACLE_ALPHA, self.scale)
        return 1.0 - ORACLE_ROUNDS * ORACLE_GAMMA - escape - 3.0 * math.sqrt(1.0 / max(self.trials, 1))

    def run_checks(self) -> list[str]:
        frac = self.jointly_good / max(self.trials, 1)
        floor = self.floor()
        if frac >= floor:
            return []
        return [f"jointly good fraction {frac:.4f} < floor {floor:.4f} over {self.trials} trials"]


# --- composed log-likelihood ratios on a coarse grid (README llr command) ----------

LLR_PARAMS = {"eps": 0.03125, "noise_scale": 0.15625, "grid_step": 0.125, "k": 20, "rho": 0.05, "n": 64}


class LlrExact(Workload):
    name = "llr-exact"
    # README runs 50000 trials in one call; 2000 (a few seconds) leave several calls per run,
    # and a call's fixed cost (~0.9 ms on a 2-vCPU x86-64 VM) is under 0.1% of it
    batch_trials = 2000

    def setup(self) -> None:
        p = LLR_PARAMS
        self.threshold = adalab.composed_epsilon(p["k"], p["eps"], p["noise_scale"], p["rho"])
        self.trials = 0
        self.exceed = {"frac_exceed_hybrid": 0, "frac_exceed_oracle": 0}

    def run_batch(self, index: int) -> Batch:
        config = adalab.ExperimentConfig(
            kind="llr", trials=self.batch_trials, seed=batch_seed(self.seed, index), params=dict(LLR_PARAMS)
        )
        start = _clock()
        result = adalab.run_experiment(config)
        batch = Batch(self.batch_trials, _clock() - start)
        (record,) = result.records
        counts = {key: record[key] * self.batch_trials for key in self.exceed}
        if (
            record["threshold"] != self.threshold
            or record["trials"] != self.batch_trials
            or record["k"] != LLR_PARAMS["k"]
            or any(abs(c - round(c)) > 1e-9 or not 0 <= c <= self.batch_trials for c in counts.values())
        ):
            batch.failed = self.batch_trials
            batch.errors.append(f"bad llr record {record}")
        self.trials += self.batch_trials
        for key, count in counts.items():
            self.exceed[key] += round(count)
        batch.payload = _records_bytes(result.records)
        return batch

    def run_checks(self) -> list[str]:
        rho = LLR_PARAMS["rho"]
        cap = rho + 2.0 * math.sqrt(rho * (1.0 - rho) / max(self.trials, 1))
        return [
            f"{key} {count / self.trials:.4f} > cap {cap:.4f} over {self.trials} trials"
            for key, count in self.exceed.items()
            if count / max(self.trials, 1) > cap
        ]


WORKLOADS = {w.name: w for w in (AttackReal, OracleAdaptive, LlrExact, AttackPool)}
