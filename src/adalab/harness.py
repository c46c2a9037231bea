"""Reproducible experiment harness.

Every random choice in an experiment draws from a stream derived as
SeedSequence(master, spawn_key=(trial, stream_index)), so trials are
independent, re-runnable in any order, and stable under parallel
execution. The state words of every stream of 64 consecutive trials are
computed at once from one SeedSequence pool with array arithmetic
(``mechanisms._spawned_state_words``, which also gives the oracle its round
words) and the latest such table is cached, so a trial's streams cost a
table lookup and a PCG64 seeding each (``mechanisms._StateWords``);
tests/test_harness.py::TestStreams checks them against numpy bit for bit.
Experiments are described by a flat JSON config, run to a list
of per-trial records plus a summary, and written as JSONL (one record per
line), CSV (same records, flat columns), and a summary JSON. ``KINDS``
declares each experiment kind once: its CLI command, its params, its
resolver and its runner; the CLI and param validation both read it.

A run is resolved once: ``_resolve_params`` and the kind's resolver build its
params, noise spec, mechanism kinds and instance into a ``Run``, which every
trial reads, in this process or a pool worker, building none of them again.
Resolving checks every array a trial sizes from the params (n sizes none: a
sample holds its ids' counts) with ``attack.check_elements``, the hybrid's
support (m * r ids) too, which no resolve builds; the LLR checks its
``trials * k`` draw before it draws.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import operator
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .attack import (
    BlockInstance,
    FixedQueryAnalyst,
    HardInstance,
    build_block_instance,
    calibrated_attack_constant,
    check_elements,
    draw_info_tables,
    info_query_means,
    run_score_attack,
    scan_blocks,
    simple_attack_rounds,
)
from .bounds import (
    accuracy_noise_scale,
    breaking_rounds_details,
    check_llr_draw,
    divergence_diagnostics,
    max_accurate_rounds,
    max_accurate_rounds_details,
    run_llr_experiment,
    score_attack_rounds,
)
from .core import FiniteDistribution, Query, Sample, check_sample_size
from .mechanisms import (
    _BLOCK_TRIALS,
    MechanismKind,
    MechanismState,
    NoiseSpec,
    _StateWords,
    _spawned_state_words,
    answer_batch,
)

STREAMS = (
    "sample_draw",
    "mech_noise_real",
    "mech_noise_oracle",
    "attack_bernoulli",
    "attack_p",
)


@lru_cache(maxsize=1)
def _stream_block(master: int, block: int) -> np.ndarray:
    """The state words of every stream of trials ``block * 64`` to ``block * 64 + 63``."""
    return _spawned_state_words(master, block * _BLOCK_TRIALS, _BLOCK_TRIALS, len(STREAMS))


def _stream_words(master: int, trial: int, stream: str) -> np.ndarray:
    """``SeedSequence(master, spawn_key=(trial, stream_index)).generate_state(4, np.uint64)``."""
    try:
        index = STREAMS.index(stream)
    except ValueError:
        raise ValueError(f"unknown stream {stream!r}; expected one of {STREAMS}") from None
    master, trial = operator.index(master), operator.index(trial)
    if master < 0 or trial < 0:
        raise ValueError("expected non-negative integer")
    block, row = divmod(trial, _BLOCK_TRIALS)
    return _stream_block(master, block)[row, index]


def derive_rng(master: int, trial: int, stream: str) -> np.random.Generator:
    """The Generator ``default_rng(SeedSequence(master, spawn_key=(trial,
    stream_index)))``, bit for bit. Its ``bit_generator.seed_seq`` holds only
    the four state words, so ``spawn()`` is unsupported."""
    return np.random.Generator(np.random.PCG64(_StateWords(_stream_words(master, trial, stream))))


def derive_entropy(master: int, trial: int, stream: str) -> int:
    """256-bit integer seed, for mechanisms that key per-round streams."""
    return int.from_bytes(_stream_words(master, trial, stream).tobytes(), "little")


@dataclass
class ExperimentConfig:
    kind: str
    trials: int = 1
    seed: int = 0
    params: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    out: str | None = None
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        threads = self.threads
        if threads is not None and (isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1):
            raise ValueError(f"threads must be None or an integer of at least 1, got {threads!r}")
        if not isinstance(self.params, dict):
            raise ValueError("params must be a JSON object")
        if not isinstance(self.assertions, list):
            raise ValueError("assertions must be a list")
        for claim in self.assertions:
            check_claim(claim)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**raw)


@dataclass
class ExperimentResult:
    records: list[dict]
    summary: dict


# --- shared builders ------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One run's resolved params (the summary's), noise spec (unread by a
    bounds table), every mechanism kind its trials build, in order, and its
    instance: a ``HardInstance`` for attack and positive, a ``BlockInstance`` for
    the simple attack, ``(held, dist, indicator)`` for llr and divergence."""

    params: dict
    noise: NoiseSpec
    kinds: tuple[MechanismKind, ...]
    instance: object


# the param behind each NoiseSpec field; a kind without one runs at the field's default
_NOISE_FIELDS = (("noise_family", "family"), ("noise_scale", "scale"), ("grid_step", "grid_step"))


def _noise_spec(params: dict) -> NoiseSpec:
    return NoiseSpec(**{field: params[key] for key, field in _NOISE_FIELDS if key in params})


def _mechanism(
    kind: MechanismKind,
    noise: NoiseSpec,
    *,
    sample: Sample,
    distribution: FiniteDistribution | None = None,
    master: int,
    trial: int,
) -> MechanismState:
    """``kind``'s mechanism for one trial: of the data given, it holds what
    ``kind.reads`` names, and it derives only the noise streams that names."""
    reads = kind.reads
    return MechanismState(
        kind,
        noise,
        sample=sample if "sample" in reads else None,
        distribution=distribution if "distribution" in reads else None,
        real_rng=derive_rng(master, trial, "mech_noise_real") if "real_rng" in reads else None,
        oracle_seed=derive_entropy(master, trial, "mech_noise_oracle") if "oracle_seed" in reads else None,
    )


def _switch_round(mech: MechanismState) -> int:
    """The record's ``switch_round``: -1 if ``mech`` never switched."""
    return -1 if mech.switch_round is None else mech.switch_round


def _two_sample_instance(kind: str, n: int, ones: int, origin: str = "") -> tuple[Sample, FiniteDistribution, Query]:
    """A held sample of ``ones`` copies of element 1 and n - ones zeros, the
    distribution that draws it or the all-zeros sample equally often, and
    the indicator query of element 1.

    The indicator then has true mean ones/(2n) and empirical mean ones/n on
    the held sample, an exact gap of ones/(2n). ``ones`` outside 1..n is an
    error naming ``kind`` and, for a derived count, its ``origin``.
    """
    if not 1 <= ones <= n:
        raise ValueError(f"{kind} experiment needs 1 <= ones <= n, got ones {ones}{origin} and n {n}")
    check_sample_size(n)
    held = Sample.from_counts([0, 1], [n - ones, ones]) if ones < n else Sample.from_counts([1], [n])
    return held, FiniteDistribution([Sample.from_counts([0], [n]), held], np.array([0.5, 0.5])), Query(0.0, {1: 1.0})


# --- per-trial kinds: resolvers and runners ------------------------------------


def _check_trial_arrays(kind: str, params: dict, inst: HardInstance, support: bool) -> None:
    """An attack or positive trial's info tables (k * m), and the support
    (m * r ids) if it reads it, fit the element limit."""
    k, m, eps, gamma = params["k"], inst.support_size, params["eps"], params["gamma"]
    what = f"{kind} experiment's info tables hold k * m = {k} * {m} elements (m from eps {eps} and gamma {gamma})"
    check_elements(what, k * m)
    if support:
        inst.check_support()


def _resolve_attack(params: dict) -> tuple[tuple[str, ...], HardInstance]:
    if params["mechanism"] not in ("real", "hybrid"):
        raise ValueError(f"attack mechanism must be real or hybrid, got {params['mechanism']!r}")
    if not 0.0 < params["beta"] < 1.0:
        raise ValueError(f"attack experiment needs 0 < beta < 1, got beta {params['beta']}")
    inst = HardInstance(params["eps"], params["gamma"], params["n"])
    # the summary reports the calibrated constant, whether k is given or derived from it
    params["constant"] = calibrated_attack_constant(inst.num_blocks, _noise_spec(params).variance())
    if "k" not in params:
        params["k"] = score_attack_rounds(params["eps"], params["gamma"], params["beta"], params["constant"])
    if params["k"] < 1:
        raise ValueError(f"attack experiment needs k >= 1 info rounds, got k {params['k']}")
    _check_trial_arrays("attack", params, inst, support=params["mechanism"] == "hybrid")
    return (params["mechanism"],), inst


def _attack_trial(run: Run, master: int, trial: int) -> dict:
    inst, (kind,) = run.instance, run.kinds
    slot = int(derive_rng(master, trial, "sample_draw").integers(inst.support_size))
    sample = inst.make_sample(slot)
    # the real attack never builds the instance's support
    dist = inst.distribution if "distribution" in kind.reads else None
    mech = _mechanism(kind, run.noise, sample=sample, distribution=dist, master=master, trial=trial)
    result = run_score_attack(
        inst,
        mech,
        run.params["k"],
        rng_p=derive_rng(master, trial, "attack_p"),
        rng_table=derive_rng(master, trial, "attack_bernoulli"),
    )
    record = {
        "trial": trial,
        "j_s": result.true_index,
        "j_star": result.guess_index,
        "success": bool(result.success),
        "final_deviation": result.final_deviation,
        "sample_deviation": result.sample_deviation,
    }
    if kind.name == "hybrid":
        record["switched"] = mech.switched
        record["switch_round"] = _switch_round(mech)
    return record


def _resolve_simple_attack(params: dict) -> tuple[tuple[str, ...], BlockInstance]:
    return ("real",), build_block_instance(params["gamma"], params["n"])


def _simple_attack_trial(run: Run, master: int, trial: int) -> dict:
    inst = run.instance
    held = int(derive_rng(master, trial, "sample_draw").integers(inst.num_candidates))
    mech = _mechanism(run.kinds[0], run.noise, sample=inst.make_sample(held), master=master, trial=trial)
    result = scan_blocks(inst, mech)
    return {
        "trial": trial,
        "held_block": held,
        "breaking_query_index": result.breaking_query_index,
        "identified": result.breaking_query_index == held,
        "worst_deviation": result.worst_deviation,
    }


def _resolve_positive(params: dict) -> tuple[tuple[str, ...], HardInstance]:
    eps = params["eps"]
    params.setdefault("noise_scale", accuracy_noise_scale(params["alpha"], eps))
    params.setdefault("epsilon_switch", eps)
    if not 0.0 < params["beta"] < 1.0:
        raise ValueError(f"positive_accuracy experiment needs 0 < beta < 1, got beta {params['beta']}")
    if "k" not in params:
        params["k"] = max_accurate_rounds(eps, params["gamma"], params["alpha"], params["beta"])
    if params["k"] < 0:
        raise ValueError(f"positive_accuracy experiment needs k >= 0 rounds, got k {params['k']}")
    inst = HardInstance(eps, params["gamma"], params["n"])
    _check_trial_arrays("positive_accuracy", params, inst, support=True)
    return ("hybrid",), inst


def _positive_trial(run: Run, master: int, trial: int) -> dict:
    params, inst = run.params, run.instance
    k = params["k"]
    slot = int(derive_rng(master, trial, "sample_draw").integers(inst.support_size))
    sample = inst.make_sample(slot)
    mech = _mechanism(run.kinds[0], run.noise, sample=sample, distribution=inst.distribution, master=master, trial=trial)
    _, tables = draw_info_tables(
        inst, derive_rng(master, trial, "attack_p"), derive_rng(master, trial, "attack_bernoulli"), k
    )
    emp, tru = info_query_means(inst, mech, tables)
    answers = answer_batch(mech, emp, tru)
    return {
        "trial": trial,
        "rounds": k,
        "accurate": bool(np.all(np.abs(answers - tru) <= params["alpha"])),
        "queries_good": bool(np.all(np.abs(emp - tru) <= params["eps"])),
        "switched": mech.switched,
        "switch_round": _switch_round(mech),
    }


# --- parameter resolution -------------------------------------------------------


def _resolve_params(config: ExperimentConfig) -> Run:
    """Type the params by the kind's table and fill its defaults; the kind's
    ``resolve`` fills the derived ones, so runners and summaries read every
    param resolved, and builds the instance. An ``epsilon_switch`` on a run
    with no hybrid is refused here, for every kind. Then build the run's noise spec
    and mechanism kinds, once: their own checks stop a bad run before its
    first trial, and every trial reads them from the returned ``Run``. The
    resolver checks the size of every array a trial builds from the params,
    the hard instance's support (m * r ids) included, but builds no support: the
    first hybrid trial in a process builds it, and the real attack never does."""
    kind = config.kind
    declared = KINDS[kind].params
    keys = [p.key for p in declared]
    unknown = sorted(set(config.params) - set(keys))
    if unknown:
        raise ValueError(f"{kind} experiment has unknown params {unknown}; its params are {keys}")
    missing = [p.key for p in declared if p.required and p.key not in config.params]
    if missing:
        raise ValueError(f"{kind} experiment needs params {missing}")
    params = {}
    for p in declared:
        if p.key in config.params:
            params[p.key] = _typed(kind, p, config.params[p.key])
        elif p.default is not None:
            params[p.key] = p.default
    names, instance = KINDS[kind].resolve(params)
    if "epsilon_switch" in params and "hybrid" not in names:
        raise ValueError(
            f"epsilon_switch applies only to the hybrid; the {kind} experiment runs {' and '.join(map(repr, names))}"
        )
    noise = _noise_spec(params)
    # only the hybrid reads the switch threshold
    kinds = tuple(MechanismKind(name, params.get("epsilon_switch") if name == "hybrid" else None) for name in names)
    for mechanism_kind in kinds:
        mechanism_kind.check_noise(noise)
    return Run(params, noise, kinds, instance)


_TYPE_NAMES = {int: "an integer", float: "a real number", str: "a string"}


def _typed(kind: str, param: Param, value):
    """``value`` as ``param``'s declared type, or a non-empty list of it for
    a list param."""
    if param.nargs is None:
        return _as_type(kind, param, value)
    if not isinstance(value, list) or not value:
        raise ValueError(f"{kind} experiment param {param.key!r} must be a non-empty list, got {value!r}")
    return [_as_type(kind, param, item) for item in value]


def _as_type(kind: str, param: Param, value):
    """A bool, a non-integral value for an int, or a string where a number
    belongs is an error naming the kind and the param."""
    if param.type is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        ok = False
    else:
        ok = param.type is float or isinstance(value, numbers.Integral) or float(value).is_integer()
    if not ok:
        raise ValueError(f"{kind} experiment param {param.key!r} must be {_TYPE_NAMES[param.type]}, got {value!r}")
    return param.type(value)


# --- summary aggregation ----------------------------------------------------------


def _mean_radius(values) -> tuple[float, float]:
    """Sample mean and a three-sigma-of-the-mean radius."""
    arr = np.asarray(list(values), dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, 3.0 * float(arr.std(ddof=1)) / math.sqrt(arr.size)


def _rate(records: list[dict], key: str) -> tuple[float, float]:
    return _mean_radius(float(bool(r[key])) for r in records)


def _summarize_attack(records: list[dict], params: dict) -> dict:
    success_rate, success_radius = _rate(records, "success")
    final_mean, final_radius = _mean_radius(r["final_deviation"] for r in records)
    summary = {
        "success_rate": success_rate,
        "success_radius": success_radius,
        "mean_final_deviation": final_mean,
        "final_deviation_radius": final_radius,
        "mean_sample_deviation": _mean_radius(r["sample_deviation"] for r in records)[0],
        "min_sample_deviation_on_success": min(
            (r["sample_deviation"] for r in records if r["success"]), default=float("nan")
        ),
        "k": params["k"],
    }
    if records and "switched" in records[0]:
        summary["switch_rate"] = _rate(records, "switched")[0]
    return summary


def _summarize_simple_attack(records: list[dict], params: dict) -> dict:
    worst_mean, worst_radius = _mean_radius(r["worst_deviation"] for r in records)
    return {
        "identification_rate": _rate(records, "identified")[0],
        "mean_worst_deviation": worst_mean,
        "worst_deviation_radius": worst_radius,
        "min_worst_deviation": min(r["worst_deviation"] for r in records),
        "rounds": simple_attack_rounds(params["gamma"]),
    }


def _summarize_positive(records: list[dict], params: dict) -> dict:
    accuracy_rate, accuracy_radius = _rate(records, "accurate")
    return {
        "accuracy_rate": accuracy_rate,
        "accuracy_radius": accuracy_radius,
        "queries_good_rate": _rate(records, "queries_good")[0],
        "switch_rate": _rate(records, "switched")[0],
        "k": params["k"],
        "noise_scale": params["noise_scale"],
    }


# --- one-shot kinds: resolvers and runners ---------------------------------------


def _resolve_llr(params: dict) -> tuple[tuple[str, ...], tuple[Sample, FiniteDistribution, Query]]:
    eps = params["eps"]
    if not 0.0 < eps < math.inf:
        raise ValueError(f"llr experiment needs eps > 0 and finite, got eps {eps}")
    derived = "ones" not in params
    if derived:
        twice = 2 * params["n"] * eps
        # round() cannot take an overflowed product; the check below rejects it as inf
        params["ones"] = round(twice) if twice < math.inf else twice
    params.setdefault("epsilon_switch", eps)
    origin = " (derived as round(2*n*eps))" if derived else ""
    return ("hybrid",), _two_sample_instance("llr", params["n"], params["ones"], origin)


def _run_llr(config: ExperimentConfig, run: Run) -> tuple[list[dict], dict]:
    params, (held, dist, indicator) = run.params, run.instance
    k = params["k"]
    check_llr_draw(config.trials, k)
    report = run_llr_experiment(
        FixedQueryAnalyst([indicator] * k),
        held,
        dist,
        k,
        params["eps"],
        run.noise,
        params["rho"],
        config.trials,
        config.seed,
        epsilon_switch=params["epsilon_switch"],
    )
    record = dataclasses.asdict(report)
    return [record], dict(record)


# output-grid bins a divergence run's exact laws may hold: those of the
# default 2**-20 grid, where a run peaked at 180 MB
_GRID_BIN_LIMIT = 2**21


def _resolve_divergence(params: dict) -> tuple[tuple[str, ...], tuple[Sample, FiniteDistribution, Query]]:
    instance = _two_sample_instance("divergence", params["n"], params["ones"])
    bins = _noise_spec(params).n_bins
    if bins > _GRID_BIN_LIMIT:
        raise ValueError(
            f"divergence experiment's grid_step {params['grid_step']} divides the output interval into {bins} "
            f"bins, above the limit of {_GRID_BIN_LIMIT}"
        )
    return (params["mech_a"], params["mech_b"]), instance


def _run_divergence(config: ExperimentConfig, run: Run) -> tuple[list[dict], dict]:
    held, dist, indicator = run.instance
    mech_a, mech_b = (
        _mechanism(kind, run.noise, sample=held, distribution=dist, master=config.seed, trial=0) for kind in run.kinds
    )
    report = divergence_diagnostics(mech_a, mech_b, indicator)
    record = {"mech_a": run.params["mech_a"], "mech_b": run.params["mech_b"], **dataclasses.asdict(report)}
    return [record], dict(record)


def _resolve_bounds_table(params: dict) -> tuple[tuple[str, ...], None]:
    mode = params["mode"]
    if mode not in ("negative", "positive"):
        raise ValueError("bounds_table mode must be 'negative' or 'positive'")
    if mode == "positive" and "alpha" not in params:
        raise ValueError("bounds_table experiment needs params ['alpha']")
    other, unread = ("positive", "alpha") if mode == "negative" else ("negative", "constant")
    if unread in params:
        raise ValueError(f"{unread} applies only to {other} mode; bounds mode is {mode!r}")
    return (), None


def _run_bounds_table(config: ExperimentConfig, run: Run) -> tuple[list[dict], dict]:
    params = run.params
    mode, gamma, beta = params["mode"], params["gamma"], params["beta"]
    rows = []
    for eps in params["eps_values"]:
        if mode == "negative":
            row = {"eps": eps, **breaking_rounds_details(eps, gamma, beta, params.get("constant"))}
        else:
            row = {"eps": eps, **max_accurate_rounds_details(eps, gamma, params["alpha"], beta)}
            row["budget"] = json.dumps(row["budget"])
        rows.append(row)
    return rows, {"mode": mode, "rows": len(rows)}


# --- experiment kinds ---------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One experiment parameter: its CLI flag, params key, type, help and
    default (None: absent unless given, or derived by its kind's resolver).

    ``required`` params are checked when a run resolves its params, not by
    argparse, so a --config file can supply them instead of the flag.
    """

    flag: str
    key: str
    type: type
    help: str
    required: bool = False
    nargs: str | None = None
    default: object = None


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind's CLI command, its params, and how it resolves and runs.

    ``resolve(params) -> (mechanism names, instance)`` fills the kind's
    derived defaults, runs its checks and builds its instance.
    A trial kind has ``run_trial(run, master, trial) -> record`` and
    ``summarize(records, params) -> summary``; a one-shot kind has
    ``run_once(config, run) -> (records, summary)`` and takes no
    ``threads`` other than 1. A kind with ``reads_trials`` False runs one
    exact computation and takes no ``trials`` other than 1.
    """

    command: str
    params: tuple[Param, ...]
    resolve: Callable[[dict], tuple[tuple[str, ...], object]]
    run_trial: Callable[[Run, int, int], dict] | None = None
    summarize: Callable[[list[dict], dict], dict] | None = None
    run_once: Callable[[ExperimentConfig, Run], tuple[list[dict], dict]] | None = None
    reads_trials: bool = True


_NOISE_FAMILY = Param("--noise", "noise_family", str, "noise family: laplace or gaussian", default=NoiseSpec.family)
_NOISE_SCALE = Param("--b", "noise_scale", float, "noise scale", default=NoiseSpec.scale)
_GRID_STEP = Param("--grid-step", "grid_step", float, "output grid step", default=NoiseSpec.grid_step)
_EPSILON_SWITCH = Param("--epsilon-switch", "epsilon_switch", float, "hybrid switch threshold")

KINDS = {
    "attack": ExperimentKind(
        "attack",
        (
            Param("--eps", "eps", float, "concentration threshold of the target class", True),
            Param("--gamma", "gamma", float, "concentration failure chance", True),
            Param("--n", "n", int, "held sample size (multiple of the block count)", True),
            Param("--k", "k", int, "info rounds; derived from the calibrated constant if omitted"),
            Param("--beta", "beta", float, "target failure chance when deriving k", default=0.1),
            _NOISE_FAMILY,
            _NOISE_SCALE,
            Param("--mechanism", "mechanism", str, "real or hybrid", default="real"),
            _EPSILON_SWITCH,
            _GRID_STEP,
        ),
        resolve=_resolve_attack,
        run_trial=_attack_trial,
        summarize=_summarize_attack,
    ),
    "simple_attack": ExperimentKind(
        "simple-attack",
        (
            Param("--gamma", "gamma", float, "concentration failure chance (1/gamma queries)", True),
            Param("--n", "n", int, "held sample size", True),
            _NOISE_FAMILY,
            _NOISE_SCALE,
            _GRID_STEP,
        ),
        resolve=_resolve_simple_attack,
        run_trial=_simple_attack_trial,
        summarize=_summarize_simple_attack,
    ),
    "positive_accuracy": ExperimentKind(
        "positive",
        (
            Param("--eps", "eps", float, "concentration threshold of the target class", True),
            Param("--gamma", "gamma", float, "concentration failure chance", True),
            Param("--alpha", "alpha", float, "accuracy target", True),
            Param("--beta", "beta", float, "allowed chance of an inaccurate transcript", True),
            Param("--n", "n", int, "held sample size (multiple of the block count)", True),
            Param("--k", "k", int, "rounds; the certified maximum if omitted"),
            Param("--b", "noise_scale", float, "noise scale; alpha / (2 ln(1/eps)) if omitted"),
            Param("--epsilon-switch", "epsilon_switch", float, "hybrid switch threshold; eps if omitted"),
        ),
        resolve=_resolve_positive,
        run_trial=_positive_trial,
        summarize=_summarize_positive,
    ),
    "llr": ExperimentKind(
        "llr",
        (
            Param("--eps", "eps", float, "per-query empirical-vs-true gap bound", True),
            Param("--k", "k", int, "rounds per transcript", True),
            Param("--rho", "rho", float, "confidence parameter of the composed bound", True),
            Param("--n", "n", int, "held sample size", True),
            Param("--ones", "ones", int, "planted count of element 1; round(2*n*eps) if omitted"),
            _NOISE_SCALE,
            Param("--epsilon-switch", "epsilon_switch", float, "hybrid switch threshold; eps if omitted"),
            dataclasses.replace(_GRID_STEP, default=2.0**-5),
        ),
        resolve=_resolve_llr,
        run_once=_run_llr,
    ),
    "divergence": ExperimentKind(
        "diagnose-divergence",
        (
            Param("--mech-a", "mech_a", str, "first mechanism: real, oracle, or hybrid", True),
            Param("--mech-b", "mech_b", str, "second mechanism: real, oracle, or hybrid", True),
            Param("--n", "n", int, "held sample size", True),
            Param("--ones", "ones", int, "planted count of element 1", True),
            _NOISE_FAMILY,
            _NOISE_SCALE,
            _EPSILON_SWITCH,
            dataclasses.replace(_GRID_STEP, default=2.0**-10),
        ),
        resolve=_resolve_divergence,
        run_once=_run_divergence,
        reads_trials=False,
    ),
    "bounds_table": ExperimentKind(
        "bounds",
        (
            Param("--mode", "mode", str, "negative (breaking rounds) or positive (certified rounds)", True),
            Param("--gamma", "gamma", float, "concentration failure chance", True),
            Param("--beta", "beta", float, "failure chance of the bound", True),
            Param("--alpha", "alpha", float, "accuracy target (positive mode)"),
            Param("--constant", "constant", float, "override the calibrated round constant"),
            Param("--eps-values", "eps_values", float, "thresholds to tabulate", True, nargs="+"),
        ),
        resolve=_resolve_bounds_table,
        run_once=_run_bounds_table,
        reads_trials=False,
    ),
}

EXPERIMENT_KINDS = tuple(KINDS)


# --- driver -----------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    run = _resolve_params(config)
    kind = KINDS[config.kind]
    if not kind.reads_trials and config.trials != 1:
        raise ValueError(f"{config.kind} experiment reads no trials; got trials {config.trials}, not 1")
    if kind.run_once is not None and config.threads not in (None, 1):
        raise ValueError(f"{config.kind} experiment runs once, in one process; got threads {config.threads}, not 1")
    if kind.run_once is not None:
        records, summary = kind.run_once(config, run)
    else:
        threads = config.threads or 1
        if threads > 1 and config.trials > 1:
            # imported here: the pool pulls in multiprocessing, sockets and subprocess,
            # which a serial run never uses
            from concurrent.futures import ProcessPoolExecutor

            # one chunk, and so one pickled Run, per worker
            with ProcessPoolExecutor(max_workers=threads) as pool:
                trial = partial(kind.run_trial, run, config.seed)
                records = list(pool.map(trial, range(config.trials), chunksize=math.ceil(config.trials / threads)))
        else:
            records = [kind.run_trial(run, config.seed, t) for t in range(config.trials)]
        summary = kind.summarize(records, run.params)
    summary["kind"] = config.kind
    summary["trials"] = config.trials
    summary["seed"] = config.seed
    summary["params"] = run.params
    return ExperimentResult(records=records, summary=summary)


# --- output + assertions -----------------------------------------------------------


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(obj):
    """``obj`` with numpy scalars as Python ones and each non-finite float as
    the string "NaN", "Infinity" or "-Infinity", which ``float()`` reads back."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return _NON_FINITE[str(obj)]
    return obj


def to_json(obj, **kwargs) -> str:
    """Strict JSON text for a record or summary (see ``_plain``)."""
    return json.dumps(_plain(obj), allow_nan=False, **kwargs)


def write_outputs(result: ExperimentResult, out_prefix: str) -> dict[str, str]:
    """Write <prefix>.jsonl, <prefix>.csv, and <prefix>.summary.json."""
    directory = os.path.dirname(out_prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    paths = {
        "jsonl": f"{out_prefix}.jsonl",
        "csv": f"{out_prefix}.csv",
        "summary": f"{out_prefix}.summary.json",
    }
    with open(paths["jsonl"], "w", encoding="utf-8") as fh:
        for record in result.records:
            fh.write(to_json(record) + "\n")
    fieldnames: list[str] = []
    for record in result.records:
        for key in record:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(paths["csv"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(result.records)
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        fh.write(to_json(result.summary, indent=2, sort_keys=True) + "\n")
    return paths


_OPS = {"ge": operator.ge, "gt": operator.gt, "le": operator.le, "lt": operator.lt, "eq": operator.eq}


def check_claim(claim) -> None:
    """Raise a ValueError naming ``claim`` and its fault unless it is a dict of exactly
    ``metric`` (a non-empty string), ``op`` (in ``_OPS``) and ``value`` (a finite real, not a bool)."""
    if not isinstance(claim, dict) or set(claim) != {"metric", "op", "value"}:
        fault = "needs exactly the keys metric, op, value"
    elif not isinstance(claim["metric"], str) or not claim["metric"]:
        fault = "metric must be a non-empty string"
    elif not isinstance(claim["op"], str) or claim["op"] not in _OPS:
        fault = f"unknown op {claim['op']!r}; ops are {', '.join(_OPS)}"
    elif isinstance(claim["value"], bool) or not isinstance(claim["value"], numbers.Real):
        fault = "value must be a real number"
    elif not math.isfinite(claim["value"]):
        fault = "value must be finite"
    else:
        return
    raise ValueError(f"malformed assertion {claim!r}: {fault}")


def _lookup_metric(summary: dict, metric: str):
    node = summary
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(metric)
        node = node[part]
    return node


def evaluate_assertions(summary: dict, assertions: list[dict]) -> list[str]:
    """Check each claim (a malformed one raises) against the summary; return failure descriptions."""
    failures = []
    for claim in assertions:
        check_claim(claim)
        metric, op_name, target = claim["metric"], claim["op"], claim["value"]
        try:
            actual = _lookup_metric(summary, metric)
        except KeyError:
            failures.append(f"assertion on {metric!r}: metric not found in summary")
            continue
        if not isinstance(actual, numbers.Real):
            failures.append(f"assertion on {metric!r}: metric is not a number")
        elif not _OPS[op_name](actual, target):
            failures.append(f"assertion failed: {metric} = {actual!r} not {op_name} {target!r}")
    return failures
