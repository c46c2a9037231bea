import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from adalab.attack import _SUPPORT_ELEMENT_LIMIT
from adalab.cli import _config_from_args, build_parser, main
from adalab.harness import _GRID_BIN_LIMIT, KINDS, _resolve_params
from adalab.mechanisms import NoiseSpec

# one parseable value per param type
FLAG_VALUES = {int: "3", float: "0.5", str: "x"}
# config values of the wrong type for each param type
WRONG_VALUES = {int: [16.9, "178", True], float: ["0.5", True, None], str: [3, None]}
WRONG_LISTS = [[], 0.25, ["0.25"]]
# each kind's required params, at values that run one trial quickly
MINIMAL = {
    "attack": {"eps": 0.25, "gamma": 0.01, "n": 16},
    "simple_attack": {"gamma": 0.2, "n": 10},
    "positive_accuracy": {"eps": 0.005, "gamma": 0.05, "alpha": 0.9, "beta": 0.9, "n": 400},
    "llr": {"eps": 0.0625, "k": 2, "rho": 0.05, "n": 8},
    "divergence": {"mech_a": "real", "mech_b": "oracle", "n": 4, "ones": 2},
    "bounds_table": {"mode": "negative", "gamma": 0.01, "beta": 0.1, "eps_values": [0.25]},
}

ROOT = Path(__file__).resolve().parent.parent
SIMPLE = ["simple-attack", "--gamma", "0.2", "--n", "10", "--b", "0", "--trials", "2", "--seed", "3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_config(capsys, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return run(capsys, [KINDS[config["kind"]].command, "--config", str(path)])


# two-sample instances whose 2n elements once passed _SUPPORT_ELEMENT_LIMIT's
# 2 * 10**7; their samples hold two ids and two counts
TWO_SAMPLE_LARGE_N_ARGV = (
    "llr --eps 0.03125 --rho 0.05 --n 10000001 --ones 4 --k 2 --grid-step 0.125",
    "diagnose-divergence --mech-a real --mech-b oracle --n 10000001 --ones 2 --trials 1",
)
# the guarded sizes of the info tables, the block instance and the LLR draw,
# each one size param past the element limit
GUARDED_PAST_LIMIT = (
    (
        "attack --eps 0.25 --gamma 1e-9 --n 16 --k 5",
        "attack experiment's info tables hold k * m = 5 * 1000000000 elements (m from eps 0.25 and "
        "gamma 1e-09), above the limit of 20000000",
    ),
    (
        "simple-attack --gamma 1e-9 --n 16",
        "block instance of gamma 1e-09 holds 1000000000 blocks, above the limit of 20000000",
    ),
    (
        "llr --eps 0.03125 --k 1000000 --rho 0.05 --n 64 --trials 1000000 --grid-step 0.125",
        "llr experiment draws trials * k = 1000000 * 1000000 noise values per direction, above the limit "
        "of 20000000",
    ),
)
# the trial sizes checked at resolve; unchecked, each of the first two asks numpy for 7.45 GiB
RESOLVE_PAST_LIMIT = (
    (
        "positive --eps 0.25 --gamma 0.01 --alpha 0.9 --beta 0.5 --n 16 --k 10000000 --trials 1",
        "positive_accuracy experiment's info tables hold k * m = 10000000 * 100 elements (m from eps 0.25 and "
        "gamma 0.01), above the limit of 20000000",
    ),
    # the hybrid's support, which its first trial would build
    (
        "attack --eps 0.01 --gamma 1e-6 --n 100 --k 5 --mechanism hybrid --epsilon-switch 0.25 --trials 2",
        "hard instance support holds m * r = 1000000 * 100 elements, above the limit of 20000000",
    ),
)
GRID_PAST_LIMIT_ARGV = "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2 --grid-step 1e-9 --trials 1"
GRID_PAST_LIMIT = (
    "divergence experiment's grid_step 1e-09 divides the output interval into 2000000000 bins, above the limit "
    "of 2097152"
)


def run_traced(capsys, argv: str):
    """``run``'s exit code, output and error, and the peak of the memory
    Python and numpy allocated meanwhile."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv.split())
        return code, out, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["attack", "--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_malformed_assertion_is_usage_error(self, capsys):
        assert main(SIMPLE + ["--assert", "identification_rate>0.9"]) == 1
        assert main(SIMPLE + ["--assert", "identification_rate:ge:high"]) == 1

    def test_missing_params_exit_one(self, capsys):
        code, _, err = run(capsys, ["attack", "--trials", "1"])
        assert code == 1
        assert "error:" in err and "needs params" in err

    @pytest.mark.parametrize("mechanism", ["oracle", "Real"])
    def test_attack_mechanism_is_real_or_hybrid(self, capsys, mechanism):
        argv = "attack --eps 0.25 --gamma 0.01 --n 16 --k 5 --mechanism".split() + [mechanism]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert f"attack mechanism must be real or hybrid, got '{mechanism}'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "attack --eps 0.25 --gamma 0.01 --n 16 --k 5 --epsilon-switch 0.3 --trials 2 --seed 1",
            "attack --eps 0.25 --gamma 0.01 --n 16 --k 5 --mechanism real --epsilon-switch 0.3",
            "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2 --epsilon-switch 0.01",
        ],
    )
    def test_epsilon_switch_needs_a_hybrid(self, capsys, argv):
        code, out, err = run(capsys, argv.split())
        assert code == 1 and out == ""
        assert "epsilon_switch applies only to the hybrid" in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--mode positive --alpha 0.1 --constant 99", "constant applies only to negative mode; bounds mode is 'positive'"),
            ("--mode negative --alpha 0.1", "alpha applies only to positive mode; bounds mode is 'negative'"),
        ],
    )
    def test_bounds_params_the_mode_ignores_exit_one(self, capsys, flag, message):
        argv = f"bounds {flag} --eps-values 1e-5 --gamma 1e-6 --beta 0.1".split()
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert message in err

    def test_threads_must_be_an_integer(self, capsys, tmp_path):
        config = {"kind": "simple_attack", "threads": 2.5, "params": MINIMAL["simple_attack"]}
        code, out, err = run_config(capsys, tmp_path, config)
        assert code == 1 and out == ""
        assert "threads must be None or an integer of at least 1, got 2.5" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2 --trials 50",
                "divergence experiment reads no trials; got trials 50, not 1",
            ),
            (
                "bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 0.1 --trials 2",
                "bounds_table experiment reads no trials; got trials 2, not 1",
            ),
            (
                "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2 --threads 3",
                "divergence experiment runs once, in one process; got threads 3, not 1",
            ),
            (
                "bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 0.1 --threads 4",
                "bounds_table experiment runs once, in one process; got threads 4, not 1",
            ),
            (
                "llr --eps 0.0625 --k 2 --rho 0.05 --n 8 --trials 5 --threads 2",
                "llr experiment runs once, in one process; got threads 2, not 1",
            ),
        ],
    )
    def test_one_shot_kinds_refuse_inputs_they_do_not_read(self, capsys, argv, message):
        code, out, err = run(capsys, argv.split())
        assert code == 1 and out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "argv, trials",
        [
            ("diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2 --trials 1 --threads 1", 1),
            ("bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 0.1 --trials 1 --threads 1", 1),
            ("llr --eps 0.0625 --k 2 --rho 0.05 --n 8 --trials 5 --threads 1", 5),
        ],
    )
    def test_one_shot_kinds_accept_the_values_they_run_at(self, capsys, argv, trials):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert json.loads(out)["trials"] == trials

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "positive --eps 0.005 --gamma 0.05 --alpha 0.9 --beta 0.9 --n 400 --k -3",
                "positive_accuracy experiment needs k >= 0 rounds, got k -3",
            ),
            ("attack --eps 0.25 --gamma 0.01 --n 16 --k 0", "attack experiment needs k >= 1 info rounds, got k 0"),
            (
                "llr --eps 0.001 --b 0.15625 --grid-step 0.125 --k 2 --rho 0.05 --n 64",
                "llr experiment needs 1 <= ones <= n, got ones 0 (derived as round(2*n*eps)) and n 64",
            ),
            (
                "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 2 --rho 0.05 --n 0",
                "llr experiment needs 1 <= ones <= n, got ones 0 (derived as round(2*n*eps)) and n 0",
            ),
            (
                "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 2 --rho 0.05 --n 64 --ones 65",
                "llr experiment needs 1 <= ones <= n, got ones 65 and n 64",
            ),
            # eps is checked before ones or epsilon_switch is derived from it
            *(
                (
                    f"llr --eps {eps} --grid-step 0.125 --k 20 --rho 0.05 --n 64{ones}",
                    f"llr experiment needs eps > 0 and finite, got eps {shown}",
                )
                for eps, shown in (("inf", "inf"), ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0"))
                for ones in ("", " --ones 4")
            ),
            (
                "llr --eps 1e308 --grid-step 0.125 --k 20 --rho 0.05 --n 64",
                "llr experiment needs 1 <= ones <= n, got ones inf (derived as round(2*n*eps)) and n 64",
            ),
            (
                "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --epsilon-switch -1",
                "hybrid needs epsilon_switch > 0",
            ),
            (
                "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --epsilon-switch 0",
                "hybrid needs epsilon_switch > 0",
            ),
            (
                "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 0",
                "divergence experiment needs 1 <= ones <= n, got ones 0 and n 4",
            ),
            (
                "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 5",
                "divergence experiment needs 1 <= ones <= n, got ones 5 and n 4",
            ),
            (
                "bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 0.1 --constant inf --trials 1",
                "constant must be positive and finite, got inf",
            ),
            (
                "llr --eps 0.03125 --b 1e-9 --grid-step 0.125 --k 4 --rho 0.05 --n 64 --trials 10",
                "composed bound overflows a float at eps/b = 3.125e+07",
            ),
            (
                "positive --eps 0.005 --gamma 0.05 --alpha 0.9 --beta nan --n 400 --k 3 --trials 2",
                "positive_accuracy experiment needs 0 < beta < 1, got beta nan",
            ),
            *GUARDED_PAST_LIMIT,
            *(
                (
                    f"llr --eps 0.03125 --rho 0.05 --n 64 --k 2 --grid-step {step}",
                    f"grid_step must be positive and finite, got {shown}",
                )
                for step, shown in (("nan", "nan"), ("inf", "inf"), ("-0.125", "-0.125"), ("0", "0.0"))
            ),
            # float64 counts are exact below 2**53, so no sample may hold more
            *(
                (argv, f"sample size {n} is not below 2**53, where float64 counts stop being exact")
                for argv, n in (
                    ("attack --eps 0.25 --gamma 0.01 --n 9007199254740996 --k 5", 2**53 + 4),
                    ("llr --eps 0.03125 --rho 0.05 --n 9007199254740993 --ones 4 --k 2 --grid-step 0.125", 2**53 + 1),
                    ("simple-attack --gamma 0.1 --n 9007199254740992 --b 0", 2**53),
                )
            ),
            # simple-attack takes no --eps: its one block bounds n from below
            *(
                (f"simple-attack --gamma 0.1 --n {n} --b 0", f"sample size {n} must be at least the block count 1")
                for n in (0, -3)
            ),
            (GRID_PAST_LIMIT_ARGV, GRID_PAST_LIMIT),
            # 2e300 positions were cast to intp, and 0.3 answered as -0.5; inf bins ended in round(inf)
            *(
                (
                    f"simple-attack --gamma 0.2 --n 10 --b 0 --grid-step {step}",
                    f"grid_step {step} divides the clip interval into {bins} bins, not below 2**53",
                )
                for step, bins in (("1e-300", "2e+300"), ("5e-324", "inf"))
            ),
            # 1/eps**2 underflowed to 1/0: once a ZeroDivisionError traceback
            *(
                (argv, "eps must lie in (0, 1], with 1/eps**2 a finite float; got 1e-300")
                for argv in (
                    "attack --eps 1e-300 --gamma 0.01 --n 16",
                    "positive --eps 1e-300 --gamma 0.05 --alpha 0.9 --beta 0.9 --n 400",
                    "bounds --mode negative --eps-values 1e-300 --gamma 0.01 --beta 0.1 --trials 1",
                )
            ),
            # ceil(inf) rounds: once an OverflowError traceback
            *(
                (argv, "score attack rounds overflow a float at beta 5e-324 (eps 0.25, gamma 0.01)")
                for argv in (
                    "attack --eps 0.25 --gamma 0.01 --n 16 --beta 5e-324",
                    "bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 5e-324 --trials 1",
                )
            ),
            # beta is checked whether k is given or derived from it
            *(
                (
                    f"attack --eps 0.25 --gamma 0.01 --n 16{k} --beta {beta}",
                    f"attack experiment needs 0 < beta < 1, got beta {shown}",
                )
                for beta, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("2", "2.0"), ("-1", "-1.0"))
                for k in (" --k 5", "")
            ),
            # a hybrid that never switches is the real mechanism, and each claim holds vacuously
            (
                "positive --eps 0.005 --gamma 0.05 --alpha 0.9 --beta 0.9 --n 400 --epsilon-switch inf",
                "hybrid needs epsilon_switch > 0 and finite, got inf",
            ),
            (
                "attack --eps 0.25 --gamma 0.01 --n 16 --k 5 --mechanism hybrid --epsilon-switch inf",
                "hybrid needs epsilon_switch > 0 and finite, got inf",
            ),
            (
                "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --epsilon-switch inf",
                "hybrid needs epsilon_switch > 0 and finite, got inf",
            ),
        ],
    )
    def test_bad_round_counts_and_sizes_exit_one(self, capsys, argv, message):
        # two trials unless the case names its own count (one-shot kinds read one)
        code, out, err = run(capsys, argv.split() + ([] if "--trials" in argv else ["--trials", "2"]))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


    @pytest.mark.parametrize("argv", TWO_SAMPLE_LARGE_N_ARGV)
    def test_two_sample_instance_at_large_n_allocates_little(self, capsys, argv):
        # each sample holds its ids and counts: as n ids, each would take 80 MB
        code, out, err, peak = run_traced(capsys, argv)
        assert code == 0 and err == "" and json.loads(out)
        assert peak < 2**20

    def test_llr_memory_is_flat_in_rounds(self, capsys):
        # one row of log-ratio terms per distinct pair of means: a row per
        # round once took 2.1 KB, a 42 MB peak here
        code, out, err, peak = run_traced(capsys, "llr --eps 0.0625 --k 20000 --rho 0.05 --n 8 --trials 1")
        assert code == 0 and err == "" and json.loads(out)["k"] == 20000
        assert peak < 4.2e6

    @pytest.mark.filterwarnings("error")
    def test_subnormal_noise_scale_runs_quietly(self, capsys):
        # noise_cdf's x / 5e-324 once printed overflow RuntimeWarnings; noise
        # that small moves no answer off its noiseless grid value
        code, out, err = run(capsys, SIMPLE + ["--b", "5e-324"])
        assert (code, err) == (0, "")
        _, noiseless, _ = run(capsys, SIMPLE)
        assert {**json.loads(out), "params": None} == {**json.loads(noiseless), "params": None}

    @pytest.mark.parametrize(
        "argv",
        [
            "simple-attack --gamma 5e-324 --n 2 --trials 1",
            "attack --eps 0.25 --gamma 5e-324 --n 16 --k 2 --trials 1",
            "bounds --mode negative --eps-values 0.25 --gamma 5e-324 --beta 0.1",
            "check-concentration --eps 0.25 --gamma 5e-324 --n 16",
        ],
    )
    def test_subnormal_gamma_exits_one(self, capsys, argv):
        # 1/gamma and 1/(eps * gamma) overflow a float: once an OverflowError or ZeroDivisionError traceback
        code, out, err = run(capsys, argv.split())
        assert (code, out) == (1, "")
        assert err == "error: gamma must lie in (0, 1], with 1/gamma and 1/(eps * gamma) finite floats; got 5e-324\n"

    def test_grid_past_the_bin_limit_allocates_nothing(self, capsys):
        # the bin count is checked at resolve: without the check the exact
        # laws of 2e9 bins would ask for 14.9 GiB
        code, out, err, peak = run_traced(capsys, GRID_PAST_LIMIT_ARGV)
        assert code == 1 and out == "" and GRID_PAST_LIMIT in err
        assert peak < 2**20
        assert NoiseSpec().n_bins <= _GRID_BIN_LIMIT  # the default 2**-20 grid still runs

    @pytest.mark.parametrize("argv, message", RESOLVE_PAST_LIMIT)
    def test_sizes_past_the_limit_stop_at_resolve(self, argv, message):
        # resolve alone, so a missing guard allocates nothing in this process
        config = _config_from_args(build_parser().parse_args(argv.split()))
        with pytest.raises(ValueError, match=re.escape(message)):
            _resolve_params(config)


# runs each command in-process under the address-space cap, serially, and
# prints each one's exit code, stdout and stderr (a traceback if it raised)
CAPPED_CHILD = """
import contextlib, io, json, resource, sys, traceback
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from adalab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except Exception:
            code = None
            traceback.print_exc()
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_sizes_past_the_limit_exit_one_under_a_memory_cap():
    """Each command with one size param past the element limit exits 1 with
    one error line in a child capped at 3 GiB of address space, where an
    unguarded array of that size ends in a MemoryError traceback. The child
    runs serially, with one BLAS thread."""
    argvs = [argv for argv, _ in RESOLVE_PAST_LIMIT + GUARDED_PAST_LIMIT]
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    bad = [
        (argv, code, err)
        for argv, code, out, err in json.loads(done.stdout)
        if (code, out) != (1, "") or not err.startswith("error: ") or err.count("\n") != 1
        or "above the limit of 20000000" not in err
    ]
    assert bad == []

@pytest.mark.parametrize("name", sorted(KINDS))
class TestKindTable:
    def test_each_flag_parses_to_its_param(self, name):
        kind = KINDS[name]
        argv = [kind.command]
        expected = {}
        for param in kind.params:
            argv += [param.flag, FLAG_VALUES[param.type]]
            value = param.type(FLAG_VALUES[param.type])
            expected[param.key] = value if param.nargs is None else [value]
        config = _config_from_args(build_parser().parse_args(argv))
        assert config.kind == name
        assert config.params == expected

    def test_each_required_param_is_enforced(self, capsys, name):
        kind = KINDS[name]
        required = [param for param in kind.params if param.required]
        assert required
        for left_out in required:
            argv = [kind.command]
            for param in required:
                if param is not left_out:
                    argv += [param.flag, FLAG_VALUES[param.type]]
            code, _, err = run(capsys, argv)
            assert code == 1
            assert f"{name} experiment needs params ['{left_out.key}']" in err

    def test_run_reports_each_table_default(self, capsys, tmp_path, name):
        kind = KINDS[name]
        assert set(MINIMAL[name]) == {param.key for param in kind.params if param.required}
        code, out, err = run_config(capsys, tmp_path, {"kind": name, "params": MINIMAL[name]})
        assert code == 0, err
        reported = json.loads(out)["params"]
        defaults = {param.key: param.default for param in kind.params if param.default is not None}
        assert {key: reported[key] for key in defaults} == defaults

    def test_wrong_param_types_exit_one(self, capsys, tmp_path, name):
        for param in KINDS[name].params:
            for value in WRONG_LISTS if param.nargs else WRONG_VALUES[param.type]:
                params = {**MINIMAL[name], param.key: value}
                code, out, err = run_config(capsys, tmp_path, {"kind": name, "params": params})
                assert (code, out) == (1, ""), (param.key, value)
                assert f"error: {name} experiment param '{param.key}' must be" in err
                if param.nargs is None:
                    assert err.rstrip().endswith(f", got {value!r}")

    def test_help_shows_each_table_default(self, capsys, name):
        kind = KINDS[name]
        assert main([kind.command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for param in kind.params:
            if param.default is not None:
                assert f"(default {param.default})" in text
        assert text.count("(default ") == sum(param.default is not None for param in kind.params)

    def test_undeclared_param_is_rejected(self, capsys, tmp_path, name):
        kind = KINDS[name]
        params = {param.key: param.type(FLAG_VALUES[param.type]) for param in kind.params if param.required}
        params["nosie_scale"] = 0.5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": name, "params": params}))
        code, _, err = run(capsys, [kind.command, "--config", str(cfg)])
        assert code == 1
        assert f"{name} experiment has unknown params ['nosie_scale']" in err
        assert str([param.key for param in kind.params]) in err


# the values of each param type that the edge sweep sets one param to
EDGES = {
    int: (0, -1, 1, 2, 2**62),
    float: (0.0, -1.0, 1.0, 2.0, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf),
    str: ("", "zzz"),
}


def edge_fault(capsys, argv) -> str | None:
    """What is wrong with how ``argv`` ends, or None if it exits 0 with
    finite ``params`` or 1 with one ``error:`` line. It may not raise, warn,
    or trace a peak of as many bytes as the element limit allows elements,
    which any array past a size guard would hold."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:
                capsys.readouterr()
                return f"raised {type(exc).__name__}: {exc}"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    if caught:
        return f"warned {[str(warning.message) for warning in caught]}"
    if peak >= _SUPPORT_ELEMENT_LIMIT:
        return f"traced a peak of {peak} bytes"
    if code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1:
        return None
    if code != 0 or err:
        return f"exited {code} with {err!r}"
    params = json.loads(out)["params"].values()
    values = [x for value in params for x in (value if isinstance(value, list) else [value])]
    return None if all(math.isfinite(x) for x in values if isinstance(x, float)) else f"params {values}"


@pytest.mark.parametrize(
    "name, param",
    [(name, param) for name in sorted(KINDS) for param in KINDS[name].params],
    ids=lambda case: case if isinstance(case, str) else case.key,
)
def test_each_param_edge_exits_cleanly(capsys, name, param):
    """One param at a time, set to each edge of its type around its kind's
    ``MINIMAL`` config, exits 0 or with one error line. An edge flag comes
    last, so argparse reads it over a ``MINIMAL`` one, and as
    ``--flag=value``, so a value such as ``-inf`` is not read as a flag."""
    faults = {}
    for value in EDGES[param.type]:
        fault = edge_fault(capsys, minimal_argv(name) + [f"{param.flag}={value}"])
        if fault:
            faults[value] = fault
    assert faults == {}


@pytest.mark.parametrize("field", ["trials", "seed"])
def test_boolean_trials_or_seed_does_not_run(capsys, tmp_path, field):
    config = {"kind": "attack", "params": MINIMAL["attack"], field: True}
    code, out, err = run_config(capsys, tmp_path, config)
    assert (code, out) == (1, "")
    assert f"error: {field} must be an integer, got True" in err


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_stdout_ends_quietly(lines_read):
    """A reader that goes away, as ``| head -1`` does, drops the rest of
    the summary without a traceback and leaves the exit code alone. With no
    line read, the pipe closes while the child is still importing, so its
    first write is certain to fail."""
    argv = "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --trials 500 --seed 808"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "adalab", *argv.split()],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_dash_m_runs_the_cli(capsys):
    argv = "bounds --mode negative --eps-values 0.25 --gamma 0.01 --beta 0.1".split()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "adalab", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert run(capsys, argv) == (0, done.stdout, done.stderr)


class TestExperimentCommands:
    def test_simple_attack_prints_summary(self, capsys):
        code, out, _ = run(capsys, SIMPLE)
        assert code == 0
        summary = json.loads(out)
        assert summary["identification_rate"] == 1.0
        assert summary["kind"] == "simple_attack"
        assert summary["trials"] == 2

    def test_simple_attack_runs_past_ten_thousand_blocks(self, capsys):
        code, out, err = run(capsys, "simple-attack --gamma 1e-5 --n 2 --trials 1 --b 0".split())
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["identification_rate"] == 1.0 and summary["rounds"] == 100_000

    def test_assertions_gate_exit_code(self, capsys):
        code, _, _ = run(capsys, SIMPLE + ["--assert", "identification_rate:ge:1.0"])
        assert code == 0
        code, out, err = run(capsys, SIMPLE + ["--assert", "identification_rate:gt:1.0"])
        assert code == 2
        assert "assertion failed" in err
        assert json.loads(out)["identification_rate"] == 1.0

    def test_assertion_on_a_non_number_exits_two(self, capsys):
        code, out, err = run(capsys, "simple-attack --gamma 0.5 --n 4 --trials 2 --assert params:ge:1".split())
        assert code == 2
        assert err == "assertion on 'params': metric is not a number\n"
        assert json.loads(out)["kind"] == "simple_attack"

    def test_out_writes_files(self, capsys, tmp_path):
        prefix = tmp_path / "demo"
        code, _, err = run(capsys, SIMPLE + ["--out", str(prefix)])
        assert code == 0
        assert "wrote" in err
        for suffix in (".jsonl", ".csv", ".summary.json"):
            assert (tmp_path / f"demo{suffix}").exists()
        lines = (tmp_path / "demo.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_outputs_are_strict_json(self, capsys, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        # one failed trial leaves no success to take a minimum over: NaN
        argv = "attack --eps 0.25 --gamma 0.01 --n 16 --k 1 --trials 1 --seed 0".split()
        code, out, _ = run(capsys, argv + ["--out", str(tmp_path / "nan")])
        assert code == 0
        summary = json.loads(out, parse_constant=reject)
        assert math.isnan(float(summary["min_sample_deviation_on_success"]))
        written = (tmp_path / "nan.summary.json").read_text()
        assert json.loads(written, parse_constant=reject) == summary
        for line in (tmp_path / "nan.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=reject)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"kind": "simple_attack", "trials": 5, "seed": 3, '
            '"params": {"gamma": 0.2, "n": 10, "noise_scale": 0.0}}'
        )
        code, out, _ = run(capsys, ["simple-attack", "--config", str(cfg), "--trials", "2"])
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 2 and summary["seed"] == 3

    def test_config_kind_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "attack", "params": {}}')
        code, _, err = run(capsys, ["simple-attack", "--config", str(cfg)])
        assert code == 1
        assert "config is for kind" in err

    def test_bounds_table(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bounds", "--mode", "negative", "--eps-values", "0.25", "0.01",
                "--gamma", "0.01", "--beta", "0.1",
            ],
        )
        assert code == 0
        assert json.loads(out)["rows"] == 2

    def test_llr_smoke(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "llr", "--eps", "0.0625", "--k", "2", "--rho", "0.05", "--n", "8",
                "--b", "0.3125", "--trials", "10", "--seed", "1",
            ],
        )
        assert code == 0
        summary = json.loads(out)
        assert "threshold" in summary and summary["k"] == 2


README_ATTACKS = {
    "attack": (
        "attack --eps 0.25 --gamma 0.01 --n 16 --trials 200 --seed 301 --assert success_rate:ge:0.9",
        "2839892609baa0d7ccd985eb1e73f9f180ec8dc2be257d43bed324acb7d34e66",
    ),
    "hybrid": (
        "attack --eps 0.25 --gamma 0.01 --n 16 --k 178 --mechanism hybrid --epsilon-switch 0.25 "
        "--trials 50 --seed 1",
        "3f50e195e92a13588907976f5fa33ecfca2cd69357bc1055e1d6ad2a7e55383e",
    ),
    "simple-attack": (
        "simple-attack --gamma 0.1 --n 30 --b 0 --trials 20 --seed 4 --assert identification_rate:eq:1.0",
        "c458370362bcc6d4170e4a5cb653920fce359405e011848470b5daaf186c0caa",
    ),
    "positive": (
        "positive --eps 0.005 --gamma 0.05 --alpha 0.9 --beta 0.9 --n 400 --trials 100 --seed 3",
        "f81dc3f671c690b2162aaafdaa5040d76605bcbd08ac6ebcfb4da8a18d3ca6d8",
    ),
    "llr": (
        "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --trials 5000 --seed 808",
        "bcc49aff6818733d2ef1f3827546964148a4a4f10697ffcf78746e82f61035e0",
    ),
    "llr-50000": (
        "llr --eps 0.03125 --b 0.15625 --grid-step 0.125 --k 20 --rho 0.05 --n 64 --trials 50000 --seed 808",
        "05f67b732f93c49bc279bed5331e0e80988428d014e3b2d162e759fcc5813ff4",
    ),
    "diagnose-divergence": (
        "diagnose-divergence --mech-a real --mech-b oracle --n 4 --ones 2",
        "2dc8c3688bca9fbf72b887a2823b2c89a2a233b2ef133c54451371f5b799bec4",
    ),
    "bounds-negative": (
        "bounds --mode negative --eps-values 0.25 0.1 0.01 --gamma 0.01 --beta 0.1",
        "69c22d2e977670f9d82840431a0b07068fd0bcb90bc8c5b5e7563a27768634e3",
    ),
    "bounds-positive": (
        "bounds --mode positive --eps-values 1e-5 1e-6 --gamma 1e-6 --beta 0.1 --alpha 0.1",
        "a7db1fddf6699e5f0585b0638a8a1be5c77de92b0fe0eb8927882db00a732141",
    ),
}

# each README command's resolved params, as its summary reports them
_ATTACK_PARAMS = {
    "beta": 0.1, "constant": 1.61, "eps": 0.25, "gamma": 0.01, "grid_step": 2.0**-20, "k": 178,
    "mechanism": "real", "n": 16, "noise_family": "laplace", "noise_scale": 0.1,
}
_LLR_PARAMS = {
    "eps": 0.03125, "epsilon_switch": 0.03125, "grid_step": 0.125, "k": 20, "n": 64, "noise_scale": 0.15625,
    "ones": 4, "rho": 0.05,
}
README_PARAMS = {
    "attack": _ATTACK_PARAMS,
    "hybrid": {**_ATTACK_PARAMS, "epsilon_switch": 0.25, "mechanism": "hybrid"},
    "simple-attack": {"gamma": 0.1, "grid_step": 2.0**-20, "n": 30, "noise_family": "laplace", "noise_scale": 0.0},
    "positive": {
        "alpha": 0.9, "beta": 0.9, "eps": 0.005, "epsilon_switch": 0.005, "gamma": 0.05, "k": 4, "n": 400,
        "noise_scale": 0.08493262461798969,
    },
    "llr": _LLR_PARAMS,
    "llr-50000": _LLR_PARAMS,
    "diagnose-divergence": {
        "grid_step": 2.0**-10, "mech_a": "real", "mech_b": "oracle", "n": 4, "noise_family": "laplace",
        "noise_scale": 0.1, "ones": 2,
    },
    "bounds-negative": {"beta": 0.1, "eps_values": [0.25, 0.1, 0.01], "gamma": 0.01, "mode": "negative"},
    "bounds-positive": {"alpha": 0.1, "beta": 0.1, "eps_values": [1e-05, 1e-06], "gamma": 1e-06, "mode": "positive"},
}


class TestReadmeAttacks:
    """README's trial-kind, LLR, divergence and bounds commands, pinned by
    the SHA-256 of their JSONL records and by the resolved params their
    summaries report, which the digests do not cover. The LLR command is
    pinned at README's 50 000 trials and at 5000 trials."""

    @pytest.mark.parametrize("name", sorted(README_ATTACKS))
    def test_records_are_pinned(self, capsys, tmp_path, name):
        command, digest = README_ATTACKS[name]
        code, _, _ = run(capsys, command.split() + ["--out", str(tmp_path / name)])
        assert code == 0
        assert hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() == digest
        summary = json.loads((tmp_path / f"{name}.summary.json").read_text(encoding="utf-8"))
        assert summary["params"] == README_PARAMS[name]

    # n sets no record of these kinds, nor any array: every info query and
    # block indicator has the same means, as doubles, at any valid n
    @pytest.mark.parametrize(
        "name, n",
        [
            ("attack", 400), ("hybrid", 4), ("positive", 1000), ("simple-attack", 1),
            ("attack", 10**9), ("hybrid", 10**9), ("positive", 10**9), ("simple-attack", 10**9),
        ],
    )
    def test_records_do_not_depend_on_n(self, capsys, tmp_path, name, n):
        command, digest = README_ATTACKS[name]
        argv = command.split()
        assert argv[argv.index("--n") + 1] != str(n)
        argv[argv.index("--n") + 1] = str(n)
        code, _, _ = run(capsys, argv + ["--out", str(tmp_path / name)])
        assert code == 0
        assert hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() == digest


def readme_cli_commands() -> list[str]:
    """Each ``adalab`` command of README's CLI block, its line continuations
    joined and its program name dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()[1:]) for line in lines if line.startswith("adalab ")]


def test_readme_commands_are_pinned():
    """A README command can neither go unpinned nor outlive its pin: each
    is a ``README_ATTACKS`` command or the pinned check-concentration one."""
    pinned = {command for command, _ in README_ATTACKS.values()}
    pinned.add(" ".join(TestCheckConcentration.BUILT + ["--assert", "holds:eq:1"]))
    commands = readme_cli_commands()
    assert len(commands) == 9
    assert [command for command in commands if command not in pinned] == []


class TestCheckConcentration:
    BUILT = ["check-concentration", "--eps", "0.25", "--gamma", "0.01", "--n", "16"]

    def test_built_instance_holds(self, capsys):
        code, out, _ = run(capsys, self.BUILT)
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert report["deviation_mass"] == pytest.approx(0.01)
        assert report["max_deviation"] == pytest.approx(0.99)
        assert report["hoeffding_gamma"] == pytest.approx(2 * 2.718281828459045**-2)

    def test_require_holds_failure_exits_two(self, capsys):
        code, out, err = run(capsys, self.BUILT + ["--threshold", "0.005", "--assert", "holds:eq:1"])
        assert code == 2
        assert json.loads(out)["holds"] is False
        assert err == "assertion failed: holds = False not eq 1.0\n"

    def test_require_holds_success_exits_zero(self, capsys):
        # README's command; its report is pinned byte for byte
        code, out, _ = run(capsys, self.BUILT + ["--assert", "holds:eq:1"])
        assert code == 0
        assert out == (
            "{\n"
            '  "deviation_mass": 0.01,\n'
            '  "gamma": 0.01,\n'
            '  "hoeffding_gamma": 0.2706705664732254,\n'
            '  "holds": true,\n'
            '  "max_deviation": 0.99,\n'
            '  "threshold": 0.25\n'
            "}\n"
        )

    def test_query_and_dist_files(self, capsys, tmp_path):
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        qpath.write_text('{"default_value": 0.0, "overrides": [[1, 1.0]]}')
        dpath.write_text(
            '{"samples": [{"elements": [0, 0]}, {"elements": [1, 1]}], "probabilities": [0.5, 0.5]}'
        )
        code, out, _ = run(
            capsys,
            [
                "check-concentration", "--query-file", str(qpath), "--dist-file", str(dpath),
                "--threshold", "0.6",
            ],
        )
        assert code == 0
        report = json.loads(out)
        # both samples sit exactly 0.5 from the true mean, under the threshold
        assert report["deviation_mass"] == 0.0
        assert report["max_deviation"] == pytest.approx(0.5)

    def test_files_without_gamma_make_no_holds_claim(self, capsys, tmp_path):
        # every sample deviates by 0.5 >= the threshold, so the mass is 1.0;
        # with no gamma there is nothing to hold it under
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        qpath.write_text('{"default_value": 0.0, "overrides": [[1, 1.0]]}')
        dpath.write_text(
            '{"samples": [{"elements": [0, 0]}, {"elements": [1, 1]}], "probabilities": [0.5, 0.5]}'
        )
        argv = ["check-concentration", "--query-file", str(qpath), "--dist-file", str(dpath), "--threshold", "0.1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["deviation_mass"] == 1.0
        assert "holds" not in report and "gamma" not in report
        code, out, err = run(capsys, argv + ["--assert", "holds:eq:1"])
        assert code == 2 and json.loads(out) == report
        assert err == "assertion on 'holds': metric not found in summary\n"
        code, out, err = run(capsys, argv + ["--gamma", "0.5", "--assert", "holds:eq:1"])
        assert code == 2
        assert json.loads(out) == {**report, "holds": False, "gamma": 0.5}
        assert err == "assertion failed: holds = False not eq 1.0\n"

    @pytest.mark.parametrize(
        "overrides, samples, message",
        [
            ("[[1.5, 1.0]]", "[[0, 0], [1, 1]]", "override ids must be 64-bit integers, got 1.5"),
            ("[[2, 0.25], [2, 0.75]]", "[[0, 0], [1, 1]]", "name an element id more than once"),
            ("[[2, 0.25], [2.0, 0.75]]", "[[0, 0], [1, 1]]", "name an element id more than once"),
            ("[[1, 1.0]]", "[[0.5, 0], [1, 1]]", "sample elements must be 64-bit integers, got 0.5"),
            # JSON reads 2**63 as a uint64 alone and as a float64 beside smaller ids: neither is an int64
            ("[[9223372036854775808, 1.0]]", "[[0, 0], [1, 1]]", "override ids must be 64-bit integers, got 9223372036854775808"),
            ("[[1, 1.0]]", "[[9223372036854775808, 1], [1, 1]]", "sample elements must be 64-bit integers, got 9223372036854775808"),
            # beside a float JSON's 2**62 + 1 reads as the float64 2**62, another element
            ("[[1, 1.0]]", "[[4611686018427387905, 1.0], [1, 1]]", "sample elements must be 64-bit integers, got 4611686018427387905"),
        ],
    )
    def test_bad_ids_in_files_exit_one(self, capsys, tmp_path, overrides, samples, message):
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        qpath.write_text(f'{{"default_value": 0.0, "overrides": {overrides}}}')
        rows = ", ".join(f'{{"elements": {row}}}' for row in json.loads(samples))
        dpath.write_text(f'{{"samples": [{rows}], "probabilities": [0.5, 0.5]}}')
        argv = ["check-concentration", "--query-file", str(qpath), "--dist-file", str(dpath), "--threshold", "0.6"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_permuted_samples_are_one_support_entry(self, capsys, tmp_path):
        # a sample is a multiset: [0, 1, 1] and [1, 0, 1] are one sample
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.json"
        qpath.write_text('{"default_value": 0.0, "overrides": [[1, 1.0]]}')
        dpath.write_text('{"samples": [{"elements": [0, 1, 1]}, {"elements": [1, 0, 1]}], "probabilities": [0.5, 0.5]}')
        argv = ["check-concentration", "--query-file", str(qpath), "--dist-file", str(dpath), "--threshold", "0.1"]
        assert run(capsys, argv) == (1, "", "error: support entries must be distinct\n")

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan"])
    def test_threshold_must_be_positive(self, capsys, monkeypatch, threshold):
        monkeypatch.setattr("adalab.cli.build_hard_instance", refuse_to_run)
        code, out, err = run(capsys, self.BUILT + ["--threshold", threshold])
        assert (code, out) == (1, "")
        assert err == f"error: --threshold must be positive, got {float(threshold)}\n"

    def test_file_flags_must_pair(self, capsys, tmp_path):
        qpath = tmp_path / "q.json"
        qpath.write_text('{"default_value": 0.5, "overrides": []}')
        code, _, err = run(capsys, ["check-concentration", "--query-file", str(qpath)])
        assert code == 1
        assert "must be given together" in err
        code, _, err = run(capsys, ["check-concentration", "--eps", "0.25"])
        assert code == 1
        assert "--gamma is required" in err
        dpath = tmp_path / "d.json"
        dpath.write_text('{"samples": [{"elements": [0, 1]}], "probabilities": [1.0]}')
        files = ["check-concentration", "--query-file", str(qpath), "--dist-file", str(dpath), "--threshold", "0.1"]
        for flag, value in (("--eps", "0.3"), ("--n", "99")):
            code, out, err = run(capsys, files + [flag, value])
            assert code == 1 and out == ""
            assert f"{flag} only builds the hard instance; do not pass it with --query-file" in err
        assert run(capsys, files)[0] == 0


def minimal_argv(name):
    """``name``'s command with its ``MINIMAL`` params as flags."""
    kind = KINDS[name]
    argv = [kind.command]
    for param in kind.params:
        if param.key in MINIMAL[name]:
            value = MINIMAL[name][param.key]
            argv += [param.flag, *map(str, value if param.nargs else [value])]
    return argv


def refuse_to_run(*args):
    raise AssertionError("a malformed claim must stop the command before it runs")


class TestClaims:
    """Every command checks each claim with ``check_claim`` before it runs:
    a malformed one exits 1 with nothing on stdout."""

    @pytest.mark.parametrize(
        "argv", [minimal_argv(name) for name in sorted(KINDS)] + [TestCheckConcentration.BUILT], ids=lambda a: a[0]
    )
    @pytest.mark.parametrize("claim", ["x:zz:1", "rows:ge:nan", "rows:ge:inf", ":ge:1"])
    def test_malformed_flag_claim_is_a_usage_error(self, capsys, monkeypatch, argv, claim):
        monkeypatch.setattr("adalab.cli.run_experiment", refuse_to_run)
        monkeypatch.setattr("adalab.cli.build_hard_instance", refuse_to_run)
        code, out, err = run(capsys, argv + ["--assert", claim])
        assert (code, out) == (1, "")
        assert "malformed assertion" in err
        if claim == "x:zz:1":
            assert "unknown op 'zz'" in err

    @pytest.mark.parametrize(
        "claim, message",
        [
            ({"metric": 5, "op": "ge", "value": 1}, "metric must be a non-empty string"),
            ({"metric": "rows", "op": ["ge"], "value": 1}, "unknown op ['ge']"),
            ({"metric": "rows", "op": "ge", "value": float("nan")}, "value must be finite"),
            ({"metric": "rows", "op": "ge", "value": 1, "why": "x"}, "needs exactly the keys metric, op, value"),
            ({"metric": "rows", "value": 1}, "needs exactly the keys metric, op, value"),
        ],
    )
    def test_malformed_config_claim_stops_before_the_run(self, capsys, monkeypatch, tmp_path, claim, message):
        monkeypatch.setattr("adalab.cli.run_experiment", refuse_to_run)
        prefix = tmp_path / "run"
        config = {"kind": "bounds_table", "params": MINIMAL["bounds_table"], "assertions": [claim], "out": str(prefix)}
        code, out, err = run_config(capsys, tmp_path, config)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed assertion") and message in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("run*")) == []

    def test_require_holds_is_gone(self, capsys):
        code, out, err = run(capsys, TestCheckConcentration.BUILT + ["--require-holds"])
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --require-holds" in err
