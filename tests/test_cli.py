import hashlib
import json
import os
import subprocess
import sys

import pytest

import krlib
from krlib import cli, krset, modforge
from krlib.errors import TheoremCheckError
from krlib.linalg import SpMat

# child processes import the same krlib as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(krlib.__file__))
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "krlib.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc


def test_set_untwisted_example():
    proc = run_cli("set", "--algebra", "C3", "--node", "2", "--level", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [
        {"weight": [0, 2, 0], "grade": 0},
        {"weight": [2, 0, 0], "grade": 1},
        {"weight": [0, 0, 0], "grade": 2},
    ]


def test_set_a_series_single_entry():
    proc = run_cli("set", "--algebra", "A2", "--node", "1", "--level", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [{"weight": [3, 0], "grade": 0}]


def test_set_twisted_reports_g0():
    proc = run_cli("set", "--algebra", "A4~", "--node", "2", "--level", "4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["g0"] == "B2"
    assert [e["grade"] for e in payload["set"]] == [0, 1, 2]
    # trailing marker and --twisted spell the same algebra
    alt = run_cli("set", "--algebra", "A4", "--twisted", "--node", "2", "--level", "4")
    assert json.loads(alt.stdout) == payload


def test_char_dim_polynomials():
    proc = run_cli("char", "--algebra", "C2", "--node", "1", "--level", "2")
    payload = json.loads(proc.stdout)
    assert payload["dim_poly"] == [10, 1]
    assert payload["dim_total"] == 11
    proc = run_cli("char", "--algebra", "B4", "--node", "3", "--level", "1")
    assert json.loads(proc.stdout)["dim_poly"] == [84, 9]


def test_char_twisted_three_pieces():
    proc = run_cli("char", "--algebra", "D4~", "--node", "2", "--level", "1")
    payload = json.loads(proc.stdout)
    assert payload["g0"] == "B3"
    assert payload["dim_poly"] == [21, 7, 1]
    assert len(payload["grades"]) == 3


def test_char_output_is_deterministic():
    a = run_cli("char", "--algebra", "C3", "--node", "2", "--level", "2").stdout
    b = run_cli("char", "--algebra", "C3", "--node", "2", "--level", "2").stdout
    assert a == b


def test_invalid_inputs_exit_2():
    assert run_cli("set", "--algebra", "Q7", "--node", "1", "--level", "1").returncode == 2
    assert run_cli("set", "--algebra", "C3", "--node", "9", "--level", "1").returncode == 2
    assert run_cli("set", "--algebra", "A2~", "--node", "2", "--level", "1").returncode == 2
    assert run_cli("nonsense").returncode == 2


@pytest.mark.parametrize("label", ["C\u00b2", "C\u0663", "B\uff13", "D4\u00b2~"])
def test_algebra_labels_take_ascii_digits_only(capsys, label):
    # superscript two, Arabic-Indic three and fullwidth three are digits to
    # str.isdigit, and int() even reads the last two
    assert cli.main(["set", "--algebra", label, "--node", "1", "--level", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot parse algebra label {label.rstrip('~')!r}\n"


def test_verify_chains_suite():
    proc = run_cli("verify", "chains", "--max-rank", "4")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_homs_single_algebra():
    proc = run_cli("verify", "homs", "--algebra", "C3", "--node", "2")
    assert proc.returncode == 0
    assert "two-step Hom = (0,)" in proc.stdout


def test_verify_modforge_single_case():
    proc = run_cli("verify", "modforge", "--algebra", "C2", "--node", "1", "--level", "4")
    assert proc.returncode == 0
    assert "grades [0, 1, 2]" in proc.stdout


@pytest.mark.parametrize(
    "argv,message",
    [
        (["chains", "--max-rank", "0"], "--max-rank must be at least 1, got 0"),
        (["chains", "--max-rank", "-1"], "--max-rank must be at least 1, got -1"),
        (["tensor-bound", "--max-level", "0"], "--max-level must be at least 1, got 0"),
        (["tensor-bound", "--max-level", "-2"], "--max-level must be at least 1, got -2"),
        (["homs", "--algebra", "C3", "--node", "0"], "--node must be at least 1, got 0"),
        (["homs", "--max-rank", "1"], "verify homs selects no check"),
        (["wedge", "--max-rank", "1"], "verify wedge selects no check"),
    ],
)
def test_verify_rejects_invalid_bounds(capsys, argv, message):
    # a bound below 1, or one that leaves no check, is an input error and
    # never a passing run
    assert cli.main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_smallest_bounds_still_run(capsys):
    assert cli.main(["verify", "chains", "--max-rank", "1"]) == 0
    assert capsys.readouterr().out == "ok   chain A1 node 1: k=0\n1/1 checks passed\n"
    assert cli.main(["verify", "tensor-bound", "--max-rank", "1", "--max-level", "1"]) == 0
    assert capsys.readouterr().out.endswith("\n1/1 checks passed\n")


# (a valid verify run, a flag that run would ignore)
SELECTORS = (["--algebra", "C3"], ["--twisted"], ["--node", "1"], ["--level", "1"])
IGNORED_FLAGS = [
    *[([suite], flag) for suite in ("chains", "wedge") for flag in SELECTORS],
    (["chains"], ["--max-level", "2"]),
    (["wedge"], ["--max-level", "2"]),
    *[([suite], flag) for suite in ("tensor-bound", "all") for flag in SELECTORS],
    (["all", "--max-rank", "2"], ["--algebra", "C3"]),
    (["homs", "--algebra", "C3"], ["--level", "5"]),
    (["homs", "--algebra", "C3"], ["--max-rank", "3"]),
    (["homs", "--algebra", "C3"], ["--max-level", "2"]),
    (["homs"], ["--twisted"]),
    (["homs"], ["--node", "1"]),
    (["homs"], ["--level", "1"]),
    (["homs"], ["--max-level", "2"]),
    (["modforge"], ["--twisted"]),
    (["modforge"], ["--node", "2"]),
    (["modforge"], ["--level", "1"]),
    (["modforge"], ["--max-rank", "3"]),
    (["modforge"], ["--max-level", "2"]),
    (["modforge", "--algebra", "C2", "--node", "1"], ["--max-rank", "3"]),
    (["modforge", "--algebra", "C2", "--node", "1"], ["--max-level", "2"]),
]


@pytest.mark.parametrize(
    "argv,flag", IGNORED_FLAGS, ids=[" ".join(a + f) for a, f in IGNORED_FLAGS]
)
def test_verify_rejects_flags_its_run_ignores(capsys, argv, flag):
    # a flag the suite never reads would let a run report checks the caller
    # did not ask for; it is an input error before any check runs
    assert cli.main(["verify", *argv, *flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: verify {argv[0]} does not take {flag[0]}\n"


def test_verify_failure_exits_1(monkeypatch):
    real = krset.enumerate_chain

    def broken(rs, i, m0=None):
        raise TheoremCheckError("planted")

    monkeypatch.setattr(krset, "enumerate_chain", broken)
    code = cli.main(["verify", "chains", "--max-rank", "2"])
    assert code == 1


def test_verify_prints_each_line_as_its_check_finishes(monkeypatch, capsys):
    real = krset.enumerate_chain
    printed_before = []

    def spy(rs, i, m0=None):
        printed_before.append(capsys.readouterr().out)
        return real(rs, i, m0)

    monkeypatch.setattr(krset, "enumerate_chain", spy)
    assert cli.main(["verify", "chains", "--max-rank", "2"]) == 0
    # A1, A2, B2 and C2: each check finds the line of the one before it printed
    assert len(printed_before) == 7
    assert printed_before[0] == ""
    for out in printed_before[1:]:
        assert out.startswith("ok   chain ") and out.count("\n") == 1


def test_verify_fails_on_a_broken_evaluation_factor(monkeypatch, capsys):
    # f_1 zeroed in the evaluation factor: the span is no longer a g-module,
    # its character is not genuine, and that is a failed check, not bad input
    real = modforge.evaluation_module

    def broken(rs, node, m):
        cm = real(rs, node, m)
        cb = modforge.chevalley(rs)
        mats = list(cm.g_action[0])
        f1 = cb.minus_index(cb.simple[0])
        mats[f1] = SpMat(mats[f1].rows, mats[f1].cols)
        return cm._replace(g_action=(tuple(mats),))

    monkeypatch.setattr(modforge, "evaluation_module", broken)
    code = cli.main(["verify", "modforge", "--algebra", "A2", "--node", "1", "--level", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0].startswith("FAIL tensor submodule A2 node 1 level 3: grade 0 of the span: not a genuine character")
    assert out[-1] == "0/1 checks passed"


def test_verify_twisted_modforge_rejected():
    proc = run_cli("verify", "modforge", "--algebra", "A4~", "--node", "1")
    assert proc.returncode == 2


def test_in_process_main_matches_subprocess(capsys):
    code = cli.main(["set", "--algebra", "C2", "--node", "1", "--level", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"weight": [2, 0], "grade": 0},
        {"weight": [0, 0], "grade": 1},
    ]


def run_optimized(*argv):
    return subprocess.run(
        [sys.executable, "-O", "-m", "krlib.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_verify_modforge_same_under_optimize_flag():
    # explicit checks, not asserts, guard the run, so -O changes nothing
    argv = ["verify", "modforge", "--algebra", "C2", "--node", "1"]
    plain = run_cli(*argv)
    optimized = run_optimized(*argv)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert "1/1 checks passed" in plain.stdout


def test_chains_and_char_same_under_optimize_flag():
    for argv in (
        ["verify", "chains", "--max-rank", "4"],
        ["char", "--algebra", "C3", "--node", "2", "--level", "4"],
        ["char", "--algebra", "A4~", "--node", "2", "--level", "5"],
    ):
        plain = run_cli(*argv)
        optimized = run_optimized(*argv)
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout


def test_verify_guard_reports_and_continues():
    env = dict(CHILD_ENV, KR_MAX_DIM="50")
    proc = subprocess.run(
        [sys.executable, "-m", "krlib.cli", "verify", "modforge"],
        capture_output=True,
        text=True,
        env=env,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 2
    assert lines[0].startswith("ok   modforge C2 node 1: dims [10, 1]")
    assert lines[1].startswith("ok   modforge C3 node 1: dims [21, 1]")
    assert "GUARD modforge C3 node 2: dim V((0, 2, 0)) = 90 exceeds 50" in lines
    assert any(line.startswith("GUARD modforge B4 node 3: ") for line in lines)
    assert all(line.startswith(("ok   ", "GUARD ")) for line in lines[:-1])
    assert lines[-1] == "6/8 checks passed"


def test_verify_modforge_b3_node2_level4_at_and_below_the_default_guard():
    argv = ["verify", "modforge", "--algebra", "B3", "--node", "2", "--level", "4"]
    proc = run_cli(*argv)
    assert proc.returncode == 0
    assert proc.stdout == "ok   tensor submodule B3 node 2 level 4: grades [0, 1, 2, 3, 4]\n1/1 checks passed\n"
    proc = subprocess.run(
        [sys.executable, "-m", "krlib.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(CHILD_ENV, KR_MAX_DIM="1000"),
    )
    assert proc.returncode == 2
    assert proc.stdout.startswith(
        "GUARD tensor submodule B3 node 2 level 4: tensor space dim 12650 exceeds 1000\n"
    )


def test_set_guards_the_size_of_pplus(capsys):
    # |P+(5, 60)| of C6 is C(30 + 4, 4) = 324632, refused before it is listed
    assert cli.main(["set", "--algebra", "C6", "--node", "5", "--level", "60"]) == 2
    assert "|P+(5, 60)| = 324632 exceeds 100000" in capsys.readouterr().err


# sha256 of the (argv, exit code, stdout) records of GRADED_SWEEP, recorded
# before the untwisted and twisted graded sets moved onto one KR datum
GRADED_DIGEST = "70b5ae6cef4087f6a13d96e156a25c0a34207788990ce747f5cd65077659f197"
GRADED_SWEEP = (
    [f"A{n}" for n in range(1, 5)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 5)]
    + ["D3", "D4"]
    + [f"A{n}~" for n in range(2, 9)]
    + [f"D{n}~" for n in range(3, 6)]
)


def test_graded_sets_match_recorded_digest(capsys):
    records = []
    for label in GRADED_SWEEP:
        alg = cli.parse_algebra(label)
        rank = alg.g0.rank if isinstance(alg, cli.TwistedData) else alg.rank
        for cmd in ("set", "char"):
            for node in range(1, rank + 1):
                for level in range(0, 6):
                    argv = [cmd, "--algebra", label, "--node", str(node), "--level", str(level)]
                    code = cli.main(argv)
                    records.append([argv, code, capsys.readouterr().out])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == (756, GRADED_DIGEST)


# sha256 of the (argv, exit code, stdout) record of `kr verify modforge` over
# its eight default modules, recorded before the intertwiners were solved one
# weight space at a time
MODFORGE_DIGEST = "de69bf181521542d041f0e7a6eff1c3d1bf41422c212aa021d9d117d34a5dae1"


def test_verify_modforge_matches_recorded_digest(capsys):
    argv = ["verify", "modforge"]
    code = cli.main(argv)
    record = [argv, code, capsys.readouterr().out]
    assert code == 0
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == MODFORGE_DIGEST


# sha256 of the (argv, exit code, stdout) records of the chains, homs and
# wedge sweeps, two single-algebra homs runs and a homs sweep under a guard
# of 20, recorded before the untwisted and twisted sweeps shared one loop
SWEEPS_DIGEST = "1c95aa3e2c38c2fb0a8fa6597f8dc394bb7df4a7c31ed78a26b6c7739d1cc522"

SWEEP_RUNS = [
    (["verify", "chains"], None),
    (["verify", "homs"], None),
    (["verify", "wedge"], None),
    (["verify", "homs", "--algebra", "A5~"], None),
    (["verify", "homs", "--algebra", "D5~"], None),
    (["verify", "homs"], "20"),
]


def test_verify_sweeps_match_recorded_digest(monkeypatch, capsys):
    records = []
    for argv, guard in SWEEP_RUNS:
        if guard is None:
            monkeypatch.delenv("KR_MAX_DIM", raising=False)
        else:
            monkeypatch.setenv("KR_MAX_DIM", guard)
        code = cli.main(argv)
        records.append([argv, guard, code, capsys.readouterr().out])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SWEEPS_DIGEST
