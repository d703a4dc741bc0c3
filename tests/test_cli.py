"""End-to-end command-line behavior: argument handling, file inputs,
CSV/JSON agreement, exit codes, and run-to-run determinism.
"""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcutoff
from qgcutoff.cli import MAX_GRID_POINTS, _build_parser, _float_grid, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# thresholds / moments


def test_thresholds_json(capsys):
    code, out, _ = run(capsys, "thresholds", "--tau", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == 8.0
    assert doc["C"] == pytest.approx(3.6512369414179595)
    assert doc["Q"] == pytest.approx(186.0 / 7.0)
    assert doc["cutoff_steps"] == pytest.approx(100.0 * math.log(100.0) / 2.0)


def test_thresholds_small_tau_has_no_Q(capsys):
    code, out, _ = run(capsys, "thresholds", "--tau", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] is None and doc["Qthr"] is None


def test_moments_lambda(capsys):
    code, out, _ = run(capsys, "moments", "--lambda-moments", "10:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_moments"]["0"] == 1.0
    assert doc["lambda_moments"]["1"] == pytest.approx(20.0 / 11.0)
    assert doc["wallis_ratio_recurrence"] == pytest.approx(10.0 / 11.0)
    assert "alternative" in doc["wallis_ratio_note"]


def test_moments_eps_delta(capsys):
    code, out, _ = run(capsys, "moments", "--nu", "delta:0.5", "--eps", "0,1,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["moments"]["1"]["re"] == pytest.approx(math.cos(0.5))
    assert doc["moments"]["-2"]["im"] == pytest.approx(math.sin(-1.0))


def test_moments_without_request_is_an_error(capsys):
    code, _, err = run(capsys, "moments")
    assert code == 2
    assert "--eps" in err or "--lambda-moments" in err


# ---------------------------------------------------------------------------
# profile


def test_profile_csv_single_row(capsys):
    code, out, _ = run(
        capsys,
        "profile", "--family", "wreath", "--N", "30", "--tau", "2",
        "--group", "cyclic:3", "--psi", "trivial", "--c", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# family=wreath") for l in header)
    assert any(l.startswith("# truncation_max_p=") for l in header)
    assert any(l.startswith("# nominal_cutoff=") for l in header)
    assert data[0].startswith("k,tv_upper_lo,tv_upper_hi,tv_lower,certified")
    assert len(data) == 2
    fields = data[1].split(",")
    k = float(fields[0])
    assert k == pytest.approx(30.0 * math.log(30.0) / 2.0 + 30.0)
    assert fields[4] == "true"
    assert 0.0 < float(fields[2]) < 1.0


def test_profile_csv_json_same_numbers(capsys):
    args = [
        "profile", "--family", "unitary", "--N", "20", "--tau", "2",
        "--k-range", "40:60:10",
    ]
    code_c, out_c, _ = run(capsys, *args, "--format", "csv")
    code_j, out_j, _ = run(capsys, *args, "--format", "json")
    assert code_c == 0 and code_j == 0
    rows_csv = [l.split(",") for l in out_c.strip().splitlines() if not l.startswith("#")][1:]
    doc = json.loads(out_j)
    assert len(rows_csv) == len(doc["rows"]) == 3
    for fields, row in zip(rows_csv, doc["rows"]):
        # repr round-trip: the CSV text must parse to the exact JSON float
        assert float(fields[0]) == row["k"]
        assert float(fields[1]) == row["tv_upper_lo"]
        assert float(fields[2]) == row["tv_upper_hi"]
        assert float(fields[3]) == row["tv_lower"]
        assert (fields[4] == "true") == row["certified"]


def test_profile_c_range_with_negative_values(capsys):
    code, out, _ = run(
        capsys,
        "profile", "--family", "unitary", "--N", "25", "--tau", "2",
        "--c-range", "-1:1:1", "--round-k",
    )
    assert code == 0
    data = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert len(data) == 3
    ks = [float(l.split(",")[0]) for l in data]
    assert all(k == round(k) for k in ks)
    assert ks == sorted(ks)


def test_profile_empty_grid_exit_2(capsys):
    # negative k values are dropped; an all-negative grid is empty
    code, _, err = run(
        capsys,
        "profile", "--family", "unitary", "--N", "25", "--tau", "2",
        "--c-range", "-9:-8:1",
    )
    assert code == 2
    assert "empty k grid" in err


def test_profile_requires_exactly_one_k_flag(capsys):
    code, _, err = run(
        capsys,
        "profile", "--family", "unitary", "--N", "20", "--tau", "2",
        "--k", "40", "--c", "1",
    )
    assert code == 2
    assert "--k" in err and "--c" in err


def test_profile_missing_tau_exit_2(capsys):
    code, _, err = run(capsys, "profile", "--family", "unitary", "--N", "20", "--k", "40")
    assert code == 2
    assert "--tau" in err


def test_profile_unknown_family_exit_2(capsys):
    code, _, _ = run(capsys, "profile", "--family", "orthogonal", "--N", "20", "--k", "4")
    assert code == 2


def test_profile_threads_do_not_change_output(capsys):
    args = [
        "profile", "--family", "unitary", "--N", "40", "--tau", "2",
        "--c-range", "0:2:1",
    ]
    _, out1, _ = run(capsys, *args, "--threads", "1")
    _, out8, _ = run(capsys, *args, "--threads", "8")
    assert out1 == out8
    assert "threads" not in out1


def test_profile_output_file(tmp_path, capsys):
    dest = tmp_path / "profile.csv"
    code, out, _ = run(
        capsys,
        "profile", "--family", "mixture", "--N", "30", "--c", "1",
        "--quad-points", "256", "--output", str(dest),
    )
    assert code == 0
    assert out == ""
    text = dest.read_text()
    assert "# family=mixture" in text


def test_profile_eval_family(capsys):
    code, out, _ = run(
        capsys,
        "profile", "--family", "eval", "--N", "20", "--theta", "3.14159",
        "--c", "1",
    )
    assert code == 0
    assert "# family=unitary-eval" in out
    assert "# theta=3.14159" in out


# ---------------------------------------------------------------------------
# bound


def test_bound_json_record(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--family", "unitary", "--N", "20", "--tau", "2", "--c", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["family"] == "unitary-free"
    assert doc["config"]["truncation_max_p"] == 12
    assert doc["certified"] is True
    assert doc["hypotheses"]["k >= 1"] is True
    assert 0.0 < doc["tv_upper_hi"] < 1.0
    assert doc["A_partial"] + doc["A_tail"] <= 2.0 * math.exp(-4.0) / (1.0 - 2.0 * math.exp(-4.0))


def test_bound_needs_single_k(capsys):
    code, _, err = run(
        capsys,
        "bound", "--family", "unitary", "--N", "20", "--tau", "2",
        "--k-range", "40:60:10",
    )
    assert code == 2
    assert "single k" in err


# ---------------------------------------------------------------------------
# file inputs


def test_group_and_state_from_files(tmp_path, capsys):
    g3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    cayley = tmp_path / "z3.txt"
    cayley.write_text("3\n" + "\n".join(" ".join(map(str, row)) for row in g3) + "\n")
    psi = tmp_path / "psi.txt"
    psi.write_text("1 0\n0.5 0\n0.5 0\n")
    code, out, _ = run(
        capsys,
        "profile", "--family", "wreath", "--N", "40", "--tau", "2",
        "--group", f"cayley:{cayley}", "--psi", f"file:{psi}", "--c", "1",
    )
    assert code == 0
    assert "# group_order=3" in out


def test_atoms_file(tmp_path, capsys):
    atoms = tmp_path / "atoms.txt"
    atoms.write_text("# two atoms\n0.0 0.5\n3.141592653589793 0.5\n")
    code, out, _ = run(
        capsys,
        "profile", "--family", "unitary", "--N", "20", "--tau", "2",
        "--nu", f"atoms:{atoms}", "--c", "1",
    )
    assert code == 0
    assert "# nu=atomic" in out


def test_missing_file_exit_2(capsys):
    code, _, err = run(
        capsys,
        "profile", "--family", "unitary", "--N", "20", "--tau", "2",
        "--nu", "atoms:/no/such/file", "--c", "1",
    )
    assert code == 2
    assert "no/such/file" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lambda_moment,anqn")
    assert code == 0
    assert "PASS lambda_moment" in out
    assert "PASS anqn" in out


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_report_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "anqn", "--report", str(dest))
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["all_pass"] is True
    assert doc["suites"]["anqn"]["pass_count"] == doc["suites"]["anqn"]["grid_size"]


# ---------------------------------------------------------------------------
# invalid input: exit 2 with a message naming the flag, never a traceback

_WALK = ["--family", "unitary", "--N", "20", "--tau", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound", "--family", "eval", "--N", "20", "--theta", "0", "--c", "1"], "--theta"),
        (["bound", "--family", "eval", "--N", "20", "--theta", repr(2.0 * math.pi), "--c", "1"], "--theta"),
        (["profile", "--family", "mixture", "--N", "20", "--c", "1", "--quad-points", "0"], "--quad-points"),
        (["moments", "--nu", "porod", "--N", "10", "--eps", "1", "--quad-points", "0"], "--quad-points"),
        (["bound", *_WALK, "--c", "1", "--max-p", "0"], "--max-p"),
        (["bound", *_WALK, "--c", "1", "--max-p", "5", "--max-total", "3"], "--max-total"),
        (["thresholds", "--tau", "2", "--N", "0"], "--N"),
        (["moments", "--lambda-moments", "1:3"], "--lambda-moments"),
        (["moments", "--lambda-moments", "10:-1"], "--lambda-moments"),
        (["moments", "--lambda-moments", "10:x"], "--lambda-moments"),
        (["bound", *_WALK, "--k", "inf"], "--k"),
        (["bound", *_WALK, "--c", "nan"], "--c"),
        (["profile", *_WALK, "--k-range", "0:inf:1"], "--k-range"),
        (["profile", *_WALK, "--c-range", "0:x:1"], "--c-range"),
        # step counts above MAX_K = 1e300
        (["bound", "--family", "unitary", "--N", "10", "--tau", "2", "--k", "1e306"], "--k"),
        (["profile", *_WALK, "--k-range", "1e300:2e300:1e300"], "--k-range"),
        (["bound", *_WALK, "--c", "1e300"], "--c"),
    ],
)
def test_invalid_input_exit_2(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# range grids: every --k-range/--c-range string ends in exit 0 or 2, quickly


class _Overrun(Exception):
    """Raised by the alarm; not an OSError, so main() cannot swallow it."""


@contextlib.contextmanager
def _time_limit(seconds):
    def fail(signum, frame):
        raise _Overrun(f"CLI call ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_RANGE_PART = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "-0", "1e-300", "1e16", "2e16", "1e308", "x", ""]),
    st.integers(-100, 100).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(["--k-range", "--c-range"]),
       parts=st.lists(_RANGE_PART, min_size=3, max_size=3) | st.lists(_RANGE_PART, min_size=1, max_size=4))
def test_range_grid_fuzz_exits_cleanly(flag, parts):
    argv = ["profile", "--family", "unitary", "--N", "10", "--tau", "2",
            "--max-p", "2", "--max-total", "4", flag, ":".join(parts)]
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(60.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert flag in err.getvalue()
    else:
        rows = [ln for ln in out.getvalue().splitlines() if not ln.startswith(("#", "k,"))]
        assert rows and all(math.isfinite(float(ln.split(",")[0])) for ln in rows)


@pytest.mark.parametrize("flag, spec, message", [
    ("--k-range", "1e16:2e16:1", "float spacing"),
    ("--k-range", "0:1e12:1", "exceed the limit"),
    ("--k-range", "-1.7e308:1.7e308:1e300", "exceed the limit"),
    ("--c-range", "1e307:1e308:1e307", "overflows"),
    ("--c", "1e308", "overflows"),
])
def test_range_grid_limits_exit_2(capsys, flag, spec, message):
    with _time_limit(10.0):
        code, _, err = run(capsys, "profile", *_WALK, flag, spec)
    assert code == 2
    assert flag in err and message in err


def test_range_grid_at_the_limit_is_accepted():
    assert len(_float_grid(f"0:{MAX_GRID_POINTS - 1}:1", "--k-range")) == MAX_GRID_POINTS


# ---------------------------------------------------------------------------
# one argparse tree per process


def test_parser_is_built_once_and_calls_match_separate_processes(capsys):
    calls = [
        ["thresholds", "--tau", "2"],
        ["bound", *_WALK, "--c", "x"],
        ["profile", *_WALK, "--c-range", "-1:1:1"],
        ["moments", "--nu", "delta:0.5", "--eps", "0,1"],
    ]
    _build_parser.cache_clear()
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _ in in_process] == [0, 2, 0, 0]
    src = os.path.dirname(os.path.dirname(qgcutoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys; from qgcutoff.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, expected in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == expected
