"""End-to-end command-line behavior: argument handling, file inputs,
CSV/JSON agreement, exit codes, and run-to-run determinism.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgcutoff
from qgcutoff import bounds, cli, structures
from qgcutoff.bounds import WalkQuery
from qgcutoff.cli import _FAMILY_TOKENS, MAX_GRID_POINTS, MAX_LAMBDA_MOMENT, _build_parser, _float_grid, main
from qgcutoff.verify import suite_names

from oracles import benchmark_pool

_DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("tau", ["1e100", "1e308"])
def test_thresholds_Q_past_the_float_range_exits_2(capsys, tau):
    # Q's tau**4 overflows from about 1.3e77 on
    code, out, err = run(capsys, "thresholds", "--tau", tau, "--N", "10")
    assert code == 2
    assert err == "error: --tau gives Q = inf, beyond the float range\n"
    assert out == ""


def test_moments_lambda(capsys):
    code, out, _ = run(capsys, "moments", "--lambda-moments", "10:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_moments"]["0"] == 1.0
    assert doc["lambda_moments"]["1"] == pytest.approx(20.0 / 11.0)
    assert doc["wallis_ratio_recurrence"] == pytest.approx(10.0 / 11.0)
    assert "alternative" in doc["wallis_ratio_note"]


def test_moments_lambda_at_a_huge_N_exits_0(capsys):
    code, out, _ = run(capsys, "moments", "--lambda-moments", f"{10**308}:5")
    assert code == 0
    assert json.loads(out)["lambda_moments"] == {str(l): 2.0**l for l in range(6)}


def test_moments_lambda_note_names_the_exact_rule_check(capsys):
    # no command runs a quadrature: the note points at verify's exact Porod rule
    code, out, _ = run(capsys, "moments", "--lambda-moments", "10:4")
    assert code == 0
    note = json.loads(out)["wallis_ratio_note"]
    assert "quadrature" not in note
    assert "verify --suite lambda_moment" in note


def test_moments_eps_delta(capsys):
    code, out, _ = run(capsys, "moments", "--nu", "delta:0.5", "--eps", "0,1,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["moments"]["1"]["re"] == pytest.approx(math.cos(0.5))
    assert doc["moments"]["-2"]["im"] == pytest.approx(math.sin(-1.0))


def test_moments_eps_porod_is_exact(capsys):
    # m_e = prod_{j <= |e|} -(h - j + 1)/(h + j), h = 4.5: real, and never 0 for even N
    code, out, _ = run(capsys, "moments", "--nu", "porod", "--N", "10", "--eps", "0,1,-2,6")
    assert code == 0
    doc = json.loads(out)
    assert doc["nu"] == "porod(N=10)"
    assert {e: v["im"] for e, v in doc["moments"].items()} == {"0": 0.0, "1": 0.0, "-2": 0.0, "6": 0.0}
    assert doc["moments"]["0"]["re"] == 1.0
    assert doc["moments"]["1"]["re"] == pytest.approx(-4.5 / 5.5, rel=1e-15)
    assert doc["moments"]["-2"]["re"] == pytest.approx(4.5 * 3.5 / (5.5 * 6.5), rel=1e-15)
    assert doc["moments"]["6"]["re"] != 0.0


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


def test_profile_bytes_do_not_depend_on_blas_threads():
    # 101-point profiles in two fresh processes each, one with BLAS and
    # OpenMP on one thread and one on two: the engine's reductions take no
    # threaded path, so the bytes agree.  The Haar profile's rows take the
    # polynomial kernel, the N = 5, tau = 2.99 one's the log-domain kernel.
    src = os.path.dirname(os.path.dirname(qgcutoff.__file__))
    script = "import sys; from qgcutoff.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (
        ["profile", "--family", "unitary", "--N", "30000", "--tau", "2", "--nu", "haar", "--c-range", "-5:5:0.1"],
        ["profile", "--family", "unitary", "--N", "5", "--tau", "2.99", "--k-range", "10:1010:10"],
    ):
        outs = []
        for threads, flag in (("1", "1"), ("2", "4")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script, *argv, "--threads", flag],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0 and proc.stderr == b""
            outs.append(proc.stdout)
        assert len([line for line in outs[0].decode().splitlines() if not line.startswith("#")]) == 1 + 101
        assert outs[0] == outs[1]


def test_profile_output_file(tmp_path, capsys):
    dest = tmp_path / "profile.csv"
    code, out, _ = run(
        capsys,
        "profile", "--family", "mixture", "--N", "30", "--c", "1",
        "--output", str(dest),
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


@pytest.mark.parametrize("walk, count", [
    (("--family", "unitary", "--nu", "delta:0", "--max-total", "48"), 2 * (2**48 - 1)),
    (("--family", "unitary", "--nu", "delta:0", "--max-total", "100"), float(2 * (2**100 - 1))),
    (("--family", "unitary", "--nu", "delta:0", "--max-total", "4096"), "infinity"),
    (("--family", "wreath", "--group", "cyclic:256", "--psi", "trivial", "--max-total", "4096"), "infinity"),
])
def test_bound_word_count_prints_as_a_double_readable_number(capsys, walk, count):
    # exact up to 2^53, a double past it, "infinity" past the double range:
    # 2 (2^4096 - 1) words, and about 10^4900 over Z/256, the latter past
    # Python's own int-to-str limit
    code, out, _ = run(capsys, "bound", "--N", "100", "--tau", "2", "--c", "1", *walk)
    assert code == 0
    assert json.loads(out)["terms_used"] == count
    # a reader that parses every number as a double reads the same value
    assert json.loads(out, parse_int=float)["terms_used"] == count


def _json_dumps_indent_2(text):
    """The output ``text`` of a JSON command written again by
    ``json.dumps(indent=2, allow_nan=False)`` from the document it holds."""
    return json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"


def test_json_commands_write_what_json_dumps_writes_on_every_pool_invocation(monkeypatch, capsys, tmp_path):
    # every bound of the benchmark pool, and every profile as JSON; a
    # parsed document keeps its key order, floats, ints and strings, so
    # writing it again gives the bytes json.dumps gives
    argvs = benchmark_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    extra = [
        ["bound", "--family", "unitary", "--N", "100", "--tau", "2", "--c", "1", "--max-total", "100"],
        ["bound", "--family", "unitary", "--N", "100", "--tau", "2", "--c", "1", "--max-total", "1100"],
        ["bound", "--family", "unitary", "--N", "100000", "--tau", "2", "--k", "0"],
        ["profile", "--family", "unitary", "--N", "20", "--tau", "2", "--k-range", "0:60:10", "--format", "json"],
    ]
    for argv in [list(a) + ["--format", "json"] if a[0] == "profile" and "json" not in a else list(a)
                 for a in argvs] + extra:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == _json_dumps_indent_2(out), argv
    # past 2^53 words a double, past the double range "infinity", and an
    # infinite partial
    assert [json.loads(out)[key] for out, key in zip(
        [run(capsys, *argv)[1] for argv in extra[:3]], ("terms_used", "terms_used", "A_partial"))] == [
        float(2 * (2**100 - 1)), "infinity", "infinity"]


_JSON_SCALARS = (st.text() | st.booleans() | st.integers(min_value=-(2**80), max_value=2**80)
                 | st.floats(allow_nan=False, allow_infinity=False))


@given(docs=st.lists(st.dictionaries(st.text(), _JSON_SCALARS, min_size=1, max_size=12), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_json_object_is_json_dumps_indent_2(docs):
    # several dicts from one encoder pass, each alone and nested one level
    # down as the config and hypotheses are
    items = cli._json_items(docs)
    assert len(items) == len(docs)
    for doc, doc_items in zip(docs, items):
        assert cli._json_object(doc_items, "") == json.dumps(doc, indent=2, allow_nan=False)
        nested = json.dumps({"config": doc}, indent=2, allow_nan=False)
        assert '{\n  "config": ' + cli._json_object(doc_items, "  ") + "\n}" == nested


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writers_reject_what_json_dumps_rejects(value):
    doc = {"k": 1.0, "x": value}
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        cli._json_items([{"k": 1.0}, doc])
    with pytest.raises(ValueError):
        cli._json_numbers(np.array([0.5, value]))


_PATH_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"), min_size=1,
                     max_size=12).filter(lambda name: name not in (".", ".."))


@given(group=_PATH_TEXT, psi=_PATH_TEXT, command=st.sampled_from(["bound", "profile"]))
@example(group='q"b\\s\x01\u00e9', psi="\u03c8\n\t'", command="bound")
@example(group="\u6f22\x7f\"", psi='\\"', command="profile")
@settings(max_examples=40, deadline=None)
def test_json_commands_print_file_paths_as_json_dumps_does(group, psi, command):
    # the config holds the --group and --psi values as given: quotes,
    # backslashes, control characters and non-ASCII text are escaped as
    # json.dumps escapes them
    with tempfile.TemporaryDirectory() as tmp:
        group_path, psi_path = Path(tmp, "g", group), Path(tmp, "p", psi)
        for path, text in ((group_path, "2\n0 1\n1 0\n"), (psi_path, "1 0\n0 0\n")):
            path.parent.mkdir()
            path.write_text(text, encoding="utf-8")
        argv = [command, "--family", "wreath", "--N", "40", "--tau", "2", "--group", f"cayley:{group_path}",
                "--psi", f"file:{psi_path}"] + (["--c", "1"] if command == "bound" else
                                                ["--c-range", "-1:1:1", "--format", "json"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0 and out.getvalue() == _json_dumps_indent_2(out.getvalue())
    assert json.loads(out.getvalue())["config"]["group"] == f"cayley:{group_path}"


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


@pytest.mark.parametrize("atoms", ["0.5 0.5\n0.5 0.5\n", "0.5 0.25\n6.783185307179586 0.75\n", "0.5 1.0\n1.0 0.0\n"])
def test_atoms_at_one_angle_print_the_point_mass_record(tmp_path, capsys, atoms):
    # the second file's angles are equal modulo 2 pi, and the third's atom
    # at 1.0 carries no mass; all take the point mass's path, so only the
    # nu line tells the records apart
    path = tmp_path / "atoms.txt"
    path.write_text(atoms)
    argv = ["bound", "--family", "unitary", "--N", "200", "--tau", "2", "--c", "0.2"]
    code, want, _ = run(capsys, *argv, "--nu", "delta:0.5")
    assert code == 0
    code, got, _ = run(capsys, *argv, "--nu", f"atoms:{path}")
    assert code == 0
    differ = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
    assert len(got.splitlines()) == len(want.splitlines())
    assert [w.split(":")[0] for w, _ in differ] == ['    "nu"'], differ
    assert '"A_partial": 5.591192795660458,' in got and '"A_tail": 0.0020787306827313935,' in got


def test_missing_file_exit_2(capsys):
    code, _, err = run(
        capsys,
        "profile", "--family", "unitary", "--N", "20", "--tau", "2",
        "--nu", "atoms:/no/such/file", "--c", "1",
    )
    assert code == 2
    assert "no/such/file" in err and "--nu" in err


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


def test_verify_all_writes_the_pinned_stdout_and_report(tmp_path, capsys):
    # the report lists the first failures of each negative control, and counts all of them
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--report", str(dest))
    assert code == 0
    assert out == (_DATA / "verify_all_stdout.txt").read_text(encoding="utf-8")
    assert dest.read_bytes() == (_DATA / "verify_all_report.json").read_bytes()


def test_verify_output_file_holds_the_pinned_stdout(tmp_path, capsys):
    dest = tmp_path / "verify.txt"
    code, out, err = run(capsys, "verify", "--suite", "all", "--output", str(dest))
    assert code == 0 and out == "" and err == ""
    assert dest.read_text(encoding="utf-8") == (_DATA / "verify_all_stdout.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("suite", ["bogus", "anqn,bogus"])
def test_verify_unknown_suite_names_the_flag_and_writes_no_report(tmp_path, capsys, suite):
    dest = tmp_path / "f.json"
    code, out, err = run(capsys, "verify", "--suite", suite, "--report", str(dest))
    assert code == 2 and out == ""
    assert "error: --suite: unknown suite 'bogus'" in err
    assert not dest.exists()


@pytest.mark.parametrize("walk, max_total", [
    (("--family", "unitary", "--N", "200", "--tau", "2"), "5"),
    (("--family", "unitary", "--N", "200", "--tau", "2", "--nu", "haar"), "5"),
    (("--family", "unitary", "--N", "200", "--tau", "2", "--nu", "porod"), "5"),
    (("--family", "unitary", "--N", "20", "--tau", "2", "--max-p", "5"), "3"),
    (("--family", "eval", "--N", "200", "--theta", "2"), "5"),
    (("--family", "wreath", "--N", "100", "--tau", "2", "--group", "cyclic:3"), "6"),
    (("--family", "mixture", "--N", "100"), "3"),
], ids=["delta", "haar", "porod", "max-p-above", "eval", "wreath", "mixture"])
def test_max_total_below_max_p_runs_at_max_p_equal_to_max_total(capsys, walk, max_total):
    # no word has more blocks than its index total, so a --max-total below
    # the family's default --max-p, or below an explicit one, runs and
    # prints the record of --max-p equal to --max-total
    code, out, err = run(capsys, "bound", *walk, "--c", "1", "--max-total", max_total)
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["truncation_max_p"] == int(max_total)
    # the last --max-p given is the one read
    assert run(capsys, "bound", *walk, "--c", "1", "--max-total", max_total, "--max-p", max_total) == (0, out, "")


# ---------------------------------------------------------------------------
# invalid input: exit 2 with a message naming the flag, never a traceback

_WALK = ["--family", "unitary", "--N", "20", "--tau", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound", "--family", "eval", "--N", "20", "--theta", "0", "--c", "1"], "--theta"),
        (["bound", "--family", "eval", "--N", "20", "--theta", repr(2.0 * math.pi), "--c", "1"], "--theta"),
        # --quad-points is gone with the mixture's quadrature: the parser names it
        (["profile", "--family", "mixture", "--N", "20", "--c", "1", "--quad-points", "0"], "--quad-points"),
        (["moments", "--nu", "porod", "--N", "10", "--eps", "1", "--quad-points", "0"], "--quad-points"),
        (["bound", *_WALK, "--c", "1", "--max-p", "0"], "--max-p"),
        # a max_total below max_p runs (max_p is stored as max_total), but max_total is at least 1
        (["bound", *_WALK, "--c", "1", "--max-p", "5", "--max-total", "0"], "--max-total"),
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
        # non-finite measures and states (files written by the test)
        (["bound", "--family", "unitary", "--N", "100", "--tau", "2", "--nu", "atoms:nan-weight.txt", "--c", "1"],
         "--nu"),
        (["bound", *_WALK, "--nu", "delta:nan", "--c", "1"], "--nu"),
        (["bound", *_WALK, "--nu", "delta:inf", "--c", "1"], "--nu"),
        (["bound", *_WALK, "--nu", "delta:x", "--c", "1"], "--nu"),
        (["moments", "--nu", "delta:nan", "--eps", "1"], "--nu"),
        (["bound", "--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:2", "--psi",
          "file:nan-psi.txt", "--c", "1"], "--psi"),
        (["bound", "--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:x", "--c", "1"], "--group"),
        # no --quad-points
        (["profile", "--family", "mixture", "--N", "20", "--c", "1", "--quad-points", "65537"], "--quad-points"),
        # above MAX_TOTAL = 4096, and a mixture truncation above MAX_MIXTURE_WORDS = 100000 words
        (["bound", *_WALK, "--c", "1", "--max-p", "2", "--max-total", "4097"], "--max-total"),
        (["profile", "--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:2", "--c", "1",
          "--max-total", "100000000"], "--max-total"),
        (["profile", "--family", "mixture", "--N", "100", "--c", "1", "--max-p", "12", "--max-total", "48"],
         "--max-p"),
        (["bound", "--family", "mixture", "--N", "100", "--c", "1", "--max-p", "6", "--max-total", "24"],
         "--max-total"),
        # above MAX_P = 64; no --quad-points
        (["bound", *_WALK, "--c", "1", "--max-p", "65", "--max-total", "100"], "--max-p"),
        (["bound", "--family", "mixture", "--N", "100", "--c", "1", "--max-p", "1", "--max-total", "1024",
          "--quad-points", "4096"], "--quad-points"),
        # a Porod moment index above MAX_MOMENT_INDEX = 100000, and one that overflows a float
        (["moments", "--nu", "porod", "--N", "10", "--eps", "0,100001"], "--eps"),
        (["moments", "--nu", "delta:1", "--eps", "1" + "0" * 400], "--eps"),
        # a mixture ratio table above MAX_MIXTURE_TABLE = 2^22 entries: 2048 * 2049 at (1, 2047)
        (["bound", "--family", "mixture", "--N", "100", "--c", "1", "--max-p", "1", "--max-total", "2047"],
         "--max-total"),
        # constants and cutoffs beyond the float range: Q's tau^4, C and D at a tiny tau, N ln N
        (["thresholds", "--tau", "1e200"], "--tau"),
        (["thresholds", "--tau", "1e-320"], "--tau"),
        (["thresholds", "--tau", "2", "--N", "1" + "0" * 400], "--N"),
        (["thresholds", "--tau", "2", "--N", "1" + "0" * 307], "--N"),
        (["bound", *_WALK, "--tau", "1e-320", "--k", "1"], "--tau"),
        # LMAX above MAX_LAMBDA_MOMENT = 1023, where 2^LMAX overflows, and an N beyond the float range
        (["moments", "--lambda-moments", "10:1024"], "--lambda-moments"),
        (["moments", "--lambda-moments", "1" + "0" * 400 + ":1"], "--lambda-moments"),
        # a group order above MAX_GROUP_ORDER = 256, refused before any table is built
        (["bound", "--family", "wreath", "--N", "30", "--tau", "3", "--group", "cyclic:257", "--c", "1"], "--group"),
        (["bound", "--family", "wreath", "--N", "30", "--tau", "3", "--group", "cayley:order-257.txt", "--c", "1"],
         "--group"),
    ],
)
def test_invalid_input_exit_2(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan-weight.txt").write_text("0.5 nan\n1.0 1.0\n")
    (tmp_path / "nan-psi.txt").write_text("1 0\nnan 0\n")
    (tmp_path / "order-257.txt").write_text("257\n")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err


# one valid walk per CLI family, and a value for each walk flag
_FAMILY_WALKS = {
    "unitary": ["--family", "unitary", "--N", "20", "--tau", "2"],
    "eval": ["--family", "eval", "--N", "20", "--theta", "1"],
    "mixture": ["--family", "mixture", "--N", "20", "--max-p", "2", "--max-total", "4"],
    "wreath": ["--family", "wreath", "--N", "30", "--tau", "2", "--group", "cyclic:2"],
}
# --quad-points, which no family reads since the mixture's average is exact, stays as a flag every family
# rejects
_WALK_FLAG_VALUES = {"--tau": "2", "--theta": "1", "--nu": "haar", "--group": "cyclic:2", "--psi": "trivial",
                     "--quad-points": "64"}
_READ_FLAGS = {
    "unitary": {"--tau", "--nu"},
    "eval": {"--theta"},
    "mixture": set(),
    "wreath": {"--tau", "--group", "--psi"},
}


@pytest.mark.parametrize("command", ["bound", "profile"])
@pytest.mark.parametrize("family, flag", [(family, flag) for family in _FAMILY_WALKS
                                          for flag in _WALK_FLAG_VALUES if flag not in _READ_FLAGS[family]])
def test_unread_walk_flag_exit_2(capsys, command, family, flag):
    code, out, err = run(capsys, command, *_FAMILY_WALKS[family], flag, _WALK_FLAG_VALUES[flag], "--c", "1")
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["bound", "profile"])
@pytest.mark.parametrize("family", sorted(_FAMILY_WALKS))
def test_every_read_walk_flag_is_accepted(capsys, command, family):
    walk = _FAMILY_WALKS[family]
    extra = [item for flag in sorted(_READ_FLAGS[family] - set(walk)) for item in (flag, _WALK_FLAG_VALUES[flag])]
    code, _, err = run(capsys, command, *walk, *extra, "--c", "1")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv, flag", [
    # --N below each family's minimum
    (["--family", "unitary", "--N", "2", "--tau", "1"], "--N"),
    (["--family", "eval", "--N", "2", "--theta", "1"], "--N"),
    (["--family", "mixture", "--N", "5"], "--N"),
    (["--family", "wreath", "--N", "4", "--tau", "1", "--group", "cyclic:2"], "--N"),
    # --tau outside (0, N] (unitary) or (0, N) (wreath), or not finite
    (["--family", "unitary", "--N", "20", "--tau", "0"], "--tau"),
    (["--family", "unitary", "--N", "20", "--tau", "-1"], "--tau"),
    (["--family", "unitary", "--N", "20", "--tau", "20.5"], "--tau"),
    (["--family", "unitary", "--N", "20", "--tau", "nan"], "--tau"),
    (["--family", "unitary", "--N", "20", "--tau", "inf"], "--tau"),
    (["--family", "wreath", "--N", "30", "--tau", "30", "--group", "cyclic:2"], "--tau"),
    (["--family", "wreath", "--N", "30", "--tau", "0", "--group", "cyclic:2"], "--tau"),
    # 1 - cos(theta) = 0, or theta not finite
    (["--family", "eval", "--N", "20", "--theta", "0"], "--theta"),
    (["--family", "eval", "--N", "20", "--theta", "nan"], "--theta"),
    (["--family", "eval", "--N", "20", "--theta", "inf"], "--theta"),
    # a required flag left out
    (["--family", "unitary", "--N", "20"], "--tau"),
    (["--family", "eval", "--N", "20"], "--theta"),
    (["--family", "wreath", "--N", "30", "--tau", "2"], "--group"),
    (["--family", "wreath", "--N", "30", "--tau", "2", "--psi", "trivial"], "--group"),
])
def test_invalid_walk_value_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, "bound", *argv, "--c", "1")
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("family", sorted(_FAMILY_WALKS))
@pytest.mark.parametrize("k", ["0.5", "200"])
def test_bound_is_the_one_point_profile(capsys, family, k):
    code, out, _ = run(capsys, "bound", *_FAMILY_WALKS[family], "--k", k)
    assert code == 0
    record = json.loads(out)
    code, out, _ = run(capsys, "profile", *_FAMILY_WALKS[family], "--k", k, "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    keys = ("k", "tv_upper_lo", "tv_upper_hi", "tv_lower", "certified", "hypotheses")
    assert {key: record[key] for key in keys} == {key: row[key] for key in keys}


@pytest.mark.parametrize("family", sorted(_FAMILY_WALKS))
@pytest.mark.parametrize("N", [2**53 + 1, 10**155, 10**400], ids=["2^53+1", "1e155", "1e400"])
def test_walk_N_above_MAX_N_exit_2(capsys, family, N):
    # above 2^53 float(N) is not N; from about 1e154 on N^2 overflows, and
    # from about 1e308 on float(N) does
    walk = list(_FAMILY_WALKS[family])
    walk[walk.index("--N") + 1] = str(N)
    code, out, err = run(capsys, "bound", *walk, "--c", "1")
    assert code == 2 and out == ""
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bound", "--family", "unitary", "--N", "1" + "0" * 400, "--tau", "2", "--nu", "porod", "--c", "1"],
    ["moments", "--nu", "porod", "--N", "1" + "0" * 400, "--eps", "1"],
])
def test_porod_N_beyond_the_float_range_names_N(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["profile", *_WALK, "--c", "1", "--output"], "--output"),
    (["thresholds", "--tau", "2", "--output"], "--output"),
    (["verify", "--suite", "all", "--report"], "--report"),
    (["verify", "--suite", "all", "--output"], "--output"),
])
def test_unwritable_output_file_names_its_flag(capsys, tmp_path, argv, flag):
    # verify opens both files before any suite runs, so it prints nothing either
    code, out, err = run(capsys, *argv, str(tmp_path / "missing-dir" / "out.json"))
    assert code == 2 and out == ""
    assert f"error: {flag}: " in err and "Traceback" not in err


def test_mixture_outputs_carry_no_quadrature_size_or_notes(capsys):
    code, out, _ = run(capsys, "profile", *_FAMILY_WALKS["mixture"], "--c", "1")
    assert code == 0 and "quad_points" not in out
    code, out, _ = run(capsys, "bound", *_FAMILY_WALKS["mixture"], "--c", "1")
    doc = json.loads(out)
    assert code == 0 and "quad_points" not in doc["config"] and "notes" not in doc
    assert "quadrature" not in doc["certificate"]


@pytest.mark.parametrize("argv", [
    ["bound", *_WALK, "--c", "3"],
    ["profile", *_WALK, "--c-range", "2:3:1"],
])
def test_lower_bound_above_the_certified_upper_bound_is_a_defect(monkeypatch, capsys, argv):
    # both commands reach the one consistency check in bounds.cutoff_profile
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "true" in out
    monkeypatch.setattr(bounds, "tv_lower", lambda q, k: 0.0 * k + 1.0)
    with pytest.raises(RuntimeError, match="certified lower bound 1.0 exceeds certified upper bound"):
        main(argv)


def test_truncation_limits_exit_2_before_any_engine_runs(monkeypatch, capsys):
    def engine(*args):
        raise AssertionError("an engine ran")

    # the mixture engine checks its own sizes first, before it builds its rule or any u_n
    for name, family in bounds._FAMILIES.items():
        if name != "mixture":
            monkeypatch.setitem(bounds._FAMILIES, name, dataclasses.replace(family, engine=engine))
    for name in ("porod_rule", "u_seq"):
        monkeypatch.setattr(bounds, name, engine)
    assert (bounds.MAX_TOTAL, bounds.MAX_MIXTURE_WORDS) == (4096, 100_000)
    mixture = ["profile", "--family", "mixture", "--N", "100", "--c-range", "0:2:1"]
    code, _, err = run(capsys, *mixture, "--max-p", "12", "--max-total", "48")
    assert code == 2 and "--max-total" in err and "--max-p" in err and "Traceback" not in err
    code, _, err = run(capsys, "bound", *_WALK, "--c", "1", "--max-total", "5000")
    assert code == 2 and "--max-total" in err
    code, _, err = run(capsys, "bound", *_WALK, "--c", "1", "--max-p", "65", "--max-total", "65")
    assert code == 2 and "--max-p" in err
    code, _, err = run(capsys, *mixture, "--max-p", "1", "--max-total", "2047")
    assert code == 2 and "--max-total" in err and "--max-p" in err and "Traceback" not in err
    # (6, 16) is 29 784 mixture words, inside the limit: the engine is reached
    with pytest.raises(AssertionError, match="an engine ran"):
        main([*mixture, "--max-p", "6", "--max-total", "16"])
    # so are MAX_P blocks and a ratio table of 2047 * 2047 entries, just below MAX_MIXTURE_TABLE
    with pytest.raises(AssertionError, match="an engine ran"):
        main(["bound", *_WALK, "--c", "1", "--max-p", "64", "--max-total", "64"])
    with pytest.raises(AssertionError, match="an engine ran"):
        main([*mixture, "--max-p", "1", "--max-total", "2046"])


def test_truncation_limits_raise_in_the_library():
    with pytest.raises(ValueError):
        bounds.TruncationConfig(max_p=2, max_total=bounds.MAX_TOTAL + 1)
    with pytest.raises(ValueError, match="max_total"):
        bounds.TruncationConfig(max_p=2, max_total=0)
    assert bounds.TruncationConfig(max_p=2, max_total=bounds.MAX_TOTAL).max_p == 2
    assert (bounds.MAX_P, bounds.MAX_MIXTURE_TABLE) == (64, 2**22)
    with pytest.raises(ValueError, match="max_p"):
        bounds.TruncationConfig(max_p=bounds.MAX_P + 1, max_total=bounds.MAX_P + 1)
    with pytest.raises(ValueError, match="max_p"):
        bounds.TruncationConfig(max_p=bounds.MAX_P + 1, max_total=3)
    assert bounds.TruncationConfig(max_p=bounds.MAX_P, max_total=bounds.MAX_P).max_p == bounds.MAX_P
    # a max_p above max_total is stored as max_total, after its range check
    assert bounds.TruncationConfig(max_p=bounds.MAX_P, max_total=3).max_p == 3
    assert bounds.TruncationConfig(max_total=5) == bounds.TruncationConfig(max_p=5, max_total=5)
    with pytest.raises(ValueError, match="words"):
        bounds.A_k_grid(WalkQuery.mixture(100), [500.0], bounds.TruncationConfig(max_p=12, max_total=48))


def test_mixture_table_limit_raises_before_any_node_build(monkeypatch):
    def build(*args):
        raise AssertionError("Porod rule, moment or u_n built")

    for module, name in ((bounds, "porod_rule"), (bounds, "u_seq"), (structures, "moment")):
        monkeypatch.setattr(module, name, build)
    with pytest.raises(bounds.ParameterError, match="ratio table") as info:
        bounds.A_k_grid(WalkQuery.mixture(100), [500.0], bounds.TruncationConfig(max_p=1, max_total=2047))
    assert info.value.fields == ("max_p", "max_total")


@pytest.mark.parametrize("command, k_flag", [("bound", ["--c", "1"]), ("profile", ["--c-range", "-1:1:0.5"])])
def test_unitary_porod_runs_no_quadrature(monkeypatch, capsys, command, k_flag):
    def build(*args):
        raise AssertionError("quadrature nodes built")

    monkeypatch.setattr(structures, "_gauss_legendre", build)
    monkeypatch.setattr(structures, "porod_nodes", build)
    code, _, err = run(capsys, command, "--family", "unitary", "--N", "40", "--tau", "2", "--nu", "porod", *k_flag)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all"],
    ["profile", "--family", "mixture", "--N", "100", "--c-range", "-1:6:1"],
    ["moments", "--nu", "porod", "--N", "100", "--eps", "0,1,2"],
    ["moments", "--lambda-moments", "10:4"],
], ids=["verify", "mixture-profile", "porod-moments", "lambda-moments"])
def test_no_command_builds_gauss_legendre_nodes(monkeypatch, capsys, argv):
    def build(*args):
        raise AssertionError("quadrature nodes built")

    monkeypatch.setattr(structures, "_gauss_legendre", build)
    monkeypatch.setattr(structures, "porod_nodes", build)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


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


_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-300", "1e308", "x", ""]),
    st.integers(-3, 60).map(str),
    st.floats(-10.0, 70.0).map(repr),
)
# every walk flag: (valid values, mostly invalid values), with small sizes and truncations so that each
# call stays quick
_WALK_FLAGS = {
    "--tau": (st.floats(0.5, 6.0).map(repr), _NUMBER),
    "--theta": (st.floats(0.1, 3.1).map(repr), _NUMBER),
    "--nu": (st.sampled_from(["haar", "porod", "delta:0.5"]),
             st.sampled_from(["delta:nan", "delta:", "atoms:missing.txt", "bogus"])),
    "--group": (st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3"]),
                st.sampled_from(["cyclic:0", "cyclic:x", "cayley:missing.txt", "bogus"])),
    "--psi": (st.sampled_from(["trivial", "haar"]), st.sampled_from(["file:missing.txt", "bogus"])),
    "--max-p": (st.integers(1, 3).map(str), st.integers(-1, 5).map(str)),
    "--max-total": (st.integers(3, 6).map(str), st.integers(-1, 8).map(str)),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_walk_flag_fuzz_exits_cleanly(data):
    family = data.draw(st.sampled_from(sorted(_FAMILY_WALKS)))
    N = data.draw(_ANY_N | st.sampled_from([str(2**53), str(2**53 + 1)]))
    argv = ["bound", "--family", family, f"--N={N}"]
    for flag, (valid, invalid) in _WALK_FLAGS.items():
        read = flag in _READ_FLAGS[family] or flag in ("--max-p", "--max-total")
        # a flag the family reads is given 3 times in 4, one it does not read once in 8;
        # a given value is a valid one 3 times in 4
        if data.draw(st.sampled_from(range(8))) < (6 if read else 1):
            argv.append(f"{flag}={data.draw(data.draw(st.sampled_from([valid, valid, valid, invalid])))}")
    k_flag = data.draw(st.sampled_from(["--k", "--c"]))
    argv.append(f"{k_flag}={data.draw(data.draw(st.sampled_from([st.floats(-1.0, 3.0).map(repr)] * 3 + [_NUMBER])))}")
    # one call in 8 writes to a path that cannot be opened: /dev/null is not a directory
    unwritable = data.draw(st.sampled_from(range(8))) == 0
    if unwritable:
        argv.append(f"--output={os.path.join(os.devnull, 'out.json')}")
    doc = _run_under_contract(argv)
    if unwritable:
        assert doc is None
    elif doc is not None:
        assert doc["config"]["family"] == _FAMILY_TOKENS[family]


def _strict_json(text):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens Python's json accepts."""
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _run_under_contract(argv):
    """Run the CLI in-process and check the README contract: exit 0 or 2, no traceback, a flag named on
    exit 2; return the strict-JSON output of exit 0, or None."""
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(60.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "--" in err.getvalue(), argv
        return None
    return _strict_json(out.getvalue())


_ANY_FLOAT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-320", "5e-324", "1e77", "1e200", "1e308", "x", ""]),
    st.floats(0.01, 10.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_ANY_N = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["1" + "0" * 400, "1" + "0" * 307, "1" + "0" * 290, "x", "1e3", ""]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_thresholds_flag_fuzz_exits_cleanly(data):
    argv = ["thresholds", f"--tau={data.draw(_ANY_FLOAT)}"]
    if data.draw(st.booleans()):
        argv.append(f"--theta={data.draw(_ANY_FLOAT)}")
    if data.draw(st.booleans()):
        argv.append(f"--N={data.draw(_ANY_N)}")
    doc = _run_under_contract(argv)
    if doc is not None:
        assert all(math.isfinite(v) for v in doc.values() if isinstance(v, float)), argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_moments_flag_fuzz_exits_cleanly(data):
    argv = ["moments"]
    if data.draw(st.booleans()):
        argv.append(f"--nu={data.draw(st.sampled_from(['haar', 'porod', 'delta:0.5', 'delta:nan', 'delta:', 'atoms:missing.txt', 'bogus']))}")
    if data.draw(st.booleans()):
        argv.append(f"--N={data.draw(_ANY_N)}")
    if data.draw(st.booleans()):
        eps = st.integers(-200, 200) | st.sampled_from([100_000, 100_001, -10**400])
        argv.append("--eps=" + data.draw(st.lists(eps.map(str), max_size=4).map(",".join) | st.sampled_from(["x", ","])))
    if data.draw(st.booleans()):
        lmax = st.integers(-2, 40) | st.sampled_from([MAX_LAMBDA_MOMENT, MAX_LAMBDA_MOMENT + 1, 10**30])
        n = st.integers(-1, 10**6) | st.sampled_from([10**400])
        argv.append(f"--lambda-moments={data.draw(n)}:{data.draw(lmax)}" if data.draw(st.booleans())
                    else f"--lambda-moments={data.draw(st.sampled_from(['x', '10', '10:', ':3', '10:3:1']))}")
    _run_under_contract(argv)


_SUITE_ITEM = st.one_of(
    st.sampled_from(suite_names()),
    st.sampled_from(suite_names()).map(lambda name: f" {name}\t"),
    st.sampled_from(["all", " all", "ALL", "", " ", "bogus", "anqn;lower_aux", "\u00e9"]),
)


@settings(max_examples=60, deadline=None)
@given(suite=st.just("all") | st.lists(_SUITE_ITEM, min_size=1, max_size=4).map(",".join),
       target=st.sampled_from([None, "file", "unwritable", "directory"]))
def test_verify_flag_fuzz_exits_cleanly(suite, target):
    valid = suite == "all" or all(name.strip() in suite_names() for name in suite.split(","))
    with tempfile.TemporaryDirectory() as tmp:
        path = {None: None, "file": os.path.join(tmp, "r.json"),
                "unwritable": os.path.join(os.devnull, "r.json"), "directory": tmp}[target]
        argv = ["verify", f"--suite={suite}"] + ([] if path is None else [f"--report={path}"])
        out, err = io.StringIO(), io.StringIO()
        with _time_limit(60.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue(), argv
        if not valid or target in ("unwritable", "directory"):
            # a rejected run prints no suite line and writes no file
            assert code == 2, argv
            assert ("--suite" if not valid else "--report") in err.getvalue(), argv
            assert out.getvalue() == "" and os.listdir(tmp) == [], argv
            return
        assert code == 0, argv
        printed = [line.split()[1].rstrip(":") for line in out.getvalue().splitlines() if line.startswith("PASS")]
        # each named suite once, in the order first named
        assert printed == (suite_names() if suite == "all" else list(dict.fromkeys(n.strip() for n in suite.split(","))))
        if target == "file":
            with open(path, encoding="utf-8") as fh:
                doc = _strict_json(fh.read())
            assert list(doc["suites"]) == printed and doc["all_pass"] is True


@pytest.mark.parametrize("argv, key, value", [
    (["--family", "unitary", "--N", "100000", "--tau", "2", "--k", "0"], "A_partial", "infinity"),
    (["--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:2", "--c", "1", "--max-p", "1",
      "--max-total", "1"], "A_log_partial", "-infinity"),
])
def test_bound_prints_infinite_partials_as_strict_json_strings(capsys, argv, key, value):
    code, out, _ = run(capsys, "bound", *argv)
    assert code == 0
    assert _strict_json(out)[key] == value


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


# ---------------------------------------------------------------------------
# the README's command-line examples


def _readme_commands():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qgcutoff ")]


def test_readme_has_command_line_examples():
    assert len(_readme_commands()) >= 9


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_example_runs(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
