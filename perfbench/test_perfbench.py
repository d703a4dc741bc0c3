"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest

import checker
import run
import workloads

ROOT = run.HERE.parent
REFERENCE = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))["entries"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = workloads.plan(workload, 7)
    assert first == workloads.plan(workload, 7)
    assert workloads.input_files(first) == workloads.input_files(workloads.plan(workload, 7))


def test_seed_changes_the_queries():
    assert workloads.plan("bound-scan", 1) != workloads.plan("bound-scan", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_query_has_a_reference(workload):
    assert {inv.key for inv in workloads.pool(workload)} <= set(REFERENCE)


def _csv(rows: list[list]) -> str:
    lines = ["# command=profile", "k,tv_upper_lo,tv_upper_hi,tv_lower,certified,hypotheses"]
    lines += [",".join([repr(r[0]), repr(r[1]), repr(r[2]), repr(r[3]), "true" if r[4] else "false", "x=true"])
              for r in rows]
    return "\n".join(lines) + "\n"


def _profile_with_tight_rows() -> tuple[list[str], list[list]]:
    for inv in workloads.pool("profile-sweep"):
        if "--format" not in inv.argv:
            return list(inv.argv), REFERENCE[inv.key]
    raise AssertionError("no CSV profile in the pool")


def test_checker_accepts_the_reference_output():
    argv, rows = _profile_with_tight_rows()
    points, errs = checker.check(argv, 0, _csv(rows), {}, REFERENCE)
    assert errs == []
    assert len(points) == len(rows)


@pytest.mark.parametrize("corrupt", ["interval_below_reference", "interval_above_reference", "upper_below_partial",
                                     "lower_above_upper", "unparsable", "dropped_row", "shifted_k", "exit_code"])
def test_checker_rejects_corrupted_output(corrupt):
    argv, rows = _profile_with_tight_rows()
    rows = [list(r) for r in rows]
    i = next(i for i, r in enumerate(rows) if r[4] and 1e-6 < r[2] < 0.4)
    rc = 0
    if corrupt == "interval_below_reference":
        rows[i][1:4] = [rows[i][1] * 0.5, rows[i][2] * 0.5, 0.0]
    elif corrupt == "interval_above_reference":
        rows[i][1:3] = [min(1.0, rows[i][2] * 2.0)] * 2
    elif corrupt == "upper_below_partial":
        rows[i][2] = rows[i][1] * 0.5
    elif corrupt == "lower_above_upper":
        rows[i][3] = min(1.0, rows[i][2] * 2.0)
    elif corrupt == "dropped_row":
        del rows[i]
    elif corrupt == "shifted_k":
        rows[i][0] += 1.0
    elif corrupt == "exit_code":
        rc = 2
    text = _csv(rows)
    if corrupt == "unparsable":
        text = text.replace(repr(rows[i][2]), "nan?", 1)
    _, errs = checker.check(argv, rc, text, {}, REFERENCE)
    assert errs


def test_checker_rejects_a_corrupted_bound_record(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import qgcutoff.cli

    inv = next(inv for inv in workloads.pool("bound-scan")
               if not inv.files and REFERENCE[inv.key][0][4] and REFERENCE[inv.key][0][2] > 1e-6)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qgcutoff.cli.main(list(inv.argv)) == 0
    assert checker.check(list(inv.argv), 0, out.getvalue(), {}, REFERENCE)[1] == []
    doc = json.loads(out.getvalue())
    doc["tv_upper_hi"] = doc["tv_upper_lo"] * 0.5
    assert checker.check(list(inv.argv), 0, json.dumps(doc), {}, REFERENCE)[1]


def test_traced_self_times_add_up_to_the_pass_time(tmp_path):
    invocations = workloads.plan("bound-scan", 3)[:24]
    result = run.run_pass(invocations, True, tmp_path / "pass", run._worker_env(ROOT, tmp_path))
    layers = result["trace"]["layers"]
    assert layers["cli.main"]["calls"] == len(invocations)
    assert all(v["self_s"] >= 0.0 for v in layers.values())
    residual = result["wall_s"] - sum(v["self_s"] for v in layers.values())
    assert 0.0 <= residual <= 0.02 * result["wall_s"] + 0.005


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_run_fails_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "bound-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
