"""``tools/pool_outputs.py`` dumps every benchmark-pool invocation, and two
dumps of one checkout are equal, so a diff between two checkouts shows only
what the code changed."""

import importlib.util
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("pool_outputs", _ROOT / "tools" / "pool_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_pool_outputs_cover_the_pool_and_repeat(monkeypatch, tmp_path):
    tool = _tool()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    first = tool.pool_outputs(_ROOT)
    # on the path since pool_outputs put the checkout's perfbench/ there
    import checker
    import workloads

    assert sorted(first) == sorted(inv.key for w in workloads.WORKLOADS for inv in workloads.pool(w))
    assert all(out["rc"] == 0 and out["stdout"] for out in first.values())
    # the benchmark's own checks on every invocation: parsed output,
    # 0 <= tv_lower <= tv_upper_hi <= 1 on certified points, and agreement
    # with the reference intervals of reference.json
    reference = json.loads((_ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["entries"]
    errors = {}
    for key, out in first.items():
        _, errs = checker.check(key.split(), out["rc"], out["stdout"], out["files"], reference)
        if errs:
            errors[key] = errs
    assert len(first) == len(reference) == 471
    assert errors == {}
    written = [inv for w in workloads.WORKLOADS for inv in workloads.pool(w) if inv.writes]
    assert written and all(set(first[inv.key]["files"]) == set(inv.writes) for inv in written)
    # the command line writes the same dump, and leaves the working directory
    monkeypatch.setattr(sys, "argv", ["pool_outputs.py", "dump.json"])
    assert tool.main() == 0
    assert Path.cwd() == tmp_path
    assert json.loads((tmp_path / "dump.json").read_text(encoding="utf-8")) == first


def test_pool_outputs_against_reports_what_moved(monkeypatch, tmp_path, capsys):
    tool = _tool()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    assert tool.main(["old.json"]) == 0
    assert tool.main(["new.json", "--against", "old.json"]) == 0
    # two dumps of one checkout: no invocation changed
    lines = capsys.readouterr().out.splitlines()
    assert "bound wreath: 0 of 96 invocations changed" in lines
    assert all(" 0 of " in line for line in lines), lines
    # a doctored A_partial and one added line of the verify text
    new = json.loads((tmp_path / "new.json").read_text(encoding="utf-8"))
    old = json.loads(json.dumps(new))
    key = next(key for key in new if key.startswith("bound --family wreath"))
    record = json.loads(new[key]["stdout"])
    record["A_partial"] *= 1.0 + 2.0**-40
    new[key]["stdout"] = json.dumps(record, indent=2) + "\n"
    new["verify --suite all --report verify-report.json"]["stdout"] += "PASS extra\n"
    # a bound record whose tail hypothesis is renamed and whose A_tail fell:
    # the fields both sides share are still compared
    haar_key = next(key for key, out in new.items()
                    if key.startswith("bound --family unitary") and "haar" in key and '"certified": true' in out["stdout"])
    haar = json.loads(new[haar_key]["stdout"])
    haar["hypotheses"]["renamed"] = haar["hypotheses"].pop("x + S < 1")
    old_tail, haar["A_tail"] = haar["A_tail"], haar["A_tail"] * 0.5
    new[haar_key]["stdout"] = json.dumps(haar, indent=2) + "\n"
    report = tool.compare(new, old)
    move = abs(record["A_partial"] - json.loads(old[key]["stdout"])["A_partial"]) / record["A_partial"]
    assert move > 0.0
    assert report[report.index("bound wreath: 1 of 96 invocations changed") + 1] == (
        f"  A_partial: 1 changed, 1 up, 0 down, largest relative move {move:.2g}"
    )
    at = report.index("bound unitary: 1 of 234 invocations changed")
    assert report[at + 1 : at + 3] == [
        "  (layout): 1 changed",
        f"  A_tail: 1 changed, 0 up, 1 down, largest relative move {1.0 - haar['A_tail'] / old_tail:.2g}",
    ]
    assert "verify: 1 of 1 invocations changed" in report and "  (layout): 1 changed" in report
    assert sum(line.startswith("  ") for line in report) == 4
    # any changed invocation makes the command line exit 1
    (tmp_path / "doctored.json").write_text(json.dumps(new), encoding="utf-8")
    assert tool.main(["newer.json", "--against", "doctored.json"]) == 1
