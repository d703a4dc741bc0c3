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
    import workloads  # on the path since pool_outputs put the checkout's perfbench/ there

    assert sorted(first) == sorted(inv.key for w in workloads.WORKLOADS for inv in workloads.pool(w))
    assert all(out["rc"] == 0 and out["stdout"] for out in first.values())
    written = [inv for w in workloads.WORKLOADS for inv in workloads.pool(w) if inv.writes]
    assert written and all(set(first[inv.key]["files"]) == set(inv.writes) for inv in written)
    # the command line writes the same dump, and leaves the working directory
    monkeypatch.setattr(sys, "argv", ["pool_outputs.py", "dump.json"])
    assert tool.main() == 0
    assert Path.cwd() == tmp_path
    assert json.loads((tmp_path / "dump.json").read_text(encoding="utf-8")) == first
