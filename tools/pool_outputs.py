"""Dump what every benchmark-pool invocation prints and writes.

    python tools/pool_outputs.py OUT.json

Runs each invocation of ``perfbench.workloads.pool`` for every workload
through ``qgcutoff.cli.main``, in-process, in a temporary directory that
holds the pool's input files, and writes one JSON object keyed by the
invocation's argv: its exit code, stdout and the text of each file it
writes.  The ``src/`` and ``perfbench/`` that run are those of the checkout
holding this script, so a dump of another commit runs the script from that
commit's tree.  Two dumps compare with ``diff``: keys are sorted and each
field sits on its own line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path


def pool_outputs(root: Path) -> dict[str, dict]:
    """argv key -> {"rc", "stdout", "files"} for every pool invocation."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import qgcutoff.cli
    import workloads

    out: dict[str, dict] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in workloads.WORKLOADS:
                invocations = workloads.pool(workload)
                for name, text in workloads.input_files(invocations).items():
                    Path(name).write_text(text, encoding="utf-8")
                for inv in invocations:
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout):
                        rc = qgcutoff.cli.main(list(inv.argv))
                    files = {name: Path(name).read_text(encoding="utf-8") for name in inv.writes}
                    out[inv.key] = {"rc": rc, "stdout": stdout.getvalue(), "files": files}
        finally:
            os.chdir(cwd)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args()
    outputs = pool_outputs(Path(__file__).resolve().parents[1])
    args.out.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(outputs)} invocations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
