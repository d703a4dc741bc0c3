"""Record reference.json: the bound points of every query the workloads can
emit, computed by the qgcutoff sources of the current checkout.

Usage, from the root of a checkout at the commit the reference should hold:

    python3 perfbench/record_reference.py

The reference in this directory was recorded at the seed commit named in its
"commit" field.  Recording it again at a later commit would turn the
checker's consistency test into a comparison of that commit with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import qgcutoff.cli

    work = root / ".perfbench_tmp" / "record"
    work.mkdir(parents=True)
    entries: dict[str, list] = {}
    try:
        os.chdir(work)
        for workload in workloads.WORKLOADS:
            invocations = workloads.pool(workload)
            for name, text in workloads.input_files(invocations).items():
                Path(name).write_text(text, encoding="utf-8")
            for inv in invocations:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = qgcutoff.cli.main(list(inv.argv))
                files = {name: Path(name).read_text(encoding="utf-8") for name in inv.writes}
                points, errs = checker.check(list(inv.argv), rc, out.getvalue(), files, None)
                if errs:
                    raise SystemExit(f"{inv.key}: {errs}")
                entries[inv.key] = [p.to_json() for p in points]
            print(f"{workload}: {len(invocations)} queries", file=sys.stderr)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    # one query per line keeps the file diffable
    lines = [f"{json.dumps(key)}: {json.dumps(rows)}" for key, rows in sorted(entries.items())]
    text = '{"commit": %s,\n"entries": {\n%s\n}}\n' % (json.dumps(run.git_commit(root)), ",\n".join(lines))
    (run.HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
