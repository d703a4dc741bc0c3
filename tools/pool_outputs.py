"""Dump what every benchmark-pool invocation prints and writes.

    python tools/pool_outputs.py OUT.json [--against OLD.json]

Runs each invocation of ``perfbench.workloads.pool`` for every workload
through ``qgcutoff.cli.main``, in-process, in a temporary directory that
holds the pool's input files, and writes one JSON object keyed by the
invocation's argv: its exit code, stdout and the text of each file it
writes.  The ``src/`` and ``perfbench/`` that run are those of the checkout
holding this script, so a dump of another commit runs the script from that
commit's tree.  Two dumps compare with ``diff``: keys are sorted and each
field sits on its own line.

With ``--against OLD.json`` the script then compares the new dump with an
older one and prints, per command and family, how many invocations
changed, and under it each changed field with the number of invocations it
changed in and, for a numeric field, how many of them it moved up and how
many down (an invocation with moves both ways counts in both) and its
largest relative move |new - old| / max(|new|, |old|).  A field is a key
of a JSON output (nested keys joined by ``.``, list items as ``[]``), a
``# name=value`` line or a CSV column; any other line of text is the
field ``line``.  Fields pair by name and occurrence, so an output whose
list of fields changed is counted as ``(layout)`` and its shared fields are
still compared.  The exit status is then 1 if any invocation changed, so
"byte-identical across the pool" is one command's exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import math
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterator


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


def _json_fields(value: object, name: str) -> Iterator[tuple[str, object]]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_fields(item, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for item in value:
            yield from _json_fields(item, f"{name}[]")
    else:
        yield name, value


def _fields(text: str) -> list[tuple[str, object]]:
    """(field, value) pairs of one printed output or file, in order."""
    try:
        return list(_json_fields(json.loads(text), ""))
    except ValueError:
        pass
    pairs: list[tuple[str, object]] = []
    header = None
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            pairs.append(tuple(line[2:].split("=", 1)))
        elif header is None and "," in line:
            header = line.split(",")
        elif header is not None:
            pairs.extend(zip(header, line.split(",")))
        else:
            pairs.append(("line", line))
    return pairs


def _number(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _move(new: object, old: object) -> float | None:
    """(new - old) / max(|new|, |old|), +-inf if either is not finite, None
    unless both are numbers."""
    a, b = _number(new), _number(old)
    if a is None or b is None:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b else math.copysign(math.inf, a - b)
    return (a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _group(key: str) -> str:
    """'command family' of an argv key, or the command alone."""
    argv = key.split()
    return f"{argv[0]} {argv[argv.index('--family') + 1]}" if "--family" in argv else argv[0]


def _by_occurrence(fields: list[tuple[str, object]]) -> dict[tuple[str, int], object]:
    """(field, n) -> the value of the n-th occurrence of that field."""
    seen: Counter[str] = Counter()
    out = {}
    for f, v in fields:
        out[f, seen[f]] = v
        seen[f] += 1
    return out


def _diffs(a: dict | None, b: dict | None) -> dict[str, list[float]]:
    """Each changed field of one invocation, new ``a`` against old ``b``,
    with the signed relative moves of its numeric values.  The fields of
    one output pair by name, the k-th occurrence of a name on one side with
    the k-th on the other; where the lists of names differ the output also counts
    as ``(layout)``, and a field on one side only is not compared."""
    if a is None or b is None:
        return {"(only in " + ("old" if a is None else "new") + ")": []}
    out: dict[str, list[float]] = {"rc": []} if a["rc"] != b["rc"] else {}
    names = sorted(set(a["files"]) | set(b["files"]))
    texts = [("", a["stdout"], b["stdout"])] + [(f"{n}:", a["files"].get(n, ""), b["files"].get(n, "")) for n in names]
    for prefix, x, y in texts:
        fx, fy = _fields(x), _fields(y)
        if [f for f, _ in fx] != [f for f, _ in fy]:
            out[prefix + "(layout)"] = []
        old = _by_occurrence(fy)
        for (f, n), u in _by_occurrence(fx).items():
            if (f, n) in old and u != old[f, n]:
                move = _move(u, old[f, n])
                out.setdefault(prefix + f, []).extend([] if move is None else [move])
    return out


def compare(new: dict[str, dict], old: dict[str, dict]) -> list[str]:
    """Report lines: per command and family, how many invocations changed,
    then each changed field with its count and, for a numeric field, how
    many invocations it moved up and down and its largest relative move."""
    total: Counter[str] = Counter()
    changed: Counter[str] = Counter()
    counts: dict[str, Counter[str]] = defaultdict(Counter)
    ups: dict[str, Counter[str]] = defaultdict(Counter)
    downs: dict[str, Counter[str]] = defaultdict(Counter)
    moves: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for key in sorted(set(new) | set(old)):
        group = _group(key)
        total[group] += 1
        if new.get(key) == old.get(key):
            continue
        changed[group] += 1
        for field, field_moves in _diffs(new.get(key), old.get(key)).items():
            counts[group][field] += 1
            ups[group][field] += any(m > 0.0 for m in field_moves)
            downs[group][field] += any(m < 0.0 for m in field_moves)
            moves[group][field] += field_moves
    lines = []
    for group in sorted(total):
        lines.append(f"{group}: {changed[group]} of {total[group]} invocations changed")
        for field in sorted(counts[group]):
            largest = [abs(m) for m in moves[group][field]]
            tail = (f", {ups[group][field]} up, {downs[group][field]} down, largest relative move {max(largest):.2g}"
                    if largest else "")
            lines.append(f"  {field}: {counts[group][field]} changed{tail}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, help="an older dump to compare the new one with")
    args = parser.parse_args(argv)
    outputs = pool_outputs(Path(__file__).resolve().parents[1])
    args.out.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(outputs)} invocations", file=sys.stderr)
    if args.against is not None:
        old = json.loads(args.against.read_text(encoding="utf-8"))
        print("\n".join(compare(outputs, old)))
        return 0 if outputs == old else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
