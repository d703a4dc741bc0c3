"""qgcutoff benchmark: seeded CLI workloads, checked outputs, end-to-end and
per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bound-scan --seed 1 --seconds 35 --trace 0

The load is a closed loop with one client.  A pass runs every invocation of
the workload's plan, one after another, in a fresh worker process
(worker.py) that imports ``qgcutoff.cli`` once and calls ``main(argv)``
in-process.  Passes run one at a time while the next one is expected to end
within ``--seconds`` (at least MIN_PASSES of each kind run); nothing survives
from one pass to the next.  Every pass is checked outside timing
(checker.py), and its outputs must repeat byte for byte across passes.

Times are reported at a reference machine speed.  On a shared host the speed
of one vCPU changes by up to 1.8x, within a second and over minutes (a fixed
loop's time moves that much), which swamps the differences the bounds must
catch.  So each worker samples a fixed probe every 50 ms (worker.SpeedProbe,
no qgcutoff code; its own time is taken out of the latencies).  Each
invocation's latency is multiplied by PROBE_REF_S / (mean probe time during
it), set-up by PROBE_REF_S / (mean of three probes right after it), and a
pass's time is the sum of its scaled latencies: each reads as seconds on a
machine where the probe takes PROBE_REF_S.  The unscaled medians are printed
on the ``#`` lines and kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, with the tracing
overhead as traced minus untraced pass time.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full result,
with versions and the raw spans of the first traced pass, is written to
.perfbench_out/.  Exit code 0 when every check passed, 1 when one failed, 2
when the checkout has no qgcutoff sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
# a run must end within 180 s even when a pass hangs
PASS_TIMEOUT_S = 60.0
START_LIMIT_S = 100.0

# probe time that defines the reference speed; about the median on a 2-vCPU
# Xeon VM with Python 3.11 and numpy 2.4
PROBE_REF_S = 0.0015

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_ms.p50": "ms",
    "cmd_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
    "loose_frac": "ratio",
}
PER_LAYER_UNITS = {f"{name}.{field}": unit for name in spans.TRACED
                   for field, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER_UNITS.update({
    "structures.porod_nodes.repeat_frac": "ratio",
    "bounds.A_k.calls_per_point": "ratio",
    "bounds.A_k.words": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
})


class PassError(Exception):
    """A worker that crashed, timed out or wrote no result."""


def _worker_env(root: Path, tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # bytecode for every module goes to a cache inside the run's directory;
    # the warm-up pass fills it, so measured imports read bytecode as they
    # would from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(invocations: list[workloads.Invocation], traced: bool, pass_dir: Path,
             env: dict[str, str]) -> dict:
    """Run one pass in a fresh worker inside ``pass_dir``, then delete it."""
    pass_dir.mkdir()
    try:
        for name, text in workloads.input_files(invocations).items():
            (pass_dir / name).write_text(text, encoding="utf-8")
        plan = {"trace": traced, "invocations": [inv.to_json() for inv in invocations]}
        (pass_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
                                  cwd=pass_dir, env=env, capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"worker timed out after {PASS_TIMEOUT_S} s") from exc
        result_path = pass_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            raise PassError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result["traced"] = traced
    return result


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def check_passes(plan: list[workloads.Invocation], passes: list[dict],
                 reference: dict[str, list]) -> tuple[list[checker.Point], list[str], int]:
    """(points of the first pass, error lines, failed invocation count)."""
    first_points: list[checker.Point] = []
    errors: list[str] = []
    failed = 0
    first = passes[0]["invocations"]
    for n, p in enumerate(passes):
        for i, (inv, run) in enumerate(zip(plan, p["invocations"])):
            if run["error"] is not None:
                errs = [f"exception: {run['error'].strip().splitlines()[-1]}"]
                points: list[checker.Point] = []
            else:
                points, errs = checker.check(list(inv.argv), run["rc"], run["stdout"], run["files"], reference)
            if n > 0 and (run["stdout"], run["files"]) != (first[i]["stdout"], first[i]["files"]):
                errs.append("output differs from the first pass")
            if errs:
                failed += 1
                errors += [f"pass {n} invocation {i} [{inv.key}]: {e}" for e in errs[:5]]
            if n == 0:
                first_points += points
    return first_points, errors, failed


def _scaled_ms(run: dict) -> float:
    return run["ms"] * PROBE_REF_S / run["probe_s"]


def _scaled_setup_s(p: dict) -> float:
    return p["setup_s"] * PROBE_REF_S / p["setup_probe_s"]


def _scaled_wall_s(p: dict) -> float:
    return sum(_scaled_ms(run) for run in p["invocations"]) / 1e3


def _speed_scale(p: dict) -> float:
    """Mean factor that takes the times of pass ``p`` to the reference speed."""
    return _scaled_wall_s(p) / p["wall_s"]


def end_to_end(passes: list[dict], points: list[checker.Point]) -> tuple[dict[str, float], list[str]]:
    untraced = [p for p in passes if not p["traced"]]
    lat = sorted(_scaled_ms(run) for p in untraced for run in p["invocations"])
    walls = sorted(_scaled_wall_s(p) for p in untraced)
    p90 = _quantile(lat, 0.9)
    certified = [pt for pt in points if pt.certified]
    metrics = {
        "setup_s": statistics.median(_scaled_setup_s(p) for p in untraced),
        "wall_s": statistics.median(walls),
        "cmd_ms.p50": statistics.median(lat),
        "cmd_ms.p90": p90,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "certified_frac": len(certified) / len(points) if points else 0.0,
        "loose_frac": sum(pt.loose for pt in certified) / len(certified) if certified else 0.0,
    }
    notes = [
        f"wall_s: median {metrics['wall_s']:.4f} s, quartiles {_quantile(walls, 0.25):.4f} / "
        f"{_quantile(walls, 0.75):.4f} s over {len(walls)} passes",
        f"unscaled medians: setup_s {statistics.median(p['setup_s'] for p in untraced):.4f} s, "
        f"wall_s {statistics.median(p['wall_s'] for p in untraced):.4f} s, cmd_ms.p50 "
        f"{statistics.median(run['ms'] for p in untraced for run in p['invocations']):.4f} ms; "
        f"speed scale median {statistics.median(_speed_scale(p) for p in untraced):.4f}",
        f"cmd_ms: {len(lat)} invocations, {sum(x > p90 for x in lat)} above p90",
        f"bound points per pass: {len(points)}, certified {len(certified)}, "
        f"loose {sum(pt.loose for pt in certified)}",
    ]
    return metrics, notes


def per_layer(passes: list[dict], points: list[checker.Point]) -> tuple[dict[str, float], list[str]]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    metrics: dict[str, float] = {}
    for name in spans.TRACED:
        metrics[f"{name}.calls"] = med(lambda p: p["trace"]["layers"][name]["calls"])
        metrics[f"{name}.self_s"] = med(lambda p: p["trace"]["layers"][name]["self_s"] * _speed_scale(p))
    porod_calls = metrics["structures.porod_nodes.calls"]
    metrics["structures.porod_nodes.repeat_frac"] = (
        med(lambda p: p["trace"]["porod_repeats"]) / porod_calls if porod_calls else 0.0)
    metrics["bounds.A_k.calls_per_point"] = metrics["bounds.A_k.calls"] / len(points) if points else 0.0
    metrics["bounds.A_k.words"] = med(lambda p: p["trace"]["words"])
    metrics["cli.output_bytes"] = med(lambda p: sum(
        len(run["stdout"].encode()) + sum(len(t.encode()) for t in run["files"].values())
        for run in p["invocations"]))
    traced_wall = statistics.median(_scaled_wall_s(p) for p in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(_scaled_wall_s(p) for p in untraced)
    residual = med(lambda p: p["wall_s"] - sum(v["self_s"] for v in p["trace"]["layers"].values()))
    notes = [f"traced wall_s median {traced_wall:.4f} s over {len(traced)} passes; "
             f"unscaled wall_s minus the sum of unscaled self times: {residual:.6f} s"]
    return metrics, notes


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(root: Path, passes: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qgcutoff").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        **passes[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qgcutoff" / "cli.py").is_file():
        sys.stderr.write(f"error: no qgcutoff sources under {root / 'src'}; run from the root of a checkout\n")
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["entries"]
    plan = workloads.plan(args.workload, args.seed)

    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_tmp"))
    env = _worker_env(root, tmp)
    passes: list[dict] = []
    try:
        # fills the bytecode cache so that no measured import compiles
        run_pass([], False, tmp / "warmup", env)
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(plan, traced, tmp / f"pass-{len(passes)}", env))
            elapsed = time.perf_counter() - start
            kinds = [sum(p["traced"] == t for p in passes) for t in ((False, True) if args.trace else (False,))]
            # start another pass only if it should end within --seconds
            if min(kinds) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            if elapsed >= START_LIMIT_S:
                break
    except PassError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    src = Path(passes[0]["package"]).resolve()
    if not src.is_relative_to((root / "src").resolve()):
        sys.stderr.write(f"error: workers imported qgcutoff from {src}, not from this checkout\n")
        return 2

    points, errors, failed = check_passes(plan, passes, reference)
    if args.trace:
        metrics, notes = per_layer(passes, points)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(passes, points)
        units = END_TO_END_UNITS
    attempted = sum(len(p["invocations"]) for p in passes)
    env_info = _environment(root, passes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} invocations/pass={len(plan)}")
    print("# " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for line in notes:
        print(f"# {line}")
    for line in errors[:20]:
        print(f"# CHECK FAILED {line}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    # reported as "failed" and "attempted" in the JSON line, not as a metric
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} invocations)")

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    first_traced = next((p for p in passes if p["traced"]), None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info, "summary": summary, "notes": notes, "errors": errors,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "setup_probe_s", "probes")}
                   for p in passes],
        "latencies_ms": [[run["ms"] for run in p["invocations"]] for p in passes],
        "latency_probes_s": [[run["probe_s"] for run in p["invocations"]] for p in passes],
        "spans": first_traced["trace"]["spans"] if first_traced else [],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
