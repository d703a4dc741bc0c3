"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

Runs in the pass directory, which holds the pass's input files.  Times
``import qgcutoff.cli`` (set-up), then calls ``qgcutoff.cli.main(argv)``
in-process for every invocation of the plan, one after another, with output
going to a buffer.  With ``"trace": true`` in the plan the layers are traced
(see spans.py).  A SpeedProbe samples how fast the machine ran during each
invocation, with its own time taken out of the latencies.  Writes outputs,
latencies, probe times, peak RSS and versions to RESULT_JSON.  Only the
standard library is imported before the timed import.
"""

import os

# pin BLAS/OpenMP before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402


def _versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SpeedProbe:
    """Samples how fast the machine runs: times a fixed mix of interpreter
    and small-array numpy work, the kind the series engines do, touching no
    qgcutoff code.  ``start`` also samples every INTERVAL_S from a SIGALRM
    handler, which runs between bytecodes of the code being measured, so the
    time of the samples inside a measured window is taken out of it."""

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, probe seconds)

    def sample(self) -> float:
        np = self._np
        t = time.perf_counter()
        a = np.linspace(-5.0, 0.0, 49)
        acc = 0.0
        for i in range(400):
            a = np.logaddexp(a, a[::-1] - 1.0)
            acc += math.log1p(i) * 0.5
        d = time.perf_counter() - t
        self.samples.append((t, d))
        return d

    def start(self, tracer: spans.Tracer | None) -> None:
        def on_alarm(signum, frame) -> None:
            d = self.sample()
            if tracer is not None:
                tracer.pause(d)

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, t0: float, t1: float) -> tuple[float, float]:
        """(mean probe time, total probe time) over the samples that ran
        inside [t0, t1]; the mean falls back to the nearest sample on each
        side when none did."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        near = inside or [d for t, d in self.samples if t < t0][-1:] + [d for t, d in self.samples if t > t1][:1]
        return sum(near) / len(near), sum(inside)


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    t0 = time.perf_counter()
    import qgcutoff.cli
    setup_s = time.perf_counter() - t0

    probe = SpeedProbe()
    setup_probe_s = sum(probe.sample() for _ in range(3)) / 3
    tracer = spans.install() if plan["trace"] else None
    probe.start(tracer)
    runs = []
    windows = []
    try:
        for i, inv in enumerate(plan["invocations"]):
            if tracer is not None:
                tracer.invocation = i
            out, err = io.StringIO(), io.StringIO()
            error = None
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = qgcutoff.cli.main(inv["argv"])
            except Exception:  # a crash is a failed invocation, not the end of the pass
                rc, error = None, traceback.format_exc()
            windows.append((t, time.perf_counter()))
            runs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    finally:
        probe.stop()
    probe.sample()
    for run, (t, t_end) in zip(runs, windows):
        run["probe_s"], probed_s = probe.during(t, t_end)
        run["ms"] = (t_end - t - probed_s) * 1e3
    wall_s = sum(run["ms"] for run in runs) / 1e3
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for inv, run in zip(plan["invocations"], runs):
        run["files"] = {}
        for name in inv["writes"]:
            with contextlib.suppress(OSError), open(name, encoding="utf-8") as fh:
                run["files"][name] = fh.read()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "setup_probe_s": setup_probe_s,
        "probes": len(probe.samples),
        "package": qgcutoff.__file__,
        "versions": _versions(),
        "invocations": runs,
    }
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.summary(),
            "words": tracer.words,
            "porod_repeats": tracer.porod_repeats,
            "spans": tracer.spans,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
