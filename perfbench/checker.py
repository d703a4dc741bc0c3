"""Output checks for benchmark passes.

``check`` parses one invocation's output into bound points and returns the
reasons it rejects it (an empty list means accepted):

- CSV and JSON outputs parse, and ``verify`` passes every suite and every
  negative control;
- on certified points, 0 <= tv_lower <= tv_upper_hi <= 1 and
  tv_upper_lo <= tv_upper_hi;
- every point agrees with the reference interval recorded at the seed commit:
  the new partial (tv_upper_lo) is at most the reference upper bound, the new
  upper bound (tv_upper_hi) is at least the reference partial, and tv_lower is
  at most the reference upper bound, each within a relative slack.  An engine
  that is faster or truncates differently passes; one that moves a value
  outside the certified interval fails.

The word-by-word oracles in tests/ cannot serve as the reference: at the
default truncation they enumerate about 1e10 words.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# relative slack for families whose partial is an exact truncated sum
EXACT_SLACK = 1e-9
# mixture and --nu porod partials are Gauss-Legendre estimates at the seed
# commit, so a correct change of quadrature may move them by more
QUADRATURE_SLACK = 1e-2
# a certified point is loose when its interval width shows in the printed bound
LOOSE_REL_WIDTH = 1e-12

_CSV_HEADER = "k,tv_upper_lo,tv_upper_hi,tv_lower,certified,hypotheses"
_SUITES = {"encadrement", "lower_aux", "main_inequality", "anqn", "ratio_comparison",
           "wreath_inequality", "lambda_moment"}
_CONTROLS = {"encadrement_broken", "lower_aux_broken", "anqn_broken"}


@dataclass(frozen=True)
class Point:
    k: float
    tv_upper_lo: float
    tv_upper_hi: float
    tv_lower: float
    certified: bool

    @property
    def loose(self) -> bool:
        return self.certified and self.tv_upper_hi - self.tv_upper_lo > LOOSE_REL_WIDTH * self.tv_upper_hi

    def to_json(self) -> list:
        return [self.k, self.tv_upper_lo, self.tv_upper_hi, self.tv_lower, self.certified]


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"certified field {text!r} is not true/false")
    return text == "true"


def _profile_csv(stdout: str) -> list[Point]:
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("# ")]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("missing CSV header")
    points = []
    for row in csv.reader(io.StringIO("\n".join(lines[1:]))):
        if len(row) != 6:
            raise ValueError(f"CSV row has {len(row)} fields")
        points.append(Point(float(row[0]), float(row[1]), float(row[2]), float(row[3]), _bool(row[4])))
    return points


def _point(doc: dict) -> Point:
    if not isinstance(doc["certified"], bool):
        raise ValueError("certified is not a JSON boolean")
    return Point(*(float(doc[name]) for name in ("k", "tv_upper_lo", "tv_upper_hi", "tv_lower")),
                 doc["certified"])


def parse_points(argv: list[str], stdout: str, files: dict[str, str]) -> list[Point]:
    """Bound points in the output of one invocation; raises ValueError (or
    KeyError/TypeError) when the output does not parse."""
    command = argv[0]
    if command == "profile":
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            return [_point(row) for row in json.loads(stdout)["rows"]]
        return _profile_csv(stdout)
    if command == "bound":
        return [_point(json.loads(stdout))]
    if command == "verify":
        for line in stdout.splitlines():
            if line.startswith(("FAIL", "VACUOUS")):
                raise ValueError(f"verify reported: {line}")
        report = json.loads(files[argv[argv.index("--report") + 1]])
        if not report["all_pass"]:
            raise ValueError("verify report has all_pass = false")
        if set(report["suites"]) != _SUITES or set(report["negative_controls"]) != _CONTROLS:
            raise ValueError("verify report lists other suites than expected")
        return []
    raise ValueError(f"no parser for command {command!r}")


def _slack_for(argv: list[str]) -> float:
    quadrature = "mixture" in argv or "porod" in argv
    return QUADRATURE_SLACK if quadrature else EXACT_SLACK


def _invariant_errors(i: int, p: Point) -> list[str]:
    if not all(math.isfinite(v) for v in (p.k, p.tv_upper_lo, p.tv_upper_hi, p.tv_lower)):
        return [f"row {i}: non-finite value in {p}"]
    if not p.certified:
        return []
    errs = []
    if not 0.0 <= p.tv_lower <= p.tv_upper_hi <= 1.0:
        errs.append(f"row {i}: not 0 <= tv_lower <= tv_upper_hi <= 1: {p}")
    if not p.tv_upper_lo <= p.tv_upper_hi:
        errs.append(f"row {i}: tv_upper_lo > tv_upper_hi: {p}")
    return errs


def _reference_errors(i: int, p: Point, ref: list, slack: float) -> list[str]:
    rk, rlo, rhi = ref[0], ref[1], ref[2]
    errs = []
    if abs(p.k - rk) > 1e-12 * max(1.0, abs(rk)):
        errs.append(f"row {i}: k = {p.k!r}, reference k = {rk!r}")
    if p.tv_upper_lo > rhi * (1.0 + slack):
        errs.append(f"row {i}: partial {p.tv_upper_lo!r} above reference upper bound {rhi!r}")
    if p.tv_upper_hi < rlo * (1.0 - slack):
        errs.append(f"row {i}: upper bound {p.tv_upper_hi!r} below reference partial {rlo!r}")
    if p.tv_lower > rhi * (1.0 + slack):
        errs.append(f"row {i}: lower bound {p.tv_lower!r} above reference upper bound {rhi!r}")
    return errs


def check(argv: list[str], rc: int | None, stdout: str, files: dict[str, str],
          reference: dict[str, list] | None) -> tuple[list[Point], list[str]]:
    """(points, errors) for one invocation; ``reference`` maps invocation keys
    to reference rows [k, tv_upper_lo, tv_upper_hi, tv_lower, certified]."""
    if rc != 0:
        return [], [f"exit code {rc}"]
    try:
        points = parse_points(argv, stdout, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [], [f"output does not parse: {exc!r}"]
    errs = []
    for i, p in enumerate(points):
        errs += _invariant_errors(i, p)
    if reference is not None:
        key = " ".join(argv)
        ref_rows = reference.get(key)
        if ref_rows is None:
            errs.append("no reference interval recorded for this query")
        elif len(ref_rows) != len(points):
            errs.append(f"{len(points)} points, reference has {len(ref_rows)}")
        else:
            slack = _slack_for(argv)
            for i, (p, ref) in enumerate(zip(points, ref_rows)):
                errs += _reference_errors(i, p, ref, slack)
    return points, errs
