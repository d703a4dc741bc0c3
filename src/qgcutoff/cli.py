"""Command-line interface: cutoff profiles, single bounds, thresholds,
moments, and verification suites, with deterministic CSV/JSON output.

Commands:

- ``profile``: one row per step count k over a grid given by --k, --c,
  --k-range or --c-range (c maps to k = N ln N / rate + c N, where rate is
  tau, 1 - cos(theta), or 2 depending on the family);
- ``bound``: the one-point profile, as a JSON record with the series
  interval, certificate hypotheses, and both TV bounds;
- ``thresholds``: the closed-form constants C, D, Q and nominal cutoffs;
- ``moments``: circle-measure moments m_eps and lambda-moments;
- ``verify``: the inequality suites with negative controls.

Output is byte-identical across repeated runs and across --threads values:
there is no randomness, reduction orders are fixed, and floats are printed
with their shortest round-trip representation.  Exit codes: 0 success, 1
verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .bounds import (
    MAX_K,
    IntervalGrid,
    ParameterError,
    TruncationConfig,
    WalkQuery,
    nominal_cutoff,
    threshold_C,
    threshold_D,
    threshold_Q,
    wreath_certificate_threshold,
    cutoff_profile,
    default_truncation,
)
from .numerics import _exp, lambda_moment
from .structures import (
    CircleMeasure,
    FiniteGroup,
    GroupState,
    cyclic_group,
    haar_state,
    lambda_theta,
    load_cayley,
    load_group_state,
    moment,
    trivial_state,
)
from .verify import format_report, negative_controls, run_all, suite_names

__all__ = ["main"]

_FAMILY_TOKENS = {
    "unitary": "unitary-free",
    "unitary-free": "unitary-free",
    "eval": "unitary-eval",
    "unitary-eval": "unitary-eval",
    "mixture": "mixture",
    "wreath": "wreath",
}

# most points a --k-range or --c-range grid may hold
MAX_GRID_POINTS = 100_000
# largest --lambda-moments LMAX: 2^LMAX, which bounds the LMAX-th moment, is finite up to here
MAX_LAMBDA_MOMENT = 1023


class CliError(Exception):
    """Invalid input; message names the offending flag."""


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args leaves the tree
    # unchanged, and building it costs about 2 ms
    parser = argparse.ArgumentParser(
        prog="qgcutoff",
        description="Certified total-variation bounds for central random walks "
        "on free unitary quantum groups and free wreath products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_walk: bool) -> None:
        p.add_argument("--output", help="write to this file instead of stdout")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; accepted for interface stability, results never depend on it")
        if with_walk:
            p.add_argument("--family", required=True, choices=sorted(_FAMILY_TOKENS))
            p.add_argument("--N", type=int, required=True)
            p.add_argument("--tau", type=float)
            p.add_argument("--theta", type=float)
            p.add_argument("--group", help="cyclic:<s> or cayley:<path>")
            p.add_argument("--psi", help="trivial, haar, or file:<path>")
            p.add_argument("--nu", help="haar, delta:<theta>, atoms:<path>, or porod")
            p.add_argument("--k", type=float)
            p.add_argument("--c", type=float)
            p.add_argument("--k-range", help="kmin:kmax:kstep")
            p.add_argument("--c-range", help="cmin:cmax:cstep")
            p.add_argument("--round-k", action="store_true", help="round each k to the nearest integer")
            p.add_argument("--max-p", type=int)
            p.add_argument("--max-total", type=int)

    p_profile = sub.add_parser("profile", help="cutoff profile over a k grid")
    add_common(p_profile, with_walk=True)
    p_profile.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])

    p_bound = sub.add_parser("bound", help="single-point bound record")
    add_common(p_bound, with_walk=True)
    p_bound.add_argument("--format", dest="fmt", default="json", choices=["json"])

    p_thresh = sub.add_parser("thresholds", help="closed-form constants and cutoffs")
    p_thresh.add_argument("--tau", type=float, required=True)
    p_thresh.add_argument("--theta", type=float)
    p_thresh.add_argument("--N", type=int, default=100)
    add_common(p_thresh, with_walk=False)

    p_mom = sub.add_parser("moments", help="circle-measure moments and lambda-moments")
    p_mom.add_argument("--nu", help="haar, delta:<theta>, atoms:<path>, or porod")
    p_mom.add_argument("--N", type=int, help="size parameter for the Porod mixture")
    p_mom.add_argument("--eps", help="comma-separated winding exponents, e.g. 0,1,-2")
    p_mom.add_argument("--lambda-moments", dest="lambda_moments",
                       help="N:LMAX — moments of 1 - cos under the Porod mixture")
    add_common(p_mom, with_walk=False)

    p_verify = sub.add_parser("verify", help="run inequality suites")
    p_verify.add_argument("--suite", default="all",
                          help="all, or comma-separated suite names")
    p_verify.add_argument("--report", help="write the JSON report to this file")
    add_common(p_verify, with_walk=False)
    return parser


def _merge_range_flags(argv: list[str]) -> list[str]:
    # argparse rejects values like "-5:5:1" after a separate flag token, so
    # fold them into --flag=value form
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--k-range", "--c-range") and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@contextlib.contextmanager
def _flag_input(flag: str):
    """Report a bad value or an unreadable file met while reading ``flag``'s
    value as bad input naming the flag."""
    try:
        yield
    except (ValueError, OverflowError, OSError) as exc:
        raise CliError(f"{flag}: {exc}") from exc


def _parse_nu(source: str, N: int | None) -> CircleMeasure:
    if source == "haar":
        return CircleMeasure.haar()
    if source == "porod":
        if N is None:
            raise CliError("--nu porod needs --N")
        with _flag_input("--N"):
            return CircleMeasure.porod(N)
    if source.startswith("delta:"):
        with _flag_input("--nu"):
            return CircleMeasure.delta(float(source.split(":", 1)[1]))
    if source.startswith("atoms:"):
        path = source.split(":", 1)[1]
        pairs = []
        with _flag_input("--nu"), open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                angle, weight = line.split()
                pairs.append((float(angle), float(weight)))
            return CircleMeasure.atomic(pairs)
    raise CliError(f"--nu: unknown measure spec {source!r}")


def _parse_group(source: str) -> FiniteGroup:
    if source.startswith("cyclic:"):
        with _flag_input("--group"):
            return cyclic_group(int(source.split(":", 1)[1]))
    if source.startswith("cayley:"):
        path = source.split(":", 1)[1]
        with _flag_input("--group"), open(path, "r", encoding="utf-8") as fh:
            return load_cayley(fh.read())
    raise CliError(f"--group: unknown group spec {source!r}")


def _parse_psi(source: str, group: FiniteGroup | None) -> GroupState:
    if group is None:
        raise CliError("--psi: a state needs --group, which is not given")
    if source == "trivial":
        return trivial_state(group)
    if source == "haar":
        return haar_state(group)
    if source.startswith("file:"):
        path = source.split(":", 1)[1]
        with _flag_input("--psi"), open(path, "r", encoding="utf-8") as fh:
            return load_group_state(group, fh.read())
    raise CliError(f"--psi: unknown state spec {source!r}")


def _finite(value: float | None, flag: str, derived: str = "") -> None:
    if value is not None and not math.isfinite(value):
        raise CliError(f"{flag} gives {derived} = {value!r}, beyond the float range" if derived
                       else f"{flag} must be finite, got {value!r}")


def _float_grid(spec: str, flag: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"{flag} must be min:max:step")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc
    for value in (lo, hi, step):
        _finite(value, flag)
    if step <= 0:
        raise CliError(f"{flag}: step must be > 0")
    limit = hi + 1e-9 * max(1.0, abs(hi))
    # a step of at least one ulp of every value reached makes x + step > x
    spacing = math.ulp(max(abs(lo), abs(limit)))
    if step < spacing:
        raise CliError(f"{flag}: step {step!r} is below the float spacing {spacing!r} of the range")
    # the grid holds floor(span) + 1 points; span is inf when limit - lo overflows
    span = (limit - lo) / step
    if span >= MAX_GRID_POINTS:
        raise CliError(f"{flag}: {span + 1:.6g} grid points exceed the limit of {MAX_GRID_POINTS}")
    out = []
    x = lo
    while x <= limit:
        out.append(x)
        x = x + step
    return out


def _build_query(args: argparse.Namespace) -> tuple[WalkQuery, list[float]]:
    """The walk and its k grid.  WalkQuery checks the walk flags
    (an invalid or unread one raises ParameterError naming its field), so
    only the flags that exist in the CLI alone, --k, --c, --k-range and
    --c-range, are checked here."""
    N = args.N
    group = None if args.group is None else _parse_group(args.group)
    q = WalkQuery(
        _FAMILY_TOKENS[args.family], N, tau=args.tau, theta=args.theta,
        nu=None if args.nu is None else _parse_nu(args.nu, N), group=group,
        psi=None if args.psi is None else _parse_psi(args.psi, group),
    )
    for value, flag in ((args.k, "--k"), (args.c, "--c")):
        _finite(value, flag)
    k_flags = [name for name, val in
               [("--k", args.k), ("--c", args.c), ("--k-range", args.k_range), ("--c-range", args.c_range)]
               if val is not None]
    if len(k_flags) != 1:
        raise CliError("exactly one of --k, --c, --k-range, --c-range is required, got: "
                       + (", ".join(k_flags) if k_flags else "none"))
    cutoff = nominal_cutoff(q)
    # N ln N / rate overflows for a tau below about 1e-308, or a huge N
    _finite(cutoff, "--tau" if q.tau is not None else "--N", "the nominal cutoff")
    if args.k is not None:
        ks = [args.k]
    elif args.c is not None:
        ks = [cutoff + args.c * N]
    elif args.k_range is not None:
        ks = _float_grid(args.k_range, "--k-range")
    else:
        ks = [cutoff + c * N for c in _float_grid(args.c_range, "--c-range")]
    if not all(math.isfinite(k) for k in ks):
        raise CliError(f"{k_flags[0]} gives a step count k that overflows")
    if any(k > MAX_K for k in ks):
        raise CliError(f"{k_flags[0]} gives a step count k above {MAX_K!r}")
    if args.round_k:
        ks = [float(round(k)) for k in ks]
    ks = [k for k in ks if k >= 0]
    if not ks:
        raise CliError("empty k grid (check --k/--c/--k-range/--c-range)")
    return q, ks


def _truncation_for(args: argparse.Namespace, family: str) -> TruncationConfig:
    base = default_truncation(family)
    max_p = args.max_p if args.max_p is not None else base.max_p
    max_total = args.max_total if args.max_total is not None else base.max_total
    return TruncationConfig(max_p=max_p, max_total=max_total)


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with _flag_input("--output"), open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_lines(q: WalkQuery, args: argparse.Namespace, tc: TruncationConfig) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("command", args.command),
        ("family", q.family),
        ("N", q.N),
    ]
    if q.tau is not None:
        items.append(("tau", float(q.tau)))
    if q.theta is not None:
        items.append(("theta", float(q.theta)))
    if q.nu is not None:
        items.append(("nu", q.nu.describe()))
    if q.group is not None:
        items.append(("group", args.group))
        items.append(("psi", args.psi or "trivial"))
        items.append(("group_order", q.group.order))
    items.append(("truncation_max_p", tc.max_p))
    items.append(("truncation_max_total", tc.max_total))
    items.append(("nominal_cutoff", nominal_cutoff(q)))
    if q.tau is not None:
        items.append(("threshold_C", threshold_C(q.tau)))
        items.append(("threshold_D", threshold_D(q.tau)))
    if q.tau is not None and q.group is not None:
        if q.tau > 7.0 / 4.0:
            items.append(("threshold_Q", threshold_Q(q.tau)))
            items.append(("wreath_threshold", wreath_certificate_threshold(q.tau)))
        else:
            items.append(("threshold_Q", "undefined (tau <= 7/4)"))
    return items


def _json_float(v: float) -> float | str:
    if math.isinf(v):
        return "infinity" if v > 0 else "-infinity"
    return v


# Writes the items of each dict in a list with a separator that occurs
# inside none of them: strings escape every control character
_JSON_ITEMS = json.JSONEncoder(separators=("\x00", ": "), allow_nan=False)


def _json_items(docs: list[dict]) -> list[list[str]]:
    """The '"key": value' texts of each nonempty dict of strings, floats,
    bools and ints in ``docs``, as ``json.dumps(allow_nan=False)`` writes
    them, from one pass of its C encoder."""
    return [body.split("\x00") for body in _JSON_ITEMS.encode(docs)[2:-2].split("}\x00{")]


def _json_object(items: list[str], indent: str) -> str:
    """``json.dumps(doc, indent=2)`` of a dict, byte for byte, from the
    ``_json_items`` of the dict, where it sits at ``indent``.  The standard
    library takes its pure-Python encoder whenever it indents, at several
    times the cost."""
    inner = "\n" + indent + "  "
    return "{" + inner + ("," + inner).join(items) + "\n" + indent + "}"


def _json_numbers(column: np.ndarray) -> list[str]:
    """Each float of a column as ``json.dumps(allow_nan=False)`` writes it."""
    if not np.isfinite(column).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return list(map(float.__repr__, column.tolist()))


def _hypothesis_patterns(A: IntervalGrid) -> tuple[list[dict[str, bool]], list[int]]:
    """The distinct hypotheses of the rows of ``A`` as name -> holds dicts,
    in order of first use, and each row's index into them: a row's pattern
    is its k >= 1, whether its tail ran, and its tail's hypotheses."""
    codes = (A.k_ok + 2 * A.tail_ran + A.tail_hypotheses @ (4 << np.arange(len(A.tail_keys)))).tolist()
    first: dict[int, int] = {}
    for i, code in enumerate(codes):
        first.setdefault(code, i)
    index = {code: j for j, code in enumerate(first)}
    return [dict(A.hypotheses(i)) for i in first.values()], [index[code] for code in codes]


# one profile row of ``json.dumps(doc, indent=2)`` where doc["rows"] holds it
_JSON_ROW = (
    '    {{\n      "k": {},\n      "tv_upper_lo": {},\n      "tv_upper_hi": {},\n      "tv_lower": {},\n'
    '      "certified": {},\n      "hypotheses": {}\n    }}'
)


def _json_count(n: int) -> int | float | str:
    """A word count as JSON that a reader parsing numbers as doubles reads
    as printed: the integer up to 2^53, past it the nearest double, and
    "infinity" past the double range (2 (2^M - 1) words of a point mass
    from max_total 1023 on, about 10^4900 over Z/256 at max_total 4096,
    beyond even Python's own int-to-str limit)."""
    if n <= 2**53:
        return n
    try:
        return float(n)
    except OverflowError:
        return "infinity"


def cmd_profile(args: argparse.Namespace) -> int:
    q, ks = _build_query(args)
    tc = _truncation_for(args, q.family)
    result = cutoff_profile(q, ks, tc)
    A = result.A
    meta = _config_lines(q, args, tc) + [("monotone_upper", result.monotone_upper)]
    if not result.monotone_upper:
        meta.append(("note", "certified upper bound failed to be non-increasing along the grid"))
    columns = (A.k, result.tv_upper_lo, result.tv_upper_hi, result.tv_lower)
    certified = ["true" if ok else "false" for ok in A.certified.tolist()]
    patterns, row_patterns = _hypothesis_patterns(A)
    if args.fmt == "csv":
        texts = [";".join(f"{name}={_fmt(ok)}" for name, ok in pattern.items()) for pattern in patterns]
        lines = [f"# {key}={_fmt(val)}" for key, val in meta]
        lines.append("k,tv_upper_lo,tv_upper_hi,tv_lower,certified,hypotheses")
        lines += map(",".join, zip(*(map(float.__repr__, c.tolist()) for c in columns), certified,
                                   [texts[j] for j in row_patterns]))
        _emit("\n".join(lines), args.output)
    else:
        config, *pattern_items = _json_items([dict(meta), *patterns])
        texts = [_json_object(items, "      ") for items in pattern_items]
        rows = ",\n".join(_JSON_ROW.format(*row) for row in zip(
            *map(_json_numbers, columns), certified, [texts[j] for j in row_patterns]))
        _emit(f'{{\n  "config": {_json_object(config, "  ")},\n  "rows": [\n{rows}\n  ]\n}}', args.output)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    q, ks = _build_query(args)
    if len(ks) != 1:
        raise CliError("bound needs a single k (--k or --c)")
    tc = _truncation_for(args, q.family)
    result = cutoff_profile(q, ks, tc)
    A = result.A
    log_partial, log_tail = A.log_partial.item(0), A.log_tail.item(0)
    interval = {
        "k": A.k.item(0),
        "A_partial": _json_float(_exp(log_partial)),
        "A_tail": _json_float(_exp(log_tail)),
        "A_log_partial": _json_float(log_partial),
        "A_log_tail": _json_float(log_tail),
        "terms_used": _json_count(A.terms_used),
        "certified": A.certified.item(0),
        "certificate": A.certificate,
    }
    tv = {
        "tv_upper_lo": result.tv_upper_lo.item(0),
        "tv_upper_hi": result.tv_upper_hi.item(0),
        "tv_clamped": result.tv_clamped.item(0),
        "tv_lower": result.tv_lower.item(0),
    }
    config, interval, hyps, tv = _json_items([dict(_config_lines(q, args, tc)), interval, dict(A.hypotheses(0)), tv])
    # json.dumps(indent=2) of {"config": ..., **interval, "hypotheses": ..., **tv}
    items = [f'"config": {_json_object(config, "  ")}', *interval, f'"hypotheses": {_json_object(hyps, "  ")}', *tv]
    _emit("{\n  " + ",\n  ".join(items) + "\n}", args.output)
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    tau = args.tau
    _finite(tau, "--tau")
    _finite(args.theta, "--theta")
    if not tau > 0:
        raise CliError("--tau must be > 0")
    N = args.N
    if N < 2:
        raise CliError(f"--N must be >= 2, got {N}")
    with _flag_input("--N"):
        n_log_n = N * math.log(N)
    _finite(n_log_n, "--N", "N ln N")
    # Q's tau**4 raises OverflowError (from about 1.3e77 on) where C, D and the cutoffs overflow to inf
    with _flag_input("--tau"):
        doc: dict[str, object] = {"tau": tau, "N": N, "C": threshold_C(tau), "D": threshold_D(tau)}
        if tau > 7.0 / 4.0:
            try:
                doc["Q"] = threshold_Q(tau)
            except OverflowError:
                doc["Q"] = math.inf
            _finite(doc["Q"], "--tau", "Q")
            doc["Qthr"] = wreath_certificate_threshold(tau)
        else:
            doc["Q"] = None
            doc["Qthr"] = None
            doc["note"] = "Q is defined for tau > 7/4 only"
    doc["cutoff_steps"] = n_log_n / tau
    doc["cutoff_steps_mixture"] = n_log_n / 2.0
    if args.theta is not None:
        lam = lambda_theta(args.theta)
        if lam <= 0:
            raise CliError("--theta gives 1 - cos(theta) = 0; no cutoff rate")
        doc["cutoff_steps_eval"] = n_log_n / lam
    for key, value in doc.items():
        if isinstance(value, float):
            _finite(value, "--theta" if key == "cutoff_steps_eval" else "--tau", key)
    _emit(json.dumps(doc, indent=2, allow_nan=False), args.output)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    doc: dict[str, object] = {}
    if args.eps is not None:
        nu = _parse_nu(args.nu if args.nu is not None else "delta:0", args.N)
        try:
            eps_list = [int(x) for x in args.eps.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise CliError(f"--eps: {exc}") from exc
        vals = {}
        for e in eps_list:
            with _flag_input("--eps"):
                m = moment(nu, e)
            vals[str(e)] = {"re": m.real, "im": m.imag}
        doc["nu"] = nu.describe()
        doc["moments"] = vals
    if args.lambda_moments is not None:
        parts = args.lambda_moments.split(":")
        try:
            N, lmax = (int(x) for x in parts)
        except ValueError as exc:
            raise CliError(f"--lambda-moments must be N:LMAX with integers N >= 2, LMAX >= 0: {exc}") from exc
        if N < 2 or not 0 <= lmax <= MAX_LAMBDA_MOMENT:
            raise CliError(f"--lambda-moments needs N >= 2 and 0 <= LMAX <= {MAX_LAMBDA_MOMENT}, got {N}:{lmax}")
        with _flag_input("--lambda-moments"):  # an N beyond the float range raises OverflowError
            doc["lambda_moments"] = {str(l): lambda_moment(N, l) for l in range(lmax + 1)}
            doc["wallis_ratio_recurrence"] = N / (N + 1.0)
            doc["wallis_ratio_alternative"] = (N + 1.0) / (N + 2.0)
        doc["wallis_ratio_note"] = (
            "W_{N+1}/W_{N-1} from the Wallis recurrence is N/(N+1); "
            "the alternative (N+1)/(N+2) disagrees with E[lambda]/2 on the exact "
            "Porod rule (verify --suite lambda_moment)"
        )
    if not doc:
        raise CliError("moments needs --eps (with --nu) or --lambda-moments")
    _emit(json.dumps(doc, indent=2, allow_nan=False), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with _flag_input("--suite"):
        names = suite_names(None if args.suite == "all" else [s.strip() for s in args.suite.split(",")])
    # open the report, and try the output file, before any suite runs, so
    # that a bad path fails at once
    with contextlib.ExitStack() as stack:
        with _flag_input("--report"):
            report = None if args.report is None else stack.enter_context(open(args.report, "w", encoding="utf-8"))
        if args.output is not None:
            with _flag_input("--output"):
                open(args.output, "w", encoding="utf-8").close()
        reports = run_all(names)
        lines = [format_report(r) for r in reports.values()]
        all_ok = all(r.ok for r in reports.values())
        controls_ok = True
        control_reports: dict[str, object] = {}
        if args.suite == "all":
            controls = negative_controls()
            for name, rep in controls.items():
                control_reports[name] = dataclasses.asdict(rep)
                got = rep.failure_count
                status = "OK" if got > 0 else "VACUOUS"
                if got == 0:
                    controls_ok = False
                lines.append(f"{status} negative control {name}: {got} failures (expected >= 1)")
        _emit("\n".join(lines), args.output)
        if report is not None:
            doc = {
                "suites": {name: dataclasses.asdict(r) for name, r in reports.items()},
                "negative_controls": control_reports,
                "all_pass": all_ok and controls_ok,
            }
            with _flag_input("--report"):
                report.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if (all_ok and controls_ok) else 1


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_range_flags(args_list))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        if args.threads is not None and args.threads < 1:
            raise CliError("--threads must be >= 1")
        run = {"profile": cmd_profile, "bound": cmd_bound, "thresholds": cmd_thresholds,
               "moments": cmd_moments, "verify": cmd_verify}[args.command]
        return run(args)
    except ParameterError as exc:
        # each library field is set by the flag of its name: max_p by --max-p
        flags = ", ".join("--" + field.replace("_", "-") for field in exc.fields)
        sys.stderr.write(f"error: {flags}: {exc.message}\n")
        return 2
    except (CliError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
