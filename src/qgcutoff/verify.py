"""Grid-based numerical verification of the standalone analytic inequalities
behind the walk bounds, with margins, tight-point flagging, and negative
controls guarding against vacuous passes.

Each verifier sweeps its own fixed grid, stated as constants beside it
(log-spaced in N where the domain is wide), computes a margin per point as
one array, counts the failures and lists the first MAX_LISTED_FAILURES in
grid order as (point, lhs, rhs, margin).  Labels
and sides are built only for the points a report names.  Margins for inequalities between exponentially large quantities are
taken on the log scale; |margin| below the grid tolerance is flagged "tight"
and counted as a pass.  Every verifier is pure and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import _Q_DOMAIN_EPS, lambda_moment, q_of, u_seq
from .structures import lambda_theta, porod_rule, trace_modulus
from .bounds import threshold_C, wreath_certificate_threshold

__all__ = [
    "MAX_LISTED_FAILURES",
    "VerifyReport",
    "verify_encadrement",
    "verify_lower_aux",
    "verify_main_inequality",
    "verify_anqn",
    "verify_ratio_comparison",
    "verify_wreath_inequality",
    "verify_lambda_moment",
    "negative_controls",
    "suite_names",
    "run_all",
    "format_report",
]


# a margin within this of 0 is flagged tight and counts as a pass
_TOLERANCE = 1e-12


# the failures a report lists, the first in grid order; stdout prints the same ones
MAX_LISTED_FAILURES = 10


@dataclass
class VerifyReport:
    """One suite's result, counted block by block in fixed grid order:
    ``failures`` lists the first MAX_LISTED_FAILURES failing points as
    (point, lhs, rhs, margin), ``failure_count`` counts every one, and
    ``min_margin`` is the first smallest margin.  ``tolerance`` is the
    suite's tight band, kept off the fields so that ``dataclasses.asdict``
    gives the JSON report."""

    inequality_id: str
    tolerance: InitVar[float]
    grid_size: int = 0
    pass_count: int = 0
    tight_count: int = 0
    failure_count: int = 0
    failures: list[tuple[str, float, float, float]] = field(default_factory=list)
    min_margin: float = math.inf
    min_margin_point: str = ""
    notes: list[str] = field(default_factory=list)

    def __post_init__(self, tolerance: float) -> None:
        self.tol = tolerance

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def add(self, margins: np.ndarray, detail: Callable[[int], tuple[str, float, float]]) -> None:
        """Count one block of margins, in grid order.  ``detail(i)`` gives the
        label and both sides of the block's i-th point; it is called only for
        the points the report names.  A point passes when its margin is
        >= -tolerance, so a NaN margin fails, and is the smallest."""
        m = np.asarray(margins, dtype=float).ravel()
        if m.size == 0:
            return
        self.grid_size += m.size
        passed = m >= -self.tol
        self.pass_count += int(np.count_nonzero(passed))
        self.tight_count += int(np.count_nonzero(passed & (np.abs(m) < self.tol)))
        failed = np.flatnonzero(~passed)
        self.failure_count += failed.size
        for i in failed[: MAX_LISTED_FAILURES - len(self.failures)].tolist():
            self.failures.append((*detail(i), float(m[i])))
        # argmin gives the first NaN, else the first minimum
        i = int(np.argmin(m))
        if not math.isnan(self.min_margin) and not m[i] >= self.min_margin:
            self.min_margin = float(m[i])
            self.min_margin_point = detail(i)[0]


# The grids are built once per process and shared by a suite and its
# negative control, hence tuples.


@functools.lru_cache(maxsize=None)
def _geom_floats(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """count points from lo to hi in geometric progression, lo first."""
    if count == 1:
        return (lo,)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(lo * ratio**i for i in range(count))


@functools.lru_cache(maxsize=None)
def _geom_ints(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """The distinct integers in [lo, hi] nearest the points of
    ``_geom_floats``, in increasing order; lo is the first."""
    vals = sorted({int(round(x)) for x in _geom_floats(float(lo), float(hi), count)})
    return tuple(v for v in vals if lo <= v <= hi)


_ENCADREMENT_T_MIN = 2.1
_ENCADREMENT_T_MAX = 200.0
_ENCADREMENT_T_POINTS = 200
_ENCADREMENT_N_MAX = 60


def verify_encadrement() -> VerifyReport:
    """t q^{-(n-1)} <= u_n(t) <= q^{-n}/(1 - q^2) over t on a geometric grid
    and 1 <= n <= _ENCADREMENT_N_MAX; both sides checked per point, margins
    on the log scale."""
    return _encadrement_impl(lower_exponent_shift=1)


def _encadrement_impl(lower_exponent_shift: int) -> VerifyReport:
    rep = VerifyReport("encadrement", _TOLERANCE)
    ts = _geom_floats(_ENCADREMENT_T_MIN, _ENCADREMENT_T_MAX, _ENCADREMENT_T_POINTS)
    t = np.array(ts)
    q = q_of(t)
    log_q = np.log(q)
    n_max = _ENCADREMENT_N_MAX
    n = np.arange(1, n_max + 1, dtype=float)[:, None]
    # (n, t) arrays
    log_u = u_seq(t, n_max)[1:]
    log_lower = np.log(t) - (n - lower_exponent_shift) * log_q
    log_upper = -n * log_q - np.log1p(-q * q)
    # (t, n, side) is the sweep's order: t, then n, the lower side before the upper
    margins = np.stack([log_u - log_lower, log_upper - log_u], axis=-1).transpose(1, 0, 2)

    def detail(i: int) -> tuple[str, float, float]:
        j, r = divmod(i, 2 * n_max)
        k, upper = divmod(r, 2)
        u = math.exp(min(log_u[k, j], 700.0))
        if upper:
            return f"upper t={ts[j]:.6g} n={k + 1}", u, math.exp(min(log_upper[k, j], 700.0))
        return f"lower t={ts[j]:.6g} n={k + 1}", math.exp(min(log_lower[k, j], 700.0)), u

    rep.add(margins, detail)
    return rep


_LOWER_AUX_AS = (1.0, 2.0, 4.0)
_LOWER_AUX_N_MAX = 10_000
_LOWER_AUX_N_POINTS = 200


def verify_lower_aux() -> VerifyReport:
    """N (1 - a/N)^{N ln N / a} >= e^{-a/2e} / sqrt(2) for each a in
    _LOWER_AUX_AS and integer N >= 2a (log-spaced, boundary N = ceil(2a)
    included)."""
    return _lower_aux_impl(rhs_log_shift=0.0)


def _lower_aux_impl(rhs_log_shift: float) -> VerifyReport:
    rep = VerifyReport("lower_aux", _TOLERANCE)
    for a in _LOWER_AUX_AS:
        n_lo = max(int(math.ceil(2.0 * a)), 2)
        ns = _geom_ints(n_lo, _LOWER_AUX_N_MAX, _LOWER_AUX_N_POINTS)
        N = np.array(ns, dtype=float)
        log_N = np.log(N)
        log_lhs = log_N + (N * log_N / a) * np.log1p(-a / N)
        log_rhs = -a / (2.0 * math.e) - 0.5 * math.log(2.0) + rhs_log_shift
        rep.add(log_lhs - log_rhs,
                lambda i: (f"a={a:g} N={ns[i]}", math.exp(log_lhs[i]), math.exp(log_rhs)))
    return rep


_MAIN_TAUS = (2.0, 3.0, 5.0)
_MAIN_N_MAX = 500


def verify_main_inequality() -> VerifyReport:
    """N q(N - tau) (1 - q(N - tau)^2) >= e^{tau/N} for tau in _MAIN_TAUS and
    integer N >= ceil(tau + C(tau)), N <= _MAIN_N_MAX; sub-threshold points
    are scanned and recorded in the notes, not counted."""
    rep = VerifyReport("main_inequality", _TOLERANCE)
    for tau in _MAIN_TAUS:
        n_start = int(math.ceil(tau + threshold_C(tau)))
        N = np.arange(n_start, _MAIN_N_MAX + 1, dtype=float)
        log_lhs = _main_lhs_log(N, tau)
        rep.add(log_lhs - tau / N,
                lambda i: (f"tau={tau:g} N={n_start + i}", math.exp(log_lhs[i]), math.exp(tau / (n_start + i))))
        # exploratory scan below the threshold (domain still needs N - tau > 2)
        below = np.array([N for N in range(int(math.floor(tau)) + 3, n_start) if N - tau > 2.0 + _Q_DOMAIN_EPS], dtype=float)
        for N, margin in zip(below.tolist(), (_main_lhs_log(below, tau) - tau / below).tolist()):
            rep.notes.append(f"below threshold: tau={tau:g} N={int(N)} margin={margin:.6g}")
    return rep


def _main_lhs_log(N: np.ndarray, tau: float) -> np.ndarray:
    q = q_of(N - tau)
    return np.log(N) + np.log(q) + np.log1p(-q * q)


_ANQN_N_MAX = 10_000
_ANQN_N_POINTS = 200


def verify_anqn() -> VerifyReport:
    """(N - 2 + 2/N) q(N - 2) <= 1 + 8/(N - 2)^2 for integer
    4 <= N <= _ANQN_N_MAX.

    At the boundary N = 4 the deformation parameter sits at its parabolic
    limit q(2) = 1, which is taken exactly."""
    return _anqn_impl(numerator=8.0)


def _anqn_impl(numerator: float) -> VerifyReport:
    rep = VerifyReport("anqn", _TOLERANCE)
    ns = _geom_ints(4, _ANQN_N_MAX, _ANQN_N_POINTS)
    N = np.array(ns, dtype=float)
    t = N - 2.0
    q = np.ones_like(t)
    q[t > 2.0] = q_of(t[t > 2.0])
    lhs = (N - 2.0 + 2.0 / N) * q
    rhs = 1.0 + numerator / (t * t)
    rep.add(rhs - lhs, lambda i: (f"N={ns[i]}", float(lhs[i]), float(rhs[i])))
    return rep


_RATIO_NS = (6, 10, 50, 200)
_RATIO_THETAS = 64
_RATIO_N_MAX = 40


def verify_ratio_comparison() -> VerifyReport:
    """u_n(N - tau_theta) / u_n(N - lambda_theta) <= e^{4n/(N-2)^2} for N in
    _RATIO_NS (all >= 6), theta on a uniform grid over [0, 2 pi),
    n <= _RATIO_N_MAX; margins on the log scale.  theta = 0 gives ratio 1
    exactly (tight)."""
    rep = VerifyReport("ratio_comparison", _TOLERANCE)
    Ns, n_max, count = _RATIO_NS, _RATIO_N_MAX, _RATIO_THETAS
    thetas = [2.0 * math.pi * j / count for j in range(count)]
    t1 = [trace_modulus(N, theta) for N in Ns for theta in thetas]
    t2 = [N - lambda_theta(theta) for N in Ns for theta in thetas]
    # one u_seq call for every t; log_ratio is (N, theta, n), the sweep's order
    log_u = u_seq(np.array(t1 + t2), n_max)[1:]
    log_ratio = (log_u[:, : len(t1)] - log_u[:, len(t1) :]).T.reshape(len(Ns), count, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    for N, ratio in zip(Ns, log_ratio):
        bound = 4.0 * n / ((N - 2.0) * (N - 2.0))

        def detail(i: int) -> tuple[str, float, float]:
            j, k = divmod(i, n_max)
            return f"N={N} theta={thetas[j]:.6g} n={k + 1}", math.exp(ratio[j, k]), math.exp(bound[k])

        rep.add(bound - ratio, detail)
    return rep


_WREATH_TAUS = (2.0, 3.0)
_WREATH_N_MAX = 500


def verify_wreath_inequality() -> VerifyReport:
    """q(sqrt N) / (sqrt N q(sqrt(N - tau))^2 (1 - q(sqrt(N - tau))^2)) <=
    e^{-tau/N} for tau in _WREATH_TAUS (all > 7/4) and integer
    N >= ceil(Q(tau)/(4 tau - 7)), N <= _WREATH_N_MAX; a sub-threshold scan
    records where the inequality first holds."""
    rep = VerifyReport("wreath_inequality", _TOLERANCE)
    for tau in _WREATH_TAUS:
        n_start = int(math.ceil(wreath_certificate_threshold(tau)))
        below = np.array([N for N in range(int(math.floor(tau)) + 5, n_start) if N - tau > 4.0 and N >= 5], dtype=float)
        holds = np.flatnonzero(-tau / below - _wreath_lhs_log(below, tau) >= 0)
        if holds.size:
            rep.notes.append(f"tau={tau:g}: holds from N={int(below[holds[0]])} (threshold {n_start})")
        n_lo = max(n_start, 5)
        N = np.arange(n_lo, _WREATH_N_MAX + 1, dtype=float)
        log_lhs = _wreath_lhs_log(N, tau)
        rep.add(-tau / N - log_lhs,
                lambda i: (f"tau={tau:g} N={n_lo + i}", math.exp(log_lhs[i]), math.exp(-tau / (n_lo + i))))
    return rep


def _wreath_lhs_log(N: np.ndarray, tau: float) -> np.ndarray:
    s = np.sqrt(N)
    qp = q_of(np.sqrt(N - tau))
    return np.log(q_of(s)) - np.log(s) - 2.0 * np.log(qp) - np.log1p(-qp * qp)


_LAMBDA_NS = (5, 10, 50)
_LAMBDA_L_MAX = 6
_LAMBDA_TOLERANCE = 1e-14


def verify_lambda_moment() -> VerifyReport:
    """Closed-form moments 2^l prod (N-2+2s)/(N-1+2s) for N in _LAMBDA_NS and
    l <= _LAMBDA_L_MAX against the Porod rule of degree _LAMBDA_L_MAX
    (``porod_rule``), which averages lambda^l, a trigonometric polynomial of
    degree l, exactly, at relative tolerance.  The two sides are independent: the rule's weights
    come from the beta-integral moments, the closed form telescopes the
    Wallis recurrence.  Also records, per N, the rule's E[lambda]/2 against
    the Wallis-ratio question (recurrence ratio N/(N+1) versus the
    alternative (N+1)/(N+2) sometimes quoted for W_{N+1}/W_{N-1})."""
    # margin = tolerance - relative deviation, so a point fails exactly when
    # the deviation exceeds _LAMBDA_TOLERANCE
    rep = VerifyReport("lambda_moment", 1e-15)
    for N in _LAMBDA_NS:
        theta, w = porod_rule(N, _LAMBDA_L_MAX)
        lam = 1.0 - np.cos(theta)
        closed = [lambda_moment(N, l) for l in range(_LAMBDA_L_MAX + 1)]
        rule = [float(np.dot(w, lam**l)) for l in range(_LAMBDA_L_MAX + 1)]
        margins = _LAMBDA_TOLERANCE - np.abs(np.subtract(closed, rule)) / np.maximum(np.abs(rule), 1e-300)
        rep.add(margins, lambda l: (f"N={N} l={l}", closed[l], rule[l]))
        half_mean = rule[1] / 2.0
        rec = N / (N + 1.0)
        alt = (N + 1.0) / (N + 2.0)
        rep.notes.append(
            f"N={N}: rule E[lambda]/2 = {half_mean!r}; recurrence ratio N/(N+1) = {rec!r} "
            f"(deviation {abs(half_mean - rec):.3e}); alternative ratio (N+1)/(N+2) = {alt!r} "
            f"(deviation {abs(half_mean - alt):.3e})"
        )
    return rep


def negative_controls() -> dict[str, VerifyReport]:
    """Deliberately perturbed inequalities; every report must show failures.

    - encadrement with the lower exponent n instead of n - 1;
    - the auxiliary lower bound with its constant doubled;
    - the a_N q_N comparison with 8 replaced by 2.
    """
    return {
        "encadrement_broken": _encadrement_impl(lower_exponent_shift=0),
        "lower_aux_broken": _lower_aux_impl(rhs_log_shift=math.log(2.0)),
        "anqn_broken": _anqn_impl(numerator=2.0),
    }


_SUITES: dict[str, Callable[[], VerifyReport]] = {
    "encadrement": verify_encadrement,
    "lower_aux": verify_lower_aux,
    "main_inequality": verify_main_inequality,
    "anqn": verify_anqn,
    "ratio_comparison": verify_ratio_comparison,
    "wreath_inequality": verify_wreath_inequality,
    "lambda_moment": verify_lambda_moment,
}


def suite_names(names: Sequence[str] | None = None) -> list[str]:
    """The suites ``names`` selects (default: all), in order and without
    repeats; ValueError names the first unknown one."""
    if names is None:
        return list(_SUITES)
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(_SUITES)}")
    return list(dict.fromkeys(names))


def run_all(names: Sequence[str] | None = None) -> dict[str, VerifyReport]:
    """Run the named suites (default: all) on their grids; an
    unknown name raises ValueError before any suite runs."""
    return {name: _SUITES[name]() for name in suite_names(names)}


def format_report(r: VerifyReport) -> str:
    status = "PASS" if r.ok else "FAIL"
    lines = [
        f"{status} {r.inequality_id}: {r.pass_count}/{r.grid_size} points "
        f"({r.tight_count} tight), min margin {r.min_margin:.6g} at {r.min_margin_point}"
    ]
    for point, lhs, rhs, margin in r.failures:
        lines.append(f"    FAIL {point}: lhs={lhs!r} rhs={rhs!r} margin={margin:.6g}")
    if r.failure_count > len(r.failures):
        lines.append(f"    ... {r.failure_count - len(r.failures)} more failures")
    for note in r.notes:
        lines.append(f"    note: {note}")
    return "\n".join(lines)
