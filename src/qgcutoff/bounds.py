"""Certified evaluation of the character-series upper bound and Chebyshev
lower bounds for each walk family.

For a central state phi on a Kac-type compact quantum group, the k-th
convolution power satisfies

    4 * ||phi^{*k} - h||_TV^2  <=  A_k  :=  sum over nontrivial irreducibles
                                            of  d_alpha^2 |phi(chi_alpha)/d_alpha|^{2k}.

The engine returns an interval [partial, partial + tail] around the series
value of A_k: ``partial`` is the exact sum over a finite truncation of the
word index space, held as its logarithm, and ``tail`` is a certified
majorization of everything outside the truncation, built from the envelope
bounds

    t * q(t)^{-(n-1)}  <=  u_n(t)  <=  q(t)^{-n} / (1 - q(t)^2)      (t > 2)

applied per factor.  When a geometric ratio fails to be < 1 the engine
reports "no certificate" (tail = infinity) instead of extrapolating.

Each family has one engine, (query, k grid, truncation) -> the intervals
at every k as one columnar ``IntervalGrid``, reached through ``A_k_grid``.
The point-mass unitary and eval walks and the wreath sum words of every
block count that fits the index total, as the resolvent G / (1 - G) of one
series G (``_log_resolvent``, by degree doubling on R = G (1 + R) with
positive products only), so their tail bounds only the words past that
total, in closed form for the whole grid (``_resolvent_tail``); the
mixture and a general nu stop at max_p blocks, and their tail is the
composition tail ``_composition_tail``.

Family-specific series:

- unitary-free / unitary-eval: the sum runs over words with weights
  |m_eps(nu)|^{2k} prod_i u_{n_i}(N - tau)^{2k} / u_{n_i}(N)^{2k-2};
- mixture: same word set, each coefficient replaced by its exact Porod-mixture
  average (``porod_rule``); the tail is certified for the Jensen-majorized
  series, which dominates;
- wreath: the sum runs over wreath words and carries |psi(gamma-product)| to
  the FIRST power, matching the factorization of its group-label sums.  This
  series dominates the squared-coefficient series term by term once k >= 1/2, so
  total-variation conversion stays valid in the certified regime k >= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import _Q_DOMAIN_EPS, _exp_each, log1mexp, logsumexp, q_of, u_seq
from .structures import (
    CircleMeasure,
    FiniteGroup,
    GroupState,
    arg_trace,
    lambda_theta,
    moment,
    porod_rule,
    tau_theta,
    trace_modulus,
    trivial_state,
)
from .words import (
    _compositions,
    chi2_expectation_unitary,
    chi2_expectation_wreath,
    chi_expectation_mixture,
    count_unitary,
    count_wreath,
    eval_state_params,
)

__all__ = [
    "ParameterError",
    "TruncationConfig",
    "IntervalGrid",
    "WalkQuery",
    "DEFAULT_TRUNCATION",
    "MIXTURE_DEFAULT_TRUNCATION",
    "MAX_K",
    "MAX_N",
    "MAX_TOTAL",
    "MAX_MIXTURE_WORDS",
    "MAX_MIXTURE_TABLE",
    "MAX_P",
    "default_truncation",
    "A_k_grid",
    "tv_upper_from_A",
    "tv_lower_chebyshev",
    "tv_lower",
    "threshold_C",
    "threshold_D",
    "threshold_Q",
    "wreath_certificate_threshold",
    "nominal_cutoff",
    "cutoff_profile",
    "ProfileResult",
]

# Largest index total a truncation accepts.  The resolvent costs about
# max_total^2 / 2 multiply-adds per grid row, and a convolution power
# round O(max_total^2): at 4096 one delta bound (every block count, 12
# doubling steps) takes about 10 ms, one whose row takes the log-domain
# kernel (N = 5, tau = 2.99) about 65 ms, and a wreath bound over Z/3 about
# 5 ms (in-process on a 2-vCPU x86-64 VM).
MAX_TOTAL = 4096
# Most words the mixture engine counts.  Its array passes average one word
# of each conjugate pair: a two-point profile at N = 300 takes 22-33 ms for
# the 82 450 words of (7, 17) and 72-105 ms for the 90 300 of (2, 300),
# averaged on 301 nodes (the best of 21 in-process calls in each of three
# runs on a shared 2-vCPU x86-64 VM, as below).
MAX_MIXTURE_WORDS = 100_000
# Most blocks a truncation accepts.  The parity-class table of the words of
# at most P blocks holds P (P + 3) / 2 rows of P slots, about P^3 / 2, each
# a float log C and an int stop column (2.2 MB at P = 64, 457 MB at
# P = 384); with Haar nu, (64, 64) takes about 0.02 s and 36 MB the first
# call in a process, (64, 4096) about 1.1 s and 42 MB.  Only the mixture
# and a general nu read max_p, and a truncation never stores one above its
# max_total: a point mass and the wreath sum every block count that fits it.
MAX_P = 64
# Most entries, (max_total + 1) * L, of the mixture's per-node u_n ratio table
# on L = 2 ((max_total + max_p) // 2) + 1 rule nodes (the default (5, 10)
# takes 165).  At the cap, (1, 2046), a two-point profile at N = 300 peaks
# 33 MB above the interpreter (VmHWM 63 MB from 30 MB) and takes 119-163 ms,
# about two fifths of it in ``porod_rule``'s 2047 x 1023 cosine table and a
# fifth to a quarter each in the table's u_n recurrences and the word sums.
MAX_MIXTURE_TABLE = 2**22


class ParameterError(ValueError):
    """A walk or truncation parameter breaks a rule: ``fields`` names the
    parameters at fault and ``message`` states the rule; str() reads
    "<fields>: <message>"."""

    def __init__(self, fields: tuple[str, ...], message: str) -> None:
        super().__init__(f"{', '.join(fields)}: {message}")
        self.fields = fields
        self.message = message


@dataclass(frozen=True)
class TruncationConfig:
    """Finite word-index window: p <= max_p blocks and index total <=
    max_total, with max_p in 1..MAX_P and max_total in 1..MAX_TOTAL; a
    violation raises ParameterError.  No word has more blocks than its
    index total, so max_p is stored as min(max_p, max_total), which sums
    the same words.  The point-mass unitary and eval walks and the wreath
    sum every block count that fits max_total and do not read max_p.
    """

    max_p: int = 12
    max_total: int = 48

    def __post_init__(self) -> None:
        if not 1 <= self.max_p <= MAX_P:
            raise ParameterError(("max_p",), f"must be in 1..{MAX_P}, got {self.max_p}")
        if not 1 <= self.max_total <= MAX_TOTAL:
            raise ParameterError(("max_total",), f"must be in 1..{MAX_TOTAL}, got {self.max_total}")
        object.__setattr__(self, "max_p", min(self.max_p, self.max_total))


DEFAULT_TRUNCATION = TruncationConfig(max_p=12, max_total=48)
# The mixture partial averages every word on its rule nodes, where the other
# families sum whole series by convolution, so its default window is
# smaller; the certified tail covers the difference.  A two-point profile
# at N = 300 takes 1.0-1.6 ms at (5, 10), 8-12 ms at (6, 16), 29 784 words.
MIXTURE_DEFAULT_TRUNCATION = TruncationConfig(max_p=5, max_total=10)

# Largest step count A_k_grid accepts.  The engines form 2k times a
# log-dimension of about max_total log N, which stays finite for any
# truncation that runs, while N ln N / rate is far below it.
MAX_K = 1e300
# Largest N a walk accepts: the engines compute with float(N), which is N
# only up to 2^53.
MAX_N = 2**53


def default_truncation(family: str) -> TruncationConfig:
    """The truncation an engine runs with when none is given."""
    return _FAMILIES[family].truncation


@dataclass
class IntervalGrid:
    """The intervals [partial, partial + tail] around the series value A_k
    at every k of a grid, as columns: the logs of both endpoints, so that no
    underflowed value is lost, one entry a row.

    ``log_partial`` is exact over the truncation (up to float rounding).
    ``log_tail`` is certified under the row's hypotheses; where any required
    hypothesis fails it is +inf and ``certified`` is False.  A row's
    hypotheses (``hypotheses``) are ("k >= 1", ``k_ok``), the walk's
    ``walk_hypotheses``, and, on the rows ``tail_ran`` marks (k >= 1 and
    every required walk hypothesis holds), the tail's: ``tail_keys`` with
    that row of ``tail_hypotheses``.  Nothing here is to be written: the
    record is not frozen because its arrays could not be, and a frozen
    dataclass costs a one-row bound several microseconds to build.
    """

    k: np.ndarray
    log_partial: np.ndarray
    log_tail: np.ndarray
    certified: np.ndarray
    terms_used: int
    certificate: str
    walk_hypotheses: tuple[tuple[str, bool], ...]
    k_ok: np.ndarray
    tail_keys: tuple[str, ...]
    tail_hypotheses: np.ndarray  # (rows, keys) bool, False where the tail did not run
    tail_ran: np.ndarray

    def hypotheses(self, i: int) -> tuple[tuple[str, bool], ...]:
        """Row i's hypotheses as (name, holds) pairs, in print order."""
        tail = tuple(zip(self.tail_keys, self.tail_hypotheses[i].tolist())) if self.tail_ran[i] else ()
        return (("k >= 1", bool(self.k_ok[i])),) + self.walk_hypotheses + tail


@dataclass(frozen=True)
class WalkQuery:
    """One walk: family, size N, and the parameters the family reads, the
    others None: "unitary-free" (trace deficit tau, circle measure nu,
    default the point mass at 0), "unitary-eval" (rotation angle theta),
    "mixture" (Porod-mixed evaluation states, no parameter), "wreath" (trace
    deficit tau, finite group with state psi, default trivial).

    A parameter the family does not read, an N above MAX_N, or any broken
    rule of the family (``_FAMILIES``), raises ParameterError naming the
    fields at fault.  The step counts are not part of the walk: they go to
    ``A_k_grid`` and ``cutoff_profile`` as a grid.  The
    analytic threshold N >= tau + C(tau) is recorded by the engines as a
    certificate hypothesis entry but is not enforced here.
    """

    family: str
    N: int
    tau: float | None = None
    theta: float | None = None
    nu: CircleMeasure | None = None
    group: FiniteGroup | None = None
    psi: GroupState | None = None

    def __post_init__(self) -> None:
        family = _FAMILIES.get(self.family)
        if family is None:
            raise ParameterError(("family",), f"unknown family {self.family!r}")
        unread = [name for name in _PARAMETERS if name not in family.parameters and getattr(self, name) is not None]
        if unread:
            raise ParameterError(tuple(unread), f"not read by the {self.family} family")
        missing = [name for name, default in family.parameters.items()
                   if default is None and getattr(self, name) is None]
        if missing:
            raise ParameterError(tuple(missing), f"required by the {self.family} family")
        if not self.N <= MAX_N:
            raise ParameterError(("N",), f"must be at most 2**53 = {MAX_N}, above which float(N) is not N")
        for name, default in family.parameters.items():
            if default is not None and getattr(self, name) is None:
                object.__setattr__(self, name, default(self))
        for fields, holds, rule in family.rules:
            if not holds(self):
                raise ParameterError(fields, f"the {self.family} family needs {rule}")

    @classmethod
    def unitary(cls, N: int, tau: float, nu: CircleMeasure | None = None) -> "WalkQuery":
        return cls("unitary-free", N, tau=tau, nu=nu)

    @classmethod
    def eval_point(cls, N: int, theta: float) -> "WalkQuery":
        return cls("unitary-eval", N, theta=theta)

    @classmethod
    def mixture(cls, N: int) -> "WalkQuery":
        return cls("mixture", N)

    @classmethod
    def wreath(cls, N: int, tau: float, group: FiniteGroup, psi: GroupState | None = None) -> "WalkQuery":
        return cls("wreath", N, tau=tau, group=group, psi=psi)

    @property
    def cutoff_rate(self) -> float:
        """Denominator of the N ln N / rate cutoff location."""
        return _FAMILIES[self.family].rate(self)


# ---------------------------------------------------------------------------
# thresholds and cutoff locations


def threshold_C(tau: float) -> float:
    """C(tau) = (2 / (tau sqrt 5)) (2 + sqrt(2 + 9 tau^2)); the unitary
    certificate regime is N >= tau + C(tau)."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    return (2.0 / (tau * math.sqrt(5.0))) * (2.0 + math.sqrt(2.0 + 9.0 * tau * tau))


def threshold_D(tau: float) -> float:
    """D(tau) = 2/tau + 2 tau + sqrt(3 tau^2 / 2 + 3); the unitary lower
    bound holds for N >= D(tau)."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    return 2.0 / tau + 2.0 * tau + math.sqrt(1.5 * tau * tau + 3.0)


def threshold_Q(tau: float) -> float:
    """Q(tau) = tau^4/28 + 2 tau^3 - 8 tau^2 + 59 tau - 76; the wreath
    certificate regime is tau > 7/4 and N >= Q(tau) / (4 tau - 7)."""
    if not tau > 7.0 / 4.0:
        raise ValueError("tau must exceed 7/4")
    return tau**4 / 28.0 + 2.0 * tau**3 - 8.0 * tau**2 + 59.0 * tau - 76.0


def wreath_certificate_threshold(tau: float) -> float:
    """Q(tau) / (4 tau - 7)."""
    return threshold_Q(tau) / (4.0 * tau - 7.0)


def nominal_cutoff(q: WalkQuery) -> float:
    """N ln N / rate, the step count around which the walk's distance drops."""
    return q.N * math.log(q.N) / q.cutoff_rate


# ---------------------------------------------------------------------------
# shared tail machinery


# the hypotheses of the composition tail, recorded in this order
_TAIL_KEYS = ("x < 1", "within-degree ratios < 1", "w = S/(1-x) < 1")


def _composition_tail(log_S: np.ndarray, log_x: np.ndarray, M: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(log bound, hypotheses) per row, the bound +inf where a hypothesis
    fails and the hypotheses a (rows, 3) bool array on _TAIL_KEYS: the
    certified bound on sum_{1 <= p <= P} 2 S^p * sum over compositions
    into p parts of degree > M of x^(degree - p), plus the whole p > P
    block.

    Within a fixed p the missing degrees j = degree - p start at
    J = M - p + 1 >= 1, as P <= M (``TruncationConfig`` stores max_p at
    most max_total), and the composition counts C(j+p-1, p-1) grow by
    ratios (j+p)/(j+1), so the block is bounded by its first term times a
    geometric series of ratio rho_p = x (J+p)/(J+1).  Beyond P the full
    per-p sum collapses to w^p with w = S / (1 - x).  Each row runs a
    scalar loop over p, which on one row is about 3x faster than an array
    form.
    """
    log_tail = np.full(log_S.shape, math.inf)
    hyps = np.zeros(log_S.shape + (len(_TAIL_KEYS),), dtype=bool)
    log_pref = math.log(2.0)
    for row, (log_S_row, log_x_row) in enumerate(zip(log_S.tolist(), log_x.tolist())):
        if not log_x_row < 0.0:
            continue
        x = math.exp(log_x_row)
        pieces: list[float] = []
        rho_ok = True
        for p in range(1, P + 1):
            J = M - p + 1
            rho = x * (J + p) / (J + 1)
            if not rho < 1.0:
                rho_ok = False
                break
            pieces.append(
                log_pref
                + p * log_S_row
                + J * log_x_row
                + math.log(math.comb(J + p - 1, p - 1))
                - math.log1p(-rho)
            )
        log_w = log_S_row - log1mexp(log_x_row)
        w_ok = log_w < 0.0
        hyps[row] = True, rho_ok, w_ok
        if rho_ok and w_ok:
            pieces.append(log_pref + (P + 1) * log_w - log1mexp(log_w))
            log_tail[row] = logsumexp(pieces)
    return log_tail, hyps


def _log1mexp_rows(log_r: np.ndarray) -> np.ndarray:
    """log(1 - e^r) for an array of r < 0: expm1 keeps 1 - e^r to a few
    ulps, and where it rounds to 1 the true value is above -1e-16."""
    return np.log(-np.expm1(log_r))


def _resolvent_tail(log_S: np.ndarray, log_x: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """(log bound, ok) per row on the sum over the compositions of degree
    n > D, into any number p of parts, of S^p x^(n - p).

    Degree n has C(n-1, p-1) compositions into p parts, so it sums to
    S (x + S)^(n-1), and the degrees past D to S (x + S)^D / (1 - x - S).
    ``ok`` is the one hypothesis x + S < 1; the bound is +inf where it fails.
    """
    log_r = np.logaddexp(log_x, log_S)
    ok = log_r < 0.0
    safe = np.where(ok, log_r, -1.0)
    return np.where(ok, log_S + D * safe - _log1mexp_rows(safe), math.inf), ok


def _intervals(
    ks: np.ndarray,
    log_partials: np.ndarray,
    terms: int,
    hyps: tuple[tuple[str, bool], ...],
    certificate: str,
    tail_keys: tuple[str, ...],
    tail: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> IntervalGrid:
    """The intervals [partial, partial + tail] at every k, from the walk's
    hypotheses ``hyps``, certificate text and tail closure, which maps an
    array of 2k to the log bound per entry (+inf where it fails) and a
    (entries, keys) bool array of its hypotheses ``tail_keys``.

    ``tail`` runs once, on the rows where k >= 1 and every required (not
    ``[recorded]``) hypothesis holds: its algebra assumes them.
    """
    k_ok = ks >= 1.0
    ran = k_ok if all(ok for name, ok in hyps if "[recorded]" not in name) else np.zeros_like(k_ok)
    count = np.count_nonzero(ran)
    if count == ks.size:
        log_tail, tail_hyps = tail(2.0 * ks)
    else:
        log_tail = np.full(ks.shape, math.inf)
        tail_hyps = np.zeros(ks.shape + (len(tail_keys),), dtype=bool)
        if count:
            log_tail[ran], tail_hyps[ran] = tail(2.0 * ks[ran])
    return IntervalGrid(ks, log_partials, log_tail, log_tail < math.inf, terms, certificate, hyps, k_ok,
                        tail_keys, tail_hyps, ran)


# ---------------------------------------------------------------------------
# the truncated-series primitive, batched over the k grid
#
# Every series term is d^2 |c|^{2k} = exp(a + 2k b), affine in k in the log
# domain, so the engines below carry a leading k axis: one row per grid point.


def _log_power(two_k: np.ndarray, log_abs: np.ndarray) -> np.ndarray:
    """two_k * log_abs, the log of |c|^{2k}, broadcast; 0 where 2k = 0,
    since |c|^0 = 1 even for a vanishing c (log_abs = -inf)."""
    with np.errstate(invalid="ignore"):
        return np.where(two_k == 0.0, 0.0, two_k * log_abs)


def _log_coeff_table(two_k: np.ndarray, log_num: np.ndarray, log_den: np.ndarray) -> np.ndarray:
    """table[i, n] = log den_n^2 |num_n / den_n|^{two_k[i]} for n >= 1, from
    log |num_n| and log den_n (``u_seq`` columns).

    Column 0 is -inf (no index-0 factor).  A vanishing num_n gives -inf,
    except at two_k = 0, where every coefficient power is 1.
    """
    tk = two_k[:, np.newaxis]
    out = np.empty((two_k.size, log_num.size))
    out[:, 0] = -math.inf
    np.subtract(_log_power(tk, log_num[1:]), (tk - 2.0) * log_den[1:], out=out[:, 1:])
    return out


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log of the sum of exp over the last axis; -inf for an all -inf row."""
    hi = x.max(axis=-1, initial=-math.inf)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    # C order: each row is summed along a contiguous axis, so it gives the
    # bits of the same row reduced alone whatever the layout of x
    terms = np.subtract(x, shift[..., np.newaxis], order="C")
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        return shift + np.log(terms.sum(axis=-1))


# Most floats one block of temporaries holds (256 KB): one _row_logsumexp
# term array of the log-domain kernel (a run of degrees times the series
# rows it takes at once), a block of grid rows of an engine pass (with the
# parity path's stop-sum terms), a block of the mixture's block vectors
# with their node products.  _block_len is the one place that turns it
# into a number of items.  At the default truncation a block holds 111
# grid rows of a point-mass pass (_RESOLVENT_FLOATS x 49 floats a row) and
# 13 parity-path rows.  With the polynomial kernel taking every benchmark
# row, a 2-vCPU x86-64 VM timed the parity path at 4096 / 32768 / 131072
# (one fresh process each, in-process cli.main): a 101-point Haar profile
# at N = 30000 42 / 24 / 29 ms (with the stop-sum terms in the block), one
# Haar bound at (12, 1024) 27 / 24 / 23 ms.
_BLOCK_TERMS = 32768


def _block_len(item_floats: int) -> int:
    """How many items of ``item_floats`` floats each one block holds; at
    least one."""
    return max(1, _BLOCK_TERMS // max(item_floats, 1))


def _in_blocks(fn: Callable[..., np.ndarray], item_floats: int, *arrays: np.ndarray) -> np.ndarray:
    """fn over consecutive blocks of the leading axis of ``arrays`` (all of
    one length), _block_len(item_floats) items each, its results joined
    along that axis.  With item_floats the floats that one grid row's
    powers take, an engine pass so holds a few blocks whatever the grid
    size."""
    step, n = _block_len(item_floats), len(arrays[0])
    if n <= step:
        return fn(*arrays)
    return np.concatenate([fn(*(a[i : i + step] for a in arrays)) for i in range(0, n, step)])


def _toeplitz(b: np.ndarray, pad: float) -> np.ndarray:
    """The (K, W, W) strided view t[r, e, i] = b[r, W - 1 - e - i] of the
    (K, W) series ``b``, ``pad`` where that index is negative, with no W^2
    copy: row e of t[r] holds the factors of b for degree d = W - 1 - e."""
    K, w = b.shape
    rev = np.empty((K, 2 * w - 1))
    rev[:, :w] = b[:, ::-1]
    rev[:, w:] = pad
    row, item = rev.strides
    return np.ndarray((K, w, w), buffer=rev, strides=(row, item, item))


def _log_round(a: np.ndarray, t: np.ndarray, start: int = 0) -> np.ndarray:
    """out[j, :, e] = log sum_{i < I, i <= d} exp(a[j, :, i] + b[:, d - i]),
    d = start + e, for the (m, K, I) stacked log series ``a`` and the
    (K, E, I) block t = _toeplitz(b, -inf)[:, W - start - E : W - start, :I]
    of a (K, W) log series b: its rows for the degrees start to
    start + E - 1.  With start = 0 and I = E = W that is the truncated
    product; with start >= I - 1 the block reads no pad.

    The output degrees go in runs [lo, hi) of at most max(8, lo // 4)
    degrees, each the first min(I, hi) coefficients of ``a`` plus the
    view's block for those degrees, so from degree 32 on at most a tenth
    of a run's block lies above the diagonal, in the -inf pad (numpy's exp
    of -inf took about five times a finite one on x86-64).  Each run goes
    over blocks of series rows, so no temporary holds more than one
    _BLOCK_TERMS block, or one row and one degree if that is larger.  Each
    coefficient is a ``_row_logsumexp`` of its row alone, so it does not
    depend on the rows stacked with it.
    """
    m, K, inputs = a.shape
    w = start + t.shape[1]
    out = np.empty((m, K, t.shape[1]))
    lo = start
    while lo < w:
        # r degrees from lo take at most r (lo + r) floats a row
        fit = (math.isqrt(lo * lo + 4 * _BLOCK_TERMS) - lo) // 2
        hi = min(w, lo + max(1, min(max(8, lo // 4), fit)))
        n = min(inputs, hi)
        rows = _block_len((hi - lo) * n)
        powers, grid = max(1, rows // K), min(rows, K)
        for j in range(0, m, powers):
            for r in range(0, K, grid):
                terms = a[j : j + powers, r : r + grid, np.newaxis, :n] + t[r : r + grid, w - hi : w - lo, :n]
                out[j : j + powers, r : r + grid, lo - start : hi - start] = _row_logsumexp(terms)[..., ::-1]
        lo = hi
    return out


def _poly_round(a: np.ndarray, t: np.ndarray, start: int = 0) -> np.ndarray:
    """``_log_round``'s forms as plain products of non-negative series,
    out[j, :, e] = sum_{i < I, i <= d} a[j, :, i] b[:, d - i], d = start + e.
    The block ``t`` fixes the degrees; ``start``, by which the log kernel
    skips its -inf pad, is not read.

    One ``np.einsum``: no BLAS, so no thread count changes a digit.  Each
    coefficient is one dot product over i in the same order whatever m and
    K, so a row's result does not depend on the rows stacked with it.
    """
    return np.einsum("rei,jri->jre", t, a)[..., ::-1]


def _powers(first: np.ndarray, P: int, product: Callable[[np.ndarray, np.ndarray], np.ndarray],
            unit: float, zero: float) -> np.ndarray:
    """first^0 .. first^(P-1), each cut at the width W of the (K, W) series
    ``first``, in the domain of ``product``, whose 1 and 0 are ``unit`` and
    ``zero``; shape (P, K, W).

    By doubling: round n forms out[n + j] = out[j] out[n] for every
    1 <= j <= n with n + j < P in one stacked ``product`` call, so P powers
    take about log2 P rounds.
    """
    out = np.full((P,) + first.shape, zero)
    out[0, :, 0] = unit
    if P > 1:
        out[1] = first
    n = 1
    while n + 1 < P:
        m = min(n, P - 1 - n)
        out[n + 1 : n + m + 1] = product(out[1 : m + 1], _toeplitz(out[n], zero))
        n *= 2
    return out


# A row whose residuals r_n = step_n - a - s n lie in [-Delta, 0] for some
# slope s and offset a multiplies as a plain polynomial in e^{r_n} when
# (P - 1) Delta <= _LINEAR_RANGE: every product of at most P - 1 factors is
# then at least e^{-64} (about 1.6e-28), and every coefficient at most its
# number of compositions, below 1e143 at (MAX_P, MAX_TOTAL), so all stay
# normal floats, and a sum of positive terms carries only rounding error.
_LINEAR_RANGE = 64.0


def _round_bits(x: np.ndarray, up: bool) -> np.ndarray:
    """x rounded to 24 significant bits, towards +inf if ``up``."""
    mant, exp = np.frexp(x)
    return np.ldexp((np.ceil if up else np.round)(mant * 2.0**24), exp - 24)


def _affine_tilt(step: np.ndarray, factors: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s, a, residual, linear) for the (K, W) log series ``step``.

    Per row, s is the slope of the chord through the first and last finite
    entries and a the largest of step_n - s n, both rounded to 24
    significant bits (a upwards), so that p a and s d are exact for the
    powers and degrees of a truncation and residual = step - a - s n is
    <= 0.  ``linear`` marks the rows where ``factors`` times the range of
    the residual is at most _LINEAR_RANGE; an all -inf row is linear, with
    s = a = 0.
    """
    K, w = step.shape
    finite = np.isfinite(step)
    some = finite.any(axis=1)
    first = finite.argmax(axis=1)
    last = np.where(some, w - 1 - finite[:, ::-1].argmax(axis=1), first)
    rows = np.arange(K)
    with np.errstate(invalid="ignore", over="ignore"):
        chord = (step[rows, last] - step[rows, first]) / np.maximum(last - first, 1)
        s = _round_bits(np.where(last > first, chord, 0.0), up=False)
        tilted = step - s[:, np.newaxis] * np.arange(w)
        a = _round_bits(np.where(some, tilted.max(axis=1), 0.0), up=True)
        residual = tilted - a[:, np.newaxis]
        depth = -np.where(finite, residual, 0.0).min(axis=1)
        linear = factors * depth <= _LINEAR_RANGE
    return s, a, residual, linear


def _split_rows(shape: tuple[int, ...], linear: np.ndarray, tilted: Callable[[np.ndarray | slice], np.ndarray],
                logs: Callable[[np.ndarray | slice], np.ndarray]) -> np.ndarray:
    """An array of ``shape`` (..., K, W) holding ``tilted`` of the grid rows
    that ``linear`` marks and ``logs`` of the others, each kernel called
    once, on a row mask or, when it takes every row, on slice(None)."""
    if linear.all():
        return tilted(slice(None))
    if not linear.any():
        return logs(slice(None))
    out = np.empty(shape)
    out[..., linear, :] = tilted(linear)
    out[..., ~linear, :] = logs(~linear)
    return out


def _log_conv_powers(step: np.ndarray, P: int) -> np.ndarray:
    """out[i] = log step(z)^i up to the degree of ``step``, for i < P;
    shape (P,) + step.shape.

    ``step`` is a (K, W) log-coefficient array.  The powers are built by
    doubling (``_powers``), with the kernel chosen per row.  A row that
    ``_affine_tilt`` finds nearly affine, as the series terms are near the
    cutoff, multiplies its tilted coefficients e^{residual} as plain
    polynomials (``_poly_round``), and out = log(coefficient) + p a + s d.
    The other rows (k near MAX_K, t near 2, very large N) stay in the log
    domain (``_log_round``); ``_split_rows`` joins the two.  Both kernels
    read the factor through one ``_toeplitz`` view, padded with the zero of
    their domain.
    """
    s, a, residual, linear = _affine_tilt(step, P - 1)

    def tilted(rows: np.ndarray | slice) -> np.ndarray:
        out = _powers(np.exp(residual[rows]), P, _poly_round, 1.0, 0.0)
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out += np.arange(P)[:, np.newaxis, np.newaxis] * a[rows, np.newaxis]
        out += s[rows, np.newaxis] * np.arange(step.shape[1])
        return out

    return _split_rows((P,) + step.shape, linear, tilted,
                       lambda rows: _powers(step[rows], P, _log_round, 0.0, -math.inf))


# Floats per series entry that a grid row of a ``_log_resolvent`` call
# holds at once, for ``_in_blocks``: the resolvent and its weighted copy,
# the padded reversal of H (two series), and a step's block and product
# (at most half a series each) with the block's padded reversal.
_RESOLVENT_FLOATS = 6


def _resolvent_steps(h: np.ndarray, kernel: Callable[..., np.ndarray], unit: float, zero: float,
                     weigh: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The (K, W) series Q = H (1 + c Q), in the domain of ``kernel``
    (``_poly_round`` or ``_log_round``), whose 1 and 0 are ``unit`` and
    ``zero``, from the (K, W) series H = ``h`` with H_0 = 0 and ``weigh``,
    which maps coefficients of Q to those of c Q.

    By degree doubling: with R' = 1 + c Q known below degree n and
    m = min(2n, W), the dense block A = [z^{n..m-1}] H R' (every factor
    already known, read from one ``_toeplitz`` view of H) gives
    Q_high = A / (1 - c H) = A R' mod z^(m - n), a triangle.  So degrees
    n..m-1 take two positive products, and W degrees about 2 log2 W kernel
    calls and W^2 / 2 multiply-adds.  Q_0 = H_0 and Q_1 = H_1 start it.
    """
    w = h.shape[1]
    th = _toeplitz(h, zero)
    q = h.copy()
    r = np.empty_like(h)
    r[:, 0] = unit
    r[:, 1:2] = weigh(q[:, 1:2])
    n = 2
    while n < w:
        m = min(2 * n, w)
        block = kernel(r[np.newaxis, :, :n], th[:, w - m : w - n, :n], n)[0]
        q[:, n:m] = kernel(r[np.newaxis, :, : m - n], _toeplitz(block, zero))[0]
        r[:, n:m] = weigh(q[:, n:m])
        n = m
    return q


def _log_resolvent(step: np.ndarray) -> np.ndarray:
    """out[:, d] = log [z^d] G / (1 - G) for d < W, where G is the (K, W)
    log series ``step`` with G_0 = 0 (column 0 -inf): the sum of G^p over
    every p >= 1, of which only p < W reach degree W - 1.

    R = G / (1 - G) solves R = G (1 + R), which ``_resolvent_steps`` takes
    by degree doubling with c = 1: ceil(log2 W) - 1 steps (W >= 2) of two
    positive products, and no subtraction.  A row that ``_affine_tilt``
    finds nearly affine for W - 1 factors, with no vanishing coefficient,
    runs ``_poly_round`` on its series taken off the line: with c = e^a and
    L = log(1 + c), the coefficient of degree n becomes
    F_n = e^{residual_n} c (1+c)^{-n}, and the steps carry H = F / c' and
    Q = R / c', c' = e^{min(a, 0)}, through Q = H (1 + c' Q).  A product of
    p <= W - 1 factors F keeps its residual within e^{-64}, and every
    coefficient of Q, and so of every block and product, lies between
    e^{-64} / 2 and 1, since the compositions of degree d into p parts
    weigh c^p (1+c)^{-d} and number C(d-1, p-1); a c' that underflows to 0
    leaves Q = H, which is R / c' to within a factor 1 + c'.
    out = log Q + min(a, 0) + (s + L) d.  Each exponent
    residual_n + max(a, 0) - L n carries a few ulps of rounding, and a term
    that stays above e^{-745} has exponents summing to more than -745, so
    it moves by under about 3e-13.  Every sum is of positive terms, and the
    steps behind a coefficient of degree d chain dot products of fewer than
    4d terms in all, so their rounding adds at most about 4d u, u = 2^-53
    (under 2e-12 at MAX_TOTAL).  The other rows run the same steps on the
    logs with ``_log_round``, and ``_split_rows`` joins the two.  Each
    kernel computes a row's coefficients alone, so they do not depend on
    the rows stacked with it.
    """
    w = step.shape[1]
    s, a, residual, linear = _affine_tilt(step, w - 1)
    linear &= np.isfinite(step[:, 1:]).all(axis=1)

    def tilted(rows: np.ndarray | slice) -> np.ndarray:
        a_rows = a[rows, np.newaxis]
        lead, L, n = np.minimum(a_rows, 0.0), np.logaddexp(0.0, a_rows), np.arange(w)
        # exponents <= 0 from n = 1 on, as L >= max(a, 0); -inf at n = 0
        h = np.exp(residual[rows] + (np.maximum(a_rows, 0.0) - L * n))
        c = np.exp(lead)
        out = _resolvent_steps(h, _poly_round, 1.0, 0.0, lambda q: q * c)
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out += lead + (s[rows, np.newaxis] + L) * n
        return out

    return _split_rows(step.shape, linear, tilted,
                       lambda rows: _resolvent_steps(step[rows], _log_round, 0.0, -math.inf, lambda q: q))


# ---------------------------------------------------------------------------
# unitary family


def _winding_exponents(T: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """|e| for the winding exponent e = T + [sigma > 0] of the eps0 = +1
    word, T the sum of its signs eps_1 .. eps_{p-1} and sigma = eps_p its
    last, so |e| <= p.  The eps0 = -1 word, its conjugate, flips every sign:
    exponent -1 - T + [sigma < 0] = -e, the same dimension, |m_{-e}| = |m_e|."""
    return np.abs(T + (sigma > 0))


@dataclass(frozen=True)
class _ParityClasses:
    """The words of at most P blocks, grouped by their parity sequence, as
    one dense table with a row per (a, b) pair.

    Odd blocks keep the sign and even blocks flip it, the first sign being
    + for an odd block and - for an even one, and T is the sum of the signs
    before the last block.  So the last sign sigma = (-1)^b and T depend
    only on the parities: C(a, b, T) counts the parity sequences with a odd
    and b even blocks that end at T.  The rows are the pairs in
    (L = a + b, a) order.  A word of L blocks has T = 2j - (L - 1) with
    0 <= j < L, and column j of its row holds that T; the columns j >= L,
    and every class with C = 0, hold log C = -inf.
    """

    log_count: np.ndarray  # (pairs, P): log C per slot
    stop: np.ndarray  # (pairs, P): |e| of each slot (``_winding_exponents``)
    pair_a: np.ndarray  # a of each pair
    pair_b: np.ndarray  # b of each pair


@functools.lru_cache(maxsize=None)
def _parity_classes(P: int) -> _ParityClasses:
    """The parity classes of the words of at most P blocks, built once per
    P by a dynamic program over the word length L and shared, hence
    read-only."""
    width, off = 2 * P - 1, P - 1
    # the pairs (a, L - a), 0 <= a <= L <= P, in (L, a) order
    lengths = np.repeat(np.arange(1, P + 1), np.arange(2, P + 2))
    a = np.arange(lengths.size) - (lengths - 1) * (lengths + 2) // 2
    log_count = np.full((lengths.size, P), -math.inf)
    stop = np.zeros((lengths.size, P), dtype=np.intp)
    # count[a, T + off] for the words of length L, which have b = L - a
    count = np.zeros((P + 1, width))
    count[0, off] = count[1, off] = 1.0
    for L in range(1, P + 1):
        if L > 1:
            # the sign before the new block moves T: + for even b = L - 1 - a
            plus = (L - 1) % 2
            moved = np.zeros_like(count)
            moved[plus::2, 1:] = count[plus::2, :-1]
            moved[1 - plus :: 2, :-1] = count[1 - plus :: 2, 1:]
            count = moved.copy()  # an even block: a stays
            count[1:] += moved[:-1]  # an odd block: a + 1
        # column j holds T = 2j - (L - 1), and the last sign is sigma = (-1)^b
        rows = lengths == L
        with np.errstate(divide="ignore"):
            log_count[rows, :L] = np.log(count[: L + 1, off - (L - 1) : off + L : 2])
        stop[rows, :L] = _winding_exponents(np.arange(-(L - 1), L, 2), (-1) ** (L - a[rows, np.newaxis]))
    classes = _ParityClasses(log_count, stop, a, lengths - a)
    for arr in vars(classes).values():
        arr.flags.writeable = False
    return classes


def _parity_log_partials(g: np.ndarray, log_abs_m: np.ndarray, two_k: np.ndarray, M: int, P: int) -> np.ndarray:
    """Partial sum for a general nu at every row of ``g``, by parity class.

    ``g`` holds the (K, M+1) per-block log coefficients at the K values
    ``two_k`` of 2k, and ``log_abs_m[e]`` is log |m_e(nu)| for 0 <= e <= P.
    A word and its conjugate, of leading signs eps0 = +1 and -1, both weigh
    |m_e|^{2k}, with |e| fixed by their parity class (a, b, T), and the
    blocks of a class sum to S(a, b) = [z^{<= M}] O(z)^a E(z)^b, with O and
    E the odd and even blocks of g.  So the partial is the sum over classes
    of 2 C S(a, b) |m_e|^{2k}.
    """
    pc = _parity_classes(P)

    def block(g: np.ndarray, two_k: np.ndarray) -> np.ndarray:
        n = g.shape[0]
        logm = _log_power(two_k[:, np.newaxis], log_abs_m)
        logm += math.log(2.0)
        # per pair, log sum over its classes of 2 C |m_e|^{2k}
        terms = logm[:, pc.stop]
        terms += pc.log_count
        stop_sums = _row_logsumexp(terms)

        # O and E as the 2n rows of one series; pows[p, :n] = O^p, pows[p, n:] = E^p, p <= P
        oe = np.full((2 * n, M + 1), -math.inf)
        oe[:n, 1::2] = g[:, 1::2]
        oe[n:, 2::2] = g[:, 2::2]
        pows = _log_conv_powers(oe, P + 1)
        # even_rev[b, :, j] = log [z^{<= M - j}] E^b
        even_rev = np.logaddexp.accumulate(pows[:, n:], axis=2)[:, :, ::-1]
        # S(a, b) = sum_j [z^j] O^a [z^{<= M - j}] E^b, pairs in (L, a) order
        log_s = _in_blocks(
            lambda a, b: _row_logsumexp(pows[a, :n] + even_rev[b]), n * (M + 1), pc.pair_a, pc.pair_b
        )
        return _row_logsumexp(log_s.T + stop_sums)

    # a grid row takes 2 (P + 1) (M + 1) floats of stacked odd and even
    # powers and pairs * P of stop-sum terms
    return _in_blocks(block, 2 * (P + 1) * (M + 1) + pc.log_count.size, g, two_k)


def _unitary_intervals(q: WalkQuery, ks: np.ndarray, tc: TruncationConfig) -> IntervalGrid:
    """Series intervals of a unitary-family walk at every k in ``ks``.

    Every excluded word is majorized by 2 S^p x^{total - p} with

        x = q(N)^{2k-2} / q(N-tau)^{2k},
        S = N^{-(2k-2)} q(N-tau)^{-2k} (1 - q(N-tau)^2)^{-2k},

    which follow from the envelope bounds on u_n and |m_eps| <= 1.

    When nu is a point mass of weight w, |m_eps(nu)| = w for every eps, so
    both stop options of a word weigh w^{2k} whatever its winding state,
    and the partial over the words of index total <= max_total, of every
    block count, is log 2 + 2k log w + log [z^{<= M}] G / (1 - G): one
    ``_log_resolvent`` pass for the whole grid, max_p unread.  The
    excluded words, of total n > M, sum to at most 2 S (x + S)^M /
    (1 - x - S) (``_resolvent_tail``), certified when x + S < 1.

    Any other nu sums the words of at most max_p blocks by parity class
    (``_parity_log_partials``), also in one pass for the whole grid, from
    the powers of the odd and even blocks of G and the moments m_e(nu),
    0 <= e <= max_p (a word and its conjugate weigh the same), and its tail
    is the composition tail.
    """
    if q.theta is not None:
        t, nu = eval_state_params(q.N, q.theta)
    else:
        assert q.tau is not None and q.nu is not None
        t, nu = float(q.N) - q.tau, q.nu
    N = q.N
    M, P = tc.max_total, tc.max_p
    two_k = 2.0 * ks

    # |u_n(t)| ratios; t <= 2 is allowed for the partial (values may vanish)
    g = _log_coeff_table(two_k, u_seq(t, M), u_seq(float(N), M))

    hyps = (
        ("N - tau > 2", t > 2.0 + _Q_DOMAIN_EPS),
        ("N >= tau + C(tau) [recorded]", N >= (N - t) + threshold_C(N - t) if N - t > 0 else True),
    )
    text = (
        "per-word majorant 2 S^p x^(total-p) from the envelope bounds "
        "t q^{-(n-1)} <= u_n <= q^{-n}/(1-q^2) and |m_eps| <= 1; "
    )

    def majorant(two_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (log S, log x) at each 2k
        log_qN = math.log(q_of(float(N)))
        qt = q_of(t)
        steps, t_part = two_k - 2.0, two_k * math.log(qt)
        log_x = steps * log_qN - t_part
        log_S = steps * -math.log(float(N)) - t_part - two_k * math.log1p(-qt * qt)
        return log_S, log_x

    weight = nu.point_mass_weight()
    if weight is not None:

        def resolvent_sums(g: np.ndarray) -> np.ndarray:
            return _row_logsumexp(_log_resolvent(g))

        block_sums = _in_blocks(resolvent_sums, _RESOLVENT_FLOATS * (M + 1), g)
        log_partials = math.log(2.0) + two_k * math.log(weight) + block_sums

        def tail(two_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            log_tail, ok = _resolvent_tail(*majorant(two_k), M)
            return math.log(2.0) + log_tail, ok[:, np.newaxis]

        text += "words of every block count summed; total > max_total by 2 S (x+S)^max_total / (1-x-S)"
        return _intervals(ks, log_partials, count_unitary(M, M), hyps, text, ("x + S < 1",), tail)

    log_abs_m = np.full(P + 1, -math.inf)
    for e in range(P + 1):
        m = abs(moment(nu, e))
        if m > 0.0:
            log_abs_m[e] = math.log(m)
    log_partials = _parity_log_partials(g, log_abs_m, two_k, M, P)
    text += (
        "within-degree blocks bounded by first term times geometric ratio, "
        "p > max_p blocks by the closed geometric sum"
    )
    return _intervals(ks, log_partials, count_unitary(M, P), hyps, text, _TAIL_KEYS,
                      lambda two_k: _composition_tail(*majorant(two_k), M, P))


# ---------------------------------------------------------------------------
# mixture family


def _mixture_intervals(q: WalkQuery, ks: np.ndarray, tc: TruncationConfig) -> IntervalGrid:
    """Series intervals of the uniform (Porod) mixture of evaluation states
    at every k in ``ks``.

    Per word, the coefficient is the Porod average of e^{i eps beta(theta)}
    prod_i u_{n_i}(t_theta)/u_{n_i}(N), t_theta e^{i beta} = N - 1 + e^{i theta}:
    the word's character at diag(e^{i theta}, 1, ..., 1) over its dimension,
    a trigonometric polynomial of degree <= (sum n_i + |eps|) / 2, with |eps|
    at most the number of odd blocks.  So ``porod_rule`` of degree
    D = (max_total + max_p) // 2, on L = 2D + 1 nodes, averages every word
    exactly, once for the whole grid.

    The words go in array passes, one per block count p, over blocks of the
    block vectors (``_compositions``, lexicographic order) so that memory
    does not grow with the words times L: the node products wq R[n_1] ...
    R[n_p], multiplied in block order, the log dims summed in the same
    order, the eps0 = +1 word's |e| from a parity cumprod, and its average
    against row |e| of a table of cos(e beta), 0 <= e <= P, from one
    ``np.einsum`` (no BLAS, so no thread count moves a digit, and each
    average is one sum over the nodes whatever the block).  The Porod law
    is symmetric and beta odd, so each average is real and the conjugate
    eps0 = -1 word, of exponent -e, has the same: each k sums d^2 |c|^{2k}
    over the eps0 = +1 words with one ``_row_logsumexp`` per grid row and
    adds log 2.  Truncations above MAX_MIXTURE_WORDS words or
    MAX_MIXTURE_TABLE ratio-table entries raise ParameterError before any
    work.

    The tail certificate holds for the Jensen-majorized series via the
    per-word bound 2 S^p x^(total - p) with

        S = (a_N b_N)^{2k} N^{-(2k-2)} (1 - q(N-2)^2)^{-2k},
        x = (a_N b_N)^{2k} q(N)^{2k-2},
        a_N = N - 2 + 2/N,   b_N = e^{4/(N-2)^2},

    combining |integral|^{2k} <= integral of |.|^{2k} (k >= 1/2), the
    deficit-to-rate comparison u_n(N-tau_theta) <= b_N^n u_n(N-lambda_theta),
    the envelope bounds, and the moment bound E[(N-lambda)^alpha] <= a_N^alpha.
    """
    N = q.N
    M, P = tc.max_total, tc.max_p
    terms = count_unitary(M, P)
    D = (M + P) // 2
    L = 2 * D + 1
    entries = (M + 1) * L
    if terms > MAX_MIXTURE_WORDS or entries > MAX_MIXTURE_TABLE:
        raise ParameterError(("max_p", "max_total"), f"the mixture truncation ({P}, {M}) has {terms} words and a "
                             f"ratio table of {entries} entries, limits {MAX_MIXTURE_WORDS} and {MAX_MIXTURE_TABLE}")

    theta, wq = porod_rule(N, D)
    tvec = np.array([trace_modulus(N, th) for th in theta])  # = N - tau_theta >= N - 2
    beta = np.array([arg_trace(N, th) for th in theta])

    log_u_N = u_seq(float(N), M)
    # per-node ratio factors u_n(t_theta)/u_n(N), kept as plain floats (<= 1)
    R = u_seq(tvec, M)
    R -= log_u_N[:, np.newaxis]
    np.exp(R, out=R)
    # cos e beta for the exponents 0 <= e <= P of an eps0 = +1 word: row e
    cos = np.cos(np.arange(P + 1)[:, np.newaxis] * beta)

    def word_terms(vectors: np.ndarray) -> np.ndarray:
        # per block vector: 2 log dim and the log |coefficient| of its
        # eps0 = +1 word (-inf where it vanishes)
        prod = wq * R[vectors[:, 0]]
        log_dim = log_u_N[vectors[:, 0]]
        for j in range(1, vectors.shape[1]):
            prod *= R[vectors[:, j]]
            log_dim = log_dim + log_u_N[vectors[:, j]]
        # the signs eps_1 .. eps_p of eps0 = +1
        sign = np.where(vectors % 2 == 1, 1, -1).cumprod(axis=1)
        e = _winding_exponents(sign[:, :-1].sum(axis=1), sign[:, -1])
        # no BLAS: each average is one sum over the nodes whatever the block
        with np.errstate(divide="ignore"):
            log_mod = np.log(np.abs(np.einsum("bl,bl->b", prod, cos[e])))
        return np.column_stack([2.0 * log_dim, log_mod])

    # one eps0 = +1 word per block vector, p blocks in lexicographic order
    per_vector = np.concatenate([_in_blocks(word_terms, 2 * L, _compositions(M, p)) for p in range(1, P + 1)])
    dims, mods = per_vector[:, 0], per_vector[:, 1]

    def sums(two_k: np.ndarray) -> np.ndarray:
        return _row_logsumexp(dims + _log_power(two_k[:, np.newaxis], mods))

    log_partials = math.log(2.0) + _in_blocks(sums, dims.size, 2.0 * ks)

    hyps = (("N >= 12", N >= 12),)
    text = (
        "Jensen-majorized series: per-word bound 2 S^p x^(total-p) with "
        "S, x built from a_N = N-2+2/N, b_N = e^{4/(N-2)^2}, the envelope "
        "bounds at N - lambda, and the moment bound E[(N-lambda)^alpha] <= a_N^alpha"
    )

    def tail(two_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_N = N - 2.0 + 2.0 / N
        log_ab = math.log(a_N) + 4.0 / ((N - 2.0) * (N - 2.0))
        q2 = q_of(N - 2.0)
        log_S = two_k * log_ab - (two_k - 2.0) * math.log(float(N)) - two_k * math.log1p(-q2 * q2)
        log_x = two_k * log_ab + (two_k - 2.0) * math.log(q_of(float(N)))
        return _composition_tail(log_S, log_x, M, P)

    return _intervals(ks, log_partials, terms, hyps, text, _TAIL_KEYS, tail)


# ---------------------------------------------------------------------------
# wreath family


def _wreath_intervals(q: WalkQuery, ks: np.ndarray, tc: TruncationConfig) -> IntervalGrid:
    """Series intervals of a wreath walk at every k in ``ks``.

    Words have p group labels and p+1 character indices (even for p = 0, odd
    ends with even interiors for p >= 1).  The gamma sums factor as
    sum |psi(g_1 ... g_p)| = m^{p-1} K(psi), and each label costs one factor
    m and one unit of index budget, so the words of index total <= M with
    p >= 1, of every label count, sum to K(psi) [z^{<= (M - 2) // 2}]
    E(z)^2 / (1 - X(z)), X = m z I, with E and I the odd-end and
    even-interior factor sequences: E^2 from one convolution power and
    1 / (1 - X) from one ``_log_resolvent`` pass, for the whole grid.  So
    the engine does not read max_p: no truncation limits the label count.

    The tail certificate majorizes every excluded word by Z^{p+1}
    y^{sum n / 2 - p - 1} (p >= 1; Z y^{n_0 / 2 - 1} for p = 0) with

        B = q(sqrt N)^{2k-2} / q(t')^{2k},   y = B^2,
        Z = q(sqrt N)^{2k-2} (sqrt N)^{-(2k-2)} q(t')^{-4k} (1 - q(t')^2)^{-2k},

    t' = sqrt(N - tau), since each factor is at most Z B^{n-2}, and the
    group labels contribute m^{p-1} K(psi).  Read the halved outer indices,
    (n + 1) / 2 at the ends and n / 2 inside, as the p + 1 parts of a
    composition of degree D = sum n / 2 + 1.  A p >= 1 word then weighs
    (K / (m^2 y)) S^{p+1} x^{D - (p+1)} with x = y and S = m Z, and it lies
    outside the truncation exactly when D > M // 2 + 1 =: D0.  The
    compositions of degree D of two or more parts sum to
    S ((x + S)^{D-1} - x^{D-1}), so the excluded words sum to at most
    (K / (m^2 y)) S ((x + S)^D0 / (1 - x - S) - x^D0 / (1 - x))
    (``_resolvent_tail`` less the one-part compositions), certified when
    y + m Z < 1.  The excluded p = 0 words add Z y^{M // 2} / (1 - y).
    """
    assert q.tau is not None and q.group is not None and q.psi is not None
    N, tau = q.N, q.tau
    M = tc.max_total
    log_m, log_K = math.log(q.group.order), math.log(q.psi.abs_sum())
    two_k = 2.0 * ks
    f = _log_coeff_table(two_k, u_seq(math.sqrt(float(N) - tau), M), u_seq(math.sqrt(float(N)), M))

    # p = 0: single characters with even indices
    cols = [f[:, 2 : M + 1 : 2]]
    top = (M - 2) // 2
    if top >= 0:

        def block_sums(f: np.ndarray) -> np.ndarray:
            ends = f[:, 1 : 2 * top + 2 : 2]
            # X[0] = -inf, X[n] = log m + I[n - 1] = log m + f[2n]
            x = np.full(ends.shape, -math.inf)
            x[:, 1:] = log_m + f[:, 2 : 2 * top + 1 : 2]
            # e2_rev[:, d] = log [z^{<= top - d}] E^2
            e2_rev = np.logaddexp.accumulate(_log_conv_powers(ends, 3)[2], axis=1)[:, ::-1]
            # log [z^d] 1 / (1 - X) = log [z^d] (1 + X / (1 - X))
            resolvent = _log_resolvent(x)
            resolvent[:, 0] = 0.0
            # K(psi) >= 1 always since psi(identity) = 1
            return _row_logsumexp(resolvent + e2_rev)[:, np.newaxis] + log_K

        # a grid row's series: E^0 .. E^2, or the resolvent's
        cols.append(_in_blocks(block_sums, _RESOLVENT_FLOATS * (top + 1), f))
    log_partials = _row_logsumexp(np.hstack(cols))

    tau_ok = tau > 7.0 / 4.0
    hyps = (
        ("N - tau > 4", float(N) - tau > 4.0 + _Q_DOMAIN_EPS),
        ("tau > 7/4", tau_ok),
        ("N >= Q(tau)/(4 tau - 7)", tau_ok and N >= wreath_certificate_threshold(tau)),
    )
    text = (
        "per-word majorant Z^{p+1} y^(sum n/2 - p - 1) (Z y^{n_0/2 - 1} for p = 0) "
        "from the envelope bounds at sqrt(N) and sqrt(N - tau); group labels "
        "contribute m^{p-1} K(psi); words of every label count summed; p >= 1 "
        "words as compositions of p + 1 parts with x = y and S = m Z, "
        "past index total max_total by (K/(m^2 y)) S ((x+S)^D/(1-x-S) - x^D/(1-x)), D = max_total//2+1"
    )

    def tail(two_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = math.sqrt(float(N))
        qp = q_of(math.sqrt(float(N) - tau))
        log_qs = math.log(q_of(s))
        log_qp = math.log(qp)
        log_y = 2.0 * ((two_k - 2.0) * log_qs - two_k * log_qp)
        log_Z = (two_k - 2.0) * (log_qs - math.log(s)) - 2.0 * two_k * log_qp - two_k * math.log1p(-qp * qp)
        log_S, D = log_m + log_Z, M // 2 + 1
        log_parts, ok = _resolvent_tail(log_S, log_y, D)
        # ok gives y < 1, which the one-part compositions and the p = 0
        # words need
        log_y = np.where(ok, log_y, -1.0)
        log_1my = _log1mexp_rows(log_y)
        # the compositions of one part, S x^(n-1) at each degree n, are no
        # words; as S >= m x for k >= 1 they are at most half of the parts
        log_one = log_S + D * log_y - log_1my
        log_words = log_parts + _log1mexp_rows(np.where(ok, log_one - log_parts, -1.0))
        single = log_Z + (M // 2) * log_y - log_1my
        log_tail = np.logaddexp(log_K - 2.0 * log_m - log_y + log_words, single)
        return np.where(ok, log_tail, math.inf), ok[:, np.newaxis]

    return _intervals(ks, log_partials, count_wreath(q.group, M), hyps, text, ("y + m Z < 1",), tail)


# ---------------------------------------------------------------------------
# the one engine entry


# the WalkQuery fields that only some families read
_PARAMETERS = ("tau", "theta", "nu", "group", "psi")


@dataclass(frozen=True)
class _Family:
    """Everything that differs between the walk families: the engine and
    its default truncation; the Chebyshev witness of the lower bound, as
    (variance bound, Haar expectation of the squared witness) and its walk
    expectation after k steps; the cutoff rate; the parameters the family reads,
    each with its default (None if required); and the rules on N and those
    parameters, as (fields, test, rule text).  Unitary and wreath use the
    degree-2 character chi_2, whose Haar law lies in [-1, 3]; the mixture
    uses the real degree-1 witness chi_u + chi_ū, semicircular on
    [-2 sqrt 2, 2 sqrt 2] under Haar.  Neither Haar range bounds the
    witness in a walk state, so the variance bounds 9 and 4 are taken as
    given, not derived."""

    engine: Callable[[WalkQuery, np.ndarray, TruncationConfig], IntervalGrid]
    truncation: TruncationConfig
    witness: tuple[float, float]
    expectation: Callable[[WalkQuery, np.ndarray], np.ndarray]
    rate: Callable[[WalkQuery], float]
    parameters: dict[str, Callable[[WalkQuery], object] | None]
    rules: tuple[tuple[tuple[str, ...], Callable[[WalkQuery], bool], str], ...]


_FAMILIES = {
    "unitary-free": _Family(
        _unitary_intervals,
        DEFAULT_TRUNCATION,
        (9.0, 1.0),
        lambda q, k: chi2_expectation_unitary(q.N, q.tau, k),
        lambda q: q.tau,
        {"tau": None, "nu": lambda q: CircleMeasure.delta(0.0)},
        ((("N",), lambda q: q.N >= 3, "N >= 3"),
         (("tau",), lambda q: 0.0 < q.tau <= q.N, "0 < tau <= N")),
    ),
    "unitary-eval": _Family(
        _unitary_intervals,
        DEFAULT_TRUNCATION,
        (9.0, 1.0),
        lambda q, k: chi2_expectation_unitary(q.N, tau_theta(q.N, q.theta), k),
        lambda q: lambda_theta(q.theta),
        {"theta": None},
        ((("N",), lambda q: q.N >= 3, "N >= 3"),
         (("theta",), lambda q: math.isfinite(q.theta) and lambda_theta(q.theta) > 0.0,
          "a finite theta with 1 - cos(theta) > 0")),
    ),
    "mixture": _Family(
        _mixture_intervals,
        MIXTURE_DEFAULT_TRUNCATION,
        (4.0, 2.0),
        lambda q, k: chi_expectation_mixture(q.N, k),
        lambda q: 2.0,
        {},
        ((("N",), lambda q: q.N >= 6, "N >= 6"),),
    ),
    "wreath": _Family(
        _wreath_intervals,
        DEFAULT_TRUNCATION,
        (9.0, 1.0),
        lambda q, k: chi2_expectation_wreath(q.N, q.tau, k),
        lambda q: q.tau,
        {"tau": None, "group": None, "psi": lambda q: trivial_state(q.group)},
        ((("N",), lambda q: q.N >= 5, "N >= 5 (sqrt N > 2)"),
         (("tau",), lambda q: 0.0 < q.tau < q.N, "0 < tau < N"),
         (("group", "psi"), lambda q: q.psi.group is q.group or q.psi.group == q.group, "psi to be a state on group")),
    ),
}


def A_k_grid(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig | None = None) -> IntervalGrid:
    """Series intervals of A_k for the walk ``q`` at every k in ``ks``, from
    one pass of the family's engine, as one columnar record.  A k outside
    [0, MAX_K] raises ParameterError.  ``tc`` defaults to
    ``default_truncation(q.family)``; an engine raises ParameterError for a
    truncation beyond its own size limits."""
    ks = np.array(ks, dtype=float)
    for k in ks.tolist():
        if not 0.0 <= k <= MAX_K:
            raise ParameterError(("k",), f"must be in [0, {MAX_K!r}], got {k!r}")
    ks.flags.writeable = False
    family = _FAMILIES[q.family]
    return family.engine(q, ks, tc if tc is not None else family.truncation)


# Single-point entries under their earlier names, each the one-row grid.
# The package runs everything through A_k_grid; the benchmark's span tracer
# (perfbench/spans.py) still looks these names up and reads terms_used.


def A_k_unitary(q: WalkQuery, k: float, tc: TruncationConfig = DEFAULT_TRUNCATION) -> IntervalGrid:
    return A_k_grid(q, [k], tc)


def A_k_wreath(q: WalkQuery, k: float, tc: TruncationConfig = DEFAULT_TRUNCATION) -> IntervalGrid:
    return A_k_grid(q, [k], tc)


def A_k_mixture(N: int, k: float, tc: TruncationConfig = MIXTURE_DEFAULT_TRUNCATION) -> IntervalGrid:
    return A_k_grid(WalkQuery.mixture(N), [k], tc)


# ---------------------------------------------------------------------------
# conversion to total-variation bounds


def tv_upper_from_A(A: IntervalGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower_info, upper, clamped) per row of ``A``: the TV upper bound from
    the series interval.

    ``lower_info`` = sqrt(partial)/2 is informational (the truncated series
    understates A_k, so this is not a lower bound on TV); ``upper`` is the
    certified bound sqrt(partial + tail)/2, and 1 on an uncertified row,
    whose tail is +inf.  Both are clamped into [0, 1], and ``clamped`` marks
    the rows where either was.

    Each root is taken as 0.5 exp(log / 2), with libm's exponential per
    value (``_exp_each``).
    """
    n = A.log_partial.size
    logs = np.concatenate((A.log_partial, np.logaddexp(A.log_partial, A.log_tail)))
    roots = 0.5 * _exp_each(0.5 * logs)
    clamped = np.maximum(roots[:n], roots[n:]) > 1.0
    np.minimum(roots, 1.0, out=roots)
    return roots[:n], roots[n:], clamped


def tv_lower_chebyshev(m: float | np.ndarray, var_bound: float, h_chi_sq: float) -> float | np.ndarray:
    """max(0, 1 - 4 (var_bound + h_chi_sq) / m^2) at one witness expectation
    m or an array of them: the Chebyshev split at threshold m/2 for a
    witness with walk expectation m, walk variance at most var_bound, and
    Haar second moment h_chi_sq.

    Returns 0 for m <= 0 and for m so small that m^2 underflows to 0 (no
    usable witness).  An m above about 1e154, far beyond any walk's, makes
    m^2 overflow to inf, with numpy's RuntimeWarning, and the bound 1.
    """
    if var_bound < 0 or not h_chi_sq > 0:
        raise ValueError("the variance bound must be >= 0 and the Haar moment > 0")
    # m <= 0 (or NaN) gives m^2 = 0; where m^2 <= c the bound is 0, here
    # 1 - c / c, which also keeps every division away from 0
    c = 4.0 * (var_bound + h_chi_sq)
    return 1.0 - c / np.fmax(np.square(np.fmax(m, 0.0)), c)


def tv_lower(q: WalkQuery, k: float | np.ndarray) -> float | np.ndarray:
    """Chebyshev lower bound on the TV distance of the walk q after k
    steps, at one k or an array of them.

    The witness expectation m comes from the family's closed form; if the
    witness is out of domain (tau too large) the trivial bound 0 is returned.
    """
    family = _FAMILIES[q.family]
    try:
        m = family.expectation(q, k)
    except ValueError:
        return np.zeros(np.shape(k))[()]
    return tv_lower_chebyshev(m, *family.witness)


# ---------------------------------------------------------------------------
# profiles


@dataclass
class ProfileResult:
    """The walk's distance profile over a k grid, as columns: the series
    intervals ``A`` (its ``k`` the grid), the TV upper bound's columns
    (``tv_upper_from_A``), the lower bound ``tv_lower``, and whether the
    certified upper bound is non-increasing along the grid; like ``A``,
    not to be written."""

    A: IntervalGrid
    tv_upper_lo: np.ndarray
    tv_upper_hi: np.ndarray
    tv_clamped: np.ndarray
    tv_lower: np.ndarray
    monotone_upper: bool


def cutoff_profile(
    q: WalkQuery, k_grid: Sequence[float], tc: TruncationConfig | None = None
) -> ProfileResult:
    """The walk's distance profile at every k in the grid.

    The series intervals of all rows come from one engine pass, and each TV
    bound from one pass over the grid.  A certified lower bound above the
    certified upper bound (beyond a 1e-12 rounding slack) is a defect, not
    a result: it raises RuntimeError.  The certified upper bound is
    non-increasing in k whenever every coefficient has modulus <= 1; this
    is checked on the output (with a 1e-12 slack for rounding) and reported
    in ``monotone_upper``.
    """
    if len(k_grid) == 0:
        raise ValueError("k grid must be nonempty")
    A = A_k_grid(q, k_grid, tc)
    lo, hi, clamped = tv_upper_from_A(A)
    lower = tv_lower(q, A.k)
    bad = A.certified & (lower > hi + 1e-12)
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        raise RuntimeError(
            f"internal inconsistency at k={A.k.item(i)!r}: certified lower bound "
            f"{lower.item(i)!r} exceeds certified upper bound {hi.item(i)!r}"
        )
    his = hi[A.certified]
    monotone = his.size < 2 or bool((his[1:] <= his[:-1] + 1e-12).all())
    return ProfileResult(A, lo, hi, clamped, lower, monotone)
