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

Each family has one engine, (query, k grid, truncation) -> one interval per
k, reached through ``A_k_grid``; every family's tail is the composition tail
``_composition_tail``.

Family-specific series:

- unitary-free / unitary-eval: the sum runs over words with weights
  |m_eps(nu)|^{2k} prod_i u_{n_i}(N - tau)^{2k} / u_{n_i}(N)^{2k-2};
- mixture: same word set, each coefficient replaced by its exact Porod-mixture
  average (``porod_rule``); the tail is certified for the Jensen-majorized
  series, which dominates;
- wreath: the sum runs over wreath words and carries |psi(gamma-product)| to
  the FIRST power, matching the group_sum_abs factorization.  This series
  dominates the squared-coefficient series term by term once k >= 1/2, so
  total-variation conversion stays valid in the certified regime k >= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import _Q_DOMAIN_EPS, _exp, log1mexp, logsumexp, q_of, u_seq
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
    "BoundInterval",
    "WalkQuery",
    "TVUpper",
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
    "ProfileRow",
    "ProfileResult",
]

# Largest index total a truncation accepts.  A convolution power costs
# O(max_total^2) per grid row: one delta bound at (12, 2000) takes about
# 0.025 s, one whose row takes the log-domain kernel (N = 5, tau = 2.99)
# about 0.16 s.
MAX_TOTAL = 4096
# Most words the mixture engine sums.  Its array passes take about 1 us a
# word: 82 450 words at (7, 17) in about 0.07 s, and 90 300 at (2, 300),
# each averaged on 301 nodes, in about 0.17 s (in-process on a 2-vCPU
# x86-64 VM).
MAX_MIXTURE_WORDS = 100_000
# Most blocks a truncation accepts.  The parity-class table of the words of
# at most P blocks holds P (P + 3) / 2 rows of P slots, about P^3 / 2, each
# a float log C and an int stop column (2.2 MB at P = 64, 457 MB at
# P = 384); with Haar nu, (64, 64) takes about 0.02 s and 36 MB the first
# call in a process, (64, 4096) about 1.1 s and 42 MB.
# A delta profile at (64, 4096) takes about 0.5 s a grid point, a wreath
# one over Z/3 about 0.12 s; from 30 MB at start, either peaked at 36 MB
# for 11 points and at 40-42 MB for 101.  A grid row outside the affine
# range (_LINEAR_RANGE: t near 2, k near MAX_K) takes the log-domain
# kernel, about 2.8 s a grid point at (64, 4096), peaking at 36 MB.
MAX_P = 64
# Most entries, (max_total + 1) * L, of the mixture's per-node u_n ratio table
# on L = 2 ((max_total + max_p) // 2) + 1 rule nodes (the default (5, 10)
# takes 165).  At the cap, (1, 2046), the engine peaks 34 MB above the
# interpreter (VmHWM 64 MB from 30 MB) and takes about 2 s, nearly all of
# it in the table's u_n recurrences.
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
    """Finite word-index window: p <= max_p blocks, at most MAX_P, and index
    total <= max_total, at most MAX_TOTAL; a violation raises ParameterError.
    """

    max_p: int = 12
    max_total: int = 48

    def __post_init__(self) -> None:
        if not 1 <= self.max_p <= MAX_P:
            raise ParameterError(("max_p",), f"must be in 1..{MAX_P}, got {self.max_p}")
        if self.max_total < self.max_p:
            raise ParameterError(("max_p", "max_total"), f"max_total {self.max_total} is below max_p {self.max_p}")
        if self.max_total > MAX_TOTAL:
            raise ParameterError(("max_total",), f"must be <= {MAX_TOTAL}, got {self.max_total}")


DEFAULT_TRUNCATION = TruncationConfig(max_p=12, max_total=48)
# The mixture partial averages every word on its rule nodes, where the other
# families sum whole series by convolution, so its default window is
# smaller; the certified tail covers the difference.  A two-point profile
# takes about 1-2 ms at (5, 10) and 12-23 ms at (6, 16), 29 784 words.
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


@dataclass(frozen=True)
class BoundInterval:
    """[partial, partial + tail] around a series value, held as the logs of
    both endpoints so that no underflowed value is lost.

    ``partial`` is exact over the truncation (up to float rounding).
    ``tail`` is certified under the recorded hypotheses;
    when any required hypothesis fails it is +inf and ``certified`` is False.
    """

    terms_used: int
    certificate: str
    certified: bool
    hypotheses: tuple[tuple[str, bool], ...]
    log_partial: float
    log_tail: float

    @property
    def partial(self) -> float:
        return _exp(self.log_partial)

    @property
    def tail(self) -> float:
        return _exp(self.log_tail)

    @property
    def upper(self) -> float:
        return self.partial + self.tail

    @property
    def log_upper(self) -> float:
        if self.log_tail == math.inf:
            return math.inf
        return float(np.logaddexp(self.log_partial, self.log_tail))


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


@dataclass(frozen=True)
class _SeriesTail:
    log_tail: float
    hypotheses: tuple[tuple[str, bool], ...]
    ok: bool


# the tail hypotheses, recorded in this order on every path of the tail
_TAIL_KEYS = ("x < 1", "within-degree ratios < 1", "w = S/(1-x) < 1")


def _composition_tail(log_S: float, log_x: float, M: int, P: int, log_pref: float, first: int) -> _SeriesTail:
    """Certified bound on sum_{first <= p <= P} pref * S^p * sum over
    compositions into p parts of degree > M of x^(degree - p), plus the whole
    p > P block.

    Within a fixed p the missing degrees j = degree - p start at
    J = max(M - p + 1, 0) and the composition counts C(j+p-1, p-1) grow by
    ratios (j+p)/(j+1), so the block is bounded by its first term times a
    geometric series of ratio rho_p = x (J+p)/(J+1).  Beyond P the full
    per-p sum collapses to w^p with w = S / (1 - x).
    """
    if not log_x < 0.0:
        return _SeriesTail(math.inf, tuple((key, False) for key in _TAIL_KEYS), False)
    x = math.exp(log_x)
    pieces: list[float] = []
    rho_ok = True
    for p in range(first, P + 1):
        J = max(M - p + 1, 0)
        if J == 0:
            # no degree was enumerated for this p; exact geometric block
            pieces.append(log_pref + p * log_S - p * log1mexp(log_x))
            continue
        rho = x * (J + p) / (J + 1)
        if not rho < 1.0:
            rho_ok = False
            break
        pieces.append(
            log_pref
            + p * log_S
            + J * log_x
            + math.log(math.comb(J + p - 1, p - 1))
            - math.log1p(-rho)
        )
    log_w = log_S - log1mexp(log_x)
    w_ok = log_w < 0.0
    hyps = tuple(zip(_TAIL_KEYS, (True, rho_ok, w_ok)))
    if not (rho_ok and w_ok):
        return _SeriesTail(math.inf, hyps, False)
    pieces.append(log_pref + (P + 1) * log_w - log1mexp(log_w))
    return _SeriesTail(logsumexp(pieces), hyps, True)


def _intervals(
    ks: Sequence[float],
    log_partials: Sequence[float],
    terms: int,
    hyps: tuple[tuple[str, bool], ...],
    certificate: str,
    tail: Callable[[float], _SeriesTail],
) -> list[BoundInterval]:
    """One interval [partial, partial + tail] per k, from the walk's
    hypotheses ``hyps``, certificate text and tail closure ``tail(2k)``.

    Each row records ("k >= 1", ...) in front of ``hyps``.  ``tail`` runs
    only on rows where every required (not ``[recorded]``) hypothesis
    holds: its algebra assumes them.
    """
    walk_ok = all(ok for name, ok in hyps if "[recorded]" not in name)
    out = []
    for k, log_partial in zip(ks, log_partials):
        series = tail(2.0 * k) if walk_ok and k >= 1.0 else None
        certified = series is not None and series.ok and series.log_tail < math.inf
        out.append(BoundInterval(
            terms_used=terms,
            certificate=certificate,
            certified=certified,
            hypotheses=(("k >= 1", k >= 1.0),) + hyps + (series.hypotheses if series is not None else ()),
            log_partial=float(log_partial),
            log_tail=series.log_tail if certified else math.inf,
        ))
    return out


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
    body = _log_power(tk, log_num[1:]) - (tk - 2.0) * log_den[1:]
    return np.hstack([np.full((two_k.size, 1), -math.inf), body])


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
# into a number of items.  At the default truncation a block holds the
# 13 x 49 powers of 51 grid rows of a point-mass pass, and 13 parity-path
# rows.  With the polynomial kernel taking every benchmark row, a 2-vCPU
# x86-64 VM timed at 4096 / 32768 / 131072 (one fresh process each,
# in-process cli.main): a 77-point delta profile at N = 200 16 / 13 / 13
# ms, a 101-point Haar one at N = 30000 42 / 24 / 29 ms (with the stop-sum
# terms in the block), one bound at (12, 1024) 13 / 13 / 14 ms
# with delta nu and 27 / 24 / 23 ms with Haar nu, one at (64, 4096) with
# delta nu 0.53 / 0.50 / 0.49 s.  Rows in the log-domain kernel (N = 5,
# tau = 2.99): a 101-point profile 44 / 36 / 28 ms, one bound at
# (64, 4096) 4.9 / 2.8 / 2.8 s, peaking at 35.4 / 35.8 / 36.9 MB.
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
    rev = np.full((K, 2 * w - 1), pad)
    rev[:, :w] = b[:, ::-1]
    row, item = rev.strides
    return np.ndarray((K, w, w), buffer=rev, strides=(row, item, item))


def _log_round(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[j, :, d] = log sum_{i <= d} exp(a[j, :, i] + b[:, d - i]), d < W,
    for the (m, K, W) stacked log series ``a`` and the (K, W) log series
    ``b``.

    The output degrees go in runs [lo, hi) of at most max(8, lo // 4)
    degrees, so from degree 32 on at most a tenth of a run's block of the
    ``_toeplitz`` view lies above the diagonal, in the -inf pad (numpy's
    exp of -inf took about five times a finite one on x86-64).  Each run
    goes over blocks of series rows, so no temporary holds more than one
    _BLOCK_TERMS block, or one row and one degree if that is larger.  Each
    coefficient is a ``_row_logsumexp`` of its row alone, so it does not
    depend on the rows stacked with it.
    """
    m, K, w = a.shape
    t = _toeplitz(b, -math.inf)
    out = np.empty(a.shape)
    lo = 0
    while lo < w:
        # r degrees from lo take r (lo + r) floats a row
        fit = (math.isqrt(lo * lo + 4 * _BLOCK_TERMS) - lo) // 2
        hi = min(w, lo + max(1, min(max(8, lo // 4), fit)))
        rows = _block_len((hi - lo) * hi)
        powers, grid = max(1, rows // K), min(rows, K)
        for j in range(0, m, powers):
            for r in range(0, K, grid):
                terms = a[j : j + powers, r : r + grid, np.newaxis, :hi] + t[r : r + grid, w - hi : w - lo, :hi]
                out[j : j + powers, r : r + grid, lo:hi] = _row_logsumexp(terms)[..., ::-1]
        lo = hi
    return out


def _poly_round(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[j, :, d] = sum_{i <= d} a[j, :, i] b[:, d - i], d < W, for the
    (m, K, W) stacked series ``a`` and the (K, W) series ``b`` of plain
    non-negative coefficients.

    One ``np.einsum`` over the ``_toeplitz`` view of ``b``: no BLAS, so no
    thread count changes a digit, and no W^2 copy.  Each coefficient is one
    dot product over i in the same order whatever m and K, so a row's
    result does not depend on the rows stacked with it.
    """
    return np.einsum("rei,jri->jre", _toeplitz(b, 0.0), a)[..., ::-1]


def _powers(first: np.ndarray, budgets: Sequence[int], product: Callable[[np.ndarray, np.ndarray], np.ndarray],
            unit: float, zero: float) -> np.ndarray:
    """first^0 .. first^(P-1), P = len(budgets), each cut at the widest
    budget of its round, in the domain of ``product``, whose 1 and 0 are
    ``unit`` and ``zero``; shape (P, K, budgets[0] + 1).

    By doubling: round n forms out[n + j] = out[j] out[n] for every
    1 <= j <= n with n + j < P in one stacked ``product`` call, at the
    widest budget of the round, so P powers take about log2 P rounds.
    """
    P = len(budgets)
    out = np.full((P, first.shape[0], budgets[0] + 1), zero)
    out[0, :, 0] = unit
    if P > 1:
        out[1, :, : first.shape[1]] = first
    n = 1
    while n + 1 < P:
        m, w = min(n, P - 1 - n), budgets[n + 1] + 1
        out[n + 1 : n + m + 1, :, :w] = product(out[1 : m + 1, :, :w], out[n, :, :w])
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


def _log_conv_powers(step: np.ndarray, budgets: Sequence[int]) -> np.ndarray:
    """out[i] = log step(z)^i up to degree budgets[i], -inf above it, for
    i < len(budgets); shape (len(budgets), K, budgets[0] + 1).

    ``step`` is a (K, L+1) log-coefficient array with L >= budgets[1];
    ``budgets`` must be non-increasing.  The powers are built by doubling
    (``_powers``), with the kernel chosen per row.  A row that
    ``_affine_tilt`` finds nearly affine, as the series terms are near the
    cutoff, multiplies its tilted coefficients e^{residual} as plain
    polynomials (``_poly_round``), and out = log(coefficient) + p a + s d.
    The other rows (k near MAX_K, t near 2, very large N) stay in the log
    domain (``_log_round``).  Both kernels read the factor through one
    ``_toeplitz`` view, padded with the zero of their domain.
    """
    P, K, width = len(budgets), step.shape[0], budgets[0] + 1
    # the step at its budget; with P = 1 only the unit is built
    first = step[:, : budgets[min(P - 1, 1)] + 1]
    s, a, residual, linear = _affine_tilt(first, P - 1)

    def untilted(rows: np.ndarray | slice) -> np.ndarray:
        out = _powers(np.exp(residual[rows]), budgets, _poly_round, 1.0, 0.0)
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out += np.arange(P)[:, np.newaxis, np.newaxis] * a[rows, np.newaxis]
        out += s[rows, np.newaxis] * np.arange(width)
        return out

    if linear.all():
        out = untilted(slice(None))
    elif not linear.any():
        out = _powers(first, budgets, _log_round, 0.0, -math.inf)
    else:
        out = np.empty((P, K, width))
        out[:, linear] = untilted(linear)
        out[:, ~linear] = _powers(first[~linear], budgets, _log_round, 0.0, -math.inf)
    above = np.arange(width) > np.asarray(budgets)[:, np.newaxis]
    out[np.broadcast_to(above[:, np.newaxis, :], out.shape)] = -math.inf
    return out


# ---------------------------------------------------------------------------
# unitary family


def _winding_exponents(T: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e+, e-), the winding exponents of a word's two leading signs,
    eps0 = +1 and -1, from the sum T of the signs eps_1 .. eps_{p-1} and
    the last sign sigma = eps_p of eps0 = +1 (eps0 = -1 flips them all):
    e+ = T + [sigma > 0] and e- = -1 - T + [sigma < 0], so |e| <= p."""
    return T + (sigma > 0), -1 - T + (sigma < 0)


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
    stop: np.ndarray  # (pairs, P): column (sigma, T) of each slot in the stop table
    pair_a: np.ndarray  # a of each pair
    pair_b: np.ndarray  # b of each pair
    # per stop-table column (sigma, T), the index e + P of the winding
    # exponent of each stop option (``_winding_exponents``)
    e_plus: np.ndarray
    e_minus: np.ndarray


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
        # column j holds T = 2j - (L - 1); sigma = (-1)^b picks the half
        rows = lengths == L
        with np.errstate(divide="ignore"):
            log_count[rows, :L] = np.log(count[: L + 1, off - (L - 1) : off + L : 2])
        stop[rows, :L] = (L - a[rows, np.newaxis]) % 2 * width + np.arange(off - (L - 1), off + L, 2)
    T = np.arange(width) - off
    e_plus, e_minus = _winding_exponents(np.r_[T, T], np.repeat([1, -1], width))
    classes = _ParityClasses(log_count, stop, a, lengths - a, e_plus + P, e_minus + P)
    for arr in vars(classes).values():
        arr.flags.writeable = False
    return classes


def _parity_log_partials(g: np.ndarray, log_abs_m: np.ndarray, two_k: np.ndarray, M: int, P: int) -> np.ndarray:
    """Partial sum for a general nu at every row of ``g``, by parity class.

    ``g`` holds the (K, M+1) per-block log coefficients at the K values
    ``two_k`` of 2k, and ``log_abs_m[e + P]`` is log |m_e(nu)| for |e| <= P.
    A word's two stop options weigh |m_e+|^{2k} and |m_e-|^{2k}, both fixed
    by its parity class (a, b, T), and the blocks of a class sum to
    S(a, b) = [z^{<= M}] O(z)^a E(z)^b, with O and E the odd and even
    blocks of g.  So the partial is the sum over classes of
    C S(a, b) (|m_e+|^{2k} + |m_e-|^{2k}).
    """
    pc = _parity_classes(P)

    def block(g: np.ndarray, two_k: np.ndarray) -> np.ndarray:
        n = g.shape[0]
        logm = _log_power(two_k[:, np.newaxis], log_abs_m)
        stop = np.logaddexp(logm[:, pc.e_plus], logm[:, pc.e_minus])
        # per pair, log sum over its classes of C (|m_e+|^{2k} + |m_e-|^{2k})
        terms = stop[:, pc.stop]
        terms += pc.log_count
        stop_sums = _row_logsumexp(terms)

        # O and E as the 2n rows of one series; pows[p, :n] = O^p, pows[p, n:] = E^p, p <= P
        oe = np.full((2 * n, M + 1), -math.inf)
        oe[:n, 1::2] = g[:, 1::2]
        oe[n:, 2::2] = g[:, 2::2]
        pows = _log_conv_powers(oe, [M] * (P + 1))
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


def _unitary_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
    """Series intervals of a unitary-family walk at every k in ``ks``.

    When nu is a point mass of weight w, |m_eps(nu)| = w for every eps, so
    both stop options of a word weigh w^{2k} whatever its winding state, and
    the partial is log 2 + 2k log w + sum_{p <= P} [z^{<= M}] G(z)^p: one
    convolution-power pass for the whole grid.  Any other nu sums the words
    by parity class (``_parity_log_partials``), also in one pass for the
    whole grid, from the powers of the odd and even blocks of G and the
    moments m_e(nu), |e| <= P.

    The tail certificate majorizes every excluded word by 2 S^p x^{total - p}
    with

        x = q(N)^{2k-2} / q(N-tau)^{2k},
        S = N^{-(2k-2)} q(N-tau)^{-2k} (1 - q(N-tau)^2)^{-2k},

    which follow from the envelope bounds on u_n and |m_eps| <= 1.
    """
    if q.theta is not None:
        t, nu = eval_state_params(q.N, q.theta)
    else:
        assert q.tau is not None and q.nu is not None
        t, nu = float(q.N) - q.tau, q.nu
    N = q.N
    M, P = tc.max_total, tc.max_p
    two_k = 2.0 * np.asarray(ks, dtype=float)

    # |u_n(t)| ratios; t <= 2 is allowed for the partial (values may vanish)
    g = _log_coeff_table(two_k, u_seq(t, M), u_seq(float(N), M))
    weight = nu.point_mass_weight()
    if weight is not None:

        def power_sums(g: np.ndarray) -> np.ndarray:
            return _row_logsumexp(np.hstack(_log_conv_powers(g, [M] * (P + 1))[1:]))

        log_partials = math.log(2.0) + two_k * math.log(weight) + _in_blocks(power_sums, (P + 1) * (M + 1), g)
    else:
        log_abs_m = np.full(2 * P + 1, -math.inf)
        for eps in range(-P, P + 1):
            m = abs(moment(nu, eps))
            if m > 0.0:
                log_abs_m[eps + P] = math.log(m)
        log_partials = _parity_log_partials(g, log_abs_m, two_k, M, P)

    hyps = (
        ("N - tau > 2", t > 2.0 + _Q_DOMAIN_EPS),
        ("N >= tau + C(tau) [recorded]", N >= (N - t) + threshold_C(N - t) if N - t > 0 else True),
    )
    text = (
        "per-word majorant 2 S^p x^(total-p) from the envelope bounds "
        "t q^{-(n-1)} <= u_n <= q^{-n}/(1-q^2) and |m_eps| <= 1; "
        "within-degree blocks bounded by first term times geometric ratio, "
        "p > max_p blocks by the closed geometric sum"
    )

    def tail(two_k: float) -> _SeriesTail:
        log_qN = math.log(q_of(float(N)))
        qt = q_of(t)
        log_qt = math.log(qt)
        log_x = (two_k - 2.0) * log_qN - two_k * log_qt
        log_S = -(two_k - 2.0) * math.log(float(N)) - two_k * log_qt - two_k * math.log1p(-qt * qt)
        return _composition_tail(log_S, log_x, M, P, math.log(2.0), 1)

    return _intervals(ks, log_partials, count_unitary(M, P), hyps, text, tail)


# ---------------------------------------------------------------------------
# mixture family


def _mixture_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
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
    order, both leading signs' winding exponents from a parity cumprod, and
    the cos and sin averages of every exponent from one ``np.einsum`` (no
    BLAS, so no thread count moves a digit, and each average is one sum
    over the nodes whatever the block).  Each k then sums d^2 |c|^{2k}
    over the words with one ``_row_logsumexp`` per grid row.  Truncations
    above MAX_MIXTURE_WORDS words or MAX_MIXTURE_TABLE ratio-table entries
    raise ParameterError before any work.

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
    # cos and sin of e beta for the exponents |e| <= P of a word: rows e + P
    # and E + e + P
    E = 2 * P + 1
    angles = np.arange(-P, P + 1)[:, np.newaxis] * beta
    trig = np.vstack([np.cos(angles), np.sin(angles)])

    def word_terms(vectors: np.ndarray) -> np.ndarray:
        # per block vector: 2 log dim and the log |coefficient| of its two
        # words, eps0 = -1 and +1 (-inf where it vanishes)
        prod = wq * R[vectors[:, 0]]
        log_dim = log_u_N[vectors[:, 0]]
        for j in range(1, vectors.shape[1]):
            prod *= R[vectors[:, j]]
            log_dim = log_dim + log_u_N[vectors[:, j]]
        # the signs eps_1 .. eps_p of eps0 = +1; eps0 = -1 flips them all
        sign = np.where(vectors % 2 == 1, 1, -1).cumprod(axis=1)
        e_plus, e_minus = _winding_exponents(sign[:, :-1].sum(axis=1), sign[:, -1])
        rows = np.stack([e_minus, e_plus], axis=1) + P
        # no BLAS: each average is one sum over the nodes whatever the block
        avg = np.einsum("bl,el->be", prod, trig)
        re = np.take_along_axis(avg, rows, axis=1)
        im = np.take_along_axis(avg, rows + E, axis=1)
        with np.errstate(divide="ignore"):
            log_mod = np.log(np.hypot(re, im))
        return np.column_stack([2.0 * log_dim, log_mod])

    # the block vectors of p blocks in lexicographic order, each giving its
    # eps0 = -1 word and then its eps0 = +1 word
    per_vector = np.concatenate([_in_blocks(word_terms, L + 2 * E, _compositions(M, p)) for p in range(1, P + 1)])
    dims = np.repeat(per_vector[:, 0], 2)
    mods = per_vector[:, 1:].ravel()

    def sums(two_k: np.ndarray) -> np.ndarray:
        return _row_logsumexp(dims + _log_power(two_k[:, np.newaxis], mods))

    log_partials = _in_blocks(sums, dims.size, 2.0 * np.asarray(ks, dtype=float))

    hyps = (("N >= 12", N >= 12),)
    text = (
        "Jensen-majorized series: per-word bound 2 S^p x^(total-p) with "
        "S, x built from a_N = N-2+2/N, b_N = e^{4/(N-2)^2}, the envelope "
        "bounds at N - lambda, and the moment bound E[(N-lambda)^alpha] <= a_N^alpha"
    )

    def tail(two_k: float) -> _SeriesTail:
        a_N = N - 2.0 + 2.0 / N
        log_ab = math.log(a_N) + 4.0 / ((N - 2.0) * (N - 2.0))
        q2 = q_of(N - 2.0)
        log_S = two_k * log_ab - (two_k - 2.0) * math.log(float(N)) - two_k * math.log1p(-q2 * q2)
        log_x = two_k * log_ab + (two_k - 2.0) * math.log(q_of(float(N)))
        return _composition_tail(log_S, log_x, M, P, math.log(2.0), 1)

    return _intervals(ks, log_partials, terms, hyps, text, tail)


# ---------------------------------------------------------------------------
# wreath family


def _wreath_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
    """Series intervals of a wreath walk at every k in ``ks``.

    Words have p group labels and p+1 character indices (even for p = 0, odd
    ends with even interiors for p >= 1).  The gamma sums factor through
    group_sum_abs = m^{p-1} K(psi), so the p-block of the partial is
    m^{p-1} K(psi) [z^{<= (M - 2p) // 2}] E(z)^2 I(z)^{p-1}, with E and I the
    odd-end and even-interior factor sequences: one convolution-power pass
    for the whole grid.

    The tail certificate majorizes every excluded word by Z^{p+1}
    y^{sum n - 1} (p >= 1; Z y^{n_0} for p = 0) with

        B = q(sqrt N)^{2k-2} / q(t')^{2k},   y = B^2,
        Z = q(sqrt N)^{2k-2} (sqrt N)^{-(2k-2)} q(t')^{-4k} (1 - q(t')^2)^{-2k},

    t' = sqrt(N - tau), and the group labels contribute m^{p-1} K(psi).
    Read the p + 1 outer indices, each raised by one, as the parts of a
    composition of degree D = sum n + p + 1.  A p >= 1 word then weighs
    (K / (m^2 y)) S^{p+1} x^{D - (p+1)} with x = y and S = m Z, and it lies
    outside the truncation exactly when D > max_total // 2 + 1: its
    complement is the composition tail over parts 2..max_p + 1.  The
    excluded p = 0 words add Z y^{max_total // 2} / (1 - y).
    """
    assert q.tau is not None and q.group is not None and q.psi is not None
    N, tau = q.N, q.tau
    M, P = tc.max_total, tc.max_p
    two_k = 2.0 * np.asarray(ks, dtype=float)
    f = _log_coeff_table(two_k, u_seq(math.sqrt(float(N) - tau), M), u_seq(math.sqrt(float(N)), M))

    # p = 0: single characters with even indices
    cols = [f[:, 2 : M + 1 : 2]]
    budgets = [(M - 2 * p) // 2 for p in range(1, P + 1) if M - 2 * p >= 0]
    if budgets:
        # block p sums [z^j] I^{p-1} [z^{<= budget - j}] E^2 over j <= its
        # budget; above it I^{p-1} is -inf, so the clipped index is harmless
        rest = np.maximum(np.asarray(budgets)[:, np.newaxis] - np.arange(budgets[0] + 1), 0)
        # K(psi) >= 1 always since psi(identity) = 1
        log_labels = np.arange(len(budgets)) * math.log(q.group.order) + math.log(q.psi.abs_sum())

        def block_sums(f: np.ndarray) -> np.ndarray:
            ends = f[:, 1 : 2 * budgets[0] + 2 : 2]
            interior = f[:, 2 : 2 * budgets[0] + 3 : 2]
            e2_cum = np.logaddexp.accumulate(_log_conv_powers(ends, [budgets[0]] * 3)[2], axis=1)
            terms = _log_conv_powers(interior, budgets) + np.take(e2_cum, rest, axis=1).transpose(1, 0, 2)
            return (_row_logsumexp(terms) + log_labels[:, np.newaxis]).T

        # a grid row's powers: E^0 .. E^2, or I^0 .. I^(P-1) if more
        cols.append(_in_blocks(block_sums, max(len(budgets), 3) * (budgets[0] + 1), f))
    log_partials = _row_logsumexp(np.hstack(cols))

    tau_ok = tau > 7.0 / 4.0
    hyps = (
        ("N - tau > 4", float(N) - tau > 4.0 + _Q_DOMAIN_EPS),
        ("tau > 7/4", tau_ok),
        ("N >= Q(tau)/(4 tau - 7)", tau_ok and N >= wreath_certificate_threshold(tau)),
    )
    text = (
        "per-word majorant Z^{p+1} y^(n-total - 1) (Z y^{n_0} for p = 0) from "
        "the envelope bounds at sqrt(N) and sqrt(N - tau); group labels "
        "contribute m^{p-1} K(psi); p >= 1 words summed as compositions of "
        "p + 1 parts with x = y and S = m Z: within-degree blocks bounded by "
        "first term times geometric ratio, p > max_p blocks by the closed "
        "geometric sum"
    )

    def tail(two_k: float) -> _SeriesTail:
        s = math.sqrt(float(N))
        qp = q_of(math.sqrt(float(N) - tau))
        log_qs = math.log(q_of(s))
        log_qp = math.log(qp)
        log_y = 2.0 * ((two_k - 2.0) * log_qs - two_k * log_qp)
        log_Z = (two_k - 2.0) * (log_qs - math.log(s)) - 2.0 * two_k * log_qp - two_k * math.log1p(-qp * qp)
        log_m = math.log(q.group.order)
        log_pref = math.log(q.psi.abs_sum()) - 2.0 * log_m - log_y
        series = _composition_tail(log_m + log_Z, log_y, M // 2 + 1, P + 1, log_pref, 2)
        if not series.ok:
            return series
        single = log_Z + (M // 2) * log_y - log1mexp(log_y)
        return replace(series, log_tail=logsumexp([single, series.log_tail]))

    return _intervals(ks, log_partials, count_wreath(q.group, M, P), hyps, text, tail)


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
    degree-2 character with sup norm 3; the mixture uses the real degree-1
    witness with sup norm 2."""

    engine: Callable[[WalkQuery, Sequence[float], TruncationConfig], list[BoundInterval]]
    truncation: TruncationConfig
    witness: tuple[float, float]
    expectation: Callable[[WalkQuery, float], float]
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


def A_k_grid(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig | None = None) -> list[BoundInterval]:
    """Series interval of A_k for the walk ``q`` at every k in ``ks``, from
    one pass of the family's engine.  A k outside [0, MAX_K] raises
    ParameterError.  ``tc`` defaults to ``default_truncation(q.family)``; an
    engine raises ParameterError for a truncation beyond its own size
    limits."""
    ks = [float(k) for k in ks]
    for k in ks:
        if not 0.0 <= k <= MAX_K:
            raise ParameterError(("k",), f"must be in [0, {MAX_K!r}], got {k!r}")
    family = _FAMILIES[q.family]
    return family.engine(q, ks, tc if tc is not None else family.truncation)


# Single-point entries under their earlier names.  The package runs
# everything through A_k_grid; the benchmark's span tracer
# (perfbench/spans.py) still looks these names up.


def A_k_unitary(q: WalkQuery, k: float, tc: TruncationConfig = DEFAULT_TRUNCATION) -> BoundInterval:
    return A_k_grid(q, [k], tc)[0]


def A_k_wreath(q: WalkQuery, k: float, tc: TruncationConfig = DEFAULT_TRUNCATION) -> BoundInterval:
    return A_k_grid(q, [k], tc)[0]


def A_k_mixture(N: int, k: float, tc: TruncationConfig = MIXTURE_DEFAULT_TRUNCATION) -> BoundInterval:
    return A_k_grid(WalkQuery.mixture(N), [k], tc)[0]


# ---------------------------------------------------------------------------
# conversion to total-variation bounds


@dataclass(frozen=True)
class TVUpper:
    """[lower-info, upper] for the TV distance from the series interval.

    ``lower_info`` = sqrt(partial)/2 is informational (the truncated series
    understates A_k, so this is not a lower bound on TV); ``upper`` is the
    certified bound sqrt(partial + tail)/2, clamped into [0, 1].
    """

    lower_info: float
    upper: float
    clamped: bool
    certified: bool


def tv_upper_from_A(A: BoundInterval) -> TVUpper:
    lo = 0.5 * math.exp(0.5 * A.log_partial) if A.log_partial < 700.0 else math.inf
    clamped = False
    if not A.certified:
        return TVUpper(min(lo, 1.0), 1.0, True, False)
    log_total = A.log_upper
    hi = 0.5 * math.exp(0.5 * log_total) if log_total < 700.0 else math.inf
    if hi > 1.0:
        hi = 1.0
        clamped = True
    if lo > 1.0:
        lo = 1.0
        clamped = True
    return TVUpper(lo, hi, clamped, True)


def tv_lower_chebyshev(m: float, var_bound: float, h_chi_sq: float) -> float:
    """max(0, 1 - 4 (var_bound + h_chi_sq) / m^2): the Chebyshev split at
    threshold m/2 for a witness with walk expectation m, walk variance at
    most var_bound, and Haar second moment h_chi_sq.

    Returns 0 for m <= 0 and for m so small that m^2 underflows to 0 (no
    usable witness).
    """
    if var_bound < 0 or h_chi_sq < 0:
        raise ValueError("variance and Haar moment bounds must be >= 0")
    if m <= 0.0 or m * m == 0.0:
        return 0.0
    return max(0.0, 1.0 - 4.0 * (var_bound + h_chi_sq) / (m * m))


def tv_lower(q: WalkQuery, k: float) -> float:
    """Chebyshev lower bound on the TV distance of the walk q after k steps.

    The witness expectation m comes from the family's closed form; if the
    witness is out of domain (tau too large) the trivial bound 0 is returned.
    """
    family = _FAMILIES[q.family]
    try:
        m = family.expectation(q, k)
    except ValueError:
        return 0.0
    return tv_lower_chebyshev(m, *family.witness)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ProfileRow:
    """The series interval ``A``, its TV upper bound ``tv`` and the lower
    bound ``tv_lower`` after ``k`` steps."""

    k: float
    A: BoundInterval
    tv: TVUpper
    tv_lower: float


@dataclass(frozen=True)
class ProfileResult:
    rows: tuple[ProfileRow, ...]
    monotone_upper: bool


def cutoff_profile(
    q: WalkQuery, k_grid: Sequence[float], tc: TruncationConfig | None = None
) -> ProfileResult:
    """One row per k in the grid: the walk's distance profile.

    The series intervals of all rows come from one engine pass.  A
    certified lower bound above the certified upper bound (beyond a 1e-12
    rounding slack) is a defect, not a result: it raises RuntimeError.  The
    certified upper bound is non-increasing in k whenever every coefficient
    has modulus <= 1; this is checked on the output (with a 1e-12 slack for
    rounding) and reported in ``monotone_upper``.
    """
    if len(k_grid) == 0:
        raise ValueError("k grid must be nonempty")
    ks = [float(k) for k in k_grid]
    rows = []
    for k, A in zip(ks, A_k_grid(q, ks, tc)):
        tv, lower = tv_upper_from_A(A), tv_lower(q, k)
        if tv.certified and lower > tv.upper + 1e-12:
            raise RuntimeError(
                f"internal inconsistency at k={k!r}: certified lower bound "
                f"{lower!r} exceeds certified upper bound {tv.upper!r}"
            )
        rows.append(ProfileRow(k, A, tv, lower))
    his = [row.tv.upper for row in rows if row.tv.certified]
    return ProfileResult(tuple(rows), all(b <= a + 1e-12 for a, b in zip(his, his[1:])))
