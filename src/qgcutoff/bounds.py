"""Certified evaluation of the character-series upper bound and Chebyshev
lower bounds for each walk family.

For a central state phi on a Kac-type compact quantum group, the k-th
convolution power satisfies

    4 * ||phi^{*k} - h||_TV^2  <=  A_k  :=  sum over nontrivial irreducibles
                                            of  d_alpha^2 |phi(chi_alpha)/d_alpha|^{2k}.

The engine returns an interval [partial, partial + tail] around the series
value of A_k: ``partial`` is the exact (log-domain) sum over a finite
truncation of the word index space, and ``tail`` is a certified majorization
of everything outside the truncation, built from the envelope bounds

    t * q(t)^{-(n-1)}  <=  u_n(t)  <=  q(t)^{-n} / (1 - q(t)^2)      (t > 2)

applied per factor.  When a geometric ratio fails to be < 1 the engine
reports "no certificate" (tail = infinity) instead of extrapolating.

Each family has one engine, (query, k grid, truncation) -> one interval per
k, reached through ``A_k_grid``; every family's tail is the composition tail
``_composition_tail``.

Family-specific series:

- unitary-free / unitary-eval: the sum runs over words with weights
  |m_eps(nu)|^{2k} prod_i u_{n_i}(N - tau)^{2k} / u_{n_i}(N)^{2k-2};
- mixture: same word set, with the per-word coefficient replaced by the
  Porod-mixture quadrature of the per-angle coefficient (partial is then an
  estimate; the tail is certified for the Jensen-majorized series, which
  dominates);
- wreath: the sum runs over wreath words and carries |psi(gamma-product)| to
  the FIRST power, matching the group_sum_abs factorization.  This series
  dominates the squared-coefficient series term by term once k >= 1/2, so
  total-variation conversion stays valid in the certified regime k >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import LogScalar, log1mexp, logsumexp, q_of, u_seq
from .structures import (
    CircleMeasure,
    FiniteGroup,
    GroupState,
    lambda_theta,
    moment,
    porod_nodes,
    tau_theta,
)
from .words import (
    chi2_expectation_unitary,
    chi2_expectation_wreath,
    chi_expectation_mixture,
    count_unitary,
    count_wreath,
    enumerate_unitary,
    eval_state_params,
)

__all__ = [
    "TruncationConfig",
    "BoundInterval",
    "WalkQuery",
    "TVUpper",
    "DEFAULT_TRUNCATION",
    "MIXTURE_DEFAULT_TRUNCATION",
    "MAX_K",
    "default_truncation",
    "A_k_grid",
    "A_k_for_query",
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

_T_EPS = 1e-9  # same parabolic-boundary guard as numerics.q_of


@dataclass(frozen=True)
class TruncationConfig:
    """Finite word-index window: p <= max_p blocks, index total <= max_total.

    ``tail_mode`` selects whether the complement is bounded by the geometric
    certificate or left unbounded ("none").
    """

    max_p: int = 12
    max_total: int = 48
    tail_mode: str = "geometric-certificate"

    def __post_init__(self) -> None:
        if self.max_p < 1:
            raise ValueError("max_p must be >= 1")
        if self.max_total < self.max_p:
            raise ValueError("max_total must be >= max_p")
        if self.tail_mode not in ("geometric-certificate", "none"):
            raise ValueError(f"unknown tail_mode {self.tail_mode!r}")


DEFAULT_TRUNCATION = TruncationConfig(max_p=12, max_total=48)
# The mixture partial runs a quadrature per enumerated word, so its default
# window is smaller; the certified tail covers the difference.
MIXTURE_DEFAULT_TRUNCATION = TruncationConfig(max_p=5, max_total=10)

# Largest step count a query accepts.  The engines form 2k times a
# log-dimension of about max_total log N, which stays finite for any
# truncation that runs, while N ln N / rate is far below it.
MAX_K = 1e300


def default_truncation(family: str) -> TruncationConfig:
    """The truncation an engine runs with when none is given."""
    return MIXTURE_DEFAULT_TRUNCATION if family == "mixture" else DEFAULT_TRUNCATION


@dataclass(frozen=True)
class BoundInterval:
    """[partial, partial + tail] around a series value.

    ``partial`` is exact over the truncation (up to float rounding; the
    mixture family's partial is a quadrature estimate, flagged in the
    certificate text).  ``tail`` is certified under the recorded hypotheses;
    when any required hypothesis fails it is +inf and ``certified`` is False.
    Log-domain copies of both endpoints are kept so downstream conversions do
    not lose underflowed values.
    """

    partial: float
    tail: float
    terms_used: int
    certificate: str
    certified: bool
    hypotheses: tuple[tuple[str, bool], ...]
    log_partial: float
    log_tail: float
    notes: tuple[str, ...] = ()

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
    """One walk evaluation point: family, size N, step count k, parameters.

    families: "unitary-free" (trace deficit tau, circle measure nu),
    "unitary-eval" (rotation angle theta), "mixture" (Porod-mixed evaluation
    states), "wreath" (trace deficit tau, finite group with state psi).

    The analytic threshold N >= tau + C(tau) is recorded by the engines as a
    certificate hypothesis entry but is not enforced here.
    """

    family: str
    N: int
    k: float
    tau: float | None = None
    theta: float | None = None
    nu: CircleMeasure | None = None
    group: FiniteGroup | None = None
    psi: GroupState | None = None
    quad_points: int = 2048

    def __post_init__(self) -> None:
        if self.family not in ("unitary-free", "unitary-eval", "mixture", "wreath"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not self.k >= 0:
            raise ValueError("k must be >= 0")
        if self.k > MAX_K:
            raise ValueError(f"k must be <= {MAX_K!r}")
        if self.family == "unitary-free":
            if self.tau is None or not 0.0 < self.tau <= self.N:
                raise ValueError("unitary-free needs 0 < tau <= N")
            if self.N < 3:
                raise ValueError("unitary-free needs N >= 3")
        elif self.family == "unitary-eval":
            if self.theta is None:
                raise ValueError("unitary-eval needs theta")
            if self.N < 3:
                raise ValueError("unitary-eval needs N >= 3")
        elif self.family == "mixture":
            if self.N < 6:
                raise ValueError("mixture needs N >= 6")
        elif self.family == "wreath":
            if self.tau is None or not 0.0 < self.tau < self.N:
                raise ValueError("wreath needs 0 < tau < N")
            if self.N < 5:
                raise ValueError("wreath needs N >= 5 (sqrt(N) > 2)")
            if self.group is None or self.psi is None:
                raise ValueError("wreath needs group and psi")
            if self.psi.group is not self.group and self.psi.group != self.group:
                raise ValueError("psi is a state on a different group")

    @classmethod
    def unitary(cls, N: int, tau: float, k: float, nu: CircleMeasure | None = None) -> "WalkQuery":
        return cls("unitary-free", N, k, tau=tau, nu=nu if nu is not None else CircleMeasure.delta(0.0))

    @classmethod
    def eval_point(cls, N: int, theta: float, k: float) -> "WalkQuery":
        return cls("unitary-eval", N, k, theta=theta)

    @classmethod
    def mixture(cls, N: int, k: float, quad_points: int = 2048) -> "WalkQuery":
        return cls("mixture", N, k, quad_points=quad_points)

    @classmethod
    def wreath(cls, N: int, tau: float, k: float, group: FiniteGroup, psi: GroupState) -> "WalkQuery":
        return cls("wreath", N, k, tau=tau, group=group, psi=psi)

    @property
    def effective_tau(self) -> float | None:
        """Trace deficit seen by the character coefficients."""
        if self.family == "unitary-free" or self.family == "wreath":
            return self.tau
        if self.family == "unitary-eval":
            assert self.theta is not None
            return tau_theta(self.N, self.theta)
        return None

    @property
    def cutoff_rate(self) -> float:
        """Denominator of the N ln N / rate cutoff location."""
        if self.family == "unitary-free" or self.family == "wreath":
            assert self.tau is not None
            return self.tau
        if self.family == "unitary-eval":
            assert self.theta is not None
            return lambda_theta(self.theta)
        return 2.0

    def with_k(self, k: float) -> "WalkQuery":
        return replace(self, k=k)


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


def _interval(
    log_partial: float,
    terms: int,
    tc: TruncationConfig,
    base_hyps: Sequence[tuple[str, bool]],
    certificate: str,
    tail: Callable[[], _SeriesTail],
    notes: Sequence[str] = (),
) -> BoundInterval:
    """Assemble [partial, partial + tail].  ``tail`` runs only when a tail is
    requested and every required (not ``[recorded]``) base hypothesis holds:
    its algebra assumes them."""
    series = None
    if tc.tail_mode == "none":
        certificate = "tail not requested"
    elif all(ok for name, ok in base_hyps if "[recorded]" not in name):
        series = tail()
    hyps = tuple(base_hyps) + (series.hypotheses if series is not None else ())
    certified = series is not None and series.ok and series.log_tail < math.inf
    log_tail = series.log_tail if certified else math.inf
    partial = math.exp(log_partial) if log_partial < 700.0 else math.inf
    tail_val = math.exp(log_tail) if log_tail < 700.0 else math.inf
    return BoundInterval(
        partial=partial,
        tail=tail_val,
        terms_used=terms,
        certificate=certificate,
        certified=certified,
        hypotheses=hyps,
        log_partial=log_partial,
        log_tail=log_tail,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the truncated-series primitive, batched over the k grid
#
# Every series term is d^2 |c|^{2k} = exp(a + 2k b), affine in k in the log
# domain, so the engines below carry a leading k axis: one row per grid point.


def _log_coeff_table(two_k: np.ndarray, num: Sequence[LogScalar], den: Sequence[LogScalar]) -> np.ndarray:
    """table[i, n] = log den_n^2 |num_n / den_n|^{two_k[i]} for n >= 1.

    Column 0 is -inf (no index-0 factor).  A vanishing num_n gives -inf,
    except at two_k = 0, where every coefficient power is 1.
    """
    log_num = np.array([x.logmag if x.sign != 0 else -math.inf for x in num[1:]])
    log_den = np.array([x.logmag for x in den[1:]])
    tk = two_k[:, np.newaxis]
    with np.errstate(invalid="ignore"):
        body = tk * log_num - (tk - 2.0) * log_den
    body = np.where(tk == 0.0, 2.0 * log_den, body)
    return np.hstack([np.full((two_k.size, 1), -math.inf), body])


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log of the sum of exp over the last axis; -inf for an all -inf row."""
    hi = x.max(axis=-1, initial=-math.inf)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(x - shift[..., np.newaxis]).sum(axis=-1))


def _log_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of two truncated series in the log domain: for
    (K, L+1) arrays of log coefficients, out[:, d] = log sum_{j <= d}
    exp(a[:, j] + b[:, d - j]), d <= L."""
    width = a.shape[1]
    out = np.full(a.shape, -math.inf)
    for j in range(width):
        col = a[:, j : j + 1]
        if (col == -math.inf).all():
            continue
        out[:, j:] = np.logaddexp(out[:, j:], col + b[:, : width - j])
    return out


def _log_conv_power_sums(first: np.ndarray, step: np.ndarray, budgets: Sequence[int]) -> np.ndarray:
    """log [z^{<= budgets[i]}] first(z) step(z)^i per row, shape (K, len(budgets)).

    ``first`` and ``step`` are (K, L+1) log-coefficient arrays; ``budgets``
    must be non-increasing.  Each power is built from the one before it and
    is only formed up to its own budget.
    """
    out = np.empty((first.shape[0], len(budgets)))
    cur = first
    for i, budget in enumerate(budgets):
        width = budget + 1
        if i:
            cur = _log_conv(cur[:, :width], step[:, :width])
        out[:, i] = _row_logsumexp(cur[:, :width])
    return out


# ---------------------------------------------------------------------------
# unitary family


def _winding_log_partial(g: np.ndarray, log_abs_m: np.ndarray, two_k: float, M: int, P: int) -> float:
    """Partial sum for a general nu, folded by a dynamic program over the
    prefix state (size total D, relative sign, partial sign sum T), which
    determines the winding exponent of both stop options eps0 = +-1.

    ``g`` holds the per-block log coefficients at this k; ``log_abs_m[e +
    P + 1]`` is log |m_e(nu)| for |e| <= P + 1.
    """
    # log |m_eps|^{2k}; 2k = 0 gives log 1 even where m_eps = 0
    logm = np.zeros_like(log_abs_m) if two_k == 0.0 else two_k * log_abs_m

    def stop_log(T: int, sigma: int) -> float:
        # winding exponent for each leading-sign choice
        e_plus = T + (1 if sigma > 0 else 0)
        e_minus = -1 - T + (1 if sigma < 0 else 0)
        a = logm[e_plus + P + 1]
        b = logm[e_minus + P + 1]
        return float(np.logaddexp(a, b))

    # sign index 0 -> +1
    off = P
    width = 2 * P + 1
    cur = np.full((M + 1, 2, width), -math.inf)
    sign_flip = [1 if n % 2 == 1 else -1 for n in range(M + 1)]
    for n in range(1, M + 1):
        sidx = 0 if sign_flip[n] > 0 else 1
        cur[n, sidx, off] = g[n]

    stop_logs = np.empty((2, width))
    for sidx in range(2):
        sigma = 1 if sidx == 0 else -1
        for Toff in range(width):
            stop_logs[sidx, Toff] = stop_log(Toff - off, sigma)

    collected: list[np.ndarray] = []
    for length in range(1, P + 1):
        if length > 1:
            nxt = np.full((M + 1, 2, width), -math.inf)
            for n in range(1, M + 1):
                gn = g[n]
                if gn == -math.inf:
                    continue
                flip = sign_flip[n]
                for sidx in range(2):
                    sigma = 1 if sidx == 0 else -1
                    tidx = sidx if flip > 0 else 1 - sidx
                    src = cur[: M + 1 - n, sidx, :]
                    if sigma > 0:
                        nxt[n:, tidx, 1:] = np.logaddexp(nxt[n:, tidx, 1:], src[:, :-1] + gn)
                    else:
                        nxt[n:, tidx, :-1] = np.logaddexp(nxt[n:, tidx, :-1], src[:, 1:] + gn)
            cur = nxt
        ended = cur + stop_logs[np.newaxis, :, :]
        finite = ended[np.isfinite(ended)]
        if finite.size:
            collected.append(finite)

    if not collected:
        return -math.inf
    flat = np.concatenate(collected)
    hi = float(flat.max())
    return hi + math.log(float(np.exp(flat - hi).sum()))


def _unitary_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
    """Series intervals of a unitary-family query at every k in ``ks``.

    When nu is a point mass of weight w, |m_eps(nu)| = w for every eps, so
    both stop options of a word weigh w^{2k} whatever its winding state, and
    the partial is log 2 + 2k log w + sum_{p <= P} [z^{<= M}] G(z)^p: one
    convolution-power pass for the whole grid.  Any other nu runs the
    winding dynamic program one k at a time.
    """
    if q.family == "unitary-eval":
        assert q.theta is not None
        t, nu = eval_state_params(q.N, q.theta)
    else:
        assert q.tau is not None
        t, nu = float(q.N) - q.tau, q.nu if q.nu is not None else CircleMeasure.delta(0.0)
    N = q.N
    M, P = tc.max_total, tc.max_p
    two_k = 2.0 * np.asarray(ks, dtype=float)

    # |u_n(t)| ratios; t <= 2 is allowed for the partial (values may vanish)
    g = _log_coeff_table(two_k, u_seq(t, M), u_seq(float(N), M))
    weight = nu.point_mass_weight()
    if weight is not None:
        sums = _log_conv_power_sums(g, g, [M] * P)
        log_partials = math.log(2.0) + two_k * math.log(weight) + _row_logsumexp(sums)
    else:
        eps_max = P + 1
        log_abs_m = np.full(2 * eps_max + 1, -math.inf)
        for eps in range(-eps_max, eps_max + 1):
            m = abs(moment(nu, eps, quad_points=q.quad_points))
            if m > 0.0:
                log_abs_m[eps + eps_max] = math.log(m)
        log_partials = np.array([_winding_log_partial(row, log_abs_m, tk, M, P) for row, tk in zip(g, two_k)])

    terms = count_unitary(M, P)
    return [_unitary_interval(N, t, float(k), float(lp), terms, tc) for k, lp in zip(ks, log_partials)]


def _unitary_interval(N: int, t: float, k: float, log_partial: float, terms: int, tc: TruncationConfig) -> BoundInterval:
    """Attach the tail certificate: every excluded word is majorized by
    2 S^p x^{total - p} with

        x = q(N)^{2k-2} / q(N-tau)^{2k},
        S = N^{-(2k-2)} q(N-tau)^{-2k} (1 - q(N-tau)^2)^{-2k},

    which follow from the envelope bounds on u_n and |m_eps| <= 1.
    """
    two_k = 2.0 * k
    base_hyps: list[tuple[str, bool]] = [
        ("k >= 1", k >= 1.0),
        ("N - tau > 2", t > 2.0 + _T_EPS),
        ("N >= tau + C(tau) [recorded]", N >= (N - t) + threshold_C(N - t) if N - t > 0 else True),
    ]
    cert_text = (
        "per-word majorant 2 S^p x^(total-p) from the envelope bounds "
        "t q^{-(n-1)} <= u_n <= q^{-n}/(1-q^2) and |m_eps| <= 1; "
        "within-degree blocks bounded by first term times geometric ratio, "
        "p > max_p blocks by the closed geometric sum"
    )

    def tail() -> _SeriesTail:
        log_qN = math.log(q_of(float(N)))
        qt = q_of(t)
        log_qt = math.log(qt)
        log_x = (two_k - 2.0) * log_qN - two_k * log_qt
        log_S = -(two_k - 2.0) * math.log(float(N)) - two_k * log_qt - two_k * math.log1p(-qt * qt)
        return _composition_tail(log_S, log_x, tc.max_total, tc.max_p, math.log(2.0), 1)

    return _interval(log_partial, terms, tc, base_hyps, cert_text, tail)


# ---------------------------------------------------------------------------
# mixture family


def _log_u_recurrence_nodes(tvec: np.ndarray, nmax: int) -> np.ndarray:
    """log u_n(t_j) for every node, shape (nmax+1, len(tvec)); needs t > 2."""
    out = np.empty((nmax + 1, tvec.size))
    out[0] = 0.0
    if nmax >= 1:
        out[1] = np.log(tvec)
    for n in range(1, nmax):
        # u_{n+1} = u_n (t - u_{n-1}/u_n); the ratio lies in (0, 1) for t > 2
        ratio = np.exp(out[n - 1] - out[n])
        out[n + 1] = out[n] + np.log(tvec - ratio)
    return out


def _mixture_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
    """Series intervals of the uniform (Porod) mixture of evaluation states
    at every k in ``ks``.

    Per word, the coefficient is the quadrature of the per-angle coefficient
    e^{i eps beta(theta)} prod_i u_{n_i}(t_theta)/u_{n_i}(N) over the Porod
    mixture; the partial sum is therefore an estimate (quadrature error is
    not rigorously bounded).  The quadrature does not depend on k, so it runs
    once per word for the whole grid; each k then sums d^2 |c|^{2k} over the
    words in enumeration order.
    """
    N = q.N
    M, P = tc.max_total, tc.max_p

    theta, wq = porod_nodes(N, q.quad_points)
    lam = 1.0 - np.cos(theta)
    tvec = np.sqrt(float(N) * N - 2.0 * N * lam + 2.0 * lam)  # = N - tau_theta >= N - 2
    beta = np.arctan2(np.sin(theta), float(N) - 1.0 + np.cos(theta))

    log_u_nodes = _log_u_recurrence_nodes(tvec, M)
    log_u_N = [ls.logmag for ls in u_seq(float(N), M)]
    # per-node ratio factors u_n(t_theta)/u_n(N), kept as plain floats (<= 1)
    R = np.exp(log_u_nodes - np.asarray(log_u_N)[:, np.newaxis])

    cos_tab = {e: np.cos(e * beta) for e in range(-(P + 1), P + 2)}
    sin_tab = {e: np.sin(e * beta) for e in range(-(P + 1), P + 2)}

    # per word: 2 log dim and log |coefficient| (-inf where it vanishes); the
    # two words of a block vector (eps0 = -1, +1) are consecutive
    two_log_dim: list[float] = []
    log_mod: list[float] = []
    ns: tuple[int, ...] = ()
    for word in enumerate_unitary(M, P):
        if word.ns != ns:
            ns = word.ns
            prod = wq
            log_dim = 0.0
            for n in ns:
                prod = prod * R[n]
                log_dim += log_u_N[n]
        eps = word.z_exponent()
        mod = math.hypot(float(np.dot(prod, cos_tab[eps])), float(np.dot(prod, sin_tab[eps])))
        two_log_dim.append(2.0 * log_dim)
        log_mod.append(math.log(mod) if mod > 0.0 else -math.inf)
    dims = np.array(two_log_dim)
    mods = np.array(log_mod)

    terms = count_unitary(M, P)
    out = []
    for k in ks:
        two_k = 2.0 * k
        # at k = 0 every coefficient power is 1, vanishing ones included
        logs = dims if two_k == 0.0 else dims + two_k * mods
        out.append(_mixture_interval(N, float(k), logsumexp(logs.tolist()), terms, tc))
    return out


def _mixture_interval(N: int, k: float, log_partial: float, terms: int, tc: TruncationConfig) -> BoundInterval:
    """Attach the tail certificate, which holds for the Jensen-majorized
    series via the per-word bound 2 S^p x^(total - p) with

        S = (a_N b_N)^{2k} N^{-(2k-2)} (1 - q(N-2)^2)^{-2k},
        x = (a_N b_N)^{2k} q(N)^{2k-2},
        a_N = N - 2 + 2/N,   b_N = e^{4/(N-2)^2},

    combining |integral|^{2k} <= integral of |.|^{2k} (k >= 1/2), the
    deficit-to-rate comparison u_n(N-tau_theta) <= b_N^n u_n(N-lambda_theta),
    the envelope bounds, and the moment bound E[(N-lambda)^alpha] <= a_N^alpha.
    """
    two_k = 2.0 * k
    base_hyps: list[tuple[str, bool]] = [
        ("k >= 1", k >= 1.0),
        ("N >= 12", N >= 12),
    ]
    cert_text = (
        "Jensen-majorized series: per-word bound 2 S^p x^(total-p) with "
        "S, x built from a_N = N-2+2/N, b_N = e^{4/(N-2)^2}, the envelope "
        "bounds at N - lambda, and the moment bound E[(N-lambda)^alpha] <= a_N^alpha; "
        "partial is a quadrature estimate of the true series"
    )
    notes = ("partial is a quadrature estimate; certified tail covers the Jensen-majorized complement",)

    def tail() -> _SeriesTail:
        a_N = N - 2.0 + 2.0 / N
        log_ab = math.log(a_N) + 4.0 / ((N - 2.0) * (N - 2.0))
        q2 = q_of(N - 2.0)
        log_S = two_k * log_ab - (two_k - 2.0) * math.log(float(N)) - two_k * math.log1p(-q2 * q2)
        log_x = two_k * log_ab + (two_k - 2.0) * math.log(q_of(float(N)))
        return _composition_tail(log_S, log_x, tc.max_total, tc.max_p, math.log(2.0), 1)

    return _interval(log_partial, terms, tc, base_hyps, cert_text, tail, notes)


# ---------------------------------------------------------------------------
# wreath family


def _wreath_intervals(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig) -> list[BoundInterval]:
    """Series intervals of a wreath query at every k in ``ks``.

    Words have p group labels and p+1 character indices (even for p = 0, odd
    ends with even interiors for p >= 1).  The gamma sums factor through
    group_sum_abs = m^{p-1} K(psi), so the p-block of the partial is
    m^{p-1} K(psi) [z^{<= (M - 2p) // 2}] E(z)^2 I(z)^{p-1}, with E and I the
    odd-end and even-interior factor sequences: one convolution-power pass
    for the whole grid.
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
        ends = f[:, 1 : 2 * budgets[0] + 2 : 2]
        interior = f[:, 2 : 2 * budgets[0] + 3 : 2]
        blocks = _log_conv_power_sums(_log_conv(ends, ends), interior, budgets)
        # K(psi) >= 1 always since psi(identity) = 1
        cols.append(np.arange(len(budgets)) * math.log(q.group.order) + math.log(q.psi.abs_sum()) + blocks)
    log_partials = _row_logsumexp(np.hstack(cols))

    terms = count_wreath(q.group, M, P)
    return [_wreath_interval(q, float(k), float(lp), terms, tc) for k, lp in zip(ks, log_partials)]


def _wreath_interval(q: WalkQuery, k: float, log_partial: float, terms: int, tc: TruncationConfig) -> BoundInterval:
    """Attach the tail certificate: every excluded word is majorized by
    Z^{p+1} y^{sum n - 1} (p >= 1; Z y^{n_0} for p = 0) with

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
    two_k = 2.0 * k
    tau_ok = tau > 7.0 / 4.0
    base_hyps: list[tuple[str, bool]] = [
        ("k >= 1", k >= 1.0),
        ("N - tau > 4", float(N) - tau > 4.0 + _T_EPS),
        ("tau > 7/4", tau_ok),
        ("N >= Q(tau)/(4 tau - 7)", tau_ok and N >= wreath_certificate_threshold(tau)),
    ]
    cert_text = (
        "per-word majorant Z^{p+1} y^(n-total - 1) (Z y^{n_0} for p = 0) from "
        "the envelope bounds at sqrt(N) and sqrt(N - tau); group labels "
        "contribute m^{p-1} K(psi); p >= 1 words summed as compositions of "
        "p + 1 parts with x = y and S = m Z: within-degree blocks bounded by "
        "first term times geometric ratio, p > max_p blocks by the closed "
        "geometric sum"
    )

    def tail() -> _SeriesTail:
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

    return _interval(log_partial, terms, tc, base_hyps, cert_text, tail)


# ---------------------------------------------------------------------------
# the one engine entry

_ENGINES = {
    "unitary-free": _unitary_intervals,
    "unitary-eval": _unitary_intervals,
    "mixture": _mixture_intervals,
    "wreath": _wreath_intervals,
}


def A_k_grid(q: WalkQuery, ks: Sequence[float], tc: TruncationConfig | None = None) -> list[BoundInterval]:
    """Series interval of A_k for the walk ``q`` at every k in ``ks`` (the
    k field of ``q`` is ignored), from one pass of the family's engine.
    ``tc`` defaults to ``default_truncation(q.family)``."""
    return _ENGINES[q.family](q, ks, tc if tc is not None else default_truncation(q.family))


def A_k_for_query(q: WalkQuery, tc: TruncationConfig | None = None) -> BoundInterval:
    """Series interval of A_k at q.k."""
    return A_k_grid(q, [q.k], tc)[0]


# Single-point entries under their earlier names and signatures.  The package
# runs everything through A_k_grid; the benchmark's span tracer
# (perfbench/spans.py) still looks these names up.


def A_k_unitary(q: WalkQuery, tc: TruncationConfig = DEFAULT_TRUNCATION) -> BoundInterval:
    return A_k_for_query(q, tc)


def A_k_wreath(q: WalkQuery, tc: TruncationConfig = DEFAULT_TRUNCATION) -> BoundInterval:
    return A_k_for_query(q, tc)


def A_k_mixture(
    N: int, k: float, tc: TruncationConfig = MIXTURE_DEFAULT_TRUNCATION, quad_points: int = 2048
) -> BoundInterval:
    return A_k_for_query(WalkQuery.mixture(N, k, quad_points), tc)


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
    notes: tuple[str, ...] = ()


def tv_upper_from_A(A: BoundInterval) -> TVUpper:
    lo = 0.5 * math.exp(0.5 * A.log_partial) if A.log_partial < 700.0 else math.inf
    notes: list[str] = list(A.notes)
    clamped = False
    if not A.certified:
        notes.append("no certificate: upper end is the trivial bound 1")
        return TVUpper(min(lo, 1.0), 1.0, True, False, tuple(notes))
    log_total = A.log_upper
    hi = 0.5 * math.exp(0.5 * log_total) if log_total < 700.0 else math.inf
    if hi > 1.0:
        hi = 1.0
        clamped = True
        notes.append("clamped: TV never exceeds 1")
    if lo > 1.0:
        lo = 1.0
        clamped = True
    return TVUpper(lo, hi, clamped, True, tuple(notes))


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


# Witness constants per family: (variance bound, Haar expectation of the
# squared witness).  Unitary and wreath use the degree-2 character with
# sup norm 3; the mixture uses the real degree-1 witness with sup norm 2.
_WITNESS = {
    "unitary-free": (9.0, 1.0),
    "unitary-eval": (9.0, 1.0),
    "mixture": (4.0, 2.0),
    "wreath": (9.0, 1.0),
}


def tv_lower(q: WalkQuery) -> float:
    """Chebyshev lower bound on the TV distance at query q.

    The witness expectation m comes from the family's closed form; if the
    witness is out of domain (tau too large) the trivial bound 0 is returned.
    """
    var_bound, h_chi_sq = _WITNESS[q.family]
    try:
        if q.family in ("unitary-free", "unitary-eval"):
            tau_eff = q.effective_tau
            assert tau_eff is not None
            m = chi2_expectation_unitary(q.N, tau_eff, q.k).to_float()
        elif q.family == "mixture":
            m = chi_expectation_mixture(q.N, q.k).to_float()
        else:
            assert q.tau is not None
            m = chi2_expectation_wreath(q.N, q.tau, q.k).to_float()
    except ValueError:
        return 0.0
    return tv_lower_chebyshev(m, var_bound, h_chi_sq)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ProfileRow:
    k: float
    tv_upper_lo: float
    tv_upper_hi: float
    tv_lower: float
    certified: bool
    log_partial: float
    log_tail: float
    hypotheses: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class ProfileResult:
    rows: tuple[ProfileRow, ...]
    monotone_upper: bool
    notes: tuple[str, ...]


def cutoff_profile(
    q: WalkQuery, k_grid: Sequence[float], tc: TruncationConfig | None = None
) -> ProfileResult:
    """One row per k in the grid; the k field of ``q`` is ignored.

    The series intervals of all rows come from one engine pass.  The
    certified upper bound is non-increasing in k whenever every coefficient
    has modulus <= 1; this is checked on the output (with a 1e-12 slack for
    rounding) and reported in ``monotone_upper``.
    """
    if len(k_grid) == 0:
        raise ValueError("k grid must be nonempty")
    queries = [q.with_k(float(k)) for k in k_grid]
    rows: list[ProfileRow] = []
    for qk, A in zip(queries, A_k_grid(q, [qk.k for qk in queries], tc)):
        tv = tv_upper_from_A(A)
        rows.append(
            ProfileRow(
                k=qk.k,
                tv_upper_lo=tv.lower_info,
                tv_upper_hi=tv.upper,
                tv_lower=tv_lower(qk),
                certified=tv.certified,
                log_partial=A.log_partial,
                log_tail=A.log_tail,
                hypotheses=A.hypotheses,
            )
        )
    monotone = True
    prev_hi: float | None = None
    for row in rows:
        if prev_hi is not None and row.certified and row.tv_upper_hi > prev_hi + 1e-12:
            monotone = False
        if row.certified:
            prev_hi = row.tv_upper_hi
    notes = () if monotone else ("certified upper bound failed to be non-increasing along the grid",)
    return ProfileResult(tuple(rows), monotone, notes)
