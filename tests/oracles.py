"""Independent brute-force evaluation of the truncated series.

These sum the series word by word from the irrep data (dimensions and
normalized coefficients), deliberately bypassing the production engine's
parity classes, convolution folding, array passes and tail machinery.
Shared pieces are limited to the u_n evaluator, the moment map, the exact
Porod rule and the word enumeration order (the block vectors of
``words._compositions``), none of which carry the summation logic under
test.  The words are objects here (``UIrrepWord`` and ``WreathWord``,
yielded one at a time by ``enumerate_unitary`` and ``enumerate_wreath``),
which no engine builds, and a unitary word's log dimension and log
|coefficient| (``dim_unitary``, ``coeff_unitary``) are formed one word at a
time.
``winding_log_partial`` is the general-nu partial the engine ran before its
parity-class rewrite, a dynamic program over the winding state, kept as an
independent reference for that rewrite, and
``mixture_word_loop_log_partial`` is the mixture partial the engine summed
word by word before its array passes.  ``log_u_floats`` is the one-t
``u_seq`` loop with one ``math.log`` per entry, the libm reference for the
``np.log`` that both ``u_seq`` paths now take, and ``verify_scalar_margins``
evaluates every ``verify`` margin one grid point at a time in math-module
floats, on the suites' own grid constants and thresholds, the reference for
their array margins.  ``resolvent_log_recurrence`` is G / (1 - G) one degree
at a time in the log domain, the reference for the engine's degree doubling
at widths where summing every power one at a time is too slow.
``BoundInterval``, ``reference_intervals``, ``tv_upper_reference`` and
``tv_lower_reference`` are the per-row interval assembly and the scalar TV
bounds in math-module floats that the engine ran before its columns, the
references for the bits of ``IntervalGrid`` and of both TV columns;
``interval_rows`` reads a grid's columns back as rows, and
``benchmark_pool`` gives the benchmark's profile and bound invocations.
"""

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from qgcutoff import verify as V
from qgcutoff.bounds import threshold_C, wreath_certificate_threshold
from qgcutoff.numerics import _Q_DOMAIN_EPS, _U_SWITCH, _exp, lambda_moment, logsumexp, q_of, u_seq
from qgcutoff.structures import (
    CircleMeasure,
    FiniteGroup,
    GroupState,
    arg_trace,
    lambda_theta,
    moment,
    porod_rule,
    tau_theta,
    trace_modulus,
)
from qgcutoff.words import _compositions

_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class UIrrepWord:
    """A free-unitary character word: block sizes and the leading sign."""

    ns: tuple[int, ...]
    eps0: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        if len(self.ns) == 0:
            raise ValueError("a word needs at least one block")
        if any(n < 1 for n in self.ns):
            raise ValueError(f"block sizes must be >= 1, got {self.ns}")
        if self.eps0 not in (-1, 1):
            raise ValueError(f"eps0 must be -1 or +1, got {self.eps0}")

    @property
    def p(self) -> int:
        return len(self.ns)

    @property
    def total(self) -> int:
        return sum(self.ns)

    def eps_sequence(self) -> tuple[int, ...]:
        """(eps_1, ..., eps_p) from the parity recursion."""
        eps = self.eps0
        out = []
        for n in self.ns:
            eps = eps if n % 2 == 1 else -eps
            out.append(eps)
        return tuple(out)

    def z_exponent(self) -> int:
        """Total winding exponent carried by the z factors of the word."""
        seq = self.eps_sequence()
        return min(self.eps0, 0) + sum(seq[:-1]) + max(seq[-1], 0)


def enumerate_unitary(max_total: int, max_p: int) -> Iterator[UIrrepWord]:
    """All words with sum(n_i) <= max_total and p <= max_p blocks.

    Deterministic order: p ascending, then the block vector lexicographically,
    then eps0 in (-1, +1).
    """
    for p in range(1, max_p + 1):
        if p > max_total:
            break
        for ns in _compositions(max_total, p).tolist():
            for eps0 in (-1, 1):
                yield UIrrepWord(ns, eps0)


@dataclass(frozen=True)
class WreathWord:
    """A free-wreath character word: p + 1 outer indices and p group labels.

    ``outer`` holds (n_0, ..., n_p) with n_i >= 0; ``gammas`` holds the p
    group-element indices sitting between consecutive characters.
    """

    outer: tuple[int, ...]
    gammas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", tuple(int(n) for n in self.outer))
        object.__setattr__(self, "gammas", tuple(int(g) for g in self.gammas))
        if len(self.outer) == 0:
            raise ValueError("a word needs at least one character")
        if len(self.gammas) != len(self.outer) - 1:
            raise ValueError(
                f"{len(self.outer)} characters need {len(self.outer) - 1} group labels, "
                f"got {len(self.gammas)}"
            )
        if any(n < 0 for n in self.outer):
            raise ValueError(f"outer indices must be >= 0, got {self.outer}")

    @property
    def p(self) -> int:
        return len(self.gammas)

    def char_indices(self) -> tuple[int, ...]:
        """Indices of the u-factors: even for a single character, odd ends and
        even interior otherwise."""
        if self.p == 0:
            return (2 * self.outer[0] + 2,)
        idx = [2 * self.outer[0] + 1]
        for n in self.outer[1:-1]:
            idx.append(2 * n + 2)
        idx.append(2 * self.outer[-1] + 1)
        return tuple(idx)

    @property
    def index_total(self) -> int:
        return sum(self.char_indices())


def _nonneg_vectors(total_max: int, parts: int) -> Iterator[tuple[int, ...]]:
    # all vectors of `parts` entries >= 0 with sum <= total_max, lex ascending
    if parts == 0:
        yield ()
        return
    for first in range(0, total_max + 1):
        for rest in _nonneg_vectors(total_max - first, parts - 1):
            yield (first,) + rest


def enumerate_wreath(group: FiniteGroup, max_total: int, max_p: int) -> Iterator[WreathWord]:
    """All words with character-index total <= max_total and p <= max_p labels.

    Deterministic order: p ascending, then the outer vector lexicographically,
    then the group labels in lexicographic product order.
    """
    n0 = 0
    while 2 * n0 + 2 <= max_total:
        yield WreathWord((n0,), ())
        n0 += 1
    m = group.order
    for p in range(1, max_p + 1):
        budget2 = max_total - 2 * p  # index total is 2*sum(n) + 2p
        if budget2 < 0:
            break
        budget = budget2 // 2
        for vec in _nonneg_vectors(budget, p + 1):
            for gammas in _lex_products(m, p):
                yield WreathWord(vec, gammas)


def _lex_products(m: int, p: int) -> Iterator[tuple[int, ...]]:
    if p == 0:
        yield ()
        return
    for g in range(m):
        for rest in _lex_products(m, p - 1):
            yield (g,) + rest


def dim_unitary(word: UIrrepWord, N: float) -> float:
    """log prod_i u_{n_i}(N); requires N > 2."""
    if N <= 2:
        raise ValueError(f"N must exceed 2, got {N!r}")
    us = u_seq(float(N), max(word.ns)).tolist()
    return sum(us[n] for n in word.ns)


def coeff_unitary(word: UIrrepWord, t: float, nu: CircleMeasure, N: float) -> float:
    """log |m_eps(nu) * prod u_{n_i}(t) / u_{n_i}(N)|, the log modulus of the
    normalized character value; -inf where it vanishes.

    Requires 0 <= t < N and N > 2.  The modulus never exceeds 1.
    """
    if N <= 2:
        raise ValueError(f"N must exceed 2, got {N!r}")
    if not 0.0 <= t < float(N):
        raise ValueError(f"t must lie in [0, N), got t = {t!r}, N = {N!r}")
    nmax = max(word.ns)
    us_t = u_seq(float(t), nmax).tolist()
    us_N = u_seq(float(N), nmax).tolist()
    log_c = 0.0
    for n in word.ns:
        log_c += us_t[n] - us_N[n]
    m = moment(nu, word.z_exponent())
    if m == 0:
        return -math.inf
    return log_c + math.log(abs(m))


def unitary_log_partial(
    N: int,
    t: float,
    nu: CircleMeasure,
    k: float,
    max_total: int,
    max_p: int,
) -> float:
    """log of sum over truncated words of dim^2 |coeff|^{2k}."""
    terms = []
    for w in enumerate_unitary(max_total, max_p):
        log_dim = dim_unitary(w, N)
        if k == 0.0:
            terms.append(2.0 * log_dim)
            continue
        log_c = coeff_unitary(w, t, nu, N)
        if log_c == -math.inf:
            continue
        terms.append(2.0 * log_dim + 2.0 * k * log_c)
    return logsumexp(terms)


def wreath_log_partial(
    N: int,
    tau: float,
    group: FiniteGroup,
    psi: GroupState,
    k: float,
    max_total: int,
    max_p: int,
) -> float:
    """log of sum over truncated words of dim^2 |psi(gamma product)| r^{2k},
    r the product of u-ratios at sqrt(N - tau) over sqrt(N)."""
    s = math.sqrt(float(N))
    t_su = math.sqrt(float(N) - tau)
    us_s = u_seq(s, max_total).tolist()
    us_t = u_seq(t_su, max_total).tolist()
    terms = []
    for w in enumerate_wreath(group, max_total, max_p):
        idx = w.char_indices()
        log_dim = sum(us_s[i] for i in idx)
        if k == 0.0:
            log_ratio = 0.0
        else:
            if any(us_t[i] == -math.inf for i in idx):
                continue
            log_ratio = sum(us_t[i] - us_s[i] for i in idx)
        if w.p:
            val = psi.values[functools.reduce(lambda x, y: group.table[x][y], w.gammas, group.identity)]
            if val == 0:
                continue
            log_psi = math.log(abs(val))
        else:
            log_psi = 0.0
        terms.append(2.0 * log_dim + 2.0 * k * log_ratio + log_psi)
    return logsumexp(terms)


def mixture_log_partial(
    N: int, k: float, max_total: int, max_p: int, quad_points: int = 2048
) -> float:
    """log of sum over truncated words of dim^2 |E_nu[coeff]|^{2k} for the
    Porod mixture, averaging the full complex coefficient per word."""
    nu = CircleMeasure.porod(N)
    terms = []
    for w in enumerate_unitary(max_total, max_p):
        c = moment_average_coeff(w, N, nu, quad_points)
        if c == 0.0:
            continue
        log_dim = dim_unitary(w, N)
        terms.append(2.0 * log_dim + 2.0 * k * math.log(c))
    return logsumexp(terms)


def moment_average_coeff(w, N: int, nu: CircleMeasure, quad_points: int) -> float:
    """|E_theta[e^{i eps beta(theta)} prod u(N - tau_theta)/u(N)]| by direct
    quadrature over the mixture's angle nodes."""
    import numpy as np

    from qgcutoff.structures import arg_trace, porod_nodes, tau_theta

    theta, wt = porod_nodes(N, quad_points)
    vals = np.zeros(theta.size, dtype=complex)
    for j in range(theta.size):
        tq = float(N) - tau_theta(N, float(theta[j]))
        us_t = u_seq(tq, max(w.ns)).tolist()
        us_N = u_seq(float(N), max(w.ns)).tolist()
        r = 1.0
        for n in w.ns:
            r *= math.exp(us_t[n]) / math.exp(us_N[n])
        beta = arg_trace(N, float(theta[j]))
        vals[j] = r * np.exp(1j * w.z_exponent() * beta)
    return abs(complex(np.sum(wt * vals)))


def _log_q(t: float) -> float:
    return math.log(2.0 / (t + math.sqrt(t * t - 4.0)))


def unitary_majorant_logs(N: int, tau: float, k: float) -> tuple[float, float]:
    """(log S, log x) of the unitary per-word majorant 2 S^p x^(total - p)."""
    lq_N, lq_t = _log_q(float(N)), _log_q(N - tau)
    q_t = math.exp(lq_t)
    log_x = (2 * k - 2) * lq_N - 2 * k * lq_t
    log_S = -(2 * k - 2) * math.log(N) - 2 * k * lq_t - 2 * k * math.log1p(-q_t * q_t)
    return log_S, log_x


def wreath_majorant_logs(N: int, tau: float, k: float) -> tuple[float, float]:
    """(log y, log Z) of the wreath per-word majorant Z^{p+1} y^(...)."""
    s = math.sqrt(float(N))
    lq_s, lq_t = _log_q(s), _log_q(math.sqrt(N - tau))
    q_t = math.exp(lq_t)
    log_y = 2.0 * ((2 * k - 2) * lq_s - 2 * k * lq_t)
    log_Z = (2 * k - 2) * (lq_s - math.log(s)) - 4 * k * lq_t - 2 * k * math.log1p(-q_t * q_t)
    return log_y, log_Z


def unitary_tail_majorant(N: int, tau: float, k: float, max_total: int, max_p: int | None,
                          cut: int = 120) -> float:
    """log of the per-word majorant 2 S^p x^(total - p) summed over the words
    outside the truncation (total > max_total or p > max_p; max_p None
    limits no block count), counting the block vectors of each total and p
    as C(total - 1, p - 1); p and total stop at ``cut``, where the terms
    are negligible."""
    log_S, log_x = unitary_majorant_logs(N, tau, k)
    terms = []
    for p in range(1, cut):
        for total in range(p, p + cut):
            if total > max_total or (max_p is not None and p > max_p):
                terms.append(math.log(2.0 * math.comb(total - 1, p - 1)) + p * log_S + (total - p) * log_x)
    return logsumexp(terms)


def wreath_tail_majorant(
    N: int, tau: float, group: FiniteGroup, psi: GroupState, k: float, max_total: int, max_p: int | None,
    cut: int = 120
) -> float:
    """log of the per-word majorant m^{p-1} K(psi) Z^{p+1} y^{sum n - 1}
    (Z y^{n_0} for p = 0), with n the outer vector (n_i >= 0), summed over
    the wreath words outside the truncation (character-index total
    2 sum n + 2p + [p = 0] 2 > max_total, or p > max_p; max_p None limits
    no label count), counting the outer vectors of each sum n as
    C(sum n + p, p); p and sum n stop at ``cut``."""
    log_y, log_Z = wreath_majorant_logs(N, tau, k)
    log_m, log_K = math.log(group.order), math.log(psi.abs_sum())
    terms = [log_Z + n0 * log_y for n0 in range(cut) if 2 * n0 + 2 > max_total]
    for p in range(1, cut):
        for j in range(cut):
            if 2 * j + 2 * p > max_total or (max_p is not None and p > max_p):
                terms.append((p - 1) * log_m + log_K + math.log(math.comb(j + p, p))
                             + (p + 1) * log_Z + (j - 1) * log_y)
    return logsumexp(terms)


def winding_log_partial(g: np.ndarray, log_abs_m: np.ndarray, two_k: float, M: int, P: int) -> float:
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


def mixture_word_loop_log_partial(N: int, ks: Sequence[float], max_total: int, max_p: int) -> list[float]:
    """The mixture partial at every k in ``ks``, one word at a time: each
    word's node product and its two dot products against the cos and sin
    tables on the exact Porod rule of degree (max_total + max_p) // 2, then
    a sequential logsumexp over the words in enumeration order."""
    M, P = max_total, max_p
    D = (M + P) // 2
    theta, wq = porod_rule(N, D)
    tvec = np.array([trace_modulus(N, th) for th in theta])  # = N - tau_theta >= N - 2
    beta = np.array([arg_trace(N, th) for th in theta])

    log_u_N = u_seq(float(N), M)
    # per-node ratio factors u_n(t_theta)/u_n(N), kept as plain floats (<= 1)
    R = np.exp(u_seq(tvec, M) - log_u_N[:, np.newaxis])

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
    # at k = 0 every coefficient power is 1, vanishing ones included
    return [logsumexp((dims if k == 0.0 else dims + 2.0 * k * mods).tolist()) for k in ks]


def resolvent_log_recurrence(step: np.ndarray) -> np.ndarray:
    """log [z^d] G / (1 - G) for d < W and each row of the (K, W) log series
    ``step`` (G_0 = 0), from R = G + G R one degree at a time:
    R_d = log(e^{G_d} + sum_{1 <= i < d} e^{G_i + R_{d-i}}), each sum of
    exps shifted by its largest term and added exactly (``math.fsum``);
    O(W^2) a row."""
    out = np.full(step.shape, -math.inf)
    for row, log_r in zip(step, out):
        for d in range(1, step.shape[1]):
            terms = np.concatenate([row[d : d + 1], row[1:d] + log_r[d - 1 : 0 : -1]])
            hi = terms.max()
            if hi > -math.inf:
                log_r[d] = hi + math.log(math.fsum(np.exp(terms - hi).tolist()))
    return out


def _u_log_closed_form(log_q: float, n: int) -> float:
    # log u_n = -n log q + log(1 - q^{2n+2}) - log(1 - q^2), valid for q < 1
    return -n * log_q + math.log1p(-math.exp((2 * n + 2) * log_q)) - math.log1p(-math.exp(2 * log_q))


def log_u_floats(t: float, nmax: int) -> list[float]:
    """The libm reference for one ``u_seq`` column: the one-t loop ``u_seq``
    ran before its tables took ``np.log``, one ``math.log`` per entry."""
    # one u_seq column, in Python floats: the recurrence, then for t > 2 the
    # closed form from the first u_n at or above _U_SWITCH on (u_n grows in
    # n there)
    out: list[float] = []
    prev, cur = 1.0, t
    for n in range(nmax + 1):
        if t > 2.0 + _Q_DOMAIN_EPS and not prev < _U_SWITCH:
            log_q = math.log(q_of(t))
            return out + [_u_log_closed_form(log_q, m) for m in range(n, nmax + 1)]
        out.append(math.log(abs(prev)) if prev != 0.0 else -math.inf)
        prev, cur = cur, t * cur - prev
    return out



def verify_scalar_margins() -> dict[str, list[list[tuple[float, float]]]]:
    """The margins of every ``verify`` suite and negative control, one grid
    point at a time in Python floats: the formulas the suites evaluated by
    mapping ``q_of``, ``math.log`` and ``math.log1p`` over each array entry
    before they took arrays end to end.  Keyed by suite or control name, a
    list of the blocks the suite counts, in its grid order; each point is
    (margin, scale), scale the largest magnitude among the terms of the
    margin, which sets the rounding the array path may differ by."""
    return {
        "encadrement": _encadrement_margins(1),
        "lower_aux": _lower_aux_margins(0.0),
        "main_inequality": _main_margins(),
        "anqn": _anqn_margins(8.0),
        "ratio_comparison": _ratio_margins(),
        "wreath_inequality": _wreath_margins(),
        "lambda_moment": _lambda_margins(),
        "encadrement_broken": _encadrement_margins(0),
        "lower_aux_broken": _lower_aux_margins(math.log(2.0)),
        "anqn_broken": _anqn_margins(2.0),
    }


def _encadrement_margins(lower_exponent_shift: int) -> list[list[tuple[float, float]]]:
    # t q^{-(n-1)} <= u_n(t) <= q^{-n} / (1 - q^2) in logs, per t, then n,
    # the lower side before the upper
    block = []
    for t in V._geom_floats(V._ENCADREMENT_T_MIN, V._ENCADREMENT_T_MAX, V._ENCADREMENT_T_POINTS):
        q = q_of(t)
        log_q = math.log(q)
        log_den = math.log1p(-q * q)
        log_u = u_seq(t, V._ENCADREMENT_N_MAX)
        for n in range(1, V._ENCADREMENT_N_MAX + 1):
            shifted = (n - lower_exponent_shift) * log_q
            log_lower = math.log(t) - shifted
            log_upper = -n * log_q - log_den
            block.append((log_u[n] - log_lower, max(abs(log_u[n]), abs(math.log(t)), abs(shifted))))
            block.append((log_upper - log_u[n], max(abs(n * log_q), abs(log_den), abs(log_u[n]))))
    return [block]


def _lower_aux_margins(rhs_log_shift: float) -> list[list[tuple[float, float]]]:
    # log N + (N log N / a) log(1 - a/N) - log(e^{-a/2e} / sqrt 2), per a
    blocks = []
    for a in V._LOWER_AUX_AS:
        n_lo = max(int(math.ceil(2.0 * a)), 2)
        ns = sorted({n_lo, *V._geom_ints(n_lo, V._LOWER_AUX_N_MAX, V._LOWER_AUX_N_POINTS)})
        log_rhs = -a / (2.0 * math.e) - 0.5 * math.log(2.0) + rhs_log_shift
        block = []
        for N in map(float, ns):
            log_N = math.log(N)
            power = (N * log_N / a) * math.log1p(-a / N)
            block.append((log_N + power - log_rhs, max(abs(log_N), abs(power), abs(log_rhs))))
        blocks.append(block)
    return blocks


def _main_margins() -> list[list[tuple[float, float]]]:
    # log(N q (1 - q^2)) - tau / N with q = q(N - tau), per tau from the threshold
    blocks = []
    for tau in V._MAIN_TAUS:
        block = []
        for N in range(int(math.ceil(tau + threshold_C(tau))), V._MAIN_N_MAX + 1):
            q = q_of(N - tau)
            terms = (math.log(N), math.log(q), math.log1p(-q * q), tau / N)
            block.append((terms[0] + terms[1] + terms[2] - terms[3], max(map(abs, terms))))
        blocks.append(block)
    return blocks


def _anqn_margins(numerator: float) -> list[list[tuple[float, float]]]:
    # 1 + numerator / (N - 2)^2 - (N - 2 + 2/N) q(N - 2), with q(2) = 1
    block = []
    for N in map(float, sorted({4, *V._geom_ints(4, V._ANQN_N_MAX, V._ANQN_N_POINTS)})):
        t = N - 2.0
        lhs = (N - 2.0 + 2.0 / N) * (q_of(t) if t > 2.0 else 1.0)
        rhs = 1.0 + numerator / (t * t)
        block.append((rhs - lhs, max(lhs, rhs)))
    return [block]


def _ratio_margins() -> list[list[tuple[float, float]]]:
    # 4n / (N - 2)^2 - log(u_n(N - tau_theta) / u_n(N - lambda_theta)), per N,
    # then theta, then n
    count, n_max = V._RATIO_THETAS, V._RATIO_N_MAX
    blocks = []
    for N in V._RATIO_NS:
        block = []
        for j in range(count):
            theta = 2.0 * math.pi * j / count
            up = u_seq(trace_modulus(N, theta), n_max)
            down = u_seq(N - lambda_theta(theta), n_max)
            for n in range(1, n_max + 1):
                bound = 4.0 * n / ((N - 2.0) * (N - 2.0))
                block.append((bound - (up[n] - down[n]), max(abs(bound), abs(up[n]), abs(down[n]))))
        blocks.append(block)
    return blocks


def _wreath_margins() -> list[list[tuple[float, float]]]:
    # -tau / N - log(q(s) / (s q'^2 (1 - q'^2))) with s = sqrt N and
    # q' = q(sqrt(N - tau)), per tau from the threshold
    blocks = []
    for tau in V._WREATH_TAUS:
        block = []
        for N in range(max(int(math.ceil(wreath_certificate_threshold(tau))), 5), V._WREATH_N_MAX + 1):
            s = math.sqrt(N)
            qp = q_of(math.sqrt(N - tau))
            terms = (math.log(q_of(s)), math.log(s), 2.0 * math.log(qp), math.log1p(-qp * qp), tau / N)
            log_lhs = terms[0] - terms[1] - terms[2] - terms[3]
            block.append((-terms[4] - log_lhs, max(map(abs, terms))))
        blocks.append(block)
    return blocks


def _lambda_margins() -> list[list[tuple[float, float]]]:
    # tolerance - |closed form - rule| / |rule|, per N, then l
    blocks = []
    for N in V._LAMBDA_NS:
        theta, w = porod_rule(N, V._LAMBDA_L_MAX)
        lam = 1.0 - np.cos(theta)
        block = []
        for l in range(V._LAMBDA_L_MAX + 1):
            c, r = lambda_moment(N, l), float(np.dot(w, lam**l))
            block.append((V._LAMBDA_TOLERANCE - abs(c - r) / max(abs(r), 1e-300), V._LAMBDA_TOLERANCE))
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# the per-row interval and TV assembly, before the columns


@dataclass(frozen=True)
class BoundInterval:
    """One row of an ``IntervalGrid`` as the engines built it one row at a
    time: [partial, partial + tail] as the logs of both endpoints, with the
    row's hypotheses, certificate text and word count."""

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


def interval_rows(grid) -> list[BoundInterval]:
    """The rows of an ``IntervalGrid``, each field read from its columns."""
    return [
        BoundInterval(grid.terms_used, grid.certificate, certified, grid.hypotheses(i), log_partial, log_tail)
        for i, (certified, log_partial, log_tail) in enumerate(
            zip(grid.certified.tolist(), grid.log_partial.tolist(), grid.log_tail.tolist()))
    ]


def reference_intervals(ks, log_partials, terms, hyps, certificate, tail_keys, tail) -> list[BoundInterval]:
    """``bounds._intervals`` from the same arguments as the engines pass it,
    one row at a time as it was assembled before the columns: the tail
    closure runs once, on the rows where k >= 1 and every required (not
    ``[recorded]``) walk hypothesis holds, and each of those rows takes its
    bound and its hypotheses from the closure's output."""
    walk_ok = all(ok for name, ok in hyps if "[recorded]" not in name)
    rows = [i for i, k in enumerate(ks.tolist()) if walk_ok and k >= 1.0]
    series = {}
    if rows:
        log_tails, oks = tail(2.0 * np.asarray(ks)[rows])
        for i, log_tail, ok in zip(rows, log_tails.tolist(), oks.tolist()):
            series[i] = (log_tail, tuple(zip(tail_keys, ok)))
    out = []
    for i, (k, log_partial) in enumerate(zip(ks.tolist(), log_partials.tolist())):
        row = series.get(i)
        certified = row is not None and row[0] < math.inf
        out.append(BoundInterval(
            terms_used=terms,
            certificate=certificate,
            certified=certified,
            hypotheses=(("k >= 1", k >= 1.0),) + hyps + (row[1] if row is not None else ()),
            log_partial=float(log_partial),
            log_tail=row[0] if certified else math.inf,
        ))
    return out


def tv_upper_reference(A: BoundInterval) -> tuple[float, float, bool, bool]:
    """(lower_info, upper, clamped, certified) of one row, in math-module
    floats: the scalar ``bounds.tv_upper_from_A``."""
    lo = 0.5 * math.exp(0.5 * A.log_partial) if A.log_partial < 700.0 else math.inf
    clamped = False
    if not A.certified:
        return min(lo, 1.0), 1.0, True, False
    log_total = A.log_upper
    hi = 0.5 * math.exp(0.5 * log_total) if log_total < 700.0 else math.inf
    if hi > 1.0:
        hi = 1.0
        clamped = True
    if lo > 1.0:
        lo = 1.0
        clamped = True
    return lo, hi, clamped, True


def _chi2_unitary(N: int, tau: float, k: float) -> float:
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got {N - tau!r}")
    bot = float(N) * N - 1.0
    return _exp(math.log(bot) + k * math.log1p(-tau * (2.0 * N - tau) / bot))


def _chi2_wreath(N: int, tau: float, k: float) -> float:
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got N - tau = {N - tau!r}")
    return _exp(math.log(N - 1.0) + k * math.log1p(-tau / (N - 1.0)))


def _chi_mixture(N: int, k: float) -> float:
    return _exp(math.log(2.0 * N) + k * math.log1p(-2.0 / (N + 1.0)))


def tv_lower_reference(q, k: float) -> float:
    """The Chebyshev lower bound of the walk ``q`` at one k, in math-module
    floats: the scalar ``bounds.tv_lower`` on the scalar walk expectations
    of ``words``."""
    if q.family == "mixture":
        expectation, var_bound, h_chi_sq = (lambda: _chi_mixture(q.N, k)), 4.0, 2.0
    else:
        tau = q.tau if q.theta is None else tau_theta(q.N, q.theta)
        witness = _chi2_wreath if q.family == "wreath" else _chi2_unitary
        expectation, var_bound, h_chi_sq = (lambda: witness(q.N, tau, k)), 9.0, 1.0
    try:
        m = expectation()
    except ValueError:
        return 0.0
    if m <= 0.0 or m * m == 0.0:
        return 0.0
    return max(0.0, 1.0 - 4.0 * (var_bound + h_chi_sq) / (m * m))


def benchmark_pool(directory) -> list[tuple[str, ...]]:
    """The argv of every ``profile`` and ``bound`` invocation in the
    benchmark's pool (``perfbench/workloads.py``), with the input files they
    read written to ``directory``, where they must run."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    invocations = [inv for name in workloads.WORKLOADS for inv in workloads.pool(name)]
    for name, text in workloads.input_files(invocations).items():
        (Path(directory) / name).write_text(text, encoding="utf-8")
    return [inv.argv for inv in invocations if inv.argv[0] in ("profile", "bound")]
