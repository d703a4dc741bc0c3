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
word by word before its array passes.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from qgcutoff.numerics import logsumexp, u_seq
from qgcutoff.structures import (
    CircleMeasure,
    FiniteGroup,
    GroupState,
    arg_trace,
    moment,
    porod_rule,
    trace_modulus,
)
from qgcutoff.words import _compositions


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
            val = psi.value_of_product(w.gammas)
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


def unitary_tail_majorant(N: int, tau: float, k: float, max_total: int, max_p: int, cut: int = 120) -> float:
    """log of the per-word majorant 2 S^p x^(total - p) summed over the words
    outside the truncation (total > max_total or p > max_p), counting the
    block vectors of each total and p as C(total - 1, p - 1); p and total
    stop at ``cut``, where the terms are negligible."""
    lq_N, lq_t = _log_q(float(N)), _log_q(N - tau)
    q_t = math.exp(lq_t)
    log_x = (2 * k - 2) * lq_N - 2 * k * lq_t
    log_S = -(2 * k - 2) * math.log(N) - 2 * k * lq_t - 2 * k * math.log1p(-q_t * q_t)
    terms = []
    for p in range(1, cut):
        for total in range(p, p + cut):
            if total > max_total or p > max_p:
                terms.append(math.log(2.0 * math.comb(total - 1, p - 1)) + p * log_S + (total - p) * log_x)
    return logsumexp(terms)


def wreath_tail_majorant(
    N: int, tau: float, group: FiniteGroup, psi: GroupState, k: float, max_total: int, max_p: int, cut: int = 120
) -> float:
    """log of the per-word majorant m^{p-1} K(psi) Z^{p+1} y^{sum n - 1}
    (Z y^{n_0} for p = 0) summed over the wreath words outside the
    truncation (character-index total 2 sum n + 2p + [p = 0] 2 > max_total,
    or p > max_p), counting the outer vectors of each sum n as
    C(sum n + p, p); p and sum n stop at ``cut``."""
    s = math.sqrt(float(N))
    lq_s, lq_t = _log_q(s), _log_q(math.sqrt(N - tau))
    q_t = math.exp(lq_t)
    log_y = 2.0 * ((2 * k - 2) * lq_s - 2 * k * lq_t)
    log_Z = (2 * k - 2) * (lq_s - math.log(s)) - 4 * k * lq_t - 2 * k * math.log1p(-q_t * q_t)
    log_m, log_K = math.log(group.order), math.log(psi.abs_sum())
    terms = [log_Z + n0 * log_y for n0 in range(cut) if 2 * n0 + 2 > max_total]
    for p in range(1, cut):
        for j in range(cut):
            if 2 * j + 2 * p > max_total or p > max_p:
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
