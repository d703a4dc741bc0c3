"""Independent brute-force evaluation of the truncated series.

These sum the series word by word from the irrep data (dimensions and
normalized coefficients), deliberately bypassing the production engine's
dynamic program, convolution folding, and tail machinery.  Shared pieces are
limited to the u_n evaluator, the moment map, and the word enumeration
order, none of which carry the summation logic under test.
"""

import math

from qgcutoff.numerics import logsumexp, u_seq
from qgcutoff.structures import CircleMeasure, FiniteGroup, GroupState, moment
from qgcutoff.words import (
    coeff_unitary,
    dim_unitary,
    enumerate_unitary,
    enumerate_wreath,
)


def unitary_log_partial(
    N: int,
    t: float,
    nu: CircleMeasure,
    k: float,
    max_total: int,
    max_p: int,
    quad_points: int = 2048,
) -> float:
    """log of sum over truncated words of dim^2 |coeff|^{2k}."""
    terms = []
    for w in enumerate_unitary(max_total, max_p):
        log_dim = dim_unitary(w, N).logmag
        if k == 0.0:
            terms.append(2.0 * log_dim)
            continue
        log_c = coeff_unitary(w, t, nu, N, quad_points).abs_log
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
    us_s = u_seq(s, max_total)
    us_t = u_seq(t_su, max_total)
    terms = []
    for w in enumerate_wreath(group, max_total, max_p):
        idx = w.char_indices()
        log_dim = sum(us_s[i].logmag for i in idx)
        if k == 0.0:
            log_ratio = 0.0
        else:
            if any(us_t[i].sign == 0 for i in idx):
                continue
            log_ratio = sum(us_t[i].logmag - us_s[i].logmag for i in idx)
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
        log_dim = dim_unitary(w, N).logmag
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
        us_t = u_seq(tq, max(w.ns))
        us_N = u_seq(float(N), max(w.ns))
        r = 1.0
        for n in w.ns:
            r *= us_t[n].to_float() / us_N[n].to_float()
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
