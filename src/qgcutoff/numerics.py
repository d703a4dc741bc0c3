"""Scalar numerics shared by every bound: the small zoo of special
functions attached to quantum dimension theory.

The central objects are

- ``q_of(t)``: for t > 2, the root in (0, 1) of q + 1/q = t, computed in the
  cancellation-free form 2 / (t + sqrt(t^2 - 4)), for one t or, entry by
  entry with the same bits, a 1-D array of t;
- ``u_seq(t, nmax)``: log |u_n(t)| for n <= nmax, where u_n are the dilated
  Chebyshev polynomials of the second kind, u_0 = 1, u_1 = t,
  u_{n+1} = t u_n - u_{n-1}.  For t > 2 they equal
  (q^{-n-1} - q^{n+1}) / (q^{-1} - q) with q = q_of(t) and grow like q^{-n},
  so they are carried as logarithms.  A 1-D array of t runs the recurrence
  on all its columns at once, as numpy rows, with the roundings and the
  switch to the closed form of the one-t loop, and both paths take the log
  of a block of u_n with one ``np.log``, so each column is bitwise the one-t
  call;
- ``wallis(n)``: the Wallis integrals W_n = int_0^{pi/2} sin^n x dx;
- ``lambda_moment(N, l)``: moments of lambda = 1 - cos(theta) under the
  sine-power arc measure used by the uniform mixture of evaluation states.

Quantities whose magnitude is exponential in n or k are held in the log
domain: plain floats holding a logarithm, -inf for zero.  The one place
they leave it is inside the engine's two series builders, the convolution
powers (``bounds._log_conv_powers``) and the resolvent
(``bounds._log_resolvent``, by degree doubling with positive products
only): a row of log coefficients that is affine in the degree up to a
small residual is taken off that line (the tilt p a + s d for the powers,
z -> z e^{-s} / (1 + e^a) for the resolvent), multiplied as plain floats
(between e^-64 and 1e143 for the powers, e^-64 / 2 and 1 for the
resolvent), and returned as logarithms; every other row stays in the log
domain there too.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "q_of",
    "u_seq",
    "wallis",
    "lambda_moment",
    "log1mexp",
]

# Tolerance below which t is considered to sit on the parabolic boundary t = 2,
# where q(t) = 1 and the (1 - q)-type denominators vanish.
_Q_DOMAIN_EPS = 1e-9

# For t > 2, u_n(t) comes from the recurrence while it stays below this,
# far from float overflow, and from the closed form in q(t) after.
_U_SWITCH = 1e250

# u_seq's array path works in blocks of about this many table entries (at
# least one row).  Each block pays a max, a log and, where a column switches,
# a few mask passes on top of the recurrence's row steps, so fewer blocks are
# cheaper; but a switching block holds several block-sized temporaries, about
# 160 KB over the table at 4096 entries and 300 KB at 8192, and the array
# path is to stay within 256 KB of its table.
_U_BLOCK = 4096

# q_of returns 1 / t above this t: t * t overflows past 2**512, and the
# formula is bitwise 1 / t from about 2**28 on.
_Q_RECIPROCAL_FROM = 2.0**511


# the largest argument at which libm's exp is finite
_LOG_MAX = math.log(sys.float_info.max)


def _exp(x: float) -> float:
    """exp(x), +inf where it overflows (x above about 709.78)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _exp_each(x: np.ndarray) -> np.ndarray:
    """``_exp`` at each entry of a 1-D float array: libm's exponential
    (``math.exp``, mapped in C) per value, as numpy's exp differs from it in
    the last bit on some hosts and a value printed at one k must not depend
    on the grid it came in, and +inf past overflow."""
    out = np.fromiter(map(math.exp, np.minimum(x, _LOG_MAX).tolist()), float, x.size)
    out[x > _LOG_MAX] = math.inf
    return out


def log1mexp(logx: float) -> float:
    """log(1 - exp(logx)) for logx < 0, stable near both ends."""
    if logx >= 0.0:
        raise ValueError("argument must be negative (x < 1 required)")
    if logx > -math.log(2.0):
        return math.log(-math.expm1(logx))
    return math.log1p(-math.exp(logx))


def q_of(t: float | np.ndarray) -> float | np.ndarray:
    """The root in (0, 1) of q + 1/q = t, for finite t > 2.

    Uses 2 / (t + sqrt(t^2 - 4)), which is exact-to-rounding for large t where
    the textbook form (t - sqrt(t^2 - 4)) / 2 cancels catastrophically.
    Above _Q_RECIPROCAL_FROM, where t^2 would overflow, it is 1 / t, which
    is bitwise what the formula gives there.  Satisfies q(t) <= 2/t.

    ``t`` is a float, giving a float, or a 1-D numpy array, giving an array
    of the same size with each entry bitwise the float call at its t (the
    same correctly rounded operations); ValueError names the first t
    outside the domain.
    """
    if not isinstance(t, np.ndarray):
        if not 2.0 + _Q_DOMAIN_EPS < t < math.inf:
            raise ValueError(f"q_of requires finite t > 2, got t = {t!r}")
        if t > _Q_RECIPROCAL_FROM:
            return 1.0 / t
        return 2.0 / (t + math.sqrt(t * t - 4.0))
    ts = t.astype(float, copy=False)
    if ts.ndim != 1:
        raise ValueError("t must be a float or a 1-D array")
    bad = ~((ts > 2.0 + _Q_DOMAIN_EPS) & (ts < math.inf))
    if bad.any():
        raise ValueError(f"q_of requires every t finite and > 2, got t = {ts[bad][0].item()!r}")
    # the formula on t capped at _Q_RECIPROCAL_FROM, so that t * t stays finite
    s = np.minimum(ts, _Q_RECIPROCAL_FROM)
    return np.where(ts > _Q_RECIPROCAL_FROM, 1.0 / ts, 2.0 / (s + np.sqrt(s * s - 4.0)))


def _log_u_floats(t: float, nmax: int) -> np.ndarray:
    # one u_seq column: the recurrence in Python floats, then for t > 2, from
    # the first u_n at or above _U_SWITCH on (u_n grows in n there), the
    # closed form -n log q - log1p(-q^2) exactly as _log_u_table takes it
    us: list[float] = []
    prev, cur = 1.0, t
    for _ in range(nmax + 1):
        if t > 2.0 + _Q_DOMAIN_EPS and not prev < _U_SWITCH:
            break
        us.append(prev)
        prev, cur = cur, t * cur - prev
    out = _log_abs(np.array(us))
    if len(us) > nmax:
        return out
    log_q = math.log(q_of(t))
    n = np.arange(len(us), nmax + 1, dtype=float)
    return np.concatenate([out, -n * log_q - math.log1p(-math.exp(2 * log_q))])


def u_seq(t: float | np.ndarray, nmax: int) -> np.ndarray:
    """log |u_n(t)| for n = 0..nmax and finite t >= 0, -inf where u_n(t) = 0.

    ``t`` is a float, giving shape (nmax + 1,), or a 1-D array, giving
    shape (nmax + 1, t.size) with one column per t, each bitwise the float
    call at its t.  For 0 <= t <= 2 the values stay within [-(n+1), n+1]
    and may vanish; they come straight from the recurrence.  For t > 2 they
    grow like q(t)^{-n}, and past 1e250 the closed form in q(t) takes over.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if np.ndim(t) == 0:
        t = float(t)
        if not 0.0 <= t < math.inf:
            raise ValueError(f"u_seq requires finite t >= 0, got t = {t!r}")
        return _log_u_floats(t, nmax)
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise ValueError("t must be a float or a 1-D array")
    bad = ~((ts >= 0.0) & (ts < math.inf))
    if bad.any():
        raise ValueError(f"u_seq requires every t finite and >= 0, got t = {ts[bad][0].item()!r}")
    return _log_u_table(ts, nmax)


def _log_abs(x: np.ndarray) -> np.ndarray:
    # log |x| entrywise, -inf at zeros: both u_seq paths take this one np.log,
    # so an array column keeps the bits of the one-t call
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x))


def _log_u_table(ts: np.ndarray, nmax: int) -> np.ndarray:
    # _log_u_floats on every column at once, a block of table rows at a
    # time: the recurrence fills the block with u_n, a row a step and with
    # the same two roundings in t * u_n - u_{n-1}; then the entries before
    # their column's switch take _log_abs and the ones after it the closed
    # form.  Past the switch (2n + 2) log q < -1130 (u_n <= q^{-n} /
    # (1 - q^2), and 1 - q^2 > 6e-5 for t > 2 + _Q_DOMAIN_EPS), so the closed
    # form's log1p(-q^{2n+2}) is exactly -0.0 and the entry is
    # -n log q - log1p(-q^2).  The table is the transpose of a C-order
    # (t.size, nmax + 1) array, the memory layout that callers' reductions
    # were written against.
    table = np.empty((ts.size, nmax + 1)).T
    big = ts > 2.0 + _Q_DOMAIN_EPS
    switch_at = np.full(ts.size, nmax + 1)  # nmax + 1 where a column has not switched
    log_q = np.zeros(ts.size)
    log_den = np.zeros(ts.size)
    prev, cur = np.ones(ts.size), ts.copy()
    rows = max(1, _U_BLOCK // max(ts.size, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, nmax + 1, rows):
            block = table[n0 : n0 + rows]
            for row in block:
                row[...] = prev
                nxt = ts * cur
                nxt -= prev
                prev, cur = cur, nxt
            # the max rules out a switch in one pass; NaN (a column past its
            # switch) does not
            if block.max(initial=0.0) < _U_SWITCH:
                block[...] = _log_abs(block)
                continue
            hit = big & (switch_at > nmax) & ~(block < _U_SWITCH)
            new = np.flatnonzero(hit.any(axis=0))
            switch_at[new] = n0 + hit[:, new].argmax(axis=0)
            log_q[new] = [math.log(q_of(x)) for x in ts[new].tolist()]
            log_den[new] = [math.log1p(-math.exp(2 * x)) for x in log_q[new].tolist()]
            n = np.arange(n0, n0 + len(block))
            post = n[:, np.newaxis] >= switch_at
            block[~post] = _log_abs(block[~post])
            closed = np.multiply.outer(-n.astype(float), log_q)
            closed -= log_den
            block[post] = closed[post]
            if switch_at.max() <= nmax:  # every column has switched
                rest = table[n0 + len(block) :]
                np.multiply.outer(-np.arange(n0 + len(block), nmax + 1, dtype=float), log_q, out=rest)
                rest -= log_den
                break
    return table


# From this n on, wallis sums the asymptotic series instead of the product.
_WALLIS_SERIES_FROM = 1000


def wallis(n: int) -> float:
    """W_n = int_0^{pi/2} sin^n x dx = sqrt(pi) Gamma((n+1)/2) / (2 Gamma(n/2 + 1)).

    Below _WALLIS_SERIES_FROM, via W_n = ((n-1)/n) W_{n-2}: the product of
    the (m-1)/m is taken as exp of the correctly rounded sum (``math.fsum``)
    of log1p(-1/m), a few ulp, where the plain running product drifts like
    sqrt(n) ulp.  From there on, in O(1), by the asymptotic series
    W_n = sqrt(pi / (2n)) exp(-1/(4n) + 1/(24 n^3) - 1/(20 n^5)
    + 17/(112 n^7) - ...), cut after the n^-5 term, which leaves a relative
    error below 2e-22.  No caching, so concurrent callers share nothing.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= _WALLIS_SERIES_FROM:
        y = 1.0 / n
        return math.sqrt(0.5 * math.pi * y) * math.exp(y * (-0.25 + y * y * (1.0 / 24.0 - y * y / 20.0)))
    start = 2 if n % 2 == 0 else 3
    val = math.exp(math.fsum(math.log1p(-1.0 / m) for m in range(start, n + 1, 2)))
    return val * (math.pi / 2.0) if n % 2 == 0 else val


def lambda_moment(N: int, l: int) -> float:
    """E[(1 - cos theta)^l] under the arc measure with density proportional to
    |sin(theta/2)|^{N-1} on [0, 2*pi).

    Closed form 2^l * prod_{s=1}^{l} (N - 2 + 2s) / (N - 1 + 2s), obtained by
    telescoping the Wallis recurrence; always <= 2^l.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if l < 0:
        raise ValueError("l must be >= 0")
    val = 1.0
    for s in range(1, l + 1):
        # the quotient first, so that 2 (N - 2 + 2s) cannot overflow
        val *= 2.0 * ((N - 2 + 2 * s) / (N - 1 + 2 * s))
    return val
