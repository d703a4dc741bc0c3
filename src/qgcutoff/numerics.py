"""Scalar numerics shared by every bound: log-domain arithmetic and the small
zoo of special functions attached to quantum dimension theory.

The central objects are

- ``q_of(t)``: for t > 2, the root in (0, 1) of q + 1/q = t, computed in the
  cancellation-free form 2 / (t + sqrt(t^2 - 4));
- ``u_n(t)``: the dilated Chebyshev polynomials of the second kind,
  u_0 = 1, u_1 = t, u_{n+1} = t u_n - u_{n-1}.  For t > 2 they equal
  (q^{-n-1} - q^{n+1}) / (q^{-1} - q) with q = q_of(t) and grow like q^{-n},
  so large values are carried as logarithms;
- ``wallis(n)``: the Wallis integrals W_n = int_0^{pi/2} sin^n x dx;
- ``lambda_moment(N, l)``: moments of lambda = 1 - cos(theta) under the
  sine-power arc measure used by the uniform mixture of evaluation states;
- ``partitions_exact(n, p)``: the number of partitions of n into exactly p
  parts, exact integer arithmetic.

Quantities whose magnitude is exponential in n or k never leave the log
domain; ``LogScalar`` is the signed log-magnitude carrier used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "LogScalar",
    "q_of",
    "u_n",
    "u_seq",
    "wallis",
    "lambda_moment",
    "partitions_exact",
    "logsumexp",
    "log1mexp",
]

# Tolerance below which t is considered to sit on the parabolic boundary t = 2,
# where q(t) = 1 and the (1 - q)-type denominators vanish.
_Q_DOMAIN_EPS = 1e-9


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as (sign, log of magnitude).

    ``sign`` is -1, 0 or +1; when ``sign == 0`` the magnitude field is 0.0 by
    convention.  Multiplication is exact in this representation up to float
    addition; addition of same-sign values uses a max-shifted log-sum-exp and
    mixed signs a log-difference, so no intermediate overflows occur even when
    the encoded values are far outside double range.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.sign == 0 and self.logmag != 0.0:
            object.__setattr__(self, "logmag", 0.0)

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(0, 0.0)

    @classmethod
    def one(cls) -> "LogScalar":
        return cls(1, 0.0)

    @classmethod
    def from_float(cls, x: float) -> "LogScalar":
        if x == 0.0:
            return cls.zero()
        if math.isnan(x):
            raise ValueError("cannot encode NaN")
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, logmag: float, sign: int = 1) -> "LogScalar":
        if sign == 0 or logmag == -math.inf:
            return cls.zero()
        return cls(sign, logmag)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            m = math.exp(self.logmag)
        except OverflowError:
            m = math.inf
        return m if self.sign > 0 else -m

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        s = self.sign * other.sign
        if s == 0:
            return LogScalar.zero()
        return LogScalar(s, self.logmag + other.logmag)

    def __neg__(self) -> "LogScalar":
        return LogScalar(-self.sign, self.logmag if self.sign else 0.0)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self.logmag, other.logmag
        if self.sign == other.sign:
            hi, lo = (a, b) if a >= b else (b, a)
            return LogScalar(self.sign, hi + math.log1p(math.exp(lo - hi)))
        # opposite signs: result carries the sign of the larger magnitude
        if a == b:
            return LogScalar.zero()
        if a > b:
            s, hi, lo = self.sign, a, b
        else:
            s, hi, lo = other.sign, b, a
        return LogScalar(s, hi + math.log1p(-math.exp(lo - hi)))

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        return self + (-other)

    def __abs__(self) -> "LogScalar":
        return LogScalar(abs(self.sign), self.logmag if self.sign else 0.0)


def logsumexp(items: Iterable[float]) -> float:
    """log(sum(exp(x) for x in items)) with max-shift; -inf for an empty sum.

    Deterministic: accumulates in the iteration order of ``items``.
    """
    xs = [x for x in items if x != -math.inf]
    if not xs:
        return -math.inf
    hi = max(xs)
    if hi == math.inf:
        return math.inf
    acc = 0.0
    for x in xs:
        acc += math.exp(x - hi)
    return hi + math.log(acc)


def log1mexp(logx: float) -> float:
    """log(1 - exp(logx)) for logx < 0, stable near both ends."""
    if logx >= 0.0:
        raise ValueError("argument must be negative (x < 1 required)")
    if logx > -math.log(2.0):
        return math.log(-math.expm1(logx))
    return math.log1p(-math.exp(logx))


def q_of(t: float) -> float:
    """The root in (0, 1) of q + 1/q = t, for t > 2.

    Uses 2 / (t + sqrt(t^2 - 4)), which is exact-to-rounding for large t where
    the textbook form (t - sqrt(t^2 - 4)) / 2 cancels catastrophically.
    Satisfies q(t) <= 2/t.
    """
    if not t > 2.0 + _Q_DOMAIN_EPS:
        raise ValueError(f"q_of requires t > 2, got t = {t!r}")
    return 2.0 / (t + math.sqrt(t * t - 4.0))


def _u_log_closed_form(log_q: float, n: int) -> float:
    # log u_n = -n log q + log(1 - q^{2n+2}) - log(1 - q^2), valid for q < 1
    return -n * log_q + math.log1p(-math.exp((2 * n + 2) * log_q)) - math.log1p(-math.exp(2 * log_q))


def u_n(t: float, n: int) -> LogScalar:
    """u_n(t) for t > 2, as a LogScalar (always positive on this domain).

    Small values come from the three-term recurrence in plain floats; once
    n log t approaches float range the closed form in q = q_of(t) takes over.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = q_of(t)  # also validates t > 2
    if (n + 1) * math.log(t) < 600.0:
        prev, cur = 1.0, t
        for _ in range(n):
            prev, cur = cur, t * cur - prev
        return LogScalar.from_float(prev)
    return LogScalar(1, _u_log_closed_form(math.log(q), n))


def u_seq(t: float, nmax: int) -> list[LogScalar]:
    """[u_0(t), ..., u_nmax(t)] for t >= 0.

    For t > 2 every value is positive and overflow-prone, so the tail of the
    sequence switches to the closed form in q(t).  For 0 <= t <= 2 the values
    stay within [-(n+1), n+1] and may change sign; they come straight from the
    recurrence.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if t < 0:
        raise ValueError(f"u_seq requires t >= 0, got t = {t!r}")
    out: list[LogScalar] = []
    if t > 2.0 + _Q_DOMAIN_EPS:
        log_q = math.log(q_of(t))
        prev, cur = 1.0, t
        for n in range(nmax + 1):
            # u_n is increasing in n here, so once prev leaves float range the
            # closed form takes over for good
            if prev < 1e250:
                out.append(LogScalar.from_float(prev))
                prev, cur = cur, t * cur - prev
            else:
                out.append(LogScalar(1, _u_log_closed_form(log_q, n)))
        return out
    prev, cur = 1.0, t
    for _ in range(nmax + 1):
        out.append(LogScalar.from_float(prev))
        prev, cur = cur, t * cur - prev
    return out


def wallis(n: int) -> float:
    """W_n = int_0^{pi/2} sin^n x dx via W_n = ((n-1)/n) W_{n-2}.

    The product of the (m-1)/m is taken as exp of the correctly rounded sum
    (``math.fsum``) of log1p(-1/m): a few ulp for every n, where the plain
    running product drifts like sqrt(n) ulp (1e-14 at n = 30000).  O(n); no
    caching, so concurrent callers share nothing.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
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
        val *= 2.0 * (N - 2 + 2 * s) / (N - 1 + 2 * s)
    return val


def partitions_exact(n: int, p: int) -> int:
    """Number of partitions of n into exactly p positive parts, exact.

    Iterative DP on pi_p(n) = pi_{p-1}(n-1) + pi_p(n-p); arbitrary-precision
    integers, no shared state.  Zero whenever p > n, or p = 0 with n > 0.
    """
    if n < 0 or p < 0:
        return 0
    if p == 0:
        return 1 if n == 0 else 0
    if p > n:
        return 0
    # row[j] = pi_{cur_p}(j)
    row = [1] + [0] * n
    for cur_p in range(1, p + 1):
        new = [0] * (n + 1)
        for j in range(cur_p, n + 1):
            new[j] = row[j - 1] + new[j - cur_p]
        row = new
    return row[n]
