"""Log-domain scalars, the q/u_n pair, Wallis integrals, and partition counts.

Oracles here are independent of the package internals: closed forms evaluated
with plain floats, numpy quadrature, itertools enumeration, and the Euler
pentagonal recurrence.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgcutoff.numerics import (
    LogScalar,
    lambda_moment,
    log1mexp,
    logsumexp,
    partitions_exact,
    q_of,
    u_n,
    u_seq,
    wallis,
)


# ---------------------------------------------------------------------------
# q(t)


def test_q_of_half():
    # t = 2.5 gives q = 1/2 exactly: 1/2 + 2 = 5/2
    assert q_of(2.5) == 0.5


@pytest.mark.parametrize("t", [2.001, 2.1, 3.0, 10.0, 97.3, 1e4])
def test_q_of_inverts(t):
    q = q_of(t)
    assert 0.0 < q < 1.0
    assert q + 1.0 / q == pytest.approx(t, rel=1e-12)


def test_q_of_large_t_no_cancellation():
    # naive (t - sqrt(t^2-4))/2 loses all digits here; the reciprocal form must not
    q = q_of(1e6)
    assert q == pytest.approx(1e-6, rel=1e-9)
    assert q <= 2e-6


def test_q_of_domain():
    with pytest.raises(ValueError):
        q_of(2.0)
    with pytest.raises(ValueError):
        q_of(1.5)


# ---------------------------------------------------------------------------
# LogScalar


def test_logscalar_round_trip():
    # exp(log x) costs about |log x| ulps of relative error; 1e-12 covers the
    # whole float range
    for x in [0.0, 1.0, -1.0, 3.7e-200, -2.5e150, 1e-8]:
        assert LogScalar.from_float(x).to_float() == pytest.approx(x, rel=1e-12)


def test_logscalar_zero_and_one():
    z = LogScalar.zero()
    o = LogScalar.one()
    assert z.to_float() == 0.0
    assert o.to_float() == 1.0
    assert (z + o).to_float() == 1.0
    assert (z * o).to_float() == 0.0


def test_logscalar_add_mixed_signs():
    a = LogScalar.from_float(5.0)
    b = LogScalar.from_float(-3.0)
    assert (a + b).to_float() == pytest.approx(2.0, rel=1e-12)
    assert (b + a).to_float() == pytest.approx(2.0, rel=1e-12)
    assert (a - a).to_float() == 0.0


def test_logscalar_huge_values_stay_finite():
    big = LogScalar.from_log(50_000.0)  # e^{50000}, far beyond float range
    s = big + big
    assert s.sign == 1
    assert s.logmag == pytest.approx(50_000.0 + math.log(2.0), rel=1e-12)
    assert (big * big).logmag == pytest.approx(100_000.0)
    assert big.to_float() == math.inf


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_logscalar_add_matches_float(x, y):
    got = (LogScalar.from_float(x) + LogScalar.from_float(y)).to_float()
    want = x + y
    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


@given(
    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_logscalar_mul_matches_float(x, y):
    got = (LogScalar.from_float(x) * LogScalar.from_float(y)).to_float()
    assert got == pytest.approx(x * y, rel=1e-12, abs=1e-300)


def test_logsumexp_basic():
    items = [math.log(1.0)] * 3
    assert logsumexp(items) == pytest.approx(math.log(3.0), rel=1e-15)
    assert logsumexp([]) == -math.inf
    assert logsumexp([-math.inf, 0.0]) == pytest.approx(0.0)


def test_logsumexp_extreme_scale():
    # only the max survives when the rest is 600 e-folds below
    assert logsumexp([0.0, -600.0]) == pytest.approx(math.log1p(math.exp(-600.0)))
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))


def test_log1mexp():
    # reference via expm1, which stays accurate where 1 - exp(lx) cancels
    for lx in [-1e-12, -0.1, -1.0, -50.0]:
        assert log1mexp(lx) == pytest.approx(math.log(-math.expm1(lx)), rel=1e-12)
    with pytest.raises(ValueError):
        log1mexp(0.0)


# ---------------------------------------------------------------------------
# u_n


def test_u_small_cases():
    assert u_n(3.0, 0).to_float() == 1.0
    assert u_n(3.0, 1).to_float() == pytest.approx(3.0)
    assert u_n(3.0, 2).to_float() == pytest.approx(8.0)  # 3*3 - 1
    assert u_n(10.0, 3).to_float() == pytest.approx(10.0 * 99.0 - 10.0)


def _u_plain(t, n):
    prev, cur = 1.0, t
    if n == 0:
        return 1.0
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


@pytest.mark.parametrize("t", [2.1, 2.5, 5.0, 20.0, 200.0])
def test_u_matches_plain_recurrence(t):
    for n in range(0, 61):
        want = _u_plain(t, n)
        got = u_n(t, n).to_float()
        assert got == pytest.approx(want, rel=1e-10), (t, n)


def test_u_no_overflow_at_large_n():
    # u_n(t) ~ q^{-n}/(1 - q^2); n = 10^6 at t = 3 overflows floats but not
    # the log form
    val = u_n(3.0, 1_000_000)
    q = q_of(3.0)
    assert val.sign == 1
    want = -1_000_000 * math.log(q) - math.log1p(-q * q)
    assert val.logmag == pytest.approx(want, rel=1e-12)


def test_u_envelope():
    # t q^{-(n-1)} <= u_n <= q^{-n} / (1 - q^2) for t > 2, n >= 1
    for t in [2.2, 3.0, 7.0]:
        q = q_of(t)
        for n in range(1, 40):
            log_u = u_n(t, n).logmag
            lo = math.log(t) + (n - 1) * (-math.log(q))
            hi = n * (-math.log(q)) - math.log1p(-q * q)
            assert lo - 1e-9 <= log_u <= hi + 1e-9, (t, n)


def test_u_seq_agrees_with_u_n():
    for t in [2.5, 3.0, 30.0]:
        seq = u_seq(t, 50)
        for n in range(51):
            assert seq[n].logmag == pytest.approx(u_n(t, n).logmag, rel=1e-12, abs=1e-12)
            assert seq[n].sign == 1


def test_u_seq_inside_unit_band():
    # 0 <= t <= 2 oscillates; compare against the plain signed recurrence
    for t in [0.0, 0.5, 1.0, 1.9, 2.0]:
        seq = u_seq(t, 30)
        prev, cur = 1.0, t
        vals = [1.0, t] + [0.0] * 29
        for n in range(2, 31):
            prev, cur = cur, t * cur - prev
            vals[n] = cur
        for n in range(31):
            assert seq[n].to_float() == pytest.approx(vals[n], abs=1e-9), (t, n)


def test_u_domain():
    with pytest.raises(ValueError):
        u_n(2.0, 3)  # closed form needs t > 2
    with pytest.raises(ValueError):
        u_seq(-0.5, 4)


# ---------------------------------------------------------------------------
# Wallis integrals and lambda moments


def test_wallis_known_values():
    assert wallis(0) == pytest.approx(math.pi / 2)
    assert wallis(1) == pytest.approx(1.0)
    assert wallis(2) == pytest.approx(math.pi / 4)
    assert wallis(3) == pytest.approx(2.0 / 3.0)
    assert wallis(4) == pytest.approx(3.0 * math.pi / 16.0)


def test_wallis_decreasing_positive():
    vals = [wallis(n) for n in range(40)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", range(0, 31, 3))
def test_wallis_against_quadrature(n):
    x, w = np.polynomial.legendre.leggauss(200)
    phi = (x + 1.0) * (math.pi / 4.0)
    val = float(np.sum(w * np.sin(phi) ** n) * (math.pi / 4.0))
    assert wallis(n) == pytest.approx(val, rel=1e-10)


def test_wallis_ratio_is_quotient():
    # the Wallis recurrence: W_{n+1} / W_{n-1} = n / (n + 1)
    for n in range(1, 30):
        assert wallis(n + 1) / wallis(n - 1) == pytest.approx(n / (n + 1.0), rel=1e-12)


def test_lambda_moment_values():
    assert lambda_moment(10, 0) == 1.0
    # l = 1: 2 * (N-1)/N * W_{N+1}/W_{N-1} ... closed product = 2(N-2+2)/(N-1+2)
    assert lambda_moment(10, 1) == pytest.approx(20.0 / 11.0, rel=1e-14)
    for N in [5, 10, 50]:
        for l in range(7):
            assert lambda_moment(N, l) <= 2.0**l + 1e-12


def test_lambda_moment_against_quadrature():
    # E[(1 - cos theta)^l] under the sin^{N-1}(theta/2) density
    for N in [5, 10, 50]:
        x, w = np.polynomial.legendre.leggauss(800)
        phi = (x + 1.0) * (math.pi / 4.0)  # theta = 2 phi on [0, pi]
        dens = np.sin(phi) ** (N - 1)
        norm = float(np.sum(w * dens))
        for l in range(7):
            lam = 1.0 - np.cos(2.0 * phi)
            val = float(np.sum(w * dens * lam**l) / norm)
            assert lambda_moment(N, l) == pytest.approx(val, rel=1e-8), (N, l)


# ---------------------------------------------------------------------------
# partition counts


def test_partitions_small():
    assert partitions_exact(0, 0) == 1
    assert partitions_exact(4, 2) == 2  # 3+1, 2+2
    assert partitions_exact(6, 3) == 3  # 4+1+1, 3+2+1, 2+2+2
    assert partitions_exact(5, 5) == 1
    assert partitions_exact(3, 5) == 0


def test_partitions_sum_is_partition_function():
    # Euler pentagonal-number recurrence for p(n)
    pn = [1]
    for n in range(1, 41):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * pn[n - g1]
            if g2 <= n:
                total += sign * pn[n - g2]
            j += 1
        pn.append(total)
    for n in range(41):
        assert sum(partitions_exact(n, p) for p in range(n + 1)) + (n == 0) == pn[n] + (n == 0)
        assert sum(partitions_exact(n, p) for p in range(0, n + 1)) == pn[n]


def test_partitions_brute_force():
    def brute(n, p):
        if p == 0:
            return 1 if n == 0 else 0
        count = 0
        for combo in itertools.combinations_with_replacement(range(1, n + 1), p):
            if sum(combo) == n:
                count += 1
        return count

    for n in range(13):
        for p in range(n + 2):
            assert partitions_exact(n, p) == brute(n, p), (n, p)


def test_partitions_generating_bound():
    # sum_n pi_p(n) x^n = x^p / prod_{i<=p}(1-x^i); partial sums stay below it
    for x in [0.1, 0.3, 0.5]:
        for p in [1, 2, 3, 4]:
            closed = x**p / math.prod(1.0 - x**i for i in range(1, p + 1))
            partial = sum(partitions_exact(n, p) * x**n for n in range(0, 60))
            assert partial <= closed + 1e-12
            assert partial == pytest.approx(closed, rel=1e-6)
