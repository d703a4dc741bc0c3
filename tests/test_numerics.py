"""Log-domain sums, the q/u_n pair, Wallis integrals and lambda moments.

Oracles here are independent of the package internals: closed forms evaluated
with plain floats and numpy quadrature.
"""

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgcutoff import cli, numerics
from qgcutoff.numerics import (
    _Q_DOMAIN_EPS,
    _exp,
    _exp_each,
    lambda_moment,
    log1mexp,
    logsumexp,
    q_of,
    u_seq,
    wallis,
)

from oracles import log_u_floats


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


def test_q_of_huge_t_is_the_reciprocal():
    # t * t overflows from 2^512 on; 2 / (t + sqrt(t^2 - 4)) is 1 / t there
    assert q_of(1e200) == 1e-200
    assert q_of(2.0**600) == 2.0**-600
    assert q_of(2.0**511) == 2.0**-511


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_q_of_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match=f"t = {t!r}"):
        q_of(t)


def test_q_of_array_entries_are_bitwise_the_float_call():
    # both sides of _Q_RECIPROCAL_FROM, and the domain's lower edge
    edge = numerics._Q_RECIPROCAL_FROM
    ts = np.concatenate([
        [2.0 + 2e-9, 1e4, 1e200, edge, np.nextafter(edge, math.inf), 2.0**600, 1e308],
        np.geomspace(2.0 + 2e-9, 1e12, 400),
    ])
    got = q_of(ts)
    assert got.shape == ts.shape
    want = np.array([q_of(t) for t in ts.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [2.0, 2.0 + 1e-10, 1.5, -3.0, math.inf, math.nan])
def test_q_of_array_names_the_first_entry_outside_the_domain(bad):
    with pytest.raises(ValueError, match=f"t = {bad!r}"):
        q_of(np.array([3.0, bad, 0.0]))


def test_q_of_empty_array():
    assert q_of(np.array([])).shape == (0,)


def test_q_of_rejects_a_2d_array():
    with pytest.raises(ValueError, match="1-D"):
        q_of(np.full((2, 2), 3.0))


# ---------------------------------------------------------------------------
# log-domain sums


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
# u_n, as log |u_n| from u_seq


def test_u_small_cases():
    assert u_seq(3.0, 2).tolist() == [0.0, math.log(3.0), math.log(8.0)]  # u_2 = 3*3 - 1
    assert math.exp(u_seq(10.0, 3)[3]) == pytest.approx(10.0 * 99.0 - 10.0)
    assert u_seq(3.0, 0).shape == (1,)


def _u_plain(t, n):
    prev, cur = 1.0, t
    if n == 0:
        return 1.0
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


@pytest.mark.parametrize("t", [2.1, 2.5, 5.0, 20.0, 200.0])
def test_u_matches_plain_recurrence(t):
    got = np.exp(u_seq(t, 60))
    for n in range(0, 61):
        assert got[n] == pytest.approx(_u_plain(t, n), rel=1e-10), (t, n)


def test_u_no_overflow_at_large_n():
    # u_n(t) ~ q^{-n}/(1 - q^2); n = 10^6 at t = 3 overflows floats but not
    # the log form
    log_u = u_seq(3.0, 1_000_000)[-1]
    q = q_of(3.0)
    want = -1_000_000 * math.log(q) - math.log1p(-q * q)
    assert log_u == pytest.approx(want, rel=1e-12)


def test_u_envelope():
    # t q^{-(n-1)} <= u_n <= q^{-n} / (1 - q^2) for t > 2, n >= 1
    for t in [2.2, 3.0, 7.0]:
        q = q_of(t)
        log_us = u_seq(t, 39)
        for n in range(1, 40):
            lo = math.log(t) + (n - 1) * (-math.log(q))
            hi = n * (-math.log(q)) - math.log1p(-q * q)
            assert lo - 1e-9 <= log_us[n] <= hi + 1e-9, (t, n)


def test_u_seq_agrees_with_u_n():
    # against the closed form u_n = (q^{-n-1} - q^{n+1}) / (q^{-1} - q),
    # past the switch to it at 1e250 too
    for t in [2.5, 3.0, 30.0, 1e15]:
        q = q_of(t)
        log_us = u_seq(t, 50)
        for n in range(51):
            want = -n * math.log(q) + math.log1p(-q ** (2 * n + 2)) - math.log1p(-q * q)
            assert log_us[n] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_u_seq_inside_unit_band():
    # 0 <= t <= 2 oscillates; compare |u_n| against the plain signed
    # recurrence, and a zero of u_n against -inf
    for t in [0.0, 0.5, 1.0, 1.9, 2.0]:
        log_us = u_seq(t, 30)
        prev, cur = 1.0, t
        vals = [1.0, t] + [0.0] * 29
        for n in range(2, 31):
            prev, cur = cur, t * cur - prev
            vals[n] = cur
        for n in range(31):
            assert math.exp(log_us[n]) == pytest.approx(abs(vals[n]), abs=1e-9), (t, n)
            if vals[n] == 0.0:
                assert log_us[n] == -math.inf, (t, n)
    # u_1(0) = 0 and u_2(1) = 0 exactly
    assert u_seq(0.0, 3)[1] == -math.inf and u_seq(1.0, 3)[2] == -math.inf


def test_u_seq_array_is_bitwise_one_call_per_element():
    ts = [0.0, 0.5, 1.0, 2.0, 2.0 + 1e-10, 2.5, 198.0, 1e15, 2.0**62, 123456.789]
    ts += list(np.random.default_rng(3).uniform(0.0, 50.0, 64))
    for nmax in (0, 1, 48):
        table = u_seq(np.array(ts), nmax)
        assert table.shape == (nmax + 1, len(ts))
        for j, t in enumerate(ts):
            assert np.array_equal(table[:, j], u_seq(t, nmax)), (t, nmax)


def test_u_seq_array_path_holds_one_column_of_python_floats():
    # the table itself is 2.1 MB; a list of every column as Python floats
    # would add about 8 MB on top of it
    ts = np.linspace(0.0, 40.0, 512)
    tracemalloc.start()
    try:
        table = u_seq(ts, 511)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (512, 512)
    assert peak <= table.nbytes + 256 * 1024, peak


_SWITCH_EDGE = 2.0 + _Q_DOMAIN_EPS


def _ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


_U_ARGS = st.one_of(
    st.builds(_ulps_from, st.just(_SWITCH_EDGE), st.integers(-3, 3)),  # the t > 2 edge
    st.sampled_from([0.0, 1.0]),  # u_1(0) = 0, u_2(1) = 0
    st.floats(299.0, 301.0),  # switches to the closed form near n = 100
    st.floats(0.0, 4.0),
    st.floats(0.0, 1e200),
)


@settings(max_examples=200, deadline=None)
@given(ts=st.lists(_U_ARGS, max_size=12), nmax=st.integers(0, 300))
def test_u_seq_array_columns_are_bitwise_the_float_call(ts, nmax):
    table = u_seq(np.array(ts, dtype=float), nmax)
    assert table.shape == (nmax + 1, len(ts))
    for j, t in enumerate(ts):
        assert np.array_equal(table[:, j], u_seq(t, nmax)), (t, nmax)


def test_u_seq_array_rows_after_every_switch_are_bitwise_the_float_call():
    # 64 columns near t = 300 all switch near n = 100, rows before the end of
    # a 300-row table, which then takes the closed form for the rows left
    ts = np.linspace(299.0, 301.0, 64)
    table = u_seq(ts, 300)
    for j, t in enumerate(ts.tolist()):
        assert np.array_equal(table[:, j], u_seq(t, 300)), t


def test_u_seq_array_columns_far_past_the_switch_are_bitwise_the_float_call():
    # most of these 4097 rows come from the closed form, which the one-t call
    # evaluates as one array expression after its recurrence
    ts = [5.0, 198.0, 316.2]
    table = u_seq(np.array(ts), 4096)
    for j, t in enumerate(ts):
        assert np.array_equal(table[:, j], u_seq(t, 4096)), t


def _assert_within_one_ulp_of_libm(got, t, nmax):
    want = np.array(log_u_floats(t, nmax))
    zero = want == -math.inf
    assert np.array_equal(got == -math.inf, zero), (t, nmax)
    err = np.abs(got[~zero] - want[~zero])
    assert (err <= np.spacing(np.abs(want[~zero]))).all(), (t, nmax, err.max())


@settings(max_examples=200, deadline=None)
@given(ts=st.lists(_U_ARGS, max_size=12), nmax=st.integers(0, 300))
def test_u_seq_is_within_one_ulp_of_the_libm_loop(ts, nmax):
    # np.log and math.log may differ in the last bit; the zeros of u_n must
    # stay the -inf entries
    table = u_seq(np.array(ts, dtype=float), nmax)
    for j, t in enumerate(ts):
        _assert_within_one_ulp_of_libm(table[:, j], t, nmax)
        _assert_within_one_ulp_of_libm(u_seq(t, nmax), t, nmax)


@pytest.mark.parametrize("t", [5.0, 198.0])
def test_u_seq_long_columns_are_within_one_ulp_of_the_libm_loop(t):
    _assert_within_one_ulp_of_libm(u_seq(np.array([t]), 4096)[:, 0], t, 4096)
    _assert_within_one_ulp_of_libm(u_seq(t, 4096), t, 4096)


def test_u_seq_array_path_never_runs_the_column_loop(monkeypatch, capsys):
    def refuse(t, nmax):
        raise AssertionError("per-column loop")

    monkeypatch.setattr(numerics, "_log_u_floats", refuse)
    assert u_seq(np.linspace(0.0, 40.0, 512), 60).shape == (61, 512)
    assert u_seq(np.array([]), 7).shape == (8, 0)
    assert cli.main(["verify", "--suite", "all"]) == 0
    pinned = (Path(__file__).parent / "data" / "verify_all_stdout.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == pinned


def test_u_seq_huge_t_takes_the_closed_form():
    # u_2(1e200) overflows, so every n >= 2 comes from q = 1e-200
    log_q = math.log(1e-200)
    for got in (u_seq(1e200, 3), u_seq(np.array([1e200]), 3)[:, 0]):
        assert got[0] == 0.0
        assert got[1:].tolist() == pytest.approx([-n * log_q for n in (1, 2, 3)], rel=1e-15)


@pytest.mark.parametrize("nmax", [0, 1, 3])
def test_u_seq_rejects_infinite_t(nmax):
    with pytest.raises(ValueError, match="t = inf"):
        u_seq(math.inf, nmax)
    with pytest.raises(ValueError, match="t = inf"):
        u_seq(np.array([3.0, math.inf]), nmax)


def test_u_domain():
    with pytest.raises(ValueError):
        u_seq(-0.5, 4)
    with pytest.raises(ValueError):
        u_seq(math.nan, 4)
    with pytest.raises(ValueError):
        u_seq(np.array([3.0, -1.0]), 4)
    with pytest.raises(ValueError):
        u_seq(3.0, -1)


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 57, 600, 998, 999, 1000, 1001, 4097, 10**6, 10**7, 2**40, 2**53, 10**20])
def test_wallis_matches_50_digit_gamma_form(n):
    # product below the series switch at n = 1000, asymptotic series from it on
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    want = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n + 1) / 2) * mp.rgamma(mp.mpf(n) / 2 + 1) / 2
    assert abs(float((wallis(n) - want) / want)) <= 4 * 2.0**-53, n


def test_wallis_is_constant_time_for_large_n():
    # the O(n) product takes about 0.8 s at n = 1e7, the series a few microseconds
    start = time.perf_counter()
    wallis(10**7)
    assert time.perf_counter() - start < 0.1


def test_lambda_moment_values():
    assert lambda_moment(10, 0) == 1.0
    # l = 1: 2 * (N-1)/N * W_{N+1}/W_{N-1} ... closed product = 2(N-2+2)/(N-1+2)
    assert lambda_moment(10, 1) == pytest.approx(20.0 / 11.0, rel=1e-14)
    for N in [5, 10, 50]:
        for l in range(7):
            assert lambda_moment(N, l) <= 2.0**l + 1e-12


def test_lambda_moment_at_a_huge_N_stays_within_its_bound():
    # 2 (N - 2 + 2s) overflows a float from about 9e307, so the quotient
    # is taken first
    for l in range(11):
        val = lambda_moment(10**308, l)
        assert math.isfinite(val) and val <= 2.0**l, l


def test_exp_each_is_exp_bitwise_at_the_overflow_edge():
    edge = 709.782712893384  # log of the largest float
    xs = [709.0, edge, math.nextafter(edge, math.inf), math.inf, -math.inf, math.nan]
    assert [v.hex() for v in _exp_each(np.array(xs)).tolist()] == [_exp(x).hex() for x in xs]


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
