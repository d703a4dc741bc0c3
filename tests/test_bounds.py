"""The certified series engine: thresholds, partial sums against brute-force
oracles, tail soundness, truncation containment, and the TV conversions.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qgcutoff.bounds import (
    DEFAULT_TRUNCATION,
    MIXTURE_DEFAULT_TRUNCATION,
    MAX_K,
    MAX_P,
    A_k_grid,
    TruncationConfig,
    WalkQuery,
    cutoff_profile,
    nominal_cutoff,
    threshold_C,
    threshold_D,
    threshold_Q,
    tv_lower,
    tv_lower_chebyshev,
    tv_upper_from_A,
    wreath_certificate_threshold,
)
from qgcutoff import bounds, cli, structures
from qgcutoff.numerics import _exp, u_seq
from qgcutoff.structures import (
    CircleMeasure,
    GroupState,
    cyclic_group,
    load_cayley,
    load_group_state,
    moment,
    trivial_state,
)
from qgcutoff.words import count_unitary, eval_state_params

from oracles import (
    UIrrepWord,
    benchmark_pool,
    enumerate_unitary,
    enumerate_wreath,
    interval_rows,
    logsumexp,
    reference_intervals,
    tv_lower_reference,
    tv_upper_reference,
    mixture_log_partial,
    mixture_pass_log_partial,
    mixture_word_loop_log_partial,
    resolvent_log_recurrence,
    unitary_log_partial,
    unitary_majorant_logs,
    composition_tail_majorant,
    mixture_majorant_logs,
    unitary_tail_majorant,
    winding_log_partial,
    wreath_log_partial,
    wreath_majorant_logs,
    wreath_tail_majorant,
)


# ---------------------------------------------------------------------------
# closed-form thresholds


def test_threshold_C_values():
    want2 = (2.0 / (2.0 * math.sqrt(5.0))) * (2.0 + math.sqrt(2.0 + 9.0 * 4.0))
    assert threshold_C(2.0) == pytest.approx(want2, rel=1e-14)
    assert threshold_C(2.0) == pytest.approx(3.6512369414179595, rel=1e-12)
    want5 = (2.0 / (5.0 * math.sqrt(5.0))) * (2.0 + math.sqrt(2.0 + 9.0 * 25.0))
    assert threshold_C(5.0) == pytest.approx(want5, rel=1e-14)
    with pytest.raises(ValueError):
        threshold_C(0.0)


def test_threshold_D_values():
    # D(2) = 2/2 + 4 + sqrt(6 + 3) = 8 exactly
    assert threshold_D(2.0) == pytest.approx(8.0, abs=1e-12)
    assert threshold_D(1.0) == pytest.approx(2.0 + 2.0 + math.sqrt(4.5), rel=1e-14)


def test_threshold_Q_values():
    assert threshold_Q(2.0) == pytest.approx(186.0 / 7.0, rel=1e-14)
    assert wreath_certificate_threshold(2.0) == pytest.approx(186.0 / 7.0, rel=1e-14)
    assert wreath_certificate_threshold(3.0) == pytest.approx((2405.0 / 28.0) / 5.0, rel=1e-14)
    with pytest.raises(ValueError):
        wreath_certificate_threshold(1.75)  # needs tau > 7/4


def test_nominal_cutoff():
    q = WalkQuery.unitary(20, 2.0)
    assert nominal_cutoff(q) == pytest.approx(20.0 * math.log(20.0) / 2.0)
    qe = WalkQuery.eval_point(20, math.pi)
    assert nominal_cutoff(qe) == pytest.approx(20.0 * math.log(20.0) / 2.0)
    qm = WalkQuery.mixture(20)
    assert nominal_cutoff(qm) == pytest.approx(20.0 * math.log(20.0) / 2.0)


# ---------------------------------------------------------------------------
# partial sums against the brute-force oracle


@pytest.mark.parametrize("query", [
    WalkQuery.unitary(40, 2.0, CircleMeasure.haar()),
    WalkQuery.unitary(40, 2.0, CircleMeasure.atomic([(0.0, 0.6), (2.0, 0.4)])),
    WalkQuery.unitary(40, 2.0, CircleMeasure.porod(40)),
    WalkQuery.mixture(40),
], ids=["haar", "atoms", "porod", "mixture"])
def test_max_p_above_max_total_runs_as_max_p_equal_to_max_total(query):
    # no word has more blocks than its index total, so a max_p above
    # max_total is stored as max_total: the intervals, hypotheses included,
    # are bitwise those of (max_total, max_total)
    ks = [1.0, 40.0, 120.0]
    clamped = TruncationConfig(max_p=12, max_total=5)
    assert clamped.max_p == 5
    got = interval_rows(A_k_grid(query, ks, clamped))
    want = interval_rows(A_k_grid(query, ks, TruncationConfig(max_p=5, max_total=5)))
    assert repr(got) == repr(want)
    assert any(A.certified for A in got) and not all(A.certified for A in got)


def test_unitary_partial_matches_oracle_delta():
    # a point mass sums the words of every block count: max_p is not read
    N, tau, k = 12, 2.0, 4.0
    tc = TruncationConfig(max_p=5, max_total=10)
    q = WalkQuery.unitary(N, tau)
    got = A_k_grid(q, [k], tc).log_partial[0]
    want = unitary_log_partial(N, N - tau, CircleMeasure.delta(0.0), k, 10, 10)
    assert got == pytest.approx(want, abs=1e-9)


def test_unitary_partial_matches_oracle_atomic():
    # non-trivial winding moments exercise the stop-exponent bookkeeping
    N, k = 12, 3.5
    nu = CircleMeasure.atomic([(0.0, 0.6), (2.0, 0.4)])
    tc = TruncationConfig(max_p=4, max_total=9)
    q = WalkQuery("unitary-free", N, tau=2.0, nu=nu)
    got = A_k_grid(q, [k], tc).log_partial[0]
    want = unitary_log_partial(N, 10.0, nu, k, 9, 4)
    assert got == pytest.approx(want, abs=1e-9)


def test_unitary_partial_matches_oracle_k_zero():
    # k = 0 collapses every coefficient power to 1: partial = sum of dim^2
    N = 12
    tc = TruncationConfig(max_p=3, max_total=6)
    q = WalkQuery.unitary(N, 2.0)
    got = A_k_grid(q, [0.0], tc).log_partial[0]
    want = unitary_log_partial(N, 10.0, CircleMeasure.delta(0.0), 0.0, 6, 6)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize(
    "query, t, nu",
    [
        # (walk, k) pairs; nonzero angle: every |m_eps| = 1 but the moments themselves differ
        ((WalkQuery.unitary(12, 2.0, CircleMeasure.delta(1.7)), 4.0), 10.0, CircleMeasure.delta(1.7)),
        ((WalkQuery.eval_point(15, 1.1), 9.0),) + eval_state_params(15, 1.1),
        # t = 1: u_2(1) = 0, so words with a 2-block vanish for k > 0 only
        ((WalkQuery.unitary(3, 2.0), 2.0), 1.0, CircleMeasure.delta(0.0)),
        ((WalkQuery.unitary(3, 2.0), 0.0), 1.0, CircleMeasure.delta(0.0)),
    ],
)
def test_point_mass_partial_matches_oracle(query, t, nu):
    walk, k = query
    tc = TruncationConfig(max_p=4, max_total=9)
    got = A_k_grid(walk, [k], tc).log_partial[0]
    want = unitary_log_partial(walk.N, t, nu, k, 9, 9)
    assert math.isfinite(got)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_trivial_state():
    N, tau, k = 12, 2.0, 4.0
    g = cyclic_group(2)
    psi = trivial_state(g)
    tc = TruncationConfig(max_p=4, max_total=10)
    q = WalkQuery.wreath(N, tau, g, psi)
    got = A_k_grid(q, [k], tc).log_partial[0]
    want = wreath_log_partial(N, tau, g, psi, k, 10, 5)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_nontrivial_state():
    N, tau, k = 14, 2.0, 2.5
    g = cyclic_group(2)
    psi = GroupState.from_values(g, [1.0, 0.5])
    tc = TruncationConfig(max_p=4, max_total=10)
    q = WalkQuery.wreath(N, tau, g, psi)
    got = A_k_grid(q, [k], tc).log_partial[0]
    want = wreath_log_partial(N, tau, g, psi, k, 10, 5)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_z3():
    N, tau, k = 30, 3.0, 10.0
    g = cyclic_group(3)
    psi = trivial_state(g)
    tc = TruncationConfig(max_p=3, max_total=8)
    q = WalkQuery.wreath(N, tau, g, psi)
    got = A_k_grid(q, [k], tc).log_partial[0]
    want = wreath_log_partial(N, tau, g, psi, k, 8, 4)
    assert got == pytest.approx(want, abs=1e-9)


# the doubling rounds of the power helper change after 4 and after 8
# powers, and the resolvent's rounds after 8 factors (M = 8, 10, 11); a
# point mass sums every block count
@pytest.mark.parametrize("P", [6, 8, 9])
@pytest.mark.parametrize("nu", [CircleMeasure.delta(0.0), CircleMeasure.haar()], ids=["delta", "haar"])
def test_unitary_partial_matches_oracle_across_doubling_rounds(nu, P):
    N, k, M = 12, 4.0, P + 2
    q = WalkQuery("unitary-free", N, tau=2.0, nu=nu)
    got = A_k_grid(q, [k], TruncationConfig(max_p=P, max_total=M)).log_partial[0]
    blocks = M if nu.point_mass_weight() is not None else P
    assert got == pytest.approx(unitary_log_partial(N, N - 2.0, nu, k, M, blocks), abs=1e-9)


# the wreath sums every label count, max_total // 2 at most, whatever max_p:
# X reaches degree 0 to 8 (0 to 3 resolvent rounds), down to one label at
# max_total 2 and 3, and max_total may be odd
@pytest.mark.parametrize(
    "P, M, dihedral",
    [
        pytest.param(6, 12, False, id="6"),
        pytest.param(8, 16, False, id="8"),
        pytest.param(9, 18, False, id="9"),
        pytest.param(5, 5, False, id="P-above-M/2-5-5"),
        pytest.param(6, 7, False, id="P-above-M/2-6-7"),
        pytest.param(4, 11, False, id="odd-M-4-11"),
        pytest.param(1, 10, False, id="one-label-1-10"),
        pytest.param(2, 2, False, id="M-2-2-2"),
        pytest.param(3, 3, False, id="M-3-3-3"),
        pytest.param(4, 9, True, id="dihedral-file-psi-4-9"),
    ],
)
def test_wreath_partial_matches_oracle_z3_across_doubling_rounds(P, M, dihedral):
    N, tau, k = 30, 3.0, 10.0
    if dihedral:
        # D_4 from its Cayley table, psi from a state file: the average of
        # the trivial character and the normalized 2-dimensional one, which
        # is 0 at r^2
        g = _dihedral_group(4)
        psi = load_group_state(g, "1 0\n0.5 0\n0 0\n0.5 0\n" + "0.5 0\n" * 4)
    else:
        g = cyclic_group(3)
        psi = trivial_state(g)
    q = WalkQuery.wreath(N, tau, g, psi)
    got = A_k_grid(q, [k], TruncationConfig(max_p=P, max_total=M)).log_partial[0]
    assert got == pytest.approx(wreath_log_partial(N, tau, g, psi, k, M, M // 2), abs=1e-9)


def test_wreath_partial_empty_truncation():
    # max_total = 1 admits no wreath word: the partial is an empty sum
    g = cyclic_group(2)
    q = WalkQuery.wreath(40, 2.0, g, trivial_state(g))
    assert A_k_grid(q, [30.0], TruncationConfig(max_p=1, max_total=1)).log_partial[0] == -math.inf


def test_mixture_partial_matches_oracle():
    # the engine's exact rule vs a per-word Gauss-Legendre quadrature
    N, k = 12, 6.0
    tc = TruncationConfig(max_p=2, max_total=4)
    got = A_k_grid(WalkQuery.mixture(N), [k], tc).log_partial[0]
    want = mixture_log_partial(N, k, 4, 2, quad_points=512)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("max_p, max_total", [(1, 1), (1, 2), (2, 4), (3, 9), (5, 10), (6, 16)])
@pytest.mark.parametrize("N", [6, 7, 12, 100, 600, 10**6])
def test_mixture_partial_matches_the_word_loop(N, max_p, max_total):
    # the array passes against the word-by-word loop they replaced: each
    # word's average on the L nodes may move by about L ulp, which the power
    # 2k multiplies; the loop adds the W terms one by one, so its sum may be
    # off by up to W / 2 ulp (9.6e-14 relative at N = 100, (6, 16), k = 0,
    # where the engine's sum is the correctly rounded one)
    q = WalkQuery.mixture(N)
    ks = [0.0, 1.0, nominal_cutoff(q) + N]
    got = A_k_grid(q, ks, TruncationConfig(max_p=max_p, max_total=max_total)).log_partial.tolist()
    want = mixture_word_loop_log_partial(N, ks, max_total, max_p)
    L = 2 * ((max_total + max_p) // 2) + 1
    W = count_unitary(max_total, max_p)
    for k, g, w in zip(ks, got, want):
        assert abs(g - w) <= 2.0 * k * L * 2.0**-52 + 1e-13 + W * 2.0**-53, (k, g, w)


@pytest.mark.parametrize("N", [12, 100, 300, 2**20])
def test_mixture_levels_match_the_per_block_count_pass_bit_for_bit(N):
    # each level extends the one before it, with the same products, sums
    # and order as one pass per block count over its block vectors, so
    # every partial keeps its bits; (7, 17) holds the largest level of any
    # admissible truncation, (1, 2046) the largest ratio table
    q = WalkQuery.mixture(N)
    ks = [0.0, 0.5, 1.0, nominal_cutoff(q), nominal_cutoff(q) + N, 1e300]
    for max_p, max_total in [(1, 1), (3, 3), (5, 10), (6, 16), (7, 17), (2, 300), (1, 2046)]:
        got = A_k_grid(q, ks, TruncationConfig(max_p=max_p, max_total=max_total)).log_partial
        want = mixture_pass_log_partial(N, ks, max_total, max_p)
        assert got.tobytes() == want.tobytes(), (max_p, max_total)


def test_mixture_partial_does_not_depend_on_the_block_size(monkeypatch):
    # with 64-float blocks every block vector and every grid row is a block
    # of its own; each word and each grid row is computed alone either way
    cases = [(12, TruncationConfig(max_p=5, max_total=10)), (600, TruncationConfig(max_p=3, max_total=9)),
             (100, TruncationConfig(max_p=1, max_total=300))]

    def partials():
        out = []
        for N, tc in cases:
            q = WalkQuery.mixture(N)
            ks = [0.0, 0.5, 1.0, nominal_cutoff(q), nominal_cutoff(q) + N, 1e300]
            out.append(A_k_grid(q, ks, tc).log_partial.tolist())
        return out

    before = partials()
    monkeypatch.setattr(bounds, "_BLOCK_TERMS", 64)
    assert partials() == before


def test_mixture_vanishing_coefficients_count_one_at_k_zero(monkeypatch):
    # at k = 0 every coefficient power is 1, also where a word's average is
    # 0; with zero rule weights every average vanishes
    q, tc = WalkQuery.mixture(20), TruncationConfig(max_p=2, max_total=4)
    want = A_k_grid(q, [0.0], tc).log_partial[0]
    rule = structures.porod_rule
    monkeypatch.setattr(bounds, "porod_rule", lambda N, D: (rule(N, D)[0], np.zeros(2 * D + 1)))
    assert A_k_grid(q, [0.0, 1.0, 30.0], tc).log_partial.tolist() == [want, -math.inf, -math.inf]


@pytest.mark.parametrize("N", [6, 7, 8, 12, 40])
def test_mixture_coefficient_has_bounded_degree(N):
    # a word's per-angle coefficient e^{i eps beta(theta)} prod u_n(t_theta)
    # has no frequency above (sum n + |eps|) // 2, and |eps| is at most the
    # number of odd blocks: so the engine's rule of degree
    # (max_total + max_p) // 2 averages every word exactly
    theta = 2.0 * math.pi * np.arange(1024) / 1024
    z = N - 1.0 + np.exp(1j * theta)
    u = np.exp(u_seq(np.abs(z), 24))  # u_n(t) > 0 for t >= N - 2 > 2
    freq = np.abs(np.fft.fftfreq(1024, 1.0 / 1024))
    for M, P in ((10, 5), (16, 3), (24, 2)):
        for word in enumerate_unitary(M, P):
            eps = word.z_exponent()
            assert abs(eps) <= sum(n % 2 for n in word.ns), word
            coeff = np.abs(np.fft.fft(np.exp(1j * eps * np.angle(z)) * np.prod(u[list(word.ns)], axis=0)))
            assert coeff[freq > (word.total + abs(eps)) // 2].max(initial=0.0) <= 1e-14 * coeff.max(), word


def _mixture_log_partial_30_digits(N, k, max_total, max_p):
    """The mixture partial from 30-digit integrals over phi = theta / 2 of
    each word's per-angle coefficient against sin^(N-1) phi, split at
    pi/2, where the law crowds, and 40 widths 1/sqrt(N) either side."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30

    def u(n, t):
        prev, cur = mp.mpf(1), t
        for _ in range(n):
            prev, cur = cur, t * cur - prev
        return prev

    width = 40 / mp.sqrt(N)
    cuts = [0, mp.pi / 2 - width, mp.pi / 2, mp.pi / 2 + width, mp.pi]
    mass = mp.quad(lambda phi: mp.sin(phi) ** (N - 1), cuts)
    terms = []
    for word in enumerate_unitary(max_total, max_p):
        eps = word.z_exponent()

        def coeff(phi):
            z = N - 1 + mp.expj(2 * phi)
            return mp.expj(eps * mp.arg(z)) * mp.fprod(u(n, abs(z)) / u(n, mp.mpf(N)) for n in word.ns)

        c = mp.mpc(mp.quad(lambda phi: coeff(phi).real * mp.sin(phi) ** (N - 1), cuts),
                   mp.quad(lambda phi: coeff(phi).imag * mp.sin(phi) ** (N - 1), cuts)) / mass
        dim = mp.fprod(u(n, mp.mpf(N)) for n in word.ns)
        terms.append(dim**2 * abs(c) ** (2 * mp.mpf(k)))
    return float(mp.log(mp.fsum(terms)))


@pytest.mark.parametrize("N", [10**6, 10**7])
def test_mixture_partial_at_large_N_matches_30_digit_integral(N):
    # 2048 Gauss-Legendre nodes held 0.933 of the Porod mass at N = 1e6 and
    # 0.0043 at 1e7, which put the partial off by about 1e6 and 1e9; the
    # exact rule is off by its rounding times 2k (3e-7 at N = 1e7)
    k = N * math.log(N) / 2 + N
    got = A_k_grid(WalkQuery.mixture(N), [k], TruncationConfig(max_p=1, max_total=2)).log_partial[0]
    assert got == pytest.approx(_mixture_log_partial_30_digits(N, k, 2, 1), abs=1e-6)


def test_eval_family_routes_to_central_state():
    # evaluation at angle theta must agree exactly with the central state at
    # t = |N - 1 + e^{i theta}| and the single-atom measure at its argument
    from qgcutoff.words import eval_state_params

    N, theta, k = 15, 1.1, 9.0
    tc = TruncationConfig(max_p=4, max_total=12)
    qe = WalkQuery.eval_point(N, theta)
    t, nu = eval_state_params(N, theta)
    qf = WalkQuery("unitary-free", N, tau=N - t, nu=nu)
    a = interval_rows(A_k_grid(qe, [k], tc))[0]
    b = interval_rows(A_k_grid(qf, [k], tc))[0]
    assert a.log_partial == pytest.approx(b.log_partial, abs=1e-12)


# ---------------------------------------------------------------------------
# the general-nu partial by parity class and the log-domain convolution

_PARITY_NUS = {
    "haar": CircleMeasure.haar(),
    "atoms": CircleMeasure.atomic([(0.3, 0.25), (2.0, 0.5), (4.0, 0.25)]),
    # m_eps = 0 for every odd eps
    "atoms-antipodal": CircleMeasure.atomic([(0.0, 0.5), (math.pi, 0.5)]),
    "porod": CircleMeasure.porod(40),
    "delta": CircleMeasure.delta(1.7),
}
_PARITY_TRUNCATIONS = [(1, 1), (2, 1), (3, 2), (5, 5), (8, 3), (20, 7), (48, 12)]
_PARITY_KS = [0.0, 0.5, 1.0, 7.3, 1e4, 1e300]


def _log_abs_moments(nu, P):
    """log |m_e(nu)| for |e| <= P at index e + P; -inf where m_e = 0."""
    out = np.full(2 * P + 1, -math.inf)
    for e in range(-P, P + 1):
        m = abs(moment(nu, e))
        if m > 0.0:
            out[e + P] = math.log(m)
    return out


@pytest.mark.parametrize("nu_name", sorted(_PARITY_NUS))
@pytest.mark.parametrize(
    "N, tau",
    [
        (3, 0.5),
        (3, 1.0),  # t = 2
        (4, 2.5),  # t < 2: u_n(t) changes sign and some vanish
        (5, 2.0),
        (40, 2.0),
        (10**5, 3.0),
        (2**40, 2.0),
    ],
)
def test_parity_partial_matches_winding_oracle(N, tau, nu_name):
    nu = _PARITY_NUS[nu_name]
    two_k = 2.0 * np.array(_PARITY_KS)
    for M, P in _PARITY_TRUNCATIONS:
        g = bounds._log_coeff_table(two_k, u_seq(N - tau, M), u_seq(float(N), M))
        log_abs_m = _log_abs_moments(nu, P + 1)
        got = bounds._parity_log_partials(g, log_abs_m[P + 1 : -1], two_k, M, P)
        for row, tk, value in zip(g, two_k, got):
            want = winding_log_partial(row, log_abs_m, tk, M, P)
            if math.isinf(want):
                assert value == want, (M, P, tk)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12), (M, P, tk)


@pytest.mark.parametrize("N, tv_upper_hi", [(3 * 10**5, 0.01295637), (10**6, 0.01295722)])
def test_porod_bound_at_large_N_matches_50_digit_moments(capsys, N, tv_upper_hi):
    # a 2048-node quadrature keeps only 0.933 of the Porod mass at N = 1e6,
    # so only exact moments give the partial of about -7.306
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    assert cli.main(["bound", "--family", "unitary", "--N", str(N), "--tau", "2", "--nu", "porod", "--c", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    M, P = DEFAULT_TRUNCATION.max_total, DEFAULT_TRUNCATION.max_p
    h = mp.mpf(N - 1) / 2
    log_abs_m = np.array([float(mp.log(abs(mp.gamma(h + 1) ** 2 * mp.rgamma(h + 1 + e) * mp.rgamma(h + 1 - e))))
                          for e in range(-P - 1, P + 2)])
    two_k = 2.0 * doc["k"]
    g = bounds._log_coeff_table(np.array([two_k]), u_seq(N - 2.0, M), u_seq(float(N), M))[0]
    want = winding_log_partial(g, log_abs_m, two_k, M, P)
    assert doc["A_log_partial"] == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(-7.306, abs=1e-3)
    assert doc["certified"] is True
    assert doc["tv_upper_hi"] == pytest.approx(tv_upper_hi, rel=1e-6)


def test_point_mass_shortcut_equals_parity_partial():
    # delta:1.7 takes the resolvent shortcut, which sums every block count,
    # so it equals the parity-class sum at max_p = max_total; every |m_e| = 1
    q = WalkQuery.unitary(40, 2.0, CircleMeasure.delta(1.7))
    ks = [0.0, 0.5, 1.0, 30.0, 200.0, 1e300]
    for M, P in [(1, 1), (6, 3), (48, 12)]:
        tc = TruncationConfig(max_p=P, max_total=M)
        two_k = 2.0 * np.array(ks)
        g = bounds._log_coeff_table(two_k, u_seq(38.0, M), u_seq(40.0, M))
        general = bounds._parity_log_partials(g, np.zeros(M + 1), two_k, M, M)
        shortcut = bounds.A_k_grid(q, ks, tc).log_partial.tolist()
        assert shortcut == pytest.approx(general.tolist(), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("P", range(1, 11))
def test_parity_classes_match_brute_force_enumeration(P):
    # every parity sequence of at most P blocks, as a word of blocks 1
    # (odd) and 2 (even), tallied by (a, b, T) with its last sign sigma
    counts, sigmas, exponents = {}, {}, {}
    for L in range(1, P + 1):
        for ns in itertools.product((1, 2), repeat=L):
            # the walk from 0 heading up: an odd block steps, an even one turns
            position, heading = 0, 1
            for n in ns:
                if n == 1:
                    position += heading
                else:
                    heading = -heading
            assert position == UIrrepWord(ns, 1).z_exponent(), ns
            signs = UIrrepWord(ns, 1).eps_sequence()
            key = (ns.count(1), ns.count(2), sum(signs[:-1]))
            counts[key] = counts.get(key, 0) + 1
            sigmas[key] = signs[-1]
            exponents[key] = (UIrrepWord(ns, 1).z_exponent(), UIrrepWord(ns, -1).z_exponent())
    pc = bounds._parity_classes(P)
    pairs = [(a, L - a) for L in range(1, P + 1) for a in range(L + 1)]
    assert list(zip(pc.pair_a.tolist(), pc.pair_b.tolist())) == pairs
    assert pc.log_count.shape == pc.stop.shape == (len(pairs), P)
    for row, (a, b) in enumerate(pairs):
        for j in range(P):
            T = 2 * j - (a + b - 1)
            C = counts.get((a, b, T), 0)
            if C == 0:
                assert pc.log_count[row, j] == -math.inf, (a, b, j)
                continue
            assert abs(pc.log_count[row, j] - math.log(C)) <= 1e-15 * max(1.0, math.log(C)), (a, b, j)
            sigma = sigmas[a, b, T]
            assert sigma == (-1) ** b
            # the eps0 = -1 word is the conjugate word, of exponent -e
            e_plus, e_minus = exponents[a, b, T]
            assert e_minus == -e_plus, (a, b, j)
            assert pc.stop[row, j] == abs(e_plus), (a, b, j)
    assert sum(counts.values()) == 2 ** (P + 1) - 2


def _parity_class_count(a, b, T):
    # C(a, b, T) from the sign runs: n+ and n- count the + and - signs of
    # all L = a + b blocks, whose sum is T + sigma, sigma = (-1)^b.  The b
    # even blocks are the sign changes of +, eps_1, ..., eps_L, so the +
    # signs fill floor(b/2) + 1 runs, the first possibly empty, and the -
    # signs ceil(b/2) nonempty runs
    L, s = a + b, T + (-1) ** b
    if (L + s) % 2 or abs(s) > L:
        return 0
    n_plus, n_minus = (L + s) // 2, (L - s) // 2
    if b == 0:
        return int(n_minus == 0)
    if n_minus == 0:
        return 0
    return math.comb(n_plus, b // 2) * math.comb(n_minus - 1, (b + 1) // 2 - 1)


@pytest.mark.parametrize("P", [1, 2, 7, 20, 53, MAX_P])
def test_parity_classes_match_the_sign_run_closed_form(P):
    # the counts pass 2^53 from about P = 56, so this reaches where the
    # brute-force enumeration cannot
    pc = bounds._parity_classes(P)
    for row, (a, b) in enumerate(zip(pc.pair_a.tolist(), pc.pair_b.tolist())):
        L = a + b
        T = np.arange(P) * 2 - (L - 1)
        counts = [float(_parity_class_count(a, b, t)) if j < L else 0.0 for j, t in enumerate(T.tolist())]
        with np.errstate(divide="ignore"):
            want = np.log(counts)
        assert pc.log_count[row].tobytes() == want.tobytes(), (a, b)
        assert pc.stop[row, :L].tolist() == np.abs(T[:L] + (b % 2 == 0)).tolist(), (a, b)


def _naive_log_conv(a, b):
    out = np.empty_like(a)
    for i in range(a.shape[0]):
        for d in range(a.shape[1]):
            out[i, d] = logsumexp([a[i, j] + b[i, d - j] for j in range(d + 1)])
    return out


@pytest.mark.parametrize("block_terms", [bounds._BLOCK_TERMS, 1, 50])
@pytest.mark.parametrize("K", [1, 3])
def test_log_conv_matches_naive_double_loop(monkeypatch, K, block_terms):
    # small blocks split the rows of one call into several row blocks
    monkeypatch.setattr(bounds, "_BLOCK_TERMS", block_terms)
    rng = np.random.default_rng(7)
    # at width 450 the default block, not the run cap, ends the run from 363
    for width in [*range(1, 50), 64, 65, 130, 450]:
        a = rng.uniform(-50.0, 50.0, (K, width))
        b = rng.uniform(-50.0, 50.0, (K, width))
        a[:, rng.random(width) < 0.3] = -math.inf
        b[:, rng.random(width) < 0.3] = -math.inf
        if K > 1:
            a[1] = -math.inf  # an all -inf row
            b[2, : (width + 1) // 2] = rng.choice([1e300, -1e300, 9.9e299], (width + 1) // 2)
        got = bounds._log_round(a[np.newaxis], bounds._toeplitz(b, -math.inf))[0]
        want = _naive_log_conv(a, b)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.all(np.isfinite(got) == finite)
        scale = np.maximum(1.0, np.abs(want[finite]))
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * scale), width


@pytest.mark.parametrize("K", [1, 3])
def test_log_and_polynomial_kernels_agree(K):
    # on positive series the log kernel of the logs is the log of the
    # polynomial kernel, for stacked powers as a doubling round passes them,
    # and on the dense block of degrees n .. 2n - 1 against n inputs that a
    # resolvent step passes
    rng = np.random.default_rng(11)
    for width in [*range(1, 50), 130]:
        a = rng.uniform(0.0, 1.0, (3, K, width))
        b = rng.uniform(0.0, 1.0, (K, width))
        n = (width + 1) // 2
        for form in [(slice(None), slice(None), 0), (slice(width - 2 * n + 1, width - n + 1), slice(n), n - 1)]:
            rows, inputs, start = form
            got = bounds._log_round(np.log(a[..., inputs]), bounds._toeplitz(np.log(b), -math.inf)[:, rows, inputs], start)
            want = np.log(bounds._poly_round(a[..., inputs], bounds._toeplitz(b, 0.0)[:, rows, inputs]))
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), width


def _sequential_log_conv_powers(step, P):
    """The powers step^0 .. step^(P-1) one at a time, each from the one
    before it, cut at the width of ``step``: the chain the doubling
    replaced."""
    out = np.full((P,) + step.shape, -math.inf)
    out[0, :, 0] = 0.0
    cur = step
    for i in range(1, P):
        if i > 1:
            cur = _naive_log_conv(cur, step)
        out[i] = cur
    return out


# 1 block term gives one row per block; 500 and 3000 give 2 and 12 rows of
# the 231 pairs of width 21, so row blocks end inside a power's K rows
@pytest.mark.parametrize("block_terms", [bounds._BLOCK_TERMS, 1, 500, 3000])
@pytest.mark.parametrize("widths", ["equal", "non-increasing"])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("P", [1, 2, 3, 5, 8, 9, 12, 13])
def test_log_conv_powers_match_the_sequential_chain(monkeypatch, P, K, widths, block_terms):
    # the powers step^0 .. step^P, every one at the step's width ("equal"),
    # or power i up to its own degree b_i, b_0 >= b_1 >= ..., from a step
    # cut at b_i ("non-increasing"): a narrower step gives the leading
    # degrees of the same powers, so a caller needs no per-power widths
    monkeypatch.setattr(bounds, "_BLOCK_TERMS", block_terms)
    rng = np.random.default_rng(P * 10 + K)
    L = 20
    step = rng.uniform(-50.0, 50.0, (K, L + 1))
    step[:, rng.random(L + 1) < 0.3] = -math.inf
    if K > 1:
        step[1] = -math.inf  # an all -inf row
    want = _sequential_log_conv_powers(step, P + 1)
    if widths == "equal":
        _assert_powers_match(bounds._log_conv_powers(step, P + 1), want)
        return
    for i, b in enumerate(sorted(rng.integers(0, L + 1, P + 1).tolist(), reverse=True)):
        got = bounds._log_conv_powers(step[:, : b + 1], P + 1)
        assert got.shape == (P + 1, K, b + 1)
        _assert_powers_match(got[i], want[i, :, : b + 1])


def _assert_powers_match(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(np.isfinite(got) == finite)
    scale = np.maximum(1.0, np.abs(want[finite]))
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * scale)


@pytest.mark.parametrize(
    "argv, calls",
    [
        # a point mass: the resolvent's degrees 0 to 16 take 4 doubling
        # steps (degrees 2, 4, 8 and 16 on), two kernel calls each
        (["--family", "unitary", "--N", "200", "--tau", "2", "--max-total", "16"], 8),
        # the parity path at the default (12, 48): 4 doubling rounds build the 12 powers
        (["--family", "unitary", "--N", "200", "--tau", "2", "--nu", "haar"], 4),
        # one round builds E^2, then 3 resolvent steps reach degree 15 of
        # X = m z I, (32 - 2) // 2 = 15
        (["--family", "wreath", "--N", "200", "--tau", "2", "--group", "cyclic:3", "--max-total", "32"], 7),
        # at the default max_total 48: 5 steps reach degree 48, and 1 + 4
        # steps the wreath's 23
        (["--family", "unitary", "--N", "200", "--tau", "2"], 10),
        (["--family", "wreath", "--N", "200", "--tau", "2", "--group", "cyclic:3"], 9),
    ],
)
def test_bound_makes_about_log2_P_convolution_calls(monkeypatch, capsys, argv, calls):
    # a round or step calls the kernel of its rows, and one k gives one row
    count = 0

    def counted(kernel):
        def round_(*args):
            nonlocal count
            count += 1
            return kernel(*args)

        return round_

    monkeypatch.setattr(bounds, "_poly_round", counted(bounds._poly_round))
    monkeypatch.setattr(bounds, "_log_round", counted(bounds._log_round))
    assert cli.main(["bound", *argv, "--c", "1"]) == 0
    capsys.readouterr()
    assert count == calls


def test_row_logsumexp_gives_each_row_its_own_bits_whatever_the_layout():
    # a transposed input is summed along a strided axis unless the terms
    # are formed in C order
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-30.0, 30.0, (40, 7)).T
        x[rng.random(x.shape) < 0.1] = -math.inf
        x[rng.integers(7)] = -math.inf  # an all -inf row
        got = bounds._row_logsumexp(x)
        for i in range(7):
            assert got[i] == bounds._row_logsumexp(np.ascontiguousarray(x[i : i + 1]))[0]


def test_log_round_runs_tile_the_degrees_in_blocks(monkeypatch):
    # 2 powers of 3 rows at width 600: the first runs stack both powers and
    # all rows in one block, and from degree 500 on one row and one degree
    # exceed the block
    monkeypatch.setattr(bounds, "_BLOCK_TERMS", 500)
    shapes = []
    row_logsumexp = bounds._row_logsumexp

    def recorded(x):
        shapes.append(x.shape)
        return row_logsumexp(x)

    monkeypatch.setattr(bounds, "_row_logsumexp", recorded)
    a = np.zeros((2, 3, 600))
    bounds._log_round(a, bounds._toeplitz(a[0], -math.inf))
    # the series rows each run covers, runs in call order
    rows: dict[tuple[int, int], int] = {}
    for powers, grid, n, hi in shapes:
        rows[hi - n, hi] = rows.get((hi - n, hi), 0) + powers * grid
    runs = list(rows)
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
    assert runs[-1][1] == 600
    assert all(hi - lo <= max(8, lo // 4) for lo, hi in runs)
    # each run covers the 6 series rows once
    assert set(rows.values()) == {6}
    for shape in shapes:
        # at most one block, or one row and one degree of more floats
        assert math.prod(shape) <= 500 or shape[:-1] == (1, 1, 1), shape
    assert shapes[0] == (2, 3, 8, 8) and shapes[-1] == (1, 1, 1, 600)


_GROUP = cyclic_group(3)


@pytest.mark.parametrize(
    "query",
    [
        WalkQuery.unitary(40, 2.0, CircleMeasure.delta(0.5)),
        WalkQuery("unitary-free", 40, tau=2.0, nu=CircleMeasure.haar()),
        # every |m_e| > 0, so every stop-table entry is finite
        WalkQuery("unitary-free", 40, tau=2.0, nu=_PARITY_NUS["atoms"]),
        WalkQuery("unitary-free", 40, tau=2.0, nu=CircleMeasure.porod(40)),
        WalkQuery.wreath(40, 2.0, _GROUP, trivial_state(_GROUP)),
    ],
    ids=["delta", "haar", "atoms", "porod", "wreath"],
)
def test_engine_passes_go_in_blocks_of_grid_rows(monkeypatch, query):
    # the power and resolvent helpers get one block of grid rows at a time,
    # so an engine pass holds a few blocks whatever the grid size; the
    # partials do not depend on the blocks
    tc = TruncationConfig(max_p=5, max_total=70)
    ks = [0.0, 1.0, 2.5, 7.0, 20.0, 45.0, 80.0, 150.0, 400.0]
    want = A_k_grid(query, ks, tc).log_partial.tolist()
    monkeypatch.setattr(bounds, "_BLOCK_TERMS", 1000)
    sizes = []

    def recorded(helper):
        def call(*args):
            out = helper(*args)
            sizes.append(out.size)
            return out

        return call

    for name in ("_log_conv_powers", "_log_resolvent"):
        monkeypatch.setattr(bounds, name, recorded(getattr(bounds, name)))
    got = A_k_grid(query, ks, tc).log_partial.tolist()
    assert got == want
    assert len(sizes) > 1
    assert max(sizes) <= 1000


# at N = 30000, ln N / rate > 5 for the three walks, so c = -5 has k > 0
_ENGINE_N = 30000


def _engine_steps(kind, cs, width):
    """(len(cs), width) step series of an engine at k = N ln N / rate + c N:
    the coefficient table of the unitary walk at tau = 2 or the eval walk
    at theta = 2, or, for the wreath one over Z/3 at tau = 2, its interior
    series X = m z I (X_0 = -inf, X_n = log 3 + f_{2n}) or its end (odd)
    columns."""
    N = _ENGINE_N
    if kind == "unitary":
        q, t, s = WalkQuery.unitary(N, 2.0), N - 2.0, float(N)
    elif kind == "eval":
        q, t, s = WalkQuery.eval_point(N, 2.0), eval_state_params(N, 2.0)[0], float(N)
    else:
        q, t, s = WalkQuery.wreath(N, 2.0, _GROUP), math.sqrt(N - 2.0), math.sqrt(N)
    two_k = 2.0 * np.array([nominal_cutoff(q) + c * N for c in cs])
    M = 2 * width if kind.startswith("wreath") else width - 1
    f = bounds._log_coeff_table(two_k, u_seq(t, M), u_seq(s, M))
    if kind == "wreath-interior":
        x = np.full((len(cs), width), -math.inf)
        x[:, 1:] = math.log(_GROUP.order) + f[:, 2 : 2 * width - 1 : 2]
        return x
    return f[:, 1::2] if kind == "wreath-ends" else f


# the default width and a wider one; 13 powers as at max_p 12
@pytest.mark.parametrize("width", [49, 130])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("kind", ["unitary", "eval", "wreath-interior", "wreath-ends"])
def test_linear_kernel_matches_the_sequential_chain_on_engine_rows(kind, K, width):
    steps = _engine_steps(kind, [-5.0, 0.0, 5.0], width)
    assert steps.shape == (3, width)
    for step in [steps] if K == 3 else [steps[i : i + 1] for i in range(3)]:
        assert bounds._affine_tilt(step, 12)[3].all()
        _assert_powers_match(bounds._log_conv_powers(step, 13), _sequential_log_conv_powers(step, 13))


@pytest.mark.parametrize("K", [1, 3])
def test_linear_kernel_on_the_odd_even_split(K):
    # the parity path's O and E rows, whose columns alternate with -inf,
    # and an all -inf row, which the linear kernel takes too
    g = _engine_steps("unitary", [-5.0, 0.0, 5.0][:K], 49)
    oe = np.full((2 * K + 1, 49), -math.inf)
    oe[:K, 1::2] = g[:, 1::2]
    oe[K : 2 * K, 2::2] = g[:, 2::2]
    assert bounds._affine_tilt(oe, 12)[3].all()
    got = bounds._log_conv_powers(oe, 13)
    _assert_powers_match(got, _sequential_log_conv_powers(oe, 13))
    assert np.all(got[1:, -1] == -math.inf) and got[0, -1, 0] == 0.0


def test_affine_tilt_takes_the_rows_whose_products_stay_above_e_to_the_minus_64():
    # 12 factors of depth 5 reach e^-60, of depth 5.5 e^-66
    step = np.array([[0.0, -5.0, 0.0], [0.0, -5.5, 0.0], [3.0, 1.0, -1.0], [-math.inf, 2.0, -math.inf]])
    s, a, residual, linear = bounds._affine_tilt(step, 12)
    assert linear.tolist() == [True, False, True, True]
    assert s.tolist() == [0.0, 0.0, -2.0, 0.0] and a.tolist() == [0.0, 0.0, 3.0, 2.0]
    assert residual[:3].tolist() == [[0.0, -5.0, 0.0], [0.0, -5.5, 0.0], [0.0, 0.0, 0.0]]
    # on engine rows: s and a carry 24 significant bits, a rounded up, so
    # every residual is <= 0 and step = residual + a + s n to rounding
    step = _engine_steps("eval", [-5.0, 0.0, 5.0], 49)
    s, a, residual, linear = bounds._affine_tilt(step[:, 1:], 12)
    assert linear.all() and np.all(residual <= 0.0)
    for x in (s, a):
        mant = np.frexp(x)[0] * 2.0**24
        assert np.array_equal(mant, np.round(mant))
    rebuilt = residual + (a[:, np.newaxis] + s[:, np.newaxis] * np.arange(48))
    assert np.allclose(rebuilt, step[:, 1:], rtol=1e-15, atol=0.0)


def test_power_block_mixing_linear_and_log_rows_equals_each_row_alone(monkeypatch):
    width = 70
    affine = _engine_steps("unitary", [-5.0, 0.0, 5.0], width)
    wide = np.random.default_rng(3).uniform(-50.0, 50.0, (2, width))
    # t near 2 and k near MAX_K leave the affine range
    near_two = bounds._log_coeff_table(np.array([2e4]), u_seq(2.001, width - 1), u_seq(3.0, width - 1))
    t = eval_state_params(_ENGINE_N, 2.0)[0]
    huge_k = bounds._log_coeff_table(np.array([2.0 * MAX_K]), u_seq(t, width - 1), u_seq(float(_ENGINE_N), width - 1))
    step = np.vstack([affine[0], wide[0], affine[1], near_two[0], affine[2], wide[1], huge_k[0]])
    linear = [True, False, True, False, True, False, False]
    assert bounds._affine_tilt(step, 12)[3].tolist() == linear
    rows = {"_poly_round": set(), "_log_round": set()}

    def recorded(name, kernel):
        def round_(a, b):
            rows[name].add(a.shape[1])
            return kernel(a, b)

        return round_

    for name in rows:
        monkeypatch.setattr(bounds, name, recorded(name, getattr(bounds, name)))
    got = bounds._log_conv_powers(step, 13)
    assert rows == {"_poly_round": {3}, "_log_round": {4}}
    for i in range(len(step)):
        assert np.array_equal(got[:, i], bounds._log_conv_powers(step[i : i + 1], 13)[:, 0])
    _assert_powers_match(got, _sequential_log_conv_powers(step, 13))


def _sequential_resolvent(step):
    """log [z^d] G / (1 - G) as the sum of the sequential powers G^1 ..
    G^(W-1), every block count that reaches degree W - 1."""
    return bounds._row_logsumexp(np.moveaxis(_sequential_log_conv_powers(step, step.shape[1])[1:], 0, -1))


def _log_kernel_rows(width):
    # N = 5, tau = 2.99: t = 2.01 is near 2, so no row is nearly affine
    ks = np.arange(10.0, 1011.0, 100.0)
    return bounds._log_coeff_table(2.0 * ks, u_seq(5.0 - 2.99, width - 1), u_seq(5.0, width - 1))


def _assert_logs_match(got, want, rel):
    assert got.shape == want.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(np.isfinite(got) == finite)
    assert np.all(np.abs(got[finite] - want[finite]) <= rel * np.maximum(1.0, np.abs(want[finite])))


@pytest.mark.parametrize("kind", ["unitary", "eval", "wreath-interior", "log-kernel"])
def test_resolvent_matches_the_sequential_power_sum(kind):
    # at max_p = max_total the power sum reaches every block count, so it
    # is the resolvent; the engine rows take the polynomial kernel with
    # W - 1 factors, the N = 5, tau = 2.99 rows the log kernel
    width = 49
    step = _log_kernel_rows(width) if kind == "log-kernel" else _engine_steps(kind, [-5.0, 0.0, 5.0], width)
    linear = bounds._affine_tilt(step, width - 1)[3]
    assert not linear.any() if kind == "log-kernel" else linear.all()
    _assert_logs_match(bounds._log_resolvent(step), _sequential_resolvent(step), 1e-12)


def test_resolvent_takes_the_log_kernel_for_a_vanishing_coefficient(monkeypatch):
    # t = 0 (N = tau = 3, k = 1/2): u_n(0) = 0 for odd n, so G(z) = F(z^2)
    # and [z^2D] G / (1 - G) = [w^D] F / (1 - F), F a series with no gap.
    # The tilt assumes every degree is present: with the row's residuals
    # nearly affine, it would take the top degrees of G below the floats
    # (a log partial of 2571.6 for 2698.5 at this width)
    M = 2000
    step = bounds._log_coeff_table(np.array([1.0]), u_seq(0.0, M), u_seq(3.0, M))
    assert np.isneginf(step[:, 1::2]).all() and bounds._affine_tilt(step, M)[3].all()
    rows = []
    log_round = bounds._log_round

    def recorded(a, t, *start):
        rows.append(t.shape[0])
        return log_round(a, t, *start)

    monkeypatch.setattr(bounds, "_log_round", recorded)
    got = bounds._log_resolvent(step)
    assert rows and set(rows) == {1}
    assert np.isneginf(got[:, 1::2]).all()
    _assert_logs_match(got[:, ::2], bounds._log_resolvent(step[:, ::2]), 1e-12)
    assert bounds._row_logsumexp(got)[0] == pytest.approx(2698.491, abs=1e-3)


def test_resolvent_rows_do_not_depend_on_the_rows_stacked_with_them(monkeypatch):
    width = 70
    affine = _engine_steps("unitary", [-5.0, 0.0, 5.0], width)
    wide = _log_kernel_rows(width)[[0, 5]]
    step = np.vstack([affine[0], wide[0], affine[1], wide[1], affine[2]])
    forms = {"_poly_round": set(), "_log_round": set()}

    def recorded(name, kernel):
        def round_(a, t, start=0):
            # (grid rows, stacked series, inputs, output degrees, start)
            forms[name].add((a.shape[1], a.shape[0], a.shape[2], t.shape[1], start))
            return kernel(a, t, start)

        return round_

    for name in forms:
        monkeypatch.setattr(bounds, name, recorded(name, getattr(bounds, name)))
    got = bounds._log_resolvent(step)
    # degrees n to m - 1 for (n, m) = (2, 4), ..., (32, 64), (64, 70): a
    # dense block of n inputs from degree n, then a triangle from degree 0
    steps = [(2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 70)]
    for name, K in (("_poly_round", 3), ("_log_round", 2)):
        assert forms[name] == {f for n, m in steps for f in ((K, 1, n, m - n, n), (K, 1, m - n, m - n, 0))}
    for i in range(len(step)):
        assert np.array_equal(got[i], bounds._log_resolvent(step[i : i + 1])[0])
    _assert_logs_match(got, _sequential_resolvent(step), 1e-12)


def _resolvent_linear(step):
    """The rows that ``_log_resolvent`` takes to the polynomial kernel."""
    return bounds._affine_tilt(step, step.shape[1] - 1)[3] & np.isfinite(step[:, 1:]).all(axis=1)


def _t_zero_row(width):
    # t = 0 (N = tau = 3, k = 1/2): u_n(0) = 0 for odd n
    return bounds._log_coeff_table(np.array([1.0]), u_seq(0.0, width - 1), u_seq(3.0, width - 1))


# the doubling's steps start at degrees 2, 4, 8, 16, 32 and 64: widths at,
# just past and short of each, and the default 49
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 9, 17, 33, 48, 49, 65, 70])
@pytest.mark.parametrize("kernel", ["poly", "log"])
def test_resolvent_doubling_matches_the_sequential_power_sum(kernel, width):
    if kernel == "poly":
        step = np.vstack([_engine_steps(kind, [-5.0, 0.0, 5.0], width)
                          for kind in ("unitary", "eval", "wreath-interior")])
        assert _resolvent_linear(step).all()
    else:
        # two rows no line fits once they have three degrees, and the t = 0
        # row, whose vanishing coefficient takes the log kernel from width 2
        step = np.vstack([_log_kernel_rows(width)[[5, 10]], _t_zero_row(width)])
        assert _resolvent_linear(step).tolist() == [width < 4, width < 4, width < 2]
    _assert_logs_match(bounds._log_resolvent(step), _sequential_resolvent(step), 1e-12)


def test_resolvent_tilt_edge_rows():
    # G_n = e^{a0 + s n + 0.3 sin n}: a far below -745, so that c = e^a
    # underflows to 0 and Q = H, and a > 0, so that c' = 1
    n = np.arange(49)
    step = np.vstack([-800.0 - 0.5 * n, 3.0 - 5.0 * n, 2.0 - 0.1 * n]) + 0.3 * np.sin(n)
    step[:, 0] = -math.inf
    a = bounds._affine_tilt(step, 48)[1]
    assert _resolvent_linear(step).all()
    assert np.exp(a[0]) == 0.0 and a[0] > -math.inf and (a[1:] > 0.0).all()
    _assert_logs_match(bounds._log_resolvent(step), _sequential_resolvent(step), 1e-12)


@pytest.mark.parametrize("kernel", ["poly", "log"])
def test_resolvent_at_width_1025_matches_the_log_recurrence(kernel):
    width = 1025
    if kernel == "poly":
        step = _engine_steps("unitary", [-5.0, 0.0, 5.0], width)
    else:
        step = np.vstack([_log_kernel_rows(width)[[5]], _t_zero_row(width)])
    assert _resolvent_linear(step).tolist() == [kernel == "poly"] * len(step)
    _assert_logs_match(bounds._log_resolvent(step), resolvent_log_recurrence(step), 1e-12)


# per grid row, the product form took 2 W^2 multiply-adds a round, 26 411
# at W = 49 and about 386 M at 4097
@pytest.mark.parametrize("kind, width, most", [("unitary", 49, 1600), ("log-kernel", 49, 1600),
                                                ("unitary", 4097, 12_000_000)])
def test_resolvent_work_per_grid_row(monkeypatch, kind, width, most):
    # stacked series x output degrees x inputs over every kernel call: about
    # W^2 / 2 (1 513 at 49, 11 188 905 at 4097)
    step = _log_kernel_rows(width)[[5, 10]] if kind == "log-kernel" else _engine_steps(kind, [-5.0, 5.0], width)
    assert _resolvent_linear(step).tolist() == [kind == "unitary"] * 2
    work = 0

    def counted(kernel):
        def round_(a, t, start=0):
            nonlocal work
            work += a.shape[0] * t.shape[1] * a.shape[2]
            return kernel(a, t, start)

        return round_

    for name in ("_poly_round", "_log_round"):
        monkeypatch.setattr(bounds, name, counted(getattr(bounds, name)))
    bounds._log_resolvent(step)
    assert work <= most


# ---------------------------------------------------------------------------
# tail certificates


def test_tail_positive_and_certified():
    q = WalkQuery.unitary(20, 2.0)
    A = interval_rows(A_k_grid(q, [60.0], DEFAULT_TRUNCATION))[0]
    assert A.certified
    assert 0.0 < A.tail < A.partial
    assert A.upper == pytest.approx(A.partial + A.tail)


def test_certificate_contains_refined_partial_unitary():
    # coarse certified interval must contain the partial of a finer truncation
    q = WalkQuery.unitary(15, 2.0)  # past the cutoff ~20.3
    coarse = interval_rows(A_k_grid(q, [40.0], TruncationConfig(max_p=6, max_total=12)))[0]
    fine = interval_rows(A_k_grid(q, [40.0], TruncationConfig(max_p=12, max_total=24)))[0]
    assert coarse.certified
    assert coarse.log_partial <= fine.log_partial + 1e-12
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)


def test_certificate_contains_refined_partial_wreath():
    g = cyclic_group(3)
    q = WalkQuery.wreath(30, 2.0, g, trivial_state(g))  # cutoff ~51
    coarse = interval_rows(A_k_grid(q, [80.0], TruncationConfig(max_p=6, max_total=12)))[0]
    fine = interval_rows(A_k_grid(q, [80.0], TruncationConfig(max_p=12, max_total=24)))[0]
    assert coarse.certified
    assert coarse.log_partial <= fine.log_partial + 1e-12
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)


def test_certificate_contains_refined_partial_mixture():
    q = WalkQuery.mixture(20)
    coarse = interval_rows(A_k_grid(q, [50.0], TruncationConfig(max_p=5, max_total=10)))[0]
    fine = interval_rows(A_k_grid(q, [50.0], TruncationConfig(max_p=7, max_total=14)))[0]
    assert coarse.certified
    assert coarse.log_partial <= fine.log_partial + 1e-12
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "N, tau, k, max_total, max_p",
    [
        (20, 2.0, 60.0, 10, 4),
        (30, 2.0, 100.0, 7, 7),
        (15, 3.0, 40.0, 12, 3),
        # k = N ln N / tau + N / 4: log w = -0.95, so the p > max_p closed
        # form w^(max_p + 1) / (1 - w) is most of the tail, and a w taken too
        # small there leaves the certificate below the majorant
        (30, 2.0, 30 * math.log(30) / 2.0 + 30 / 4, 10, 4),
    ],
)
def test_unitary_tail_bounds_the_excluded_words(N, tau, k, max_total, max_p):
    # the certificate is the majorant summed word class by word class over
    # the complement, in closed form: for Haar nu, which stops at max_p
    # blocks (the composition tail), and for a point mass, which sums every
    # block count (the resolvent tail)
    tc = TruncationConfig(max_p=max_p, max_total=max_total)
    for nu, blocks in ((CircleMeasure.haar(), max_p), (CircleMeasure.delta(0.0), None)):
        A = interval_rows(A_k_grid(WalkQuery.unitary(N, tau, nu), [k], tc))[0]
        assert A.certified
        assert abs(A.log_tail - unitary_tail_majorant(N, tau, k, max_total, blocks)) <= 1e-12


@pytest.mark.parametrize(
    "walk, N, c, max_p, max_total",
    [
        ("mixture", 20, 1.0, 5, 10),
        ("mixture", 50, 0.5, 5, 10),
        ("mixture", 300, 0.5, 6, 12),
        ("mixture", 300, 1.0, 3, 8),
        # x = S = 0.30 and w = S / (1 - x) = 0.43: a large x, so the
        # excluded words weigh most near 16 blocks, well inside max_p
        ("haar", 100000, 0.3, 24, 30),
    ],
)
def test_composition_tail_bounds_the_excluded_words(walk, N, c, max_p, max_total):
    # the composition tail is the per-word majorant summed word class by
    # word class over the complement
    q = WalkQuery.mixture(N) if walk == "mixture" else WalkQuery.unitary(N, 2.0, CircleMeasure.haar())
    k = nominal_cutoff(q) + c * N
    log_S, log_x = mixture_majorant_logs(N, k) if walk == "mixture" else unitary_majorant_logs(N, 2.0, k)
    A = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=max_p, max_total=max_total)))[0]
    assert A.certified
    assert abs(A.log_tail - composition_tail_majorant(log_S, log_x, max_total, max_p)) <= 1e-12


def test_composition_tail_is_its_oracle_and_shrinks_with_the_truncation():
    # 300 seeded rows with x + S <= 0.9, M <= 40: the closed form is the
    # majorant summed word class by word class (cut 400 leaves under 1e-15
    # of it out), does not grow with max_p or max_total, and at
    # max_p = max_total is the resolvent tail 2 S (x + S)^M / (1 - x - S)
    rng = np.random.default_rng(20261021)

    def tail(log_S, log_x, M, P):
        return bounds._composition_tail(np.array([log_S]), np.array([log_x]), M, P).item(0)

    for _ in range(300):
        M = int(rng.integers(1, 41))
        P = int(rng.integers(1, M + 1))
        log_r = rng.uniform(math.log(1e-4), math.log(0.9))
        share = 1.0 / (1.0 + math.exp(rng.uniform(-8.0, 8.0)))
        log_x, log_S = log_r + math.log(share), log_r + math.log1p(-share)
        log_tail = tail(log_S, log_x, M, P)
        assert abs(log_tail - composition_tail_majorant(log_S, log_x, M, P, cut=400)) <= 1e-12, (log_S, log_x, M, P)
        assert tail(log_S, log_x, M, min(P + 1, M)) <= log_tail + 1e-12
        assert tail(log_S, log_x, M + 1, P) <= log_tail + 1e-12
        resolvent = math.log(2.0) + bounds._resolvent_tail(np.array([log_S]), np.array([log_x]), M).item(0)
        assert abs(tail(log_S, log_x, M, M) - resolvent) <= 1e-12


@pytest.mark.parametrize(
    "N, tau, k, max_total, max_p, values",
    [
        (40, 2.0, 120.0, 9, 3, [1.0, 1.0, 1.0]),
        (60, 2.5, 150.0, 12, 8, [1.0, 0.5, 0.5]),
        # p = 3, 4 admit no word: exact geometric blocks
        (40, 2.0, 200.0, 5, 4, [1.0, 0.0, 0.0]),
    ],
)
def test_wreath_tail_bounds_the_excluded_words(N, tau, k, max_total, max_p, values):
    # the closed form over compositions of every part count plus the
    # single-character piece covers every excluded wreath word's majorant;
    # the wreath sums every label count, so max_p excludes nothing
    g = cyclic_group(3)
    psi = GroupState.from_values(g, values)
    tc = TruncationConfig(max_p=max_p, max_total=max_total)
    A = interval_rows(A_k_grid(WalkQuery.wreath(N, tau, g, psi), [k], tc))[0]
    want = wreath_tail_majorant(N, tau, g, psi, k, max_total, None)
    assert A.certified
    assert want - 1e-12 <= A.log_tail <= want + 1e-3


@pytest.mark.parametrize("N, tau, k, max_total", [(20, 2.0, 60.0, 4), (30, 2.0, 30 * math.log(30) / 2.0 + 30 / 4, 3)])
def test_point_mass_closed_tail_majorizes_the_excluded_words_exactly(N, tau, k, max_total):
    # the per-word majorant 2 S^p x^(total - p) summed in exact rationals
    # over every word of total max_total + 1 .. max_total + 8: each total n
    # sums to 2 S (x + S)^(n - 1), so the certificate, the geometric sum of
    # these past max_total, is at least the words' sum and equals the
    # rational closed form
    M = max_total
    log_S, log_x = unitary_majorant_logs(N, tau, k)
    x, S = Fraction(math.exp(log_x)), Fraction(math.exp(log_S))
    by_total = {}
    for word in enumerate_unitary(M + 8, M + 8):
        if word.total > M:
            by_total[word.total] = by_total.get(word.total, 0) + S**word.p * x ** (word.total - word.p)
    assert sorted(by_total) == list(range(M + 1, M + 9))
    assert all(total == 2 * S * (x + S) ** (n - 1) for n, total in by_total.items())
    A = interval_rows(A_k_grid(WalkQuery.unitary(N, tau), [k], TruncationConfig(max_p=1, max_total=M)))[0]
    assert A.certified and dict(A.hypotheses)["x + S < 1"]
    closed = 2 * S * (x + S) ** M / (1 - x - S)
    assert A.log_tail >= math.log(sum(by_total.values())) - 1e-12
    assert A.log_tail == pytest.approx(math.log(closed), abs=1e-12)


@pytest.mark.parametrize("N, tau, k, max_total", [(40, 2.0, 120.0, 4), (40, 2.0, 200.0, 5)])
def test_wreath_closed_tail_majorizes_the_excluded_words_exactly(N, tau, k, max_total):
    # the per-word majorant |psi(gamma product)| Z^{p+1} y^(sum n / 2 - p - 1)
    # (Z y^(n_0 / 2 - 1) for p = 0), n the character indices, summed in exact
    # rationals over every word of index total max_total + 1 .. 12: the
    # certificate is at least that and equals the rational closed form
    M = max_total
    g = cyclic_group(3)
    psi = GroupState.from_values(g, [1.0, 0.5, 0.5])
    log_y, log_Z = wreath_majorant_logs(N, tau, k)
    y, Z = Fraction(math.exp(log_y)), Fraction(math.exp(log_Z))
    values = [Fraction(abs(v)) for v in psi.values]
    words = Fraction(0)
    for word in enumerate_wreath(g, 12, 6):
        idx = word.char_indices()
        if sum(idx) <= M:
            continue
        label = values[functools.reduce(lambda a, b: g.table[a][b], word.gammas, g.identity)]
        words += label * Z ** (word.p + 1) * y ** (sum(idx) // 2 - word.p - 1)
    A = interval_rows(A_k_grid(WalkQuery.wreath(N, tau, g, psi), [k], TruncationConfig(max_p=1, max_total=M)))[0]
    assert A.certified and dict(A.hypotheses)["y + m Z < 1"]
    m, K, D = 3, sum(values), M // 2 + 1
    S = m * Z
    closed = (K / (m * m * y)) * S * ((y + S) ** D / (1 - y - S) - y**D / (1 - y)) + Z * y ** (M // 2) / (1 - y)
    assert A.log_tail >= math.log(words) - 1e-12
    assert A.log_tail == pytest.approx(math.log(closed), abs=1e-12)


def test_point_mass_closed_tail_equals_the_composition_tail_at_max_p_max_total():
    # N = 200, tau = 2, c = 1: with every block count in the partial, the
    # composition tail's p > max_p block is empty and both read -165.62
    q = WalkQuery.unitary(200, 2.0)
    k = nominal_cutoff(q) + 200.0
    A = interval_rows(A_k_grid(q, [k]))[0]
    log_S, log_x = (np.array([v]) for v in unitary_majorant_logs(200, 2.0, k))
    composition = bounds._composition_tail(log_S, log_x, 48, 48).item(0)
    assert abs(composition - A.log_tail) <= 1e-12 and round(A.log_tail, 2) == -165.62
    # at the default max_p = 12, the composition tail is set by its p > 12 block
    assert bounds._composition_tail(log_S, log_x, 48, 12).item(0) == pytest.approx(-52.02, abs=0.01)


def test_point_mass_row_with_a_large_x_has_the_closed_composition_tail():
    # N = 30, tau = 2, c = 1/4 at (10, 10): x = 0.27, so x (M + 1) = 3 is
    # far above 1, and x + S = 0.55 < 1; both tails bound the same words, of
    # total > 10, and are the same closed form
    q = WalkQuery.unitary(30, 2.0)
    k = nominal_cutoff(q) + 30 / 4
    log_S, log_x = unitary_majorant_logs(30, 2.0, k)
    composition = bounds._composition_tail(np.array([log_S]), np.array([log_x]), 10, 10).item(0)
    A = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=10, max_total=10)))[0]
    assert A.certified and math.exp(log_x) + math.exp(log_S) == pytest.approx(0.5545, abs=1e-4)
    assert A.log_tail == pytest.approx(unitary_tail_majorant(30, 2.0, k, 10, None), abs=1e-12)
    assert abs(composition - A.log_tail) <= 1e-12


def test_nested_truncation_containment_random():
    # 20 deterministic pseudo-random parameter sets across both walk families;
    # k sits past the nominal cutoff so certificates apply
    rng = np.random.default_rng(987123)
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 200, "parameter sampler stopped certifying"
        family = "unitary" if checked % 2 == 0 else "wreath"
        c = float(rng.uniform(0.5, 3.0))
        P1 = int(rng.integers(2, 5))
        M1 = int(rng.integers(6, 12))
        P2 = P1 + int(rng.integers(1, 4))
        M2 = M1 + int(rng.integers(2, 8))
        if family == "unitary":
            N = int(rng.integers(8, 60))
            tau = float(rng.uniform(1.0, 3.0))
            if N - tau <= threshold_C(tau) + tau:
                continue
            k = N * math.log(N) / tau + c * N
            q = WalkQuery.unitary(N, tau)
            coarse = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=P1, max_total=M1)))[0]
            fine = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=P2, max_total=M2)))[0]
        else:
            N = int(rng.integers(28, 80))
            tau = 2.0
            g = cyclic_group(int(rng.integers(2, 4)))
            k = N * math.log(N) / tau + c * N
            q = WalkQuery.wreath(N, tau, g, trivial_state(g))
            coarse = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=P1, max_total=M1)))[0]
            fine = interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=P2, max_total=M2)))[0]
        if not coarse.certified:
            continue
        assert coarse.log_partial <= fine.log_partial + 1e-12
        assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12), (
            family,
            N,
            tau,
            k,
            (M1, P1, M2, P2),
        )
        checked += 1


_CHAINS = {"walk": [(4, 12), (12, 24), (24, 24), (24, 48), (48, 48)], "mixture": [(2, 6), (4, 8), (6, 8), (8, 8)]}


@pytest.mark.parametrize("N", [30, 300, 100000])
@pytest.mark.parametrize("walk", ["haar", "atoms", "porod", "mixture"])
def test_certification_does_not_depend_on_the_truncation(walk, N):
    # each family's one tail hypothesis does not read the truncation, so a
    # row is certified at every truncation or at none, and along a chain of
    # growing truncations each partial lies in the previous interval
    nu = {"haar": CircleMeasure.haar(), "atoms": CircleMeasure.atomic([(0.3, 0.25), (1.7, 0.75)]),
          "porod": CircleMeasure.porod(N)}.get(walk)
    q = WalkQuery.mixture(N) if walk == "mixture" else WalkQuery.unitary(N, 2.0, nu)
    ks = [nominal_cutoff(q) + c * N for c in (-0.5, 0.0, 0.3, 1.0)]
    grids = [interval_rows(A_k_grid(q, ks, TruncationConfig(max_p=P, max_total=M)))
             for P, M in _CHAINS["mixture" if walk == "mixture" else "walk"]]
    certified = [[row.certified for row in rows] for rows in grids]
    assert all(c == certified[0] for c in certified) and any(certified[0]) and not all(certified[0])
    for coarse_rows, fine_rows in zip(grids, grids[1:]):
        for k, coarse, fine in zip(ks, coarse_rows, fine_rows):
            # the mixture averages each word on a rule of degree
            # (max_total + max_p) // 2, so two truncations round a word's
            # coefficient c differently, and |c|^{2k} carries about 2k times
            # that rounding: 2.6e-9 relative at N = 100000, c = 1
            # (2k = 1.35e6), where the tail is 1.7e-12
            slack = max(1e-12, 64 * 2 * k * 2.0**-53) if walk == "mixture" else 1e-12
            if coarse.certified:
                assert coarse.log_partial <= fine.log_partial + slack
                assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + slack)


_NESTING_CASES = {
    "walk": [(100000, 0.3, 30), (1000, 0.5, 24), (200, 1.0, 48), (30, 0.5, 14), (100000, 0.25, 40)],
    "mixture": [(N, c, 12) for N in (20, 100, 300, 100000) for c in (0.5, 1.0, 2.0)],
}


@pytest.mark.parametrize("walk", ["haar", "atoms", "porod", "mixture"])
def test_intervals_nest_as_max_p_grows(walk):
    # each step of max_p moves the words of one more block count from the
    # tail into the partial, so the partial does not fall and the upper end
    # log(partial + tail) does not rise, at every max_p up to max_total;
    # the mixture's partial carries the rounding budgeted in
    # test_certification_does_not_depend_on_the_truncation
    nu = {"haar": CircleMeasure.haar(), "atoms": CircleMeasure.atomic([(0.3, 0.25), (1.7, 0.75)])}.get(walk)
    for N, c, max_total in _NESTING_CASES["mixture" if walk == "mixture" else "walk"]:
        q = (WalkQuery.mixture(N) if walk == "mixture"
             else WalkQuery.unitary(N, 2.0, CircleMeasure.porod(N) if walk == "porod" else nu))
        k = nominal_cutoff(q) + c * N
        slack = max(1e-12, 64 * 2 * k * 2.0**-53) if walk == "mixture" else 1e-12
        rows = [interval_rows(A_k_grid(q, [k], TruncationConfig(max_p=P, max_total=max_total)))[0]
                for P in range(1, max_total + 1)]
        assert all(row.certified for row in rows)
        for P, (coarse, fine) in enumerate(zip(rows, rows[1:]), start=1):
            assert fine.log_partial >= coarse.log_partial - slack, (N, c, P)
            assert fine.log_upper <= coarse.log_upper + slack, (N, c, P)


def test_raising_max_p_keeps_the_certificate(capsys):
    # the composition tail sums the excluded words' majorant exactly, so this
    # query stays certified as max_p grows, its intervals nest, and at
    # max_p = max_total = 48 its tail is the point mass's: both then bound
    # the words of total > 48
    argv = ["bound", "--family", "unitary", "--N", "100000", "--tau", "2", "--c", "0.3"]
    records = []
    for extra in [["--nu", "haar", "--max-p", max_p] for max_p in ("12", "24", "48")] + [[]]:
        assert cli.main(argv + extra) == 0
        records.append(json.loads(capsys.readouterr().out))
    *haar, delta = records
    assert all(r["certified"] and r["hypotheses"]["x + S < 1"] and r["A_log_tail"] < math.inf for r in haar)
    assert [r["A_tail"] for r in haar] == pytest.approx([6.1977e-05, 2.5521e-09, 4.0661e-11], rel=1e-4)
    assert abs(haar[-1]["A_log_tail"] - delta["A_log_tail"]) <= 1e-12
    for coarse, fine in zip(haar, haar[1:]):
        assert coarse["A_log_partial"] <= fine["A_log_partial"] + 1e-12
        assert (np.logaddexp(fine["A_log_partial"], fine["A_log_tail"])
                <= np.logaddexp(coarse["A_log_partial"], coarse["A_log_tail"]) + 1e-12)


# ---------------------------------------------------------------------------
# hypothesis bookkeeping / uncertified paths


def test_uncertified_small_k():
    q = WalkQuery.unitary(20, 2.0)
    A = interval_rows(A_k_grid(q, [0.5], DEFAULT_TRUNCATION))[0]
    assert not A.certified
    assert dict(A.hypotheses)["k >= 1"] is False


def test_uncertified_tau_too_close_to_N():
    q = WalkQuery.unitary(10, 8.5)  # N - tau = 1.5 <= 2
    A = interval_rows(A_k_grid(q, [20.0], DEFAULT_TRUNCATION))[0]
    assert not A.certified
    assert dict(A.hypotheses)["N - tau > 2"] is False


def test_uncertified_wreath_small_tau():
    g = cyclic_group(2)
    q = WalkQuery.wreath(40, 1.5, g, trivial_state(g))
    A = interval_rows(A_k_grid(q, [20.0], DEFAULT_TRUNCATION))[0]
    assert not A.certified
    assert dict(A.hypotheses)["tau > 7/4"] is False


def test_uncertified_wreath_below_threshold():
    g = cyclic_group(2)
    q = WalkQuery.wreath(20, 2.0, g, trivial_state(g))  # 20 < 186/7
    A = interval_rows(A_k_grid(q, [20.0], DEFAULT_TRUNCATION))[0]
    assert not A.certified
    assert dict(A.hypotheses)["N >= Q(tau)/(4 tau - 7)"] is False


def test_recorded_only_hypothesis_does_not_block():
    # the unitary C(tau) condition is recorded but the numeric ratio checks
    # decide certification
    q = WalkQuery.unitary(6, 2.8)  # N < tau + C(tau) = 6.159...
    A = interval_rows(A_k_grid(q, [25.0], DEFAULT_TRUNCATION))[0]
    hyps = dict(A.hypotheses)
    assert hyps["N >= tau + C(tau) [recorded]"] is False
    assert A.certified  # numeric ratios still hold at this k


# ---------------------------------------------------------------------------
# TV conversions


def _interval_grid(log_partial, log_tail, ks=None):
    """An IntervalGrid with these endpoint logs, certified where the tail
    is finite, at the steps ``ks`` (default 1 each)."""
    lp, lt = np.array(log_partial, dtype=float), np.array(log_tail, dtype=float)
    k = np.ones(lp.size) if ks is None else np.array(ks, dtype=float)
    certified = lt < math.inf
    return bounds.IntervalGrid(k, lp, lt, certified, 1, "", (), k >= 1.0, "t", k >= 1.0)


def test_tv_upper_from_A_values():
    def mk(*pairs):
        logs = [[math.log(v) if v > 0 else -math.inf for v in pair] for pair in pairs]
        return _interval_grid(*zip(*logs))

    lo, hi, clamped = tv_upper_from_A(mk((0.04, 0.0004), (0.0, 0.0), (400.0, 4.0)))
    assert hi[0] == pytest.approx(0.5 * math.sqrt(0.0404), rel=1e-12)
    assert lo[0] == pytest.approx(0.5 * math.sqrt(0.04), rel=1e-12)
    assert hi[1] == 0.0
    assert hi[2] == 1.0
    assert clamped.tolist() == [False, False, True]

    # bound prints the partial and tail as the exponentials of the logs,
    # infinite only where exp overflows: e^709 is finite, e^710 is not
    assert (_exp(709.0), _exp(700.0)) == (math.exp(709.0), math.exp(700.0))
    assert (_exp(710.0), _exp(-math.inf)) == (math.inf, 0.0)


def test_tv_upper_uncertified_clamps_to_one():
    q = WalkQuery.unitary(20, 2.0)  # k < 1: no certificate
    A = A_k_grid(q, [0.5], DEFAULT_TRUNCATION)
    lo, hi, clamped = tv_upper_from_A(A)
    assert hi.tolist() == [1.0]
    assert clamped.tolist() == [True]
    assert A.certified.tolist() == [False]


def _bits(values):
    return [float(v).hex() for v in values]


def test_tv_columns_are_the_scalar_reference_bits_on_edge_rows():
    # the guard at log 700, a -inf partial, an upper bound at and about
    # exactly 1, uncertified rows and rows with k < 1
    below, above = math.nextafter(700.0, 0.0), math.nextafter(700.0, math.inf)
    one = math.log(4.0)  # sqrt(4) / 2 = 1
    log_partial = [below, 700.0, above, -math.inf, 1.0, one, one + 1e-15,
                   math.nextafter(one, 0.0), -3.0, -3.0, 710.0, -800.0]
    log_tail = [-1.0, -1.0, -1.0, -5.0, math.inf, -math.inf, -math.inf,
                -math.inf, -40.0, math.inf, -1.0, math.inf]
    ks = [1.0] * 8 + [0.5, 0.25, 3.0, 0.0]
    grid = _interval_grid(log_partial, log_tail, ks)
    lo, hi, clamped = tv_upper_from_A(grid)
    want = [tv_upper_reference(row) for row in interval_rows(grid)]
    assert _bits(lo) == _bits(w[0] for w in want)
    assert _bits(hi) == _bits(w[1] for w in want)
    assert clamped.tolist() == [w[2] for w in want]
    assert grid.certified.tolist() == [w[3] for w in want]
    assert hi[5] == 1.0 and not clamped[5] and hi[6] == 1.0 and clamped[6]
    # a walk whose witness is out of domain: N - tau <= 1 gives 0 everywhere
    q = WalkQuery.unitary(3, 2.5)
    ks = [0.0, 0.5, 1.0, 10.0]
    assert tv_lower(q, np.array(ks)).tolist() == [tv_lower_reference(q, k) for k in ks] == [0.0] * 4


# walks the pool does not hold: rows with k < 1, walk hypotheses that fail
# (N - tau > 2, tau > 7/4, N >= 12), a witness out of domain (N - tau <= 1)
_EDGE_WALKS = [
    ("profile", "--family", "unitary", "--N", "20", "--tau", "2", "--k-range", "0:2:0.25"),
    ("profile", "--family", "unitary", "--N", "4", "--tau", "2.5", "--nu", "haar", "--k-range", "0:40:4"),
    ("profile", "--family", "unitary", "--N", "3", "--tau", "2.5", "--k-range", "0:40:4"),
    ("profile", "--family", "wreath", "--N", "40", "--tau", "1.5", "--group", "cyclic:3", "--k-range", "0:90:9"),
    ("profile", "--family", "mixture", "--N", "10", "--k-range", "0:50:5"),
    ("bound", "--family", "wreath", "--N", "6", "--tau", "5.5", "--group", "cyclic:2", "--k", "0.5"),
]


def test_profile_columns_are_the_per_row_reference_bits_on_every_pool_grid(monkeypatch, tmp_path):
    # every profile and bound grid of the benchmark pool, and the edge
    # walks: the interval columns against the per-row assembly from the
    # same engine pieces, and both TV bounds against their scalar
    # math-module forms, compared by repr, which tells every float apart
    argvs = benchmark_pool(tmp_path) + _EDGE_WALKS
    monkeypatch.chdir(tmp_path)
    pieces = []
    assemble = bounds._intervals
    monkeypatch.setattr(bounds, "_intervals", lambda *args: pieces.append(args) or assemble(*args))
    rows_seen = 0
    for argv in argvs:
        args = cli.parse_args(argv)
        q, ks = cli._build_query(args)
        result = cutoff_profile(q, ks, cli._truncation_for(args, q.family))
        rows = interval_rows(result.A)
        assert repr(rows) == repr(reference_intervals(*pieces.pop())), argv
        tv = zip(result.tv_upper_lo.tolist(), result.tv_upper_hi.tolist(), result.tv_clamped.tolist(),
                 result.A.certified.tolist())
        assert repr(list(tv)) == repr([tv_upper_reference(row) for row in rows]), argv
        assert repr(result.tv_lower.tolist()) == repr([tv_lower_reference(q, k) for k in ks]), argv
        rows_seen += len(rows)
    assert len(argvs) == 476 and rows_seen > 4000


def test_tv_lower_chebyshev():
    assert tv_lower_chebyshev(10.0, 9.0, 1.0) == pytest.approx(1.0 - 40.0 / 100.0)
    assert tv_lower_chebyshev(1.0, 9.0, 1.0) == 0.0  # clamped at zero
    assert tv_lower_chebyshev(-3.0, 9.0, 1.0) == 0.0
    assert tv_lower_chebyshev(1e-200, 9.0, 1.0) == 0.0  # m^2 underflows to 0
    with pytest.raises(ValueError):
        tv_lower_chebyshev(5.0, -1.0, 1.0)


def test_tv_lower_wreath_k_zero():
    g = cyclic_group(2)
    q = WalkQuery.wreath(10, 2.0, g, trivial_state(g))
    # witness expectation at k = 0 is N - 1 = 9: bound is 1 - 40/81
    assert tv_lower(q, 0.0) == pytest.approx(1.0 - 40.0 / 81.0, rel=1e-12)


def test_tv_lower_vanishes_at_large_k():
    q = WalkQuery.unitary(20, 2.0)
    assert tv_lower(q, 1e5) == 0.0
    g = cyclic_group(2)
    qw = WalkQuery.wreath(30, 2.0, g, trivial_state(g))
    assert tv_lower(qw, 1e5) == 0.0


def test_tv_lower_mixture():
    N = 10
    q = WalkQuery.mixture(N)
    m = 2.0 * N
    assert tv_lower(q, 0.0) == pytest.approx(1.0 - 4.0 * 6.0 / (m * m), rel=1e-12)


# ---------------------------------------------------------------------------
# profiles


def test_cutoff_profile_monotone_and_consistent():
    q = WalkQuery.unitary(20, 2.0)
    ks = [30.0, 40.0, 50.0, 60.0, 80.0]
    prof = cutoff_profile(q, ks)
    assert prof.A.k.tolist() == ks
    assert prof.monotone_upper
    for i, k in enumerate(ks):
        single = A_k_grid(q, [k], DEFAULT_TRUNCATION)
        assert prof.tv_upper_hi[i] == pytest.approx(tv_upper_from_A(single)[1][0], rel=1e-15)
        assert prof.tv_lower[i] == pytest.approx(tv_lower(q, k), rel=1e-15)
        assert 0.0 <= prof.tv_lower[i] <= 1.0
        assert 0.0 <= prof.tv_upper_hi[i] <= 1.0
        if prof.A.certified[i]:
            assert prof.tv_lower[i] <= prof.tv_upper_hi[i] + 1e-12


def _dihedral_group(n):
    # index a is r^a, index n + a is s r^a, with s r s = r^{-1}
    def mul(x, y):
        a, b = x % n, y % n
        if x < n:
            return (a + b) % n if y < n else n + (b - a) % n
        return n + (a + b) % n if y < n else (b - a) % n

    rows = [" ".join(str(mul(x, y)) for y in range(2 * n)) for x in range(2 * n)]
    return load_cayley("\n".join([str(2 * n)] + rows))


def _grid_cases():
    z3 = cyclic_group(3)
    d4 = _dihedral_group(4)
    return [
        (WalkQuery.unitary(20, 2.0, CircleMeasure.delta(1.7)), [0.0, 0.5, 1.0, 20.0, 30.0, 60.0]),
        (WalkQuery.eval_point(20, 2.0), [0.0, 0.5, 1.0, 30.0, 60.0, 120.0]),
        (WalkQuery.unitary(20, 2.0, CircleMeasure.haar()), [0.0, 0.5, 1.0, 30.0, 60.0]),
        (WalkQuery.wreath(40, 2.0, z3, load_group_state(z3, "1 0\n0.5 0\n0.5 0\n")),
         [0.0, 0.5, 1.0, 40.0, 80.0, 120.0]),
        # the average of the trivial and sign characters of the dihedral group
        (WalkQuery.wreath(40, 3.0, d4, GroupState.from_values(d4, [1.0] * 4 + [0.0] * 4)),
         [0.0, 0.5, 1.0, 40.0, 80.0]),
        (WalkQuery.mixture(20), [0.0, 0.5, 1.0, 30.0, 60.0]),
    ]


@pytest.mark.parametrize("query, ks", _grid_cases())
def test_cutoff_profile_rows_match_single_point_engine(query, ks):
    prof = cutoff_profile(query, ks)
    assert prof.A.k.tolist() == ks
    rows = interval_rows(prof.A)
    assert any(row.certified for row in rows) and not all(row.certified for row in rows)
    for k, row in zip(ks, rows):
        single = interval_rows(A_k_grid(query, [k]))[0]
        for got, want in ((row.log_partial, single.log_partial), (row.log_tail, single.log_tail)):
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert row.certified == single.certified
        assert row.hypotheses == single.hypotheses


@pytest.mark.parametrize(
    "argv, engine, passes",
    [
        # a point mass sums every block count in one resolvent pass
        (["--family", "unitary", "--N", "40", "--tau", "2"], "_log_resolvent", 1),
        (["--family", "eval", "--N", "40", "--theta", "2"], "_log_resolvent", 1),
        # the wreath pass takes 1 / (1 - X) from one resolvent pass, and E^2
        # from one power pass (below)
        (["--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:3"], "_log_resolvent", 1),
        # a general nu runs the parity-class sum once for the whole grid
        (["--family", "unitary", "--N", "40", "--tau", "2", "--nu", "haar"], "_parity_log_partials", 1),
        # Porod averages are exact: no Gauss-Legendre quadrature at all
        (["--family", "mixture", "--N", "20"], "porod_nodes", 0),
        (["--family", "unitary", "--N", "40", "--tau", "2", "--nu", "porod"], "porod_nodes", 0),
        # the mixture builds its rule once per profile
        (["--family", "mixture", "--N", "20"], "porod_rule", 1),
        (["--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:3"], "_log_conv_powers", 1),
        # a point mass takes no power
        (["--family", "unitary", "--N", "40", "--tau", "2"], "_log_conv_powers", 0),
        # each TV bound takes one pass over the grid, not one call a row
        (["--family", "unitary", "--N", "40", "--tau", "2", "--nu", "haar"], "tv_upper_from_A", 1),
        (["--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:3"], "tv_lower", 1),
    ],
)
def test_profile_runs_the_engine_once(monkeypatch, capsys, argv, engine, passes):
    # bound is the one-point profile: one A_k_grid call each
    calls = {"engine": 0, "grid": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (bounds, structures):
        if hasattr(module, engine):
            monkeypatch.setattr(module, engine, counted("engine", getattr(module, engine)))
    monkeypatch.setattr(bounds, "A_k_grid", counted("grid", bounds.A_k_grid))
    assert cli.main(["profile", *argv, "--c-range", "-1:1:0.5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 5
    assert calls == {"engine": passes, "grid": 1}
    assert cli.main(["bound", *argv, "--c", "1"]) == 0
    assert calls == {"engine": 2 * passes, "grid": 2}


@pytest.mark.parametrize(
    "query, ks",
    [
        (WalkQuery.unitary(30, 2.0), [1.0, 41.0, 81.0, 121.0]),
        (WalkQuery.eval_point(30, 2.0), [1.0, 60.0, 120.0, 200.0]),
        (WalkQuery.mixture(20), [1.0, 30.0, 60.0]),
        (WalkQuery.wreath(30, 2.0, cyclic_group(3), trivial_state(cyclic_group(3))), [1.0, 41.0, 81.0]),
        (WalkQuery.unitary(30, 2.0, CircleMeasure.haar()), [1.0, 41.0, 81.0, 121.0]),
    ],
)
def test_profile_rows_share_one_hypothesis_key_sequence(query, ks):
    # every row past the base hypotheses, certified or not, names the tail
    # check the same way: one hypothesis per family, x + S < 1 for the
    # unitary families and the mixture, y + m Z < 1 for the wreath, which
    # holds exactly on the certified rows
    rows = interval_rows(cutoff_profile(query, ks).A)
    assert any(row.certified for row in rows) and not all(row.certified for row in rows)
    keys = {tuple(name for name, _ in row.hypotheses) for row in rows}
    assert len(keys) == 1
    tail_key = "y + m Z < 1" if query.family == "wreath" else "x + S < 1"
    assert keys.pop()[-1] == tail_key
    assert all(row.hypotheses[-1] == (tail_key, row.certified) for row in rows)


def test_cutoff_profile_rejects_empty_grid():
    q = WalkQuery.unitary(20, 2.0)
    with pytest.raises(ValueError):
        cutoff_profile(q, [])


def test_walk_query_validation():
    with pytest.raises(ValueError):
        WalkQuery.unitary(20, 0.0)  # tau must be positive
    with pytest.raises(ValueError):
        WalkQuery.unitary(20, 25.0)  # tau above N
    with pytest.raises(ValueError):
        WalkQuery.mixture(5)  # mixture needs N >= 6
    with pytest.raises(ValueError):
        WalkQuery("nonsense", 10)
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        WalkQuery.wreath(4, 2.0, g, trivial_state(g))


def test_eval_query_without_cutoff_rate_raises():
    # 1 - cos(theta) = 0 leaves no cutoff rate: nominal_cutoff would divide by 0
    for theta in (0.0, 2.0 * math.pi, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta"):
            WalkQuery.eval_point(50, theta)


@pytest.mark.parametrize("family, kwargs, fields", [
    ("unitary-free", {"tau": 2.0, "theta": 1.0}, ("theta",)),
    ("unitary-eval", {"theta": 1.0, "tau": 2.0, "nu": CircleMeasure.haar()}, ("tau", "nu")),
    ("mixture", {"group": cyclic_group(2)}, ("group",)),
    ("wreath", {"tau": 2.0, "group": cyclic_group(2), "theta": 1.0}, ("theta",)),
    ("unitary-free", {}, ("tau",)),
    ("unitary-eval", {}, ("theta",)),
    ("wreath", {"tau": 2.0}, ("group",)),
    ("wreath", {"tau": 2.0, "group": cyclic_group(2), "psi": trivial_state(cyclic_group(3))}, ("group", "psi")),
    ("unitary-free", {"tau": 0.0}, ("tau",)),
    ("wreath", {"tau": 30.0, "group": cyclic_group(2)}, ("tau",)),
    ("mixture", {"tau": 2.0, "nu": CircleMeasure.haar()}, ("tau", "nu")),
])
def test_walk_query_rules_name_the_fields(family, kwargs, fields):
    with pytest.raises(bounds.ParameterError) as info:
        WalkQuery(family, 30, **kwargs)
    assert info.value.fields == fields
    assert str(info.value).startswith(", ".join(fields) + ": ")


@pytest.mark.parametrize("family, N", [("unitary-free", 2), ("unitary-eval", 2), ("mixture", 5), ("wreath", 4)])
def test_walk_query_N_below_the_family_minimum(family, N):
    params = {"unitary-free": {"tau": 1.0}, "unitary-eval": {"theta": 1.0}, "mixture": {},
              "wreath": {"tau": 1.0, "group": cyclic_group(2)}}[family]
    WalkQuery(family, N + 1, **params)
    with pytest.raises(bounds.ParameterError) as info:
        WalkQuery(family, N, **params)
    assert info.value.fields == ("N",)


def test_walk_query_fills_the_family_defaults():
    g = cyclic_group(3)
    assert WalkQuery.unitary(20, 2.0).nu == CircleMeasure.delta(0.0)
    assert WalkQuery.wreath(20, 2.0, g).psi == trivial_state(g)
    # a family's unread parameters stay None
    q = WalkQuery.eval_point(20, 1.0)
    assert (q.tau, q.nu, q.group, q.psi) == (None,) * 4
    q = WalkQuery.mixture(20)
    assert (q.tau, q.theta, q.nu, q.group, q.psi) == (None,) * 5


def test_truncation_rules_name_the_fields():
    # max_total below max_p breaks no rule (max_p is stored as max_total); max_total 0 does
    for kwargs, fields in [({"max_p": 0}, ("max_p",)), ({"max_p": 5, "max_total": 0}, ("max_total",)),
                           ({"max_total": bounds.MAX_TOTAL + 1}, ("max_total",))]:
        with pytest.raises(bounds.ParameterError) as info:
            TruncationConfig(**kwargs)
        assert info.value.fields == fields


@pytest.mark.parametrize("tc, fields", [
    (TruncationConfig(max_p=12, max_total=48), ("max_p", "max_total")),
    # (max_total + 1) (2 ((max_total + max_p) // 2) + 1) = 2048 * 2049 > 2^22
    (TruncationConfig(max_p=1, max_total=2047), ("max_p", "max_total")),
])
def test_mixture_size_limits_name_the_fields(tc, fields):
    with pytest.raises(bounds.ParameterError) as info:
        bounds.A_k_grid(WalkQuery.mixture(100), [500.0], tc)
    assert info.value.fields == fields


def test_dispatcher_covers_all_families():
    g = cyclic_group(2)
    queries = [
        WalkQuery.unitary(20, 2.0),
        WalkQuery.eval_point(20, 2.0),
        WalkQuery.mixture(20),
        WalkQuery.wreath(30, 2.0, g, trivial_state(g)),
    ]
    for q in queries:
        A = interval_rows(A_k_grid(q, [40.0]))[0]
        assert A.partial >= 0.0
        assert A.log_partial <= 0.0 or A.partial > 1.0


@pytest.mark.parametrize("k", [-1.0, MAX_K * 2, math.nan])
def test_A_k_grid_rejects_a_step_count_outside_the_range(k):
    with pytest.raises(bounds.ParameterError) as info:
        A_k_grid(WalkQuery.unitary(20, 2.0), [30.0, k])
    assert info.value.fields == ("k",)


def test_cutoff_profile_certifies_the_walk_once(monkeypatch):
    # the walk is checked once, when it is built, and its certificate
    # hypotheses (threshold C among them) once per grid, not once per row
    q = WalkQuery.unitary(30000, 2.0)
    calls = {"post_init": 0, "threshold_C": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(WalkQuery, "__post_init__", counted("post_init", WalkQuery.__post_init__))
    monkeypatch.setattr(bounds, "threshold_C", counted("threshold_C", bounds.threshold_C))
    ks = [nominal_cutoff(q) + c * 30000.0 for c in np.linspace(-5.0, 5.0, 101)]
    A = cutoff_profile(q, ks).A
    assert A.k.size == 101 and A.certified.any()
    assert calls == {"post_init": 0, "threshold_C": 1}


@pytest.mark.parametrize("family, params", [
    ("unitary-free", {"tau": 2.0}), ("unitary-eval", {"theta": 1.0}), ("mixture", {}),
    ("wreath", {"tau": 2.0, "group": cyclic_group(2)}),
])
def test_walk_query_N_above_MAX_N(family, params):
    # above 2^53 float(N) is not N, so the engines would bound another walk
    WalkQuery(family, bounds.MAX_N, **params)
    for N in (bounds.MAX_N + 1, 10**155, 10**400):
        with pytest.raises(bounds.ParameterError) as info:
            WalkQuery(family, N, **params)
        assert info.value.fields == ("N",)


def test_porod_measure_rejects_N_beyond_the_float_range():
    CircleMeasure.porod(bounds.MAX_N + 1)
    with pytest.raises(ValueError, match="float"):
        CircleMeasure.porod(10**400)


# ---------------------------------------------------------------------------
# the Chebyshev lower bound at large N


_LARGE_N_WALKS = {
    "unitary": lambda N: WalkQuery.unitary(N, 2.0),
    "wreath": lambda N: WalkQuery.wreath(N, 2.0, cyclic_group(3)),
    "eval-2": lambda N: WalkQuery.eval_point(N, 2.0),
    "eval-0.01": lambda N: WalkQuery.eval_point(N, 0.01),
    "mixture": lambda N: WalkQuery.mixture(N),
}


@pytest.mark.parametrize("N", [10**13, 10**15, 2**53])
@pytest.mark.parametrize("walk", list(_LARGE_N_WALKS))
def test_tv_lower_is_zero_one_N_past_the_cutoff_at_large_N(walk, N):
    # the witness mean tends to e^{-2 rate} or below there, far under the
    # Chebyshev threshold; a step factor formed as a difference of two logs
    # of size log N rounds to 1 and reads 1.0
    q = _LARGE_N_WALKS[walk](N)
    assert tv_lower(q, nominal_cutoff(q) + N) == 0.0


@pytest.mark.parametrize("N", [10**13, 10**15, 2**53])
@pytest.mark.parametrize("walk, c, limit", [
    ("unitary", -0.6, 1.0 - 40.0 * math.exp(-4.8)),
    ("mixture", -1.0, 1.0 - 6.0 * math.exp(-4.0)),
])
def test_tv_lower_before_the_cutoff_reaches_its_limit_at_large_N(walk, c, limit, N):
    # the witness mean tends to e^{-2 rate c} (unitary, tau = 2) and
    # 2 e^{-2 rate c} (mixture, rate 2), about ln N / N off at N
    q = _LARGE_N_WALKS[walk](N)
    assert tv_lower(q, nominal_cutoff(q) + c * N) == pytest.approx(limit, abs=1e-6)


def test_bound_prints_a_zero_lower_bound_one_N_past_the_cutoff_at_large_N(capsys):
    assert cli.main(["bound", "--family", "unitary", "--N", "1000000000000000", "--tau", "2", "--c", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["tv_lower"] == 0.0
