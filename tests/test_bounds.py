"""The certified series engine: thresholds, partial sums against brute-force
oracles, tail soundness, truncation containment, and the TV conversions.
"""

import math

import numpy as np
import pytest

from qgcutoff.bounds import (
    DEFAULT_TRUNCATION,
    MIXTURE_DEFAULT_TRUNCATION,
    A_k_for_query,
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
from qgcutoff import bounds, cli
from qgcutoff.structures import (
    CircleMeasure,
    GroupState,
    cyclic_group,
    load_cayley,
    load_group_state,
    trivial_state,
)
from qgcutoff.words import eval_state_params

from oracles import (
    mixture_log_partial,
    unitary_log_partial,
    unitary_tail_majorant,
    wreath_log_partial,
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
    q = WalkQuery.unitary(20, 2.0, 0.0)
    assert nominal_cutoff(q) == pytest.approx(20.0 * math.log(20.0) / 2.0)
    qe = WalkQuery.eval_point(20, math.pi, 0.0)
    assert nominal_cutoff(qe) == pytest.approx(20.0 * math.log(20.0) / 2.0)
    qm = WalkQuery.mixture(20, 0.0)
    assert nominal_cutoff(qm) == pytest.approx(20.0 * math.log(20.0) / 2.0)


# ---------------------------------------------------------------------------
# partial sums against the brute-force oracle


def test_unitary_partial_matches_oracle_delta():
    N, tau, k = 12, 2.0, 4.0
    tc = TruncationConfig(max_p=5, max_total=10)
    q = WalkQuery.unitary(N, tau, k)
    got = A_k_for_query(q, tc).log_partial
    want = unitary_log_partial(N, N - tau, CircleMeasure.delta(0.0), k, 10, 5)
    assert got == pytest.approx(want, abs=1e-9)


def test_unitary_partial_matches_oracle_atomic():
    # non-trivial winding moments exercise the stop-exponent bookkeeping
    N, k = 12, 3.5
    nu = CircleMeasure.atomic([(0.0, 0.6), (2.0, 0.4)])
    tc = TruncationConfig(max_p=4, max_total=9)
    q = WalkQuery("unitary-free", N, k, tau=2.0, nu=nu)
    got = A_k_for_query(q, tc).log_partial
    want = unitary_log_partial(N, 10.0, nu, k, 9, 4)
    assert got == pytest.approx(want, abs=1e-9)


def test_unitary_partial_matches_oracle_k_zero():
    # k = 0 collapses every coefficient power to 1: partial = sum of dim^2
    N = 12
    tc = TruncationConfig(max_p=3, max_total=6)
    q = WalkQuery.unitary(N, 2.0, 0.0)
    got = A_k_for_query(q, tc).log_partial
    want = unitary_log_partial(N, 10.0, CircleMeasure.delta(0.0), 0.0, 6, 3)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize(
    "query, t, nu",
    [
        # nonzero angle: every |m_eps| = 1 but the moments themselves differ
        (WalkQuery.unitary(12, 2.0, 4.0, CircleMeasure.delta(1.7)), 10.0, CircleMeasure.delta(1.7)),
        (WalkQuery.eval_point(15, 1.1, 9.0),) + eval_state_params(15, 1.1),
        # t = 1: u_2(1) = 0, so words with a 2-block vanish for k > 0 only
        (WalkQuery.unitary(3, 2.0, 2.0), 1.0, CircleMeasure.delta(0.0)),
        (WalkQuery.unitary(3, 2.0, 0.0), 1.0, CircleMeasure.delta(0.0)),
    ],
)
def test_point_mass_partial_matches_oracle(query, t, nu):
    tc = TruncationConfig(max_p=4, max_total=9)
    got = A_k_for_query(query, tc).log_partial
    want = unitary_log_partial(query.N, t, nu, query.k, 9, 4)
    assert math.isfinite(got)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_trivial_state():
    N, tau, k = 12, 2.0, 4.0
    g = cyclic_group(2)
    psi = trivial_state(g)
    tc = TruncationConfig(max_p=4, max_total=10)
    q = WalkQuery.wreath(N, tau, k, g, psi)
    got = A_k_for_query(q, tc).log_partial
    want = wreath_log_partial(N, tau, g, psi, k, 10, 4)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_nontrivial_state():
    N, tau, k = 14, 2.0, 2.5
    g = cyclic_group(2)
    psi = GroupState.from_values(g, [1.0, 0.5])
    tc = TruncationConfig(max_p=4, max_total=10)
    q = WalkQuery.wreath(N, tau, k, g, psi)
    got = A_k_for_query(q, tc).log_partial
    want = wreath_log_partial(N, tau, g, psi, k, 10, 4)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_matches_oracle_z3():
    N, tau, k = 30, 3.0, 10.0
    g = cyclic_group(3)
    psi = trivial_state(g)
    tc = TruncationConfig(max_p=3, max_total=8)
    q = WalkQuery.wreath(N, tau, k, g, psi)
    got = A_k_for_query(q, tc).log_partial
    want = wreath_log_partial(N, tau, g, psi, k, 8, 3)
    assert got == pytest.approx(want, abs=1e-9)


def test_wreath_partial_empty_truncation():
    # max_total = 1 admits no wreath word: the partial is an empty sum
    g = cyclic_group(2)
    q = WalkQuery.wreath(40, 2.0, 30.0, g, trivial_state(g))
    assert A_k_for_query(q, TruncationConfig(max_p=1, max_total=1)).log_partial == -math.inf


def test_mixture_partial_matches_oracle():
    # per-word quadrature vs the engine's vectorized node fold
    N, k = 12, 6.0
    tc = TruncationConfig(max_p=2, max_total=4)
    got = A_k_for_query(WalkQuery.mixture(N, k, quad_points=512), tc).log_partial
    want = mixture_log_partial(N, k, 4, 2, quad_points=512)
    assert got == pytest.approx(want, abs=1e-8)


def test_eval_family_routes_to_central_state():
    # evaluation at angle theta must agree exactly with the central state at
    # t = |N - 1 + e^{i theta}| and the single-atom measure at its argument
    from qgcutoff.words import eval_state_params

    N, theta, k = 15, 1.1, 9.0
    tc = TruncationConfig(max_p=4, max_total=12)
    qe = WalkQuery.eval_point(N, theta, k)
    t, nu = eval_state_params(N, theta)
    qf = WalkQuery("unitary-free", N, k, tau=N - t, nu=nu)
    a = A_k_for_query(qe, tc)
    b = A_k_for_query(qf, tc)
    assert a.log_partial == pytest.approx(b.log_partial, abs=1e-12)


# ---------------------------------------------------------------------------
# tail certificates


def test_tail_positive_and_certified():
    q = WalkQuery.unitary(20, 2.0, 60.0)
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    assert A.certified
    assert 0.0 < A.tail < A.partial
    assert A.upper == pytest.approx(A.partial + A.tail)


def test_tail_mode_none():
    q = WalkQuery.unitary(20, 2.0, 60.0)
    A = A_k_for_query(q, TruncationConfig(max_p=8, max_total=20, tail_mode="none"))
    assert not A.certified
    assert A.tail == math.inf  # unknown remainder


def test_certificate_contains_refined_partial_unitary():
    # coarse certified interval must contain the partial of a finer truncation
    q = WalkQuery.unitary(15, 2.0, 40.0)  # past the cutoff ~20.3
    coarse = A_k_for_query(q, TruncationConfig(max_p=6, max_total=12))
    fine = A_k_for_query(q, TruncationConfig(max_p=12, max_total=24))
    assert coarse.certified
    assert coarse.log_partial <= fine.log_partial + 1e-12
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)


def test_certificate_contains_refined_partial_wreath():
    g = cyclic_group(3)
    q = WalkQuery.wreath(30, 2.0, 80.0, g, trivial_state(g))  # cutoff ~51
    coarse = A_k_for_query(q, TruncationConfig(max_p=6, max_total=12))
    fine = A_k_for_query(q, TruncationConfig(max_p=12, max_total=24))
    assert coarse.certified
    assert coarse.log_partial <= fine.log_partial + 1e-12
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)


def test_certificate_contains_refined_partial_mixture():
    q = WalkQuery.mixture(20, 50.0)
    coarse = A_k_for_query(q, TruncationConfig(max_p=5, max_total=10))
    fine = A_k_for_query(q, TruncationConfig(max_p=7, max_total=14))
    assert coarse.certified
    # quadrature noise allowance on top of the containment
    assert math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-8)


@pytest.mark.parametrize(
    "N, tau, k, max_total, max_p",
    [(20, 2.0, 60.0, 10, 4), (30, 2.0, 100.0, 7, 7), (15, 3.0, 40.0, 12, 3)],
)
def test_unitary_tail_bounds_the_excluded_words(N, tau, k, max_total, max_p):
    # the certificate is at least the majorant summed word class by word
    # class over the complement, and close to it
    A = A_k_for_query(WalkQuery.unitary(N, tau, k), TruncationConfig(max_p=max_p, max_total=max_total))
    want = unitary_tail_majorant(N, tau, k, max_total, max_p)
    assert A.certified
    assert want - 1e-12 <= A.log_tail <= want + 1e-3


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
    # the composition tail over parts 2..max_p + 1 plus the single-character
    # piece covers every excluded wreath word's majorant
    g = cyclic_group(3)
    psi = GroupState.from_values(g, values)
    A = A_k_for_query(WalkQuery.wreath(N, tau, k, g, psi), TruncationConfig(max_p=max_p, max_total=max_total))
    want = wreath_tail_majorant(N, tau, g, psi, k, max_total, max_p)
    assert A.certified
    assert want - 1e-12 <= A.log_tail <= want + 1e-3


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
            q = WalkQuery.unitary(N, tau, k)
            coarse = A_k_for_query(q, TruncationConfig(max_p=P1, max_total=M1))
            fine = A_k_for_query(q, TruncationConfig(max_p=P2, max_total=M2))
        else:
            N = int(rng.integers(28, 80))
            tau = 2.0
            g = cyclic_group(int(rng.integers(2, 4)))
            k = N * math.log(N) / tau + c * N
            q = WalkQuery.wreath(N, tau, k, g, trivial_state(g))
            coarse = A_k_for_query(q, TruncationConfig(max_p=P1, max_total=M1))
            fine = A_k_for_query(q, TruncationConfig(max_p=P2, max_total=M2))
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


def test_mixture_quadrature_refinement():
    # spectral convergence: 512 vs 4096 nodes agree far below the tolerance
    tc = TruncationConfig(max_p=3, max_total=6)
    a = A_k_for_query(WalkQuery.mixture(50, 250.0, quad_points=512), tc)
    b = A_k_for_query(WalkQuery.mixture(50, 250.0, quad_points=4096), tc)
    assert a.log_partial == pytest.approx(b.log_partial, abs=1e-9)


# ---------------------------------------------------------------------------
# hypothesis bookkeeping / uncertified paths


def test_uncertified_small_k():
    q = WalkQuery.unitary(20, 2.0, 0.5)
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    assert not A.certified
    assert dict(A.hypotheses)["k >= 1"] is False


def test_uncertified_tau_too_close_to_N():
    q = WalkQuery.unitary(10, 8.5, 20.0)  # N - tau = 1.5 <= 2
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    assert not A.certified
    assert dict(A.hypotheses)["N - tau > 2"] is False


def test_uncertified_wreath_small_tau():
    g = cyclic_group(2)
    q = WalkQuery.wreath(40, 1.5, 20.0, g, trivial_state(g))
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    assert not A.certified
    assert dict(A.hypotheses)["tau > 7/4"] is False


def test_uncertified_wreath_below_threshold():
    g = cyclic_group(2)
    q = WalkQuery.wreath(20, 2.0, 20.0, g, trivial_state(g))  # 20 < 186/7
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    assert not A.certified
    assert dict(A.hypotheses)["N >= Q(tau)/(4 tau - 7)"] is False


def test_recorded_only_hypothesis_does_not_block():
    # the unitary C(tau) condition is recorded but the numeric ratio checks
    # decide certification
    q = WalkQuery.unitary(6, 2.8, 25.0)  # N < tau + C(tau) = 6.159...
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    hyps = dict(A.hypotheses)
    assert hyps["N >= tau + C(tau) [recorded]"] is False
    assert A.certified  # numeric ratios still hold at this k


# ---------------------------------------------------------------------------
# TV conversions


def test_tv_upper_from_A_values():
    from qgcutoff.bounds import BoundInterval

    def mk(partial, tail):
        lp = math.log(partial) if partial > 0 else -math.inf
        lt = math.log(tail) if tail > 0 else -math.inf
        return BoundInterval(
            partial=partial,
            tail=tail,
            terms_used=1,
            certificate="",
            certified=True,
            hypotheses=(),
            log_partial=lp,
            log_tail=lt,
        )

    tv = tv_upper_from_A(mk(0.04, 0.0004))
    assert tv.upper == pytest.approx(0.5 * math.sqrt(0.0404), rel=1e-12)
    assert tv.lower_info == pytest.approx(0.5 * math.sqrt(0.04), rel=1e-12)
    assert not tv.clamped

    tv0 = tv_upper_from_A(mk(0.0, 0.0))
    assert tv0.upper == 0.0

    tv_big = tv_upper_from_A(mk(400.0, 4.0))
    assert tv_big.upper == 1.0 and tv_big.clamped


def test_tv_upper_uncertified_clamps_to_one():
    q = WalkQuery.unitary(20, 2.0, 0.5)  # k < 1: no certificate
    A = A_k_for_query(q, DEFAULT_TRUNCATION)
    tv = tv_upper_from_A(A)
    assert tv.upper == 1.0
    assert tv.clamped
    assert not tv.certified


def test_tv_lower_chebyshev():
    assert tv_lower_chebyshev(10.0, 9.0, 1.0) == pytest.approx(1.0 - 40.0 / 100.0)
    assert tv_lower_chebyshev(1.0, 9.0, 1.0) == 0.0  # clamped at zero
    assert tv_lower_chebyshev(-3.0, 9.0, 1.0) == 0.0
    assert tv_lower_chebyshev(1e-200, 9.0, 1.0) == 0.0  # m^2 underflows to 0
    with pytest.raises(ValueError):
        tv_lower_chebyshev(5.0, -1.0, 1.0)


def test_tv_lower_wreath_k_zero():
    g = cyclic_group(2)
    q = WalkQuery.wreath(10, 2.0, 0.0, g, trivial_state(g))
    # witness expectation at k = 0 is N - 1 = 9: bound is 1 - 40/81
    assert tv_lower(q) == pytest.approx(1.0 - 40.0 / 81.0, rel=1e-12)


def test_tv_lower_vanishes_at_large_k():
    q = WalkQuery.unitary(20, 2.0, 1e5)
    assert tv_lower(q) == 0.0
    g = cyclic_group(2)
    qw = WalkQuery.wreath(30, 2.0, 1e5, g, trivial_state(g))
    assert tv_lower(qw) == 0.0


def test_tv_lower_mixture():
    N = 10
    q = WalkQuery.mixture(N, 0.0)
    m = 2.0 * N
    assert tv_lower(q) == pytest.approx(1.0 - 4.0 * 6.0 / (m * m), rel=1e-12)


# ---------------------------------------------------------------------------
# profiles


def test_cutoff_profile_monotone_and_consistent():
    q = WalkQuery.unitary(20, 2.0, 0.0)
    ks = [30.0, 40.0, 50.0, 60.0, 80.0]
    prof = cutoff_profile(q, ks)
    assert len(prof.rows) == 5
    assert prof.monotone_upper
    for row, k in zip(prof.rows, ks):
        single = A_k_for_query(q.with_k(k), DEFAULT_TRUNCATION)
        tv = tv_upper_from_A(single)
        assert row.k == k
        assert row.tv_upper_hi == pytest.approx(tv.upper, rel=1e-15)
        assert row.tv_lower == pytest.approx(tv_lower(q.with_k(k)), rel=1e-15)
        assert 0.0 <= row.tv_lower <= 1.0
        assert 0.0 <= row.tv_upper_hi <= 1.0
        if row.certified:
            assert row.tv_lower <= row.tv_upper_hi + 1e-12


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
        (WalkQuery.unitary(20, 2.0, 0.0, CircleMeasure.delta(1.7)), [0.0, 0.5, 1.0, 20.0, 30.0, 60.0]),
        (WalkQuery.eval_point(20, 2.0, 0.0), [0.0, 0.5, 1.0, 30.0, 60.0, 120.0]),
        (WalkQuery.unitary(20, 2.0, 0.0, CircleMeasure.haar()), [0.0, 0.5, 1.0, 30.0, 60.0]),
        (WalkQuery.wreath(40, 2.0, 0.0, z3, load_group_state(z3, "1 0\n0.5 0\n0.5 0\n")),
         [0.0, 0.5, 1.0, 40.0, 80.0, 120.0]),
        # the average of the trivial and sign characters of the dihedral group
        (WalkQuery.wreath(40, 3.0, 0.0, d4, GroupState.from_values(d4, [1.0] * 4 + [0.0] * 4)),
         [0.0, 0.5, 1.0, 40.0, 80.0]),
        (WalkQuery.mixture(20, 0.0), [0.0, 0.5, 1.0, 30.0, 60.0]),
    ]


@pytest.mark.parametrize("query, ks", _grid_cases())
def test_cutoff_profile_rows_match_single_point_engine(query, ks):
    prof = cutoff_profile(query, ks)
    assert [row.k for row in prof.rows] == ks
    assert any(row.certified for row in prof.rows) and not all(row.certified for row in prof.rows)
    for row in prof.rows:
        single = A_k_for_query(query.with_k(row.k))
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
        (["--family", "unitary", "--N", "40", "--tau", "2"], "_log_conv_power_sums", 1),
        (["--family", "eval", "--N", "40", "--theta", "2"], "_log_conv_power_sums", 1),
        (["--family", "wreath", "--N", "40", "--tau", "2", "--group", "cyclic:3"], "_log_conv_power_sums", 1),
        # a general nu runs the winding program once per row
        (["--family", "unitary", "--N", "40", "--tau", "2", "--nu", "haar"], "_winding_log_partial", 5),
        # the mixture's word quadrature runs once per profile
        (["--family", "mixture", "--N", "20"], "porod_nodes", 1),
    ],
)
def test_profile_runs_the_engine_once(monkeypatch, capsys, argv, engine, passes):
    calls = {"engine": 0, "single": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bounds, engine, counted("engine", getattr(bounds, engine)))
    monkeypatch.setattr(cli, "A_k_for_query", counted("single", cli.A_k_for_query))
    assert cli.main(["profile", *argv, "--c-range", "-1:1:0.5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 5
    assert calls == {"engine": passes, "single": 0}


@pytest.mark.parametrize(
    "query, ks",
    [
        (WalkQuery.unitary(30, 2.0, 0.0), [1.0, 41.0, 81.0, 121.0]),
        (WalkQuery.eval_point(30, 2.0, 0.0), [1.0, 60.0, 120.0, 200.0]),
        (WalkQuery.mixture(20, 0.0), [1.0, 30.0, 60.0]),
        (WalkQuery.wreath(30, 2.0, 0.0, cyclic_group(3), trivial_state(cyclic_group(3))), [1.0, 41.0, 81.0]),
    ],
)
def test_profile_rows_share_one_hypothesis_key_sequence(query, ks):
    # every row past the base hypotheses, certified or not, names the tail
    # checks the same way and in the same order
    rows = cutoff_profile(query, ks).rows
    assert any(row.certified for row in rows) and not all(row.certified for row in rows)
    keys = {tuple(name for name, _ in row.hypotheses) for row in rows}
    assert len(keys) == 1
    assert keys.pop()[-3:] == ("x < 1", "within-degree ratios < 1", "w = S/(1-x) < 1")


def test_cutoff_profile_rejects_empty_grid():
    q = WalkQuery.unitary(20, 2.0, 0.0)
    with pytest.raises(ValueError):
        cutoff_profile(q, [])


def test_walk_query_validation():
    with pytest.raises(ValueError):
        WalkQuery.unitary(20, 0.0, 1.0)  # tau must be positive
    with pytest.raises(ValueError):
        WalkQuery.unitary(20, 25.0, 1.0)  # tau above N
    with pytest.raises(ValueError):
        WalkQuery.mixture(5, 1.0)  # mixture needs N >= 6
    with pytest.raises(ValueError):
        WalkQuery("nonsense", 10, 1.0)
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        WalkQuery.wreath(4, 2.0, 1.0, g, trivial_state(g))


def test_dispatcher_covers_all_families():
    g = cyclic_group(2)
    queries = [
        WalkQuery.unitary(20, 2.0, 40.0),
        WalkQuery.eval_point(20, 2.0, 40.0),
        WalkQuery.mixture(20, 40.0),
        WalkQuery.wreath(30, 2.0, 40.0, g, trivial_state(g)),
    ]
    for q in queries:
        A = A_k_for_query(q)
        assert A.partial >= 0.0
        assert A.log_partial <= 0.0 or A.partial > 1.0
