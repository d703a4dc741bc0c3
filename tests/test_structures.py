"""Finite groups with validated Cayley tables, positive-definite states,
and circle measures with their moment maps.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from qgcutoff.numerics import lambda_moment
from qgcutoff.structures import (
    _gauss_legendre,
    _half_angle_nodes,
    CircleMeasure,
    FiniteGroup,
    GroupState,
    arg_trace,
    cyclic_group,
    group_sum_abs,
    haar_state,
    lambda_theta,
    load_cayley,
    load_group_state,
    moment,
    porod_nodes,
    tau_theta,
    trivial_state,
)


# ---------------------------------------------------------------------------
# groups


def test_cyclic_group_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.multiply(1, 3) == 0
    assert g.inverse[1] == 3
    assert g.inverse[2] == 2


def test_cyclic_group_degenerate():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.multiply(0, 0) == 0
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_from_table_klein_four():
    # Z2 x Z2: every element self-inverse
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = FiniteGroup.from_table(table)
    assert g.inverse == (0, 1, 2, 3)
    assert g.multiply(1, 2) == 3


def test_from_table_rejects_non_permutation_row():
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]  # row 1 repeats 1
    with pytest.raises(ValueError):
        FiniteGroup.from_table(table)


def test_from_table_rejects_missing_identity():
    # i*j = (i - j) mod 5 has a right identity only; rows/cols are permutations
    table = [[(i - j) % 5 for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError):
        FiniteGroup.from_table(table)


def _search_nonassociative_loop():
    """Find a 5x5 Latin square with identity 0 and two-sided inverses that is
    not associative, so the rejection exercises the associativity check and
    not an earlier one.

    Backtracking over rows; deterministic, so the fixture is stable.
    """
    n = 5

    def extend(table):
        if len(table) == n:
            for g in range(n):
                h = table[g].index(0)
                if table[h][g] != 0:
                    return None  # inverse only one-sided; keep searching
            for a, b, c in itertools.product(range(n), repeat=3):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return [row[:] for row in table]
            return None
        i = len(table)
        row = [i] + [-1] * (n - 1)  # column 0 must hold i so that 0 stays identity
        return place(table, row, 1)

    def place(table, row, j):
        if j == len(row):
            return extend(table + [row[:]])
        for v in range(len(row)):
            if v in row[:j]:
                continue
            if any(t[j] == v for t in table):
                continue
            row[j] = v
            got = place(table, row, j + 1)
            if got is not None:
                return got
            row[j] = -1
        return None

    return extend([list(range(n))])


def test_from_table_rejects_non_associative():
    table = _search_nonassociative_loop()
    assert table is not None  # a non-associative order-5 loop exists
    with pytest.raises(ValueError, match="associat"):
        FiniteGroup.from_table(table)


def test_load_cayley_round_trip():
    g = cyclic_group(3)
    text = "# cyclic of order 3\n3\n" + "\n".join(
        " ".join(str(g.multiply(i, j)) for j in range(3)) for i in range(3)
    )
    g2 = load_cayley(text)
    assert g2.table == g.table


def test_load_cayley_rejects_bad_shape():
    with pytest.raises(ValueError):
        load_cayley("2\n0 1\n")  # missing second row


# ---------------------------------------------------------------------------
# group states


def test_trivial_and_haar_states():
    g = cyclic_group(3)
    t = trivial_state(g)
    assert t.values == (1.0, 1.0, 1.0)
    assert t.abs_sum() == pytest.approx(3.0)
    h = haar_state(g)
    assert h.values[0] == 1.0
    assert all(v == 0.0 for v in h.values[1:])
    assert h.abs_sum() == pytest.approx(1.0)


def test_characters_are_states():
    # every character chi_j(x) = exp(2 pi i j x / s) of Z_s is positive definite
    s = 5
    g = cyclic_group(s)
    for j in range(s):
        vals = [cmath.exp(2j * math.pi * x * j / s) for x in range(s)]
        st = GroupState.from_values(g, vals)
        assert st.abs_sum() == pytest.approx(float(s), rel=1e-9)


def test_state_rejects_wrong_identity():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        GroupState.from_values(g, [0.5, 0.0, 0.0])


def test_state_rejects_modulus_above_one():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        GroupState.from_values(g, [1.0, 1.5, 0.0])


def test_state_rejects_hermitian_violation():
    # psi(g^{-1}) must conjugate; (1, 1, -1) on Z3 breaks it
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        GroupState.from_values(g, [1.0, 1.0, -1.0])


def test_state_rejects_non_positive_definite():
    # (1, -1, -1) on Z3 is Hermitian but sum psi = -1 < 0
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        GroupState.from_values(g, [1.0, -1.0, -1.0])


def test_random_autocorrelation_states_accepted():
    # |f*|^2-type autocorrelations are positive definite by construction
    rng = np.random.default_rng(20240817)
    for s in [2, 3, 5, 8]:
        g = cyclic_group(s)
        for _ in range(5):
            f = rng.normal(size=s) + 1j * rng.normal(size=s)
            corr = np.array(
                [sum(f[(h + x) % s] * np.conj(f[h]) for h in range(s)) for x in range(s)]
            )
            corr = corr / corr[0].real
            st = GroupState.from_values(g, list(corr))  # must not raise
            assert abs(st.values[0] - 1.0) < 1e-9


def test_load_group_state():
    g = cyclic_group(2)
    st = load_group_state(g, "1 0\n0.25 0\n")
    assert st.values == (1.0, 0.25)
    with pytest.raises(ValueError):
        load_group_state(g, "1 0\n")  # wrong number of lines


def test_group_sum_abs_matches_brute_force():
    # contract: sum over all p-tuples of |psi(g_1 ... g_p)|
    for s in [2, 3, 4]:
        g = cyclic_group(s)
        # real cosine character states: psi(x) = cos(2 pi x / s), Hermitian + PSD
        psi = GroupState.from_values(
            g, [math.cos(2.0 * math.pi * x / s) for x in range(s)]
        )
        for p in range(1, 5):
            brute = 0.0
            for tup in itertools.product(range(s), repeat=p):
                brute += abs(psi.values[g.multiply_all(tup)])
            got = group_sum_abs(g, psi, p)
            assert got == pytest.approx(brute, rel=1e-12), (s, p)


# ---------------------------------------------------------------------------
# circle measures


def test_moment_haar():
    nu = CircleMeasure.haar()
    assert moment(nu, 0) == pytest.approx(1.0)
    for e in [1, -1, 2, 5]:
        assert abs(moment(nu, e)) < 1e-12


def test_moment_delta():
    nu = CircleMeasure.delta(0.7)
    for e in [-2, -1, 0, 1, 3]:
        want = cmath.exp(1j * e * 0.7)
        assert moment(nu, e) == pytest.approx(want, rel=1e-12)


def test_moment_atomic():
    nu = CircleMeasure.atomic([(0.0, 0.5), (math.pi, 0.5)])
    assert moment(nu, 1) == pytest.approx(0.0, abs=1e-12)
    assert moment(nu, 2) == pytest.approx(1.0, rel=1e-12)


def test_atomic_weight_validation():
    with pytest.raises(ValueError):
        CircleMeasure.atomic([(0.0, 0.7), (1.0, 0.4)])  # weights sum to 1.1
    with pytest.raises(ValueError):
        CircleMeasure.atomic([(0.0, -0.1), (1.0, 1.1)])


def test_porod_normalization():
    for N in [5, 10, 50]:
        nu = CircleMeasure.porod(N)
        assert moment(nu, 0) == pytest.approx(1.0, abs=1e-10)


def test_porod_cos_moment_matches_lambda_moment():
    # int cos theta d nu = 1 - E[lambda], lambda = 1 - cos
    for N in [5, 10, 50]:
        nu = CircleMeasure.porod(N)
        m1 = moment(nu, 1)
        assert m1.imag == pytest.approx(0.0, abs=1e-12)
        assert m1.real == pytest.approx(1.0 - lambda_moment(N, 1), abs=1e-10)


def test_porod_nodes_weights_positive():
    theta, w = porod_nodes(12, 256)
    assert np.all(w > 0)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
    # nodes cover the full circle: theta = 2 phi with phi in (0, pi)
    assert np.all(theta > 0) and np.all(theta < 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes by Newton's method


@pytest.mark.parametrize("n", list(range(1, 21)) + [2047, 2048])
def test_gauss_legendre_exact_symmetry_and_total_weight(n):
    x, w = _gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert abs(math.fsum(w) - 2.0) <= 4 * math.ulp(2.0)


def test_gauss_legendre_integrates_polynomials_exactly():
    for n in range(1, 13):
        x, w = _gauss_legendre(n)
        for j in range(2 * n):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert math.fsum(w * x**j) == pytest.approx(exact, rel=1e-14, abs=1e-15), (n, j)


@pytest.mark.parametrize("n", range(1, 65))
def test_gauss_legendre_matches_leggauss(n):
    x, w = _gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 1e-12
    assert np.max(np.abs(w - wr)) <= 1e-12


def test_gauss_legendre_against_30_digit_newton_reference():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    n = 2048
    x, w = _gauss_legendre(n)

    def legendre_pair(t):
        p_prev, p = mp.mpf(1), t
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
        return p, p_prev

    # the endpoint node, its neighbours, and interior nodes down to x near 0
    for i in (n - 1, n - 2, n - 40, 1800, 1500, 1024):
        # one Newton step from a double-accurate start is accurate to 1e-26
        t = mp.mpf(float(x[i]))
        p, p_prev = legendre_pair(t)
        t -= p * (1 - t * t) / (n * (p_prev - t * p))
        p, p_prev = legendre_pair(t)
        w_ref = 2 * (1 - t * t) / (n * (p_prev - t * p)) ** 2
        assert abs(float(x[i] - t)) <= 2.0**-52
        rel = abs(float((w[i] - w_ref) / w_ref))
        assert rel <= (1e-13 if abs(x[i]) <= 0.9 else 1e-9), (i, float(x[i]), rel)


@pytest.mark.parametrize("N", [5, 50, 800, 5000, 30000, 100000])
def test_porod_mass_at_default_quad_points(N):
    # the density is formed from the Legendre node x, so its rounding does
    # not grow with the power N - 1
    _, w = porod_nodes(N, 2048)
    assert abs(float(np.sum(w)) - 1.0) <= (1e-15 if N <= 800 else 4e-15)


def test_half_angle_nodes_are_cached_read_only():
    phi, wq = _half_angle_nodes(64)
    assert _half_angle_nodes(64)[0] is phi
    assert not phi.flags.writeable and not wq.flags.writeable
    with pytest.raises(ValueError):
        phi[0] = 0.0
    assert phi[0] > 0.0 and phi[-1] < math.pi


# ---------------------------------------------------------------------------
# trace geometry


def test_lambda_theta():
    assert lambda_theta(0.0) == 0.0
    assert lambda_theta(math.pi) == pytest.approx(2.0)


@pytest.mark.parametrize("N", [5, 20, 100])
def test_tau_theta_bounds(N):
    # lam (N-1)/N <= tau <= lam, from |N - 1 + e^{i theta}| within [N-2, N]
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        lam = lambda_theta(theta)
        tau = tau_theta(N, theta)
        assert lam * (N - 1.0) / N - 1e-12 <= tau <= lam + 1e-12


def test_tau_theta_exact():
    N = 10
    theta = 1.3
    z = (N - 1.0) + cmath.exp(1j * theta)
    assert tau_theta(N, theta) == pytest.approx(N - abs(z), rel=1e-12)
    assert arg_trace(N, theta) == pytest.approx(cmath.phase(z), rel=1e-12)
