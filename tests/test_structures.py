"""Finite groups with validated Cayley tables, positive-definite states,
and circle measures with their moment maps.
"""

import cmath
import functools
import itertools
import math
import struct

import numpy as np
import pytest

from qgcutoff.bounds import MAX_P
from qgcutoff.numerics import lambda_moment
from qgcutoff import structures
from qgcutoff.structures import (
    MAX_MOMENT_INDEX,
    MAX_QUAD_POINTS,
    _gauss_legendre,
    _half_angle_nodes,
    CircleMeasure,
    FiniteGroup,
    GroupState,
    arg_trace,
    cyclic_group,
    haar_state,
    lambda_theta,
    load_cayley,
    load_group_state,
    moment,
    porod_nodes,
    porod_rule,
    tau_theta,
    trivial_state,
)

from oracles import benchmark_atoms


# ---------------------------------------------------------------------------
# groups


def test_cyclic_group_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.table[1][3] == 0
    assert g.inverse[1] == 3
    assert g.inverse[2] == 2


def test_cyclic_group_degenerate():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.table[0][0] == 0
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_group_order_above_the_limit_is_refused_before_any_table_is_built(monkeypatch):
    m = structures.MAX_GROUP_ORDER + 1

    class Rows:
        def __len__(self):
            return m

        def __getitem__(self, i):
            raise AssertionError("a row was read")

    def unbuilt(rows):
        raise AssertionError("a table was built")

    with pytest.raises(ValueError, match="group order 257 is not in 1..MAX_GROUP_ORDER = 256"):
        FiniteGroup.from_table(Rows())
    monkeypatch.setattr(FiniteGroup, "from_table", unbuilt)
    for build in (lambda: cyclic_group(m), lambda: load_cayley(f"{m}\n0 1\n")):
        with pytest.raises(ValueError, match="group order 257 is not in 1..MAX_GROUP_ORDER = 256"):
            build()


def test_from_table_klein_four():
    # Z2 x Z2: every element self-inverse
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = FiniteGroup.from_table(table)
    assert g.inverse == (0, 1, 2, 3)
    assert g.table[1][2] == 3


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


def _swapped_cyclic(m, r, c):
    """Z/m with the intercalate at rows r, r + m/2 and columns c, c + m/2
    swapped: still a Latin square with identity 0 and two-sided inverses
    (no swapped entry is 0), but not associative."""
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    r2, c2 = r + m // 2, c + m // 2
    table[r][c], table[r][c2] = table[r][c2], table[r][c]
    table[r2][c], table[r2][c2] = table[r2][c2], table[r2][c]
    return table


def _cyclic_times(loop, n):
    """Z/n x loop, (g, q) at index q n + g: elements 0..n-1 form Z/n x {e}
    and associate with everything, so the first failing triple has a >= n."""
    m = n * len(loop)
    return [[loop[x // n][y // n] * n + (x + y) % n for y in range(m)] for x in range(m)]


@pytest.mark.parametrize(
    "table",
    # the order-80 product checks rows in blocks of 10 and first fails in the second
    [_search_nonassociative_loop(), _swapped_cyclic(8, 1, 2), _cyclic_times(_search_nonassociative_loop(), 16)],
)
def test_from_table_names_the_first_failing_triple(table):
    # the lexicographically first (a, b, c) with (ab)c != a(bc), of several
    m = len(table)
    bad = list(itertools.islice(
        ((a, b, c) for a, b, c in itertools.product(range(m), repeat=3)
         if table[table[a][b]][c] != table[a][table[b][c]]), 2))
    assert len(bad) == 2
    with pytest.raises(ValueError, match=rf"^associativity fails at triple \({bad[0][0]}, {bad[0][1]}, {bad[0][2]}\)$"):
        FiniteGroup.from_table(table)


def test_load_cayley_round_trip():
    g = cyclic_group(3)
    text = "# cyclic of order 3\n3\n" + "\n".join(
        " ".join(str(g.table[i][j]) for j in range(3)) for i in range(3)
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
    # sum over all p-tuples of |psi(g_1 ... g_p)| = m^{p-1} K(psi): each product
    # value has m^{p-1} tuples, the first p-1 entries free; the wreath engine's
    # log m per group label rests on it
    for s in [2, 3, 4]:
        g = cyclic_group(s)
        # real cosine character states: psi(x) = cos(2 pi x / s), Hermitian + PSD
        psi = GroupState.from_values(
            g, [math.cos(2.0 * math.pi * x / s) for x in range(s)]
        )
        for p in range(1, 5):
            brute = 0.0
            for tup in itertools.product(range(s), repeat=p):
                brute += abs(psi.values[functools.reduce(lambda x, y: g.table[x][y], tup, g.identity)])
            got = g.order ** (p - 1) * psi.abs_sum()
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


@pytest.mark.parametrize("value", [math.nan, complex(0.0, math.nan)])
def test_state_rejects_non_finite_value(value):
    # NaN slips through every comparison of the other checks
    g = cyclic_group(2)
    with pytest.raises(ValueError, match="not finite"):
        GroupState.from_values(g, [1.0, value])


def test_moment_atomic():
    nu = CircleMeasure.atomic([(0.0, 0.5), (math.pi, 0.5)])
    assert moment(nu, 1) == pytest.approx(0.0, abs=1e-12)
    assert moment(nu, 2) == pytest.approx(1.0, rel=1e-12)


_CONJUGATE_NUS = {"haar": CircleMeasure.haar()}
_CONJUGATE_NUS.update({f"atoms-{i}": benchmark_atoms(i) for i in range(6)})  # the benchmark pool's six files
_CONJUGATE_NUS.update({f"porod-{N}": CircleMeasure.porod(N) for N in (6, 7, 200, 10**6)})


@pytest.mark.parametrize("nu_name", list(_CONJUGATE_NUS))
def test_conjugate_moments_have_bitwise_equal_moduli(nu_name):
    # m_{-e} = conj(m_e), so the engines read |m_e| for e >= 0 only and
    # count a word and its conjugate, of exponent -e, as one term twice
    nu = _CONJUGATE_NUS[nu_name]
    for e in range(1, MAX_P + 1):
        assert abs(moment(nu, -e)) == abs(moment(nu, e)), e


@pytest.mark.parametrize("pairs", [[(0.5, 1.0)], [(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.25), (6.783185307179586, 0.75)],
                                   [(0.5, 1.0), (1.0, 0.0)]])
def test_atoms_at_one_angle_are_a_point_mass(pairs):
    # 6.783185307179586 - 2 pi normalizes to the float 0.5, and an atom of
    # weight 0 carries no mass
    assert CircleMeasure.atomic(pairs).point_mass_weight() == 1.0


def test_atoms_at_distinct_angles_are_no_point_mass():
    assert CircleMeasure.atomic([(0.5, 0.5), (0.5 + 2.0**-50, 0.5)]).point_mass_weight() is None
    assert CircleMeasure.haar().point_mass_weight() is None


def test_atomic_weight_validation():
    with pytest.raises(ValueError):
        CircleMeasure.atomic([(0.0, 0.7), (1.0, 0.4)])  # weights sum to 1.1
    with pytest.raises(ValueError):
        CircleMeasure.atomic([(0.0, -0.1), (1.0, 1.1)])


@pytest.mark.parametrize("pairs", [
    [(0.5, math.nan), (1.0, 1.0)],  # the NaN sum passes the |total - 1| check
    [(math.nan, 1.0)],
    [(math.inf, 1.0)],
    [(0.0, math.inf), (1.0, -math.inf)],
])
def test_atomic_rejects_non_finite_atoms(pairs):
    with pytest.raises(ValueError, match="not finite"):
        CircleMeasure.atomic(pairs)


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


def _porod_moment_reference(mp, N, e):
    # (-1)^e Gamma(h+1)^2 / (Gamma(h+1+e) Gamma(h+1-e)), h = (N-1)/2
    h = mp.mpf(N - 1) / 2
    return (-1) ** e * mp.gamma(h + 1) ** 2 * mp.rgamma(h + 1 + e) * mp.rgamma(h + 1 - e)


@pytest.mark.parametrize("N", [5, 6, 7, 40, 41])
def test_porod_moment_reference_matches_the_integral(N):
    # the gamma form against int sin^{N-1}(phi) cos(2 e phi) over [0, pi],
    # symmetric about pi/2, over its e = 0 value
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def integral(e):
        return mp.quad(lambda phi: mp.sin(phi) ** (N - 1) * mp.cos(2 * e * phi), [0, mp.pi / 2])

    mass = integral(0)
    for e in range(1, 26):
        assert abs(integral(e) / mass - _porod_moment_reference(mp, N, e)) <= mp.mpf(10) ** -45, (N, e)


@pytest.mark.parametrize("N", [5, 6, 7, 40, 41, 200, 5000, 10**5, 10**6, 10**7, 2**40])
def test_porod_moment_matches_50_digit_reference(N):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    nu = CircleMeasure.porod(N)
    for e in range(-25, 26):
        m = moment(nu, e)
        assert m.imag == 0.0 and m == moment(nu, -e)
        want = _porod_moment_reference(mp, N, e)
        if N % 2 and abs(e) > (N - 1) // 2:
            # exactly +0.0 once a factor h - j + 1 vanishes
            assert want == 0 and m.real == 0.0 and math.copysign(1.0, m.real) == 1.0, (N, e)
        else:
            assert abs(float((m.real - want) / want)) <= 1e-14, (N, e)


def test_porod_moment_index_limit():
    nu = CircleMeasure.porod(2**40)
    assert MAX_MOMENT_INDEX == 100_000
    assert moment(nu, -MAX_MOMENT_INDEX).real > 0.0
    # the product underflows to a signed zero; the moment reads +0.0
    assert math.copysign(1.0, moment(CircleMeasure.porod(1002), MAX_MOMENT_INDEX).real) == 1.0
    for e in (MAX_MOMENT_INDEX + 1, -(MAX_MOMENT_INDEX + 1), 10**400):
        with pytest.raises(ValueError, match="exceeds"):
            moment(nu, e)


@pytest.mark.parametrize("N", [5, 6, 7, 40, 41, 300, 5000, 10**6, 2**40])
def test_porod_moments_are_bitwise_the_product_from_j_1_at_each_index(N):
    # one running product makes, for each e, the multiplications of the
    # product prod_{j=1}^{e} -(h - j + 1) / (h + j) in the same order
    h = 0.5 * (N - 1)
    got = structures._porod_moments(CircleMeasure.porod(N), 300)
    assert len(got) == 301
    for e in range(301):
        m = 1.0
        for j in range(1, e + 1):
            m *= -(h - j + 1.0) / (h + j)
        assert struct.pack("d", got[e]) == struct.pack("d", m + 0.0), (N, e)
        assert struct.pack("d", moment(CircleMeasure.porod(N), e).real) == struct.pack("d", m + 0.0)


@pytest.mark.parametrize("N", [6, 7, 100, 10**6, 2**40])
def test_porod_rule_reproduces_the_moments(N):
    # sum_j w_j e^{i e theta_j} = m_e for |e| <= degree, the rule's exactness
    # on each frequency, within a few ulp of the weights' total mass (about
    # 1 at small N, up to 3.8 where the law crowds at theta = pi); e j mod L
    # keeps the test's angles exact
    nu = CircleMeasure.porod(N)
    for degree in (0, 1, 7, 16, 40):
        theta, w = porod_rule(N, degree)
        L = 2 * degree + 1
        assert theta.shape == w.shape == (L,)
        j = np.arange(L)
        assert np.array_equal(theta, 2.0 * math.pi / L * j)
        tol = 4 * 2.0**-52 * float(np.abs(w).sum())
        for e in range(-degree, degree + 1):
            angle = 2.0 * math.pi / L * ((e * j) % L)
            re, im = math.fsum(w * np.cos(angle)), math.fsum(w * np.sin(angle))
            assert abs(re - moment(nu, e).real) <= tol, (degree, e)
            assert abs(im) <= tol, (degree, e)


@pytest.mark.parametrize("quad_points", [0, -1, MAX_QUAD_POINTS + 1])
def test_porod_nodes_size_limit_raises_before_any_build(monkeypatch, quad_points):
    def build(n):
        raise AssertionError(f"Gauss-Legendre nodes built for n={n}")

    monkeypatch.setattr(structures, "_gauss_legendre", build)
    assert MAX_QUAD_POINTS == 65536
    with pytest.raises(ValueError, match="quad_points"):
        porod_nodes(10, quad_points)


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


@pytest.mark.parametrize("N, theta", [(10**12, 0.01), (10**15, 2.0), (2**53, 1e-3), (5, 0.3), (3, math.pi)])
def test_tau_theta_matches_50_digit_reference(N, theta):
    # the deficit N - sqrt(N^2 - 2 N lambda + 2 lambda) at the package's
    # lambda = lambda_theta(theta), which the rate and the engine's t share;
    # formed as a difference it loses every digit of a small deficit at
    # large N (4.99996e-5 read as 1.2207e-4 at N = 1e12, theta = 0.01)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    lam, n = mp.mpf(lambda_theta(theta)), mp.mpf(N)
    want = n - mp.sqrt(n * n - 2 * n * lam + 2 * lam)
    assert abs(float((tau_theta(N, theta) - want) / want)) <= 1e-14


@pytest.mark.parametrize("theta", [1e-3, 0.01])
def test_lambda_theta_matches_50_digit_reference(theta):
    # 1 - cos(theta) in floats is 1.6e-11 off at 1e-3 and 2.9e-13 at 0.01
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    want = 1 - mp.cos(mp.mpf(theta))
    assert abs(float((lambda_theta(theta) - want) / want)) <= 1e-15


def test_tau_theta_matches_50_digit_deficit_at_the_true_theta():
    # the deficit of the trace modulus |e^{i theta} + N - 1| itself, not at
    # the float lambda
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    N, theta = 10**12, 0.01
    n, th = mp.mpf(N), mp.mpf(theta)
    want = n - abs(mp.mpc(n - 1 + mp.cos(th), mp.sin(th)))
    assert abs(float((tau_theta(N, theta) - want) / want)) <= 1e-15


def test_lambda_theta_reads_theta_modulo_two_pi():
    assert lambda_theta(2.0 * math.pi) == 0.0 and lambda_theta(-4.0 * math.pi) == 0.0
    assert lambda_theta(2.0 * math.pi + 0.01) == pytest.approx(lambda_theta(0.01), rel=1e-12)
    assert lambda_theta(-0.3) == lambda_theta(0.3)
