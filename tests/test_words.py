"""Irreducible-word indexing: dimensions, normalized character coefficients,
deterministic enumeration, and the closed-form walk expectations.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from qgcutoff.numerics import lambda_moment
from qgcutoff.structures import (
    CircleMeasure,
    cyclic_group,
    moment,
    porod_nodes,
)
from qgcutoff.words import (
    _compositions,
    chi2_expectation_unitary,
    chi2_expectation_wreath,
    chi_expectation_mixture,
    count_unitary,
    count_wreath,
    eval_state_params,
)

from oracles import UIrrepWord, WreathWord, coeff_unitary, dim_unitary, enumerate_unitary, enumerate_wreath


# ---------------------------------------------------------------------------
# word structure


def test_uirrep_word_validation():
    with pytest.raises(ValueError):
        UIrrepWord((), 1)  # at least one block
    with pytest.raises(ValueError):
        UIrrepWord((0, 1), 1)  # blocks are >= 1
    with pytest.raises(ValueError):
        UIrrepWord((1,), 0)  # leading sign is -1 or +1


def test_z_exponent_cases():
    assert UIrrepWord((1,), 1).z_exponent() == 1
    assert UIrrepWord((1,), -1).z_exponent() == -1
    # even blocks flip the running sign, making the single even word neutral
    assert UIrrepWord((2,), 1).z_exponent() == 0
    assert UIrrepWord((2,), -1).z_exponent() == 0
    assert UIrrepWord((1, 1), 1).z_exponent() == 2
    assert UIrrepWord((1, 1), -1).z_exponent() == -2
    assert UIrrepWord((2, 1), 1).z_exponent() == -1
    assert UIrrepWord((1, 2), 1).z_exponent() == 1


def test_wreath_word_validation():
    WreathWord((0,), ())  # single outer entry, no labels
    WreathWord((0, 0), (1,))
    with pytest.raises(ValueError):
        WreathWord((), ())
    with pytest.raises(ValueError):
        WreathWord((0, 0), ())  # needs exactly p = len(outer) - 1 labels
    with pytest.raises(ValueError):
        WreathWord((-1,), ())


def test_wreath_char_indices():
    # single outer entry n0 maps to the even index 2 n0 + 2
    assert WreathWord((0,), ()).char_indices() == (2,)
    assert WreathWord((3,), ()).char_indices() == (8,)
    # with labels: odd indices 2n+1 at the ends, even 2n+2 inside
    assert WreathWord((0, 0), (0,)).char_indices() == (1, 1)
    assert WreathWord((1, 2), (0,)).char_indices() == (3, 5)
    assert WreathWord((1, 0, 2), (0, 1)).char_indices() == (3, 2, 5)
    w = WreathWord((1, 0, 2), (0, 1))
    assert w.index_total == 2 * 3 + 2 * 2  # 2*sum(n) + 2p


# ---------------------------------------------------------------------------
# dimensions


def test_dim_unitary_values():
    # dim_unitary returns the log dimension
    assert math.exp(dim_unitary(UIrrepWord((1,), 1), 10)) == pytest.approx(10.0)
    assert math.exp(dim_unitary(UIrrepWord((2,), 1), 3)) == pytest.approx(8.0)
    assert math.exp(dim_unitary(UIrrepWord((2, 1), 1), 10)) == pytest.approx(990.0)
    with pytest.raises(ValueError):
        dim_unitary(UIrrepWord((1,), 1), 2)


# ---------------------------------------------------------------------------
# coefficients


def test_coeff_unitary_basic_ratio():
    # word (1,) with delta_0 measure: coefficient is t/N exactly
    nu = CircleMeasure.delta(0.0)
    c = coeff_unitary(UIrrepWord((1,), 1), 18.0, nu, 20)
    assert math.exp(c) == pytest.approx(18.0 / 20.0, rel=1e-12)


def test_coeff_unitary_haar_vanishes_off_neutral():
    nu = CircleMeasure.haar()
    # any word with nonzero winding exponent has zero coefficient under Haar
    c = coeff_unitary(UIrrepWord((1,), 1), 18.0, nu, 20)
    assert c == -math.inf
    # neutral words survive
    c2 = coeff_unitary(UIrrepWord((2,), 1), 18.0, nu, 20)
    assert math.exp(c2) == pytest.approx((18.0**2 - 1) / (20.0**2 - 1), rel=1e-12)


def test_coeff_unitary_eval_state():
    # the evaluation state at angle theta is central with parameter t and
    # measure delta_beta, where t e^{i beta} = N - 1 + e^{i theta}
    N = 10
    for theta in [0.3, 1.3, 2.9]:
        t, nu = eval_state_params(N, theta)
        [(beta, weight)] = nu.atoms
        want = (N - 1.0) + cmath.exp(1j * theta)
        assert weight == 1.0
        assert abs(t * cmath.exp(1j * beta) - want) < 1e-12
        c = coeff_unitary(UIrrepWord((1,), 1), t, nu, N)
        assert math.exp(c) == pytest.approx(abs(want) / N, rel=1e-12)


def test_coeff_unitary_modulus_at_most_one():
    nu = CircleMeasure.delta(0.4)
    for w in enumerate_unitary(8, 3):
        c = coeff_unitary(w, 17.5, nu, 20)
        assert c <= 1e-12


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_unitary_small():
    words = list(enumerate_unitary(1, 1))
    assert [(w.ns, w.eps0) for w in words] == [((1,), -1), ((1,), 1)]
    words2 = list(enumerate_unitary(2, 2))
    assert [(w.ns, w.eps0) for w in words2] == [
        ((1,), -1),
        ((1,), 1),
        ((2,), -1),
        ((2,), 1),
        ((1, 1), -1),
        ((1, 1), 1),
    ]


@pytest.mark.parametrize("total_max, parts", [(1, 1), (4, 2), (6, 6), (10, 5), (12, 3), (3, 4), (5, 0)])
def test_compositions_are_every_vector_in_lexicographic_order(total_max, parts):
    want = [v for v in itertools.product(range(1, total_max + 1), repeat=parts) if sum(v) <= total_max]
    got = _compositions(total_max, parts)
    assert got.shape == (math.comb(total_max, parts), parts)
    assert got.tolist() == [list(v) for v in want]


def test_enumerate_unitary_counts():
    for max_total, max_p in [(1, 1), (4, 2), (6, 6), (10, 5), (12, 3)]:
        words = list(enumerate_unitary(max_total, max_p))
        assert len(words) == count_unitary(max_total, max_p)
        assert len(set(words)) == len(words)
        for w in words:
            assert sum(w.ns) <= max_total and 1 <= len(w.ns) <= max_p
    assert count_unitary(10, 5) == 1274


def test_enumerate_wreath_small():
    g = cyclic_group(2)
    words = list(enumerate_wreath(g, 3, 1))
    assert [(w.outer, w.gammas) for w in words] == [
        ((0,), ()),
        ((0, 0), (0,)),
        ((0, 0), (1,)),
    ]
    assert len(list(enumerate_wreath(g, 4, 1))) == 8


def test_enumerate_wreath_counts():
    # count_wreath counts the words of every label count: at most
    # max_total // 2, as each label takes one unit of the index budget
    for s in [1, 2, 3]:
        g = cyclic_group(s)
        for max_total in [2, 6, 10, 9, 8, 7]:
            words = list(enumerate_wreath(g, max_total, max_total // 2))
            assert len(words) == count_wreath(g, max_total)
            assert len(words) == len(list(enumerate_wreath(g, max_total, max_total)))
            assert len(set(words)) == len(words)
            for w in words:
                assert w.index_total <= max_total


def test_enumeration_is_deterministic():
    a = [(w.ns, w.eps0) for w in enumerate_unitary(9, 4)]
    b = [(w.ns, w.eps0) for w in enumerate_unitary(9, 4)]
    assert a == b
    g = cyclic_group(3)
    c = [(w.outer, w.gammas) for w in enumerate_wreath(g, 9, 4)]
    d = [(w.outer, w.gammas) for w in enumerate_wreath(g, 9, 4)]
    assert c == d


# ---------------------------------------------------------------------------
# closed-form expectations


def test_chi2_expectation_unitary():
    # one step: ((N - tau)^2 - 1) / (N^2 - 1); k steps exponentiate the ratio
    N, tau = 20, 2.0
    one = chi2_expectation_unitary(N, tau, 1.0)
    assert one == pytest.approx((N * N - 1.0) * ((18.0**2 - 1) / (N * N - 1)), rel=1e-12)
    k = 7.0
    want = (N * N - 1.0) * (((N - tau) ** 2 - 1) / (N * N - 1.0)) ** k
    assert chi2_expectation_unitary(N, tau, k) == pytest.approx(want, rel=1e-12)
    assert chi2_expectation_unitary(N, tau, 0.0) == pytest.approx(N * N - 1.0)


def test_chi2_expectation_wreath():
    N, tau = 30, 2.0
    k = 5.0
    want = (N - 1.0) * ((N - tau - 1.0) / (N - 1.0)) ** k
    assert chi2_expectation_wreath(N, tau, k) == pytest.approx(want, rel=1e-12)


def test_chi_expectation_mixture():
    N = 10
    k = 3.0
    want = 2.0 * N * ((N - 1.0) / (N + 1.0)) ** k
    assert chi_expectation_mixture(N, k) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N", [10**6, 10**13, 10**15, 2**53])
def test_witness_expectations_match_50_digit_reference_at_large_N(N):
    # one N past the cutoff: the step factor is 1 - O(1/N), which a
    # difference of two logs of size log N loses from N about 1e15
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    n, tau = mp.mpf(N), mp.mpf(2)
    k = N * math.log(N) / 2.0 + N
    kk = mp.mpf(k)
    cases = [
        (chi2_expectation_unitary(N, 2.0, k), (n * n - 1) * (((n - tau) ** 2 - 1) / (n * n - 1)) ** kk),
        (chi2_expectation_wreath(N, 2.0, k), (n - 1) * ((n - tau - 1) / (n - 1)) ** kk),
        (chi_expectation_mixture(N, k), 2 * n * ((n - 1) / (n + 1)) ** kk),
    ]
    for got, want in cases:
        assert abs(float((got - want) / want)) <= 1e-12, (N, got, float(want))


def test_mixture_per_step_factor_matches_quadrature():
    # per-step damping of the degree-1 witness: (N - 1 + E[cos]) / N with
    # E[cos] = 1 - E[lambda] = -(N-1)/(N+1) under the Porod mixture
    N = 12
    nu = CircleMeasure.porod(N)
    mean_cos = moment(nu, 1).real
    assert mean_cos == pytest.approx(1.0 - lambda_moment(N, 1), abs=1e-10)
    step = (N - 1.0 + mean_cos) / N
    assert step == pytest.approx((N - 1.0) / (N + 1.0), abs=1e-10)


def test_mixture_expectation_consistency():
    # E[chi + bar chi] after k steps = 2N step^k; check against one-step +
    # power using the quadrature value of the step factor
    N = 15
    nu = CircleMeasure.porod(N)
    theta, w = porod_nodes(N, 2048)
    # average of the word-(1,) coefficient over the angle mixture
    vals = ((N - 1.0) + np.exp(1j * theta)) / N
    step = float(np.sum(w * vals.real))
    k = 9.0
    want = 2.0 * N * step**k
    assert chi_expectation_mixture(N, k) == pytest.approx(want, rel=1e-7)


def test_eval_state_params_geometry():
    N = 8
    for theta in [0.0, 0.9, math.pi]:
        t, nu = eval_state_params(N, theta)
        z = (N - 1.0) + cmath.exp(1j * theta)
        assert t == pytest.approx(abs(z), rel=1e-12)
        assert nu.kind == "atomic"
        # the single atom sits at the trace argument
        [(angle, weight)] = nu.atoms
        assert weight == 1.0
        assert cmath.exp(1j * angle) == pytest.approx(
            z / abs(z) if abs(z) > 0 else 1.0, rel=1e-12
        )
