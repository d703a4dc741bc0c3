"""Irreducible-character words for the two families of walks: the block
vectors the mixture engine sums over, closed-form word counts, and the
closed-form walk expectations feeding the lower bounds.

Free unitary family.  Nontrivial irreducible characters are indexed by words

    z^{[eps0]_-} chi_{n_1} z^{eps_1} ... chi_{n_p} z^{[eps_p]_+},

with p >= 1 blocks, n_i >= 1, and eps0 = +-1.  The signs alternate according
to the parity of the block sizes: eps_i = eps_{i-1} * (-1)^{n_i + 1}.  The
dimension is prod_i u_{n_i}(N), and a central state built from a parameter
t in [0, N) and a circle measure nu has normalized character value

    m_eps(nu) * prod_i u_{n_i}(t) / u_{n_i}(N),

where eps = [eps0]_- + eps_1 + ... + eps_{p-1} + [eps_p]_+ is the total
winding exponent picked up by the z factors.  The word of leading sign
eps0 = -1 flips every sign of the eps0 = +1 word with the same blocks and is
its conjugate word: the same dimension, winding exponent -eps, and a
conjugate character value, since m_{-eps}(nu) is the conjugate of m_eps(nu).

Free wreath family (a finite group Gamma wreathed with the quantum
permutation group).  Nontrivial characters are words

    p = 0:   chi_{2 n0 + 2}                          (n0 >= 0)
    p >= 1:  chi_{2 n0 + 1} gamma_1 chi_{2 n1 + 2} ... gamma_p chi_{2 np + 1}

with n_i >= 0 and gamma_i in Gamma; single-character words carry even indices,
interleaved words carry odd indices at both ends and even in the interior.
The dimension is the product of u_index(sqrt(N)) over the character indices,
and the normalized character value of the walk state with parameters
(t', psi) is psi(gamma_1 ... gamma_p) times the product of
u_index(t') / u_index(sqrt(N)).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _exp, _exp_each
from .structures import CircleMeasure, FiniteGroup, arg_trace, trace_modulus

__all__ = [
    "count_unitary",
    "count_wreath",
    "eval_state_params",
    "chi2_expectation_unitary",
    "chi2_expectation_wreath",
    "chi_expectation_mixture",
]


def _compositions(total_max: int, parts: int) -> np.ndarray:
    """All vectors of ``parts`` entries >= 1 with sum <= total_max, in
    lexicographic order, as the rows of an int array of shape
    (C(total_max, parts), parts).

    Built one entry at a time: every prefix is repeated once for each value
    its next entry can take, 1 up to what leaves one for each entry after it.
    """
    out = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for i in range(parts):
        room = np.maximum(total_max - (parts - 1 - i) - used, 0)
        prefix = np.repeat(np.arange(used.size), room)
        entry = np.arange(1, prefix.size + 1) - np.repeat(np.cumsum(room) - room, room)
        out = np.column_stack([out[prefix], entry])
        used = used[prefix] + entry
    return out


def count_unitary(max_total: int, max_p: int) -> int:
    """Number of free-unitary words of at most max_p blocks and index total
    at most max_total, in closed form: the block vectors of p blocks
    (``_compositions(max_total, p)``) number C(max_total, p), and each takes
    two leading signs: the eps0 = +1 word and its conjugate, the eps0 = -1
    word.  With every block count, 2 (2^max_total - 1).  Below that each
    C(max_total, p) comes from the one before it."""
    if max_p >= max_total:
        return 2 * (2**max_total - 1)
    binom, total = 1, 0
    for p in range(1, max_p + 1):
        binom = binom * (max_total - p + 1) // p
        total += binom
    return 2 * total


def count_wreath(group: FiniteGroup, max_total: int) -> int:
    """Number of free-wreath words with character-index total at most
    max_total, of every label count, in closed form: the h = max_total // 2
    words chi_{2 n0 + 2} of p = 0, and for each label count 1 <= p <= h the
    m^p label tuples times the C(h + 1, p + 1) outer vectors of p + 1
    entries >= 0 summing to at most h - p, as each label takes one unit of
    the index budget.  The binomial theorem sums the labelled words to
    ((m + 1)^(h+1) - 1 - m (h + 1)) / m."""
    h, m = max_total // 2, group.order
    return h + ((m + 1) ** (h + 1) - 1 - m * (h + 1)) // m


def eval_state_params(N: int, theta: float) -> tuple[float, CircleMeasure]:
    """Parameters (t, nu) of the evaluation state at rotation angle theta.

    The state evaluates characters at the rotation diag(e^{i theta}, 1, ..., 1)
    pushed into the free unitary group; its trace has modulus
    t = |e^{i theta} + N - 1| = N - tau_theta and argument beta, so the state
    coincides with the central state of parameter t and measure delta_beta.
    """
    return trace_modulus(N, theta), CircleMeasure.delta(arg_trace(N, theta))


def _exp_steps(log_base: float, log_step: float, k: float | np.ndarray) -> float | np.ndarray:
    """exp(log_base + k log_step), +inf where it overflows, at one step
    count k (a float) or at each of an array of them, with libm's
    exponential (``_exp``, ``_exp_each``)."""
    x = log_base + k * log_step
    return _exp(x) if isinstance(x, float) else _exp_each(x)


def chi2_expectation_unitary(N: int, tau: float, k: float | np.ndarray) -> float | np.ndarray:
    """Expectation of the degree-2 self-conjugate character under the k-th
    convolution power at trace deficit tau, at one k or an array of them:
    (N^2 - 1) * (((N - tau)^2 - 1) / (N^2 - 1))^k.

    The step factor is taken as 1 - tau (2N - tau) / (N^2 - 1) through
    log1p, so a small tau / N is not lost to cancellation.  Requires
    N - tau > 1.
    """
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got {N - tau!r}")
    bot = float(N) * N - 1.0
    return _exp_steps(math.log(bot), math.log1p(-tau * (2.0 * N - tau) / bot), k)


def chi2_expectation_wreath(N: int, tau: float, k: float | np.ndarray) -> float | np.ndarray:
    """(N - 1) * ((N - tau - 1) / (N - 1))^k, the step factor taken as
    1 - tau / (N - 1) through log1p; requires N - tau > 1."""
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got N - tau = {N - tau!r}")
    return _exp_steps(math.log(N - 1.0), math.log1p(-tau / (N - 1.0)), k)


def chi_expectation_mixture(N: int, k: float | np.ndarray) -> float | np.ndarray:
    """2N * ((N - 1) / (N + 1))^k, the expectation of the real degree-1
    witness under the k-th power of the Porod-mixed evaluation state.

    The per-step factor is (N - 1 + E[cos theta]) / N with
    E[cos theta] = 1 - lambda_moment(N, 1) = (1 - N) / (1 + N), taken as
    1 - 2 / (N + 1) through log1p.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    return _exp_steps(math.log(2.0 * N), math.log1p(-2.0 / (N + 1.0)), k)
