"""Irreducible-character words for the two families of walks: truncated
enumeration and counts, and the closed-form expectations feeding the lower
bounds.

Free unitary family.  Nontrivial irreducible characters are indexed by words

    z^{[eps0]_-} chi_{n_1} z^{eps_1} ... chi_{n_p} z^{[eps_p]_+},

with p >= 1 blocks, n_i >= 1, and eps0 = +-1.  The signs alternate according
to the parity of the block sizes: eps_i = eps_{i-1} * (-1)^{n_i + 1}.  The
dimension is prod_i u_{n_i}(N), and a central state built from a parameter
t in [0, N) and a circle measure nu has normalized character value

    m_eps(nu) * prod_i u_{n_i}(t) / u_{n_i}(N),

where eps = [eps0]_- + eps_1 + ... + eps_{p-1} + [eps_p]_+ is the total
winding exponent picked up by the z factors.

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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numerics import _exp
from .structures import CircleMeasure, FiniteGroup, arg_trace, trace_modulus

__all__ = [
    "WreathWord",
    "enumerate_wreath",
    "count_unitary",
    "count_wreath",
    "eval_state_params",
    "chi2_expectation_unitary",
    "chi2_expectation_wreath",
    "chi_expectation_mixture",
]


@dataclass(frozen=True)
class WreathWord:
    """A free-wreath character word: p + 1 outer indices and p group labels.

    ``outer`` holds (n_0, ..., n_p) with n_i >= 0; ``gammas`` holds the p
    group-element indices sitting between consecutive characters.
    """

    outer: tuple[int, ...]
    gammas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", tuple(int(n) for n in self.outer))
        object.__setattr__(self, "gammas", tuple(int(g) for g in self.gammas))
        if len(self.outer) == 0:
            raise ValueError("a word needs at least one character")
        if len(self.gammas) != len(self.outer) - 1:
            raise ValueError(
                f"{len(self.outer)} characters need {len(self.outer) - 1} group labels, "
                f"got {len(self.gammas)}"
            )
        if any(n < 0 for n in self.outer):
            raise ValueError(f"outer indices must be >= 0, got {self.outer}")

    @property
    def p(self) -> int:
        return len(self.gammas)

    def char_indices(self) -> tuple[int, ...]:
        """Indices of the u-factors: even for a single character, odd ends and
        even interior otherwise."""
        if self.p == 0:
            return (2 * self.outer[0] + 2,)
        idx = [2 * self.outer[0] + 1]
        for n in self.outer[1:-1]:
            idx.append(2 * n + 2)
        idx.append(2 * self.outer[-1] + 1)
        return tuple(idx)

    @property
    def index_total(self) -> int:
        return sum(self.char_indices())


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


def _nonneg_vectors(total_max: int, parts: int) -> Iterator[tuple[int, ...]]:
    # all vectors of `parts` entries >= 0 with sum <= total_max, lex ascending
    if parts == 0:
        yield ()
        return
    for first in range(0, total_max + 1):
        for rest in _nonneg_vectors(total_max - first, parts - 1):
            yield (first,) + rest


def enumerate_wreath(group: FiniteGroup, max_total: int, max_p: int) -> Iterator[WreathWord]:
    """All words with character-index total <= max_total and p <= max_p labels.

    Deterministic order: p ascending, then the outer vector lexicographically,
    then the group labels in lexicographic product order.
    """
    n0 = 0
    while 2 * n0 + 2 <= max_total:
        yield WreathWord((n0,), ())
        n0 += 1
    m = group.order
    for p in range(1, max_p + 1):
        budget2 = max_total - 2 * p  # index total is 2*sum(n) + 2p
        if budget2 < 0:
            break
        budget = budget2 // 2
        for vec in _nonneg_vectors(budget, p + 1):
            for gammas in _lex_products(m, p):
                yield WreathWord(vec, gammas)


def _lex_products(m: int, p: int) -> Iterator[tuple[int, ...]]:
    if p == 0:
        yield ()
        return
    for g in range(m):
        for rest in _lex_products(m, p - 1):
            yield (g,) + rest


def count_unitary(max_total: int, max_p: int) -> int:
    """Number of free-unitary words of at most max_p blocks and index total
    at most max_total, in closed form: the block vectors of p blocks
    (``_compositions(max_total, p)``) number C(max_total, p), and each takes
    two leading signs eps0 = -1, +1."""
    return 2 * sum(math.comb(max_total, p) for p in range(1, max_p + 1))


def count_wreath(group: FiniteGroup, max_total: int, max_p: int) -> int:
    """Number of words enumerate_wreath yields, in closed form."""
    total = max((max_total - 2) // 2 + 1, 0) if max_total >= 2 else 0
    for p in range(1, max_p + 1):
        budget2 = max_total - 2 * p
        if budget2 < 0:
            break
        budget = budget2 // 2
        # vectors of p+1 nonneg entries with sum <= budget
        total += group.order**p * math.comb(budget + p + 1, p + 1)
    return total


def eval_state_params(N: int, theta: float) -> tuple[float, CircleMeasure]:
    """Parameters (t, nu) of the evaluation state at rotation angle theta.

    The state evaluates characters at the rotation diag(e^{i theta}, 1, ..., 1)
    pushed into the free unitary group; its trace has modulus
    t = |e^{i theta} + N - 1| = N - tau_theta and argument beta, so the state
    coincides with the central state of parameter t and measure delta_beta.
    """
    return trace_modulus(N, theta), CircleMeasure.delta(arg_trace(N, theta))


def chi2_expectation_unitary(N: int, tau: float, k: float) -> float:
    """Expectation of the degree-2 self-conjugate character under the k-th
    convolution power at trace deficit tau:
    (N^2 - 1) * (((N - tau)^2 - 1) / (N^2 - 1))^k.

    The step factor is taken as 1 - tau (2N - tau) / (N^2 - 1) through
    log1p, so a small tau / N is not lost to cancellation.  Requires
    N - tau > 1.
    """
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got {N - tau!r}")
    bot = float(N) * N - 1.0
    return _exp(math.log(bot) + k * math.log1p(-tau * (2.0 * N - tau) / bot))


def chi2_expectation_wreath(N: int, tau: float, k: float) -> float:
    """(N - 1) * ((N - tau - 1) / (N - 1))^k, the step factor taken as
    1 - tau / (N - 1) through log1p; requires N - tau > 1."""
    if not N - tau > 1.0:
        raise ValueError(f"need N - tau > 1, got N - tau = {N - tau!r}")
    return _exp(math.log(N - 1.0) + k * math.log1p(-tau / (N - 1.0)))


def chi_expectation_mixture(N: int, k: float) -> float:
    """2N * ((N - 1) / (N + 1))^k, the expectation of the real degree-1
    witness under the k-th power of the Porod-mixed evaluation state.

    The per-step factor is (N - 1 + E[cos theta]) / N with
    E[cos theta] = 1 - lambda_moment(N, 1) = (1 - N) / (1 + N), taken as
    1 - 2 / (N + 1) through log1p.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    return _exp(math.log(2.0 * N) + k * math.log1p(-2.0 / (N + 1.0)))
