"""Finite groups with positive-definite states, and measures on the circle.

These are the two ingredients a central walk is built from: a walk on the free
wreath product carries a state psi on the chosen finite group, and a walk on
the free unitary group carries a probability measure nu on the circle whose
moments m_eps(nu) = int e^{i eps theta} dnu weight the power-of-z part of each
character word.

File formats (used by the CLI):

- Cayley table: first line the order m, then m lines of m whitespace-separated
  element indices, row g listing g*h for h = 0..m-1.
- Group state: m lines "re im", line g holding psi(g).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import wallis

__all__ = [
    "MAX_GROUP_ORDER",
    "MAX_QUAD_POINTS",
    "MAX_MOMENT_INDEX",
    "FiniteGroup",
    "GroupState",
    "CircleMeasure",
    "cyclic_group",
    "load_cayley",
    "load_group_state",
    "trivial_state",
    "haar_state",
    "moment",
    "porod_rule",
    "porod_nodes",
    "tau_theta",
    "trace_modulus",
    "lambda_theta",
    "arg_trace",
]

# validation tolerances for state data supplied as floats
_STATE_ATOL = 1e-9
_PSD_EIG_FLOOR = -1e-10


# largest group order: ``from_table`` checks all m^3 triples as array rows,
# so cyclic_group(256) takes about 0.07 s and a state's Gram matrix with its
# eigenvalues about 0.01 s more (2-vCPU x86-64 VM, Python 3.11, numpy 2.4)
MAX_GROUP_ORDER = 256


def _check_group_order(m: int) -> None:
    if not 1 <= m <= MAX_GROUP_ORDER:
        raise ValueError(f"group order {m} is not in 1..MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table over element indices 0..m-1.

    ``table[g][h]`` is the product g*h.  Instances are only produced through
    ``from_table``, which checks the Latin-square property, locates the
    two-sided identity, inverts every element and verifies associativity on
    all triples, naming the first offending entry in the error message.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "FiniteGroup":
        m = len(rows)
        _check_group_order(m)
        table = tuple(tuple(int(x) for x in row) for row in rows)
        full = set(range(m))
        for g, row in enumerate(table):
            if len(row) != m:
                raise ValueError(f"row {g} has length {len(row)}, expected {m}")
            if set(row) != full:
                raise ValueError(f"row {g} is not a permutation of 0..{m - 1}")
        for h in range(m):
            if {table[g][h] for g in range(m)} != full:
                raise ValueError(f"column {h} is not a permutation of 0..{m - 1}")
        ids = tuple(range(m))
        identity = next((e for e in ids if table[e] == ids and all(table[g][e] == g for g in ids)), None)
        if identity is None:
            raise ValueError("no two-sided identity element")
        # each row is a permutation, so it holds the identity once
        inverse = [row.index(identity) for row in table]
        for g in range(m):
            if table[inverse[g]][g] != identity:
                raise ValueError(f"element {g} has no two-sided inverse")
        # (ab)c = a(bc) as T[T[a]][b, c] == T[a][T][b, c], on blocks of rows a
        # of at most 2^16 entries (the whole cube up to m = 16, one row at 256);
        # argwhere names the lexicographically first failing triple
        T = np.array(table, dtype=np.int16)
        step = max(1, 2**16 // (m * m))
        for lo in range(0, m, step):
            block = T[lo : lo + step]
            bad = T[block] != block[:, T]
            if bad.any():
                a, b, c = np.argwhere(bad)[0]
                raise ValueError(f"associativity fails at triple ({lo + a}, {b}, {c})")
        return cls(m, table, identity, tuple(inverse))


def cyclic_group(s: int) -> FiniteGroup:
    """Z/sZ with elements 0..s-1 under addition."""
    _check_group_order(s)
    return FiniteGroup.from_table([[(i + j) % s for j in range(s)] for i in range(s)])


def load_cayley(text: str) -> FiniteGroup:
    """Parse a Cayley-table file: order on the first line, then the rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty Cayley file")
    m = int(lines[0].split()[0])
    _check_group_order(m)
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} table rows, found {len(lines) - 1}")
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    return FiniteGroup.from_table(rows)


@dataclass(frozen=True)
class GroupState:
    """A normalized positive-definite function psi on a finite group.

    Validation enforces psi(e) = 1, |psi(g)| <= 1, hermitian symmetry
    psi(g^{-1}) = conj(psi(g)), and positive semidefiniteness of the Gram
    matrix M[g][h] = psi(g^{-1} h) (smallest eigenvalue >= -1e-10).
    """

    group: FiniteGroup
    values: tuple[complex, ...]

    @classmethod
    def from_values(cls, group: FiniteGroup, values: Sequence[complex]) -> "GroupState":
        m = group.order
        vals = tuple(complex(v) for v in values)
        if len(vals) != m:
            raise ValueError(f"expected {m} values, got {len(vals)}")
        for g, v in enumerate(vals):
            if not cmath.isfinite(v):
                raise ValueError(f"psi({g}) = {v!r} is not finite")
        if abs(vals[group.identity] - 1.0) > _STATE_ATOL:
            raise ValueError(f"psi(identity) = {vals[group.identity]!r}, must equal 1")
        for g, v in enumerate(vals):
            if abs(v) > 1.0 + _STATE_ATOL:
                raise ValueError(f"|psi({g})| = {abs(v)} exceeds 1")
        for g in range(m):
            if abs(vals[group.inverse[g]] - vals[g].conjugate()) > _STATE_ATOL:
                raise ValueError(f"psi({group.inverse[g]}) != conj(psi({g}))")
        # gram[g, h] = psi(g^{-1} h)
        gram = np.array(vals)[np.array(group.table)[list(group.inverse)]]
        eigs = np.linalg.eigvalsh(gram)
        if float(eigs.min()) < _PSD_EIG_FLOOR:
            raise ValueError(f"state is not positive definite (min eigenvalue {eigs.min():.3e})")
        return cls(group, vals)

    def abs_sum(self) -> float:
        """K(psi) = sum_g |psi(g)|."""
        return float(sum(abs(v) for v in self.values))


def trivial_state(group: FiniteGroup) -> GroupState:
    return GroupState.from_values(group, [1.0] * group.order)


def haar_state(group: FiniteGroup) -> GroupState:
    vals = [0.0] * group.order
    vals[group.identity] = 1.0
    return GroupState.from_values(group, vals)


def load_group_state(group: FiniteGroup, text: str) -> GroupState:
    """Parse a state file: one "re im" pair per element, in index order."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) != group.order:
        raise ValueError(f"expected {group.order} value lines, found {len(lines)}")
    vals = []
    for g, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {g}: expected 're im', got {ln!r}")
        vals.append(complex(float(parts[0]), float(parts[1])))
    return GroupState.from_values(group, vals)


@dataclass(frozen=True)
class CircleMeasure:
    """A probability measure on the circle, normalized to angles in [0, 2*pi).

    Three kinds:
    - "haar": normalized arc length;
    - "atomic": finitely many atoms (angle, weight), weights summing to 1;
    - "porod": the Porod mixture of parameter N, density proportional to
      |sin(theta/2)|^{N-1} with normalization 1 / (4 W_{N-1}); this is the
      rotation-angle law driving the uniform mixture of evaluation states.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = field(default=())
    N: int | None = None

    @classmethod
    def haar(cls) -> "CircleMeasure":
        return cls("haar")

    @classmethod
    def atomic(cls, pairs: Sequence[tuple[float, float]]) -> "CircleMeasure":
        if not pairs:
            raise ValueError("atomic measure needs at least one atom")
        total = 0.0
        norm = []
        for theta, w in pairs:
            if not (math.isfinite(theta) and math.isfinite(w)):
                raise ValueError(f"atom ({theta!r}, {w!r}) is not finite")
            if w < -1e-15:
                raise ValueError(f"negative weight {w}")
            total += w
            norm.append((math.fmod(float(theta), 2.0 * math.pi) % (2.0 * math.pi), float(w)))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, must be 1")
        return cls("atomic", atoms=tuple(norm))

    @classmethod
    def delta(cls, theta: float) -> "CircleMeasure":
        return cls.atomic([(theta, 1.0)])

    @classmethod
    def porod(cls, N: int) -> "CircleMeasure":
        if N < 2:
            raise ValueError("N must be >= 2")
        if N > sys.float_info.max:
            raise ValueError("N must fit a float: the moments are formed from float(N)")
        return cls("porod", N=N)

    def point_mass_weight(self) -> float | None:
        """The weight w of a point mass, whose moments all have modulus
        |m_eps| = w: the summed weight of the atoms when every normalized
        atom angle is the same float (a single atom gives its own weight);
        None for any other measure."""
        if self.kind == "atomic" and len({theta for theta, _ in self.atoms}) == 1:
            return sum(w for _, w in self.atoms)
        return None

    def describe(self) -> str:
        if self.kind == "haar":
            return "haar"
        if self.kind == "porod":
            return f"porod(N={self.N})"
        return "atomic[" + ", ".join(f"({t!r}, {w!r})" for t, w in self.atoms) + "]"


# most Gauss-Legendre nodes a quadrature may use; the O(n^2) node build takes
# about 30 s at this size (Python 3.11, numpy 2.4, one core)
MAX_QUAD_POINTS = 65536

# largest Porod |eps| moment() takes; its closed form is an O(|eps|) product,
# about 40 ms at this size
MAX_MOMENT_INDEX = 100_000

# cap on Newton sweeps in _gauss_legendre; from Tricomi's guess three sweeps
# reach full accuracy for every n below about 840 and two beyond
_NEWTON_MAX_SWEEPS = 8


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, elementwise."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built once
    per n and shared by every caller, hence read-only.

    Newton's method on P_n, evaluated by the three-term recurrence, moves
    the ceil(n/2) nonnegative nodes together as one vector from Tricomi's
    guess (1 - (n-1)/(8 n^3)) cos(pi (4i - 1)/(4n + 2)); the other half
    follows by symmetry.  Sweeps stop once the quadratic-convergence
    estimate dx^2 |x| / (1 - x^2) of the error left after the last step is
    below a quarter ulp of 1.  The weights are 2 / ((1 - x^2) P_n'(x)^2),
    with P_n' = n (P_{n-1} - x P_n) / (1 - x^2) and 1 - x^2 formed as
    (1 - x)(1 + x).  O(n^2) time, O(n) memory, elementwise numpy only.
    """
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(_NEWTON_MAX_SWEEPS):
        p, p_prev = _legendre_pair(n, x)
        s = (1.0 - x) * (1.0 + x)
        dx = p * s / (n * (p_prev - x * p))
        x = x - dx
        if float(np.max(dx * dx * np.abs(x) / s)) <= 2.0**-54:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    if n % 2:
        x[-1] = 0.0
    p, p_prev = _legendre_pair(n, x)
    s = (1.0 - x) * (1.0 + x)
    w = 2.0 * s / (n * (p_prev - x * p)) ** 2
    half = n // 2
    nodes, weights = np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _half_angle_nodes(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes phi = pi/2 (x + 1) and weights on [0, pi], built
    once per size and shared by every caller, hence read-only."""
    x, w = _gauss_legendre(quad_points)
    phi = 0.5 * math.pi * (x + 1.0)
    wq = 0.5 * math.pi * w
    phi.flags.writeable = False
    wq.flags.writeable = False
    return phi, wq


def porod_nodes(N: int, quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for the Porod mixture of parameter N:
    the tests' independent reference for the exact ``porod_rule`` and the
    closed-form moments.  No command builds them.

    Substituting theta = 2*phi maps the density to sin^{N-1}(phi) / (2 W_{N-1})
    on [0, pi]; the nodes are Gauss-Legendre on that interval, built once per
    ``quad_points``.  Returned angles are the original theta = 2*phi; the
    weights sum to 1 up to quadrature error.

    log sin(phi) = log cos(pi x / 2) is taken as log1p(-2 sin^2(pi x / 4))
    from the Legendre node x, not from the rounded phi, whose error the power
    N - 1 would multiply.
    """
    if not 1 <= quad_points <= MAX_QUAD_POINTS:
        raise ValueError(f"quad_points must be in 1..{MAX_QUAD_POINTS}")
    x, _ = _gauss_legendre(quad_points)
    phi, wq = _half_angle_nodes(quad_points)
    log_sin = np.log1p(-2.0 * np.sin(0.25 * math.pi * x) ** 2)
    dens = np.exp((N - 1) * log_sin) / (2.0 * wallis(N - 1))
    return 2.0 * phi, wq * dens


def moment(nu: CircleMeasure, eps: int) -> complex:
    """m_eps(nu) = int e^{i * eps * theta} dnu(theta), exactly.

    Haar gives the Kronecker delta at eps = 0; atomic measures are summed
    exactly; the Porod mixture takes the beta-integral closed form
    prod_{j=1}^{|eps|} -(h - j + 1) / (h + j), h = (N - 1) / 2, which is real
    and 0 for odd N once |eps| > h.  A Porod |eps| above MAX_MOMENT_INDEX
    raises ValueError.
    """
    if nu.kind == "haar":
        return complex(1.0 if eps == 0 else 0.0)
    if nu.kind == "atomic":
        acc = 0j
        for theta, w in nu.atoms:
            acc += w * cmath.exp(1j * eps * theta)
        return acc
    if nu.kind == "porod":
        e = abs(int(eps))
        if e > MAX_MOMENT_INDEX:
            raise ValueError(f"Porod moment index |eps| = {e} exceeds {MAX_MOMENT_INDEX}")
        return complex(_porod_moments(nu, e)[e])
    raise ValueError(f"unknown measure kind {nu.kind!r}")


def _porod_moments(nu: CircleMeasure, degree: int) -> list[float]:
    """The Porod moments m_0 .. m_degree of ``nu``, by one running product."""
    assert nu.N is not None
    h, m, out = 0.5 * (nu.N - 1), 1.0, [1.0]
    for j in range(1, degree + 1):
        m *= -(h - j + 1.0) / (h + j)
        out.append(m + 0.0)  # + 0.0 turns the -0.0 of a zero factor or an underflow into 0.0
    return out


def porod_rule(N: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta_j = 2 pi j / L, L = 2 degree + 1, and real, possibly
    negative, weights w_j = (1 + 2 sum_{e=1}^{degree} m_e cos(e theta_j)) / L,
    m_e the Porod moments: sum_j w_j f(theta_j) = E_Porod[f] = sum_e f_e m_e
    for every f = sum_{|e| <= degree} f_e e^{i e theta}, as L nodes alias no e."""
    L = 2 * degree + 1
    e = np.arange(1, degree + 1)
    m = np.array(_porod_moments(CircleMeasure.porod(N), degree)[1:])
    j = np.arange(L)
    # e j mod L keeps every cosine argument in [0, 2 pi)
    cos_ej = np.cos(2.0 * math.pi / L * (np.outer(j, e) % L))
    return 2.0 * math.pi / L * j, (1.0 + 2.0 * (cos_ej * m).sum(axis=1)) / L


def lambda_theta(theta: float) -> float:
    """1 - cos(theta), the decay-rate parameter of an evaluation state.

    Taken as 2 sin^2(r / 2) with r the remainder of theta modulo 2 pi (the
    float math.tau, so that 2 pi is the identity rotation, with lambda 0):
    the difference 1 - cos(theta) cancels for small theta, losing about one
    ulp of 1 over lambda (2.9e-13 relative at theta = 0.01).
    """
    return 2.0 * math.sin(0.5 * math.remainder(theta, math.tau)) ** 2


def trace_modulus(N: int, theta: float) -> float:
    """|e^{i theta} + N - 1| = sqrt(N^2 - 2 N lambda + 2 lambda), with
    lambda = 1 - cos(theta): the modulus of the trace of an evaluation
    state, at least N - 2."""
    lam = lambda_theta(theta)
    return math.sqrt(N * N - 2.0 * N * lam + 2.0 * lam)


def tau_theta(N: int, theta: float) -> float:
    """N - |e^{i theta} + N - 1|, the trace deficit of an evaluation state.

    Taken as 2 lambda (N - 1) / (N + |e^{i theta} + N - 1|), lambda =
    1 - cos(theta), which does not cancel: the difference of N and the
    modulus would lose every digit of a small deficit at large N.
    Satisfies lambda(theta) * (N - 1) / N <= tau <= lambda(theta).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return 2.0 * lambda_theta(theta) * (N - 1.0) / (N + trace_modulus(N, theta))


def arg_trace(N: int, theta: float) -> float:
    """Argument of e^{i theta} + N - 1."""
    return math.atan2(math.sin(theta), N - 1.0 + math.cos(theta))
