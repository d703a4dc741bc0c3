"""Seeded workload generator for the qgcutoff benchmark.

Every workload draws its invocations from a fixed pool of valid queries; the
seed chooses which pool entries run and in what order.  The pool is fixed so
that every query the generator can emit has a reference interval recorded at
the seed commit (``reference.json``, written by ``record_reference.py``).

An invocation's ``key`` is its argv joined by spaces.  Input files are named
after the content they hold (``atoms-3.txt`` always holds the same atoms), so
the key identifies the query completely and outputs repeat byte for byte
across passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("profile-sweep", "bound-scan", "quadrature")

# bound-scan cells: every (variant, tau or theta, c) cell has _ALTERNATIVES
# pool entries, differing in N and input files, and each pass runs _PER_CELL
# of them.  Whether a point is certified, and whether its interval is loose,
# depends on the cell and hardly on N, so the mix of families, of positions
# relative to the cutoff and of certified points is the same for every seed.
_C_LIST = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
_ALTERNATIVES = 3
_PER_CELL = 2

_PROFILE_C_RANGE = "-5:5:0.1"
_MIXTURE_C_RANGE = "0.5:1.5:1"
# --nu porod builds one 2048-node quadrature per winding exponent
# -(max_p + 1)..(max_p + 1); max_p = 1 keeps that to 5 per bound
_POROD_TRUNCATION = ("--max-p", "1", "--max-total", "4")
_VERIFY_REPORT = "verify-report.json"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv, the input files it reads, the files it writes."""

    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    writes: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def to_json(self) -> dict:
        return {"argv": list(self.argv), "writes": list(self.writes)}


def _steps(N: int, rate: float, c: float) -> float:
    return N * math.log(N) / rate + c * N


def _require_valid(N: int, rate: float, c_min: float) -> None:
    # k < 0 makes the CLI exit 2; the pool must hold only queries that succeed
    if not _steps(N, rate, c_min) >= 0.0:
        raise ValueError(f"N={N}, rate={rate}, c={c_min} gives k < 0")


# ---------------------------------------------------------------------------
# generated input files


def _atoms_file(i: int) -> tuple[str, str]:
    rng = random.Random(f"atoms:{i}")
    n = rng.randint(2, 5)
    raw = [rng.random() + 0.05 for _ in range(n)]
    weights = [w / sum(raw) for w in raw[:-1]]
    weights.append(1.0 - sum(weights))
    lines = [f"# {n} atoms"] + [f"{rng.uniform(0.0, 2.0 * math.pi)!r} {w!r}" for w in weights]
    return f"atoms-{i}.txt", "\n".join(lines) + "\n"


def _cyclic_psi_file(s: int, i: int) -> tuple[str, str]:
    # psi(g) = sum_j w_j e^{2 pi i j g / s} with w_j >= 0 summing to 1 is a
    # normalized positive-definite function on Z/s
    rng = random.Random(f"psi-cyclic:{s}:{i}")
    raw = [rng.random() for _ in range(s)]
    w = [x / sum(raw) for x in raw]
    lines = []
    for g in range(s):
        z = sum(w[j] * complex(math.cos(2 * math.pi * j * g / s), math.sin(2 * math.pi * j * g / s))
                for j in range(s))
        if g == 0:
            z = complex(1.0, 0.0)
        lines.append(f"{z.real!r} {z.imag!r}")
    return f"psi-cyclic-{s}-{i}.txt", "\n".join(lines) + "\n"


def _dihedral_table(n: int) -> list[list[int]]:
    """Cayley table of the dihedral group of order 2n: index a is r^a and
    index n + a is s r^a, with s r s = r^{-1}."""
    def mul(x: int, y: int) -> int:
        a, fa = x % n, x >= n
        b, fb = y % n, y >= n
        if not fa and not fb:
            return (a + b) % n
        if not fa and fb:
            return n + (b - a) % n
        if fa and not fb:
            return n + (a + b) % n
        return (b - a) % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def _dihedral_file(n: int) -> tuple[str, str]:
    rows = _dihedral_table(n)
    lines = [f"# dihedral group of order {2 * n}", str(2 * n)]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return f"dihedral-{n}.txt", "\n".join(lines) + "\n"


def _dihedral_psi_file(n: int, i: int) -> tuple[str, str]:
    # a convex combination of normalized irreducible characters is a
    # normalized positive-definite function
    chars: list[list[float]] = [[1.0] * (2 * n), [1.0] * n + [-1.0] * n]
    if n % 2 == 0:
        alt = [(-1.0) ** a for a in range(n)]
        chars += [alt + alt, alt + [-x for x in alt]]
    for j in range(1, (n - 1) // 2 + 1):
        chars.append([math.cos(2 * math.pi * j * a / n) for a in range(n)] + [0.0] * n)
    rng = random.Random(f"psi-dihedral:{n}:{i}")
    raw = [rng.random() for _ in chars]
    w = [x / sum(raw) for x in raw]
    vals = [sum(w[c] * chars[c][g] for c in range(len(chars))) for g in range(2 * n)]
    vals[0] = 1.0
    return f"psi-dihedral-{n}-{i}.txt", "\n".join(f"{v!r} 0.0" for v in vals) + "\n"


# ---------------------------------------------------------------------------
# pools


def _profile_pool() -> dict[str, list[Invocation]]:
    # The seed varies N, the delta angle and the cyclic group.  tau, theta
    # and psi stay fixed: they decide which rows are certified and loose, so
    # certified_frac and loose_frac stay the same across seeds.
    c_range = ("--c-range", _PROFILE_C_RANGE)
    unitary = [
        Invocation(("profile", "--family", "unitary", "--N", str(N), "--tau", "2")
                   + (("--nu", nu) if nu else ()) + c_range)
        for N in (25000, 40000, 60000, 100000, 250000, 1000000)
        for nu in (None, "delta:0.5", "delta:1.7", "delta:3.0")
    ]
    evals = [
        Invocation(("profile", "--family", "eval", "--N", str(N), "--theta", "2.0") + c_range
                   + ("--format", "json"))
        for N in (10000, 20000, 50000, 100000)
    ]
    wreath = [
        Invocation(("profile", "--family", "wreath", "--N", str(N), "--tau", "2", "--group", f"cyclic:{s}",
                    "--psi", "trivial") + c_range)
        for N in (25000, 40000, 60000, 100000)
        for s in (2, 3, 5)
    ]
    for inv in unitary + wreath:
        _require_valid(int(inv.argv[4]), 2.0, -5.0)
    for inv in evals:
        _require_valid(int(inv.argv[4]), 1.0 - math.cos(2.0), -5.0)
    return {"unitary": unitary, "eval": evals, "wreath": wreath}


_N_CHOICES = (20, 60, 200, 1000, 10000, 100000)
_WREATH_N_CHOICES = (30, 100, 500, 5000, 100000)


def _bound_entry(variant: str, shape: float, c: float, rng: random.Random) -> Invocation:
    """One valid single-point bound query of the variant at this tau (theta
    for eval) and c; N and the input files vary."""
    while True:
        files: list[tuple[str, str]] = []
        rate = 1.0 - math.cos(shape) if variant == "eval" else shape
        if variant.startswith("unitary"):
            N = rng.choice(_N_CHOICES)
            args = ["--family", "unitary", "--N", str(N), "--tau", repr(shape)]
            if variant == "unitary-delta":
                nu = rng.choice((None, "delta:0.3", "delta:2.2"))
                if nu:
                    args += ["--nu", nu]
            elif variant == "unitary-haar":
                args += ["--nu", "haar"]
            else:
                name, text = _atoms_file(rng.randrange(6))
                files.append((name, text))
                args += ["--nu", f"atoms:{name}"]
        elif variant == "eval":
            N = rng.choice(_N_CHOICES)
            args = ["--family", "eval", "--N", str(N), "--theta", repr(shape)]
        else:
            N = rng.choice(_WREATH_N_CHOICES)
            args = ["--family", "wreath", "--N", str(N), "--tau", repr(shape)]
            if variant == "wreath-cyclic":
                s = rng.randint(2, 6)
                args += ["--group", f"cyclic:{s}"]
                psi = rng.choice(("trivial", "haar", "file"))
                if psi == "file":
                    name, text = _cyclic_psi_file(s, rng.randrange(3))
                    files.append((name, text))
                    psi = f"file:{name}"
                args += ["--psi", psi]
            else:
                n = rng.choice((3, 4, 5, 6))
                group_name, group_text = _dihedral_file(n)
                psi_name, psi_text = _dihedral_psi_file(n, rng.randrange(3))
                files += [(group_name, group_text), (psi_name, psi_text)]
                args += ["--group", f"cayley:{group_name}", "--psi", f"file:{psi_name}"]
        if _steps(N, rate, c) >= 0.0:
            return Invocation(("bound",) + tuple(args) + ("--c", repr(c)), tuple(files))


# variant -> the tau values (theta for eval) it is scanned at
_BOUND_VARIANTS = {
    "unitary-delta": (1.0, 2.0, 3.0),
    "unitary-haar": (1.0, 2.0, 3.0),
    "unitary-atoms": (1.0, 2.0, 3.0),
    "eval": (0.8, 1.5, 2.5, 3.1),
    "wreath-cyclic": (2.0, 3.0),
    "wreath-cayley": (2.0, 3.0),
}


def _bound_pool() -> dict[tuple[str, float, float], list[Invocation]]:
    pool = {}
    for variant, shapes in _BOUND_VARIANTS.items():
        for shape in shapes:
            for c in _C_LIST:
                rng = random.Random(f"bound-scan:{variant}:{shape!r}:{c!r}")
                cell: list[Invocation] = []
                while len(cell) < _ALTERNATIVES:
                    inv = _bound_entry(variant, shape, c, rng)
                    if inv not in cell:
                        cell.append(inv)
                pool[(variant, shape, c)] = cell
    return pool


def _quadrature_pool() -> dict[str, list[Invocation]]:
    mixture = [
        Invocation(("profile", "--family", "mixture", "--N", str(N), "--c-range", _MIXTURE_C_RANGE))
        for N in (100, 150, 300, 600)
    ]
    porod = [
        Invocation(("bound", "--family", "unitary", "--N", str(N), "--tau", tau, "--nu", "porod",
                    "--c", c) + _POROD_TRUNCATION)
        for N in (40, 80, 120, 200, 500, 800)
        for tau, c in (("1.5", "0.5"), ("2.0", "1.0"), ("3.0", "2.0"))
    ]
    for inv in mixture:
        _require_valid(int(inv.argv[4]), 2.0, 0.5)
    verify = [Invocation(("verify", "--suite", "all", "--report", _VERIFY_REPORT), writes=(_VERIFY_REPORT,))]
    return {"mixture": mixture, "porod": porod, "verify": verify}


def pool(workload: str) -> list[Invocation]:
    """Every invocation the workload can emit, for any seed."""
    if workload == "profile-sweep":
        groups = _profile_pool().values()
    elif workload == "bound-scan":
        groups = _bound_pool().values()
    elif workload == "quadrature":
        groups = _quadrature_pool().values()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [inv for group in groups for inv in group]


def plan(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass, in order; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "profile-sweep":
        groups = _profile_pool()
        return [rng.choice(groups[name]) for name in ("unitary", "eval", "wreath")]
    if workload == "bound-scan":
        out = [inv for cell in _bound_pool().values() for inv in rng.sample(cell, _PER_CELL)]
        rng.shuffle(out)
        return out
    if workload == "quadrature":
        groups = _quadrature_pool()
        return [rng.choice(groups[name]) for name in ("mixture", "porod", "verify")]
    raise ValueError(f"unknown workload {workload!r}")


def input_files(invocations: list[Invocation]) -> dict[str, str]:
    """Name -> text of every input file the invocations read."""
    return {name: text for inv in invocations for name, text in inv.files}
