"""Acceptance gate: every advertised numeric guarantee, one test per
criterion, each printing a single PASS/FAIL line (run with -s to stream).

Targets are stated inline with their tolerances; runtimes are asserted
against generous desk-scale budgets.
"""

import math
import time

import numpy as np
import pytest

from qgcutoff.bounds import (
    DEFAULT_TRUNCATION,
    MIXTURE_DEFAULT_TRUNCATION,
    A_k_grid,
    TruncationConfig,
    WalkQuery,
    threshold_C,
    tv_lower,
    tv_lower_chebyshev,
    tv_upper_from_A,
)
from qgcutoff.cli import main as cli_main
from qgcutoff.numerics import lambda_moment
from qgcutoff.structures import GroupState, cyclic_group, trivial_state
from qgcutoff.verify import negative_controls, run_all, verify_lambda_moment
from qgcutoff.words import chi2_expectation_wreath

from oracles import interval_rows, unitary_log_partial, wreath_log_partial
from qgcutoff.structures import CircleMeasure


def _line(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_unitary_closed_bound_domination():
    t0 = time.perf_counter()
    N, tau, c = 20, 2.0, 1.0
    k = N * math.log(N) / tau + c * N
    grid = A_k_grid(WalkQuery.unitary(N, tau), [k], DEFAULT_TRUNCATION)
    A = interval_rows(grid)[0]
    tv_hi = tv_upper_from_A(grid)[1].item(0)
    elapsed = time.perf_counter() - t0
    a_target = 2.0 * math.exp(-4.0) / (1.0 - 2.0 * math.exp(-4.0))
    tv_target = math.exp(-2.0) / math.sqrt(2.0 - 4.0 * math.exp(-4.0))
    ok = (
        A.certified
        and A.partial + A.tail <= a_target
        and tv_hi <= tv_target
        and elapsed < 1.0
    )
    _line(
        1,
        ok,
        f"certified A_k = {A.partial + A.tail:.6g} <= {a_target:.6g} and "
        f"tv_upper_hi = {tv_hi:.6g} <= {tv_target:.6g} ({elapsed:.3f}s < 1s)",
    )


def test_criterion_2_cutoff_shape_large_N():
    t0 = time.perf_counter()
    N, tau = 30000, 2.0
    cutoff = N * math.log(N) / 2.0
    lo = tv_lower(WalkQuery.unitary(N, tau), cutoff - 5.0 * N)
    A = A_k_grid(WalkQuery.unitary(N, tau), [cutoff + 5.0 * N], DEFAULT_TRUNCATION)
    hi = tv_upper_from_A(A)[1].item(0)
    elapsed = time.perf_counter() - t0
    ok = lo >= 0.98 and A.certified[0] and hi <= 2e-4 and elapsed < 10.0
    _line(
        2,
        ok,
        f"tv_lower(cutoff - 5N) = {lo:.6g} >= 0.98 and "
        f"tv_upper_hi(cutoff + 5N) = {hi:.6g} <= 2e-4 ({elapsed:.3f}s < 10s)",
    )


def test_criterion_3_oracle_equivalence():
    N, tau, k = 12, 2.0, 30.0
    # unitary, independent word-by-word route
    got_u = A_k_grid(
        WalkQuery.unitary(N, tau), [k], TruncationConfig(max_p=5, max_total=10)
    ).log_partial[0]
    want_u = unitary_log_partial(N, N - tau, CircleMeasure.delta(0.0), k, 10, 5)
    rel_u = abs(got_u - want_u)
    # wreath over Z_2
    g2 = cyclic_group(2)
    psi = trivial_state(g2)
    got_w = A_k_grid(
        WalkQuery.wreath(N, tau, g2, psi), [k], TruncationConfig(max_p=4, max_total=10)
    ).log_partial[0]
    want_w = wreath_log_partial(N, tau, g2, psi, k, 10, 4)
    rel_w = abs(got_w - want_w)
    # nested-truncation containment on 20 deterministic random parameter sets
    rng = np.random.default_rng(424242)
    contained = 0
    attempts = 0
    while contained < 20 and attempts < 200:
        attempts += 1
        c = float(rng.uniform(0.5, 3.0))
        P1, M1 = int(rng.integers(2, 5)), int(rng.integers(6, 12))
        P2, M2 = P1 + int(rng.integers(1, 4)), M1 + int(rng.integers(2, 8))
        if contained % 2 == 0:
            Np = int(rng.integers(8, 60))
            taup = float(rng.uniform(1.0, 3.0))
            if Np - taup <= threshold_C(taup) + taup:
                continue
            kk = Np * math.log(Np) / taup + c * Np
            q = WalkQuery.unitary(Np, taup)
            coarse = interval_rows(A_k_grid(q, [kk], TruncationConfig(max_p=P1, max_total=M1)))[0]
            fine = interval_rows(A_k_grid(q, [kk], TruncationConfig(max_p=P2, max_total=M2)))[0]
        else:
            Np = int(rng.integers(28, 80))
            gg = cyclic_group(int(rng.integers(2, 4)))
            kk = Np * math.log(Np) / 2.0 + c * Np
            q = WalkQuery.wreath(Np, 2.0, gg, trivial_state(gg))
            coarse = interval_rows(A_k_grid(q, [kk], TruncationConfig(max_p=P1, max_total=M1)))[0]
            fine = interval_rows(A_k_grid(q, [kk], TruncationConfig(max_p=P2, max_total=M2)))[0]
        if not coarse.certified:
            continue
        if not (
            coarse.log_partial <= fine.log_partial + 1e-12
            and math.exp(fine.log_partial) <= coarse.upper * (1.0 + 1e-12)
        ):
            break
        contained += 1
    ok = rel_u < 1e-9 and rel_w < 1e-9 and contained == 20
    _line(
        3,
        ok,
        f"engine vs brute force |dlog| = {rel_u:.2e} (unitary), {rel_w:.2e} (wreath), "
        f"both < 1e-9; containment {contained}/20 random truncation pairs",
    )


def test_criterion_4_chebyshev_constant_reproduction():
    worst = 0.0
    for tau, c in [(2.0, 5.0), (3.0, 7.0)]:
        m = (8.0 / 9.0) * math.exp((c - 3.0) * tau)
        got = tv_lower_chebyshev(m, 9.0, 1.0)
        want = 1.0 - (810.0 / 16.0) * math.exp(6.0 * tau - 2.0 * c * tau)
        worst = max(worst, abs(got - want))
    ok = worst < 1e-12
    _line(4, ok, f"1 - (810/16) e^(6 tau - 2 c tau) reproduced, max |diff| = {worst:.2e} < 1e-12")


def test_criterion_5_wreath_bound_chain():
    t0 = time.perf_counter()
    g3 = cyclic_group(3)
    psi = trivial_state(g3)
    N, tau, c = 30, 2.0, 1.0
    k = N * math.log(N) / tau + c * N
    grid = A_k_grid(WalkQuery.wreath(N, tau, g3, psi), [k], DEFAULT_TRUNCATION)
    A = interval_rows(grid)[0]
    tv_hi = tv_upper_from_A(grid)[1].item(0)
    a_target = (math.exp(-4.0) / (1.0 - math.exp(-4.0))) * (1.0 + math.sqrt(3.0))
    tv_target = math.exp(-2.0) * math.sqrt(1.0 + math.sqrt(3.0)) / math.sqrt(1.0 - math.exp(-4.0))
    upper_ok = A.certified and A.partial + A.tail <= a_target and tv_hi <= tv_target

    # lower-bound leg at N = 1e5: hand-derived witness identity to 1e-12
    N2, c2 = 100_000, 3.0
    k2 = N2 * math.log(N2) / 2.0 - c2 * N2
    m = chi2_expectation_wreath(N2, tau, k2)
    got = tv_lower_chebyshev(m, 9.0, 1.0)
    log_term = (
        math.log(40.0)
        - 2.0 * math.log(N2 - 1.0)
        + 2.0 * k2 * (math.log(N2 - 1.0) - math.log(N2 - tau - 1.0))
    )
    hand = 1.0 - math.exp(log_term)
    literal_display = 1.0 - 40.0 * math.exp(-2.0 * tau * (tau + 2.0) / 5.0 + 4.0 * tau * c2)
    lower_ok = abs(got - hand) < 1e-12 and got >= literal_display and got >= 0.999
    elapsed = time.perf_counter() - t0
    ok = upper_ok and lower_ok and elapsed < 10.0
    _line(
        5,
        ok,
        f"certified A_k = {A.partial + A.tail:.6g} <= {a_target:.6g}, "
        f"tv = {tv_hi:.6g} <= {tv_target:.6g}; lower leg {got:.6f} matches hand "
        f"derivation to {abs(got - hand):.1e} and exceeds the stated form",
    )


def test_criterion_6_mixture_chain():
    t0 = time.perf_counter()
    N, c = 100, 6.0
    k = N * math.log(N) / 2.0 + c * N
    A = interval_rows(A_k_grid(WalkQuery.mixture(N), [k], MIXTURE_DEFAULT_TRUNCATION))[0]
    a_target = 2.0 * math.exp(-2.0) / (1.0 - 2.0 * math.exp(-2.0))
    upper_ok = A.certified and A.partial + A.tail <= a_target

    # closed-form lambda moments against independent quadrature
    worst = 0.0
    x, w = np.polynomial.legendre.leggauss(800)
    phi = (x + 1.0) * (math.pi / 4.0)
    for Nq in [5, 10, 50]:
        dens = np.sin(phi) ** (Nq - 1)
        norm = float(np.sum(w * dens))
        lam = 1.0 - np.cos(2.0 * phi)
        for l in range(7):
            quad = float(np.sum(w * dens * lam**l) / norm)
            closed = lambda_moment(Nq, l)
            worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-300))
    report = verify_lambda_moment()
    notes = " ".join(report.notes)
    recorded = "recurrence ratio" in notes and "alternative ratio" in notes and report.ok
    elapsed = time.perf_counter() - t0
    ok = upper_ok and worst <= 1e-8 and recorded and elapsed < 30.0
    _line(
        6,
        ok,
        f"certified A_k(mixture) = {A.partial + A.tail:.6g} <= {a_target:.6g}; "
        f"lambda-moment closed form vs quadrature rel <= {worst:.2e} <= 1e-8; "
        f"Wallis-ratio discrepancy recorded in the report",
    )


def test_criterion_7_verification_suites():
    t0 = time.perf_counter()
    reports = run_all(
        [
            "encadrement",
            "lower_aux",
            "main_inequality",
            "anqn",
            "ratio_comparison",
            "wreath_inequality",
        ]
    )
    positives_ok = all(r.ok and not r.failures for r in reports.values())
    controls = negative_controls()
    controls_ok = all(len(r.failures) >= 1 for r in controls.values())
    elapsed = time.perf_counter() - t0
    ok = positives_ok and controls_ok and elapsed < 30.0
    total_points = sum(r.grid_size for r in reports.values())
    _line(
        7,
        ok,
        f"6 suites, {total_points} grid points, zero failures; "
        f"{len(controls)} negative controls each fail >= once ({elapsed:.1f}s < 30s)",
    )


def test_criterion_8_determinism_across_workers(tmp_path):
    args = [
        "profile", "--family", "unitary", "--N", "30000", "--tau", "2",
        "--c-range", "-1:1:1",
    ]
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    assert cli_main(args + ["--threads", "1", "--output", str(out1)]) == 0
    assert cli_main(args + ["--threads", "8", "--output", str(out8)]) == 0
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    ok = b1 == b8 and len(b1) > 0
    _line(8, ok, f"profile at N = 30000: 1-worker and 8-worker CSV byte-identical ({len(b1)} bytes)")
