"""Grid verification of the supporting inequalities, and the negative
controls that prove the harness can fail.
"""

import math
from collections import defaultdict
from dataclasses import asdict

import numpy as np
import pytest

from qgcutoff import cli, structures, verify
from qgcutoff.numerics import q_of
from qgcutoff.verify import (
    MAX_LISTED_FAILURES,
    VerifyReport,
    negative_controls,
    format_report,
    run_all,
    verify_anqn,
    verify_encadrement,
    verify_lambda_moment,
    verify_lower_aux,
    verify_main_inequality,
    verify_ratio_comparison,
    verify_wreath_inequality,
)

from oracles import verify_scalar_margins


def test_all_suites_pass():
    reports = run_all(None)
    assert set(reports) == {
        "encadrement",
        "lower_aux",
        "main_inequality",
        "anqn",
        "ratio_comparison",
        "wreath_inequality",
        "lambda_moment",
    }
    for name, rep in reports.items():
        assert rep.ok, (name, rep.failures[:3])
        assert rep.pass_count == rep.grid_size


def test_report_counts_consistent():
    rep = verify_encadrement()
    assert rep.pass_count + rep.failure_count == rep.grid_size
    assert rep.tight_count <= rep.pass_count
    # the lower envelope touches u_n at several points, so ties must occur
    assert rep.tight_count > 0


def test_encadrement_spot_values():
    # at t = 3, n = 2: t q^{-(n-1)} = 3/q <= u_2 = 8 <= q^{-2}/(1-q^2)
    q = q_of(3.0)
    lo = 3.0 / q
    hi = q**-2 / (1.0 - q * q)
    assert lo <= 8.0 + 1e-12
    assert 8.0 <= hi + 1e-12


def test_main_inequality_spot_check():
    # tau = 2, N = 6: N q(N - tau) (1 - q(N - tau)^2) >= e^{tau/N}; N = 6 is
    # the first tau = 2 point of the grid, N = 5 the last one scanned below
    rep = verify_main_inequality()
    assert rep.ok
    assert [n for n in rep.notes if "tau=2 " in n] == ["below threshold: tau=2 N=5 margin=0.0893096"]
    q4 = q_of(4.0)  # 2 - sqrt(3)
    lhs = 6.0 * q4 * (1.0 - q4 * q4)
    # exact: 6 (2 - sqrt 3)(4 sqrt 3 - 6) = 84 sqrt 3 - 144
    assert lhs == pytest.approx(84.0 * math.sqrt(3.0) - 144.0, rel=1e-12)
    assert lhs >= math.exp(2.0 / 6.0)


def test_anqn_boundary_value():
    # N = 4 (t = 2 boundary, q = 1): a_N q_N = (N - 2 + 2/N) * 1 = 2.5 <= N - 1
    rep = verify_anqn()
    assert rep.ok
    assert rep.grid_size >= 1
    # the control with 8 replaced by 2 runs the same grid and fails at its
    # first point, N = 4, with the boundary value
    assert negative_controls()["anqn_broken"].failures[0][:3] == ("N=4", 2.5, 1.5)


def test_ratio_comparison_has_positive_margin():
    rep = verify_ratio_comparison()
    assert rep.ok
    assert rep.min_margin == pytest.approx(8.9e-5, rel=1e-2) and rep.min_margin > 0.0


def test_wreath_inequality_notes_record_onset():
    rep = verify_wreath_inequality()
    assert rep.ok
    assert any(n.startswith("tau=2: holds from N=7 ") for n in rep.notes)


def test_lambda_moment_report_names_both_ratios():
    rep = verify_lambda_moment()
    assert rep.ok
    joined = " ".join(rep.notes)
    assert "recurrence ratio" in joined
    assert "alternative ratio" in joined


def test_lower_aux_passes():
    rep = verify_lower_aux()
    assert rep.ok and rep.grid_size > 0


def test_negative_controls_fail():
    controls = negative_controls()
    assert set(controls) == {"encadrement_broken", "lower_aux_broken", "anqn_broken"}
    for name, rep in controls.items():
        assert rep.failure_count >= 1, name
        assert not rep.ok
        assert len(rep.failures) == min(rep.failure_count, MAX_LISTED_FAILURES), name


def test_run_all_subset_and_unknown():
    reports = run_all(["anqn", "lower_aux"])
    assert set(reports) == {"anqn", "lower_aux"}
    with pytest.raises(ValueError):
        run_all(["no_such_suite"])


def test_report_serialization_round_trip():
    rep = verify_anqn()
    doc = asdict(rep)
    assert doc["inequality_id"] == "anqn"
    assert doc["grid_size"] == rep.grid_size
    assert doc["pass_count"] == rep.pass_count
    text = format_report(rep)
    assert text.startswith("PASS anqn" if rep.ok else "FAIL anqn")
    assert f"{rep.pass_count}/{rep.grid_size}" in text


def test_determinism_bit_for_bit():
    a = asdict(verify_main_inequality())
    b = asdict(verify_main_inequality())
    assert a == b
    assert format_report(verify_encadrement()) == format_report(verify_encadrement())


def _labelled(i):
    return f"p{i}", float(i), -float(i)


def test_nan_margin_fails_and_is_the_minimum():
    rep = VerifyReport("nan", 1e-12)
    rep.add(np.array([0.5, math.nan, -0.0]), _labelled)
    assert not rep.ok
    assert (rep.grid_size, rep.pass_count, rep.tight_count, rep.failure_count) == (3, 2, 1, 1)
    assert rep.failures[0][:3] == ("p1", 1.0, -1.0) and math.isnan(rep.failures[0][3])
    assert math.isnan(rep.min_margin) and rep.min_margin_point == "p1"


def test_report_lists_the_first_failures_in_grid_order_and_counts_all():
    # 25 failures over two blocks, between passes: the first 10 are listed, all 25 counted
    rep = VerifyReport("many", 1e-12)
    first = np.where(np.arange(20) % 2 == 0, -1.0, 1.0)  # 10 failures at 0, 2, ..., 18
    second = np.full(15, -2.0)
    rep.add(first, _labelled)
    rep.add(second, lambda i: _labelled(100 + i))
    assert (rep.grid_size, rep.pass_count, rep.failure_count) == (35, 10, 25)
    assert [f[0] for f in rep.failures] == [f"p{i}" for i in range(0, 20, 2)]
    assert len(rep.failures) == MAX_LISTED_FAILURES
    assert rep.min_margin == -2.0 and rep.min_margin_point == "p100"
    text = format_report(rep)
    assert text.startswith("FAIL many: 10/35 points")
    assert text.count("    FAIL p") == MAX_LISTED_FAILURES
    assert text.endswith("    ... 15 more failures")


def test_array_margins_are_within_a_few_ulp_of_the_scalar_formulas(monkeypatch):
    # every block each suite and control counts, against the per-point
    # formulas in math-module floats, at a few spacings of the largest term;
    # the counts must agree exactly
    blocks = defaultdict(list)
    add = VerifyReport.add

    def record(self, margins, detail):
        blocks[self.inequality_id].append((self.tol, np.asarray(margins, dtype=float).ravel()))
        add(self, margins, detail)

    monkeypatch.setattr(VerifyReport, "add", record)
    reports = run_all(None)
    got = dict(blocks)
    blocks.clear()
    for name, rep in negative_controls().items():
        reports[name] = rep
        got[name] = blocks[rep.inequality_id]
    want = verify_scalar_margins()
    assert set(want) == set(reports)
    for name, rep in reports.items():
        assert len(got[name]) == len(want[name]), name
        for (tol, margins), points in zip(got[name], want[name]):
            ref, scale = np.array(points).T
            assert margins.shape == ref.shape, name
            assert np.all(np.abs(margins - ref) <= 4.0 * np.spacing(scale)), name
        ref = np.concatenate([[m for m, _ in points] for points in want[name]])
        passed = ref >= -tol
        counts = (np.count_nonzero(passed), np.count_nonzero(passed & (np.abs(ref) < tol)),
                  np.count_nonzero(~passed))
        assert (rep.pass_count, rep.tight_count, rep.failure_count) == counts, name


def test_verify_builds_one_u_table_per_grid_and_one_lambda_per_angle(monkeypatch, capsys):
    # the encadrement suite and its negative control share one table, and
    # ratio_comparison takes lambda once per theta for both of its t lists
    tables = []
    lambdas = []
    u_seq, lambda_theta = verify.u_seq, structures.lambda_theta

    def counting_u_seq(t, nmax):
        if isinstance(t, np.ndarray):
            tables.append(t.copy())
        return u_seq(t, nmax)

    def counting_lambda_theta(theta):
        lambdas.append(theta)
        return lambda_theta(theta)

    monkeypatch.setattr(verify, "u_seq", counting_u_seq)
    monkeypatch.setattr(verify, "lambda_theta", counting_lambda_theta)
    monkeypatch.setattr(structures, "lambda_theta", counting_lambda_theta)
    verify._encadrement_grid.cache_clear()
    assert cli.main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert len(tables) == 2
    assert len(lambdas) == verify._RATIO_THETAS
    # the ratio t are bitwise trace_modulus(N, theta), then N - lambda_theta(theta)
    thetas = [2.0 * math.pi * j / verify._RATIO_THETAS for j in range(verify._RATIO_THETAS)]
    want = [structures.trace_modulus(N, theta) for N in verify._RATIO_NS for theta in thetas]
    want += [N - lambda_theta(theta) for N in verify._RATIO_NS for theta in thetas]
    assert tables[1].tolist() == want
    # the shared arrays are read-only
    assert not any(arr.flags.writeable for arr in verify._encadrement_grid())


def test_verify_calls_q_of_on_arrays_at_most_once_per_grid_block(monkeypatch, capsys):
    # the suites hand q_of whole grid blocks, never single entries
    calls = []
    adds = []
    add = VerifyReport.add

    def counting_q_of(t):
        calls.append(t)
        return q_of(t)

    def counting_add(self, margins, detail):
        adds.append(self.inequality_id)
        add(self, margins, detail)

    monkeypatch.setattr(verify, "q_of", counting_q_of)
    monkeypatch.setattr(VerifyReport, "add", counting_add)
    assert cli.main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert 0 < len(calls) <= len(adds)
