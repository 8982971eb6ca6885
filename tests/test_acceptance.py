"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
time budget and emits one ``ACCEPTANCE <n> PASS|FAIL`` line through the
pytest terminal reporter so the gate is visible in any run log.
"""

import itertools
import math
from fractions import Fraction
from time import perf_counter

import pytest

import oracle
from pelleis import (DidNotConverge, EquationId, EvalSettings, PoleProximity,
                     Rect, ZeroArgument, cli, eval_series, pell_lucas,
                     pole_ratio, poles_in_rect, residual, tail_bound,
                     verify_identity_exact, verify_grid)
from pelleis.evaluator import MIN_TAIL_HALF_WIDTH
from pelleis.sequence import SILVER_CONJUGATE, SILVER_RATIO

WEIGHTS = (2, 3, 4, 6)
STANDARD_RECT = Rect(-3.0, 0.5, 3.0, 3.5)


@pytest.fixture
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:  # pragma: no cover - reporter always present under pytest
            print(line)
        assert ok, f"criterion {num}: {detail}"

    return emit


@pytest.fixture(scope="module")
def oracle_sweep(off_axis_points):
    """Shared sweep for criteria 2 and 3: package vs 40-digit depth-200 sums."""
    t0 = perf_counter()
    worst_rel = 0.0
    worst_case = None
    cases = 0
    tail_checks = 0
    tail_violations = []
    for z in off_axis_points:
        for m in WEIGHTS:
            levels = oracle.series_levels(z, m)
            rough = eval_series(z, m)
            tol = max(abs(rough.value), 1e-30) * 1e-12
            fine = eval_series(z, m, EvalSettings(target_tol=tol))
            rel = oracle.rel_err(fine.value, levels[-1])
            cases += 1
            if rel > worst_rel:
                worst_rel = rel
                worst_case = (z, m)
            # The bound of every window up to each stopping window.
            for level in itertools.chain(
                    range(MIN_TAIL_HALF_WIDTH, rough.terms_used + 1),
                    range(MIN_TAIL_HALF_WIDTH, fine.terms_used + 1)):
                tail_checks += 1
                bound = tail_bound(level, z, m)
                if oracle.abs_gap(levels[-1], levels[level]) > bound:
                    tail_violations.append((z, m, level))
    return {
        "elapsed": perf_counter() - t0,
        "worst_rel": worst_rel,
        "worst_case": worst_case,
        "cases": cases,
        "tail_checks": tail_checks,
        "tail_violations": tail_violations,
    }


def test_criterion_1_sequence_exactness(capsys, report):
    t0 = perf_counter()
    code = cli.run(["seq", "--from", "-10", "--to", "10"])
    elapsed = perf_counter() - t0
    out = capsys.readouterr().out

    lines = out.strip().split("\n")
    values = {}
    for line in lines[1:]:
        n, q = line.split(",")
        values[int(n)] = int(q)

    ok = (code == 0 and lines[0] == "n,Q_n" and len(values) == 21
          and [values[n] for n in range(5)] == [2, 2, 6, 14, 34]
          and all(values[n + 1] == 2 * values[n] + values[n - 1]
                  for n in range(-9, 10))
          and all(values[-n] == (-1 if n % 2 else 1) * values[n]
                  for n in range(11))
          and elapsed < 0.1)
    report(1, ok, f"seq -10..10 exact recurrence+symmetry in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(oracle_sweep, report):
    s = oracle_sweep
    ok = (s["cases"] == 400 and s["worst_rel"] <= 1e-10
          and s["elapsed"] < 10.0)
    report(2, ok,
            f"{s['cases']} cases, worst rel err {s['worst_rel']:.3e} "
            f"(at {s['worst_case']}) in {s['elapsed']:.2f}s")


def test_criterion_3_tail_bound_soundness(oracle_sweep, report):
    s = oracle_sweep
    ok = s["tail_checks"] > 0 and not s["tail_violations"]
    report(3, ok,
            f"{s['tail_checks']} certified bounds vs depth-200 sums, "
            f"{len(s['tail_violations'])} violations")


def test_criterion_4_numeric_functional_equations(report):
    t0 = perf_counter()
    worst = 0.0
    worst_case = None
    clean = True
    for equation in EquationId:
        for k in (1, 2, 3, 4):
            summary = verify_grid(equation, STANDARD_RECT, 12, 12, k)
            if summary.points_failed or summary.points_skipped:
                clean = False
            if summary.max_rel_residual > worst:
                worst = summary.max_rel_residual
                worst_case = (equation.value, k, summary.worst_point)
    elapsed = perf_counter() - t0
    ok = clean and worst <= 1e-9 and elapsed < 30.0
    report(4, ok,
            f"16 grids of 144 pts, max rel residual {worst:.3e} "
            f"(at {worst_case}) in {elapsed:.2f}s")


def test_criterion_5_exact_functional_equations(report):
    t0 = perf_counter()
    ok = True
    detail = []
    for half_width, k in itertools.product((2, 3, 4), (1, 2)):
        for equation in EquationId:
            outcome = verify_identity_exact(equation, half_width, k)
            if equation is EquationId.REFLECTION:
                good = outcome.residual.is_zero and not outcome.boundary_terms
            else:
                good = (outcome.defect.is_zero
                        and len(outcome.boundary_terms) == 2
                        and not outcome.residual.is_zero)
            if not good:
                ok = False
                detail.append((equation.value, half_width, k))
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 20.0
    report(5, ok,
            f"24 window identities coefficient-exact in {elapsed:.2f}s"
            + (f"; failing: {detail}" if detail else ""))


def test_criterion_6_pole_geometry(report):
    t0 = perf_counter()
    poles = poles_in_rect(Rect(-2.0, -0.5, 3.5, 0.5), j_cap=60)
    defining = all(
        pell_lucas(p.index) * p.location + pell_lucas(p.index - 1) == 0
        for p in poles
    )
    complete = len(poles) == 121

    monotone = all(
        oracle.closer_to_sqrt2(oracle.dist_offset(pole_ratio(j + 1), False),
                               oracle.dist_offset(pole_ratio(j), False))
        for j in range(2, 60)
    ) and all(
        oracle.closer_to_sqrt2(oracle.dist_offset(pole_ratio(-j - 1), True),
                               oracle.dist_offset(pole_ratio(-j), True))
        for j in range(1, 60)
    )

    def within_sqrt2(a: Fraction, tol: Fraction) -> bool:
        return (a - tol) ** 2 < 2 < (a + tol) ** 2

    tol = Fraction(1, 10 ** 12)
    converged = (
        within_sqrt2(oracle.dist_offset(pole_ratio(40), False), tol)
        and within_sqrt2(oracle.dist_offset(pole_ratio(-40), True), tol)
    )
    elapsed = perf_counter() - t0
    ok = defining and complete and monotone and converged and elapsed < 1.0
    report(6, ok,
            f"121 poles exact, distances strictly decreasing to the limits, "
            f"within 1e-12 by |j|=40, in {elapsed:.3f}s")


def test_criterion_7_degenerate_handling(report):
    t0 = perf_counter()
    outcomes = []
    for x in (1.0, -1.0):
        try:
            eval_series(complex(x, 0.0), 2)
            outcomes.append(False)
        except PoleProximity:
            outcomes.append(True)
    for x in (SILVER_CONJUGATE, SILVER_RATIO):
        try:
            eval_series(complex(x, 0.0), 2)
            outcomes.append(False)
        except DidNotConverge as exc:
            outcomes.append(exc.tail_bound == math.inf)
    for equation in (EquationId.SHIFT, EquationId.NEGATION):
        try:
            residual(equation, 0j, 1)
            outcomes.append(False)
        except ZeroArgument:
            outcomes.append(True)
    elapsed = perf_counter() - t0
    ok = all(outcomes) and elapsed < 1.0
    report(7, ok,
            f"poles -> PoleProximity, limits -> DidNotConverge(inf), "
            f"z=0 -> ZeroArgument, in {elapsed:.3f}s")


def test_criterion_8_grid_determinism(capsys, report):
    args = ["grid", "--rect", "-3,0.5,3,3.5", "--nx", "50", "--ny", "50",
            "--weight", "4"]
    t0 = perf_counter()
    code1 = cli.run(list(args))
    out1 = capsys.readouterr().out
    code2 = cli.run(list(args))
    out2 = capsys.readouterr().out
    elapsed = perf_counter() - t0
    rows = out1.strip().split("\n")
    ok = (code1 == code2 == 0 and out1 == out2 and len(rows) == 2501
          and all(r.endswith(",ok") for r in rows[1:])
          and elapsed < 5.0)
    report(8, ok,
            f"two 50x50 weight-4 grid runs byte-identical "
            f"({len(out1)} bytes) in {elapsed:.2f}s total")
