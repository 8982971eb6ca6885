"""Numeric functional-equation residuals on points and grids."""

import math
import random
import sys

import pytest

from pelleis import (DidNotConverge, EmptyGrid, EquationId, GridSummary, PelleisError, PoleProximity, Rect,
                     ZeroArgument, classify, eval_series, evaluator,
                     residual, term_value, verify, verify_grid)
from pelleis.sequence import SILVER_CONJUGATE, SILVER_RATIO, float_pole
from pelleis.verify import ResidualReport, _arguments, _pow_int

ALL_EQUATIONS = list(EquationId)


def test_reflection_residual_tiny():
    report = residual(EquationId.REFLECTION, 1 + 1j, 1)
    assert report.rel_residual <= 1e-10
    assert report.k == 1
    assert report.lhs_tail <= 4e-12 * max(abs(report.lhs), 1.0)


def test_inversion_residual_generic_point():
    report = residual(EquationId.INVERSION, 1.3 + 0.9j, 2)
    assert report.rel_residual <= 1e-10
    assert report.abs_residual <= report.lhs_tail + report.rhs_tail + 1e-13


def test_inversion_residual_at_i():
    # z = i maps to itself under -1/z while the prefactor is i^2 = -1, so
    # the weight-2 value is forced to vanish; both sides collapse to ~0 and
    # the residual is bounded by the certified tails.
    report = residual(EquationId.INVERSION, 1j, 1)
    assert abs(report.lhs) <= report.lhs_tail + 1e-13
    assert report.abs_residual <= report.lhs_tail + report.rhs_tail + 1e-13
    assert report.rel_residual <= 1e-10


@pytest.mark.parametrize("equation", ALL_EQUATIONS)
@pytest.mark.parametrize("k", [1, 2])
def test_residuals_small_on_sample(equation, k, off_axis_points):
    for z in off_axis_points[:6]:
        report = residual(equation, z, k)
        assert report.rel_residual <= 1e-9, (equation, k, z)


def test_shift_negation_left_sides_agree():
    # S(z+2) and S(-z) both equal z^(-2k) S(1/z), hence each other.
    z = 0.7 + 1.3j
    shift = residual(EquationId.SHIFT, z, 1)
    negation = residual(EquationId.NEGATION, z, 1)
    scale = max(abs(shift.lhs), abs(negation.lhs))
    tol = shift.lhs_tail + negation.lhs_tail + 1e-11 * scale
    assert abs(shift.lhs - negation.lhs) <= tol
    assert shift.rhs == negation.rhs  # identical right sides, same tolerance


def test_reflection_applied_twice_swaps_sides():
    z = 0.4 + 1.7j
    first = residual(EquationId.REFLECTION, z, 1)
    second = residual(EquationId.REFLECTION, 2 - z, 1)
    assert abs(first.lhs - second.rhs) <= 1e-9 * abs(first.lhs)
    assert abs(first.rhs - second.lhs) <= 1e-9 * abs(first.rhs)


@pytest.mark.parametrize("equation", [EquationId.INVERSION, EquationId.SHIFT,
                                      EquationId.NEGATION])
def test_zero_argument_rejected(equation):
    # 1/z and -1/z also leave double range below |z| ~ 5.6e-309.
    for z in (0j, complex(5e-309, 0.0), complex(-1e-310, 2e-310)):
        with pytest.raises(ZeroArgument):
            residual(equation, z, 1)


def test_reflection_defined_at_zero():
    report = residual(EquationId.REFLECTION, 0j, 1)
    assert report.rel_residual <= 1e-10


def test_k_validation():
    with pytest.raises(ValueError):
        residual(EquationId.REFLECTION, 1j, 0)
    with pytest.raises(ValueError):
        residual(EquationId.REFLECTION, 1j, 9)
    with pytest.raises(ValueError):
        residual(EquationId.REFLECTION, 1j, True)
    # A k too long to print is shown by its size.
    with pytest.raises(ValueError,
                       match=r"^k must be at most 8, got <int of \d+ bits>$"):
        residual(EquationId.SHIFT, 1j, 10 ** 5000)
    with pytest.raises(ValueError):
        verify_grid(EquationId.REFLECTION, Rect(0, 0, 1, 1), 2, 2, 0)
    # The equation and region are typed too: a value string or a corner
    # tuple raised an AttributeError.
    region = Rect(0.5, 0.5, 1, 1)
    for equation in ("shift", None):
        with pytest.raises(ValueError,
                           match="^equation must be of type EquationId, got"):
            residual(equation, 1j, 1)
        with pytest.raises(ValueError,
                           match="^equation must be of type EquationId, got"):
            verify_grid(equation, region, 2, 2, 1)
    for bad in (None, (0.5, 0.5, 1, 1)):
        with pytest.raises(ValueError, match="^region must be of type Rect"):
            verify_grid(EquationId.SHIFT, bad, 2, 2, 1)


def test_failure_reports_which_side():
    # The shift argument z+2 lands ~3e-8 from the lower limit (converges,
    # barely), while 1/z lands ~5e-9 from it (inside the guard): the error
    # must point at the right-hand evaluation.
    z = complex(-SILVER_RATIO + 3e-8, 0.0)
    with pytest.raises(DidNotConverge) as info:
        residual(EquationId.SHIFT, z, 1)
    assert info.value.side == "rhs"
    assert str(info.value).endswith(" [rhs]")


def test_failure_reports_left_side():
    z = complex(-(SILVER_CONJUGATE + 5e-9), 0.0)
    with pytest.raises(DidNotConverge) as info:
        residual(EquationId.NEGATION, z, 1)
    assert info.value.side == "lhs"
    assert str(info.value).endswith(" [lhs]")


def test_pole_failure_message_carries_side_tag():
    # z = 1 is the pole p_0 of the left argument 2 - z = 1.
    with pytest.raises(PoleProximity) as info:
        residual(EquationId.REFLECTION, 1 + 0j, 1)
    assert info.value.side == "lhs"
    assert str(info.value) == "term j=0 is singular near z=(1+0j) [lhs]"


def test_overflowing_prefactor_fails_on_right_side():
    # z^16 overflows at |z| ~ 2e30: a typed failure, not a NaN right side.
    with pytest.raises(DidNotConverge) as info:
        residual(EquationId.INVERSION, complex(1.5e30, 1.5e30), 8)
    assert info.value.side == "rhs"
    assert info.value.tail_bound == math.inf


def test_untagged_failure_message():
    assert str(PoleProximity(3, 2j)) == "term j=3 is singular near z=2j"
    exc = DidNotConverge(200, 1e-3, point=1j)
    assert str(exc) == ("tail bound 0.001 above tolerance at half-width 200 "
                        "for z=1j")
    exc.side = "lhs"
    assert str(exc).endswith("for z=1j [lhs]")


def restart_residual(equation, z, k,
                     target_tol=evaluator.DEFAULT_TARGET_TOL):
    """Reference: residual with every refinement round re-evaluating both
    sides from j = 0 through eval_series.  Returns (report, rounds)."""
    z = complex(z)
    m = 2 * k
    lhs_z, rhs_z = _arguments(equation, z)
    sign = equation.row[2]
    prefactor = (1.0 + 0.0j if sign == 0
                 else _pow_int(z if sign > 0 else 1 / z, m))
    pref_mag = abs(prefactor)
    lhs_tight = rhs_tight = target_tol
    for rounds in range(1, 4):
        try:
            left = eval_series(lhs_z, m, lhs_tight)
        except PelleisError as exc:
            exc.side = "lhs"
            raise
        try:
            right = eval_series(rhs_z, m, rhs_tight)
        except PelleisError as exc:
            exc.side = "rhs"
            raise
        rhs = prefactor * right.value
        rhs_tail = pref_mag * right.tail_bound
        scale = max(abs(left.value), abs(rhs))
        if (scale < 1e-250
                or left.tail_bound + rhs_tail <= 4.0 * scale * target_tol):
            break
        lhs_tol = max(scale * target_tol, 1e-250)
        rhs_tol = max(scale * target_tol / max(pref_mag, 1e-300), 1e-250)
        if lhs_tol >= lhs_tight and rhs_tol >= rhs_tight:
            break
        lhs_tight = min(lhs_tol, lhs_tight)
        rhs_tight = min(rhs_tol, rhs_tight)
    abs_res = abs(left.value - rhs)
    report = ResidualReport(
        point=z, k=k, lhs=left.value, rhs=rhs, abs_residual=abs_res,
        rel_residual=abs_res / max(abs(left.value), abs(rhs), 1e-300),
        lhs_tail=left.tail_bound, rhs_tail=rhs_tail)
    return report, rounds


def _residual_cases(equation, seed):
    """Off-axis points, points 1e-9 to 1e-2 from poles of either argument,
    and tolerances from 1e-6 down to 1e-100; and points next to i, where
    S_m vanishes for odd k, so that the first refinement can shrink the
    scale enough for a second."""
    rng = random.Random(seed)
    cases = []
    for _ in range(80):
        kind = rng.randrange(4)
        if kind == 3:
            z = 1j + 10.0 ** rng.uniform(-14, -8) * complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1))
            cases.append((z, 10.0 ** -rng.uniform(6, 12)))
            continue
        if kind == 0:
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3))
        else:
            p = float_pole(rng.randint(-5, 5))
            if kind == 2:   # a pole of the left argument instead
                p = {EquationId.INVERSION: -1 / p if p else 7.0,
                     EquationId.REFLECTION: 2 - p,
                     EquationId.SHIFT: p - 2,
                     EquationId.NEGATION: -p}[equation]
            r = 10.0 ** rng.uniform(-9, -2)
            angle = rng.choice((0.0, math.pi / 2, rng.uniform(0, 2 * math.pi)))
            z = complex(p + r * math.cos(angle), r * math.sin(angle))
        tol = 10.0 ** -rng.uniform(6, 100)
        cases.append((z, tol))
    return cases


def _residual_outcome(fn):
    try:
        return fn()
    except PelleisError as exc:
        return type(exc), str(exc), exc.side


@pytest.mark.parametrize("equation", ALL_EQUATIONS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_residual_equals_restart_reference(equation, k):
    rounds_seen = set()
    for z, tol in _residual_cases(equation, seed=k * 101):
        got = _residual_outcome(lambda: residual(equation, z, k, tol))
        want = _residual_outcome(
            lambda: restart_residual(equation, z, k, tol))
        if isinstance(want, tuple) and isinstance(want[0], ResidualReport):
            want, rounds = want
            rounds_seen.add(rounds)
        assert got == want, (z, tol)
    assert rounds_seen >= ({1, 2, 3} if k % 2 else {1, 2})


@pytest.mark.parametrize("equation", ALL_EQUATIONS)
def test_residual_sides_equal_fresh_evaluations(monkeypatch, equation):
    # Each side's value and tail are those of a fresh eval_series at the
    # final tolerance of that side, the tightest it was extended to (a
    # looser one leaves the series as it is), bit for bit.
    extends = []
    extend = evaluator._Series.extend

    def recording_extend(series, target_tol):
        extends.append((series, target_tol))
        return extend(series, target_tol)

    monkeypatch.setattr(evaluator._Series, "extend", recording_extend)
    k, refined = 3, 0
    for z, tol in _residual_cases(equation, seed=17):
        extends.clear()
        try:
            report = residual(equation, z, k, tol)
        except PelleisError:
            continue
        final = {}
        for series, tight in extends:
            if series not in final or tight < final[series]:
                final[series] = tight
        (lhs_series, lhs_tol), (rhs_series, rhs_tol) = final.items()
        refined += len(extends) > 2
        left = eval_series(lhs_series.z, 2 * k, lhs_tol)
        right = eval_series(rhs_series.z, 2 * k, rhs_tol)
        sign = equation.row[2]
        prefactor = (1.0 + 0.0j if sign == 0
                     else _pow_int(z if sign > 0 else 1 / z, 2 * k))
        assert (lhs_series.z, rhs_series.z) == _arguments(equation, z)
        assert repr((report.lhs, report.lhs_tail, report.rhs,
                     report.rhs_tail)) == repr((
                         left.value, left.tail_bound, prefactor * right.value,
                         abs(prefactor) * right.tail_bound)), (z, tol)
    assert refined > 10


def test_residuals_build_no_eval_result(monkeypatch):
    # Refinement reads values, bounds and windows off the series; only
    # eval_series builds an EvalResult.
    built = []

    class CountingResult(evaluator.EvalResult):
        def __new__(cls, *args, **kwargs):
            built.append(args or kwargs)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(evaluator, "EvalResult", CountingResult)
    assert isinstance(eval_series(1 + 1j, 2), CountingResult)
    assert len(built) == 1
    built.clear()
    for equation in ALL_EQUATIONS:
        for z, tol in _residual_cases(equation, seed=5)[:20]:
            _residual_outcome(lambda: residual(equation, z, 2, tol))
        summary = verify_grid(equation, Rect(-3, -0.5, 3, 3.5), 6, 6, 2)
        assert summary.points_tested
    assert built == []


# ------------------------------------------------------------------- grids

def test_verify_grid_standard_patch():
    summary = verify_grid(EquationId.REFLECTION, Rect(-3, 0.5, 3, 3.5),
                          4, 4, 1)
    assert summary.points_tested == 16
    assert summary.points_skipped == 0
    assert summary.points_failed == 0
    assert summary.max_rel_residual <= 1e-9
    assert summary.worst_point is not None
    assert len(summary.reports) == 16
    worst = max(r.rel_residual for r in summary.reports)
    assert summary.max_rel_residual == worst


def _preimage(equation, side, w):
    """The z whose left (side 0) or right (side 1) argument is w."""
    a, b, c, d = equation.row[side]
    return (d * w - b) / (a - c * w)


def _grid_cases(equation, k, seed):
    """Seeded (region, target_tol) of four kinds: a wide rectangle, a thin
    one across the real axis around the preimage of a pole p_j, a square
    around the preimage of 1 -/+ sqrt(2), under the left or the right
    argument map, and a square across the circle where the prefactor
    z^(+-2k) leaves double range.  Tolerances reach 1e-14, so points are
    refined, skipped and failed."""
    rng = random.Random(seed)
    cases = []
    for kind in ("wide", "axis", "accum"):
        side = rng.randrange(2)
        if kind == "wide":
            w, h = rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0)
            x0, y0 = rng.uniform(-3.0, 3.0 - w), rng.uniform(-0.5, 3.5 - h)
            region = Rect(x0, y0, x0 + w, y0 + h)
        elif kind == "axis":
            w, h = 10.0 ** rng.uniform(-5.3, -4.3), 10.0 ** rng.uniform(-7, -5)
            p = _preimage(equation, side, float_pole(rng.randint(-3, 3)))
            cx = p + rng.uniform(-0.5, 0.5) * w
            region = Rect(cx - w / 2, -h / 2, cx + w / 2, h / 2)
        else:
            s = 10.0 ** rng.uniform(-2.7, -2.2)
            limit = rng.choice((SILVER_CONJUGATE, SILVER_RATIO))
            cx = _preimage(equation, side, limit) + rng.uniform(-0.5, 0.5) * s
            cy = rng.uniform(-0.5, 0.5) * s
            region = Rect(cx - s, cy - s, cx + s, cy + s)
        cases.append((region, 10.0 ** -rng.uniform(6, 14)))
    edge = sys.float_info.max ** (1 / (2 * k))
    if equation.row[2] < 0:    # the prefactor is (1/z)^(2k)
        edge = 1 / edge
    angle = rng.uniform(0, math.pi / 2)
    cx, cy, s = (edge * math.cos(angle), edge * math.sin(angle), 0.3 * edge)
    cases.append((Rect(cx - s, cy - s, cx + s, cy + s),
                  10.0 ** -rng.uniform(6, 14)))
    return cases


def _grid_outcome(equation, region, k, tol):
    """(report fields as reprs, failures, skipped) of verify_grid on a 7x5
    grid, or EmptyGrid."""
    try:
        summary = verify_grid(equation, region, 7, 5, k, tol)
    except EmptyGrid:
        return EmptyGrid
    return ([[repr(f) for f in r] for r in summary.reports],
            [(z, (type(exc), str(exc), exc.side))
             for z, exc in summary.failures],
            summary.points_skipped)


def _point_by_point(equation, region, k, tol):
    """_grid_outcome rebuilt from one public residual call per point."""
    reports, failures, skipped = [], [], 0
    for z in region.cell_centers(7, 5):
        try:
            lhs_z, rhs_z = _arguments(equation, z)
        except ZeroArgument:
            skipped += 1
            continue
        if not (classify(lhs_z).is_regular and classify(rhs_z).is_regular):
            skipped += 1
            continue
        outcome = _residual_outcome(lambda: residual(equation, z, k, tol))
        if isinstance(outcome, ResidualReport):
            reports.append([repr(f) for f in outcome])
        else:
            failures.append((z, outcome))
    if not (reports or failures):
        return EmptyGrid
    return reports, failures, skipped


@pytest.mark.parametrize("equation", ALL_EQUATIONS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_grid_equals_residual_point_by_point(equation, k):
    # verify_grid maps each point once and calls residual's core; every
    # report field, failure and skip is what the public residual gives.
    for region, tol in _grid_cases(equation, k, seed=k * 11):
        assert (_grid_outcome(equation, region, k, tol)
                == _point_by_point(equation, region, k, tol)), (
                    region, tol)


def test_grid_cases_test_skip_and_fail_points():
    # The cases above test points, skip some, fail some, and leave some
    # grids with no testable point.  A grid point fails on its right side
    # alone, where the prefactor leaves double range: classify keeps each
    # argument 1e-6 from every pole and 1e-3 from 1 -/+ sqrt(2), where no
    # term of weight 2k <= 16 overflows and every window search ends at its
    # floor.  residual fails on the left side at points that classify
    # does not pass (test_failure_reports_left_side and
    # test_pole_failure_message_carries_side_tag).
    tested = skipped = empty = 0
    sides = set()
    for equation in ALL_EQUATIONS:
        for k in (1, 2, 3):
            for region, tol in _grid_cases(equation, k, seed=k * 11):
                got = _grid_outcome(equation, region, k, tol)
                if got is EmptyGrid:
                    empty += 1
                    continue
                tested += len(got[0])
                sides.update(outcome[2] for _, outcome in got[1])
                skipped += got[2]
    assert tested > 500 and skipped > 50 and empty > 0
    assert sides == {"rhs"}


def test_verify_grid_maps_each_point_once(monkeypatch):
    # The grid neither calls the public residual nor maps a point twice,
    # and classifies each side of a point at most once.
    regions = (Rect(-3, 0.5, 3, 3.5), Rect(-1, -1, 1, 1))
    tol = evaluator.DEFAULT_TARGET_TOL
    want = {(equation, region): _grid_outcome(equation, region, 2, tol)
            for equation in ALL_EQUATIONS for region in regions}
    mapped, classified = [], []
    arguments, classify_ = verify._arguments, verify.classify

    def counting_arguments(equation, z):
        mapped.append(z)
        return arguments(equation, z)

    def counting_classify(z):
        classified.append(z)
        return classify_(z)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_grid called the public residual")

    monkeypatch.setattr(verify, "_arguments", counting_arguments)
    monkeypatch.setattr(verify, "classify", counting_classify)
    monkeypatch.setattr(verify, "residual", refuse)
    for (equation, region), outcome in want.items():
        mapped.clear()
        classified.clear()
        assert _grid_outcome(equation, region, 2, tol) == outcome
        assert mapped == list(region.cell_centers(7, 5))
        assert len(classified) <= 2 * len(mapped)


def test_grid_summary_derives_counts_and_worst_point():
    def report(z, rel):
        return ResidualReport(z, 1, 0j, 0j, 0.0, rel, 0.0, 0.0)

    summary = GridSummary(EquationId.SHIFT, 1, [], [], 3)
    assert (summary.points_tested, summary.points_failed,
            summary.max_rel_residual, summary.worst_point) == (0, 0, 0.0, None)
    summary.reports.append(report(1j, 0.0))
    assert summary.worst_point is None  # no residual above 0
    summary.reports.extend([report(2j, 1e-16), report(3j, 2e-16),
                            report(4j, 2e-16), report(5j, 0.0)])
    summary.failures.append((6j, DidNotConverge(4, 1.0)))
    # The first of two equal worst points wins.
    assert (summary.points_tested, summary.points_skipped,
            summary.points_failed, summary.max_rel_residual,
            summary.worst_point) == (5, 3, 1, 2e-16, 3j)
    with pytest.raises(AttributeError):
        summary.points_tested = 0


def test_grid_summary_is_a_named_tuple():
    reports = [ResidualReport(1j, 1, 0j, 0j, 0.0, 1e-16, 0.0, 0.0)]
    failures = [(2j, DidNotConverge(4, 1.0))]
    summary = GridSummary(EquationId.SHIFT, 1, reports, failures, 3)
    assert GridSummary._fields == ("equation", "k", "reports", "failures",
                                   "points_skipped")
    assert summary == (EquationId.SHIFT, 1, reports, failures, 3)
    assert summary == GridSummary(EquationId.SHIFT, 1, list(reports),
                                  list(failures), 3)
    assert summary != summary._replace(points_skipped=4)
    changed = summary._replace(points_skipped=0)
    assert (changed.reports, changed.failures) == (reports, failures)
    assert (changed.points_skipped, summary.points_skipped) == (0, 3)
    for name in ("points_tested", "points_failed", "max_rel_residual",
                 "worst_point", *GridSummary._fields):
        with pytest.raises(AttributeError):
            setattr(summary, name, 0)
    assert (summary.points_tested, summary.points_failed,
            summary.max_rel_residual, summary.worst_point) == (1, 1, 1e-16,
                                                               1j)


def test_verify_grid_returns_the_summary_it_built():
    # 7 x 3 cells: z = 0 is skipped, the points where z^2 leaves double
    # range fail, and the others are tested.
    nx, ny = 7, 3
    summary = verify_grid(EquationId.INVERSION,
                          Rect(-3e154, -1e154, 3e154, 1e154), nx, ny, 1)
    assert type(summary) is GridSummary and isinstance(summary, tuple)
    assert summary[:2] == (EquationId.INVERSION, 1)
    tested, failed = summary.points_tested, summary.points_failed
    assert tested and failed and summary.points_skipped
    assert summary.points_skipped == nx * ny - tested - failed


def test_verify_grid_skips_preconditions():
    # Centers at z = 0, 1, 2: the first two violate preconditions of the
    # inversion (zero argument / pole image); only z = 2 is testable.
    summary = verify_grid(EquationId.INVERSION, Rect(-0.5, -0.5, 2.5, 0.5),
                          3, 1, 1)
    assert summary.points_tested == 1
    assert summary.points_skipped == 2
    assert summary.points_failed == 0
    assert summary.reports[0].point == 2 + 0j


def test_verify_grid_empty_raises():
    with pytest.raises(EmptyGrid):
        verify_grid(EquationId.REFLECTION, Rect(0.5, -0.5, 1.5, 0.5), 1, 1, 1)


def test_verify_grid_records_failures():
    # The prefactor z^2 leaves double range at the far point, not at the
    # near one: one tested, one failed on its right side.
    summary = verify_grid(EquationId.INVERSION, Rect(0, 1, 4e154, 2), 2, 1,
                          1)
    assert summary.points_tested == 1
    assert summary.points_failed == 1
    (bad_point, exc), = summary.failures
    assert bad_point == complex(3e154, 1.5)
    assert isinstance(exc, DidNotConverge) and exc.side == "rhs"
    # So at 10 of the 16 points of a larger grid.
    summary = verify_grid(EquationId.INVERSION,
                          Rect(1e153, 1e153, 2e154, 2e154), 4, 4, 1)
    assert (summary.points_tested, summary.points_failed) == (6, 10)
    edge = math.sqrt(sys.float_info.max)
    assert all(isinstance(exc, DidNotConverge) and exc.side == "rhs"
               and abs(z) > edge for z, exc in summary.failures)
    assert all(abs(r.point) < edge for r in summary.reports)


def test_verify_grid_all_failed_is_not_empty():
    # The one regular point fails, as the shift's prefactor z^-2 leaves
    # double range; it is reported, not lost to EmptyGrid.
    summary = verify_grid(EquationId.SHIFT, Rect(0, 0, 2e-160, 2e-160), 1, 1,
                          1)
    assert (summary.points_tested, summary.points_skipped,
            summary.points_failed) == (0, 0, 1)
    (point, exc), = summary.failures
    assert point == complex(1e-160, 1e-160)
    assert isinstance(exc, DidNotConverge)


def test_one_point_check_for_eval_classify_and_residual():
    # A non-finite point or a non-number raises the same ValueError in
    # each, not ZeroArgument from the equation's argument map or a
    # TypeError from complex().  Text is no number, though complex()
    # parses it.
    calls = (lambda z: eval_series(z, 2), classify,
             lambda z: term_value(0, z, 2),
             lambda z: residual(EquationId.REFLECTION, z, 1),
             lambda z: residual(EquationId.INVERSION, z, 1),
             lambda z: residual(EquationId.SHIFT, z, 1))
    for z in (math.nan, math.inf, -math.inf, complex(1, math.nan),
              complex(0, math.inf)):
        for call in calls:
            with pytest.raises(ValueError, match="^point must be finite"):
                call(z)
    for z in (None, object(), [1], "1+1j", "0.5"):
        for call in calls:
            with pytest.raises(ValueError, match="^point must be a number"):
                call(z)


def test_points_and_arguments_beyond_double_range_are_refused():
    # Finite parts whose modulus leaves double range: abs() raises
    # OverflowError there, which each call turns into a typed refusal.
    huge = 1.5e308 + 1.5e308j
    for call in (lambda z: eval_series(z, 2), classify,
                 lambda z: residual(EquationId.REFLECTION, z, 1),
                 lambda z: residual(EquationId.INVERSION, z, 1)):
        with pytest.raises(ValueError, match="^point must be finite, got "):
            call(huge)
    # 1/z at z = 3.3e-309 (1 + i) has such a modulus: the equations that
    # need it are undefined there, and a grid skips the point.
    tiny = 3.3e-309 + 3.3e-309j
    for eq in (EquationId.INVERSION, EquationId.SHIFT, EquationId.NEGATION):
        with pytest.raises(ZeroArgument, match="argument overflows"):
            residual(eq, tiny, 1)
        with pytest.raises(EmptyGrid):
            verify_grid(eq, Rect(0, 0, 6.6e-309, 6.6e-309), 1, 1, 1)
    # z^16 with parts near 1.5e308 each: the prefactor's modulus leaves
    # double range, a right-side DidNotConverge as when its parts do.
    z = complex(1.861613197024165e+19, 9.145519185906381e+17)
    with pytest.raises(DidNotConverge) as info:
        residual(EquationId.INVERSION, z, 8)
    assert info.value.side == "rhs" and info.value.tail_bound == math.inf
