"""Numeric functional-equation residuals on points and grids."""

import math
import random

import pytest

from pelleis import (DidNotConverge, EmptyGrid, EquationId, EvalSettings,
                     GridSummary, PelleisError, PoleProximity, Rect,
                     ZeroArgument, classify, eval_series, residual,
                     term_value, verify_grid)
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
    assert shift.rhs == negation.rhs  # identical right sides, same settings


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


def restart_residual(equation, z, k, settings=None):
    """Reference: residual with every refinement round re-evaluating both
    sides from j = 0 through eval_series.  Returns (report, rounds)."""
    z = complex(z)
    m = 2 * k
    lhs_z, rhs_z = _arguments(equation, z)
    base = settings or EvalSettings()
    sign = equation.row[2]
    prefactor = (1.0 + 0.0j if sign == 0
                 else _pow_int(z if sign > 0 else 1 / z, m))
    pref_mag = abs(prefactor)
    lhs_settings = rhs_settings = base
    for rounds in range(1, 4):
        try:
            left = eval_series(lhs_z, m, lhs_settings)
        except PelleisError as exc:
            exc.side = "lhs"
            raise
        try:
            right = eval_series(rhs_z, m, rhs_settings)
        except PelleisError as exc:
            exc.side = "rhs"
            raise
        rhs = prefactor * right.value
        rhs_tail = pref_mag * right.tail_bound
        scale = max(abs(left.value), abs(rhs))
        if (scale < 1e-250
                or left.tail_bound + rhs_tail <= 4.0 * scale * base.target_tol):
            break
        lhs_tol = max(scale * base.target_tol, 1e-250)
        rhs_tol = max(scale * base.target_tol / max(pref_mag, 1e-300), 1e-250)
        if (lhs_tol >= lhs_settings.target_tol
                and rhs_tol >= rhs_settings.target_tol):
            break
        lhs_settings = EvalSettings(min(lhs_tol, lhs_settings.target_tol),
                                    base.max_half_width)
        rhs_settings = EvalSettings(min(rhs_tol, rhs_settings.target_tol),
                                    base.max_half_width)
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
            cases.append((z, EvalSettings(target_tol=10.0 ** -rng.uniform(
                6, 12))))
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
        cases.append((z, EvalSettings(target_tol=tol,
                                      max_half_width=rng.choice((200, 60)))))
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
    for z, settings in _residual_cases(equation, seed=k * 101):
        got = _residual_outcome(lambda: residual(equation, z, k, settings))
        want = _residual_outcome(
            lambda: restart_residual(equation, z, k, settings))
        if isinstance(want, tuple) and isinstance(want[0], ResidualReport):
            want, rounds = want
            rounds_seen.add(rounds)
        assert got == want, (z, settings)
    assert rounds_seen >= ({1, 2, 3} if k % 2 else {1, 2})


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


def test_grid_summary_derives_counts_and_worst_point():
    def report(z, rel):
        return ResidualReport(z, 1, 0j, 0j, 0.0, rel, 0.0, 0.0)

    summary = GridSummary(EquationId.SHIFT, 1, points_skipped=3)
    assert (summary.points_tested, summary.points_failed,
            summary.max_rel_residual, summary.worst_point) == (0, 0, 0.0, None)
    summary.reports.append(report(1j, 0.0))
    assert summary.worst_point is None  # no residual above 0
    summary.reports += [report(2j, 1e-16), report(3j, 2e-16),
                        report(4j, 2e-16), report(5j, 0.0)]
    summary.failures.append((6j, DidNotConverge(4, 1.0)))
    # The first of two equal worst points wins.
    assert (summary.points_tested, summary.points_skipped,
            summary.points_failed, summary.max_rel_residual,
            summary.worst_point) == (5, 3, 1, 2e-16, 3j)
    with pytest.raises(AttributeError):
        summary.points_tested = 0


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
    # With the window capped at 4 levels, the point near the lower limit
    # cannot certify 1e-3 while the far point can: one tested, one failed.
    settings = EvalSettings(target_tol=1e-3, max_half_width=4)
    summary = verify_grid(EquationId.REFLECTION,
                          Rect(-2.025, 0.06, 4.675, 0.56), 2, 1, 1,
                          settings=settings)
    assert summary.points_tested == 1
    assert summary.points_failed == 1
    (bad_point, exc), = summary.failures
    assert abs(bad_point - complex(-0.35, 0.31)) < 1e-12
    assert isinstance(exc, DidNotConverge)


def test_verify_grid_all_failed_is_not_empty():
    # The one regular point fails; it is reported, not lost to EmptyGrid.
    summary = verify_grid(EquationId.REFLECTION, Rect(-3, 0.5, 3, 3.5), 1, 1,
                          1, settings=EvalSettings(target_tol=3e-300))
    assert (summary.points_tested, summary.points_skipped,
            summary.points_failed) == (0, 0, 1)
    (point, exc), = summary.failures
    assert point == 2j
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
