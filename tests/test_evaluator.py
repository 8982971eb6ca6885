"""Certified series evaluation: term values, tail bounds, adaptive summation."""

import cmath
import enum
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from pelleis import evaluator, sequence
from pelleis import (DidNotConverge, EquationId, EvalSettings,
                     IndexCapExceeded, InvalidRegion, PoleProximity, Rect,
                     classify, eval_grid, eval_series, pell_lucas, pole_ratio,
                     residual, tail_bound, term_value, verify_grid)
from pelleis.evaluator import MAX_WEIGHT, MIN_TAIL_HALF_WIDTH
from pelleis.sequence import (INDEX_CAP, LAST_LEVEL, POLE_GUARD,
                              SILVER_CONJUGATE, SILVER_RATIO, float_pole,
                              float_row)

# Reference values from the 40-digit depth-200 oracle (tests/oracle.py),
# frozen as shortest strings that round to the same doubles.
FROZEN = {
    ((0.0, 1.0), 4): complex(-0.030901802404911409, 0.0012382412587260283),
    ((1.0, 1.0), 2): complex(-0.18301971165353745, 0.0),
    ((2.0, 2.0), 4): complex(-0.0016318392211649403, -0.0002944701785344732),
    ((0.5, 0.5), 3): complex(0.27359383723840493, -0.27761486206493794),
    ((-1.25, 2.0), 6): complex(-0.00017949724920008926, 0.00013929245397907638),
    ((5.0, 0.0), 2): complex(0.09108863897262577, 0.0),
}

FROZEN_SPLIT_2_2I_4 = (
    complex(-0.001362932225300831, -2.9156501569877906e-05),   # j <= 0
    complex(-0.00026890699586410928, -0.00026531367696459527),  # j >= 1
)


# ------------------------------------------------------------------ terms

def test_term_value_examples():
    assert term_value(1, 1j, 2) == -0.125j       # (2i + 2)^-2 = 1/(8i)
    assert term_value(2, 0j, 2) == 0.25 + 0j     # Q_1^-2
    assert term_value(0, 5 + 0j, 2) == 0.015625 + 0j  # (10 - 2)^-2
    # A one-term sum keeps a -0.0 part: it starts at -0j, not 0j.
    assert (repr(term_value(0, complex(-5, -0.0), 3))
            == "(-0.0005787037037037037-0j)")


def test_term_value_weight_validation():
    with pytest.raises(ValueError):
        term_value(0, 1j, 1)
    with pytest.raises(ValueError):
        term_value(0, 1j, 2.0)
    with pytest.raises(ValueError):
        term_value(0, complex(math.nan, 0), 2)


def test_term_value_pole_guard():
    with pytest.raises(PoleProximity) as info:
        term_value(0, 1.0 + 0j, 2)
    assert info.value.index == 0
    with pytest.raises(PoleProximity) as info:
        term_value(1, -1.0 + 0j, 2)
    assert info.value.index == 1
    # Just outside the guard radius: finite (huge) value instead.
    v = term_value(0, 1.0 + 1e-6 + 0j, 2)
    assert math.isfinite(v.real)


def test_term_value_giant_index_underflows():
    # Q_900 exceeds double range; the term underflows to zero unless the
    # point sits on the (now indistinguishable) pole.
    assert term_value(900, 2 + 3j, 2) == 0j
    on_pole = complex(float(pole_ratio(900)), 0.0)
    with pytest.raises(PoleProximity):
        term_value(900, on_pole, 2)


def test_term_value_domain_ends_at_index_cap(monkeypatch):
    # term_value(j) stands for Q_j and Q_{j-1}, so it serves j up to
    # INDEX_CAP and down to 1 - INDEX_CAP, refusing past them as
    # pell_lucas does, and names the first index past the cap.  Past double
    # range its row reads no Q, so the ends of the domain grow no integer
    # table.  The cap is lowered to 100 for the refusals.
    z = 0.3 + 0.7j
    before = len(sequence._Q)
    assert term_value(INDEX_CAP, z, 4) == term_value(1 - INDEX_CAP, z, 4) == 0
    assert len(sequence._Q) == before
    want = {j: term_value(j, z, 4) for j in (100, -99)}
    assert all(want.values())
    monkeypatch.setattr(evaluator, "INDEX_CAP", 100)
    for j, value in want.items():
        assert term_value(j, z, 4) == value
    for j, index in ((101, 101), (-100, -101), (-150, -150)):
        with pytest.raises(IndexCapExceeded,
                           match=f"^index {index} exceeds cap 100$"):
            term_value(j, z, 4)


def test_huge_points_refused_or_underflowing():
    # abs() raises OverflowError where finite parts have a modulus beyond
    # double range.  At z itself that is the point rule's ValueError; a
    # denominator of the window or of term_value that gets there is far
    # from its pole, and the term underflows to zero, as the reference
    # computes it.
    with pytest.raises(ValueError, match="^point must be finite"):
        eval_series(1.5e308 + 1.5e308j, 2)
    # An int beyond double range raised an untyped OverflowError.
    with pytest.raises(ValueError, match="^point must be finite"):
        eval_series(10**400, 2)
    z = 2.2e307 + 2.2e307j
    w = 6 * z + 2    # the denominator of term 2
    assert math.isfinite(w.real) and math.isfinite(w.imag)
    with pytest.raises(OverflowError):
        abs(w)
    assert term_value(2, z, 2) == 0j
    zero = evaluator.EvalResult(0j, 0j, 0j, 2e-300, 2)
    assert eval_series(z, 2) == zero == eval_series(1e308 + 1e308j, 2)
    (_, cell), = eval_grid(Rect(2e307, 2e307, 2.4e307, 2.4e307), 1, 1, 2)
    assert cell == zero
    z = 0.585786437626905 + 1j
    assert term_value(805, z, 2) == 0
    assert _term_matches_reference(805, z, 2) == repr(term_value(805, z, 2))
    assert term_value(900, 1.5e308 + 1.5e308j, 2) == 0j


def test_denominators_with_two_infinite_parts_give_zero_terms():
    # Where both parts of Q_j z + Q_{j-1} overflow, 1/w is nan, yet z is far
    # from every pole.  The true term is below 1e-600 there, so it is the
    # term's zero, as where one part overflows.
    z = 1e308 + 1e308j
    for j, point in ((0, z), (3, 3e307 + 3e307j)):
        w = float(pell_lucas(j)) * point + float(pell_lucas(j - 1))
        assert math.isinf(w.real) and math.isinf(w.imag)
        assert _term_matches_reference(j, point, 2) == "0j"
    one_part = eval_series(1e308 + 1j, 2)
    assert one_part == evaluator.EvalResult(0j, 0j, 0j, 2e-300, 2)
    assert eval_series(z, 2) == one_part
    (centre, cell), = eval_grid(Rect(0.9e308, 0.9e308, 1.1e308, 1.1e308),
                                1, 1, 2)
    assert centre == z and cell == one_part
    report = residual(EquationId.SHIFT, z, 1)
    assert report.lhs == report.rhs == 0j


def test_pole_guard_cannot_fire_off_the_strip():
    # _add_terms tests |w| < POLE_GUARD |Q_j| only on the strip
    # -2 < Re z < 4, |Im z| < 2 POLE_GUARD, around the poles in [-1, 3].
    # Just off its edges (above a pole too), and far out to past double
    # range, no row up to level LAST_LEVEL meets the guard; a modulus that
    # overflows is inf.
    rng = random.Random(20261021)
    edge = 2 * POLE_GUARD
    points = [complex(-2.0, 0.0), complex(4.0, -0.0), complex(-1.0, edge),
              complex(3.0, -edge), complex(float_pole(1), edge)]
    for _ in range(60):
        y = rng.uniform(-edge, edge)
        points.append(complex(-2.0 - 10 ** rng.uniform(-15, 0), y))
        points.append(complex(4.0 + 10 ** rng.uniform(-15, 0), y))
        x = rng.choice((float_pole(rng.randint(-40, 40)), rng.uniform(-2, 4)))
        y = edge * (1.0 + rng.choice((0.0, 10 ** rng.uniform(-15, 0))))
        points.append(complex(x, rng.choice((y, -y))))
        points.append(complex(rng.choice((1, -1)) * 10 ** rng.uniform(0, 308),
                              rng.uniform(-1, 1) * 10 ** rng.uniform(-300,
                                                                     308)))
    rows = [row for level in sequence.float_table(LAST_LEVEL)
            for row in level[:2] if row is not None]
    assert len(rows) == 2 * LAST_LEVEL + 1   # term 0 twice, no row -805
    for z in points:
        assert not (-2.0 < z.real < 4.0 and -edge < z.imag < edge), z
        for q, q_prev, radius in rows:
            assert not evaluator._modulus(q * z + q_prev) < radius, (z, q)


def test_term_decay_ratio():
    # From a modest onset the term magnitudes shrink by at least ~2^m per
    # step on both sides of the window.
    z = 0.5 + 0.5j
    for m in (2, 3, 6):
        for j in list(range(12, 40)) + list(range(-39, -11)):
            step = abs(term_value(j + (1 if j > 0 else -1), z, m))
            assert step <= abs(term_value(j, z, m)) * 0.5 ** m * 1.2


def _float_q(n):
    """float(Q_n), or None where it leaves double range."""
    try:
        return float(pell_lucas(n))
    except OverflowError:
        return None


def _near(w, radius):
    """abs(w) < radius, where an abs beyond double range is not near."""
    try:
        return abs(w) < radius
    except OverflowError:
        return False


def two_float_term_value(j, z, m):
    """Reference for term_value: the same arithmetic with Q_j and Q_{j-1}
    converted from the integers per call and the guard radius computed per
    call, as before the float table."""
    evaluator._require_weight(m)
    z = evaluator._require_point(z)
    fj = _float_q(j)
    fjm1 = _float_q(j - 1)
    if fj is None or fjm1 is None:
        if _near(z - float(pole_ratio(j)), 1e-8):
            raise PoleProximity(j, z)
        return 0j
    w = fj * z + fjm1
    if _near(w, 1e-8 * abs(fj)):
        raise PoleProximity(j, z)
    r = 1.0 / w
    out = r
    for _ in range(m - 1):
        out *= r
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        if math.isfinite(w.real) and math.isfinite(w.imag):
            raise PoleProximity(j, z)
        return 0j
    return out


def _term_outcome(fn, j, z, m):
    # repr tells -0.0 from 0.0; a refusal is compared by index and point.
    try:
        return repr(fn(j, z, m))
    except PoleProximity as exc:
        return ("pole", exc.index, repr(exc.point))


def _term_matches_reference(j, z, m):
    got = _term_outcome(term_value, j, z, m)
    assert got == _term_outcome(two_float_term_value, j, z, m), (j, z, m)
    return got


def test_term_value_matches_two_float_reference_seeded():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(20000):
        kind = rng.randrange(4)
        if kind == 0:      # float(Q_j) exact, |j| < 42
            j = rng.randint(-41, 41)
        elif kind == 1:    # float(Q_j) rounded
            j = rng.choice((1, -1)) * rng.randint(42, 800)
        elif kind == 2:    # rows past double range start at |j| = 806
            j = rng.choice((1, -1)) * rng.randint(800, 812)
        else:
            j = rng.randint(-3, 3)
        r = 10 ** rng.uniform(-12, 0)
        angle = rng.choice((0.0, math.pi, rng.uniform(0, 2 * math.pi)))
        offset = complex(r * math.cos(angle), r * math.sin(angle))
        centre = rng.choice((float_pole(j), float_pole(j), SILVER_CONJUGATE,
                             SILVER_RATIO, rng.uniform(-5, 5)))
        m = rng.choice((rng.randint(2, 8), rng.randint(9, 1100), 1100))
        got = _term_matches_reference(j, centre + offset, m)
        kinds.add((kind, got[0] if isinstance(got, tuple) else
                   "zero" if got == "0j" else "value"))
    # Every kind of index gave values and refusals; the far rows gave zeros.
    assert {(k, o) for k in range(4) for o in ("pole", "value")} <= kinds
    assert (2, "zero") in kinds


@settings(max_examples=500)
@given(st.integers(-812, 812), st.sampled_from((0, 1, 2)),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-13, 0),
       st.one_of(st.integers(2, 10), st.integers(2, 1100)))
def test_term_value_matches_two_float_reference_fuzzed(j, centre, dx, dy,
                                                       scale, m):
    centre = (float_pole(j), SILVER_CONJUGATE, SILVER_RATIO)[centre]
    z = complex(centre + dx * 10.0 ** scale, dy * 10.0 ** scale)
    _term_matches_reference(j, z, m)


# ------------------------------------------------------------------ tail bound

def test_tail_bound_validation():
    with pytest.raises(ValueError):
        tail_bound(1, 3j, 2)
    with pytest.raises(ValueError):
        tail_bound(5, 3j, 1)


def test_tail_bound_half_width_validation():
    # A non-integer half_width is named, not an untyped TypeError or the
    # sequence's "index" rule.  Any integer half_width >= 2 is taken, and
    # one past the float table grows no integer table.
    for half_width in (None, "3", 2.0, True, 3.5):
        with pytest.raises(ValueError,
                           match="^half_width must be an integer"):
            tail_bound(half_width, 1j, 2)
    before = len(sequence._Q)
    limit = INDEX_CAP - 3
    for half_width in (limit + 1, limit + 2, INDEX_CAP, 10 ** 9):
        assert tail_bound(half_width, 1j, 2) == 2e-300
    assert len(sequence._Q) == before
    # The weight and the point are still checked first.
    with pytest.raises(ValueError, match="weight"):
        tail_bound(None, 1j, 1)


def test_tail_bound_sentinel_inside_hull():
    assert tail_bound(5, complex(SILVER_CONJUGATE, 0.0), 2) == math.inf
    assert tail_bound(5, complex(SILVER_RATIO, 0.0), 2) == math.inf
    assert math.isfinite(tail_bound(5, 3j, 2))


def test_tail_bound_survives_overflowing_distance_power():
    # z sits 1e-5 above p_5, which lies in the pole hulls of windows 2..4:
    # d^-64 leaves double range there, yet the bound is returned (huge,
    # not an OverflowError) and the window keeps growing past the hull.
    z = complex(float(pole_ratio(5)), 1e-5)
    for half_width in (2, 3, 4):
        assert tail_bound(half_width, z, 64) > 1e200
    assert tail_bound(5, z, 64) < tail_bound(4, z, 64)
    res = eval_series(z, 64)
    assert res.terms_used > 5
    assert math.isfinite(res.value.real) and math.isfinite(res.tail_bound)
    # Closer still, term 5 itself overflows: a typed refusal, not a crash.
    with pytest.raises(PoleProximity) as info:
        eval_series(complex(float(pole_ratio(5)), 1e-7), 64)
    assert info.value.index == 5


def test_tail_bound_rescues_overflowing_distance_power():
    # Next to the accumulation point 1 + sqrt(2) (outside the pole guard),
    # d^-64 overflows at every window, but (1/Q_J / d)^64 soon shrinks:
    # the bound is finite from J = 13 on and the series converges.
    z = SILVER_RATIO + 1e-5j
    assert math.isfinite(tail_bound(13, z, 64))
    res = eval_series(z, 64)
    assert math.isfinite(res.value.real) and math.isfinite(res.value.imag)
    assert res.tail_bound <= EvalSettings().target_tol


def test_tail_bound_survives_underflowing_q_power():
    # At J = 14, (1/Q_14)^64 underflows below the smallest normal double
    # while d^-64 stays finite; the bound must still cover the leading
    # tail term ((1/Q_14) / d)^64 * 2^-64 with d <= 1e-4, about 6e-107.
    bound = tail_bound(14, SILVER_RATIO + 1e-4j, 64)
    assert bound >= ((1 / pell_lucas(14)) / 1e-4) ** 64 * 2.0 ** -64
    assert bound < 1e-100


def test_tail_bound_survives_underflowing_halving():
    # 2^-m underflows for m > 1074; the bound must still cover the exact
    # tail, led by the j = 3 term (|14 z + 6| = 1.4, about 1.8e-161 at
    # m = 1100), instead of dropping to its 2e-300 floor.
    z = complex(-3 / 7, 0.1)
    x, y = Fraction(z.real), Fraction(z.imag)

    def abs_sq(j):  # |Q_j z + Q_{j-1}|^2, exactly
        return ((pell_lucas(j) * x + pell_lucas(j - 1)) ** 2
                + (pell_lucas(j) * y) ** 2)

    for m in (1076, 1100, 2000):
        # The exact tail as num / den over one integer denominator: summing
        # the huge Fractions themselves takes a gcd at every addition.
        num, den = 0, 1
        for j in range(-12, 13):
            if abs(j) > 2:
                term = abs_sq(j) ** (m // 2)  # the reciprocal of the term
                num = num * term.numerator + den * term.denominator
                den *= term.numerator
        bound = Fraction(tail_bound(2, z, m))
        assert bound.numerator * den >= num * bound.denominator, m


def test_tail_bound_shrinks_geometrically():
    # The computed bound never grows with the window, is inf only on a
    # prefix of windows, and above its floor falls by at least 2^m per
    # window: the facts the stopping-window search in _Series rests on.
    points = [3j, 1 + 1j, -2 + 0.5j, 0.3 - 4j]
    for j, offset in ((3, 1e-5j), (5, 1e-3), (-4, 1e-6j), (8, 1e-9 + 1e-9j),
                      (-6, -1e-7), (12, 1e-12j)):
        points.append(float(pole_ratio(j)) + offset)
    for accumulation in (SILVER_CONJUGATE, SILVER_RATIO):
        for offset in (2e-8, -1e-6, 1e-4, 3e-8 + 1e-9j, 1e-5j):
            points.append(accumulation + offset)
    for z in points:
        for m in (2, 3, 8, 64, 1100):
            bounds = [tail_bound(j, z, m)
                      for j in range(MIN_TAIL_HALF_WIDTH, 61)]
            for prev, cur in zip(bounds, bounds[1:]):
                assert cur <= prev, (z, m)
                if math.isfinite(prev) and cur > 2e-300:
                    fall = math.log(prev) - math.log(cur)
                    assert fall >= m * math.log(2) - 1e-9, (z, m)


_ADMITTED_POINTS = st.one_of(
    # 1.0000001e-8 from 1 -+ sqrt(2), just outside the pole guard
    st.builds(lambda limit, angle: limit + cmath.rect(1.0000001e-8, angle),
              st.sampled_from((SILVER_CONJUGATE, SILVER_RATIO)),
              st.floats(-math.pi, math.pi)),
    # on the real axis
    st.builds(complex, st.floats(-1e308, 1e308)),
    # anywhere, |z| up to 1e308
    st.builds(cmath.rect, st.floats(0.0, 1e308), st.floats(-math.pi, math.pi)))


@settings(max_examples=400)
@given(z=_ADMITTED_POINTS, m=st.integers(2, MAX_WEIGHT))
@example(z=complex(SILVER_RATIO + 1.0000001e-8, 0.0), m=2)
@example(z=complex(SILVER_CONJUGATE - 1.0000001e-8, 0.0), m=2)
@example(z=complex(SILVER_CONJUGATE, 1.0000001e-8), m=MAX_WEIGHT)
@example(z=complex(-1e308, 0.0), m=2)
@example(z=complex(7e307, -7e307), m=3)
@example(z=complex(0.0, 1e308), m=MAX_WEIGHT)
def test_search_ends_at_the_floor_of_the_last_window(z, m):
    # Past the float table's last level 1/Q is 0, so the bound of window
    # LAST_LEVEL + 1 is the 2e-300 floor at every point eval_series admits:
    # one more than POLE_GUARD from 1 -+ sqrt(2), whose hulls are a few
    # ulps wide there.  Every accepted tolerance is at least that floor, so
    # every window search ends by that window.
    try:
        evaluator._checked_start(z, m)
    except DidNotConverge:    # within POLE_GUARD of 1 -+ sqrt(2)
        assume(False)
    assert evaluator._LAST_WINDOW == LAST_LEVEL + 1
    assert tail_bound(LAST_LEVEL + 1, z, m) == 2e-300


def test_out_of_window_poles_inside_hull():
    # Every pole past the window edge lies between the next two poles on
    # its side; this containment is what the tail bound rests on.
    for half_width in range(2, 31):
        for sign in (1, -1):
            a = pole_ratio(sign * (half_width + 1))
            b = pole_ratio(sign * (half_width + 2))
            lo, hi = (a, b) if a <= b else (b, a)
            for j in range(half_width + 1, half_width + 40):
                p = pole_ratio(sign * j)
                assert lo <= p <= hi


def test_tail_bound_dominates_oracle_gap():
    for (x, y), m in (((1.0, 1.0), 2), ((0.5, 0.5), 3), ((2.0, 2.0), 4)):
        z = complex(x, y)
        levels = oracle.series_levels(z, m)
        for j in range(MIN_TAIL_HALF_WIDTH, 60):
            assert oracle.abs_gap(levels[-1], levels[j]) <= tail_bound(j, z, m)


# ------------------------------------------------------------------ eval_series

def test_eval_settings_validation():
    with pytest.raises(ValueError):
        EvalSettings(target_tol=0.0)
    with pytest.raises(ValueError):
        EvalSettings(target_tol=math.nan)
    # A bool is no tolerance; a str or None is refused by type before any
    # comparison with 0.
    for tol in (True, False, "1e-3", None):
        with pytest.raises(ValueError, match="^target_tol must be"):
            EvalSettings(target_tol=tol)
    # An int beyond double range is no finite float: it raised an untyped
    # OverflowError.  _replace runs the checks as the constructor does.
    with pytest.raises(ValueError,
                       match="^target_tol must be a positive finite float"):
        EvalSettings(target_tol=10**400)
    with pytest.raises(ValueError,
                       match="^target_tol must be a positive finite float"):
        EvalSettings()._replace(target_tol=0.0)
    # tail_bound never returns less than 2e-300, so no window could meet a
    # smaller tolerance.
    with pytest.raises(ValueError, match="at least 2e-300"):
        EvalSettings(target_tol=1e-300)
    assert EvalSettings(target_tol=2e-300).target_tol == 2e-300
    # settings is an EvalSettings or None: a bare tolerance is refused by
    # name, not by an AttributeError, and 0 does not stand for the defaults.
    region = Rect(0.5, 0.5, 1, 1)
    calls = (lambda s: eval_series(1j, 2, s),
             lambda s: eval_grid(region, 1, 1, 2, s),
             lambda s: residual(EquationId.SHIFT, 1 + 1j, 1, s),
             lambda s: verify_grid(EquationId.SHIFT, region, 2, 2, 1, s))
    for bad in (1e-12, 1e-10, 0, "", {}):
        for call in calls:
            with pytest.raises(ValueError, match="^settings must be"):
                call(bad)
    assert eval_series(1j, 2, None) == eval_series(1j, 2, EvalSettings())


def test_eval_matches_frozen_oracle():
    # The deviation from the depth-200 reference must respect the result's
    # own truncation certificate (plus float-rounding headroom).
    for ((x, y), m), want in FROZEN.items():
        got = eval_series(complex(x, y), m)
        assert abs(got.value - want) <= got.tail_bound + 1e-13


def test_eval_refined_matches_oracle_tightly(off_axis_points):
    for z in off_axis_points[:10]:
        for m in (2, 4):
            rough = eval_series(z, m)
            tight = eval_series(
                z, m, EvalSettings(target_tol=abs(rough.value) * 1e-12))
            assert oracle.rel_err(tight.value, oracle.series_value(z, m)) <= 1e-10


def test_eval_split_parts():
    res = eval_series(2 + 2j, 4)
    want_minus, want_plus = FROZEN_SPLIT_2_2I_4
    # Each half carries its own share of the (certified) truncation error.
    assert abs(res.minus_part - want_minus) <= res.tail_bound + 1e-13
    assert abs(res.plus_part - want_plus) <= res.tail_bound + 1e-13
    # value is the single IEEE addition of the two parts.
    assert res.value == res.minus_part + res.plus_part


def test_eval_forced_zero_at_i():
    # At z = i the weight-2 terms cancel in pairs; the minus part alone is
    # far from zero, so the split carries the structure.
    res = eval_series(1j, 2)
    assert abs(res.value) <= res.tail_bound + 1e-13
    want = complex(0.023606099661511934, 0.14375048079627939)
    assert abs(res.minus_part - want) <= res.tail_bound + 1e-13
    assert abs(res.plus_part + want) <= res.tail_bound + 1e-13


def test_eval_deterministic():
    a = eval_series(0.7 - 1.3j, 3)
    b = eval_series(0.7 - 1.3j, 3)
    assert (a.value, a.minus_part, a.plus_part) == (b.value, b.minus_part,
                                                    b.plus_part)
    assert (a.tail_bound, a.terms_used) == (b.tail_bound, b.terms_used)


def test_eval_trace_and_stopping():
    # The window is the first whose bound meets the tolerance.
    res = eval_series(1 + 1j, 2)
    bounds = [tail_bound(J, 1 + 1j, 2)
              for J in range(MIN_TAIL_HALF_WIDTH, res.terms_used + 1)]
    assert bounds[-1] == res.tail_bound
    assert bounds[-1] <= 1e-12
    assert all(b > 1e-12 for b in bounds[:-1])


def test_eval_tail_certificate_on_result():
    for (x, y), m in (((1.0, 1.0), 2), ((-1.25, 2.0), 6)):
        z = complex(x, y)
        res = eval_series(z, m)
        gap = oracle.rel_err(res.value, oracle.series_value(z, m))
        ref = abs(oracle.series_value(z, m))
        # truncation certificate plus a little float-rounding headroom
        assert gap * ref <= res.tail_bound + 1e-13 * max(1.0, ref)


def test_eval_real_axis_regular_point():
    res = eval_series(5.0 + 0j, 2)
    assert abs(res.value - FROZEN[((5.0, 0.0), 2)]) <= 1e-12
    assert res.value.imag == 0.0


def test_eval_rejects_poles():
    with pytest.raises(PoleProximity) as info:
        eval_series(1.0 + 0j, 2)
    assert info.value.index == 0
    with pytest.raises(PoleProximity) as info:
        eval_series(-1.0 + 0j, 2)
    assert info.value.index == 1
    with pytest.raises(PoleProximity):
        eval_series(complex(1.0 + 5e-9, 0.0), 2)
    # A micron off the pole is painful but finite.
    res = eval_series(complex(1.0 + 1e-6, 0.0), 2)
    assert math.isfinite(res.value.real)


def test_eval_accumulation_points_raise_immediately():
    for x in (SILVER_CONJUGATE, SILVER_RATIO):
        with pytest.raises(DidNotConverge) as info:
            eval_series(complex(x, 0.0), 2)
        assert info.value.tail_bound == math.inf
        assert info.value.half_width == 0
    with pytest.raises(DidNotConverge):
        eval_series(complex(SILVER_RATIO, 5e-9), 2)


def test_eval_nonfinite_term_is_pole_proximity():
    # 1.5e-8 from p_0 = 1 passes the pole guard, but the 60th power of
    # 1/(2z - 2) overflows.
    z = 1 + 1.5e-8j
    with pytest.raises(PoleProximity) as info:
        term_value(0, z, 60)
    assert info.value.index == 0
    with pytest.raises(PoleProximity):
        eval_series(z, 60)
    assert math.isfinite(term_value(0, z, 20).real)


def _patch_rows(monkeypatch, row_of):
    """Give every term i, |i| <= LAST_LEVEL, the row row_of(i) in the float
    table, where the kernel, term 0 and term_value all read it; the windows
    stay as they are."""
    levels = sequence.float_table(LAST_LEVEL)
    monkeypatch.setattr(sequence, "_TABLE",
                        [(row_of(j), row_of(-j), levels[j][2])
                         for j in range(LAST_LEVEL + 1)])


def test_eval_nonfinite_sum_is_refused(monkeypatch):
    # Finite terms whose sum overflows are refused as well.  Every patched
    # row gives w = 1e-154 and so the finite term 1e308.
    row = (0.0, 1e-154, 0.0)
    assert term_value(5, 3j, 2) != 1e308
    _patch_rows(monkeypatch, lambda i: row)
    assert term_value(5, 3j, 2) == term_value(-5, 3j, 2) == 1e308
    for evaluate in (lambda: eval_series(3j, 2),
                     lambda: evaluator._Series(3j, 2).extend(1e-12)):
        with pytest.raises(DidNotConverge) as info:
            evaluate()
        assert info.value.point == 3j
        assert info.value.tail_bound == math.inf


def _outcome(fn):
    try:
        return fn()
    except (PoleProximity, DidNotConverge) as exc:
        return type(exc), exc.args


def _extended(series, target_tol):
    """The value series.extend returns, with the window, bound and sums it
    leaves on the series, as the EvalResult of eval_series."""
    value = series.extend(target_tol)
    s_m, c_m, s_p, c_p = series._sums
    return evaluator.EvalResult(value, s_m + c_m, s_p + c_p, series.bound,
                                series.level)


@pytest.mark.parametrize("z, m", [
    (1 + 1j, 2), (0.7 - 1.3j, 6), (-1.25 + 2j, 4), (5.0 + 0j, 2),
    (complex(-1 / 3 + 1e-5, 1e-7), 4), (complex(SILVER_RATIO + 2e-3, 0), 2),
    (complex(1 + 1e-6, 0), 2), (0.5 + 0.5j, 8)])
def test_series_extend_matches_fresh_eval(z, m):
    # Resuming at a tighter tolerance gives what a fresh eval_series at that
    # tolerance gives, to the bit, errors included; so does asking again at
    # a tighter tolerance that the window reached already meets.
    series = evaluator._Series(z, m)
    tols = [1e-3, 1e-3, 1e-8, 1e-12, 1e-30, 1e-60, 1e-100, 2e-300]
    while tols:
        tol = tols.pop(0)
        want = _outcome(lambda: eval_series(
            z, m, EvalSettings(target_tol=tol)))
        got = _outcome(lambda: _extended(series, tol))
        assert got == want, tol
        if isinstance(got, evaluator.EvalResult) and got.tail_bound < tol:
            tols.insert(0, got.tail_bound)


def _record_levels(monkeypatch):
    """Put a copy of the whole float table in its place that records the
    index of every level read; returns the list of reads."""
    reads = []

    class RecordingLevels(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    monkeypatch.setattr(sequence, "_TABLE",
                        RecordingLevels(sequence.float_table(LAST_LEVEL)))
    return reads


def test_series_extend_adds_no_terms_when_bound_met(monkeypatch):
    series = evaluator._Series(1 + 1j, 2)
    first = _extended(series, 1e-6)
    assert _extended(series, 1e-12).terms_used > first.terms_used
    tighter = _extended(series, 1e-12)
    met = _extended(series, tighter.tail_bound)
    probes = []

    def recording_tail_bound(j, z, m):
        probes.append(j)
        return tail_bound(j, z, m)

    reads = _record_levels(monkeypatch)
    monkeypatch.setattr(evaluator, "tail_bound", recording_tail_bound)
    assert _extended(series, 1e-9) == met == tighter
    assert reads == probes == []
    # The recording sees the windows of the probed bounds, then the levels
    # of the terms that are added, once for the + pass and once for the -.
    assert _extended(series, 1e-14).terms_used > tighter.terms_used
    assert probes
    added = list(range(tighter.terms_used + 1, series.level + 1))
    assert reads == probes + added + added


def _neumaier(s, c, x):
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


def _two_sum(s, c, v):
    """One step of the complex TwoSum in _Series.extend."""
    t = s + v
    e = t - s
    c += (s - (t - e)) + (v - e)
    return t, c


def _both_sums(terms):
    """The states after each term of a complex TwoSum and of a Neumaier
    sum per part, both started from zero as the kernel starts them, as 4
    floats."""
    s, c = 0j, 0j
    sr = cr = si = ci = 0.0
    out = []
    for v in terms:
        s, c = _two_sum(s, c, v)
        sr, cr = _neumaier(sr, cr, v.real)
        si, ci = _neumaier(si, ci, v.imag)
        out.append(((s.real, c.real, s.imag, c.imag), (sr, cr, si, ci)))
    return out


_BIG = sys.float_info.max


def test_two_sum_matches_neumaier():
    big = 1e308
    cases = [
        # cancellation: the correction keeps what the sum drops
        [1e16 + 0j, 1.0 + 1e16j, -1e16 + 1.0j, 1e-16 - 1e16j, -1.0 + 0j],
        [1.0 + 1.0j, 1e100 - 1e100j, 1.0 + 1.0j, -1e100 + 1e100j],
        [0.1 + 0.7j, 0.2 - 0.1j, -0.3 + 0.3j, 1e-17 - 0.9j],
        # signed zeros, in each part and as sum and as term
        [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)],
        [complex(-0.0, 0.0), complex(1.0, -0.0), complex(-1.0, -0.0),
         complex(-0.0, -0.0), complex(5e-324, -5e-324),
         complex(-5e-324, 5e-324)],
        # near the top of double range, with finite sums
        [big + 0j, 7e307 - big * 1j, -big + 0j, 1e292 + 1.7e308j,
         -7e307 - 1e-300j],
        [complex(math.nextafter(_BIG, 0), -1.6e308), complex(-1e307, 1e307),
         complex(-1.7e308, -1e291), complex(1e291, 1.7e308)],
    ]
    rng = random.Random(5)
    for _ in range(300):
        cases.append([complex(rng.choice((1, -1)) * 10 ** rng.uniform(-30, 30),
                              rng.choice((1, -1, 0)) * rng.random())
                      for _ in range(rng.randint(1, 12))])
    for terms in cases:
        for two, neu in _both_sums(terms):
            assert repr(two) == repr(neu), terms
        assert cmath.isfinite(complex(two[0] + two[1], two[2] + two[3]))


def test_two_sum_differs_from_neumaier_only_at_the_largest_double():
    # TwoSum's e = t - s overflows when the term is -+MAX, the largest
    # double, and the rounding of t ties: its correction turns NaN where
    # Neumaier's stays finite.  One ulp less and the two agree.
    s = 1.6198764998403264e307 + 0j
    two, neu = _both_sums([s, complex(-_BIG, 0.0)])[-1]
    assert math.isnan(two[1]) and neu[1] == 9.9792015476736e291
    two, neu = _both_sums([s, complex(-math.nextafter(_BIG, 0), 0.0)])[-1]
    assert repr(two) == repr(neu)
    # A sum past double range is non-finite either way.
    for two, neu in _both_sums([1.7e308 + 0j, 1e308 + 0j])[1:]:
        assert not math.isfinite(two[0] + two[1])
        assert not math.isfinite(neu[0] + neu[1])


def neumaier_state(series):
    """The four complex slots of a _Series as the eight floats of one
    Neumaier sum per part: sum and correction of the real, then the
    imaginary part, of the j <= 0 sum, then of the j >= 1 sum."""
    s_m, c_m, s_p, c_p = series._sums
    return (s_m.real, c_m.real, s_m.imag, c_m.imag,
            s_p.real, c_p.real, s_p.imag, c_p.imag)


def scan_extend(series, target_tol):
    """Reference for _Series.extend: add the terms one window at a time,
    +J then -J, with a branching Neumaier sum of each real part and check
    the tail bound after each window J >= 2, stopping at the first whose
    bound meets the tolerance, or at window LAST_LEVEL + 1, whose bound is
    the 2e-300 floor.  The empty series is at level -1, and term 0 is
    added once, at level 0.  series._sums holds the eight floats of
    neumaier_state.  Returns the value, and leaves the window and its bound
    in series.level and series.bound, as extend does."""
    z, m = series.z, series.m
    level, bound = series.level, series.bound
    sr_m, cr_m, si_m, ci_m, sr_p, cr_p, si_p, ci_p = series._sums
    if level < MIN_TAIL_HALF_WIDTH or bound > target_tol:
        for level in range(level + 1, LAST_LEVEL + 2):
            if level:
                v = term_value(level, z, m)
                sr_p, cr_p = _neumaier(sr_p, cr_p, v.real)
                si_p, ci_p = _neumaier(si_p, ci_p, v.imag)
            v = term_value(-level, z, m)
            sr_m, cr_m = _neumaier(sr_m, cr_m, v.real)
            si_m, ci_m = _neumaier(si_m, ci_m, v.imag)
            if level < MIN_TAIL_HALF_WIDTH:
                continue
            bound = tail_bound(level, z, m)
            if bound <= target_tol:
                break
        else:
            raise DidNotConverge(level, bound, point=z)
        series.level, series.bound = level, bound
        series._sums = (sr_m, cr_m, si_m, ci_m, sr_p, cr_p, si_p, ci_p)
    minus_part = complex(sr_m + cr_m, si_m + ci_m)
    plus_part = complex(sr_p + cr_p, si_p + ci_p)
    value = minus_part + plus_part
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DidNotConverge(level, math.inf, point=z)
    return value


def _search_matches_scan(z, m, steps):
    """Extend two series at z through the same tolerances, one by
    _Series.extend and one by scan_extend: results, errors and summation
    state (the TwoSum slots of extend mapped onto the floats of the
    Neumaier reference) must agree to the bit at every step, and the search
    may probe only windows in [max(level + 1, 2), LAST_LEVEL + 1], none of
    them twice.  A tolerance given as ("bound", J) is the exact bound of
    window J, and ("met", 0) the bound of the last value.  Returns False
    when the series cannot start at z."""
    try:
        new, ref = evaluator._Series(z, m), evaluator._Series(z, m)
    except DidNotConverge:    # within POLE_GUARD of 1 +- sqrt(2)
        return False
    ref._sums = neumaier_state(ref)
    probes = []
    searches = []
    search = evaluator._stopping_window

    def recording_tail_bound(j, z, m):
        probes.append(j)
        return tail_bound(j, z, m)

    def recording_search(z, m, lo, tol, *rest):
        found = search(z, m, lo, tol, *rest)
        searches.append((lo, tol, found[0]))
        return found

    last = None    # the bound of the last value
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "tail_bound", recording_tail_bound)
        patch.setattr(evaluator, "_stopping_window", recording_search)
        for tol in steps:
            if isinstance(tol, tuple):
                kind, j = tol
                tol = (tail_bound(j, z, m) if kind == "bound" else
                       last if last is not None else 1e-12)
                if not 2e-300 <= tol < math.inf:
                    continue
            lo = max(new.level + 1, MIN_TAIL_HALF_WIDTH)
            probes.clear()
            got = _outcome(lambda: new.extend(tol))
            want = _outcome(lambda: scan_extend(ref, tol))
            context = (z, m, tol)
            assert repr(got) == repr(want), context
            assert (repr((new.level, new.bound, neumaier_state(new)))
                    == repr((ref.level, ref.bound, ref._sums))), context
            assert all(lo <= j <= LAST_LEVEL + 1 for j in probes), (
                context, probes)
            # The search probes no window twice.
            assert len(set(probes)) == len(probes), (context, probes)
            # A window above lo is returned only once the window below it
            # is known to fail, whether probed or certified by the 2^m fall.
            for start, goal, found in searches:
                assert (found == start
                        or tail_bound(found - 1, z, m) > goal), (context, found)
            searches.clear()
            if isinstance(got, complex):
                last = new.bound
    return True


def _random_point(rng):
    kind = rng.randrange(5)
    if kind == 0:    # anywhere
        return complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    r = 10 ** rng.uniform(-9, -1)
    angle = rng.choice((0.0, math.pi, rng.uniform(0, 2 * math.pi)))
    offset = complex(r * math.cos(angle), r * math.sin(angle))
    if kind == 1:    # near a pole
        return float(pole_ratio(rng.randint(-14, 14))) + offset
    if kind == 2:    # near an accumulation point, inside the pole hulls
        return rng.choice((SILVER_CONJUGATE, SILVER_RATIO)) + offset
    if kind == 3:    # on the real axis
        return complex(rng.uniform(-5, 5), 0.0)
    return complex(rng.uniform(-5, 5), r)


def _random_weight(rng):
    kind = rng.randrange(10)
    if kind < 7:
        return rng.randint(2, 8)
    if kind < 9:
        return rng.choice((16, 64, rng.randint(9, 200)))
    return rng.choice((1100, rng.randint(201, 1100)))


def _random_tol(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ("bound", rng.randint(2, 60))
    if kind == 1:
        return ("met", 0)
    return 10 ** rng.uniform(math.log10(2e-300), -1)


def test_search_matches_scan_seeded():
    rng = random.Random(20261018)
    started = 0
    for _ in range(2500):
        z, m = _random_point(rng), _random_weight(rng)
        steps = [_random_tol(rng) for _ in range(rng.randint(1, 4))]
        started += _search_matches_scan(z, m, steps)
    assert started > 2000


_TOLS = st.one_of(
    st.floats(2e-300, 0.1),
    st.tuples(st.just("bound"), st.integers(2, 60)),
    st.tuples(st.just("met"), st.just(0)))


@settings(max_examples=300)
@given(st.data())
def test_search_matches_scan_fuzzed(data):
    j = data.draw(st.integers(-14, 14))
    centre = data.draw(st.sampled_from(
        (float(pole_ratio(j)), SILVER_CONJUGATE, SILVER_RATIO, 0.0)))
    dx = data.draw(st.floats(-1.0, 1.0))
    dy = data.draw(st.floats(-1.0, 1.0))
    scale = 10.0 ** data.draw(st.integers(-10, 0))
    z = complex(centre + dx * scale, dy * scale)
    m = data.draw(st.one_of(st.integers(2, 10), st.integers(2, 1100)))
    steps = data.draw(st.lists(_TOLS, min_size=1, max_size=4))
    _search_matches_scan(z, m, steps)


def test_search_certificate_at_the_first_windows():
    # Tolerances that make window 2, 3, 4 or 5 the answer, or fall between
    # the bounds of two of them.  The ratios Q_3/Q_2 = 7/3 and Q_5/Q_4 =
    # 41/17 lie below 1 + sqrt(2), so a certificate that trusted the
    # predicted (1 + sqrt(2))^m fall instead of the proven 2^m would skip
    # window 2 or 4 there.  Weight 1100 takes 2^m past double range, and
    # 2e-300 is the bound's floor.
    rng = random.Random(20261021)
    points = [3j, 1 + 1j, -2 + 0.5j, 0.3 - 4j, 5.0, -7.5 + 0.1j,
              SILVER_RATIO + 1e-3j, SILVER_CONJUGATE - 2e-4 + 1e-5j]
    points += [complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
               for _ in range(4)]
    for z in points:
        for m in (2, 3, 4, 5, 8, 16, 64, 1100):
            tols = [("bound", j) for j in range(2, 6)]
            for j in range(2, 5):
                a, b = tail_bound(j, z, m), tail_bound(j + 1, z, m)
                if a < math.inf:    # the geometric mean, in logs
                    tols.append(math.exp((math.log(a) + math.log(b)) / 2))
            # At low weights the floor lies a hundred windows or more out,
            # where the window-by-window reference is slow.
            if m >= 64:
                tols.append(2e-300)
            for tol in tols:
                assert _search_matches_scan(z, m, [tol])


def test_search_makes_few_tail_checks():
    # The first probe is guessed from the distances to 1 +- sqrt(2) and a
    # passing probe is certified by the 2^m fall, so most evaluations make
    # one tail check.  The count is deterministic.
    rng = random.Random(20261022)
    w, h = rng.uniform(2.0, 4.0), rng.uniform(1.0, 3.0)
    x0 = rng.uniform(-3.0, 3.0 - w)
    y0 = -rng.uniform(0.05, 0.5) * h
    region = Rect(x0, y0, x0 + w, y0 + h)    # crosses the real axis
    calls = {"tail_bound": 0, "eval_series": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(evaluator, name,
                          counted(name, getattr(evaluator, name)))
        for m in (2, 4, 6, 8):
            calls.update(tail_bound=0, eval_series=0)
            eval_grid(region, 40, 40, m)
            assert calls["eval_series"] == 1600
            assert calls["tail_bound"] / calls["eval_series"] <= 1.5, m


def _seeded_lattice_points():
    """(z, m) on seeded lattices shaped like the grid CLI's, some
    straddling the real axis, at each weight 2..8."""
    rng = random.Random(20261019)
    for m in range(2, 9):
        for _ in range(2):
            w, h = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
            x0 = rng.uniform(-3.0, 3.0 - w)
            y0 = rng.choice((rng.uniform(-0.5, -0.05),
                             rng.uniform(0.05, 3.5 - h)))
            region = Rect(x0, y0, x0 + w, y0 + h)
            for z in region.cell_centers(6, 6):
                yield z, m


def _seeded_near_pole_points():
    """300 seeded (z, m), z 1e-7 to 1e-3 from a pole p_j, at weights up to
    64: the terms at the edge of the guard, and powers that overflow."""
    rng = random.Random(20261020)
    for _ in range(300):
        r = 10 ** rng.uniform(-7, -3)
        angle = rng.uniform(0, 2 * math.pi)
        z = float_pole(rng.randint(-8, 8)) + complex(r * math.cos(angle),
                                                   r * math.sin(angle))
        yield z, rng.choice((2, 3, 4, 6, 8, 16, 32, 64, rng.randint(2, 64)))


LATTICE_STEPS = [1e-12, 1e-15]
NEAR_POLE_STEPS = [1e-12, 1e-20]


def test_fold_matches_per_term_reference_on_lattices():
    # The kernel adds each side's terms in one pass of _add_terms;
    # scan_extend adds term_value's, level by level.
    for z, m in _seeded_lattice_points():
        _search_matches_scan(z, m, LATTICE_STEPS)


def test_fold_matches_per_term_reference_near_poles():
    started = 0
    for z, m in _seeded_near_pole_points():
        started += _search_matches_scan(z, m, NEAR_POLE_STEPS)
    assert started == 300


def _scan_result(z, m, target_tol):
    """scan_extend on a fresh series at z, as the EvalResult of
    eval_series: the parts are the Neumaier sums of each side."""
    ref = evaluator._Series(z, m)
    ref._sums = neumaier_state(ref)
    value = scan_extend(ref, target_tol)
    sr_m, cr_m, si_m, ci_m, sr_p, cr_p, si_p, ci_p = ref._sums
    return evaluator.EvalResult(value, complex(sr_m + cr_m, si_m + ci_m),
                                complex(sr_p + cr_p, si_p + ci_p),
                                ref.bound, ref.level)


def test_floor_tolerance_is_met_at_weight_2():
    # The 2e-300 floor, the smallest tolerance EvalSettings accepts, lies
    # 391 windows out at 1 + 1j and weight 2; window and bits are those of
    # the window-by-window reference.
    got = eval_series(1 + 1j, 2, EvalSettings(2e-300))
    assert (got.terms_used, got.tail_bound) == (391, 2e-300)
    assert repr(got) == repr(_scan_result(1 + 1j, 2, 2e-300))


def test_eval_series_matches_scan_bit_for_bit():
    # eval_series sums without a series object.  On the seeded lattices and
    # near-pole points, each tolerance evaluated afresh gives what the
    # window-by-window reference gives on a fresh series: value, parts,
    # bound and window to the bit, or the same error at the same index.
    # Within POLE_GUARD of 1 +- sqrt(2) both refuse to start.
    cases = [(z, m, LATTICE_STEPS) for z, m in _seeded_lattice_points()]
    cases += [(z, m, NEAR_POLE_STEPS) for z, m in _seeded_near_pole_points()]
    cases += [(complex(x, y), m, LATTICE_STEPS)
              for x in (SILVER_CONJUGATE, SILVER_RATIO)
              for y in (0.0, 5e-9) for m in (2, 8)]
    errors = set()
    for z, m, steps in cases:
        for tol in steps:
            got = _outcome(lambda: eval_series(z, m, EvalSettings(tol)))
            want = _outcome(lambda: _scan_result(z, m, tol))
            assert repr(got) == repr(want), (z, m, tol)
            if not isinstance(got, evaluator.EvalResult):
                errors.add(got[0])
    assert errors == {PoleProximity, DidNotConverge}


def test_eval_series_builds_no_series(monkeypatch):
    def refused(*args):
        raise AssertionError("eval_series built a _Series")

    points = ((1 + 1j, 2), (0.5 + 0.5j, 8), (5.0, 2),
              (complex(SILVER_RATIO + 2e-3, 0), 2))
    want = [_scan_result(z, m, 1e-12) for z, m in points]
    monkeypatch.setattr(evaluator, "_Series", refused)
    assert [eval_series(z, m) for z, m in points] == want
    # Regular cells and poles alike.
    outcomes = {type(r) for _, r in eval_grid(Rect(-1.5, -0.5, 1.5, 0.5),
                                               3, 1, 2)}
    assert outcomes == {evaluator.EvalResult, PoleProximity}
    with pytest.raises(DidNotConverge):
        eval_series(SILVER_RATIO, 2)


def test_fold_matches_per_term_reference_past_double_range(monkeypatch):
    # Rows turn None past |j| = 805, where Q_j or Q_{j-1} leaves double
    # range.  No window of eval_series gets there: its bound would have to
    # stay above the 2e-300 floor with Q_J near 1e307, so z would lie
    # within 1e-157 of the pole hulls, which are then within 1e-300 of
    # 1 +- sqrt(2), where _Series refuses to start.  A bound patched to inf
    # below window LAST_LEVEL + 1, the last window the search probes, still
    # non-increasing, takes the kernel and the reference to it.  Patched to
    # inf at every window, the search still ends there, and both raise
    # DidNotConverge at that window.
    real = tail_bound
    last = [LAST_LEVEL + 1]

    def late_bound(j, z, m):
        return math.inf if j < last[0] else real(j, z, m)

    monkeypatch.setattr(sys.modules[__name__], "tail_bound", late_bound)
    monkeypatch.setattr(evaluator, "tail_bound", late_bound)
    assert float_row(-805) is float_row(806) is float_row(-806) is None
    for z in (complex(SILVER_RATIO, 1.1e-8), complex(SILVER_CONJUGATE, 2e-8),
              1 + 1j):
        for m in (2, 3, 8, 64):
            last[0] = LAST_LEVEL + 1
            assert _search_matches_scan(z, m, [1e-12, 1e-12])
            series = evaluator._Series(z, m)
            assert _extended(series, 1e-12).terms_used == LAST_LEVEL + 1
            last[0] = math.inf
            assert _search_matches_scan(z, m, [1e-12])
            with pytest.raises(DidNotConverge) as info:
                eval_series(z, m)
            assert info.value.args == (LAST_LEVEL + 1, math.inf, z, None)


def test_levels_past_the_end_add_nothing(monkeypatch):
    # Every term from level LAST_LEVEL on is an exact zero: its row reads Q
    # beyond double range, or |Q_j| near 1e308 makes the power underflow.
    # The kernel reads no level past LAST_LEVEL - 1, in its + pass from
    # level 1 or its - pass from level 0 (term 0), and a window that ends
    # past it holds the sums of the window that ends there.  A bound
    # patched to inf below window stop[0] makes the kernel stop there.
    real = tail_bound
    stop = [0]
    windows = []    # the table levels whose window the bound reads

    def late_bound(j, z, m):
        if j < stop[0]:
            return math.inf
        if j <= LAST_LEVEL:
            windows.append(j)
        return real(j, z, m)

    monkeypatch.setattr(evaluator, "tail_bound", late_bound)
    reads = _record_levels(monkeypatch)
    for z in (complex(SILVER_RATIO, 1.1e-8), complex(SILVER_CONJUGATE, 2e-8),
              1 + 1j):
        for m in (2, 3, 64):
            for j in (LAST_LEVEL, -LAST_LEVEL, LAST_LEVEL + 1, -900):
                assert term_value(j, z, m) == 0, (j, z, m)
            sums = set()
            for stop[0] in (LAST_LEVEL - 1, LAST_LEVEL, LAST_LEVEL + 1):
                series = evaluator._Series(z, m)
                reads.clear()
                windows.clear()
                assert _extended(series, 1e-12).terms_used == stop[0]
                assert reads == (windows + list(range(1, LAST_LEVEL))
                                 + list(range(LAST_LEVEL))), (z, m, stop[0])
                sums.add(repr(series._sums))
            assert len(sums) == 1, (z, m)


def test_kernel_adds_each_term_once(monkeypatch):
    # One evaluation adds 2 * terms_used + 1 terms, +1 .. +J and then 0,
    # -1 .. -J, and a resumed extend adds only the terms of its new levels;
    # a tolerance already met adds none.
    passes = []
    add_terms = evaluator._add_terms

    def recording_add_terms(levels, side, lo, hi, *rest):
        passes.append((side, lo, hi))
        return add_terms(levels, side, lo, hi, *rest)

    monkeypatch.setattr(evaluator, "_add_terms", recording_add_terms)
    for z, m in ((1 + 1j, 2), (0.5 + 0.5j, 8), (-1.25 + 2j, 4), (5.0, 2),
                 (complex(SILVER_RATIO + 2e-3, 0), 2)):
        passes.clear()
        used = eval_series(z, m).terms_used
        assert passes == [(0, 1, used + 1), (1, 0, used + 1)]
        assert sum(hi - lo for _, lo, hi in passes) == 2 * used + 1
        series = evaluator._Series(z, m)
        first = _extended(series, 1e-6).terms_used
        passes.clear()
        second = _extended(series, 1e-14).terms_used
        assert second > first
        assert passes == [(0, first + 1, second + 1),
                          (1, first + 1, second + 1)]
        passes.clear()
        series.extend(1e-6)
        assert passes == []


WEIGHTS = (*range(2, 65), 1023, 1024, 1074, 1075, MAX_WEIGHT)


def test_weight_constants_equal_the_inline_expressions():
    # The factors tail_bound and _stopping_window take from the cache are
    # the bits of the expressions they computed on every call; 2^-m is the
    # smallest subnormal at m = 1074 and zero from 1075 on, where
    # tail_bound halves each base instead.
    for m in WEIGHTS:
        geo = 2.0 ** (-m) / (1.0 - 2.0 ** (-m))
        half = 1.0
        if geo == 0.0:
            geo, half = 1.0, 0.5
        inline = (geo, half, m * evaluator._LOG_TWO,
                  math.log1p(-(2.0 ** -m)), m * evaluator._LOG_SILVER,
                  2.0 ** min(m, 1023) * evaluator._FALL_SLACK)
        assert repr(evaluator._weight_constants(m)) == repr(inline), m
    assert evaluator._weight_constants(1074)[:2] == (5e-324, 1.0)
    assert evaluator._weight_constants(1075)[:2] == (1.0, 0.5)


# sha256 of the tail bounds, stopping windows and probed windows of
# _weight_outcomes as computed with every weight factor inline, per call;
# every search ends by window LAST_LEVEL + 1.
_WEIGHT_OUTCOMES = (
    "8386efebdbe8b92c5e76b767b122f93e52fa21b8568854fa5029b9e548852dc2")


def test_bounds_and_searches_are_pinned_at_every_weight(monkeypatch):
    points = (3j, 1 + 1j, -2 + 0.5j, 0.3 - 4j, 5.0 + 0j, 0.5 + 1e-3j,
              float_pole(3) + 1e-5j, float_pole(-4) + 1e-6,
              SILVER_RATIO + 1e-4j, SILVER_CONJUGATE - 2e-4 + 1e-5j)
    out, probes = [], []

    def recording_tail_bound(j, z, m):
        probes.append(j)
        return tail_bound(j, z, m)

    monkeypatch.setattr(evaluator, "tail_bound", recording_tail_bound)
    for m in WEIGHTS:
        for z in points:
            _, d_minus, d_plus = evaluator._limit_distances(z)
            for j in (2, 3, 5, 8, 13, 40, 200, 900):
                out.append(repr(tail_bound(j, z, m)))
            for tol in (1e-3, 1e-12, 1e-40, 2e-300):
                for lo in (2, 7):
                    probes.clear()
                    found = evaluator._stopping_window(
                        z, m, lo, tol, d_minus, d_plus)
                    out.append(repr((found, probes)))
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == _WEIGHT_OUTCOMES


def test_weight_constants_cache_stays_bounded():
    for m in range(2, 1002):
        tail_bound(3, 1j, m)
    info = evaluator._weight_constants.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def _huge_points():
    """3000 seeded points whose parts are exact binary scalings, so the same
    on every platform: |z| from about 1e300 to past the largest double, on
    the axes, the diagonals and off them, with weights 2 .. 1100."""
    rng = random.Random(20261019)

    def part():
        return (math.ldexp(rng.uniform(0.5, 1.0), rng.randint(998, 1024))
                * rng.choice((1, -1)))

    for _ in range(3000):
        x, kind = part(), rng.randrange(3)
        y = (x * rng.choice((1, -1)) if kind == 0    # a diagonal
             else 0.0 if kind == 1 else part())    # an axis, or off both
        z = complex(x, y) if rng.random() < 0.5 else complex(y, x)
        yield z, rng.choice((rng.randint(2, 8), rng.randint(2, 1100), 1100))


def _first_outsize_denominator(z, half_width):
    """The outcome that eval_series had before a term denominator beyond
    double range gave a zero term: at the first term j, in the order 0, +1,
    -1, +2, -2, ... up to +-half_width, whose float denominator
    Q_j z + Q_{j-1} has two infinite parts, PoleProximity; at the first
    j != 0 with finite parts whose modulus overflows, DidNotConverge with
    bound inf (term 0 then treated such a modulus as inf, and gave its
    zero).  None when there is no such term."""
    for n in range(half_width + 1):
        for j in ((n, -n) if n else (0,)):
            w = float(pell_lucas(j)) * z + float(pell_lucas(j - 1))
            if math.isinf(w.real) and math.isinf(w.imag):
                return "PoleProximity", (j, z, None)
            if (j and math.isfinite(w.real) and math.isfinite(w.imag)
                    and math.isinf(math.hypot(w.real, w.imag))):
                return "DidNotConverge", (n, math.inf, z, None)
    return None


# sha256 of the eval_series outcomes at _huge_points from before a term
# denominator beyond double range gave a zero term.  A point then raised at
# the first such term, in the order in which the terms were then added:
# PoleProximity where both parts of the denominator overflowed, and
# DidNotConverge (bound inf) where only its modulus did.  Every other
# outcome is unchanged.
_HUGE_OUTCOMES = (
    "0df5b19b13d73d0d690411eec783012428b04799ff2ac9164eb7b3b4462488d3")


def test_outcomes_at_huge_points_are_pinned():
    outcomes = []
    zero_terms = {"PoleProximity": 0, "DidNotConverge": 0}
    for z, m in _huge_points():
        try:
            got = eval_series(z, m)
        except (PoleProximity, DidNotConverge, ValueError) as exc:
            outcomes.append(repr((type(exc).__name__, exc.args)))
            continue
        before = _first_outsize_denominator(z, got.terms_used)
        if before is None:
            outcomes.append(repr(got))
        else:
            assert got.value == 0j, (z, m)
            zero_terms[before[0]] += 1
            outcomes.append(repr(before))
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _HUGE_OUTCOMES
    assert zero_terms == {"PoleProximity": 48, "DidNotConverge": 50}


class _Weight(enum.IntEnum):
    FOUR = 4
    MAX = MAX_WEIGHT


def test_cheap_argument_checks_match_full_checks():
    # Each entry point checks its weight and point by one call to the rule
    # of each.  A rule passes the common case (an int weight from 2 to
    # MAX_WEIGHT, a complex point with finite parts) by a type test, and
    # gives the rest the full check, which accepts any such number, of a
    # subclass too, and refuses the rest, text included.
    big = 10 ** 5000  # its text passes Python's int-to-string limit
    for fn in (lambda z, m: term_value(3, z, m),
               lambda z, m: tail_bound(3, z, m)):
        for m in (True, False, 2.0, "2", 1, 0, -4, None, MAX_WEIGHT + 1,
                  2 ** 70, big):
            with pytest.raises(ValueError, match="weight"):
                fn(0.5j, m)
        assert fn(0.5j, _Weight.FOUR) == fn(0.5j, 4)
        assert fn(0.5j, _Weight.MAX) == fn(0.5j, MAX_WEIGHT)
        assert fn(3, 2) == fn(3 + 0j, 2)
        assert fn(2.5, 2) == fn(2.5 + 0j, 2)
        with pytest.raises(ValueError, match="^point must be a number"):
            fn("2", 2)
        for z in (math.nan, math.inf, -math.inf, complex(0, math.nan),
                  complex(1, math.inf), complex(math.inf, 0), big):
            with pytest.raises(ValueError, match="finite"):
                fn(z, 2)
    # Finite parts whose modulus leaves double range: a complex subclass
    # gives the plain complex's result, the term's zero and the floor.
    class Point(complex):
        pass

    huge = 1.5e308 + 1.5e308j
    assert term_value(900, Point(huge), 2) == term_value(900, huge, 2) == 0j
    assert tail_bound(2, Point(huge), 2) == tail_bound(2, huge, 2) == 2e-300
    # A weight above the bound is refused before any term is summed: the
    # power loop of each term runs m - 1 times.
    for m in (MAX_WEIGHT + 1, 10 ** 10):
        for call in (lambda: eval_series(0.3 + 1j, m),
                     lambda: eval_grid(Rect(0, 0, 1, 1), 2, 2, m)):
            with pytest.raises(ValueError, match=(
                    f"^weight must be at most {MAX_WEIGHT}, got {m}$")):
                call()
    # An int too long to print is refused alike and shown by its size.
    shown = f"<int of {big.bit_length()} bits>"
    for call in (lambda: eval_series(1j, big), lambda: term_value(3, 1j, big)):
        with pytest.raises(ValueError, match=(
                f"^weight must be at most {MAX_WEIGHT}, got {shown}$")):
            call()
    for call in (lambda: eval_series(big, 2), lambda: classify(big)):
        with pytest.raises(ValueError,
                           match=f"^point must be finite, got {shown}$"):
            call()


# ------------------------------------------------------------------ eval_grid

def test_eval_grid_matches_pointwise():
    region = Rect(-1.0, -1.0, 1.0, 1.0)
    out = eval_grid(region, 2, 2, 2)
    assert [z for z, _ in out] == [complex(-0.5, -0.5), complex(0.5, -0.5),
                                   complex(-0.5, 0.5), complex(0.5, 0.5)]
    for z, res in out:
        direct = eval_series(z, 2)
        assert res.value == direct.value
        assert res.terms_used == direct.terms_used


def test_eval_grid_records_errors():
    # Row of centers on the real axis: -1 and 1 are poles, 0 is regular.
    out = eval_grid(Rect(-1.5, -0.5, 1.5, 0.5), 3, 1, 2)
    assert isinstance(out[0][1], PoleProximity)
    assert isinstance(out[2][1], PoleProximity)
    mid = out[1][1]
    assert mid.value.imag == 0.0

    # A cell centered on an accumulation point records DidNotConverge.
    x = SILVER_CONJUGATE
    out = eval_grid(Rect(x - 0.25, -0.25, x + 0.25, 0.25), 1, 1, 2)
    assert isinstance(out[0][1], DidNotConverge)

    # A term overflowing double range records PoleProximity.
    out = eval_grid(Rect(0.5, -0.5 + 1.5e-8, 1.5, 0.5 + 1.5e-8), 1, 1, 60)
    assert isinstance(out[0][1], PoleProximity)


def test_eval_grid_validation():
    with pytest.raises(ValueError):
        eval_grid(Rect(0, 0, 1, 1), 0, 2, 2)
    # Grid sizes follow the integer rule: a float crashed inside range(),
    # and True was one cell.
    for nx, ny, name in ((2.5, 2, "nx"), (2.0, 2, "nx"), (True, 1, "nx"),
                         (2, 1.0, "ny"), (1, True, "ny"), (2, "2", "ny")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            eval_grid(Rect(-1, -1, 1, 1), nx, ny, 2)
    # The region is a Rect, checked before any cell, and a Rect's corners
    # are real numbers: a str or None corner raised a TypeError.
    for bad in ((0, 0, 1, 1), None, "0,0,1,1"):
        with pytest.raises(ValueError, match="^region must be of type Rect"):
            eval_grid(bad, 2, 2, 2)
    for corner in ("0", None, 1j, [0]):
        with pytest.raises(InvalidRegion, match="^non-real corner in"):
            Rect(corner, 0, 1, 1)
        with pytest.raises(InvalidRegion, match="^non-real corner in"):
            Rect(-1, -1, 1, corner)
    assert Rect(Fraction(1, 2), 0, 1, 1).contains(Fraction(3, 4), 0)
    # Corners and sides beyond double range are an InvalidRegion; an int
    # there raised an untyped OverflowError.  _replace runs the checks as
    # the constructor does.
    with pytest.raises(InvalidRegion, match="^non-finite corner in"):
        Rect(0, 0, 10**400, 1)
    bits = (10**5000).bit_length()
    with pytest.raises(InvalidRegion, match=(
            rf"^non-finite corner in \(0, 0, <int of {bits} bits>, 1\)$")):
        Rect(0, 0, 10**5000, 1)
    with pytest.raises(InvalidRegion, match="^rectangle sides overflow"):
        Rect(-10**308, 0, 10**308, 1)
    with pytest.raises(InvalidRegion, match="^rectangle sides must be"):
        Rect(0, 0, 1, 1)._replace(x1=-1)
