"""Certified series evaluation: term values, tail bounds, adaptive summation."""

import cmath
import enum
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pelleis import evaluator, sequence
from pelleis import (DidNotConverge, EquationId, EvalSettings,
                     IndexCapExceeded, InvalidRegion, PoleProximity, Rect,
                     eval_grid, eval_series, pell_lucas, pole_ratio,
                     residual, tail_bound, term_value, verify_grid)
from pelleis.evaluator import MIN_TAIL_HALF_WIDTH
from pelleis.sequence import (INDEX_CAP, SILVER_CONJUGATE, SILVER_RATIO,
                              float_pole, float_q)

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


def test_term_decay_ratio():
    # From a modest onset the term magnitudes shrink by at least ~2^m per
    # step on both sides of the window.
    z = 0.5 + 0.5j
    for m in (2, 3, 6):
        for j in list(range(12, 40)) + list(range(-39, -11)):
            step = abs(term_value(j + (1 if j > 0 else -1), z, m))
            assert step <= abs(term_value(j, z, m)) * 0.5 ** m * 1.2


def two_float_term_value(j, z, m):
    """Reference for term_value: the same arithmetic with Q_j and Q_{j-1}
    read by two float_q lookups and the guard radius computed per call, as
    before the row table."""
    if not (m.__class__ is int and m >= 2):
        evaluator._require_weight(m)
    if not (z.__class__ is complex and math.isfinite(z.real)
            and math.isfinite(z.imag)):
        z = evaluator._require_point(z)
    fj = float_q(j)
    fjm1 = float_q(j - 1)
    if fj is None or fjm1 is None:
        if abs(z - float_pole(j)) < 1e-8:
            raise PoleProximity(j, z)
        return 0j
    w = fj * z + fjm1
    if abs(w) < 1e-8 * abs(fj):
        raise PoleProximity(j, z)
    r = 1.0 / w
    out = r
    for _ in range(m - 1):
        out *= r
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise PoleProximity(j, z)
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
        if kind == 0:      # float_q exact, |j| < 42
            j = rng.randint(-41, 41)
        elif kind == 1:    # float_q rounded
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
    # sequence's "index" rule; one above INDEX_CAP - 3 is refused by name
    # before the table grows, not as an index the caller never passed.
    for half_width in (None, "3", 2.0, True, 3.5):
        with pytest.raises(ValueError,
                           match="^half_width must be an integer"):
            tail_bound(half_width, 1j, 2)
    before = len(sequence._Q)
    limit = INDEX_CAP - 3
    for half_width in (limit + 1, limit + 2, INDEX_CAP, 10 ** 9):
        with pytest.raises(
                IndexCapExceeded,
                match=f"^half_width {half_width} exceeds cap {limit}$"):
            tail_bound(half_width, 1j, 2)
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
    # A bool is no tolerance, as it is no window cap; a str or None is
    # refused by type before any comparison with 0.
    for tol in (True, False, "1e-3", None):
        with pytest.raises(ValueError, match="^target_tol must be"):
            EvalSettings(target_tol=tol)
    with pytest.raises(ValueError):
        EvalSettings(max_half_width=3)
    for width in (10.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match="integer"):
            EvalSettings(max_half_width=width)
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


def test_eval_did_not_converge_when_window_capped():
    settings = EvalSettings(target_tol=1e-12, max_half_width=8)
    with pytest.raises(DidNotConverge) as info:
        eval_series(0.5 + 0.5j, 2, settings)
    exc = info.value
    assert exc.half_width == 8
    assert math.isfinite(exc.tail_bound)
    assert exc.tail_bound > 1e-12
    assert exc.point == 0.5 + 0.5j


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


def test_eval_nonfinite_sum_is_refused(monkeypatch):
    # Finite terms whose sum overflows are refused as well.
    monkeypatch.setattr(evaluator, "term_value", lambda *args: 1e308 + 0j)
    with pytest.raises(DidNotConverge) as info:
        eval_series(3j, 2)
    assert info.value.point == 3j
    assert info.value.tail_bound == math.inf


def _outcome(fn):
    try:
        return fn()
    except (PoleProximity, DidNotConverge) as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("z, m", [
    (1 + 1j, 2), (0.7 - 1.3j, 6), (-1.25 + 2j, 4), (5.0 + 0j, 2),
    (complex(-1 / 3 + 1e-5, 1e-7), 4), (complex(SILVER_RATIO + 2e-3, 0), 2),
    (complex(1 + 1e-6, 0), 2), (0.5 + 0.5j, 8)])
def test_series_extend_matches_fresh_eval(z, m):
    # Resuming at a tighter tolerance gives what a fresh eval_series at that
    # tolerance gives, to the bit, errors included; so does asking again at
    # a tighter tolerance that the window reached already meets.
    for max_hw in (200, 12):
        series = evaluator._Series(z, m)
        tols = [1e-3, 1e-3, 1e-8, 1e-12, 1e-30, 1e-60, 1e-100]
        while tols:
            tol = tols.pop(0)
            want = _outcome(lambda: eval_series(
                z, m, EvalSettings(target_tol=tol, max_half_width=max_hw)))
            got = _outcome(lambda: series.extend(tol, max_hw))
            assert got == want, (tol, max_hw)
            if isinstance(got, evaluator.EvalResult) and got.tail_bound < tol:
                tols.insert(0, got.tail_bound)


def test_series_extend_adds_no_terms_when_bound_met(monkeypatch):
    series = evaluator._Series(1 + 1j, 2)
    first = series.extend(1e-6, 200)
    assert series.extend(1e-12, 200).terms_used > first.terms_used
    tighter = series.extend(1e-12, 200)
    met = series.extend(tighter.tail_bound, 200)
    terms = []
    monkeypatch.setattr(evaluator, "term_value",
                        lambda *args: terms.append(args))
    assert series.extend(1e-9, 200) == met == tighter
    assert terms == []


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
    sum per part, both started as the kernel starts them, as 4 floats."""
    first, *rest = terms
    s, c = 0j + first, 0j
    sr, cr, si, ci = 0.0 + first.real, 0.0, 0.0 + first.imag, 0.0
    out = [((s.real, c.real, s.imag, c.imag), (sr, cr, si, ci))]
    for v in rest:
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


def scan_extend(series, target_tol, max_half_width):
    """Reference for _Series.extend: add the terms one window at a time
    with a branching Neumaier sum of each real part and check the tail
    bound after each window J >= 2, stopping at the first whose bound
    meets the tolerance.  series._sums holds the eight floats of
    neumaier_state."""
    z, m = series.z, series.m
    level, bound = series.level, series.bound
    sr_m, cr_m, si_m, ci_m, sr_p, cr_p, si_p, ci_p = series._sums
    if level < MIN_TAIL_HALF_WIDTH or bound > target_tol:
        for level in range(level + 1, max_half_width + 1):
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
    return evaluator.EvalResult(value, minus_part, plus_part, bound, level)


def _search_matches_scan(z, m, steps):
    """Extend two series at z through the same (tolerance, max_half_width)
    steps, one by _Series.extend and one by scan_extend: results, errors
    and summation state (the TwoSum slots of extend mapped onto the floats
    of the Neumaier reference) must agree to the bit at every step, and
    the search may probe only windows in [max(level + 1, 2),
    max_half_width], none of them twice.  A tolerance given as
    ("bound", J) is the exact bound of window J, and ("met", 0) the bound
    of the last result.  Returns False when the series cannot start at z."""
    try:
        new, ref = evaluator._Series(z, m), evaluator._Series(z, m)
    except (PoleProximity, DidNotConverge):
        return False
    ref._sums = neumaier_state(ref)
    probes = []

    def recording_tail_bound(j, z, m):
        probes.append(j)
        return tail_bound(j, z, m)

    last = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "tail_bound", recording_tail_bound)
        for tol, max_hw in steps:
            if isinstance(tol, tuple):
                kind, j = tol
                tol = (tail_bound(j, z, m) if kind == "bound" else
                       last.tail_bound if last is not None else 1e-12)
                if not 2e-300 <= tol < math.inf:
                    continue
            lo = max(new.level + 1, MIN_TAIL_HALF_WIDTH)
            probes.clear()
            got = _outcome(lambda: new.extend(tol, max_hw))
            want = _outcome(lambda: scan_extend(ref, tol, max_hw))
            context = (z, m, tol, max_hw)
            assert repr(got) == repr(want), context
            assert (repr((new.level, new.bound, neumaier_state(new)))
                    == repr((ref.level, ref.bound, ref._sums))), context
            assert all(lo <= j <= max_hw for j in probes), (context, probes)
            # The search probes no window twice.
            assert len(set(probes)) == len(probes), (context, probes)
            if isinstance(got, evaluator.EvalResult):
                last = got
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
        steps = [(_random_tol(rng), rng.choice((4, 12, 200)))
                 for _ in range(rng.randint(1, 4))]
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
    steps = data.draw(st.lists(
        st.tuples(_TOLS, st.sampled_from((4, 12, 200))),
        min_size=1, max_size=4))
    _search_matches_scan(z, m, steps)


class _Weight(enum.IntEnum):
    FOUR = 4


def test_cheap_argument_checks_match_full_checks():
    # term_value and tail_bound test the common case (an int weight, a
    # finite complex point) by type; everything else goes through the
    # full checks, which accept any finite number and refuse the rest,
    # text included.
    for fn in (lambda z, m: term_value(3, z, m),
               lambda z, m: tail_bound(3, z, m)):
        for m in (True, False, 2.0, "2", 1, 0, -4, None):
            with pytest.raises(ValueError, match="weight"):
                fn(0.5j, m)
        assert fn(0.5j, _Weight.FOUR) == fn(0.5j, 4)
        assert fn(3, 2) == fn(3 + 0j, 2)
        assert fn(2.5, 2) == fn(2.5 + 0j, 2)
        with pytest.raises(ValueError, match="^point must be a number"):
            fn("2", 2)
        for z in (math.nan, math.inf, -math.inf, complex(0, math.nan),
                  complex(1, math.inf), complex(math.inf, 0)):
            with pytest.raises(ValueError, match="finite"):
                fn(z, 2)


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
