"""Pole maps and domain classification."""

import itertools
import math
import numbers
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fresh
from oracle import closer_to_sqrt2, dist_offset
from pelleis import (DomainClass, DomainTag, IndexCapExceeded, InvalidRegion,
                     Rect, accumulation_points, classify, eval_series,
                     pell_lucas, pole_ratio, poles_in_rect, sequence)
from pelleis.sequence import (INDEX_CAP, SILVER_CONJUGATE, SILVER_RATIO,
                              float_pole)

F = Fraction


# ------------------------------------------------------------- limit constants

def test_accumulation_points_are_characteristic_roots():
    lo, hi = accumulation_points()
    assert lo == SILVER_CONJUGATE and hi == SILVER_RATIO
    for r in (lo, hi):
        assert abs(r * r - 2 * r - 1) < 1e-14


@pytest.mark.parametrize("value, upper", [(SILVER_CONJUGATE, False),
                                          (SILVER_RATIO, True)])
def test_limit_doubles_correctly_rounded(value, upper):
    # Certify by exact rational comparison: the stored double must be
    # strictly closer to 1 -/+ sqrt(2) than both neighboring doubles.
    a = dist_offset(F(value), upper)
    for neighbor in (math.nextafter(value, -10.0), math.nextafter(value, 10.0)):
        assert closer_to_sqrt2(a, dist_offset(F(neighbor), upper))


def test_limit_floats_match_deep_pole_ratios():
    assert float(pole_ratio(60)) == SILVER_CONJUGATE
    assert float(pole_ratio(-60)) == SILVER_RATIO


# ------------------------------------------------------------------ pole lists

def test_poles_near_origin():
    poles = poles_in_rect(Rect(-1.5, -0.1, 1.5, 0.1), j_cap=4)
    assert [(p.index, p.location) for p in poles] == [
        (1, F(-1)), (3, F(-3, 7)), (4, F(-7, 17)), (2, F(-1, 3)), (0, F(1)),
    ]
    locs = [p.location for p in poles]
    assert locs == sorted(locs)


def test_poles_off_axis_rect_is_empty():
    assert poles_in_rect(Rect(-10.0, 0.5, 10.0, 1.0)) == []


def test_poles_near_upper_limit():
    poles = poles_in_rect(Rect(2.3, -0.1, 2.5, 0.1), j_cap=12)
    assert {p.index for p in poles} == set(range(-12, -1))


def test_poles_defining_equation_exact():
    for p in poles_in_rect(Rect(-4.0, -1.0, 4.0, 1.0), j_cap=60):
        assert pell_lucas(p.index) * p.location + pell_lucas(p.index - 1) == 0
        assert p.location_float == float(p.location)


def test_poles_j_cap_validation():
    with pytest.raises(ValueError):
        poles_in_rect(Rect(0, 0, 1, 1), j_cap=-1)
    # True would map the poles |j| <= 1, and 2.5 crashed inside range().
    for j_cap in (2.5, 2.0, True, None):
        with pytest.raises(ValueError, match="^j_cap must be an integer"):
            poles_in_rect(Rect(-1, -1, 1, 1), j_cap)
    # The region is a Rect, not its corner tuple.
    for region in ((0, 0, 1, 1), None):
        with pytest.raises(ValueError, match="^region must be of type Rect"):
            poles_in_rect(region)
    # A j_cap too long to print is shown by its size.
    with pytest.raises(IndexCapExceeded,
                       match=r"^j_cap <int of \d+ bits> exceeds cap"):
        poles_in_rect(Rect(0, -1, 1, 1), 10 ** 5000)


def test_poles_j_cap_limit_is_named_before_the_table_grows():
    # Pole -j_cap reads Q_{-j_cap-1}, so the limit is INDEX_CAP - 1; above
    # it the error names j_cap, not an index the caller never passed.
    before = len(sequence._Q)
    limit = INDEX_CAP - 1
    for j_cap in (INDEX_CAP, INDEX_CAP + 5):
        with pytest.raises(IndexCapExceeded,
                           match=f"^j_cap {j_cap} exceeds cap {limit}$"):
            poles_in_rect(Rect(-1, -1, 1, 1), j_cap)
    assert len(sequence._Q) == before


def _scan_all_poles(region, j_cap):
    """Every pole |j| <= j_cap tested on its exact location, a Fraction
    reduced by its gcd, and sorted by that Fraction."""
    locations = ((F(-pell_lucas(j - 1), pell_lucas(j)), j)
                 for j in range(-j_cap, j_cap + 1))
    found = [(loc, j) for loc, j in locations if region.contains(loc, 0)]
    return [(j, loc) for loc, j in sorted(found,
                                          key=lambda t: (t[0], abs(t[1])))]


def test_poles_equal_full_scan_seeded():
    rng = random.Random(20261018)
    lo_lim, hi_lim = SILVER_CONJUGATE, SILVER_RATIO
    rects = [Rect(0.5, -1, 2, 1), Rect(-0.4142, -1, 2.4142, 1),
             Rect(lo_lim - 1e-9, -1, lo_lim + 1e-9, 1),
             Rect(-3, 0, 3, 1), Rect(-3, -1, 3, 0), Rect(-3, 1e-300, 3, 1)]
    for _ in range(40):
        x0 = rng.choice([rng.uniform(-3, 4), lo_lim, hi_lim,
                         float_pole(rng.randint(-30, 30))])
        x0 += rng.choice([0.0, -1e-12, 1e-12, -1e-3])
        x1 = x0 + rng.choice([1e-15, 1e-9, 1e-4, 0.3, 2.0, 5.0])
        y0 = rng.choice([-1.0, 0.0, 1e-3])
        rects.append(Rect(x0, y0, x1, y0 + rng.choice([1e-3, 2.0])))
    for region in rects:
        for j_cap in (0, 2, 3, 7, rng.randint(0, 300)):
            got = poles_in_rect(region, j_cap)
            assert [(p.index, p.location) for p in got] == \
                _scan_all_poles(region, j_cap), (region, j_cap)


def test_pole_order_by_index_equals_fraction_order():
    # poles_in_rect sorts by index, without comparing Fractions; around
    # both limits, with thousands of poles, the order is the Fraction sort.
    for region, j_cap in ((Rect(-1, -1, 3, 1), 2000),
                          (Rect(SILVER_CONJUGATE - 1e-3, -1, 1, 0), 500),
                          (Rect(2.4, 0, 3, 1), 500)):
        got = [(p.index, p.location) for p in poles_in_rect(region, j_cap)]
        assert got == _scan_all_poles(region, j_cap), region
        assert len(got) > j_cap // 2


def test_poles_away_from_both_limits_stop_early():
    # The exact locations of |j| up to 99_999 run to tens of thousands of
    # digits; both sides stop once the hull of their next poles leaves
    # [0.5, 2].
    start = time.perf_counter()
    poles = poles_in_rect(Rect(0.5, -1, 2, 1), INDEX_CAP - 1)
    assert time.perf_counter() - start < 1.0
    assert [(p.index, p.location) for p in poles] == [(0, F(1))]
    assert poles_in_rect(Rect(-10.0, 0.5, 10.0, 1.0), INDEX_CAP - 1) == []


# Corners around both limits: the limits' doubles and their neighbours, the
# first poles of each side, and points between and beyond them.
_CORNERS = sorted({-2, -1, 0, 1, F(7, 3), 3, 4, -0.5, 2.5, 0.999, *(
    x for limit in (SILVER_CONJUGATE, SILVER_RATIO)
    for x in (math.nextafter(limit, -math.inf), limit,
              math.nextafter(limit, math.inf)))})


def test_poles_equal_brute_force_on_corner_grid():
    # Every rectangle with two of _CORNERS as its real sides, against a
    # test of every pole |j| <= j_cap with Rect.contains.
    caps = (0, 1, 2, 3, 4, 24, 25, 60, 300)
    table = [(j, pole_ratio(j), float_pole(j))
             for j in range(-caps[-1], caps[-1] + 1)]
    for x0, x1 in itertools.combinations(_CORNERS, 2):
        region = Rect(x0, -1, x1, 1)
        inside = sorted((pole for pole in table
                         if region.contains(pole[1], 0)),
                        key=lambda pole: pole[1])
        for j_cap in caps:
            got = [tuple(p) for p in poles_in_rect(region, j_cap)]
            assert got == [p for p in inside if abs(p[0]) <= j_cap], (
                region, j_cap)


# Rect checks a float32 corner through its float: compared with the largest
# double, it would make numpy cast that double to float32, with an overflow
# warning.  Any warning fails this test.
@pytest.mark.filterwarnings("error")
def test_poles_take_a_real_corner_that_is_no_float():
    # Rect takes any numbers.Real corner; one that Fraction() refuses, such
    # as numpy's float32, is compared through its float, which is exact.
    np = pytest.importorskip("numpy")
    for x0, x1 in ((-0.5, 2.5), (SILVER_CONJUGATE, 2.0), (-1.0, 0.25)):
        for kind in (np.float32, np.float16):
            a, b = kind(x0), kind(x1)
            assert (poles_in_rect(Rect(a, -1, b, 1), 40)
                    == poles_in_rect(Rect(float(a), -1, float(b), 1), 40)
                    != [])


@pytest.mark.filterwarnings("error")
def test_rect_checks_another_real_through_its_float():
    # A corner that is no int, float or Rational is refused as non-finite
    # where its float is inf or overflows; an int or a Fraction is compared
    # exactly, so one just past the largest double is refused too.
    np = pytest.importorskip("numpy")

    class Huge:
        def __float__(self):
            return float(10 ** 400)   # OverflowError

    numbers.Real.register(Huge)
    top = Fraction(sys.float_info.max)
    for corner in (np.longdouble("1e400"), Huge(), top + 1,
                   int(top) + 1):
        with pytest.raises(InvalidRegion, match="^non-finite corner in"):
            Rect(-1, -1, corner, 1)
    region = Rect(np.float32(-0.5), np.float16(-1), top, np.float32(1))
    assert type(region.x0) is np.float32 and region.x1 is top


def test_poles_next_to_a_limit_stop_early():
    # A corner on the double nearest 1 - sqrt(2), which lies outside the
    # rectangle: the exact hulls of the poles past |j| = 24 leave it, so
    # the cap 99,999 lists the 12 poles of the cap 60 without building the
    # exact locations of |j| up to 99,999 (about 400 MB of integers).
    out = fresh.run(
        "import time\n"
        "from pelleis import Rect, poles_in_rect\n"
        "from pelleis.sequence import SILVER_CONJUGATE\n"
        "region = Rect(SILVER_CONJUGATE, -1, 2, 1)\n"
        "start = time.perf_counter()\n"
        "poles = poles_in_rect(region, 99_999)\n"
        "seconds = time.perf_counter() - start\n"
        "with open('/proc/self/status') as status:\n"
        "    hwm = next(int(line.split()[1]) for line in status\n"
        "               if line.startswith('VmHWM:'))\n"
        "print(len(poles), poles == poles_in_rect(region, 60), seconds < 1,\n"
        "      hwm < 100 * 1024)\n")
    assert out == "12 True True True\n"


def test_pole_distance_to_limit_strictly_decreases():
    # Locations alternate around each limit; their distances to it shrink
    # strictly.  Checked exactly (no floats) on both sides.
    for j in range(2, 60):
        assert closer_to_sqrt2(dist_offset(pole_ratio(j + 1), False),
                               dist_offset(pole_ratio(j), False))
    for j in range(1, 60):
        assert closer_to_sqrt2(dist_offset(pole_ratio(-j - 1), True),
                               dist_offset(pole_ratio(-j), True))


def test_pole_locations_alternate_around_limit():
    # Consecutive steps change sign: p_{j+1} - p_j alternates.
    for j in range(1, 40):
        step = pole_ratio(j + 1) - pole_ratio(j)
        nxt = pole_ratio(j + 2) - pole_ratio(j + 1)
        assert step * nxt < 0


def test_pole_convergence_rate():
    assert abs(pole_ratio(40) - SILVER_CONJUGATE) < 1e-12
    assert abs(pole_ratio(-40) - SILVER_RATIO) < 1e-12


# ------------------------------------------------------------------- classify

def test_classify_exact_poles():
    for z, j in ((1.0, 0), (-1.0, 1), (3.0, -1)):
        got = classify(complex(z, 0.0))
        assert got.tag is DomainTag.POLE
        assert got.index == j
        assert not got.is_regular


def test_classify_near_pole():
    got = classify(complex(1.0 + 1e-8, 0.0))
    assert got.tag is DomainTag.NEAR_POLE
    assert got.index == 0
    assert got.distance == pytest.approx(1e-8, rel=1e-6)

    p8 = float(pole_ratio(-8))
    got = classify(complex(p8 + 1e-7, 0.0))
    assert got.tag is DomainTag.NEAR_POLE
    assert got.index == -8


def test_classify_near_accumulation():
    for limit in (SILVER_CONJUGATE, SILVER_RATIO):
        got = classify(complex(limit, 0.0))
        assert got.tag is DomainTag.NEAR_ACCUMULATION
        assert got.limit == limit
    # Nearest pole (j=-8, ~1.1e-5 away) is outside the pole tolerance, so
    # the accumulation tolerance still claims the point.
    got = classify(complex(2.4142, 0.0))
    assert got.tag is DomainTag.NEAR_ACCUMULATION
    assert got.limit == SILVER_RATIO


def test_classify_regular():
    for z in (complex(0.2, 2.0), complex(-3.0, -1.0), complex(0.0, 0.0)):
        got = classify(z)
        assert got.tag is DomainTag.REGULAR
        assert got.is_regular


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(complex(math.inf, 0.0))
    # An int beyond double range raised an untyped OverflowError.
    with pytest.raises(ValueError, match="^point must be finite"):
        classify(10**400)


def test_regular_points_evaluate(off_axis_points):
    # REGULAR classification is a usable convergence predicate.
    for z in off_axis_points[:20]:
        assert classify(z).is_regular
        res = eval_series(z, 2, 1e-8)
        assert res.tail_bound <= 1e-8


POLE_TOL, ACCUM_TOL, J_CAP = 1e-6, 1e-3, 60


def scan_classify(z):
    """Reference: classify as a plain scan of every pole |j| <= 60."""
    z = complex(z)
    best_d = math.inf
    best_j = 0
    best_exact = False
    for j in range(-J_CAP, J_CAP + 1):
        loc = float_pole(j)
        d = math.hypot(z.real - loc, z.imag)
        if d < best_d or (d == best_d and abs(j) < abs(best_j)):
            best_d = d
            best_j = j
            best_exact = z.imag == 0.0 and z.real == loc
    d_minus = abs(z - SILVER_CONJUGATE)
    d_plus = abs(z - SILVER_RATIO)
    d_acc, limit = ((d_minus, SILVER_CONJUGATE) if d_minus <= d_plus
                    else (d_plus, SILVER_RATIO))
    if d_acc < ACCUM_TOL and d_acc <= best_d:
        return DomainClass(DomainTag.NEAR_ACCUMULATION, limit=limit)
    if best_exact:
        return DomainClass(DomainTag.POLE, index=best_j)
    if best_d < POLE_TOL:
        return DomainClass(DomainTag.NEAR_POLE, index=best_j, distance=best_d)
    if d_acc < ACCUM_TOL:
        return DomainClass(DomainTag.NEAR_ACCUMULATION, limit=limit)
    return DomainClass(DomainTag.REGULAR)


def _offset(rng, tol):
    """A signed offset: zero, a hair either side of tol, or log-uniform."""
    kind = rng.randrange(4)
    if kind == 0:
        mag = 0.0
    elif kind == 1:
        mag = math.nextafter(tol, rng.choice((0.0, math.inf)))
    elif kind == 2:
        mag = tol * rng.choice((0.5, 0.999999, 1.0, 1.000001, 2.0))
    else:
        mag = 10.0 ** rng.uniform(-14, 1)
    return rng.choice((-1.0, 1.0)) * mag


def _classify_case(rng):
    tol = rng.choice((POLE_TOL, ACCUM_TOL))
    kind = rng.randrange(5)
    if kind == 0:      # about a pole, inside and beyond |j| <= 60
        x = float_pole(rng.randint(-95, 95)) + _offset(rng, tol)
        y = _offset(rng, POLE_TOL)
    elif kind == 1:    # about a limit
        x = rng.choice((SILVER_CONJUGATE, SILVER_RATIO)) + _offset(rng, tol)
        y = _offset(rng, rng.choice((POLE_TOL, ACCUM_TOL)))
    elif kind == 2:    # huge |z|
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(5, 307)
        y = rng.choice((0.0, _offset(rng, POLE_TOL),
                        10.0 ** rng.uniform(5, 307)))
    elif kind == 3:    # anywhere near the pole set
        x = rng.uniform(-4.0, 5.0)
        y = _offset(rng, tol)
    else:              # in the cluster at a limit, where float poles crowd
        x = (rng.choice((SILVER_CONJUGATE, SILVER_RATIO))
             + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17, -12))
        y = rng.choice((0.0, -0.0, rng.choice((-1.0, 1.0))
                        * 10.0 ** rng.uniform(-24, -6.01)))
    return complex(x, y)


def test_classify_equals_pole_scan_seeded():
    rng = random.Random(20261018)
    tags = set()
    for _ in range(100_000):
        z = _classify_case(rng)
        got = classify(z)
        assert got == scan_classify(z), z
        tags.add(got.tag)
    assert tags == set(DomainTag)


def test_classify_equals_pole_scan_at_exact_poles():
    for j in range(-95, 96):
        p = float_pole(j)
        for z in (complex(p, 0.0), complex(p, -0.0),
                  complex(math.nextafter(p, math.inf), 0.0),
                  complex(p, 1e-6), complex(p, math.nextafter(1e-6, 0.0))):
            assert classify(z) == scan_classify(z), z


@settings(max_examples=500)
@given(st.integers(-95, 95),
       st.sampled_from((POLE_TOL, ACCUM_TOL, 1e-2)),
       st.floats(-2.0, 2.0, allow_nan=False),
       st.floats(-2.0, 2.0, allow_nan=False))
def test_classify_equals_pole_scan_fuzzed(j, scale, u, v):
    # Offsets of up to twice POLE_TOL or ACCUM_TOL (or 0.02) from p_j.
    z = complex(float_pole(j) + scale * u, scale * v)
    assert classify(z) == scan_classify(z)
