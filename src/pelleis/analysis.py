"""Pole locations of the series terms and domain classification.

Term j contributes a simple real pole at p_j = -Q_{j-1}/Q_j.  The locations
converge to 1 - sqrt(2) as j -> +inf and to 1 + sqrt(2) as j -> -inf,
alternating around the limit with strictly shrinking distance, so the two
limits are the only accumulation points of the pole set.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from functools import cache

from .errors import IndexCapExceeded, require_int, require_type
from .evaluator import _limit_distances
from .geometry import Rect
from .sequence import (INDEX_CAP, SILVER_CONJUGATE, SILVER_RATIO, float_pole,
                       pole_ratio)

POLE_TOL = 1e-6     # classify: NEAR_POLE within this of a pole
ACCUM_TOL = 1e-3    # classify: NEAR_ACCUMULATION within this of 1 +/- sqrt(2)
DEFAULT_J_CAP = 60  # poles |j| <= DEFAULT_J_CAP are mapped and classified


def accumulation_points() -> tuple[float, float]:
    """(1 - sqrt(2), 1 + sqrt(2)) as correctly rounded doubles."""
    return (SILVER_CONJUGATE, SILVER_RATIO)


class Pole(namedtuple("Pole", "index location location_float")):
    """One term pole: exact rational location plus its rounded double."""

    __slots__ = ()


class DomainTag(Enum):
    REGULAR = "regular"
    POLE = "pole"
    NEAR_POLE = "near-pole"
    NEAR_ACCUMULATION = "near-accumulation"


class DomainClass(namedtuple("DomainClass", "tag index distance limit",
                             defaults=(None, None, None))):
    """Classification of a point against the pole set: the pole index for
    POLE and NEAR_POLE, the distance to that pole for NEAR_POLE, and the
    accumulation point for NEAR_ACCUMULATION; None where it does not apply."""

    __slots__ = ()

    @property
    def is_regular(self) -> bool:
        return self.tag is DomainTag.REGULAR


_REGULAR = DomainClass(DomainTag.REGULAR)


def poles_in_rect(region: Rect, j_cap: int = DEFAULT_J_CAP) -> list[Pole]:
    """All poles with |j| <= j_cap inside the closed region, by location.

    Containment is decided on the exact rational location (the poles are
    real, so a region that misses the real axis holds none).  Pole -j_cap
    reads Q_{-j_cap-1}, so j_cap is at most INDEX_CAP - 1; a larger one
    raises IndexCapExceeded before the sequence table grows.

    Each side, j >= 0 and j < 0, is scanned outward from j = 0.  Its poles
    alternate around its limit with shrinking steps, so the hull of p_n and
    p_(n+1) holds every pole from |j| = n on (n >= 1 for j < 0).  A hull
    outside [x0, x1], compared exactly, ends the side; one inside gives
    every pole up to j_cap untested.  So a region that holds neither
    accumulation point 1 -/+ sqrt(2) costs a few dozen exact poles at any
    j_cap; one that holds a limit lists about j_cap poles.
    """
    require_type("region", region, Rect)
    require_int("j_cap", j_cap, 0)
    if j_cap > INDEX_CAP - 1:
        raise IndexCapExceeded(j_cap, INDEX_CAP - 1, "j_cap")
    if not region.y0 <= 0 <= region.y1:
        return []
    x0, x1 = _exact(region.x0), _exact(region.x1)
    found = []
    for sign, first in ((1, 0), (-1, 1)):
        prev = None
        for n in range(first, j_cap + 1):
            loc = pole_ratio(sign * n)
            if prev is not None:
                # The hull of p_(n-1) and p_n holds every pole from n - 1 on.
                lo, hi = (prev, loc) if prev < loc else (loc, prev)
                if hi < x0 or lo > x1:
                    break
                if x0 <= lo and hi <= x1:
                    found += (Pole(sign * i, pole_ratio(sign * i),
                                   float_pole(sign * i))
                              for i in range(n, j_cap + 1))
                    break
            if x0 <= loc <= x1:
                found.append(Pole(sign * n, loc, float_pole(sign * n)))
            prev = loc
    found.sort(key=lambda p: _pole_order(p.index))
    return found


def _exact(x) -> "Fraction":
    """x as a Fraction; through float if Fraction() refuses it (float32)."""
    from fractions import Fraction  # on first use, as in pole_ratio
    try:
        return Fraction(x)
    except TypeError:
        return Fraction(float(x))


def _pole_order(j: int) -> tuple:
    """The key that sorts poles by location.  Poles j >= 0 lie in [-1, 1]
    and poles j < 0 in [7/3, 3], each side converging to its limit with
    alternating sign and shrinking distance: odd j >= 1 ascend toward
    1 - sqrt(2) and even j >= 0 descend toward it from p_0 = 1, and j < 0
    mirror them, p_{-j} = 2 - p_j, so even j < 0 ascend toward 1 + sqrt(2)
    and odd j < 0 descend toward it from p_{-1} = 3."""
    from_above = (j % 2 == 0) == (j >= 0)
    return (j < 0, from_above, -abs(j) if from_above else abs(j))


@cache
def _pole_table() -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The distinct float locations p_j for |j| <= DEFAULT_J_CAP, ascending,
    and for each the index classify reports there: the smallest |j| at that
    location, and the negative j when |j| ties."""
    index = {}
    for j in sorted(range(-DEFAULT_J_CAP, DEFAULT_J_CAP + 1),
                    key=lambda j: (abs(j), j)):
        index.setdefault(float_pole(j), j)
    return tuple(zip(*sorted(index.items())))


def classify(z: complex) -> DomainClass:
    """Tag z as REGULAR, POLE, NEAR_POLE or NEAR_ACCUMULATION.

    NEAR_POLE means within POLE_TOL (1e-6) of a pole p_j, |j| <= 60, and
    NEAR_ACCUMULATION within ACCUM_TOL (1e-3) of 1 +/- sqrt(2).  The
    nearest feature wins; among equidistant poles the smallest |j|
    wins (the negative j when |j| ties), and a pole that ties an
    accumulation point defers to it (for large |j| the rounded locations
    merge with the limit and are not distinguishable in double precision).

    The nearest pole is found by one search: a bisection of the ascending
    pole table for x, then the neighbours on each side, widening outward.
    The poles are real, so the distance to p, hypot(x - p, y), is never
    below |x - p|, and |x - p| cannot shrink as p moves outward from x
    (float subtraction is monotone).  Once |x - p| exceeds the nearest
    distance found, no pole further out on that side can be nearer or tie
    it; on the axis the search widens only while the distance ties.  A
    point at least POLE_TOL off the axis and ACCUM_TOL from both limits is
    REGULAR at once, as every pole is at least |y| away.
    """
    z, d_minus, d_plus = _limit_distances(z)
    x, y = z.real, z.imag
    if abs(y) >= POLE_TOL and min(d_minus, d_plus) >= ACCUM_TOL:
        return _REGULAR

    locations, indices = _pole_table()
    i = bisect_left(locations, x)
    best = (math.inf, 0, 0)  # (distance, |j|, j), least first
    for side in (range(i, len(locations)), range(i - 1, -1, -1)):
        for n in side:
            dx = x - locations[n]
            if abs(dx) > best[0]:
                break
            j = indices[n]
            best = min(best, (math.hypot(dx, y), abs(j), j))
    best_d, _, best_j = best

    d_acc, limit = ((d_minus, SILVER_CONJUGATE) if d_minus <= d_plus
                    else (d_plus, SILVER_RATIO))

    # A limit at least as near as the nearest pole wins, and so does one
    # within ACCUM_TOL when no pole is within POLE_TOL.
    if d_acc < ACCUM_TOL and (d_acc <= best_d or best_d >= POLE_TOL):
        return DomainClass(DomainTag.NEAR_ACCUMULATION, limit=limit)
    if best_d == 0.0:  # z is the pole itself
        return DomainClass(DomainTag.POLE, index=best_j)
    if best_d < POLE_TOL:
        return DomainClass(DomainTag.NEAR_POLE, index=best_j, distance=best_d)
    return _REGULAR
