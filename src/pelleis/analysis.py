"""Pole locations of the series terms and domain classification.

Term j contributes a simple real pole at p_j = -Q_{j-1}/Q_j.  The locations
converge to 1 - sqrt(2) as j -> +inf and to 1 + sqrt(2) as j -> -inf,
alternating around the limit with strictly shrinking distance, so the two
limits are the only accumulation points of the pole set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

from .errors import IndexCapExceeded, require_int
from .evaluator import MIN_TAIL_HALF_WIDTH, _require_point
from .geometry import Rect
from .sequence import (INDEX_CAP, SILVER_CONJUGATE, SILVER_RATIO, float_pole,
                       float_window, pole_ratio)

POLE_TOL = 1e-6     # classify: NEAR_POLE within this of a pole
ACCUM_TOL = 1e-3    # classify: NEAR_ACCUMULATION within this of 1 +/- sqrt(2)
DEFAULT_J_CAP = 60  # poles |j| <= DEFAULT_J_CAP are mapped and classified


def accumulation_points() -> tuple[float, float]:
    """(1 - sqrt(2), 1 + sqrt(2)) as correctly rounded doubles."""
    return (SILVER_CONJUGATE, SILVER_RATIO)


@dataclass(frozen=True)
class Pole:
    """One term pole: exact rational location plus its rounded double."""

    index: int
    location: Fraction
    location_float: float


class DomainTag(Enum):
    REGULAR = "regular"
    POLE = "pole"
    NEAR_POLE = "near-pole"
    NEAR_ACCUMULATION = "near-accumulation"


@dataclass(frozen=True)
class DomainClass:
    """Classification of a point against the pole set."""

    tag: DomainTag
    index: int | None = None       # pole index for POLE / NEAR_POLE
    distance: float | None = None  # distance to that pole for NEAR_POLE
    limit: float | None = None     # accumulation point for NEAR_ACCUMULATION

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

    Each side, j >= 0 and j < 0, is scanned outward from j = 0 and stops
    once the outward-rounded float hull of the poles beyond |j| = n
    (sequence.float_window(n), n >= MIN_TAIL_HALF_WIDTH) lies strictly
    outside [x0, x1], so a region that holds neither accumulation point
    1 -/+ sqrt(2) costs a few dozen exact poles at any j_cap.  A region
    that holds one has about j_cap poles inside it and lists them all.
    """
    require_int("j_cap", j_cap)
    if j_cap < 0:
        raise ValueError("j_cap must be nonnegative")
    if j_cap > INDEX_CAP - 1:
        raise IndexCapExceeded(j_cap, INDEX_CAP - 1, "j_cap")
    if not region.y0 <= 0 <= region.y1:
        return []
    found = []
    for sign, first in ((1, 0), (-1, 1)):
        for n in range(first, j_cap + 1):
            # float_window(n - 1) holds every pole from index sign * n on
            # and reads Q up to index n + 1 and down to -n - 2.
            if MIN_TAIL_HALF_WIDTH < n <= INDEX_CAP - 2:
                w = float_window(n - 1)
                lo, hi = w[:2] if sign > 0 else w[2:4]
                if hi < region.x0 or lo > region.x1:
                    break
            loc = pole_ratio(sign * n)
            if region.contains(loc, 0):
                found.append(Pole(sign * n, loc, float_pole(sign * n)))
    found.sort(key=lambda p: (p.location, abs(p.index)))
    return found


@cache
def _sorted_poles() -> tuple[float, ...]:
    """The float locations p_j for |j| <= DEFAULT_J_CAP, ascending."""
    return tuple(sorted(map(float_pole,
                            range(-DEFAULT_J_CAP, DEFAULT_J_CAP + 1))))


def _clear_of_poles(z: complex) -> bool:
    """True when z is at least POLE_TOL from every pole p_j, |j| <= 60.

    hypot(x - p, y) >= max(|x - p|, |y|) for every pole, so it suffices
    that |y| or the distance from x to the nearest location (found by
    bisection, as float subtraction is monotone) reaches POLE_TOL.  False
    means undecided, not near.
    """
    if abs(z.imag) >= POLE_TOL:
        return True
    poles = _sorted_poles()
    x = z.real
    i = bisect_left(poles, x)
    dx = math.inf
    if i < len(poles):
        dx = poles[i] - x
    if i > 0:
        dx = min(dx, x - poles[i - 1])
    return dx >= POLE_TOL


def classify(z: complex) -> DomainClass:
    """Tag z as REGULAR, POLE, NEAR_POLE or NEAR_ACCUMULATION.

    NEAR_POLE means within POLE_TOL (1e-6) of a pole p_j, |j| <= 60, and
    NEAR_ACCUMULATION within ACCUM_TOL (1e-3) of 1 +/- sqrt(2).  The
    nearest feature wins; among equidistant poles the smallest |j|
    wins, and a pole that ties an accumulation point defers to it (for
    large |j| the rounded locations merge with the limit and are not
    distinguishable in double precision).  A point at least ACCUM_TOL from
    both limits and clear of every pole by a bisection of the sorted pole
    locations is REGULAR at once; every other point is settled by a scan
    of all poles.
    """
    z = _require_point(z)
    d_minus = abs(z - SILVER_CONJUGATE)
    d_plus = abs(z - SILVER_RATIO)
    if min(d_minus, d_plus) >= ACCUM_TOL and _clear_of_poles(z):
        return _REGULAR

    best_d = math.inf
    best_j = 0
    best_exact = False
    for j in range(-DEFAULT_J_CAP, DEFAULT_J_CAP + 1):
        loc = float_pole(j)
        d = math.hypot(z.real - loc, z.imag)
        if d < best_d or (d == best_d and abs(j) < abs(best_j)):
            best_d = d
            best_j = j
            best_exact = z.imag == 0.0 and z.real == loc

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
    return _REGULAR
