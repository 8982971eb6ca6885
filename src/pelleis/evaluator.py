"""Numerical evaluation of the bilateral sum of (Q_j z + Q_{j-1})^(-m).

Terms die off like |Q_j|^(-m) once z stays away from the real poles
-Q_{j-1}/Q_j, so a symmetric window |j| <= J plus a certified tail bound
gives an evaluation with a machine-checkable error estimate.  The bound
rests on two consequences of the recurrence:

* Q_{n+1} >= 2 Q_n > 0 for n >= 1, hence |Q_j| >= Q_J * 2^(|j| - J)
  whenever |j| >= J >= 1.

* Q_{j-1} Q_{j+1} - Q_j^2 = 8 (-1)^(j-1), hence consecutive pole
  locations p_j = -Q_{j-1}/Q_j step in alternating directions with
  strictly shrinking step sizes.  Every pole beyond the window edge
  therefore lies inside the closed interval spanned by the next two
  poles p_{J+1}, p_{J+2} (and likewise on the negative side).

Writing d+ and d- for the distances from z to those two intervals,

    tail(J)  <=  (d+^-m + d-^-m) * Q_J^-m * 2^-m / (1 - 2^-m).

Interval endpoints are rounded outward and small multiplicative slack
absorbs float rounding, so the computed bound stays a true upper bound.
Distances <= 0 (z inside an interval hull) and bounds beyond double range
yield the MaxReal sentinel inf.

The computed bound never grows with the window: tail_bound(J + 1, z, m)
<= tail_bound(J, z, m) for J >= 2, and it is inf only on a prefix of
windows.  Write u = 2^-53.

* The float hulls nest.  p_{J+3} lies between p_{J+1} and p_{J+2}, and
  float_pole rounds correctly, so by monotone rounding the rounded
  p_{J+3} lies between the rounded p_{J+1} and p_{J+2}; widened outward by
  one ulp each, the hull of window J + 1 lies inside that of window J.
  The offset of z.real from a hull is one subtraction from an endpoint,
  so it does not shrink either; hypot and the shave move d by a few ulps.

* The margin is 2^m.  Q_{J+1} >= 2 Q_J, so 1/Q_{J+1} <= (1/Q_J) / 2 up to
  one rounding each.  With d+ and d- not shrinking, the formula above at
  J + 1 is at most 2^-m times its value at J.  Both ways tail_bound
  evaluates it, d^-m * (1/Q_J)^m and the fallback (1/Q_J / d)^m (with
  2^-m folded into the base where it underflows), carry a relative error
  of at most (1 + c u)^m for a small constant c, because a power
  multiplies the relative error of its base by m; a switch between the
  two ways from J to J + 1 is covered alike.  (1 + c u)^(2m) < 2^m for
  every m, so the computed bound falls from J to J + 1, by at least
  2^m (1 - 1e-9) while it is above its floor (tested in
  tests/test_evaluator.py).

* Overflow and underflow.  The hulls lie more than 2.8 apart, so one of
  d+, d- exceeds 1.4 and its power is below 1: the first way never leaves
  double range, and neither the sum nor the product with 1/Q_J^m < 1 can
  overflow.  The fallback overflows (inf) at J + 1 only if its power is
  beyond range there, and it is larger by the 2^m margin at J.  Results
  below the smallest normal double, the only ones whose relative error
  is not small, lie below the 2e-300 floor, and max(bound, floor) keeps
  the order.

* inf at J + 1 therefore comes from an overflow, which overflows at J as
  well, or from a distance <= 0: z real and inside hull J + 1, hence
  inside hull J.

_Series.extend relies on this order: the windows whose bound meets a
tolerance form a suffix, so it searches for the first of them instead of
checking every window in turn.

All summation goes through one resumable kernel, _Series: eval_series
builds one and extends it once, and verify.residual keeps one per side and
extends it to each refined tolerance, so a refinement continues the window
sum where the previous tolerance stopped it instead of restarting at j = 0.
The kernel adds each term with a branch-free complex TwoSum, and each term
reads Q_j, Q_{j-1} and its guard radius from one cached row of the float
table (sequence.float_row).
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from dataclasses import dataclass

from .errors import (DidNotConverge, IndexCapExceeded, PoleProximity,
                     require_int, require_type)
from .geometry import Rect
from .sequence import (INDEX_CAP, POLE_GUARD, SILVER_CONJUGATE, SILVER_RATIO,
                       float_pole, float_row, float_window)
from .sequence import pell_lucas, pole_ratio  # unused; perfbench wraps them

DEFAULT_TARGET_TOL = 1e-12
DEFAULT_MAX_HALF_WIDTH = 200

MIN_TAIL_HALF_WIDTH = 2   # containment interval needs poles J+1, J+2
_MAX_TAIL_HALF_WIDTH = INDEX_CAP - 3  # pole -J-2 reads Q_{-J-3}
_DIST_SHAVE = 1.0 - 1e-12      # deflate distances against rounding
_BOUND_SLACK = 1.0 + 1e-9      # inflate the bound against rounding
_BOUND_FLOOR = 2e-300          # stay clear of subnormal arithmetic
_MIN_NORMAL = sys.float_info.min
_LOG_SILVER = math.log(SILVER_RATIO)   # Q_{J+1} / Q_J tends to 1 + sqrt(2)


@dataclass(frozen=True)
class EvalSettings:
    """Tolerance and window cap of adaptive summation."""

    target_tol: float = DEFAULT_TARGET_TOL
    max_half_width: int = DEFAULT_MAX_HALF_WIDTH

    def __post_init__(self):
        # The type is tested first: a str or None cannot be compared with 0.
        if (isinstance(self.target_tol, bool)
                or not isinstance(self.target_tol, (int, float))
                or not (self.target_tol > 0
                        and math.isfinite(self.target_tol))):
            raise ValueError("target_tol must be a positive finite float")
        if self.target_tol < _BOUND_FLOOR:
            raise ValueError(f"target_tol must be at least {_BOUND_FLOOR!r}, "
                             "the floor of tail_bound")
        # A bool is an int below 4, so it is refused as well.
        if not isinstance(self.max_half_width, int) or self.max_half_width < 4:
            raise ValueError("max_half_width must be an integer >= 4")


_DEFAULT_SETTINGS = EvalSettings()


def _require_settings(settings) -> EvalSettings:
    """settings itself, or the defaults for None; anything else raises
    ValueError."""
    if settings is None:
        return _DEFAULT_SETTINGS
    if not isinstance(settings, EvalSettings):
        raise ValueError(
            f"settings must be an EvalSettings or None, got {settings!r}")
    return settings


@dataclass(frozen=True)
class EvalResult:
    """value = minus_part + plus_part exactly (one IEEE addition)."""

    value: complex
    minus_part: complex    # indices j <= 0
    plus_part: complex     # indices j >= 1
    tail_bound: float
    terms_used: int        # final half-width J


def _require_weight(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValueError(f"weight must be an integer >= 2, got {m!r}")


def _require_point(z) -> complex:
    """z as a complex number; a non-number or a non-finite point raises
    ValueError."""
    try:
        if isinstance(z, str):  # complex() would parse it
            raise TypeError
        z = complex(z)
    except TypeError:
        raise ValueError(f"point must be a number, got {z!r}") from None
    if not isfinite(z):
        raise ValueError(f"point must be finite, got {z!r}")
    return z


def _require_half_width(half_width) -> None:
    require_int("half_width", half_width)
    if half_width < MIN_TAIL_HALF_WIDTH:
        raise ValueError(
            f"tail bound needs half_width >= {MIN_TAIL_HALF_WIDTH}")
    if half_width > _MAX_TAIL_HALF_WIDTH:
        raise IndexCapExceeded(half_width, _MAX_TAIL_HALF_WIDTH, "half_width")


def term_value(j: int, z: complex, m: int) -> complex:
    """One term (Q_j z + Q_{j-1})^(-m) in double precision.

    Q_j, Q_{j-1} and the guard radius POLE_GUARD * |Q_j| come from one
    cached row of the float table (sequence.float_row).  The reciprocal is
    taken first and powered by repeated multiplication, so huge |Q_j|
    underflows gracefully to 0 instead of overflowing.  Raises
    PoleProximity when |Q_j z + Q_{j-1}| < POLE_GUARD * |Q_j|, i.e. when z
    is within POLE_GUARD (1e-8) of the term's pole, or so close that the
    m-th power overflows.
    """
    # A type test passes the common arguments; the rest get the full checks.
    if not (m.__class__ is int and m >= 2):
        _require_weight(m)
    if not (z.__class__ is complex and isfinite(z)):
        z = _require_point(z)
    row = float_row(j)
    if row is None:
        # |Q_j| beyond double range: the term is zero unless z sits
        # essentially on the pole.
        if abs(z - float_pole(j)) < POLE_GUARD:
            raise PoleProximity(j, z)
        return 0j
    fj, fjm1, radius = row
    w = fj * z + fjm1
    if abs(w) < radius:
        raise PoleProximity(j, z)
    r = 1.0 / w
    out = r
    for _ in range(m - 1):
        out *= r
    if not isfinite(out):
        raise PoleProximity(j, z)
    return out


def tail_bound(half_width: int, z: complex, m: int) -> float:
    """Certified upper bound on the sum of |terms| with |j| > half_width.

    Returns math.inf (the MaxReal sentinel) when z touches one of the
    pole containment intervals, i.e. when no finite bound is available.
    The hulls read Q_n for |n| <= half_width + 3, so a half_width above
    INDEX_CAP - 3 raises IndexCapExceeded before the table grows.
    """
    # A type test passes the common arguments; the rest get the full checks.
    if not (m.__class__ is int and m >= 2):
        _require_weight(m)
    if not (z.__class__ is complex and isfinite(z)):
        z = _require_point(z)
    if not (half_width.__class__ is int
            and MIN_TAIL_HALF_WIDTH <= half_width <= _MAX_TAIL_HALF_WIDTH):
        _require_half_width(half_width)
    lo_p, hi_p, lo_n, hi_n, q_inv = float_window(half_width)
    # Distances from z to the two hulls.
    x, y = z.real, z.imag
    dx = lo_p - x if x < lo_p else (x - hi_p if x > hi_p else 0.0)
    d_pos = math.hypot(dx, y) * _DIST_SHAVE
    dx = lo_n - x if x < lo_n else (x - hi_n if x > hi_n else 0.0)
    d_neg = math.hypot(dx, y) * _DIST_SHAVE
    if d_pos <= 0.0 or d_neg <= 0.0:
        return math.inf
    geo = 2.0 ** (-m) / (1.0 - 2.0 ** (-m))
    half = 1.0
    if geo == 0.0:  # 2^-m underflows for m > 1074: halve each base instead
        geo, half = 1.0, 0.5
    q_pow = q_inv ** m
    bound = None
    if q_pow >= _MIN_NORMAL:
        try:
            bound = (d_pos ** (-m) + d_neg ** (-m)) * q_pow
        except OverflowError:  # d ** -m left double range
            pass
    if bound is None:  # q_inv ** m underflowed or d ** -m overflowed
        try:
            bound = (q_inv / d_pos * half) ** m + (q_inv / d_neg * half) ** m
        except OverflowError:
            return math.inf
    bound = bound * geo * _BOUND_SLACK
    if not isfinite(bound):
        return math.inf
    return max(bound, _BOUND_FLOOR)


def _stopping_window(z: complex, m: int, lo: int, target_tol: float,
                     max_half_width: int) -> tuple[int, float]:
    """(J, tail_bound(J)) for the first J in [lo, max_half_width] with
    tail_bound(J) <= target_tol, or for J = max_half_width if none is.

    tail_bound is non-increasing in J (module docstring), so the windows
    that meet the tolerance form a suffix of the range, and its first
    window can be searched for.  Each failing probe predicts the next
    from a fall of (1 + sqrt(2))^m per window, or doubles its distance
    from lo while the bound is inf.  A passing probe is confirmed by its
    lower neighbour, then by bisection if that passes as well.  Only
    windows in [lo, max_half_width] are probed.
    """
    bad = lo - 1    # the windows up to bad fail (or lie below the range)
    j = lo
    while True:
        b = tail_bound(j, z, m)
        if b <= target_tol:
            break
        if j >= max_half_width:
            return j, b
        bad = j
        if b == math.inf:
            j += j - lo + 1
        else:
            j += max(1, math.ceil((math.log(b) - math.log(target_tol))
                                  / (m * _LOG_SILVER)))
        j = min(j, max_half_width)
    good, good_b = j, b
    j = good - 1
    while j > bad:
        b = tail_bound(j, z, m)
        if b <= target_tol:
            good, good_b = j, b
        else:
            bad = j
        j = (bad + good) // 2
    return good, good_b


class _Series:
    """Resumable adaptive summation of S_m(z): the one summation kernel.

    Terms are accumulated in two compensated sums (j <= 0 and j >= 1) in a
    fixed interleaved order: j = 0, then +J and -J for J = 1, 2, ...  Each
    is a complex sum s and correction c, and a term v is added by Knuth's
    branch-free TwoSum: t = s + v; e = t - s; c += (s - (t - e)) + (v - e);
    s = t.  Complex + and - act on each part alone, and while t is finite
    the added correction is exactly the rounding error s + v - t, the
    number Neumaier's branch on |s| >= |v| computes, so s and c hold the bits
    of a Neumaier sum of each part (Knuth, TAOCP vol. 2, 4.2.2).  The one
    exception is a spurious overflow (Boldo, Graillat and Muller 2017): e
    overflows only when a part of v is the largest double and t rounds at
    a tie; c then turns NaN where Neumaier's stays finite, and the
    evaluation raises DidNotConverge.

    extend() grows the window from the level reached so far, so asking
    again with a tighter tolerance (and the same max_half_width) adds
    exactly the terms, in the same order, and stops at the same window that
    a restart from j = 0 would; the result is the same to the bit.
    """

    # _sums: running sum and correction of the j <= 0 sum (suffix _m) and
    # of the j >= 1 sum (suffix _p), four complex numbers.
    __slots__ = ("z", "m", "level", "bound", "_sums")

    def __init__(self, z: complex, m: int):
        # The type test of term_value passes the common arguments.
        if not (m.__class__ is int and m >= 2):
            _require_weight(m)
        if not (z.__class__ is complex and isfinite(z)):
            z = _require_point(z)
        acc_dist = min(abs(z - SILVER_CONJUGATE), abs(z - SILVER_RATIO))
        if acc_dist <= POLE_GUARD:
            raise DidNotConverge(0, math.inf, point=z)
        self.z = z
        self.m = m
        self.level = 0
        self.bound = math.inf
        # A compensated sum started at 0 holds 0 + v, with no correction,
        # after its first finite term.
        self._sums = (0j + term_value(0, z, m), 0j, 0j, 0j)

    def extend(self, target_tol: float, max_half_width: int) -> EvalResult:
        """The result at the first window J >= 2 whose tail bound is
        <= target_tol, summing on from the level already reached.

        J is found first, by _stopping_window, among the windows past the
        level reached; then exactly the terms up to J are added, with no
        bound check between them.  tail_bound neither raises nor has side
        effects for the series' point and weight, so a term's
        PoleProximity is raised at the same term as by a scan that checks
        the bound after every window.  A tolerance that the
        reached window's bound already meets returns that window's result
        without adding terms.  Raises as eval_series.
        """
        z, m = self.z, self.m
        level, bound = self.level, self.bound
        s_m, c_m, s_p, c_p = self._sums
        if level < MIN_TAIL_HALF_WIDTH or bound > target_tol:
            lo = max(level + 1, MIN_TAIL_HALF_WIDTH)
            if lo > max_half_width:
                raise DidNotConverge(level, bound, point=z)
            stop, bound = _stopping_window(z, m, lo, target_tol,
                                           max_half_width)
            for level in range(level + 1, stop + 1):
                v = term_value(level, z, m)
                t = s_p + v
                e = t - s_p
                c_p += (s_p - (t - e)) + (v - e)
                s_p = t
                v = term_value(-level, z, m)
                t = s_m + v
                e = t - s_m
                c_m += (s_m - (t - e)) + (v - e)
                s_m = t
            if bound > target_tol:
                raise DidNotConverge(level, bound, point=z)
            self.level, self.bound = level, bound
            self._sums = (s_m, c_m, s_p, c_p)

        minus_part = s_m + c_m
        plus_part = s_p + c_p
        value = minus_part + plus_part
        if not isfinite(value):
            raise DidNotConverge(level, math.inf, point=z)
        return EvalResult(
            value=value,
            minus_part=minus_part,
            plus_part=plus_part,
            tail_bound=bound,
            terms_used=level,
        )


def eval_series(z: complex, m: int,
                settings: EvalSettings | None = None) -> EvalResult:
    """Adaptive evaluation of the full bilateral series at z with weight m.

    Terms are accumulated in two compensated sums (j <= 0 and j >= 1) in a
    fixed interleaved order, so results are bit-reproducible.  The window
    is the first J >= 2 with tail_bound(J, z, m) <= target_tol.  The bound
    never grows with J, so J is searched for with a few bound checks
    before any term is summed.

    Raises PoleProximity when a term denominator nearly vanishes or a term
    overflows, and DidNotConverge when the bound cannot reach the tolerance
    (immediately so within POLE_GUARD of the accumulation points
    1 +/- sqrt(2), where poles cluster and the bound stays at the sentinel
    forever) or when finite terms sum past double range (half_width is then
    the window reached, tail_bound inf).
    """
    s = _require_settings(settings)
    return _Series(z, m).extend(s.target_tol, s.max_half_width)


def eval_grid(region: Rect, nx: int, ny: int, m: int,
              settings: EvalSettings | None = None):
    """Evaluate at every cell center of an nx-by-ny lattice over region.

    Returns a row-major list of (point, EvalResult-or-error); per-point
    PoleProximity/DidNotConverge are recorded, not raised.
    """
    require_type("region", region, Rect)
    settings = _require_settings(settings)
    out = []
    for z in region.cell_centers(nx, ny):
        try:
            out.append((z, eval_series(z, m, settings)))
        except (PoleProximity, DidNotConverge) as exc:
            out.append((z, exc))
    return out
