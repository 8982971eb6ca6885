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

_sum_window relies on this order: the windows whose bound meets a
tolerance form a suffix, so it searches for the first of them instead of
checking every window in turn.  The search (_stopping_window) starts from
a closed-form guess: the formula above with Q_J ~ (1 + sqrt(2))^J, and d+
and d- replaced by the distances from z to 1 -/+ sqrt(2), which every hull
contains.  A window J whose bound b meets the tolerance with
b * 2^m * (1 - 2e-9) still above it is the first such window, by the 2^m
fall proven above, so the window below it is not probed; most evaluations
make one bound check.  The search needs no cap: past the table's last
level the hulls lie one ulp either side of 1 -/+ sqrt(2) and 1/Q = 0, so
the bound of window _LAST_WINDOW = LAST_LEVEL + 1 is the 2e-300 floor at
every point _checked_start admits (more than POLE_GUARD from both limits),
and no tolerance is below it (_require_tol, verify's 1e-250 floor).

Every window sum finds its window J first, adds exactly the terms up to
J and forms and checks its value, in one function, _sum_window.
eval_series checks its weight and point once (_checked_start) and sums
from j = 0, building no series object.  verify._residual keeps one
resumable _Series per side, extends it to each refined tolerance and
reads the bounds and windows off the series, so a refinement continues
the window sum where the previous tolerance stopped it, and builds no
result.  _sum_window fetches the levels of its window
(sequence.float_table: Q_j, Q_{j-1} and the guard radius of terms +j and
-j) once and adds each side's terms in one pass of _add_terms: +1 .. +J
to the j >= 1 sum, then 0, -1 .. -J to the j <= 0 sum, each with a
branch-free complex TwoSum; past level LAST_LEVEL - 1 every term is an
exact zero, and none is added.  term_value sums its one term through
_add_terms, so the term arithmetic has one copy.
"""

import math
import sys
from cmath import isfinite
from collections import namedtuple
from functools import lru_cache

from .errors import (DidNotConverge, IndexCapExceeded, PoleProximity,
                     require_int, require_type, shown)
from .sequence import (INDEX_CAP, LAST_LEVEL, POLE_GUARD, SILVER_CONJUGATE,
                       SILVER_RATIO, float_pole, float_row, float_table,
                       float_window)
from .sequence import pell_lucas, pole_ratio  # unused; perfbench wraps them

DEFAULT_TARGET_TOL = 1e-12
MAX_WEIGHT = 1 << 16   # a term takes m - 1 multiplications

MIN_TAIL_HALF_WIDTH = 2   # containment interval needs poles J+1, J+2
_LAST_WINDOW = LAST_LEVEL + 1  # 1/Q = 0: every search ends here
_DIST_SHAVE = 1.0 - 1e-12      # deflate distances against rounding
_BOUND_SLACK = 1.0 + 1e-9      # inflate the bound against rounding
_BOUND_FLOOR = 2e-300          # stay clear of subnormal arithmetic
_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max
_LOG_SILVER = math.log(SILVER_RATIO)   # Q_{J+1} / Q_J tends to 1 + sqrt(2)
_LOG_TWO = math.log(2.0)
_FALL_SLACK = 1.0 - 2e-9       # below the proven 1 - 1e-9 of the 2^m fall


def _require_tol(target_tol) -> None:
    """Refuse a tolerance that is not a positive finite float (an int is
    taken, a bool is not) or that lies below tail_bound's 2e-300 floor."""
    # One type test passes the common case; the rest gets the full rules.
    if (target_tol.__class__ is float
            and _BOUND_FLOOR <= target_tol <= _MAX_FLOAT):
        return
    # The type is tested first: a str or None cannot be compared with 0.
    # The range is compared, not converted to float, so that an int beyond
    # double range is refused as well.
    if (isinstance(target_tol, bool)
            or not isinstance(target_tol, (int, float))
            or not 0 < target_tol <= _MAX_FLOAT):
        raise ValueError("target_tol must be a positive finite float")
    if target_tol < _BOUND_FLOOR:
        raise ValueError(f"target_tol must be at least {_BOUND_FLOOR!r}, "
                         "the floor of tail_bound")


class EvalResult(namedtuple("EvalResult", "value minus_part plus_part "
                                          "tail_bound terms_used")):
    """value = minus_part + plus_part exactly (one IEEE addition); the
    minus part sums the indices j <= 0, the plus part j >= 1, and
    terms_used is the final half-width J."""

    __slots__ = ()


def _require_weight(m) -> None:
    if not (m.__class__ is int and 2 <= m <= MAX_WEIGHT):
        require_int("weight", m, 2, MAX_WEIGHT)


def _modulus(w: complex) -> float:
    """abs(w), or inf where it raises OverflowError (finite parts)."""
    try:
        return abs(w)
    except OverflowError:
        return math.inf


def _require_point(z) -> complex:
    """z as a complex number with finite parts; a non-number (text
    included) or a part that is inf or nan raises ValueError.  A modulus
    beyond double range is refused only where the modulus is used
    (_limit_distances); term_value and tail_bound take it."""
    if z.__class__ is complex and isfinite(z):
        return z
    try:
        if isinstance(z, str):  # complex() would parse it
            raise TypeError
        z = complex(z)
    except TypeError:
        raise ValueError(f"point must be a number, got {shown(z)}") from None
    except OverflowError:  # an int or Fraction beyond double range
        raise ValueError(f"point must be finite, got {shown(z)}") from None
    if not isfinite(z):
        raise ValueError(f"point must be finite, got {shown(z)}")
    return z


def _limit_distances(z) -> tuple[complex, float, float]:
    """z checked by _require_point, and its distances to 1 - sqrt(2) and
    1 + sqrt(2); a distance beyond double range raises the ValueError of
    _require_point."""
    z = _require_point(z)
    try:
        return z, abs(z - SILVER_CONJUGATE), abs(z - SILVER_RATIO)
    except OverflowError:  # |z| leaves double range
        raise ValueError(f"point must be finite, got {z!r}") from None


def _checked_start(z, m) -> tuple[complex, float, float]:
    """The checked point and its distances to 1 -/+ sqrt(2), for a checked
    weight; DidNotConverge within POLE_GUARD of either limit."""
    _require_weight(m)
    z, d_minus, d_plus = _limit_distances(z)
    if d_minus <= POLE_GUARD or d_plus <= POLE_GUARD:
        raise DidNotConverge(0, math.inf, point=z)
    return z, d_minus, d_plus


@lru_cache(maxsize=64)
def _weight_constants(m: int) -> tuple[float, ...]:
    """The factors that depend on m alone: tail_bound's geo and half, and
    _stopping_window's m log 2, log1p(-2^-m), m log(1 + sqrt(2)), fall."""
    p = 2.0 ** -m
    # 2^-m underflows for m > 1074: tail_bound halves each base instead.
    geo, half = (p / (1.0 - p), 1.0) if p else (1.0, 0.5)
    # 2^m overflows from m = 1024, and a smaller fall only weakens the
    # certificate.
    return (geo, half, m * _LOG_TWO, math.log1p(-p), m * _LOG_SILVER,
            2.0 ** min(m, 1023) * _FALL_SLACK)


def term_value(j: int, z: complex, m: int) -> complex:
    """One term (Q_j z + Q_{j-1})^(-m) in double precision.

    The term is summed alone through _add_terms, on the row of term j in
    sequence.float_table, so it has the bits the kernel adds for term j
    and raises as the kernel does.  Past double range (no float row) the
    term is zero, unless z is within POLE_GUARD of its pole.
    """
    _require_weight(m)
    z = _require_point(z)
    require_int("index", j)
    if not -INDEX_CAP < j <= INDEX_CAP:  # Q_j or Q_{j-1} past the cap
        raise IndexCapExceeded(j if abs(j) > INDEX_CAP else j - 1, INDEX_CAP)
    if float_row(j) is None:
        # |Q_j| beyond double range: the term is zero unless z sits
        # essentially on the pole.
        if _modulus(z - float_pole(j)) < POLE_GUARD:
            raise PoleProximity(j, z)
        return 0j
    # A sum started at -0j keeps the term's bits: -0.0 + v is v, signed
    # zeros included.
    n = abs(j)
    return _add_terms(float_table(n), j < 0, n, n + 1, z, m, -0j, 0j)[0]


def _add_terms(levels, side: int, lo: int, hi: int, z: complex, m: int,
               s: complex, c: complex) -> tuple[complex, complex]:
    """s, c with the terms of levels lo .. hi - 1 of one side added in
    order: +level from row levels[level][0], or -level from
    levels[level][1] (level 0's is term 0); eval_series, _Series and
    term_value (one term) all sum through here.

    s and c are a complex running sum and correction, and a term v is
    added by Knuth's branch-free TwoSum: t = s + v; e = t - s;
    c += (s - (t - e)) + (v - e); s = t.  Complex + and - act on each part
    alone, and while t is finite the added correction is exactly the
    rounding error s + v - t, the number Neumaier's branch on |s| >= |v|
    computes, so s and c hold the bits of a Neumaier sum of each part
    (Knuth, TAOCP vol. 2, 4.2.2).  The one exception is a spurious
    overflow (Boldo, Graillat and Muller 2017): e overflows only when a
    part of v is the largest double and t rounds at a tie; c then turns
    NaN where Neumaier's stays finite, and the evaluation raises
    DidNotConverge.

    A term is (Q_j z + Q_{j-1})^(-m), the reciprocal powered by repeated
    multiplication, so huge |Q_j| underflows gracefully to 0 instead of
    overflowing.  Raises PoleProximity when |Q_j z + Q_{j-1}| < POLE_GUARD
    * |Q_j|, i.e. when z is within POLE_GUARD (1e-8) of the term's pole,
    or so close that the m-th power overflows.  A denominator beyond
    double range gives its computed term, which underflows to zero."""
    # The guard |w| < radius = POLE_GUARD |Q_j| can fire only on the strip
    # -2 < Re z < 4, |Im z| < 2 POLE_GUARD, so abs(w) is taken only there.
    # Every pole p_j = -Q_{j-1}/Q_j lies in [-1, 3], and Im w = fl(Q_j Im z)
    # exactly (the float Q_{j-1} adds to the real part alone).  Off the
    # strip, either |Im z| >= 2 POLE_GUARD, so |w| >= |fl(Q_j Im z)| >
    # POLE_GUARD |Q_j| (|Q_j| >= 2, so the product neither underflows nor
    # loses the factor 2 to rounding); or Re z <= -2 or Re z >= 4, so
    # |Re z - p_j| >= 1 and |Re w| ~ |Q_j| |Re z - p_j| >= |Q_j|, up to a
    # rounding of a few units of 2^-53 times |Q_j Re z| + |Q_{j-1}| <=
    # |Q_j| (|Re z - p_j| + 6).  An infinite part only makes |w| larger.
    # On the strip |Im w| < 2e-8 |Q_j| is tiny beside a finite |Re w|, so
    # abs(w) cannot raise OverflowError there.
    near = -2.0 < z.real < 4.0 and -2 * POLE_GUARD < z.imag < 2 * POLE_GUARD
    powers = range(m - 1)
    for level in range(lo, hi):
        q, q_prev, radius = levels[level][side]
        w = q * z + q_prev
        if near and abs(w) < radius:
            raise PoleProximity(-level if side else level, z)
        v = r = 1.0 / w
        for _ in powers:
            v *= r
        if not isfinite(v):
            if isfinite(w):
                raise PoleProximity(-level if side else level, z)
            v = 0j  # both parts of w overflowed: 1/w is nan
        t = s + v
        e = t - s
        c += (s - (t - e)) + (v - e)
        s = t
    return s, c


def tail_bound(half_width: int, z: complex, m: int) -> float:
    """Certified upper bound on the sum of |terms| with |j| > half_width.

    Returns math.inf (the MaxReal sentinel) when z touches one of the
    pole containment intervals, i.e. when no finite bound is available.
    Any integer half_width >= 2 is taken: the hulls and 1/Q_J come from
    the float table, which reads no Q past its last level.
    """
    # One type test passes the common case; the rest gets the full rules.
    if not (m.__class__ is int and 2 <= m <= MAX_WEIGHT
            and z.__class__ is complex and isfinite(z)
            and half_width.__class__ is int
            and half_width >= MIN_TAIL_HALF_WIDTH):
        _require_weight(m)
        z = _require_point(z)
        require_int("half_width", half_width, MIN_TAIL_HALF_WIDTH)
    lo_p, hi_p, lo_n, hi_n, q_inv = float_window(half_width)
    # Distances from z to the two hulls.
    x, y = z.real, z.imag
    dx = lo_p - x if x < lo_p else (x - hi_p if x > hi_p else 0.0)
    d_pos = math.hypot(dx, y) * _DIST_SHAVE
    dx = lo_n - x if x < lo_n else (x - hi_n if x > hi_n else 0.0)
    d_neg = math.hypot(dx, y) * _DIST_SHAVE
    if d_pos <= 0.0 or d_neg <= 0.0:
        return math.inf
    geo, half, _, _, _, _ = _weight_constants(m)
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
                     d_minus: float, d_plus: float) -> tuple[int, float]:
    """(J, tail_bound(J)) for the first J in [lo, _LAST_WINDOW] with
    tail_bound(J) <= target_tol, else for J = _LAST_WINDOW; at an admitted
    point the bound of _LAST_WINDOW is 2e-300, which meets every tolerance.

    tail_bound is non-increasing in J (module docstring), so the windows
    that meet the tolerance form a suffix of the range, and its first
    window can be searched for.  The first probe is the guess: the
    smallest J with

        (d_minus^-m + d_plus^-m) (1 + sqrt(2))^(-J m) 2^-m / (1 - 2^-m)
            <= target_tol,

    where d_minus and d_plus are the distances from z to 1 - sqrt(2) and
    1 + sqrt(2), clamped to the range.  Each failing probe predicts the
    next from a fall of (1 + sqrt(2))^m per window, or doubles its
    distance from lo while the bound is inf.  A passing probe J with a
    bound b above the floor and b * 2^m * (1 - 2e-9) > target_tol is the
    answer: the computed bound falls by at least 2^m (1 - 1e-9) per window
    above its floor (module docstring), so window J - 1 fails unprobed.
    Any other passing probe is checked against its lower neighbour, then
    by bisection, each new passing probe certified alike.  Only windows
    in [lo, _LAST_WINDOW] are probed, none twice.
    """
    # The guess is taken in logs, where d^-m cannot overflow.
    _, _, m_log_two, log_geo_den, m_log_silver, fall = _weight_constants(m)
    near, far = (d_minus, d_plus) if d_minus < d_plus else (d_plus, d_minus)
    log_bound = (math.log1p((near / far) ** m) - m * math.log(near)
                 - m_log_two - log_geo_den)
    guess = math.ceil((log_bound - math.log(target_tol)) / m_log_silver)
    bad = lo - 1    # the windows up to bad fail (or lie below the range)
    j = min(max(guess, lo), _LAST_WINDOW)
    while True:
        b = tail_bound(j, z, m)
        if b <= target_tol or j >= _LAST_WINDOW:
            break
        bad = j
        if b == math.inf:
            j += j - lo + 1
        else:
            j += max(1, math.ceil((math.log(b) - math.log(target_tol))
                                  / m_log_silver))
        j = min(j, _LAST_WINDOW)
    good, good_b = j, b    # a good_b above target_tol passes the certificate
    j = good - 1
    while j > bad and not (_BOUND_FLOOR < good_b
                           and good_b * fall > target_tol):
        b = tail_bound(j, z, m)
        if b <= target_tol:
            good, good_b = j, b
        else:
            bad = j
        j = (bad + good) // 2
    return good, good_b


def _sum_window(z: complex, m: int, level: int, sums: tuple,
                target_tol: float, d_minus: float,
                d_plus: float) -> tuple:
    """(J, tail_bound(J), sums, minus, plus, value): the sums (s_m, c_m,
    s_p, c_p) carried from window level (-1: none) to the first
    J >= max(level + 1, 2) whose bound meets target_tol, found first by
    _stopping_window, and the parts and value they give.  tail_bound
    neither raises nor has side effects for a checked point and weight, so
    a term's PoleProximity is raised at the same term as by a scan that
    checks the bound after every window; a J that misses target_tol, or
    whose value is not finite (bound inf), raises DidNotConverge."""
    stop, bound = _stopping_window(z, m, max(level + 1, MIN_TAIL_HALF_WIDTH),
                                   target_tol, d_minus, d_plus)
    s_m, c_m, s_p, c_p = sums
    # The sums never read each other, so one pass per side gives the bits
    # of adding +level and -level in turn, and the same first error:
    # near-pole failures of +j (Re z in [-1.5, -0.17]) and of -j and 0
    # ([0.5, 3.5]) never meet.
    levels = float_table(stop)
    hi = min(stop, LAST_LEVEL - 1) + 1  # past it, exact zeros
    # Level 0 holds term 0 alone, which the j <= 0 sum adds.
    s_p, c_p = _add_terms(levels, 0, max(level + 1, 1), hi, z, m, s_p, c_p)
    s_m, c_m = _add_terms(levels, 1, level + 1, hi, z, m, s_m, c_m)
    if bound > target_tol:
        raise DidNotConverge(stop, bound, point=z)
    minus, plus = s_m + c_m, s_p + c_p
    value = minus + plus
    if not isfinite(value):
        raise DidNotConverge(stop, math.inf, point=z)
    return stop, bound, (s_m, c_m, s_p, c_p), minus, plus, value


class _Series:
    """Resumable adaptive summation of S_m(z), for verify._residual.

    Terms are accumulated in two compensated sums in a fixed order, j >= 1
    as +1, +2, ... and j <= 0 as 0, -1, -2, ..., each by the TwoSum of
    _add_terms.

    extend() grows the window from the level reached so far by
    _sum_window, so asking again with a tighter tolerance adds exactly the
    terms, in order, that a restart from j = 0 would, and gives its value,
    level, bound and sums to the bit.  extend returns the value that
    _sum_window gave, as eval_series does; level (the half-width J
    reached, -1 before the first extend), bound and sums are read off.
    """

    # _sums: running sum and correction of the j <= 0 sum (suffix _m) and
    # of the j >= 1 sum (suffix _p), four complex numbers, and their value.
    # d_minus, d_plus: distances from z to 1 - sqrt(2) and 1 + sqrt(2), from
    # which _stopping_window guesses its first probe.
    __slots__ = ("z", "m", "d_minus", "d_plus", "level", "bound", "_sums",
                 "value")

    def __init__(self, z: complex, m: int):
        self.z, self.d_minus, self.d_plus = _checked_start(z, m)
        self.m = m
        self.level = -1    # no term added yet, not even term 0
        self.bound = math.inf
        self._sums = (0j, 0j, 0j, 0j)
        self.value = None

    def extend(self, target_tol: float) -> complex:
        """The value at the first window J >= 2 whose tail bound is
        <= target_tol, summing on from the level already reached; J and its
        bound are left in level and bound, the sums in _sums.

        A tolerance that the reached window's bound already meets returns
        that window's value without adding terms.  Raises as eval_series;
        a window that raises leaves the series as it was.
        """
        if self.level < MIN_TAIL_HALF_WIDTH or self.bound > target_tol:
            self.level, self.bound, self._sums, _, _, self.value = (
                _sum_window(self.z, self.m, self.level, self._sums,
                            target_tol, self.d_minus, self.d_plus))
        return self.value


def eval_series(z: complex, m: int,
                target_tol: float = DEFAULT_TARGET_TOL) -> EvalResult:
    """Adaptive evaluation of the full bilateral series at z with weight m.

    Terms are accumulated in two compensated sums (j <= 0 and j >= 1), each
    in a fixed order, so results are bit-reproducible.  The window is the
    first J >= 2 with tail_bound(J, z, m) <= target_tol.  The bound never
    grows with J and falls by at least 2^m per window, so J is searched for
    before any term is summed, mostly with one bound check.  One
    _sum_window from j = 0 gives the result; no series object is built.

    Raises PoleProximity when a term denominator nearly vanishes or a term
    overflows, and DidNotConverge (tail_bound inf) only within POLE_GUARD
    of the accumulation points 1 +/- sqrt(2), where poles cluster (at
    once, half_width 0), or when the sums leave double range (half_width
    is then the level reached).  A term denominator beyond double range,
    in a part or in modulus, gives the term's zero.  A target_tol that
    _require_tol refuses raises ValueError before the weight or point.
    """
    _require_tol(target_tol)
    z, d_minus, d_plus = _checked_start(z, m)
    level, bound, _, minus, plus, value = _sum_window(
        z, m, -1, (0j,) * 4, target_tol, d_minus, d_plus)
    return EvalResult(value, minus, plus, bound, level)


def eval_grid(region: "Rect", nx: int, ny: int, m: int,
              target_tol: float = DEFAULT_TARGET_TOL):
    """Evaluate at every cell center of an nx-by-ny lattice over region.

    Returns a row-major list of (point, EvalResult-or-error); per-point
    PoleProximity/DidNotConverge are recorded, not raised.
    """
    from .geometry import Rect  # only a grid needs it, not eval_series
    require_type("region", region, Rect)
    _require_tol(target_tol)
    out = []
    for z in region.cell_centers(nx, ny):
        try:
            out.append((z, eval_series(z, m, target_tol)))
        except (PoleProximity, DidNotConverge) as exc:
            out.append((z, exc))
    return out
