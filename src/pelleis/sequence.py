"""Pell-Lucas numbers over signed indices, exact and in one float table.

The sequence satisfies Q_n = 2 Q_{n-1} + Q_{n-2} with Q_0 = Q_1 = 2.  Run
backward, Q_{n-2} = Q_n - 2 Q_{n-1} gives
... 34, -14, 6, -2, 2, 2, 6, 14, 34, ...  that is Q_{-n} = (-1)^n Q_n, so
one table of Q_n for n >= 0 serves every signed index.
"""

import threading
from math import inf, nextafter

from .errors import IndexCapExceeded, InvalidRange, require_int, shown

INDEX_CAP = 100_000   # largest |n| the table computes Q_n for
POLE_GUARD = 1e-8     # a term within this of its pole is refused

# Limits of the pole ratios -Q_{j-1}/Q_j as j -> +/- infinity, i.e. the two
# roots of x^2 - 2x - 1.  These are the correctly rounded doubles; note that
# the naive 1 - math.sqrt(2) lands two ulps below the true 1 - sqrt(2)
# (tests certify both literals by exact rational comparison against both
# neighboring doubles).
SILVER_CONJUGATE = -0.41421356237309503  # 1 - sqrt(2)
SILVER_RATIO = 2.414213562373095         # 1 + sqrt(2)


# Q_0, Q_1, ...: grown forward only, under _LOCK (reentrant: the float table
# grows under it too); Q_{-n} = (-1)^n Q_n is read from Q_n.  Entries never
# change once appended, so reads need no lock; nor do the float table's.
_Q: list[int] = [2, 2]
_LOCK = threading.RLock()

# The float table of the numeric layers.  Level n = 0 .. LAST_LEVEL holds
# the rows of terms n and -n, the row of term i being (float(Q_i),
# float(Q_{i-1}), POLE_GUARD * |Q_i|) or None past double range, and window
# n, (lo+, hi+, lo-, hi-, 1/Q_n): the outward rounded hulls of p_{n+1},
# p_{n+2} and of p_{-n-1}, p_{-n-2}, which hold every pole beyond |j| <= n.
# Past the table every value is a constant that reads no Q (the tests derive
# the limits exactly): float(p_n) is 1 -/+ sqrt(2) from |n| =
# FIRST_LIMIT_POLE on, rows are None, and windows are _FAR_WINDOW (1/Q = 0).
FIRST_LIMIT_POLE = 22   # first |n| with float(p_n) equal to its limit
LAST_LEVEL = 805        # last n with float(Q_n) finite (row -805 is None)
_TABLE: list[tuple] = []


def float_pole(n: int) -> float:
    """-Q_{n-1}/Q_n, correctly rounded as is float(pole_ratio(n)): by int
    true division below FIRST_LIMIT_POLE, else the limit 1 -/+ sqrt(2)."""
    if abs(n) >= FIRST_LIMIT_POLE:
        return SILVER_CONJUGATE if n > 0 else SILVER_RATIO
    return -pell_lucas(n - 1) / pell_lucas(n)


_FAR_WINDOW = tuple(nextafter(limit, side)
                    for limit in (SILVER_CONJUGATE, SILVER_RATIO)
                    for side in (-inf, inf)) + (0.0,)


def _row(i: int) -> tuple | None:
    try:
        q, q_prev = float(pell_lucas(i)), float(pell_lucas(i - 1))
    except OverflowError:
        return None
    return (q, q_prev, POLE_GUARD * abs(q))


def _level(n: int) -> tuple:
    lo_p, hi_p = sorted((float_pole(n + 1), float_pole(n + 2)))
    lo_n, hi_n = sorted((float_pole(-n - 1), float_pole(-n - 2)))
    row = _row(n)   # finite for n <= LAST_LEVEL
    return (row, _row(-n), (nextafter(lo_p, -inf), nextafter(hi_p, inf),
                            nextafter(lo_n, -inf), nextafter(hi_n, inf),
                            1.0 / row[0]))


def float_table(n: int) -> list[tuple]:
    """The float table, holding at least the levels 0 .. min(n, LAST_LEVEL);
    it reads Q_i for |i| <= LAST_LEVEL + 1 alone, whatever n is."""
    if n >= len(_TABLE) and len(_TABLE) <= LAST_LEVEL:
        with _LOCK:
            while len(_TABLE) <= min(n, LAST_LEVEL):
                _TABLE.append(_level(len(_TABLE)))
    return _TABLE


def float_row(i: int) -> tuple | None:
    """The float row of term i (level |i|, second for i < 0), or None."""
    n = abs(i)
    return float_table(n)[n][i < 0] if n <= LAST_LEVEL else None


def float_window(n: int) -> tuple:
    """Window n >= 0: the hulls of the poles beyond |j| <= n, and 1/Q_n."""
    return float_table(n)[n][2] if n <= LAST_LEVEL else _FAR_WINDOW


def pell_lucas(n: int) -> int:
    """Q_n for any signed index within the cap: Q_{|n|}, negated for odd
    negative n."""
    require_int("index", n)
    size = abs(n)
    if size > INDEX_CAP:
        raise IndexCapExceeded(n, INDEX_CAP)
    if size >= len(_Q):
        with _LOCK:
            while len(_Q) <= size:
                _Q.append(2 * _Q[-1] + _Q[-2])
    q = _Q[size]
    return -q if n < 0 and n & 1 else q


def pell_lucas_range(lo: int, hi: int) -> list[int]:
    """[Q_lo, ..., Q_hi] inclusive; raises InvalidRange if lo > hi.

    Plain int ends within the cap, lo <= hi, pass one type test; other ends
    are checked against INDEX_CAP before the table grows, once."""
    if not (type(lo) is int and type(hi) is int
            and -INDEX_CAP <= lo <= hi <= INDEX_CAP):
        require_int("index", lo)
        require_int("index", hi)
        if lo > hi:
            raise InvalidRange(
                f"lo={shown(lo, format)} exceeds hi={shown(hi, format)}")
        for n in (lo, hi):
            if abs(n) > INDEX_CAP:
                raise IndexCapExceeded(n, INDEX_CAP)
    pell_lucas(max(-lo, hi))   # grows the table to the larger |n|
    return ([-_Q[-n] if n & 1 else _Q[-n] for n in range(lo, min(hi + 1, 0))]
            + _Q[max(lo, 0):max(hi + 1, 0)])


def pole_ratio(j: int) -> "Fraction":
    """-Q_{j-1}/Q_j, the location of the real pole of term j, in lowest
    terms.  fractions, which loads decimal, is imported on the first call,
    not with the package.

    By the recurrence gcd(Q_{j-1}, Q_j) = gcd(Q_0, Q_1) = 2, so the halves
    are coprime and the Fraction is built from them without the gcd that
    Fraction() would take, which consecutive terms make Euclid's worst
    case."""
    from fractions import Fraction
    num, den = -pell_lucas(j - 1) // 2, pell_lucas(j) // 2
    if den < 0:
        num, den = -num, -den
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)  # Python 3.10 and 3.11
