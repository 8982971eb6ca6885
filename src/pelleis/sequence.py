"""Pell-Lucas numbers over signed indices, memoized in exact integer arithmetic.

The sequence satisfies Q_n = 2 Q_{n-1} + Q_{n-2} with Q_0 = Q_1 = 2.  Run
backward, Q_{n-2} = Q_n - 2 Q_{n-1} gives
... 34, -14, 6, -2, 2, 2, 6, 14, 34, ...  that is Q_{-n} = (-1)^n Q_n, so
one table of Q_n for n >= 0 serves every signed index.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from math import inf, nextafter

from .errors import IndexCapExceeded, InvalidRange, require_int

INDEX_CAP = 100_000   # largest |n| the table computes Q_n for
POLE_GUARD = 1e-8     # a term within this of its pole is refused

# Limits of the pole ratios -Q_{j-1}/Q_j as j -> +/- infinity, i.e. the two
# roots of x^2 - 2x - 1.  These are the correctly rounded doubles; note that
# the naive 1 - math.sqrt(2) lands two ulps below the true 1 - sqrt(2)
# (tests certify both literals by exact rational comparison against both
# neighboring doubles).
SILVER_CONJUGATE = -0.41421356237309503  # 1 - sqrt(2)
SILVER_RATIO = 2.414213562373095         # 1 + sqrt(2)


# Q_0, Q_1, ...: grown forward only, under _LOCK; Q_{-n} = (-1)^n Q_n is
# read from Q_n.  Entries never change once appended, so reads need no lock.
_Q: list[int] = [2, 2]
_LOCK = threading.Lock()


# One lazily filled float table over pell_lucas for the numeric layers.
@cache
def float_q(n: int) -> float | None:
    """float(Q_n), or None where it leaves double range."""
    try:
        return float(pell_lucas(n))
    except OverflowError:
        return None


# The float rows of the series terms: entry j >= 0 is the pair (row of term
# j, row of term -j), where the row of term i is (float(Q_i), float(Q_{i-1}),
# POLE_GUARD * |Q_i|), or None where Q_i or Q_{i-1} leaves double range.
# Grown forward only, under its own lock (pell_lucas takes _LOCK, which is
# not reentrant); entries never change once appended, so reads need no lock.
_Row = tuple[float, float, float]
_ROWS: list[tuple[_Row | None, _Row | None]] = []
_ROWS_LOCK = threading.Lock()


def term_row(i: int) -> _Row | None:
    """The float row of term i, uncached: what its entry in float_rows
    holds."""
    q, q_prev = float_q(i), float_q(i - 1)
    if q is None or q_prev is None:
        return None
    return (q, q_prev, POLE_GUARD * abs(q))


def float_rows(n: int) -> list[tuple[_Row | None, _Row | None]]:
    """The float row table, holding at least the entries 0 .. n.

    Entry n reads Q_{-n-1}, so an n above INDEX_CAP - 1 raises
    IndexCapExceeded before the table grows."""
    if n >= len(_ROWS):
        if n >= INDEX_CAP:
            raise IndexCapExceeded(n, INDEX_CAP - 1)
        with _ROWS_LOCK:
            while len(_ROWS) <= n:
                j = len(_ROWS)
                _ROWS.append((term_row(j), term_row(-j)))
    return _ROWS


@cache
def float_pole(n: int) -> float:
    """-Q_{n-1}/Q_n by int true division, correctly rounded as is
    float(pole_ratio(n))."""
    return -pell_lucas(n - 1) / pell_lucas(n)


@cache
def float_window(n: int) -> tuple[float, float, float, float, float]:
    """(lo+, hi+, lo-, hi-, 1/Q_n): the outward rounded hulls of p_{n+1},
    p_{n+2} and of p_{-n-1}, p_{-n-2}, which hold every pole beyond
    |j| <= n, and 1/Q_n (0.0 where Q_n overflows)."""
    lo_p, hi_p = sorted((float_pole(n + 1), float_pole(n + 2)))
    lo_n, hi_n = sorted((float_pole(-n - 1), float_pole(-n - 2)))
    q = float_q(n)
    return (nextafter(lo_p, -inf), nextafter(hi_p, inf),
            nextafter(lo_n, -inf), nextafter(hi_n, inf),
            0.0 if q is None else 1.0 / q)


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

    Both ends are checked against INDEX_CAP before the table grows."""
    require_int("index", lo)
    require_int("index", hi)
    if lo > hi:
        raise InvalidRange(f"lo={lo} exceeds hi={hi}")
    for n in (lo, hi):
        if abs(n) > INDEX_CAP:
            raise IndexCapExceeded(n, INDEX_CAP)
    return [pell_lucas(n) for n in range(lo, hi + 1)]


def pole_ratio(j: int) -> Fraction:
    """-Q_{j-1}/Q_j, the location of the real pole of term j, in lowest
    terms (Fraction normalizes automatically)."""
    return Fraction(-pell_lucas(j - 1), pell_lucas(j))
