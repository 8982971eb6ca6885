"""Integer sequence: exact values, recurrences, symmetry, caps, concurrency."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fresh
from oracle import q_int
from pelleis import (IndexCapExceeded, InvalidRange, pell_lucas,
                     pell_lucas_range, pole_ratio, sequence, tail_bound,
                     term_value)
from pelleis.sequence import (FIRST_LIMIT_POLE, INDEX_CAP, LAST_LEVEL,
                              SILVER_CONJUGATE, SILVER_RATIO, float_pole,
                              float_row, float_table, float_window)

KNOWN_FORWARD = [2, 2, 6, 14, 34, 82, 198, 478, 1154, 2786]


def test_known_small_values():
    assert [pell_lucas(n) for n in range(10)] == KNOWN_FORWARD


def test_known_negative_values():
    assert [pell_lucas(-n) for n in range(1, 5)] == [-2, 6, -14, 34]


def test_recurrence_window():
    for n in range(-199, 199):
        assert pell_lucas(n + 1) == 2 * pell_lucas(n) + pell_lucas(n - 1)


def test_negation_symmetry():
    for n in range(200):
        sign = -1 if n % 2 else 1
        assert pell_lucas(-n) == sign * pell_lucas(n)


def test_growth_doubles_each_step():
    # Q_{n+1} = 2 Q_n + Q_{n-1} with Q_{n-1} > 0 once n >= 1.
    for n in range(1, 120):
        assert pell_lucas(n + 1) >= 2 * pell_lucas(n)


def test_matches_independent_recurrence():
    for n in range(-60, 61):
        assert pell_lucas(n) == q_int(n)


def test_ratio_limits():
    assert abs(Fraction(pell_lucas(41), pell_lucas(40)) - SILVER_RATIO) < 1e-12
    assert abs(pole_ratio(40) - SILVER_CONJUGATE) < 1e-12
    assert abs(pole_ratio(-40) - SILVER_RATIO) < 1e-12


def test_pole_ratio_small_indices():
    assert pole_ratio(0) == 1
    assert pole_ratio(1) == -1
    assert pole_ratio(2) == Fraction(-1, 3)
    assert pole_ratio(3) == Fraction(-3, 7)
    assert pole_ratio(-1) == 3
    assert pole_ratio(-2) == Fraction(7, 3)


def test_pole_ratio_defining_equation():
    for j in range(-60, 61):
        assert pell_lucas(j) * pole_ratio(j) + pell_lucas(j - 1) == 0


def test_range_inclusive():
    assert pell_lucas_range(-3, 4) == [-14, 6, -2, 2, 2, 6, 14, 34]
    assert pell_lucas_range(5, 5) == [82]


def test_range_grows_the_table_once_and_reads_it(monkeypatch):
    # One checked read grows the table to the larger |n|, on either side of
    # 0; the values then come off the table in one pass.
    reads = []

    def counted(n):
        reads.append(n)
        return pell_lucas(n)

    monkeypatch.setattr(sequence, "pell_lucas", counted)
    for lo, hi in ((-9, -4), (-4, -4), (-6, 0), (-3, 7), (0, 0), (2, 5)):
        monkeypatch.setattr(sequence, "_Q", [2, 2])
        reads.clear()
        assert pell_lucas_range(lo, hi) == [q_int(n)
                                            for n in range(lo, hi + 1)]
        assert len(reads) == 1
        assert len(sequence._Q) == max(abs(lo), abs(hi), 1) + 1


def test_range_rejects_reversed_bounds():
    with pytest.raises(InvalidRange):
        pell_lucas_range(3, -3)


def test_default_cap_raises_immediately():
    for n in (100_001, -100_001):
        with pytest.raises(IndexCapExceeded) as info:
            pell_lucas(n)
        assert info.value.index == n
        assert info.value.cap == 100_000
    # A range checks both ends before the table grows to either.  The last
    # lower end lies past the table, so growing to it first would show.
    before = len(sequence._Q)
    for lo, hi in ((0, 100_001), (-100_001, 0), (-before - 5, 100_001)):
        with pytest.raises(IndexCapExceeded):
            pell_lucas_range(lo, hi)
        assert len(sequence._Q) == before
    # An index too long to print gets the same typed refusals, shown by
    # its size.
    big = 10 ** 5000
    for call in (lambda: pell_lucas(big), lambda: pole_ratio(big),
                 lambda: term_value(big, 1j, 2),
                 lambda: pell_lucas_range(0, big)):
        with pytest.raises(IndexCapExceeded, match=(
                r"^index <int of \d+ bits> exceeds cap 100000$")):
            call()
    with pytest.raises(InvalidRange,
                       match=r"^lo=<int of \d+ bits> exceeds hi=0$"):
        pell_lucas_range(big, 0)


def test_non_integer_index_rejected(monkeypatch):
    # A fractional index is refused by a ValueError naming it, not by a
    # bare TypeError: inside the computed range, and past it on a fresh
    # table, and through the float layers of the evaluator.
    with pytest.raises(ValueError, match="integer, got 1.5"):
        pell_lucas(1.5)
    monkeypatch.setattr(sequence, "_Q", [2, 2])
    with pytest.raises(ValueError, match="integer, got 7.5"):
        pell_lucas(7.5)
    assert sequence._Q == [2, 2]
    with pytest.raises(ValueError, match="integer, got 1.5"):
        term_value(1.5, 1j, 2)
    with pytest.raises(ValueError, match="integer, got 2.5"):
        tail_bound(2.5, 1j, 2)
    # One rule for value and range: an int, not an integral float and not a
    # bool, which would otherwise read the table entry it equals.
    refused = [("2.0", lambda: pell_lucas_range(0, 2.0)),
               ("0.0", lambda: pell_lucas_range(0.0, 2)),
               ("2.0", lambda: pell_lucas(2.0)),
               ("True", lambda: pell_lucas(True)),
               ("False", lambda: pell_lucas_range(False, 2)),
               ("'2'", lambda: pell_lucas("2"))]
    for index, call in refused:
        with pytest.raises(ValueError,
                           match=f"index must be an integer, got {index}$"):
            call()


def test_negative_index_reads_the_nonnegative_table(monkeypatch):
    # Q_{-n} = (-1)^n Q_n is read from Q_n: a negative index grows the one
    # table of Q_0 .. Q_n, and Q_n is then already there.
    for n in (7, 8):
        monkeypatch.setattr(sequence, "_Q", [2, 2])
        assert pell_lucas(-n) == (-1) ** n * q_int(n)
        assert len(sequence._Q) == n + 1
        assert pell_lucas(n) == q_int(n)
        assert len(sequence._Q) == n + 1


def test_concurrent_reads_consistent(monkeypatch):
    expected = {n: pell_lucas(n) for n in range(-700, 701)}
    monkeypatch.setattr(sequence, "_Q", [2, 2])
    mismatches = []

    def worker(step, hi):
        for n in range(-hi, hi, step):
            if pell_lucas(n) != expected[n]:
                mismatches.append(n)

    threads = [threading.Thread(target=worker, args=(3 + i, 400 + 37 * i))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mismatches == []
    # The deepest read is Q_{-659}; the fresh table grew to it exactly.
    assert sequence._Q == [expected[n] for n in range(660)]


@given(st.integers(min_value=-400, max_value=400))
def test_recurrence_property(n):
    assert pell_lucas(n + 1) == 2 * pell_lucas(n) + pell_lucas(n - 1)


@given(st.integers(min_value=-400, max_value=400))
def test_negation_property(n):
    sign = -1 if n % 2 else 1
    assert pell_lucas(-n) == sign * pell_lucas(n)


@given(st.integers(min_value=-300, max_value=300))
def test_neighbor_product_defect(n):
    # Q_{n+1} Q_{n-1} - Q_n^2 = 8 (-1)^(n+1): the constant-size defect that
    # drives the alternation of the pole locations.
    lhs = pell_lucas(n + 1) * pell_lucas(n - 1) - pell_lucas(n) ** 2
    assert lhs == (8 if n % 2 else -8)


# ------------------------------------------------------------- float table

# float(Q) is finite below the midpoint of the largest double and 2^1024;
# the midpoint itself rounds to the even 2^1024, which overflows.
_OVERFLOW = 2 ** 1024 - 2 ** 970


def _rounds_to(x, d):
    """Exact test that the rational x rounds to the double d: x lies
    strictly between the midpoints of d and its two neighbours."""
    lo = (Fraction(math.nextafter(d, -math.inf)) + Fraction(d)) / 2
    hi = (Fraction(d) + Fraction(math.nextafter(d, math.inf))) / 2
    return lo < x < hi


def _exact_row(i):
    """(Q_i, Q_{i-1}, 1e-8 |Q_i|) as floats, or None where one overflows."""
    try:
        q, q_prev = float(pell_lucas(i)), float(pell_lucas(i - 1))
    except OverflowError:
        return None
    return (q, q_prev, 1e-8 * abs(q))


def _exact_window(n):
    """Window n from exact rational comparisons, rounded outward."""
    def hull(a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        return (math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf))

    plus = hull(pole_ratio(n + 1), pole_ratio(n + 2))
    minus = hull(pole_ratio(-n - 1), pole_ratio(-n - 2))
    q = pell_lucas(n)
    return plus + minus + ((1.0 / float(q) if q < _OVERFLOW else 0.0),)


def test_float_table_limits_derived_exactly():
    # FIRST_LIMIT_POLE: the first n from which p_n rounds to 1 - sqrt(2)
    # and p_-n to 1 + sqrt(2).  Two neighbours suffice: p_{k+2} lies
    # between p_k and p_{k+1}.
    def first(sign, limit):
        return next(n for n in range(1, 100)
                    if _rounds_to(pole_ratio(sign * n), limit)
                    and _rounds_to(pole_ratio(sign * (n + 1)), limit))

    assert first(1, SILVER_CONJUGATE) == FIRST_LIMIT_POLE == 22
    assert first(-1, SILVER_RATIO) == FIRST_LIMIT_POLE
    # LAST_LEVEL: the last n with float(Q_n) finite, by integer comparison.
    last = max(n for n in range(2000) if pell_lucas(n) < _OVERFLOW)
    assert last == LAST_LEVEL == 805
    # Window n reads p_{n+1}, p_{n+2}, p_{-n-1}, p_{-n-2} and 1/Q_n, so the
    # first constant window is the first n past both limits: 806.
    assert max(FIRST_LIMIT_POLE - 1, last + 1) == 806
    assert float_window(805) != float_window(806) == float_window(10 ** 9)


def test_float_table_poles_round_like_fractions():
    for j in range(-2999, 3000):
        assert float_pole(j) == float(pole_ratio(j)), j


def test_float_table_q_marks_overflow():
    # Row i turns None where Q_i or Q_{i-1} leaves double range: first at
    # -805, which reads Q_{-806}, and at 806.
    for i in range(-2999, 3000):
        assert float_row(i) == _exact_row(i), i
    assert float_row(805) is not None
    assert float_row(-805) is None and float_row(806) is None
    assert float_row(0) == (2.0, -2.0, 2e-8)


def test_float_table_windows_match_exact_hulls():
    for n in range(3000):
        assert float_window(n) == _exact_window(n), n
    assert float_window(806)[4] == 0.0 and float_window(805)[4] > 0.0


def test_float_rows_pair_the_terms_of_each_level():
    # Level n holds the rows of terms n and -n and window n; the table
    # stops at LAST_LEVEL, however far it is asked to grow.
    levels = float_table(10 ** 9)
    assert len(levels) == LAST_LEVEL + 1
    for n, level in enumerate(levels):
        assert level == (_exact_row(n), _exact_row(-n), _exact_window(n)), n


def test_float_table_reads_no_q_past_its_end(monkeypatch):
    # Past the table nothing reads Q, and the whole table reads Q_i for
    # |i| <= LAST_LEVEL + 1 alone (row -805 reads Q_{-806}).
    monkeypatch.setattr(sequence, "_Q", [2, 2])
    monkeypatch.setattr(sequence, "_TABLE", [])
    assert (tail_bound(INDEX_CAP - 3, 1j, 2) == tail_bound(10 ** 9, 1j, 2)
            == 2e-300)
    assert term_value(INDEX_CAP, 1j, 2) == 0j
    assert len(sequence._Q) == 2 and sequence._TABLE == []
    float_table(10 ** 9)
    assert len(sequence._Q) == LAST_LEVEL + 2


def test_float_rows_concurrent_growth(monkeypatch):
    expected = list(float_table(LAST_LEVEL))
    mismatches = []

    def worker(step, hi):
        for n in range(0, hi, step):
            levels = float_table(n)
            k = min(n, LAST_LEVEL)
            if levels[k] != expected[k] or levels[k // 2] != expected[k // 2]:
                mismatches.append(n)

    # The deepest requests lie past the table's end, where it stops.
    args = [(3 + i, 500 + 53 * i) for i in range(8)]
    deepest = min(max(max(range(0, hi, step)) for step, hi in args),
                  LAST_LEVEL)
    # Switch threads often, so that unlocked growth would interleave; ten
    # rounds, each on a fresh table.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(sequence, "_TABLE", [])
            threads = [threading.Thread(target=worker, args=a) for a in args]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            # The table grew to the deepest level read, or to its end.
            assert sequence._TABLE == expected[:deepest + 1]
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []


def test_widest_tail_bound_stays_small_in_memory():
    # The float layers read one bounded table, whose levels reach Q_n for
    # |n| <= 806 alone; past it every hull and row is a constant.  The
    # widest tail bound therefore reads no big integer and peaks near 16 MB
    # in a fresh interpreter; a return to hulls built from Q at the index
    # cap (837 MB for this call, 1665 MB storing both signs) fails here.
    # The peak is the interpreter's own, VmHWM in KiB on Linux: ru_maxrss
    # keeps the peak of the process that launched it, here the test runner,
    # across exec.  Elsewhere ru_maxrss is read (bytes on macOS).
    code = """import os, resource
from pelleis import tail_bound
tail_bound(99_997, 1j, 2)
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
else:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib /= 1024 if sys.platform == "darwin" else 1
print(kib / 1024)
"""
    assert float(fresh.run(code, timeout=120)) < 100
