"""Integer sequence: exact values, recurrences, symmetry, caps, concurrency."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import q_int
from pelleis import (IndexCapExceeded, InvalidRange, pell_lucas,
                     pell_lucas_range, pole_ratio, sequence, tail_bound,
                     term_value)
from pelleis.sequence import (INDEX_CAP, SILVER_CONJUGATE, SILVER_RATIO,
                              float_pole, float_q, float_rows, float_window)

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

def test_float_table_q_marks_overflow():
    for n in range(-20, 21):
        assert float_q(n) == float(pell_lucas(n))
    assert float_q(900) is None and float_q(-900) is None
    assert float_q(800) == float(pell_lucas(800))


def test_float_table_poles_round_like_fractions():
    for j in range(-900, 901):
        assert float_pole(j) == float(pole_ratio(j))


def test_float_table_windows_match_exact_hulls():
    # Hulls built from exact rational comparisons, then rounded outward.
    def hull(a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        return (math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf))

    for half_width in range(1, 900):
        plus = hull(pole_ratio(half_width + 1), pole_ratio(half_width + 2))
        minus = hull(pole_ratio(-half_width - 1), pole_ratio(-half_width - 2))
        try:
            q_inv = 1.0 / float(pell_lucas(half_width))
        except OverflowError:
            q_inv = 0.0
        assert float_window(half_width) == plus + minus + (q_inv,)
    assert float_window(850)[4] == 0.0


def _exact_row(i):
    """(Q_i, Q_{i-1}, 1e-8 |Q_i|) as floats, or None where one overflows."""
    try:
        q, q_prev = float(pell_lucas(i)), float(pell_lucas(i - 1))
    except OverflowError:
        return None
    return (q, q_prev, 1e-8 * abs(q))


def test_float_rows_pair_the_terms_of_each_level(monkeypatch):
    # Entry j holds the rows of terms j and -j; a row turns None where its
    # Q_i or Q_{i-1} leaves double range (first at -805, which reads
    # Q_{-806}).
    rows = float_rows(900)
    assert rows[0] == ((2.0, -2.0, 2e-8),) * 2
    for j in range(901):
        assert rows[j] == (_exact_row(j), _exact_row(-j)), j
    assert rows[805][1] is None and rows[805][0] is not None
    assert rows[806] == (None, None)
    # Entry INDEX_CAP would read Q_{-INDEX_CAP-1}: refused before the
    # table grows.
    monkeypatch.setattr(sequence, "_ROWS", [])
    with pytest.raises(IndexCapExceeded, match=f"index {INDEX_CAP} "):
        float_rows(INDEX_CAP)
    assert sequence._ROWS == []


def test_float_rows_concurrent_growth(monkeypatch):
    monkeypatch.setattr(sequence, "_ROWS", [])
    expected = list(float_rows(900))
    mismatches = []

    def worker(step, hi):
        for n in range(0, hi, step):
            rows = float_rows(n)
            if rows[n] != expected[n] or rows[n // 2] != expected[n // 2]:
                mismatches.append(n)

    # Switch threads often, so that unlocked growth would interleave; ten
    # rounds, each on a fresh table.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(sequence, "_ROWS", [])
            threads = [threading.Thread(target=worker,
                                        args=(3 + i, 500 + 53 * i))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            # The deepest read is entry 870; the table grew to it exactly.
            assert sequence._ROWS == expected[:871]
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
