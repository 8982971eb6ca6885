"""The exact referee (tests/exact_referee.py) agrees with the 40-digit
mpmath oracle on the acceptance sweep's off-axis points, and fails with a
Q table shifted by one index."""

from fractions import Fraction

from mpmath import mp, mpc, mpf

import exact_referee
import oracle
from test_acceptance import WEIGHTS

# A window of J terms on each side.  At J = 8 the shifted table still moves
# the sum by more than 1e-20 (relative) at every point and weight; past
# about J = 12 the terms it swaps fall below the 1e-30 tolerance.
HALF_WIDTHS = (0, 4, 8)
TOLERANCE = 1e-30


def _shifted(n: int) -> int:
    return exact_referee.pell_lucas(n + 1)


def _rel_gap(level, parts: tuple[Fraction, Fraction]):
    with mp.workdps(60):
        exact = mpc(*(mpf(p.numerator) / p.denominator for p in parts))
        return abs(level - exact) / abs(exact)


def test_referee_matches_oracle_and_catches_a_shifted_table(off_axis_points):
    agree = caught = cases = 0
    for z in off_axis_points:
        for m in WEIGHTS:
            levels = oracle.series_levels(z, m, depth=max(HALF_WIDTHS))
            for half_width in HALF_WIDTHS:
                level = levels[half_width]
                cases += 1
                agree += _rel_gap(level, exact_referee.window_sum(
                    z, m, half_width)) <= TOLERANCE
                caught += _rel_gap(level, exact_referee.window_sum(
                    z, m, half_width, q=_shifted)) > TOLERANCE
    assert agree == cases
    assert caught == cases

