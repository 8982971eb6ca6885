"""Independent 40-digit reference values of S_m(z), after tests/oracle.py.

The Pell-Lucas numbers are rebuilt here from the recurrence and every term
is summed in mpmath, so a check against these values shares no code with
the package.  Unlike the test oracle, which always sums 200 levels, the
sum stops once three consecutive levels add less than a millionth of the
bound being checked (or fall below the working precision); that keeps a
check near 3 ms per point.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

DPS = 40
MAX_LEVEL = 200
_QUIET_LEVELS = 3

_Q = {0: 2, 1: 2}


def q_int(n: int) -> int:
    """Q_n by direct recurrence, independent of the package's table."""
    if n not in _Q:
        if n > 1:
            for k in range(max(_Q) + 1, n + 1):
                _Q[k] = 2 * _Q[k - 1] + _Q[k - 2]
        else:
            for k in range(min(_Q) - 1, n - 1, -1):
                _Q[k] = _Q[k + 2] - 2 * _Q[k + 1]
    return _Q[n]


def series(z: complex, m: int, tol: float):
    """S_m(z) summed symmetrically until the levels fall below tol * 1e-6."""
    with mp.workdps(DPS):
        zz = mpc(z.real, z.imag)
        one = mpf(1)
        total = (one / (q_int(0) * zz + q_int(-1))) ** m
        quiet = 0
        for level in range(1, MAX_LEVEL + 1):
            plus = (one / (q_int(level) * zz + q_int(level - 1))) ** m
            minus = (one / (q_int(-level) * zz + q_int(-level - 1))) ** m
            total += plus
            total += minus
            step = abs(plus) + abs(minus)
            if step < max(1e-6 * tol, 1e-42 * abs(total)):
                quiet += 1
                if quiet >= _QUIET_LEVELS:
                    break
            else:
                quiet = 0
        return total


def outside_bound(z: complex, m: int, value: complex, bound: float) -> bool:
    """True when |value - S_m(z)| exceeds the certified bound."""
    ref = series(z, m, bound)
    with mp.workdps(DPS):
        return abs(mpc(value.real, value.imag) - ref) > bound
