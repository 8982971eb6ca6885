"""The window sum of the series at a double input, exactly, in the stdlib.

A double z = x + iy has dyadic parts, so over one power of two D both are
integers, x = X/D and y = Y/D.  Then D w_j = D (Q_j z + Q_{j-1}) is the
Gaussian integer

    W_j = (Q_j X + Q_{j-1} D) + i Q_j Y,

and term j, w_j^(-m) = D^m conj(W_j)^m / |W_j|^(2m), is an exact Gaussian
rational.  The sum over |j| <= J is therefore exact: no rounding is left,
only the tail beyond J.  The Pell-Lucas numbers come from this module's own
recurrence, so the referee shares no code with the package (or with the
mpmath oracle).
"""

from __future__ import annotations

from fractions import Fraction

_Q = {0: 2, 1: 2}


def pell_lucas(n: int) -> int:
    """Q_n from Q_0 = Q_1 = 2 and Q_n = 2 Q_{n-1} + Q_{n-2}, run forward
    for n > 1 and backward, Q_{n-2} = Q_n - 2 Q_{n-1}, for n < 0."""
    if n not in _Q:
        if n > 1:
            for k in range(max(_Q) + 1, n + 1):
                _Q[k] = 2 * _Q[k - 1] + _Q[k - 2]
        else:
            for k in range(min(_Q) - 1, n - 1, -1):
                _Q[k] = _Q[k + 2] - 2 * _Q[k + 1]
    return _Q[n]


def over_one_power_of_two(z: complex) -> tuple[int, int, int]:
    """(X, Y, D) with D a power of two and z = (X + iY)/D exactly."""
    (xn, xd), (yn, yd) = (z.real.as_integer_ratio(),
                          z.imag.as_integer_ratio())
    d = max(xd, yd)
    return xn * (d // xd), yn * (d // yd), d


def window_sum(z: complex, m: int, half_width: int,
               q=pell_lucas) -> tuple[Fraction, Fraction]:
    """(real, imaginary) part of sum_{|j| <= half_width} (Q_j z +
    Q_{j-1})^(-m), exactly, at the double z; q(n) gives Q_n.  A term whose
    W_j is 0 (z on a pole) raises ZeroDivisionError."""
    x, y, d = over_one_power_of_two(complex(z))
    scale = d ** m
    re_sum = im_sum = Fraction(0)
    for j in range(-half_width, half_width + 1):
        q_j, q_prev = q(j), q(j - 1)
        a, b = q_j * x + q_prev * d, -q_j * y     # conj(W_j)
        re, im = 1, 0
        for _ in range(m):
            re, im = re * a - im * b, re * b + im * a
        norm_m = (a * a + b * b) ** m             # |W_j|^(2m)
        re_sum += Fraction(scale * re, norm_m)
        im_sum += Fraction(scale * im, norm_m)
    return re_sum, im_sum
