"""The four functional-equation forms satisfied by the even-weight series.

Writing S_m(z) for the bilateral sum of (Q_j z + Q_{j-1})^(-m) and m = 2k:

    inversion:   S(-1/z)  =  z^(2k)  * S(z)
    reflection:  S(2-z)   =            S(z)
    shift:       S(z+2)   =  z^(-2k) * S(1/z)
    negation:    S(-z)    =  z^(-2k) * S(1/z)

Each is S(L(z)) = z^(s*m) * S(R(z)) for maps L, R: z -> (a z + b)/(c z + d),
and _ROWS holds one row per equation: (L, R, s, window offset).  Matching
left-side terms with right-side terms moves the window |j| <= J by the
offset: by 0 for the reflection (term j meets term -j), by 1 for the other
three, which leaves right-side term J+1 and term -J over at the edges.  Both
the numeric and the exact checkers read the equation shape from here.
"""

from enum import Enum

_Z = (1, 0, 0, 1)
_RECIPROCAL = (0, 1, 1, 0)

_ROWS = {
    #              left map L      right map R  s  offset
    "inversion":  ((0, -1, 1, 0), _Z,           1, 1),  # -1/z
    "reflection": ((-1, 2, 0, 1), _Z,           0, 0),  # 2 - z
    "shift":      ((1, 2, 0, 1),  _RECIPROCAL, -1, 1),  # z + 2
    "negation":   ((-1, 0, 0, 1), _RECIPROCAL, -1, 1),  # -z
}


class EquationId(Enum):
    INVERSION = "inversion"
    REFLECTION = "reflection"
    SHIFT = "shift"
    NEGATION = "negation"

    @property
    def row(self) -> tuple[tuple[int, int, int, int],
                           tuple[int, int, int, int], int, int]:
        """(left map, right map, prefactor sign s, window offset); each map
        is the (a, b, c, d) of (a z + b)/(c z + d)."""
        return _ROWS[self._value_]  # the value property costs a call
