"""Exact rational-function arithmetic and finite-window identity checks.

Polynomials and rational functions carry Fraction coefficients, and
equality means coefficient-by-coefficient equality of canonical forms:
numerator and denominator coprime, denominator monic.  The canonical form
is computed over the integers (fraction-free): both parts are cleared by
one common integer, divided exactly by their primitive gcd, which by
Gauss's lemma leaves integer quotients, and converted to Fractions once,
when the denominator is made monic.

The identity checks are termwise.  Under a map T(z) = (a z + b)/(c z + d)
the term 1/(Q_j z + Q_{j-1})^m becomes (c z + d)^m / (alpha z + beta)^m
with the integers alpha = a Q_j + c Q_{j-1} and beta = b Q_j + d Q_{j-1}.
Every functional equation reads S(L(z)) = z^(s m) S(R(z)) (see equations),
so each left-side term has this shape under L, and each right-side term
under R, with numerator (z^s (c z + d))^m, which is z^m or 1 for every
equation.  Because m is even, two such terms are equal when their integer
pairs agree up to sign, so the check tallies the terms of both sides by
sign-normalised pairs and sums, as one exact rational function, only the
terms whose tally is not zero.  That sum is the full residual lhs - rhs
regrouped, not an assumption that the identity holds.  One boundary rule
serves every equation: with window offset 0 (the reflection, j -> -j) the
window |j| <= J is matched onto itself; with offset 1 the matching moves
it one slot (for the inversion Q_{j-1} z - Q_j = (-1)^(j-1) (Q_{1-j} z +
Q_{-j})), and the boundary is + right-side term J+1 and - right-side term
-J.  The boundary terms are written from their integer pairs, returned,
and entered into the same tally with the opposite sign; the defect,
residual minus boundary, is the exact sum of the terms whose tally is
still not zero, and is the zero rational function exactly when the
identity holds.

window_sum, term_rf and substitute build the same residual and boundary
terms the slow way, by canonicalising whole rational functions; they
remain the reference the tests check the termwise prover against.
substitute takes a map as the integer tuple (a, b, c, d) of an equation
row, the one form of a Moebius map in the package.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .equations import EquationId
from .errors import require_int, require_type
from .sequence import pell_lucas

WINDOW_HALF_WIDTH_GUARD = 8
WINDOW_WEIGHT_GUARD = 6

_ZERO = Fraction(0)


class Polynomial:
    """Dense univariate polynomial, Fraction coefficients in ascending order.

    Trailing zero coefficients are stripped; the zero polynomial has empty
    coefficients and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.leading
        q = [_ZERO] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            factor = rem[k + dd] / lead
            if factor:
                q[k] = factor
                for i, c in enumerate(other.coeffs):
                    rem[k + i] -= factor * c
        return Polynomial(q), Polynomial(rem[:dd] if dd > 0 else ())

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction x, complex otherwise."""
        if isinstance(x, (int, Fraction)):
            acc = _ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _as_poly(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial((v,))
    raise TypeError(f"cannot treat {type(v).__name__} as a polynomial")


def _cleared(*parts) -> list[list[int]]:
    """Integer coefficient lists of parts, all scaled by one positive integer.

    A part is a Polynomial, an int, a Fraction or a list of int or Fraction
    coefficients in ascending order; integral coefficients pass through
    without a Fraction round trip.  Trailing zeros are dropped.
    """
    parts = [p if isinstance(p, (list, tuple)) else _as_poly(p).coeffs
             for p in parts]
    scale = 1
    for cs in parts:
        for c in cs:
            scale = math.lcm(scale, c.denominator)
    out = []
    for cs in parts:
        ints = [c.numerator * (scale // c.denominator) for c in cs]
        while ints and not ints[-1]:
            ints.pop()
        out.append(ints)
    return out


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, signed so the leading coefficient is > 0."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b over Z, scaled freely; content is stripped later."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            return r
        shift = len(r) - 1 - db
        top = r[-1]
        g = math.gcd(top, lb)
        scale = lb // g
        mult = top // g
        if scale != 1:
            r = [c * scale for c in r]
        for i in range(db + 1):
            r[shift + i] -= mult * b[i]


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, leading coefficient > 0, of two nonzero integer
    polynomials, by a primitive remainder sequence.

    Fraction-based Euclid suffers badly from coefficient blowup at the
    degrees window sums reach; integer remainders with content stripping
    keep the growth tame.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_rem(a, b)
        a, b = b, _primitive(r) if r else r
    return a


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b over Z; raises ArithmeticError unless b divides a exactly."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f = r[k + db] // lb
        for i, c in enumerate(b):
            r[k + i] -= f * c
    if any(r):  # a floored quotient leaves its remainder in r
        raise ArithmeticError("inexact polynomial division over Z")
    return q


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via a primitive remainder sequence over the integers."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _int_gcd(*_cleared(a, b))
    return Polynomial([Fraction(c, g[-1]) for c in g])


class RationalFunction:
    """Quotient of polynomials kept in canonical form.

    Canonical means numerator and denominator coprime and the denominator
    monic, so __eq__ is plain coefficient comparison.  num and den may be
    Polynomials, ints, Fractions or ascending lists of int or Fraction
    coefficients; the form is computed over Z and stored with Fraction
    coefficients.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num, den = _cleared(num, 1 if den is None else den)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            self.num = Polynomial()
            self.den = Polynomial((1,))
            return
        g = _int_gcd(num, den)
        if len(g) > 1:
            num = _int_exact_div(num, g)
            den = _int_exact_div(den, g)
        lead = den[-1]
        self.num = Polynomial([Fraction(c, lead) for c in num])
        self.den = Polynomial([Fraction(c, lead) for c in den])

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def evaluate(self, x):
        """Exact Fraction value at a rational point, complex otherwise.

        Raises ZeroDivisionError at a pole of the canonical denominator.
        """
        n = self.num.evaluate(x)
        d = self.den.evaluate(x)
        return n / d

    def __repr__(self):
        return (f"RationalFunction({list(self.num.coeffs)!r}, "
                f"{list(self.den.coeffs)!r})")


def _as_rf(v) -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, (int, Fraction, Polynomial)):
        return RationalFunction(v)
    raise TypeError(f"cannot treat {type(v).__name__} as a rational function")


def term_rf(j: int, m: int) -> RationalFunction:
    """The exact term 1/(Q_j z + Q_{j-1})^m as a canonical rational function."""
    require_int("m", m)
    if m < 1:
        raise ValueError("term power must be at least 1")
    lin = Polynomial((pell_lucas(j - 1), pell_lucas(j)))
    return RationalFunction(1, lin ** m)


def _check_window_guard(half_width: int, m: int) -> None:
    if half_width > WINDOW_HALF_WIDTH_GUARD or m > WINDOW_WEIGHT_GUARD:
        raise ValueError(
            f"window guard: half_width <= {WINDOW_HALF_WIDTH_GUARD} "
            f"and m <= {WINDOW_WEIGHT_GUARD}")


def window_sum(half_width: int, m: int) -> RationalFunction:
    """Sum of term_rf(j, m) over |j| <= half_width, combined exactly.

    The canonical denominator has degree (2*half_width + 1) * m because the
    term denominators are pairwise coprime; the window guard keeps that
    degree at most 17 * 6 = 102.
    """
    require_int("half_width", half_width)
    require_int("m", m)
    if half_width < 1 or m < 1:
        raise ValueError("window needs half_width >= 1 and m >= 1")
    _check_window_guard(half_width, m)
    total = RationalFunction.zero()
    for j in range(-half_width, half_width + 1):
        total = total + term_rf(j, m)
    return total


def substitute(f: RationalFunction,
               t: tuple[int, int, int, int]) -> RationalFunction:
    """f composed with t, i.e. z -> f((a z + b)/(c z + d)), exactly.

    t is the (a, b, c, d) of the map, as in EquationId.row; a map with
    a d - b c = 0 raises ValueError.

    Both parts of f are cleared by the same power of (c z + d), so the
    result is again a ratio of polynomials.
    """
    a, b, c, d = t
    if a * d - b * c == 0:
        raise ValueError("degenerate map: zero determinant")
    if f.is_zero:
        return RationalFunction.zero()
    nt = Polynomial((b, a))
    dt = Polynomial((d, c))
    p = max(f.num.degree, f.den.degree)
    npow = [Polynomial((1,))]
    dpow = [Polynomial((1,))]
    for _ in range(p):
        npow.append(npow[-1] * nt)
        dpow.append(dpow[-1] * dt)

    def clear(poly: Polynomial) -> Polynomial:
        out = Polynomial()
        for i, c in enumerate(poly.coeffs):
            if c:
                out = out + (npow[i] * dpow[p - i]).scale(c)
        return out

    return RationalFunction(clear(f.num), clear(f.den))


@dataclass
class ExactIdentityReport:
    """Outcome of a finite-window functional-equation check."""

    equation: EquationId
    half_width: int
    weight: int
    residual: RationalFunction
    boundary_terms: list[RationalFunction]
    defect: RationalFunction

    @property
    def holds(self) -> bool:
        return self.defect.is_zero

    @property
    def verdict(self) -> str:
        if self.residual.is_zero and not self.boundary_terms:
            return "EXACT-ZERO"
        if self.defect.is_zero:
            return "EXACT-ZERO-AFTER-BOUNDARY"
        return "NONZERO"


def _sign_normal(p: int, q: int) -> tuple[int, int]:
    """(p, q) or (-p, -q), whichever has its first nonzero entry positive.

    For even m, (p z + q)^m does not depend on that sign.
    """
    return (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)


def _pair(coeffs: tuple[int, int, int, int], q_j: int,
          q_prev: int) -> tuple[int, int]:
    """Sign-normalised (a Q_j + c Q_{j-1}, b Q_j + d Q_{j-1}): term j under
    the map (a z + b)/(c z + d) has denominator (alpha z + beta)^m."""
    a, b, c, d = coeffs
    return _sign_normal(a * q_j + c * q_prev, b * q_j + d * q_prev)


def _linear_power(p: int, q: int, m: int) -> list[int]:
    """Integer coefficients of (p z + q)^m, ascending, by the binomial
    theorem."""
    return [math.comb(m, i) * q ** (m - i) * p ** i
            for i in range(m + 1 if p else 1)]


def _tally_sum(tally: Counter, m: int) -> RationalFunction:
    """Exact sum of count * (p z + q)^m / (alpha z + beta)^m over the tally.

    Numerators that share a denominator are added first; the groups are
    then added over the product of their denominators, in integers, and
    canonicalised once.
    """
    groups = {}
    for (num, den), count in tally.items():
        if count:
            acc = groups.setdefault(den, [0] * (m + 1))
            for i, c in enumerate(_linear_power(*num, m)):
                acc[i] += count * c
    num, den = [], [1]
    for pair, acc in groups.items():
        d = _linear_power(*pair, m)
        num = [x + y for x, y in zip_longest(_int_mul(num, d),
                                            _int_mul(acc, den), fillvalue=0)]
        den = _int_mul(den, d)
    return RationalFunction(num, den)


def verify_identity_exact(equation: EquationId, half_width: int,
                          k: int) -> ExactIdentityReport:
    """Check one functional equation on the window |j| <= half_width, weight 2k.

    Returns the residual lhs - rhs, the boundary terms produced by the
    window reindexing, and the defect residual - sum(boundary).  The defect
    is the zero rational function exactly when the identity holds.

    Every term on either side is (p z + q)^m / (alpha z + beta)^m with
    integer pairs read from the equation's row; terms are tallied by their
    sign-normalised pairs (+1 on the left, -1 on the right) and the residual
    is the exact sum of the terms whose tally is not zero.  Each boundary
    term is a right-side term at an index the window offset leaves over,
    tallied with the opposite sign; the defect is the exact sum of the
    terms whose tally is then still not zero.  Canonical forms are unique,
    so it equals residual - sum(boundary) coefficient by coefficient.
    """
    require_type("equation", equation, EquationId)
    require_int("half_width", half_width)
    require_int("k", k)
    if half_width < 2:
        raise ValueError("identity check needs half_width >= 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k
    _check_window_guard(half_width, m)

    # Right-side term j is z^(s m) (c z + d)^m / (alpha z + beta)^m under
    # the right map; z^s (c z + d) is z for the inversion and 1 otherwise.
    left, right, s, offset = equation.row
    lhs_num = _sign_normal(*left[2:])
    rhs_num = (1, 0) if s == 1 else (0, 1)
    tally = Counter()
    for j in range(-half_width, half_width + 1):
        q_j, q_prev = pell_lucas(j), pell_lucas(j - 1)
        tally[lhs_num, _pair(left, q_j, q_prev)] += 1
        tally[rhs_num, _pair(right, q_j, q_prev)] -= 1
    residual = _tally_sum(tally, m)

    # With offset 1 the left window meets right-side terms -J+1 .. J+1, so
    # the boundary is + right-side term J+1 and - right-side term -J.
    J = half_width
    edges = [(1, J + 1), (-1, -J)] if offset else []
    numerator = _linear_power(*rhs_num, m)
    boundary = []
    for sign, j in edges:
        den = _pair(right, pell_lucas(j), pell_lucas(j - 1))
        boundary.append(RationalFunction([sign * c for c in numerator],
                                         _linear_power(*den, m)))
        tally[rhs_num, den] -= sign
    defect = _tally_sum(tally, m)
    return ExactIdentityReport(equation, half_width, m, residual,
                               boundary, defect)
