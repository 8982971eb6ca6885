"""Polynomials with Fraction coefficients, and the exact engine's
canonicalise-everything reference path: the one module that imports
fractions, loaded by exact on first use of one of its names.

RationalFunction's general constructor (in exact) clears both parts by one
common integer and divides them exactly by their primitive gcd, which by
Gauss's lemma leaves integer quotients.  The gcd is found modulo the prime
2^61 - 1 and checked by exact division; only where that one prime does not
decide it does the primitive remainder sequence run.  window_sum, term_rf
and substitute build the residual and boundary terms of the identity
checks the slow way, by canonicalising whole rational functions; the tests
check the termwise prover against them.  substitute takes a map as the
integer tuple (a, b, c, d) of an equation row.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import require_int
from .exact import (WINDOW_WEIGHT_GUARD, RationalFunction,
                    _check_window_guard, _int_exact_div)
from .sequence import pell_lucas

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

    A part is a Polynomial, an int or a Fraction; integral coefficients
    pass through without a Fraction round trip.
    """
    parts = [_as_poly(p).coeffs for p in parts]
    scale = 1
    for cs in parts:
        for c in cs:
            scale = math.lcm(scale, c.denominator)
    return [[c.numerator * (scale // c.denominator) for c in cs]
            for cs in parts]


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


_PRIME = (1 << 61) - 1   # a Mersenne prime
_LIFT_BOUND = math.isqrt(_PRIME // 2)


def _lift(c: int) -> tuple[int, int]:
    """(n, d) with n = c d modulo _PRIME, |n| <= sqrt(p/2) and d != 0, by
    the extended Euclid of p and c stopped half way (Wang's rational
    reconstruction); d may exceed sqrt(p/2) where no such fraction is."""
    r0, r1, t0, t1 = _PRIME, c, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int] | None:
    """The primitive gcd of the nonzero integer polynomials a and b, as
    _int_gcd gives it, found modulo the prime p = 2^61 - 1, or None where
    this one prime does not decide it.

    If p divides neither leading coefficient, the gcd g over Z divides a
    and b with a leading coefficient that p does not divide, so g keeps its
    degree modulo p and divides the gcd h over GF(p) (Knuth, TAOCP vol. 2,
    4.6.1): deg g <= deg h.  h of degree 0 gives g = 1.  Otherwise the
    coefficients of monic h are lifted to small fractions, cleared and made
    primitive; a candidate that divides a and b over Z divides g, and has
    the degree of h, so it is g.
    """
    p = _PRIME
    if a[-1] % p == 0 or b[-1] % p == 0:
        return None
    h, r = [c % p for c in a], [c % p for c in b]
    while r:
        # h becomes h mod r over GF(p); then the two swap.
        inv, dr = pow(r[-1], -1, p), len(r) - 1
        while len(h) > dr:
            f, shift = h[-1] * inv % p, len(h) - 1 - dr
            h.pop()   # the leading term cancels
            for i in range(dr):
                h[shift + i] = (h[shift + i] - f * r[i]) % p
            while h and h[-1] == 0:
                h.pop()
        h, r = r, h
    if len(h) == 1:
        return [1]
    inv = pow(h[-1], -1, p)
    lifted = [_lift(c * inv % p) for c in h]
    scale = math.lcm(*(d for _, d in lifted))
    g = _primitive([n * (scale // d) for n, d in lifted])
    try:
        _int_exact_div(a, g)
        _int_exact_div(b, g)
    except ArithmeticError:
        return None
    return g


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via a primitive remainder sequence over the integers."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _int_gcd(*_cleared(a, b))
    return Polynomial([Fraction(c, g[-1]) for c in g])


def term_rf(j: int, m: int) -> RationalFunction:
    """The exact term 1/(Q_j z + Q_{j-1})^m as a canonical rational function,
    for 1 <= m <= WINDOW_WEIGHT_GUARD (the power's cost grows faster than
    m^2)."""
    require_int("m", m)
    if m < 1:
        raise ValueError("term power must be at least 1")
    if m > WINDOW_WEIGHT_GUARD:
        raise ValueError(f"term power must be at most {WINDOW_WEIGHT_GUARD}")
    lin = Polynomial((pell_lucas(j - 1), pell_lucas(j)))
    return RationalFunction(1, lin ** m)


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
    _check_window_guard(half_width, "m", m, WINDOW_WEIGHT_GUARD)
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
