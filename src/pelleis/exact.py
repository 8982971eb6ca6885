"""Exact rational-function arithmetic and finite-window identity checks.

Polynomials and rational functions carry Fraction coefficients, and
equality means coefficient-by-coefficient equality of canonical forms:
numerator and denominator coprime, denominator monic.  The canonical form
is computed over the integers (fraction-free): both parts are cleared by
one common integer and divided exactly by their primitive gcd, which by
Gauss's lemma leaves integer quotients.  They are kept as integers; the
Fractions over the monic denominator are built when first read, and the
prover and the CLI never read them.  The gcd is found modulo the prime
2^61 - 1 and checked by exact division; only where that one prime does
not decide it does the primitive remainder sequence run.  That gcd serves
the general constructor alone: the prover's sums have denominators that
are products of powers of known linear factors, and their canonical form
is read off those roots with no gcd (_tally_sum).  The constructor takes
Polynomials, ints and Fractions as parts, and rational-function arithmetic
takes rational functions alone: a scalar operand raises TypeError.

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
-J.  The boundary terms are written from their integer pairs, each summed
as a one-entry tally, returned, and entered into the same tally with the
opposite sign; the defect, residual minus boundary, is the exact sum of
the terms whose tally is still not zero, and is the zero rational
function exactly when the identity holds.

window_sum, term_rf and substitute build the same residual and boundary
terms the slow way, by canonicalising whole rational functions; they
remain the reference the tests check the termwise prover against.
substitute takes a map as the integer tuple (a, b, c, d) of an equation
row, the one form of a Moebius map in the package.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import zip_longest

from .equations import EquationId
from .errors import require_int, require_type
from .sequence import pell_lucas, pell_lucas_range

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
    Polynomials, ints or Fractions; the form is computed over Z and kept as
    coprime integer parts (_store), which is_zero and coefficient_texts read;
    num and den, with Fraction coefficients over the monic denominator, are
    built on first read.  Arithmetic takes rational functions only.
    """

    __slots__ = ("num", "den", "_parts")

    def __init__(self, num, den=None):
        num, den = _cleared(num, 1 if den is None else den)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if num:
            g = _gcd_mod_p(num, den) or _int_gcd(num, den)
            if len(g) > 1:
                num = _int_exact_div(num, g)
                den = _int_exact_div(den, g)
        self._store(num, den)

    def _store(self, num: list[int], den: list[int]) -> None:
        """Keep coprime integer parts; the zero function is [] over [1]."""
        while num and not num[-1]:
            num.pop()
        self._parts = (num, den) if num else ([], [1])

    def __getattr__(self, name: str):
        # Reached only while a slot is empty: num and den are built from
        # the integer parts, over the denominator made monic, on first read.
        if name not in ("num", "den"):
            raise AttributeError(name)
        num, den = self._parts
        lead = den[-1]
        self.num = Polynomial([Fraction(c, lead) for c in num])
        self.den = Polynomial([Fraction(c, lead) for c in den])
        return getattr(self, name)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial())

    @property
    def is_zero(self) -> bool:
        return not self._parts[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
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


def coefficient_texts(rf: RationalFunction) -> tuple[str, str]:
    """rf's numerator and denominator coefficients, space separated, each
    as str(Fraction(c, lead)) writes it (n/d in lowest terms, d > 0, or n
    for d = 1), lead the leading coefficient of the integer denominator;
    read off the integer parts, with no Fraction built.  Zero is "0"."""
    num, den = rf._parts
    lead = den[-1]

    def text(c: int) -> str:
        g = math.gcd(c, lead) if lead > 0 else -math.gcd(c, lead)
        return str(c // g) if g == lead else f"{c // g}/{lead // g}"
    return " ".join(map(text, num)) or "0", " ".join(map(text, den))


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


def _check_window_guard(half_width: int, name: str, weight: int,
                        cap: int) -> None:
    """Refuse a window past the guard; name is the caller's weight
    parameter, weight its value and cap its largest allowed value."""
    if half_width > WINDOW_HALF_WIDTH_GUARD or weight > cap:
        raise ValueError(
            f"window guard: half_width <= {WINDOW_HALF_WIDTH_GUARD} "
            f"and {name} <= {cap}")


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


class ExactIdentityReport(namedtuple("ExactIdentityReport",
                                     "equation half_width weight residual "
                                     "boundary_terms defect")):
    """Outcome of a finite-window functional-equation check."""

    __slots__ = ()

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
    """Exact sum of count * (p z + q)^m / (alpha z + beta)^m over the tally,
    in canonical form, found with no gcd.

    The denominator pairs are sign-normalised, as _pair gives them.
    Entries are grouped by the primitive pair (a, b) = (alpha, beta) / g,
    g the content; a group's numerators are summed over one integer scale,
    the lcm of g^m over its entries.  Each group's numerator is then divided
    by a z + b while that divides exactly, at most m times, and the groups
    are summed over the product of the powers that remain.  The result is
    coprime over Q: distinct primitive pairs have distinct roots -b/a; at
    the root of a remaining factor its own group's numerator does not
    vanish, since the division there was inexact, and no other group's
    factor vanishes there either, so neither does the numerator of the sum.
    """
    groups = {}
    for (num, (alpha, beta)), count in tally.items():
        if count:
            g = math.gcd(alpha, beta)
            groups.setdefault((alpha // g, beta // g), []).append(
                (num, g ** m, count))
    num, den = [], [1]
    for (a, b), entries in groups.items():
        scale = math.lcm(*(gm for _, gm, _ in entries))
        acc = [0] * (m + 1)
        for pair, gm, count in entries:
            f = count * (scale // gm)
            for i, c in enumerate(_linear_power(*pair, m)):
                acc[i] += f * c
        while acc and not acc[-1]:
            acc.pop()
        if not acc:
            continue
        power = m
        try:
            while power and a:  # (0, 1) is the constant 1: nothing to strip
                acc = _int_exact_div(acc, [b, a])
                power -= 1
        except ArithmeticError:
            pass
        d = [scale * c for c in _linear_power(a, b, power)]
        num = [x + y for x, y in zip_longest(_int_mul(num, d),
                                            _int_mul(acc, den), fillvalue=0)]
        den = _int_mul(den, d)
    rf = RationalFunction.__new__(RationalFunction)
    rf._store(num, den)
    return rf


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
    _check_window_guard(half_width, "k", k, WINDOW_WEIGHT_GUARD // 2)
    m = 2 * k

    # Right-side term j is z^(s m) (c z + d)^m / (alpha z + beta)^m under
    # the right map; z^s (c z + d) is z for the inversion and 1 otherwise.
    left, right, s, offset = equation.row
    lhs_num = _sign_normal(*left[2:])
    rhs_num = (1, 0) if s == 1 else (0, 1)
    J = half_width
    qs = pell_lucas_range(-J - 1, J + 1)   # Q_n is qs[n + J + 1]
    tally = Counter()
    for j in range(-J, J + 1):
        q_j, q_prev = qs[j + J + 1], qs[j + J]
        tally[lhs_num, _pair(left, q_j, q_prev)] += 1
        tally[rhs_num, _pair(right, q_j, q_prev)] -= 1
    residual = _tally_sum(tally, m)

    # With offset 1 the left window meets right-side terms -J+1 .. J+1, so
    # the boundary is + right-side term J+1 and - right-side term -J.
    edges = [(1, J + 1), (-1, -J)] if offset else []
    boundary = []
    for sign, j in edges:
        den = _pair(right, qs[j + J + 1], qs[j + J])
        boundary.append(_tally_sum(Counter({(rhs_num, den): sign}), m))
        tally[rhs_num, den] -= sign
    defect = _tally_sum(tally, m)
    return ExactIdentityReport(equation, half_width, m, residual,
                               boundary, defect)
