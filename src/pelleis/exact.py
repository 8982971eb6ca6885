"""Exact rational functions and finite-window identity checks.

A rational function is kept in canonical form: numerator and denominator
coprime, denominator monic, so equality is coefficient-by-coefficient
equality.  The form is kept as coprime integer parts; num and den, with
Fraction coefficients over the monic denominator, are built when first
read, and the prover and the CLI never read them.  The general constructor
takes Polynomials, ints and Fractions as parts and canonicalises through
the gcd of exact_reference; rational-function arithmetic takes rational
functions alone: a scalar operand raises TypeError.  The prover's sums
need no gcd: their denominators are products of powers of known linear
factors, and their canonical form is read off those roots (_tally_sum).

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

Polynomial, poly_gcd and the reference path (window_sum, term_rf,
substitute) live in exact_reference, the one module that imports fractions.
They resolve here too, through the module __getattr__ (PEP 562), which
loads exact_reference on first use, so a proof loads no fractions.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import zip_longest

from .equations import EquationId
from .errors import require_int, require_type
from .sequence import pell_lucas  # unused; perfbench wraps it
from .sequence import pell_lucas_range

WINDOW_HALF_WIDTH_GUARD = 8
WINDOW_WEIGHT_GUARD = 6

# The names exact_reference defines that resolve here on first use.
_REFERENCE = frozenset((
    "Polynomial", "poly_gcd", "term_rf", "window_sum", "substitute",
    "_as_poly", "_cleared", "_primitive", "_int_rem", "_int_gcd", "_PRIME",
    "_LIFT_BOUND", "_lift", "_gcd_mod_p"))


def __getattr__(name: str):
    if name not in _REFERENCE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from . import exact_reference
    return getattr(exact_reference, name)


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
        from .exact_reference import _cleared, _gcd_mod_p, _int_gcd
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
        from .exact_reference import Fraction, Polynomial
        num, den = self._parts
        lead = den[-1]
        self.num = Polynomial([Fraction(c, lead) for c in num])
        self.den = Polynomial([Fraction(c, lead) for c in den])
        return getattr(self, name)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(0)

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


def _check_window_guard(half_width: int, name: str, weight: int,
                        cap: int) -> None:
    """Refuse a window past the guard; name is the caller's weight
    parameter, weight its value and cap its largest allowed value."""
    if half_width > WINDOW_HALF_WIDTH_GUARD or weight > cap:
        raise ValueError(
            f"window guard: half_width <= {WINDOW_HALF_WIDTH_GUARD} "
            f"and {name} <= {cap}")


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
