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
factors, and their canonical form is read off those roots: a factor is
stripped when an exact integer root test shows that it divides (_tally_sum).
Each group of terms over one linear factor is reduced once per proof: the
three sums of a proof share a memo of their reductions, which lives for
that call alone.

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
function exactly when the identity holds.  Each boundary term is the one
term of a group that the residual has reduced already, so a proof with
offset 1 reduces two groups, and one with offset 0 none.

Polynomial, poly_gcd and the reference path (window_sum, term_rf,
substitute) live in exact_reference, the one module that imports fractions,
and are public there alone.
"""

import math
from collections import namedtuple
from itertools import zip_longest

from . import _first_use
from .equations import EquationId
from .errors import require_int, require_type
from .sequence import pell_lucas  # unused; perfbench wraps it
from .sequence import pell_lucas_range

WINDOW_HALF_WIDTH_GUARD = 8
WINDOW_WEIGHT_GUARD = 6

# unused; perfbench wraps these (first use loads exact_reference)
__getattr__ = _first_use(__name__, dict.fromkeys((
    "Polynomial", "poly_gcd", "window_sum", "substitute"), "exact_reference"))


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
    if lead < 0:  # c / lead is -c / -lead: every gcd below is then positive
        num, den, lead = [-c for c in num], [-c for c in den], -lead
    gcd, texts = math.gcd, []
    for part in num, den:
        words = []
        for c in part:
            g = gcd(c, lead)
            words.append(str(c // g) if g == lead else f"{c // g}/{lead // g}")
        texts.append(" ".join(words))
    return texts[0] or "0", texts[1]


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
    if not q:
        return [0] * m + [p ** m]
    return [math.comb(m, i) * q ** (m - i) * p ** i
            for i in range(m + 1 if p else 1)]


def _root_divides(acc: list[int], a: int, b: int) -> bool:
    """Whether a z + b (a != 0) divides acc: a^deg acc(-b/a) == 0 (factor
    theorem); over Z too when (a, b) is primitive (Gauss's lemma)."""
    v, ap = 0, 1
    for c in reversed(acc):
        v = v * -b + c * ap
        ap *= a
    return not v


def _reduce_group(a: int, b: int, entries: tuple, m: int) -> tuple:
    """One group of _tally_sum: the sum over its entries (pair, g^m, count)
    of count * (p z + q)^m / (g (a z + b))^m, (a, b) primitive, as integer
    (numerator, denominator) lists, the numerator [] for a zero sum.

    The numerators are summed over one integer scale, the lcm of the g^m;
    a one-entry group (every boundary term, and every residual group of an
    offset-1 proof) is its own numerator over its own g^m.  The sum is
    divided by a z + b, at most m times, each time the root test
    (_root_divides) shows that it divides, and the denominator is the scale
    times the power of a z + b that remains.
    """
    if len(entries) == 1:
        ((pair, scale, count),) = entries
        acc = [count * c for c in _linear_power(*pair, m)]
    else:
        scale = math.lcm(*(gm for _, gm, _ in entries))
        acc = [0] * (m + 1)
        for pair, gm, count in entries:
            f = count * (scale // gm)
            for i, c in enumerate(_linear_power(*pair, m)):
                acc[i] += f * c
    while acc and not acc[-1]:
        acc.pop()
    if not acc:
        return acc, [1]
    power = m
    while power and a and _root_divides(acc, a, b):  # (0, 1) is 1 itself
        acc = _int_exact_div(acc, [b, a])
        power -= 1
    return acc, [scale * c for c in _linear_power(a, b, power)]


def _tally_sum(tally: dict, m: int, memo: dict) -> RationalFunction:
    """Exact sum of count * (p z + q)^m / (alpha z + beta)^m over the tally,
    in canonical form, found with no gcd.

    The denominator pairs are sign-normalised, as _pair gives them; a zero
    count adds nothing, and the prover drops its zero counts before it sums.
    Entries are grouped by the primitive pair (a, b) = (alpha, beta) / g,
    g the content, and each group is reduced by _reduce_group: its
    numerators summed over one scale and its linear factor stripped where
    the root test shows that it divides.  memo maps (a, b, entries) to that
    reduction, for sums of one weight m: a group met again, in another sum
    of the same proof, is not reduced again.  The groups are summed over
    the product of the powers that remain, starting from the first.  The
    result is coprime over Q: distinct primitive pairs have distinct roots
    -b/a; at the root of a remaining factor its own group's numerator does
    not vanish, as the root test showed, and no other group's factor
    vanishes there either, so neither does the numerator of the sum.
    """
    groups = {}
    for (num, (alpha, beta)), count in tally.items():
        g = math.gcd(alpha, beta)
        groups.setdefault((alpha // g, beta // g), []).append(
            (num, g ** m, count))
    num, den = [], [1]
    for (a, b), entries in groups.items():
        key = a, b, tuple(entries)
        reduced = memo.get(key)
        if reduced is None:
            reduced = memo[key] = _reduce_group(*key, m)
        acc, d = reduced
        if not acc:
            continue
        if num:
            num = [x + y for x, y in zip_longest(
                _int_mul(num, d), _int_mul(acc, den), fillvalue=0)]
            den = _int_mul(den, d)
        else:
            num, den = acc, d
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
    require_int("half_width", half_width, 2, WINDOW_HALF_WIDTH_GUARD)
    require_int("k", k, 1, WINDOW_WEIGHT_GUARD // 2)
    m = 2 * k

    # Right-side term j is z^(s m) (c z + d)^m / (alpha z + beta)^m under
    # the right map; z^s (c z + d) is z for the inversion and 1 otherwise.
    left, right, s, offset = equation.row
    lhs_num = _sign_normal(*left[2:])
    rhs_num = (1, 0) if s == 1 else (0, 1)
    J = half_width
    qs = pell_lucas_range(-J - 1, J + 1)   # Q_n is qs[n + J + 1]
    # Term j of either side has the pair of _pair, written out here with
    # each map's row unpacked once: j runs over -J .. J, with Q_j, Q_{j-1}.
    la, lb, lc, ld = left
    ra, rb, rc, rd = right
    tally = {}
    get = tally.get
    for q_j, q_prev in zip(qs[1:-1], qs):
        p, q = la * q_j + lc * q_prev, lb * q_j + ld * q_prev
        key = lhs_num, ((p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q))
        tally[key] = get(key, 0) + 1
        p, q = ra * q_j + rc * q_prev, rb * q_j + rd * q_prev
        key = rhs_num, ((p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q))
        tally[key] = get(key, 0) - 1
    tally = {key: count for key, count in tally.items() if count}
    memo = {}  # this proof's group reductions, shared by its three sums
    residual = _tally_sum(tally, m, memo)

    # With offset 1 the left window meets right-side terms -J+1 .. J+1, so
    # the boundary is + right-side term J+1 and - right-side term -J.
    edges = [(1, J + 1), (-1, -J)] if offset else []
    boundary = []
    for sign, j in edges:
        key = rhs_num, _pair(right, qs[j + J + 1], qs[j + J])
        boundary.append(_tally_sum({key: sign}, m, memo))
        count = tally.get(key, 0) - sign
        if count:
            tally[key] = count
        else:
            del tally[key]
    defect = _tally_sum(tally, m, memo)
    return ExactIdentityReport(equation, half_width, m, residual,
                               boundary, defect)
