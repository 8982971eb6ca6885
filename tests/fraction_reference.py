"""Rational-function canonical forms in Fraction arithmetic, independent of
the package's integer engine.

canonical() is the earlier RationalFunction constructor: divide both parts
by their gcd with Fraction polynomial division, then scale them so the
denominator is monic.  Its gcd is Euclid over the rationals, not the
package's integer remainder sequence.  tally_sum() is the earlier chained
tally sum: one rational function per tally entry, added one at a time.
Only the Fraction-coefficient Polynomial operations of the package are
used, so these serve as the reference for the fraction-free engine.
"""

from __future__ import annotations

from pelleis.exact import RationalFunction
from pelleis.exact_reference import Polynomial


def fraction_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm with Fraction remainders."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def canonical(num: Polynomial,
              den: Polynomial = Polynomial((1,))) -> RationalFunction:
    """num / den in canonical form, built without RationalFunction.__init__."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator polynomial")
    rf = RationalFunction.__new__(RationalFunction)
    if num.is_zero:
        rf.num, rf.den = Polynomial(), Polynomial((1,))
        return rf
    g = fraction_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lead = den.leading
    if lead != 1:
        num = num.scale(1 / lead)
        den = den.scale(1 / lead)
    rf.num, rf.den = num, den
    return rf


def add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return canonical(f.num * g.den + g.num * f.den, f.den * g.den)


def tally_sum(tally, m: int) -> RationalFunction:
    """Sum of count * (p z + q)^m / (alpha z + beta)^m, one entry at a time."""
    total = canonical(Polynomial())
    for ((p, q), (alpha, beta)), count in tally.items():
        if count:
            total = add(total, canonical(
                (Polynomial((q, p)) ** m).scale(count),
                Polynomial((beta, alpha)) ** m))
    return total
