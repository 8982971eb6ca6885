"""Rational-function arithmetic and the finite-window identity prover."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as reference

from pelleis import (EquationId, RationalFunction, pell_lucas,
                     verify_identity_exact)
from pelleis import equations, exact, exact_reference
from pelleis.exact import ExactIdentityReport
from pelleis.exact_reference import (_PRIME as _P, Polynomial, _gcd_mod_p,
                                     _int_gcd, poly_gcd, substitute, term_rf,
                                     window_sum)

X = Polynomial((0, 1))
F = Fraction
RECIPROCAL_MAP = (0, 1, 1, 0)  # 1/z, as (a, b, c, d) of (a z + b)/(c z + d)


# ---------------------------------------------------------------- polynomials

def test_polynomial_normalization():
    assert Polynomial().is_zero
    assert Polynomial().degree == -1
    assert Polynomial((0, 0)).is_zero
    assert Polynomial((1, 2, 0)).coeffs == (F(1), F(2))
    assert Polynomial((1, 2, 0)).degree == 1


def test_polynomial_arithmetic():
    assert (X + 1) * (X - 1) == X ** 2 - 1
    assert (X + 1) + (X - 1) == 2 * X
    assert -(X - 3) == 3 - X
    assert (X + 2) ** 0 == Polynomial((1,))


def test_polynomial_power_binomial():
    p = (X + 2) ** 5
    assert p.coeffs == tuple(F(math.comb(5, i) * 2 ** (5 - i))
                             for i in range(6))


def test_polynomial_power_refuses_what_is_not_an_int():
    # A float power crashed on n & 1, and True was taken as power 1; both
    # raise the standard operator TypeError, as a non-int operand should.
    for n in (2.0, True):
        with pytest.raises(TypeError, match=(
                r"^unsupported operand type\(s\) for \*\* or pow\(\): "
                f"'Polynomial' and '{type(n).__name__}'$")):
            X ** n
    with pytest.raises(ValueError, match="^negative polynomial power$"):
        X ** -1


def test_polynomial_divmod_roundtrip():
    a = X ** 3 + 2 * X - 7
    b = X + 1
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, Polynomial())


def test_polynomial_evaluate_exact_and_float():
    p = X ** 2 + 1
    v = p.evaluate(F(1, 2))
    assert isinstance(v, Fraction) and v == F(5, 4)
    assert p.evaluate(1j) == 0j
    assert p.evaluate(2.0) == 5.0


def test_poly_gcd_common_factor():
    a = (X - 1) * (X + 2) ** 2
    b = (X - 1) * (X + 3)
    g = poly_gcd(a, b)
    assert g == X - 1
    assert poly_gcd(a * 6, b * 15) == X - 1
    assert poly_gcd(Polynomial(), b) == b.monic()
    assert poly_gcd(a, Polynomial()) == a.monic()


def test_poly_gcd_runs_the_modular_gcd_first(monkeypatch):
    # The remainder sequence took 1.1 s on this pair (Python 3.11, 2 vCPUs);
    # the modular gcd decides it in milliseconds, and the sequence need not
    # run.
    w = window_sum(7, 6)

    def refused(*args):
        raise AssertionError("poly_gcd ran the remainder sequence")

    monkeypatch.setattr(exact_reference, "_int_gcd", refused)
    assert poly_gcd(w.num, w.den) == Polynomial((1,))


def test_equal_objects_hash_equal():
    a, b = (X - 1) * (X + 2), Polynomial((-2, 1, 1))
    assert a == b and a is not b and hash(a) == hash(b)
    r, s = RationalFunction(a, X - 1), RationalFunction(X + 2)
    assert r == s and hash(r) == hash(s)
    assert len({r, s, RationalFunction(X)}) == 2


def test_poly_gcd_random_products():
    rng = random.Random(7)

    def rand_poly(deg):
        return Polynomial([rng.randint(-5, 5) for _ in range(deg)] + [1])

    for _ in range(20):
        g = rand_poly(rng.randint(1, 3))
        p = rand_poly(rng.randint(1, 4))
        q = rand_poly(rng.randint(1, 4))
        got = poly_gcd(p * g, q * g)
        assert (got % g).is_zero  # g divides the gcd of (pg, qg)
        assert got.leading == 1


# ---------------------------------------------------------- rational functions

def test_rf_canonical_form():
    assert RationalFunction(X ** 2 - 1, X - 1) == RationalFunction(X + 1)
    r = RationalFunction(1, Polynomial((2, 2)))
    assert r.den == X + 1                     # denominator made monic
    assert r.num == Polynomial((F(1, 2),))
    assert RationalFunction(Polynomial(), X).is_zero
    assert RationalFunction(Polynomial(), X) == RationalFunction.zero()


def test_rf_arithmetic_matches_pointwise():
    rng = random.Random(11)

    def rand_rf():
        num = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        den = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))]
                         + [1])
        return RationalFunction(num, den)

    for _ in range(15):
        f, g = rand_rf(), rand_rf()
        h_sum, h_prod, h_diff = f + g, f * g, f - g
        for _ in range(4):
            x = F(rng.randint(-30, 30), rng.randint(1, 9))
            try:
                fv, gv = f.evaluate(x), g.evaluate(x)
                assert h_sum.evaluate(x) == fv + gv
                assert h_prod.evaluate(x) == fv * gv
                assert h_diff.evaluate(x) == fv - gv
            except ZeroDivisionError:
                continue


def test_rf_division():
    f = RationalFunction(X + 1, X - 2)
    assert f / f == RationalFunction(1)
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction.zero()


def test_rf_self_cancellation():
    w = window_sum(2, 1)
    assert (w - w).is_zero


# ------------------------------------------------------------------ term_rf

def test_term_rf_examples():
    t = term_rf(1, 2)   # 1/(2z + 2)^2
    assert t.den == (X + 1) ** 2
    assert t.num == Polynomial((F(1, 4),))

    t = term_rf(0, 1)   # 1/(2z - 2)
    assert t.den == X - 1
    assert t.num == Polynomial((F(1, 2),))

    t = term_rf(4, 1)   # 1/(34z + 14)
    assert t.den == X + F(7, 17)
    assert t.num == Polynomial((F(1, 34),))


def test_term_rf_evaluate():
    assert term_rf(3, 2).evaluate(F(1, 2)) == F(1, 169)  # (14/2 + 6)^-2
    with pytest.raises(ValueError):
        term_rf(1, 0)


# ---------------------------------------------------------------- window sums

def test_window_sum_small_value():
    # J=1, m=2 at z=2: (-4+6)^-2 + (4-2)^-2 + (4+2)^-2 = 19/36.
    assert window_sum(1, 2).evaluate(F(2)) == F(19, 36)


def test_window_sum_matches_term_sums():
    rng = random.Random(23)
    w = window_sum(2, 2)
    checked = 0
    while checked < 20:
        x = F(rng.randint(-50, 50), rng.randint(1, 11))
        dens = [pell_lucas(j) * x + pell_lucas(j - 1) for j in range(-2, 3)]
        if any(d == 0 for d in dens):
            continue  # landed on a pole of the window
        assert w.evaluate(x) == sum(F(1) / d ** 2 for d in dens)
        checked += 1


def test_window_sum_degrees():
    # Term denominators are pairwise coprime, so nothing cancels.
    assert window_sum(2, 1).den.degree == 5
    assert window_sum(3, 2).den.degree == 14
    w = window_sum(2, 3)
    assert w.den.degree == 15
    assert w.num.degree < w.den.degree


def test_window_sum_against_sympy():
    zs = sympy.symbols("z")
    ours = window_sum(2, 2)

    def to_sympy(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * zs ** i
                   for i, c in enumerate(poly.coeffs))

    direct = sum(1 / (pell_lucas(j) * zs + pell_lucas(j - 1)) ** 2
                 for j in range(-2, 3))
    assert sympy.simplify(to_sympy(ours.num) / to_sympy(ours.den) - direct) == 0


def test_window_sum_guards():
    with pytest.raises(ValueError):
        window_sum(0, 1)
    with pytest.raises(ValueError):
        window_sum(9, 1)
    with pytest.raises(ValueError):
        window_sum(1, 7)


# ----------------------------------------------------------------- substitute

def test_mobius_degenerate_rejected():
    for f in (term_rf(1, 1), RationalFunction.zero()):
        with pytest.raises(ValueError,
                           match="^degenerate map: zero determinant$"):
            substitute(f, (1, 2, 2, 4))

def test_substitute_reciprocal():
    # 1/(2z+2) with z -> 1/z becomes z/(2z+2).
    got = substitute(term_rf(1, 1), RECIPROCAL_MAP)
    assert got == RationalFunction(X, Polynomial((2, 2)))


def test_substitute_zero():
    assert substitute(RationalFunction.zero(), RECIPROCAL_MAP).is_zero


def test_substitute_right_action():
    rng = random.Random(31)

    def rand_map():
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c != 0:
                return a, b, c, d

    def compose(s, t):  # the map z -> s(t(z)), as a 2x2 matrix product
        a, b, c, d = s
        e, f, g, h = t
        return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h

    f = term_rf(2, 1) + term_rf(-1, 2)
    for _ in range(10):
        t1, t2 = rand_map(), rand_map()
        assert substitute(substitute(f, t1), t2) == substitute(f,
                                                               compose(t1, t2))


def test_substitute_reflection_fixes_even_window():
    # Reflection z -> 2 - z maps term j to term -j for even weight, so the
    # symmetric window is fixed as a rational function.
    w = window_sum(2, 2)
    assert substitute(w, (-1, 2, 0, 1)) == w


# ---------------------------------------------------------- identity checking

def test_reflection_identity_exact_zero():
    report = verify_identity_exact(EquationId.REFLECTION, 3, 1)
    assert report.residual.is_zero
    assert report.boundary_terms == []
    assert report.defect.is_zero
    assert report.holds
    assert report.verdict == "EXACT-ZERO"
    assert report.weight == 2


def test_inversion_identity_boundary():
    report = verify_identity_exact(EquationId.INVERSION, 3, 1)
    assert not report.residual.is_zero
    assert len(report.boundary_terms) == 2
    assert report.defect.is_zero
    assert report.holds
    assert report.verdict == "EXACT-ZERO-AFTER-BOUNDARY"
    # The residual is exactly the sum of the boundary terms.
    assert report.residual == report.boundary_terms[0] + report.boundary_terms[1]
    # And the boundary is z^2 (t_{J+1}(z) - t_{-J}(z)).
    z2 = RationalFunction(X ** 2)
    assert report.boundary_terms[0] == z2 * term_rf(4, 2)
    assert report.boundary_terms[1] == -(z2 * term_rf(-3, 2))


@pytest.mark.parametrize("equation", [EquationId.SHIFT, EquationId.NEGATION])
def test_reciprocal_side_identities(equation):
    report = verify_identity_exact(equation, 2, 1)
    assert not report.residual.is_zero
    assert len(report.boundary_terms) == 2
    assert report.defect.is_zero
    assert report.verdict == "EXACT-ZERO-AFTER-BOUNDARY"


def test_identity_validation():
    with pytest.raises(ValueError):
        verify_identity_exact(EquationId.REFLECTION, 1, 1)
    with pytest.raises(ValueError):
        verify_identity_exact(EquationId.REFLECTION, 2, 0)
    # A float or bool window or k is refused by name, not proved at the
    # int it equals or left to crash inside the polynomial arithmetic.
    for half_width, k, name in ((2.0, 1, "half_width"), (True, 1, "half_width"),
                                (2, 2.5, "k"), (3, True, "k"),
                                (2, "1", "k"),
                                (Fraction(10 ** 5000), 1, "half_width")):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got"):
            verify_identity_exact(EquationId.SHIFT, half_width, k)
    # window_sum and term_rf follow the same rule; a float crashed inside
    # range() or Polynomial.__pow__, and True was taken as weight 1.
    for half_width, m, name in ((2.0, 2, "half_width"), (True, 2, "half_width"),
                                (2, 2.0, "m"), (2, True, "m")):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got"):
            window_sum(half_width, m)
    for m in (True, 2.0):
        with pytest.raises(ValueError, match="^m must be an integer, got"):
            term_rf(1, m)
    # term_rf stops at the window guard's weight: its power grows faster
    # than m^2, and weight 10^10 did not return.
    for m in (7, 10 ** 10):
        with pytest.raises(ValueError,
                           match=f"^m must be at most 6, got {m}$"):
            term_rf(1, m)
    # The equation is an EquationId; its value string is not taken for it.
    for equation in ("shift", None, 2):
        with pytest.raises(ValueError,
                           match="^equation must be of type EquationId, got"):
            verify_identity_exact(equation, 2, 1)
    # Any window too large to build stops at the window guard.
    for half_width in (9, 98, 99):
        with pytest.raises(ValueError, match="^half_width must be at most 8,"):
            verify_identity_exact(EquationId.INVERSION, half_width, 1)


def test_identity_window_guards():
    # Each message names the caller's own weight parameter: the prover
    # takes k (weight 2k), window_sum takes m.
    for equation, half_width, k, message in (
            (EquationId.SHIFT, 9, 1, "half_width must be at most 8, got 9"),
            (EquationId.INVERSION, 2, 4, "k must be at most 3, got 4"),
            (EquationId.SHIFT, 100, 1,
             "half_width must be at most 8, got 100"),
            (EquationId.SHIFT, 2, 10 ** 400,
             f"k must be at most 3, got {10 ** 400}")):
        with pytest.raises(ValueError) as info:
            verify_identity_exact(equation, half_width, k)
        assert str(info.value) == message
    for half_width, m, message in (
            (9, 2, "half_width must be at most 8, got 9"),
            (2, 7, "m must be at most 6, got 7")):
        with pytest.raises(ValueError) as info:
            window_sum(half_width, m)
        assert str(info.value) == message
    # The lower bound on half_width is checked before k.
    with pytest.raises(ValueError,
                       match="^half_width must be an integer >= 2, got 1$"):
        verify_identity_exact(EquationId.SHIFT, 1, 0)


def test_inversion_window_identity_against_sympy():
    zs = sympy.symbols("z")
    m, J = 2, 2

    def t(j, arg):
        return 1 / (pell_lucas(j) * arg + pell_lucas(j - 1)) ** m

    window = sum(t(j, zs) for j in range(-J, J + 1))
    lhs = sum(t(j, -1 / zs) for j in range(-J, J + 1))
    boundary = zs ** m * (t(J + 1, zs) - t(-J, zs))
    assert sympy.simplify(lhs - zs ** m * window - boundary) == 0


# ------------------------------------------- termwise prover vs window sums

# The referee's own statement of each equation S(L(z)) = z^(s*m) S(R(z)),
# written apart from the equations table that the prover and verify read:
# the left map L, and the right map R with the prefactor sign s.  Each map
# is the (a, b, c, d) of (a z + b)/(c z + d).
_LEFT_MAPS = {
    EquationId.INVERSION: (0, -1, 1, 0),   # -1/z
    EquationId.REFLECTION: (-1, 2, 0, 1),  # 2 - z
    EquationId.SHIFT: (1, 2, 0, 1),        # z + 2
    EquationId.NEGATION: (-1, 0, 0, 1),    # -z
}
_RIGHT_SIDES = {
    EquationId.INVERSION: ((1, 0, 0, 1), 1),    # z^(2k) S(z)
    EquationId.REFLECTION: ((1, 0, 0, 1), 0),   # S(z)
    EquationId.SHIFT: ((0, 1, 1, 0), -1),       # z^(-2k) S(1/z)
    EquationId.NEGATION: ((0, 1, 1, 0), -1),    # z^(-2k) S(1/z)
}


def _window_sum_report(equation, half_width, k, left_map=None):
    """The prover's report rebuilt by canonicalising the whole window sum.

    Left side: the window sum substituted with the left-side map (the
    equation's, unless left_map is given).  Right side and boundary terms
    follow the equation's statement; the boundary terms are written in
    closed form as the window-edge terms.  Nothing here reads the
    equations table.
    """
    m, J = 2 * k, half_width
    window = window_sum(J, m)
    lhs = substitute(window, left_map or _LEFT_MAPS[equation])
    z_pow = RationalFunction(X ** m)

    def edge(p, q):  # 1/(p z + q)^m
        return RationalFunction(1, Polynomial((q, p)) ** m)

    if equation is EquationId.REFLECTION:
        rhs, boundary = window, []
    elif equation is EquationId.INVERSION:
        rhs = z_pow * window
        boundary = [z_pow * edge(pell_lucas(J + 1), pell_lucas(J)),
                    -(z_pow * edge(pell_lucas(-J), pell_lucas(-J - 1)))]
    else:
        rhs = substitute(window, RECIPROCAL_MAP) / z_pow
        boundary = [edge(pell_lucas(J), pell_lucas(J + 1)),
                    -edge(pell_lucas(-J - 1), pell_lucas(-J))]
    residual = lhs - rhs
    defect = residual
    for term in boundary:
        defect = defect - term
    return ExactIdentityReport(equation, J, m, residual, boundary, defect)


@pytest.mark.parametrize("equation", list(EquationId))
@pytest.mark.parametrize("half_width", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_termwise_report_equals_window_sum_report(equation, half_width, k):
    expected = _window_sum_report(equation, half_width, k)
    got = verify_identity_exact(equation, half_width, k)
    assert got == expected
    assert got.holds


def _direct_sides(equation, x, J, m):
    """lhs and rhs of the windowed equation at a rational x, term by term."""
    def mobius(coeffs):
        a, b, c, d = coeffs
        return (a * x + b) / (c * x + d)

    def window(arg):
        dens = [pell_lucas(j) * arg + pell_lucas(j - 1)
                for j in range(-J, J + 1)]
        assert all(dens), "sample point sits on a pole"
        return sum(F(1) / den ** m for den in dens)

    right, sign = _RIGHT_SIDES[equation]
    lhs = window(mobius(_LEFT_MAPS[equation]))
    return lhs, x ** (sign * m) * window(mobius(right))


@pytest.mark.parametrize("equation", list(EquationId))
def test_largest_window_holds_and_matches_direct_sums(equation):
    J, k = 8, 3
    report = verify_identity_exact(equation, J, k)
    assert report.holds
    assert report.verdict == ("EXACT-ZERO" if equation is EquationId.REFLECTION
                              else "EXACT-ZERO-AFTER-BOUNDARY")
    for x in (F(2, 7), F(7, 5), F(-5, 2)):
        lhs, rhs = _direct_sides(equation, x, J, 2 * k)
        assert report.residual.evaluate(x) == lhs - rhs
        assert sum(t.evaluate(x) for t in report.boundary_terms) == lhs - rhs


@pytest.mark.parametrize("equation, wrong_map", [
    (EquationId.SHIFT, (1, 1, 0, 1)),      # z + 1 instead of z + 2
    (EquationId.INVERSION, (0, 1, 1, 0)),  # 1/z instead of -1/z
    (EquationId.REFLECTION, (-1, 1, 0, 1)),  # 1 - z instead of 2 - z
    (EquationId.NEGATION, (-1, 1, 0, 1)),  # 1 - z instead of -z
])
def test_wrong_left_map_is_nonzero(monkeypatch, equation, wrong_map):
    _, right, sign, offset = equation.row
    monkeypatch.setitem(equations._ROWS, equation.value,
                        (wrong_map, right, sign, offset))
    report = verify_identity_exact(equation, 2, 1)
    assert report.verdict == "NONZERO"
    assert not report.holds
    assert report == _window_sum_report(equation, 2, 1, left_map=wrong_map)


_WRONG_ROWS = [
    (EquationId.SHIFT, 1, (1, 0, 0, 1)),     # S(z) instead of S(1/z)
    (EquationId.NEGATION, 1, (1, 0, 0, 1)),  # S(z) instead of S(1/z)
    (EquationId.INVERSION, 1, (0, 1, 1, 0)),  # S(1/z) instead of S(z)
    (EquationId.INVERSION, 3, 0),           # no boundary terms
    (EquationId.SHIFT, 3, 0),               # no boundary terms
    (EquationId.REFLECTION, 3, 1),          # two spurious boundary terms
    (EquationId.INVERSION, 2, -1),          # prefactor sign flipped
    (EquationId.SHIFT, 2, 1),               # prefactor sign flipped
]
_WRONG_ROW_WINDOWS = [(2, 1), (3, 2), (8, 3)]


def _wrong_row_report(monkeypatch, equation, field, wrong, half_width, k):
    row = list(equation.row)
    row[field] = wrong
    with monkeypatch.context() as patch:
        patch.setitem(equations._ROWS, equation.value, tuple(row))
        return verify_identity_exact(equation, half_width, k)


@pytest.mark.parametrize("equation, field, wrong", _WRONG_ROWS)
@pytest.mark.parametrize("half_width, k", _WRONG_ROW_WINDOWS)
def test_wrong_row_is_nonzero(monkeypatch, equation, field, wrong,
                              half_width, k):
    report = _wrong_row_report(monkeypatch, equation, field, wrong,
                               half_width, k)
    assert report.verdict == "NONZERO"
    assert not report.holds


def test_prover_finds_no_gcd(monkeypatch):
    # Every report of the guarded range, and every wrong row, is built
    # with its canonical form read off the tally: no gcd runs.  The gcds
    # are refused where the engine looks them up, in exact_reference.
    def forbidden(*args):
        raise AssertionError("the prover ran a gcd")

    monkeypatch.setattr(exact_reference, "_gcd_mod_p", forbidden)
    monkeypatch.setattr(exact_reference, "_int_gcd", forbidden)
    for equation in EquationId:
        for J in range(2, 9):
            for k in (1, 2, 3):
                assert verify_identity_exact(equation, J, k).holds
    for case in _WRONG_ROWS:
        for half_width, k in _WRONG_ROW_WINDOWS:
            report = _wrong_row_report(monkeypatch, *case, half_width, k)
            assert report.verdict == "NONZERO"


def test_prover_divides_only_where_the_root_test_shows_a_factor(monkeypatch):
    # A linear factor is stripped only where the exact root test shows that
    # it divides, so over every allowed proof _int_exact_div, wrapped, never
    # meets an inexact division; trial division, caught when it fails,
    # would meet 252 here.
    divide, inexact = exact._int_exact_div, []

    def watched(a, b):
        try:
            return divide(a, b)
        except ArithmeticError:
            inexact.append((a, b))
            raise

    monkeypatch.setattr(exact, "_int_exact_div", watched)
    for equation in EquationId:
        for J in range(2, 9):
            for k in (1, 2, 3):
                assert verify_identity_exact(equation, J, k).holds
    assert inexact == []


def test_rows_give_the_statements():
    # The one table against the referee's statements; the window offset is
    # 0 for the reflection (term j meets term -j) and 1 for the rest.
    for equation in EquationId:
        right, sign = _RIGHT_SIDES[equation]
        offset = 0 if equation is EquationId.REFLECTION else 1
        assert equation.row == (_LEFT_MAPS[equation], right, sign, offset)


# ------------------------------------------- closed-form boundary terms

def _old_boundary(equation, J, m):
    """The boundary terms built the old way, from term_rf and substitute."""
    if equation is EquationId.REFLECTION:
        return []
    if equation is EquationId.INVERSION:
        z_pow = RationalFunction(X ** m)
        return [z_pow * term_rf(J + 1, m), -(z_pow * term_rf(-J, m))]
    z_neg = RationalFunction(1, X ** m)
    return [z_neg * substitute(term_rf(J + 1, m), RECIPROCAL_MAP),
            -(z_neg * substitute(term_rf(-J, m), RECIPROCAL_MAP))]


@pytest.mark.parametrize("equation", list(EquationId))
@pytest.mark.parametrize("half_width", range(2, 9))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_boundary_equals_substituted_terms(equation, half_width,
                                                       k):
    report = verify_identity_exact(equation, half_width, k)
    assert report.boundary_terms == _old_boundary(equation, half_width, 2 * k)
    assert report.holds


@pytest.mark.parametrize("equation", [EquationId.INVERSION, EquationId.SHIFT,
                                      EquationId.NEGATION])
@pytest.mark.parametrize("half_width", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_off_by_one_edge_pair_is_nonzero(monkeypatch, equation, half_width,
                                         k):
    # Q_{J+1} appears only in the first edge pair, never in the window's
    # own terms, so reading Q_{J+2} for it moves that boundary term alone.
    J, m = half_width, 2 * k
    honest = verify_identity_exact(equation, J, k)

    def shifted(lo, hi):
        return [pell_lucas(J + 2 if n == J + 1 else n)
                for n in range(lo, hi + 1)]

    monkeypatch.setattr(exact, "pell_lucas_range", shifted)
    report = verify_identity_exact(equation, J, k)
    assert report.verdict == "NONZERO"
    assert not report.holds
    assert report.residual == honest.residual
    assert report.boundary_terms[1] == honest.boundary_terms[1]
    if equation is EquationId.INVERSION:
        wrong = RationalFunction(X ** m, Polynomial(
            (pell_lucas(J), pell_lucas(J + 2))) ** m)
    else:
        wrong = RationalFunction(1, Polynomial(
            (pell_lucas(J + 2), pell_lucas(J))) ** m)
    assert report.boundary_terms[0] == wrong
    expected = report.residual - report.boundary_terms[0] \
        - report.boundary_terms[1]
    assert report.defect == expected
    assert report.defect == honest.boundary_terms[0] - wrong


# ------------------------------- fraction-free engine vs Fraction reference

_INTS = st.integers(-10**6, 10**6)
_FRACTIONS = st.builds(Fraction, st.integers(-10**30, 10**30),
                       st.integers(1, 10**30))
_COEFFS = st.one_of(_INTS, _FRACTIONS)


def _poly(coeffs, min_size=1, max_size=4):
    return st.lists(coeffs, min_size=min_size, max_size=max_size).map(
        Polynomial)


@st.composite
def _planted_quotients(draw):
    """num = a g and den = b g with a planted common factor g; den has a
    negative or a constant leading coefficient in some draws."""
    coeffs = draw(st.sampled_from([_INTS, _FRACTIONS, _COEFFS]))
    g = draw(_poly(coeffs, max_size=3).filter(lambda p: not p.is_zero))
    a = draw(_poly(coeffs))
    b = draw(st.one_of(
        _poly(coeffs).filter(lambda p: not p.is_zero),
        _poly(coeffs, max_size=1).filter(lambda p: not p.is_zero),
        _poly(st.integers(-50, -1), max_size=1),
        _poly(coeffs, min_size=2).filter(lambda p: not p.is_zero).map(
            lambda p: Polynomial(p.coeffs[:-1] + (-abs(p.coeffs[-1]),)))))
    if draw(st.booleans()):
        b = b * g
    return a * g, b


@given(_planted_quotients())
@settings(max_examples=150)
def test_canonical_form_equals_fraction_reference(parts):
    num, den = parts
    want = reference.canonical(num, den)
    got = RationalFunction(num, den)
    assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs,
                                                 want.den.coeffs)
    assert repr(got) == repr(want)  # Fraction coefficients, not ints


def test_canonical_form_constant_and_negative_denominators():
    got = RationalFunction(X * F(3, 7), Polynomial((F(-6, 5),)))
    assert got == reference.canonical(X * F(3, 7), Polynomial((F(-6, 5),)))
    assert got.num == Polynomial((0, F(-5, 14))) and got.den == Polynomial(
        (1,))
    got = RationalFunction(Polynomial((2, 4)), Polynomial((6, 0, -8, 0)))
    assert repr(got) == repr(RationalFunction(1 + 2 * X, 3 - 4 * X ** 2))
    assert got.den == X ** 2 - F(3, 4)    # trailing zeros dropped
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial((1,)), Polynomial((0, 0)))
    assert RationalFunction(Polynomial((0, 0)),
                            Polynomial((5,))) == RationalFunction.zero()
    # Parts are Polynomials, ints or Fractions, and arithmetic takes
    # rational functions: lists and scalar operands are refused.
    for bad in (lambda: RationalFunction([1], [1]),
                lambda: RationalFunction(1) + 1,
                lambda: 2 * RationalFunction(1)):
        with pytest.raises(TypeError):
            bad()


_BIG_INTS = st.one_of(_INTS, st.integers(-2**80, 2**80),
                      st.sampled_from((_P, -_P, 2 * _P, _P + 1, _P - 1)))


def _int_poly(coeffs, max_size=6):
    return st.lists(coeffs, min_size=1, max_size=max_size).filter(
        lambda cs: cs[-1] != 0)


@st.composite
def _int_poly_pairs(draw):
    """Nonzero integer polynomials a, b, in some draws with a planted
    common factor, and in some with a leading coefficient divisible by
    p = 2^61 - 1."""
    a, b = draw(_int_poly(_BIG_INTS)), draw(_int_poly(_BIG_INTS))
    if draw(st.booleans()):
        g = draw(_int_poly(_BIG_INTS, max_size=3))
        a, b = exact._int_mul(a, g), exact._int_mul(b, g)
    if draw(st.booleans()):
        a = a[:-1] + [_P * draw(st.integers(-3, 3).filter(bool))]
    return a, b


@given(_int_poly_pairs())
@settings(max_examples=400)
def test_gcd_mod_p_agrees_with_int_gcd(pair):
    # The modular gcd is the remainder sequence's, or declines.
    a, b = pair
    got = _gcd_mod_p(a, b)
    assert got in (None, _int_gcd(a, b))
    if a[-1] % _P == 0 or b[-1] % _P == 0:
        assert got is None


def test_gcd_mod_p_finds_small_gcds_and_declines_the_rest():
    # Shared factors with small coefficients, monic or not, are found.
    z2m1, lin = [-1, 0, 1], [1, 3]    # z^2 - 1 and 3 z + 1
    for g in ([1], z2m1, lin, exact._int_mul(z2m1, lin)):
        a = exact._int_mul(g, [7, -2, 5])
        b = exact._int_mul(g, [-4, 0, 0, 9])
        assert _gcd_mod_p(a, b) == _int_gcd(a, b) == g
    # z + p and z are coprime over Z, but both are z modulo p; z + 2^70
    # and its square lift to no small fraction; a leading coefficient
    # divisible by p leaves the degree unknown.  The remainder sequence
    # decides each.
    assert _gcd_mod_p([_P, 1], [0, 1]) is None
    assert _int_gcd([_P, 1], [0, 1]) == [1]
    big = [2 ** 70, 1]
    assert _gcd_mod_p(big, exact._int_mul(big, big)) is None
    assert _gcd_mod_p([1, 2 * _P], [1, 1]) is None
    assert RationalFunction(Polynomial((_P, 1)), X).den == X


def test_exact_division_raises_on_a_remainder():
    assert exact._int_exact_div([-2, 1, 1], [-1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError):
        exact._int_exact_div([1, 0, 1], [1, 1])      # remainder 2
    with pytest.raises(ArithmeticError):
        exact._int_exact_div([1, 1], [1, 2])         # 2z + 1 over Q only


_NUMERATORS = st.lists(st.integers(-10**6, 10**6), max_size=6)
_LINEAR = st.tuples(st.integers(-9, 9).filter(bool),
                    st.integers(-9, 9)).filter(lambda ab: math.gcd(*ab) == 1)


@st.composite
def _root_test_cases(draw):
    """(acc, a, b): a random numerator, or (a z + b)^k r for a k from 0 to
    6, the largest weight m, and r random, against a primitive pair (a, b)
    with a != 0."""
    a, b = draw(_LINEAR)
    acc = draw(_NUMERATORS)
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        acc = exact._int_mul(exact._linear_power(a, b, k), acc or [1])
    return acc, a, b


@given(_root_test_cases())
@example(([2, 1, 1], 1, 1))          # value 2 at the root -1
@example(([1, 1], 2, 1))             # 2z + 1 divides z + 1/2 over Q only
@example(([-1, 0, 4], 2, 1))         # (2z + 1)(2z - 1)
@example(([0, 0, 0, 8], 1, 0))       # z divides 8 z^3
@settings(max_examples=300)
def test_root_test_agrees_with_exact_division(case):
    # The root test holds exactly when a z + b divides over Z: Gauss's lemma
    # makes a factor over Q of a primitive pair one over Z.
    acc, a, b = case
    try:
        exact._int_exact_div(acc, [b, a])
        divides = True
    except ArithmeticError:
        divides = False
    assert exact._root_divides(acc, a, b) == divides


_PAIRS = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(
    lambda pq: pq != (0, 0)).map(lambda pq: exact._sign_normal(*pq))


@given(st.lists(st.tuples(_PAIRS, st.sampled_from(
    [(1, 2), (2, 1), (3, -5), (1, 0), (0, 1)]), st.integers(-3, 3)),
    max_size=8), st.sampled_from([2, 4]))
# z^2 / z^2 - 1 / 1 cancels across two groups; the other pair's counts
# cancel to a zero-count entry.
@example([((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1), ((1, 2), (3, -5), 2),
          ((1, 2), (3, -5), -2)], 2)
@settings(max_examples=100)
def test_tally_sum_equals_chained_fraction_sum(entries, m):
    # Few denominator pairs, so entries with different numerators share a
    # denominator and are grouped before the one canonicalisation.  The
    # tally is a plain dict, as the prover's is, and keeps zero counts,
    # which add nothing.
    tally = {}
    for num, den, count in entries:
        tally[num, den] = tally.get((num, den), 0) + count
    got = exact._tally_sum(tally, m, {})
    want = reference.tally_sum(tally, m)
    assert repr(got) == repr(want)
    if want.num.is_zero:
        assert got._parts == ([], [1])


# Primitive, sign-normalised pairs with roots 0, +-1, +-2, +-1/2 and none.
_PRIMITIVE = [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1),
              (2, -1)]
_SMALL_PAIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda pq: pq != (0, 0))


@st.composite
def _tallies(draw):
    """(tally, m): random entries whose denominator pairs are multiples,
    with content 1 to 3, of a few primitive pairs, and in some draws one
    group whose numerators sum to a multiple of (a z + b)^k exactly, for a
    k from 0 to m."""
    m = draw(st.integers(1, 6))
    tally = Counter()
    for _ in range(draw(st.integers(0, 6))):
        p, q = draw(st.sampled_from(_PRIMITIVE))
        g = draw(st.integers(1, 3))
        tally[draw(_SMALL_PAIRS), (g * p, g * q)] += draw(
            st.integers(-3, 3))
    if draw(st.booleans()):
        # With u = a z + b, sum_i (-1)^i C(k, i) (i u + 1)^m has the
        # coefficient sum_i (-1)^i C(k, i) i^j at u^j: zero for j < k only.
        a, b = draw(st.sampled_from(_PRIMITIVE[1:]))
        g, k = draw(st.integers(1, 3)), draw(st.integers(0, m))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        for i in range(k + 1):
            tally[(i * a, i * b + 1), (g * a, g * b)] += (
                c * (-1) ** i * math.comb(k, i))
    return tally, m


@given(_tallies())
# A group whose numerators cancel: z^2 / (2 z + 2)^2 = (2 z)^2 / (4 z + 4)^2.
@example((Counter({((1, 0), (2, 2)): 1, ((2, 0), (4, 4)): -1}), 2))
# The same as a plain dict, as the prover tallies, with zero-count entries.
@example(({((1, 0), (2, 2)): 1, ((2, 0), (4, 4)): -1, ((1, 1), (1, 0)): 0,
           ((0, 1), (1, -1)): 0}, 2))
@settings(max_examples=400)
def test_tally_sum_equals_rational_function_sum(drawn):
    # The canonical form read off the tally is the one the general
    # constructor finds with a gcd.
    tally, m = drawn
    want = RationalFunction.zero()
    for ((p, q), (alpha, beta)), count in tally.items():
        want = want + RationalFunction(
            count * Polynomial((q, p)) ** m, Polynomial((beta, alpha)) ** m)
    got = exact._tally_sum(tally, m, {})
    assert got == want
    assert repr(got) == repr(want)
    if want.is_zero:
        assert got._parts == ([], [1])


@st.composite
def _overlapping_tallies(draw):
    """(tallies, m): two to four tallies drawn from one pool of up to four
    entries, whose denominators are multiples of two primitive pairs: the
    tallies share whole groups, and groups of one pair differ in their
    entries, their contents or their counts."""
    m = draw(st.sampled_from([2, 4, 6]))
    pool = draw(st.lists(st.tuples(_SMALL_PAIRS, st.sampled_from(
        [(1, 1), (2, 2), (1, -2), (2, -4)])), min_size=1, max_size=4,
        unique=True))
    tallies = []
    for _ in range(draw(st.integers(2, 4))):
        keys = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        tallies.append({key: draw(st.integers(-2, 2).filter(bool))
                        for key in keys})
    return tallies, m


@given(_overlapping_tallies())
# One group, its count changed: (a, b) alone does not key the reduction.
@example(([{((1, 0), (1, 1)): 1}, {((1, 0), (1, 1)): 2}], 2))
# One pair, its content changed: z^2/(z + 1)^2, then z^2/(2 z + 2)^2.
@example(([{((1, 0), (1, 1)): 1}, {((1, 0), (2, 2)): 1}], 2))
# A group met again inside a larger sum, as a boundary term meets the
# residual's group.
@example(([{((1, 0), (1, 1)): 1, ((0, 1), (1, -2)): -1},
           {((1, 0), (1, 1)): 1}, {((0, 1), (1, -2)): -1}], 4))
@settings(max_examples=200)
def test_shared_memo_sums_equal_fraction_reference(drawn):
    # Sums that share one memo, as the three sums of a proof do, each equal
    # the chained Fraction sum of its own tally.
    tallies, m = drawn
    memo = {}
    for tally in tallies:
        got = exact._tally_sum(tally, m, memo)
        assert repr(got) == repr(reference.tally_sum(tally, m))


def test_each_group_is_reduced_once_per_proof(monkeypatch):
    # An offset-1 proof (inversion, shift, negation) leaves two groups in
    # its residual, each the group of one boundary term, and none in its
    # defect: each is reduced once, with one root test, whose factor never
    # divides.  The reflection leaves no group.  Two identical calls count
    # alike, so no reduction outlives the call that made it.
    root_divides, calls = exact._root_divides, []

    def counted(acc, a, b):
        calls.append((a, b))
        return root_divides(acc, a, b)
    monkeypatch.setattr(exact, "_root_divides", counted)
    for equation in EquationId:
        want = 0 if equation is EquationId.REFLECTION else 2
        for J in range(2, 9):
            for k in (1, 2, 3):
                counts = []
                for _ in range(2):
                    calls.clear()
                    verify_identity_exact(equation, J, k)
                    counts.append(len(calls))
                assert counts == [want, want], (equation, J, k)


@pytest.mark.parametrize("equation", list(EquationId))
def test_reports_equal_fraction_reference(monkeypatch, equation):
    # Every report of the guarded range, rebuilt with the chained Fraction
    # tally sum and Fraction-canonicalised boundary terms: every sum goes
    # to the reference, which takes no memo.
    cases = [(J, k) for J in range(2, 9) for k in (1, 2, 3)]
    got = [verify_identity_exact(equation, J, k) for J, k in cases]
    sums = []

    def summed(tally, m, memo):
        sums.append(tally)
        return reference.tally_sum(tally, m)
    monkeypatch.setattr(exact, "_tally_sum", summed)
    want = [verify_identity_exact(equation, J, k) for J, k in cases]
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert len(sums) == len(cases) * (4 if equation.row[3] else 2)


def test_report_parts_are_fractions_built_once():
    # The prover keeps integer parts; num and den are built on first read,
    # Fraction Polynomials over a monic denominator, and kept.
    for equation in EquationId:
        report = verify_identity_exact(equation, 4, 2)
        for rf in (report.residual, *report.boundary_terms, report.defect):
            assert rf.num is rf.num and rf.den is rf.den
            assert all(type(c) is Fraction
                       for c in rf.num.coeffs + rf.den.coeffs)
            assert rf.den.leading == 1


# ------------------------------------------------------ coefficient texts

def _stored(num, den):
    """The rational function with integer parts num over den, as the prover
    stores them."""
    rf = RationalFunction.__new__(RationalFunction)
    rf._store(list(num), list(den))
    return rf


_TEXT_INTS = st.one_of(st.just(0), st.integers(-50, 50),
                       st.integers(-2**300, 2**300))
_LEADS = st.one_of(st.sampled_from((1, -1)), _TEXT_INTS).filter(bool)


@given(st.lists(_TEXT_INTS, max_size=4), _LEADS,
       st.lists(_TEXT_INTS, max_size=4), _LEADS)
@example([], 1, [], -1)
@example([0, 2**300], 3, [-(2**300), 0], -(2**300))
@settings(max_examples=300)
def test_coefficient_texts_equal_fraction_str(num, top, den, lead):
    # Every coefficient c of either part reads as str(Fraction(c, lead)),
    # lead the leading coefficient of the integer denominator: zero
    # numerators, leads of +-1, negative leads and 300-bit values.
    want = tuple(" ".join(str(Fraction(c, lead)) for c in part)
                 for part in (num + [top], den + [lead]))
    assert exact.coefficient_texts(_stored(num + [top], den + [lead])) == want


def test_coefficient_texts_of_the_zero_function():
    # "0" over "1", however the zero numerator came about.
    for rf in (RationalFunction.zero(), _stored([], [5]),
               _stored([0, 0], [3, -7]), RationalFunction(X - X, X + 2)):
        assert exact.coefficient_texts(rf) == ("0", "1")


@given(_planted_quotients())
@settings(max_examples=100)
def test_coefficient_texts_equal_the_fraction_parts(parts):
    # The texts read off the integer parts are those of the Fraction parts
    # built on first read.
    got = RationalFunction(*parts)
    assert exact.coefficient_texts(got) == tuple(
        " ".join(str(c) for c in poly.coeffs) or "0"
        for poly in (got.num, got.den))
