"""Command-line front end.

Every subcommand prints CSV (or a plain-text proof report) to stdout with
deterministic, bit-stable formatting: floats via repr (shortest round trip),
integers and rationals in full decimal.  Exit codes: 0 success, 1 domain
errors, 2 usage errors.  If a domain error interrupts CSV output, the last
line written is a trailing "# error:" comment.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .analysis import poles_in_rect
from .equations import EquationId
from .errors import PelleisError, PoleProximity
from .evaluator import EvalResult, EvalSettings, eval_grid, eval_series
from .exact import verify_identity_exact
from .geometry import Rect
from .sequence import pell_lucas_range
from .verify import verify_grid

EVAL_HEADER = ("re,im,value_re,value_im,tail_bound,terms_used,"
               "minus_re,minus_im,plus_re,plus_im")
VERIFY_HEADER = ("re,im,lhs_re,lhs_im,rhs_re,rhs_im,"
                 "abs_residual,rel_residual,lhs_tail,rhs_tail")

DEFAULT_RECT = "-3,0.5,3,3.5"
DEFAULT_GRID_N = 12


def _eval_fields(z: complex, r: EvalResult) -> str:
    # %r of a float is its repr, the shortest round trip.
    value, minus, plus = r.value, r.minus_part, r.plus_part
    return "%r,%r,%r,%r,%r,%d,%r,%r,%r,%r" % (
        z.real, z.imag, value.real, value.imag, r.tail_bound, r.terms_used,
        minus.real, minus.imag, plus.real, plus.imag)


def grid_size(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _settings(args) -> EvalSettings:
    kwargs = {"target_tol": args.tol}
    if getattr(args, "max_j", None) is not None:
        kwargs["max_half_width"] = args.max_j
    return EvalSettings(**kwargs)


def _cmd_seq(args) -> int:
    values = pell_lucas_range(args.lo, args.hi)
    print("n,Q_n")
    for n, q in zip(range(args.lo, args.hi + 1), values):
        print(f"{n},{q}")
    return 0


def _cmd_eval(args) -> int:
    print(EVAL_HEADER)
    result = eval_series(complex(args.re, args.im), args.weight,
                         _settings(args))
    print(_eval_fields(complex(args.re, args.im), result))
    return 0


def _cmd_grid(args) -> int:
    rect = Rect.parse(args.rect)
    write = sys.stdout.write
    write(EVAL_HEADER + ",status\n")
    for z, outcome in eval_grid(rect, args.nx, args.ny, args.weight,
                                _settings(args)):
        if isinstance(outcome, EvalResult):
            write(_eval_fields(z, outcome) + ",ok\n")
        else:
            # value/tail/terms/minus/plus columns left blank
            status = "pole" if isinstance(outcome, PoleProximity) else "diverged"
            write("%r,%r,,,,,,,,,%s\n" % (z.real, z.imag, status))
    return 0


def _cmd_poles(args) -> int:
    rect = Rect.parse(args.rect)
    print("j,location_num,location_den,location_float")
    for pole in poles_in_rect(rect, args.jcap):
        print(f"{pole.index},{pole.location.numerator},"
              f"{pole.location.denominator},{pole.location_float!r}")
    return 0


def _cmd_verify(args) -> int:
    rect = Rect.parse(args.rect)
    equation = EquationId(args.eq)
    summary = verify_grid(equation, rect, args.nx, args.ny, args.k,
                          _settings(args))
    print(VERIFY_HEADER)
    for r in summary.reports:
        print("%r,%r,%r,%r,%r,%r,%r,%r,%r,%r" % (
            r.point.real, r.point.imag, r.lhs.real, r.lhs.imag,
            r.rhs.real, r.rhs.imag, r.abs_residual, r.rel_residual,
            r.lhs_tail, r.rhs_tail))
    for z, exc in summary.failures:
        print(f"# failed: re={z.real!r} im={z.imag!r} {exc}")
    worst = summary.worst_point
    worst_re, worst_im = (("nan", "nan") if worst is None
                          else (repr(worst.real), repr(worst.imag)))
    print(f"# summary eq={equation.value} k={args.k}"
          f" points_tested={summary.points_tested}"
          f" points_skipped={summary.points_skipped}"
          f" points_failed={summary.points_failed}"
          f" max_rel_residual={summary.max_rel_residual!r}"
          f" worst_re={worst_re} worst_im={worst_im}")
    return 1 if summary.points_failed else 0


def _coeff_list(poly) -> str:
    if poly.is_zero:
        return "0"
    return " ".join(str(c) for c in poly.coeffs)


def _cmd_prove(args) -> int:
    equation = EquationId(args.eq)
    report = verify_identity_exact(equation, args.window, args.k)
    print(f"equation: {equation.value}")
    print(f"window half-width: {report.half_width}")
    print(f"weight: {report.weight}")
    print(f"residual numerator coefficients: {_coeff_list(report.residual.num)}")
    print(f"residual denominator coefficients: {_coeff_list(report.residual.den)}")
    print(f"boundary terms: {len(report.boundary_terms)}")
    for i, term in enumerate(report.boundary_terms, start=1):
        print(f"boundary {i} numerator coefficients: {_coeff_list(term.num)}")
        print(f"boundary {i} denominator coefficients: {_coeff_list(term.den)}")
    print(f"defect numerator coefficients: {_coeff_list(report.defect.num)}")
    print(f"defect denominator coefficients: {_coeff_list(report.defect.den)}")
    print(f"verdict: {report.verdict}")
    return 0 if report.holds else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="pelleis",
        description="Pell-Lucas numbers and their Eisenstein-like series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print Q_n over an index range as CSV")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("eval", help="evaluate the series at one point")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-j", dest="max_j", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="evaluate over a rectangular lattice")
    p.add_argument("--rect", required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--nx", type=grid_size, required=True)
    p.add_argument("--ny", type=grid_size, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_grid, max_j=None)

    p = sub.add_parser("poles", help="list term poles inside a rectangle")
    p.add_argument("--rect", required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--jcap", type=int, default=60)
    p.set_defaults(func=_cmd_poles)

    eq_choices = [e.value for e in EquationId]

    p = sub.add_parser("verify", help="numeric residuals of one equation")
    p.add_argument("--eq", choices=eq_choices, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rect", default=DEFAULT_RECT, metavar="X0,Y0,X1,Y1")
    p.add_argument("--nx", type=grid_size, default=DEFAULT_GRID_N)
    p.add_argument("--ny", type=grid_size, default=DEFAULT_GRID_N)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_verify, max_j=None)

    p = sub.add_parser("prove", help="exact finite-window identity check")
    p.add_argument("--eq", choices=eq_choices, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_prove)

    return parser


def _glue_rect_values(argv: list[str]) -> list[str]:
    # argparse mistakes "-3,0.5,3,3.5" for an option flag, so fold rect
    # values that start with a dash into --rect=... form.
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--rect" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append("--rect=" + argv[i + 1])
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_glue_rect_values(argv))
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PelleisError, ValueError) as exc:
        print(f"# error: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
