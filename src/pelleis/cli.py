"""Command-line front end.

Every subcommand prints CSV (or a plain-text proof report) to stdout with
deterministic, bit-stable formatting: floats via repr (shortest round trip),
integers and rationals in full decimal.  Exit codes: 0 success, 1 domain
errors, 2 usage errors.  If a domain error interrupts CSV output, the last
line written is a trailing "# error:" comment.

Each subcommand loads only the modules it runs.  verify_grid (the verify
module) and verify_identity_exact (the exact engine, with fractions and
decimal) are imported on first use through the module __getattr__, which
resolves them through the package's own name-to-module table and binds
them here.  The commands call both as attributes of this module, so a
wrapper set on pelleis.cli.verify_grid, before or after first use, is the
one that runs.  grid, eval and seq load neither; verify loads no exact
engine, and prove no verify.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .analysis import DEFAULT_J_CAP, poles_in_rect
from .equations import EquationId
from .errors import PelleisError, PoleProximity
from .evaluator import (DEFAULT_MAX_HALF_WIDTH, DEFAULT_TARGET_TOL,
                        EvalResult, EvalSettings, eval_grid, eval_series)
from .geometry import Rect
from .sequence import pell_lucas_range

EVAL_HEADER = ("re,im,value_re,value_im,tail_bound,terms_used,"
               "minus_re,minus_im,plus_re,plus_im")
VERIFY_HEADER = ("re,im,lhs_re,lhs_im,rhs_re,rhs_im,"
                 "abs_residual,rel_residual,lhs_tail,rhs_tail")

DEFAULT_RECT = "-3,0.5,3,3.5"
DEFAULT_GRID_N = 12

# The names bound here on first use; the package's __getattr__ imports the
# module that defines each.
_DEFERRED = ("verify_grid", "verify_identity_exact")


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _result_fields(r: EvalResult) -> str:
    """The eight columns of a row after re and im."""
    # %r of a float is its repr, the shortest round trip.
    value, minus, plus = r.value, r.minus_part, r.plus_part
    return "%r,%r,%r,%d,%r,%r,%r,%r" % (
        value.real, value.imag, r.tail_bound, r.terms_used,
        minus.real, minus.imag, plus.real, plus.imag)


def grid_size(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _unprintable(name: str) -> ValueError:
    """The refusal of a row whose integer Python will not convert to text."""
    return ValueError(f"{name} has more than {sys.get_int_max_str_digits()} "
                      "digits, Python's int-to-string limit")


def _cmd_seq(args) -> int:
    values = pell_lucas_range(args.lo, args.hi)
    # Every row is formatted before any is written, so a Q_n past Python's
    # int-to-string limit leaves one error line and no part of the table.
    lines = ["n,Q_n\n"]
    for n, q in zip(range(args.lo, args.hi + 1), values):
        try:
            lines.append(f"{n},{q}\n")
        except ValueError:
            raise _unprintable(f"Q_{n}") from None
    sys.stdout.write("".join(lines))
    return 0


def _cmd_eval(args) -> int:
    print(EVAL_HEADER)
    z = complex(args.re, args.im)
    result = eval_series(z, args.weight, EvalSettings(args.tol, args.max_j))
    print("%r,%r,%s" % (z.real, z.imag, _result_fields(result)))
    return 0


def _cmd_grid(args) -> int:
    rect = Rect.parse(args.rect)
    # The header goes out first, so that an error is reported after it.
    sys.stdout.write(EVAL_HEADER + ",status\n")
    cells = eval_grid(rect, args.nx, args.ny, args.weight,
                      EvalSettings(args.tol))
    # Cells come row by row, and every row has the same nx real parts, so
    # each coordinate is formatted once.  Columns are keyed by index, not by
    # value: 0.0 == -0.0, but their reprs differ.
    nx = args.nx
    columns = ["%r," % z.real for z, _ in cells[:nx]]
    lines = []
    for start in range(0, len(cells), nx):
        row = cells[start:start + nx]
        y = "%r," % row[0][0].imag
        for x, (_, outcome) in zip(columns, row):
            if isinstance(outcome, EvalResult):
                lines.append(x + y + _result_fields(outcome) + ",ok\n")
            elif isinstance(outcome, PoleProximity):
                # value/tail/terms/minus/plus columns left blank
                lines.append(x + y + ",,,,,,,,pole\n")
            else:
                lines.append(x + y + ",,,,,,,,diverged\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_poles(args) -> int:
    rect = Rect.parse(args.rect)
    print("j,location_num,location_den,location_float")
    lines = []  # all formatted first, as in seq
    for pole in poles_in_rect(rect, args.jcap):
        try:
            lines.append(f"{pole.index},{pole.location.numerator},"
                         f"{pole.location.denominator},"
                         f"{pole.location_float!r}\n")
        except ValueError:
            raise _unprintable(f"location of pole j={pole.index}") from None
    sys.stdout.write("".join(lines))
    return 0


def _cmd_verify(args) -> int:
    rect = Rect.parse(args.rect)
    equation = EquationId(args.eq)
    summary = sys.modules[__name__].verify_grid(
        equation, rect, args.nx, args.ny, args.k, EvalSettings(args.tol))
    reprs = {}  # coordinates repeat along grid rows and columns

    def coordinate(v: float) -> str:
        # A zero is formatted anew: 0.0 == -0.0, but their reprs differ.
        if not (v and v in reprs):
            reprs[v] = repr(v)
        return reprs[v]

    lines = [VERIFY_HEADER + "\n"]
    for r in summary.reports:
        lines.append("%s,%s,%r,%r,%r,%r,%r,%r,%r,%r\n" % (
            coordinate(r.point.real), coordinate(r.point.imag), r.lhs.real,
            r.lhs.imag, r.rhs.real, r.rhs.imag, r.abs_residual,
            r.rel_residual, r.lhs_tail, r.rhs_tail))
    for z, exc in summary.failures:
        lines.append(f"# failed: re={z.real!r} im={z.imag!r} {exc}\n")
    worst = summary.worst_point
    worst_re, worst_im = (("nan", "nan") if worst is None
                          else (repr(worst.real), repr(worst.imag)))
    lines.append(f"# summary eq={equation.value} k={args.k}"
                 f" points_tested={summary.points_tested}"
                 f" points_skipped={summary.points_skipped}"
                 f" points_failed={summary.points_failed}"
                 f" max_rel_residual={summary.max_rel_residual!r}"
                 f" worst_re={worst_re} worst_im={worst_im}\n")
    sys.stdout.write("".join(lines))
    return 1 if summary.points_failed else 0


def _coeff_lines(name: str, rf) -> list[str]:
    """The report lines of rf's coefficients; the zero polynomial is "0"."""
    return [f"{name} {part} coefficients: "
            + (" ".join(str(c) for c in poly.coeffs) or "0")
            for part, poly in (("numerator", rf.num), ("denominator", rf.den))]


def _cmd_prove(args) -> int:
    equation = EquationId(args.eq)
    report = sys.modules[__name__].verify_identity_exact(
        equation, args.window, args.k)
    lines = [f"equation: {equation.value}",
             f"window half-width: {report.half_width}",
             f"weight: {report.weight}",
             *_coeff_lines("residual", report.residual),
             f"boundary terms: {len(report.boundary_terms)}"]
    for i, term in enumerate(report.boundary_terms, start=1):
        lines += _coeff_lines(f"boundary {i}", term)
    lines += _coeff_lines("defect", report.defect)
    lines.append(f"verdict: {report.verdict}")
    # One write, after the report is complete: an error leaves no lines.
    sys.stdout.write("\n".join(lines) + "\n")
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
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_TOL)
    p.add_argument("--max-j", dest="max_j", type=int,
                   default=DEFAULT_MAX_HALF_WIDTH)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="evaluate over a rectangular lattice")
    p.add_argument("--rect", required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--nx", type=grid_size, required=True)
    p.add_argument("--ny", type=grid_size, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_TOL)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("poles", help="list term poles inside a rectangle")
    p.add_argument("--rect", required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--jcap", type=int, default=DEFAULT_J_CAP)
    p.set_defaults(func=_cmd_poles)

    eq_choices = [e.value for e in EquationId]

    p = sub.add_parser("verify", help="numeric residuals of one equation")
    p.add_argument("--eq", choices=eq_choices, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rect", default=DEFAULT_RECT, metavar="X0,Y0,X1,Y1")
    p.add_argument("--nx", type=grid_size, default=DEFAULT_GRID_N)
    p.add_argument("--ny", type=grid_size, default=DEFAULT_GRID_N)
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_TOL)
    p.set_defaults(func=_cmd_verify)

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
    for tok in argv:
        if tok.startswith("-") and out and out[-1] == "--rect":
            out[-1] += "=" + tok
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
