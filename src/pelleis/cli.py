"""Command-line front end.

Every subcommand prints CSV (or a plain-text proof report) to stdout with
deterministic, bit-stable formatting: floats via repr (shortest round trip),
integers and rationals in full decimal.  Exit codes: 0 success, 1 domain
errors, 2 usage errors.  If a domain error interrupts CSV output, the last
line written is a trailing "# error:" comment.  parse_args reads argv in
one pass over COMMANDS, the table of each subcommand's options; none takes
a window cap, as every --tol is met (pelleis.evaluator).

Each subcommand loads only the modules it runs: the numeric core's names
(evaluator, geometry), verify_grid (verify), verify_identity_exact and
coefficient_texts (the exact engine), poles_in_rect and DEFAULT_J_CAP
(analysis) are bound here on first use, through the package's _first_use.
Commands read them as attributes of this module (_CLI), so a wrapper set
on, say, pelleis.cli.verify_grid, before or after first use, is the one
that runs.  seq and prove load no evaluator, geometry or cmath; eval loads
no geometry; grid, eval, seq and prove load no analysis; verify loads no
exact engine.
"""

import math
import sys
from types import SimpleNamespace

from . import _first_use
from .equations import EquationId
from .errors import PelleisError, PoleProximity
from .sequence import INDEX_CAP, SILVER_RATIO, pell_lucas, pell_lucas_range

EVAL_HEADER = ("re,im,value_re,value_im,tail_bound,terms_used,"
               "minus_re,minus_im,plus_re,plus_im")
VERIFY_HEADER = ("re,im,lhs_re,lhs_im,rhs_re,rhs_im,"
                 "abs_residual,rel_residual,lhs_tail,rhs_tail")

DEFAULT_RECT = "-3,0.5,3,3.5"
DEFAULT_GRID_N = 12

__getattr__ = _first_use(__name__, {
    **dict.fromkeys(("EvalSettings", "EvalResult", "eval_series", "eval_grid",
                     "DEFAULT_TARGET_TOL"), "evaluator"),
    "Rect": "geometry", "verify_grid": "verify",
    "verify_identity_exact": "exact", "coefficient_texts": "exact",
    "poles_in_rect": "analysis", "DEFAULT_J_CAP": "analysis"})
_CLI = sys.modules[__name__]


# A row of eval and grid, re and im as text; %r of a float is its repr.
_EVAL_ROW = "%s,%s,%r,%r,%r,%d,%r,%r,%r,%r"


def grid_size(text: str) -> int:
    if int(text) < 1:
        raise ValueError(f"must be at least 1, got {text}")
    return int(text)


def _int_str_limit() -> int:
    """Python's int-to-string limit in digits; 0 is no limit, as it is where
    the interpreter has none (CPython 3.10.0 to 3.10.6)."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    return limit() if limit else 0


def _unprintable(name: str) -> ValueError:
    """The refusal of a row whose integer Python will not convert to text."""
    return ValueError(f"{name} has more than {_int_str_limit()} "
                      "digits, Python's int-to-string limit")


def _first_unprintable(lo: int, hi: int) -> int | None:
    """The first n of lo .. hi whose Q_n has more digits than Python's
    int-to-string limit, or None; Q_i is computed for no |i| past it.
    A range that pell_lucas_range refuses gets None, so the refusal wins.

    |Q_n| = Q_|n| grows with |n| from |n| = 1, so the rows past the limit
    are those with |n| >= first, the least index with Q_first >= 10^limit.
    Q_n is within 1 of (1 + sqrt(2))^n, so the search starts two below the
    index that the logarithm gives, which is below first."""
    limit, top = _int_str_limit(), max(-lo, hi)
    if not limit or lo > hi or top > INDEX_CAP:
        return None
    first = max(1, int(limit / math.log10(SILVER_RATIO)) - 2)
    while first <= top and pell_lucas(first) < 10 ** limit:
        first += 1
    if first > top:
        return None
    return lo if lo <= -first else max(lo, first)


def _cmd_seq(args) -> int:
    # A Q_n past Python's int-to-string limit leaves one error line and no
    # part of the table, and is found before the table is computed past it.
    bad = _first_unprintable(args.lo, args.hi)
    if bad is not None:
        raise _unprintable(f"Q_{bad}")
    values = pell_lucas_range(args.lo, args.hi)
    sys.stdout.write("n,Q_n\n" + "".join(
        f"{n},{q}\n" for n, q in zip(range(args.lo, args.hi + 1), values)))
    return 0


def _cmd_eval(args) -> int:
    print(EVAL_HEADER)
    z = complex(args.re, args.im)
    value, minus, plus, bound, used = _CLI.eval_series(
        z, args.weight, _CLI.EvalSettings(args.tol))
    print(_EVAL_ROW % (repr(z.real), repr(z.imag), value.real, value.imag,
                       bound, used, minus.real, minus.imag, plus.real,
                       plus.imag))
    return 0


def _cmd_grid(args) -> int:
    rect = _CLI.Rect.parse(args.rect)
    # The header goes out first, so that an error is reported after it.
    sys.stdout.write(EVAL_HEADER + ",status\n")
    cells = _CLI.eval_grid(rect, args.nx, args.ny, args.weight,
                           _CLI.EvalSettings(args.tol))
    # Cells come row by row, and every row has the same nx real parts, so
    # each coordinate is formatted once.  Columns are keyed by index, not by
    # value: 0.0 == -0.0, but their reprs differ.
    nx, ok_row, ok = args.nx, _EVAL_ROW + ",ok\n", _CLI.EvalResult
    columns = [repr(z.real) for z, _ in cells[:nx]]
    lines = []
    for start in range(0, len(cells), nx):
        row = cells[start:start + nx]
        y = repr(row[0][0].imag)
        for x, (_, r) in zip(columns, row):
            if isinstance(r, ok):
                value, minus, plus, bound, used = r
                lines.append(ok_row % (
                    x, y, value.real, value.imag, bound, used, minus.real,
                    minus.imag, plus.real, plus.imag))
            elif isinstance(r, PoleProximity):
                # value/tail/terms/minus/plus columns left blank
                lines.append(x + "," + y + ",,,,,,,,,pole\n")
            else:
                lines.append(x + "," + y + ",,,,,,,,,diverged\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_poles(args) -> int:
    rect = _CLI.Rect.parse(args.rect)
    print("j,location_num,location_den,location_float")
    lines = []  # all formatted before any is written
    for pole in _CLI.poles_in_rect(rect, args.jcap):
        try:
            lines.append(f"{pole.index},{pole.location.numerator},"
                         f"{pole.location.denominator},"
                         f"{pole.location_float!r}\n")
        except ValueError:
            raise _unprintable(f"location of pole j={pole.index}") from None
    sys.stdout.write("".join(lines))
    return 0


def _cmd_verify(args) -> int:
    rect = _CLI.Rect.parse(args.rect)
    equation = EquationId(args.eq)
    summary = _CLI.verify_grid(
        equation, rect, args.nx, args.ny, args.k, _CLI.EvalSettings(args.tol))
    lines = [VERIFY_HEADER + "\n"]
    for r in summary.reports:
        lines.append("%r,%r,%r,%r,%r,%r,%r,%r,%r,%r\n" % (
            r.point.real, r.point.imag, r.lhs.real, r.lhs.imag, r.rhs.real,
            r.rhs.imag, r.abs_residual, r.rel_residual, r.lhs_tail,
            r.rhs_tail))
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
    num, den = _CLI.coefficient_texts(rf)
    return [f"{name} numerator coefficients: {num}",
            f"{name} denominator coefficients: {den}"]


def _cmd_prove(args) -> int:
    equation = EquationId(args.eq)
    report = _CLI.verify_identity_exact(equation, args.window, args.k)
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


# Each subcommand's help line, function and options.  An option maps to its
# dest, its value's converter and its default: None if it is required, else
# the name of the constant here that holds it, read if the option is absent.
_TOL = ("tol", float, "DEFAULT_TARGET_TOL")
_EQ = ("eq", lambda text: EquationId(text).value, None)
_METAVARS = {"eq": "{%s}" % ",".join(e.value for e in EquationId),
             "rect": "X0,Y0,X1,Y1"}
COMMANDS = {
    "seq": ("print Q_n over an index range as CSV", _cmd_seq, {
        "--from": ("lo", int, None), "--to": ("hi", int, None)}),
    "eval": ("evaluate the series at one point", _cmd_eval, {
        "--re": ("re", float, None), "--im": ("im", float, None),
        "--weight": ("weight", int, None), "--tol": _TOL}),
    "grid": ("evaluate over a rectangular lattice", _cmd_grid, {
        "--rect": ("rect", str, None), "--nx": ("nx", grid_size, None),
        "--ny": ("ny", grid_size, None), "--weight": ("weight", int, None),
        "--tol": _TOL}),
    "poles": ("list term poles inside a rectangle", _cmd_poles, {
        "--rect": ("rect", str, None),
        "--jcap": ("jcap", int, "DEFAULT_J_CAP")}),
    "verify": ("numeric residuals of one equation", _cmd_verify, {
        "--eq": _EQ, "--k": ("k", int, None),
        "--rect": ("rect", str, "DEFAULT_RECT"),
        "--nx": ("nx", grid_size, "DEFAULT_GRID_N"),
        "--ny": ("ny", grid_size, "DEFAULT_GRID_N"), "--tol": _TOL}),
    "prove": ("exact finite-window identity check", _cmd_prove, {
        "--eq": _EQ, "--window": ("window", int, None),
        "--k": ("k", int, None)}),
}


def _exit(command, reason=None):
    """Help on stdout and exit 0 if reason is None, else the usage and the
    reason on stderr and exit 2."""
    usage = f"usage: pelleis [-h] {{{','.join(COMMANDS)}}} ..."
    about = ["Pell-Lucas numbers and their Eisenstein-like series", "", *(
        f"  {name:8}{spec[0]}" for name, spec in COMMANDS.items())]
    if command is not None:
        usage, about = f"usage: pelleis {command} [-h]", [COMMANDS[command][0]]
        for option, (dest, _, default) in COMMANDS[command][2].items():
            shown = f"{option} {_METAVARS.get(dest, dest.upper())}"
            usage += f" {shown}" if default is None else f" [{shown}]"
    if reason is None:
        print(usage, "", *about, sep="\n")
        raise SystemExit(0)
    print(usage, f"pelleis: error: {reason}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _option(tok: str, options, command):
    """(option, the value after "=" or None) for the option tok names, in
    full or by a unique prefix; None if it names none.  Help exits."""
    name, eq, value = tok.partition("=")
    if tok[:2] == "-h" and name != "-h":  # -hh, -hx: help, as in argparse 3.13
        name, eq = "-h", ""
    elif name[:2] == "--" and name not in options:
        found = [o for o in (*options, "--help") if o.startswith(name)]
        if len(found) > 1:
            _exit(command, f"ambiguous option {name}: " + ", ".join(found))
        name = found[0] if found else None
    if name in ("-h", "--help"):
        _exit(command, f"{name} takes no value" if eq else None)
    return (name, value if eq else None) if name in options else None


def parse_args(argv):
    """The command and option values argv names, read left to right: an
    option's value is the token after it, even one that starts with "-", or
    the text after its "=".  Help and refusals exit (README, "CLI")."""
    rest, command, options, values, stray = list(argv), None, {}, {}, []
    while rest:
        tok = rest.pop(0)
        found = None if tok == "--" else _option(tok, options, command)
        # The command is the first token argparse took for no option (no
        # dash, "-", a negative number or a space), or any token after "--".
        if command is None and (tok == "--" or found is None and (
                tok[:1] != "-" or tok == "-" or " " in tok or tok[-1] != "."
                and tok[1:].replace(".", "", 1).isdecimal())):
            command = tok if tok != "--" else rest.pop(0) if rest else None
            if command not in COMMANDS:
                break
            options = COMMANDS[command][2]
        elif tok == "--":  # no token after it is an option
            stray, rest = [*stray, tok, *rest], []
        elif found is None:
            stray.append(tok)
            if tok == "--rect" and rest and rest[0][:1] == "-":
                stray.append(rest.pop(0))  # argparse's --rect fold joined them
        else:
            option, text = found
            if text is None and not rest:
                _exit(command, f"argument {option}: expected one argument")
            dest, convert, _ = options[option]
            try:
                values[dest] = convert(rest.pop(0) if text is None else text)
            except ValueError as exc:
                _exit(command, f"argument {option}: {exc}")
    if command not in COMMANDS:
        _exit(None, "no command" if command is None
              else f"invalid command {command!r}")
    missing = [o for o, (dest, _, default) in options.items()
               if default is None and dest not in values]
    if missing or stray:
        _exit(command, f"missing {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(stray)}")
    defaults = {dest: getattr(_CLI, default)
                for dest, _, default in options.values() if dest not in values}
    return SimpleNamespace(command=command, func=COMMANDS[command][1],
                           **values, **defaults)


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # help (0) or a refused argv (2)
        return exc.code
    try:
        return args.func(args)
    except (PelleisError, ValueError) as exc:
        print(f"# error: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
