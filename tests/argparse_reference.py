"""The CLI's former argparse parser, kept as the referee of pelleis.cli.

build_parser and _glue_rect_values are copied verbatim from the CLI as it
was when argparse parsed its arguments, less the eval option --max-j that
the CLI no longer takes; grid_size, the defaults and the _cmd_* functions
are read from pelleis.cli.  The differential test in
tests/test_cli.py compares pelleis.cli.parse_args with reference_parse.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from functools import cache

from pelleis.analysis import DEFAULT_J_CAP
from pelleis.cli import (DEFAULT_GRID_N, DEFAULT_RECT, _cmd_eval, _cmd_grid,
                         _cmd_poles, _cmd_prove, _cmd_seq, _cmd_verify,
                         grid_size)
from pelleis.equations import EquationId
from pelleis.evaluator import DEFAULT_TARGET_TOL


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


def reference_parse(argv: list[str]):
    """What the former CLI made of argv: ("ok", vars of the namespace),
    ("help", 0) or ("usage", 2), with stdout and stderr as written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(_glue_rect_values(list(argv)))
        except SystemExit as exc:
            code = int(exc.code or 0)
            return ("help" if code == 0 else "usage", code,
                    out.getvalue(), err.getvalue())
    return "ok", vars(args), out.getvalue(), err.getvalue()
