"""Command-line interface: formats, exit codes, determinism."""

import copy
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fresh
from argparse_reference import reference_parse
from oracle import q_int
from pelleis import (EquationId, GridSummary, InvalidRegion, PelleisError,
                     Rect, ResidualReport, analysis, cli, eval_grid,
                     exact_reference, pell_lucas, verify_grid)
from pelleis.geometry import MAX_CELLS
from pelleis.sequence import SILVER_CONJUGATE, SILVER_RATIO, pole_ratio

SEQ_0_4 = "n,Q_n\n0,2\n1,2\n2,6\n3,14\n4,34\n"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------------------ seq

def test_seq_exact_output(capsys):
    code, out = run_cli(capsys, "seq", "--from", "0", "--to", "4")
    assert code == 0
    assert out == SEQ_0_4


def test_seq_negative_range(capsys):
    code, out = run_cli(capsys, "seq", "--from", "-3", "--to", "3")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "n,Q_n"
    assert rows[1] == "-3,-14"
    assert rows[-1] == "3,14"


def test_seq_without_an_int_str_limit(capsys, monkeypatch):
    # CPython 3.10.0 to 3.10.6 has no int-to-string limit and no
    # sys.get_int_max_str_digits: seq prints its table, as with a limit of 0.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out = run_cli(capsys, "seq", "--from", "-3", "--to", "3")
    assert code == 0
    assert out == "n,Q_n\n" + "".join(
        f"{n},{pell_lucas(n)}\n" for n in range(-3, 4))


@pytest.mark.parametrize("lo, hi", [(-9, -4), (-5, 7), (0, 0), (-2, -2),
                                    (3, 11), (-1, 1)])
def test_seq_rows_match_a_plain_recurrence(capsys, lo, hi):
    code, out = run_cli(capsys, "seq", "--from", str(lo), "--to", str(hi))
    assert code == 0
    assert out == "n,Q_n\n" + "".join(
        f"{n},{q_int(n)}\n" for n in range(lo, hi + 1))


def test_seq_reversed_range_fails(capsys):
    code, out = run_cli(capsys, "seq", "--from", "5", "--to", "3")
    assert code == 1
    assert out.startswith("# error:")


# ----------------------------------------------------------------------- eval

def test_eval_row(capsys):
    code, out = run_cli(capsys, "eval", "--re", "0", "--im", "1",
                        "--weight", "4")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == cli.EVAL_HEADER
    fields = row.split(",")
    assert len(fields) == 10
    assert float(fields[0]) == 0.0 and float(fields[1]) == 1.0
    value = complex(float(fields[2]), float(fields[3]))
    assert abs(value - complex(-0.030901802404911409, 0.0012382412587260283)) \
        <= 1e-11
    assert float(fields[4]) <= 1e-12      # tail bound hit the tolerance
    assert int(fields[5]) >= 2            # terms_used
    minus = complex(float(fields[6]), float(fields[7]))
    plus = complex(float(fields[8]), float(fields[9]))
    assert minus + plus == value


def test_eval_at_pole_errors_after_header(capsys):
    code, out = run_cli(capsys, "eval", "--re", "1", "--im", "0",
                        "--weight", "2")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == cli.EVAL_HEADER
    assert lines[-1].startswith("# error:")


def test_eval_tol_validation(capsys):
    code, out = run_cli(capsys, "eval", "--re", "0", "--im", "1",
                        "--weight", "2", "--tol", "0")
    assert code == 1
    assert "# error:" in out
    # Below the tail bound's floor no window can converge.
    code, out = run_cli(capsys, "eval", "--re", "1", "--im", "1",
                        "--weight", "64", "--tol", "1e-300")
    assert code == 1
    assert out.endswith("# error: target_tol must be at least 2e-300, "
                        "the floor of tail_bound\n")
    # The floor itself is met, 391 windows out at weight 2.
    code, out = run_cli(capsys, "eval", "--re", "1", "--im", "1",
                        "--weight", "2", "--tol", "2e-300")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert (row[4], row[5]) == ("2e-300", "391")


def test_eval_huge_weight_is_refused(capsys):
    # Each term's power loop runs m - 1 times: a weight of 10^10 would run
    # for most of an hour, and is refused at once.
    code, out = run_cli(capsys, "eval", "--re", "0.3", "--im", "1",
                        "--weight", "10000000000")
    assert code == 1
    assert out == (f"{cli.EVAL_HEADER}\n"
                   "# error: weight must be at most 65536, got 10000000000\n")


# ----------------------------------------------------------------------- grid

def test_grid_statuses(capsys):
    code, out = run_cli(capsys, "grid", "--rect", "-1.5,-0.5,1.5,0.5",
                        "--nx", "3", "--ny", "1", "--weight", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == cli.EVAL_HEADER + ",status"
    assert len(lines) == 4
    assert lines[1].endswith(",pole") and lines[3].endswith(",pole")
    assert lines[2].endswith(",ok")
    # Error rows keep the column count: re, im, eight blanks, status.
    assert lines[1].count(",") == 10
    assert lines[1].split(",")[2:10] == [""] * 8
    # A cell within POLE_GUARD of 1 - sqrt(2), where the poles cluster and
    # no tail bound is finite.
    code, out = run_cli(capsys, "grid",
                        "--rect=-0.4142135624,-1e-9,-0.4142135623,1e-9",
                        "--nx", "1", "--ny", "1", "--weight", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["-0.41421356235,0.0,,,,,,,,,diverged"]


def test_grid_deterministic(capsys):
    args = ("grid", "--rect", "-1,0.5,1,1.5", "--nx", "4", "--ny", "3",
            "--weight", "3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 13


def test_grid_leading_dash_rect(capsys):
    # A rectangle string starting with '-' is the value of --rect, not an
    # option.
    code, out = run_cli(capsys, "grid", "--rect", "-1,-1,1,1",
                        "--nx", "2", "--ny", "2", "--weight", "2")
    assert code == 0
    assert all(line.endswith(",ok") for line in out.strip().split("\n")[1:])


def test_grid_bad_rect(capsys):
    code, out = run_cli(capsys, "grid", "--rect", "1,1,0,0",
                        "--nx", "2", "--ny", "2", "--weight", "2")
    assert code == 1
    assert "# error:" in out
    # Rect.parse refuses a wrong count of corners and a corner that is no
    # number, before any header is written.
    code, out = run_cli(capsys, "grid", "--rect", "1,2,3",
                        "--nx", "2", "--ny", "2", "--weight", "2")
    assert (code, out) == (1, "# error: expected X0,Y0,X1,Y1 got '1,2,3'\n")
    code, out = run_cli(capsys, "poles", "--rect", "a,b,c,d")
    assert (code, out) == (1, "# error: bad rectangle 'a,b,c,d': could not "
                              "convert string to float: 'a'\n")


@pytest.mark.parametrize("option, message", [
    (("--weight", "1"), "weight must be an integer >= 2, got 1"),
    (("--weight", "2", "--tol", "0"),
     "target_tol must be a positive finite float"),
    (("--weight", "65537"), "weight must be at most 65536, got 65537"),
])
def test_grid_error_follows_header(capsys, option, message):
    # The header is written before any cell is evaluated, the rows in one
    # write after all of them: an error leaves exactly the header and the
    # error line.
    code, out = run_cli(capsys, "grid", "--rect", "-1,0.5,1,1.5",
                        "--nx", "3", "--ny", "2", *option)
    assert code == 1
    assert out == f"{cli.EVAL_HEADER},status\n# error: {message}\n"


_POSITIVE = "target_tol must be a positive finite float"
_FLOOR = "target_tol must be at least 2e-300, the floor of tail_bound"


@pytest.mark.parametrize("argv, header, message", [
    (("eval", "--re", "0", "--im", "1", "--weight", "1", "--tol", "0"),
     cli.EVAL_HEADER + "\n", _POSITIVE),
    (("verify", "--eq", "shift", "--k", "9", "--tol", "0"), "", _POSITIVE),
    (("grid", "--rect=-1,0.5,1,1.5", "--nx", "600", "--ny", "600",
      "--weight", "1", "--tol", "1e-301"),
     cli.EVAL_HEADER + ",status\n", _FLOOR),
])
def test_tolerance_is_refused_before_the_other_bad_value(capsys, argv,
                                                         header, message):
    # Each argv has a second bad value (a weight or k out of range, a grid
    # past the cell cap); the tolerance is refused first, on both streams.
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, f"{header}# error: {message}\n",
                                f"error: {message}\n")


# Lattices past MAX_CELLS: one cell more than the cap, and an nx beyond
# double range, which crashed with an OverflowError when the side was divided
# by it.  An nx of 100000 by ny 100000 was accepted and ran for days.
HUGE_LATTICES = [(MAX_CELLS + 1, 1), (1, MAX_CELLS + 1), (10**400, 1),
                 (100_000, 100_000)]


def _cap_message(nx, ny):
    return f"grid must have at most {MAX_CELLS} cells, got {nx} x {ny}"


@pytest.mark.parametrize("nx, ny", HUGE_LATTICES)
def test_huge_lattice_is_refused_at_once(nx, ny):
    rect = Rect(-1, 0.5, 1, 1.5)
    for build in (lambda: eval_grid(rect, nx, ny, 2),
                  lambda: verify_grid(EquationId.SHIFT, rect, nx, ny, 1)):
        t0 = perf_counter()
        with pytest.raises(ValueError) as info:
            build()
        assert perf_counter() - t0 < 1.0
        assert str(info.value) == _cap_message(nx, ny)


@pytest.mark.parametrize("nx, ny", HUGE_LATTICES)
def test_huge_lattice_is_an_error_line(capsys, nx, ny):
    for command, head in (
            (("grid", "--weight", "2"), f"{cli.EVAL_HEADER},status\n"),
            (("verify", "--eq", "shift", "--k", "1"), "")):
        t0 = perf_counter()
        code, out = run_cli(capsys, *command, "--rect", "-1,0.5,1,1.5",
                            "--nx", str(nx), "--ny", str(ny))
        assert perf_counter() - t0 < 1.0
        assert code == 1
        assert out == f"{head}# error: {_cap_message(nx, ny)}\n"


def test_lattice_of_max_cells_is_built():
    # The cells alone, not evaluated: 512 x 512 is the largest lattice.
    rect = Rect(0, 0, 1, 1)
    cells = list(rect.cell_centers(512, 512))
    assert 512 * 512 == MAX_CELLS == len(cells)
    assert cells[0] == complex(0.5 / 512, 0.5 / 512)
    assert cells[-1] == complex(511.5 / 512, 511.5 / 512)
    assert sum(1 for _ in rect.cell_centers(MAX_CELLS, 1)) == MAX_CELLS


@pytest.mark.parametrize("command", [
    ("grid", "--nx", "2", "--ny", "1", "--weight", "2"),
    ("verify", "--eq", "shift", "--k", "1"),
])
def test_overflowing_rect_side_is_refused(capsys, command):
    # Finite corners whose width overflows: the grid had printed its header
    # and then crashed on inf cell centres, and verify called the same
    # rectangle one with no testable points.
    code, out = run_cli(capsys, *command, "--rect", "-1e308,0,1e308,1")
    assert code == 1
    assert out == ("# error: rectangle sides overflow: "
                   "(-1e+308, 0.0, 1e+308, 1.0)\n")
    with pytest.raises(InvalidRegion):
        Rect(0, -1e308, 1, 1e308)


def test_points_beyond_double_range_are_typed_errors(capsys):
    # A finite input whose modulus leaves double range: an error line and
    # exit 1 for the point, no traceback.  A cell whose term denominators
    # leave double range, in modulus or in a part, is far from every pole:
    # each term is the term's zero, and the cell is ok.
    code, out = run_cli(capsys, "eval", "--re", "1.5e308", "--im", "1.5e308",
                        "--weight", "2")
    assert code == 1
    assert out.splitlines()[-1] == (
        "# error: point must be finite, got (1.5e+308+1.5e+308j)")
    code, out = run_cli(capsys, "grid", "--rect=2e307,2e307,2.4e307,2.4e307",
                        "--nx", "1", "--ny", "1", "--weight", "2")
    assert code == 0
    assert out.splitlines()[-1] == (
        "2.2e+307,2.2e+307,0.0,0.0,2e-300,2,0.0,0.0,0.0,0.0,ok")
    # At 1e308 + 1e308i both parts of every denominator overflow.
    code, out = run_cli(capsys, "grid",
                        "--rect=0.9e308,0.9e308,1.1e308,1.1e308",
                        "--nx", "1", "--ny", "1", "--weight", "2")
    assert code == 0
    assert out.splitlines()[-1] == (
        "1e+308,1e+308,0.0,0.0,2e-300,2,0.0,0.0,0.0,0.0,ok")


# ---------------------------------------------------------------------- poles

def test_poles_jcap_above_limit(capsys):
    code, out = run_cli(capsys, "poles", "--rect", "-1,-1,1,1",
                        "--jcap", "100000")
    assert code == 1
    assert out.splitlines()[-1] == "# error: j_cap 100000 exceeds cap 99999"


def test_poles_rows(capsys):
    code, out = run_cli(capsys, "poles", "--rect", "-1.5,-0.1,1.5,0.1",
                        "--jcap", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,location_num,location_den,location_float"
    assert lines[1:] == [
        "1,-1,1,-1.0",
        "3,-3,7,-0.42857142857142855",
        "4,-7,17,-0.4117647058823529",
        "2,-1,3,-0.3333333333333333",
        "0,1,1,1.0",
    ]
    for line in lines[1:]:
        _, num, den, loc = line.split(",")
        assert float(Fraction(int(num), int(den))) == float(loc)


@pytest.fixture
def int_str_digits_640():
    """Python's int-to-string limit at 640 digits, which Q_n passes from
    n = 1,672 on, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, head, name", [
    ("seq --from 0 --to 2000", [], "Q_1672"),
    ("seq --from -2000 --to 0", [], "Q_-2000"),
    ("poles --rect=-0.5,-1,0,1 --jcap 2000",
     ["j,location_num,location_den,location_float"],
     "location of pole j=1673"),
])
def test_unprintable_rows_are_refused_whole(capsys, int_str_digits_640,
                                            command, head, name):
    # Every row is formatted before any is written: the refusal names the
    # index and the limit, and no row of the table precedes it.
    code, out = run_cli(capsys, *command.split())
    assert code == 1
    assert out.splitlines() == head + [
        f"# error: {name} has more than 640 digits, "
        "Python's int-to-string limit"]
    # The last printable value still prints, all 640 digits of it.
    code, out = run_cli(capsys, "seq", "--from", "1671", "--to", "1671")
    assert code == 0
    assert len(out.splitlines()[1]) == len("1671,") + 640


@pytest.mark.parametrize("lo, hi", [
    (0, 1671), (-1671, 1671), (0, 1672), (1672, 1672), (-1672, -1672),
    (-1672, 0), (-1700, 1680), (-1671, 1680), (1700, 1800), (-2000, -1700),
    (-3, 3), (1, 1), (5, 3), (0, 100_001), (-100_001, 0)])
def test_first_unprintable_row_is_the_first_that_fails_to_format(
        int_str_digits_640, lo, hi):
    # The row the refusal names is the first, in output order, that Python
    # will not convert to text; a range seq refuses otherwise gets None.
    def formats(n):
        try:
            return bool(f"{pell_lucas(n)}")
        except ValueError:
            return False
    expected = None if max(-lo, hi) > 100_000 else next(
        (n for n in range(lo, hi + 1) if not formats(n)), None)
    assert cli._first_unprintable(lo, hi) == expected


@pytest.mark.parametrize("lo, hi, name", [("0", "99999", "Q_11234"),
                                          ("-99999", "0", "Q_-99999")])
def test_unprintable_row_is_found_before_the_table_grows(lo, hi, name):
    # Built whole, either range took 852 MB and about 3 s to print this one
    # line.  The table now grows to the first unprintable index, 11,234.
    # Memory is the peak that tracemalloc sees: ru_maxrss of a child keeps
    # the peak of the test process that started it (Linux).
    out = fresh.run(
        "import contextlib, io, tracemalloc\n"
        "import pelleis.cli, pelleis.sequence\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = pelleis.cli.run(['seq', '--from', {lo!r},\n"
        f"                            '--to', {hi!r}])\n"
        "mb = tracemalloc.get_traced_memory()[1] / 2**20\n"
        "print(code, len(pelleis.sequence._Q), mb < 60, out.getvalue(),\n"
        "      end='')\n")
    assert out == (f"1 11235 True # error: {name} has more than 4300 digits, "
                   "Python's int-to-string limit\n")


def _listed_poles(rect, cap):
    """Reference for the poles command: list every pole up to cap, then
    format each, refusing at the first one that will not convert to text.
    Returns the exit code and stdout."""
    lines = ["j,location_num,location_den,location_float\n"]
    try:
        poles = analysis.poles_in_rect(rect, cap)
    except PelleisError as exc:
        return 1, "".join(lines) + f"# error: {exc}\n"
    for pole in poles:
        try:
            lines.append(f"{pole.index},{pole.location.numerator},"
                         f"{pole.location.denominator},"
                         f"{pole.location_float!r}\n")
        except ValueError:
            return 1, lines[0] + (
                f"# error: location of pole j={pole.index} has more than "
                f"{sys.get_int_max_str_digits()} digits, Python's "
                "int-to-string limit\n")
    return 0, "".join(lines)


# The doubles of 1 -/+ sqrt(2), their neighbours, and two far corners.
_LIMIT_CORNERS = sorted({-2.0, 4.0, *(
    math.nextafter(x, toward) for x in (SILVER_CONJUGATE, SILVER_RATIO)
    for toward in (-math.inf, x, math.inf))})


@pytest.mark.parametrize("limit", [640, 641])
def test_poles_refusal_matches_listing_every_pole(capsys, int_str_digits_640,
                                                  limit):
    # Rectangles that hold 1 - sqrt(2), 1 + sqrt(2), both or neither, with
    # corners at the limits' doubles and their neighbours, and caps around
    # F, the least j whose pole location passes the limit (1,673 at 640,
    # 1,676 at 641, so both parities): the command decides its refusal on
    # poles F and 1 - F, and prints what listing every pole up to the cap
    # and formatting each prints.
    sys.set_int_max_str_digits(limit)
    first = next(j for j in itertools.count(1)
                 if pell_lucas(j) >= 2 * 10 ** limit)
    caps = [first + d for d in range(-2, 3)] + [2000]
    held = set()
    for x0, x1 in itertools.combinations(_LIMIT_CORNERS, 2):
        rect = Rect(x0, -1.0, x1, 1.0)
        held.add(tuple(rect.contains(pole_ratio(j), 0) for j in (99, -99)))
        for cap in caps:
            text = f"{x0!r},-1,{x1!r},1"
            code, out = run_cli(capsys, "poles", f"--rect={text}",
                                "--jcap", str(cap))
            assert (code, out) == _listed_poles(rect, cap), (text, cap)
    assert held == {(False, False), (True, False), (False, True),
                    (True, True)}


@pytest.mark.parametrize("x0, x1, expected", [
    (-1.0, 3.0, lambda rect: (1, "j,location_num,location_den,location_float\n"
                              "# error: location of pole j=11235 has more "
                              "than 4300 digits, Python's int-to-string "
                              "limit\n")),
    (SILVER_CONJUGATE, 2.0, lambda rect: _listed_poles(rect, 60)),
], ids=["both-limits", "corner-at-a-limit"])
def test_poles_refusal_is_decided_before_the_listing(x0, x1, expected):
    # On the first rectangle, listing every pole up to j_cap 20,000 took
    # 1.85 s and a 209 MiB peak before it printed the refusal; at 99,999,
    # several GB.  The second holds 12 poles, but at a corner on a limit's
    # double the float hulls never clear the corner, so poles_in_rect
    # reads every pole up to j_cap: the command lists only up to the first
    # unprintable pole, 11,235.
    out = fresh.run(
        "import contextlib, io, time\n"
        "import pelleis.cli\n"
        "start = time.perf_counter()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = pelleis.cli.run(['poles',\n"
        f"                            '--rect={x0!r},-1,{x1!r},1',\n"
        "                            '--jcap', '99999'])\n"
        "seconds = time.perf_counter() - start\n"
        "with open('/proc/self/status') as status:\n"
        "    hwm = next(int(line.split()[1]) for line in status\n"
        "               if line.startswith('VmHWM:'))\n"
        "print(code, seconds < 10, hwm < 100 * 1024)\n"
        "print(out.getvalue(), end='')\n")
    code, text = expected(Rect(x0, -1.0, x1, 1.0))
    assert out == f"{code} True True\n{text}"


# --------------------------------------------------------------------- verify

def test_verify_summary(capsys):
    code, out = run_cli(capsys, "verify", "--eq", "reflection", "--k", "1",
                        "--nx", "4", "--ny", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == cli.VERIFY_HEADER
    assert len(lines) == 18  # header + 16 rows + summary
    summary = lines[-1]
    assert summary.startswith("# summary eq=reflection k=1")
    stats = dict(part.split("=") for part in summary[2:].split(" ")[1:])
    assert stats["points_tested"] == "16"
    assert stats["points_skipped"] == "0"
    assert stats["points_failed"] == "0"
    assert float(stats["max_rel_residual"]) <= 1e-9
    row = lines[1].split(",")
    assert len(row) == 10
    assert float(row[7]) <= 1e-9  # rel_residual column


def _repr_rows(reports):
    """The verify CSV rows of reports, repr of every field."""
    return [",".join(repr(v) for v in (
        r.point.real, r.point.imag, r.lhs.real, r.lhs.imag, r.rhs.real,
        r.rhs.imag, r.abs_residual, r.rel_residual, r.lhs_tail, r.rhs_tail))
        for r in reports]


@pytest.mark.parametrize("eq", [e.value for e in EquationId])
@pytest.mark.parametrize("rect, nx, ny", [("-1,0.5,1,1.5", 3, 12),
                                          (cli.DEFAULT_RECT, 1, 1)])
def test_verify_rows_are_reprs_of_every_field(capsys, eq, rect, nx, ny):
    # Both grids have a column at re = 0.0; coordinates are formatted once
    # and reused, to the same text.
    code, out = run_cli(capsys, "verify", "--eq", eq, "--k", "2",
                        f"--rect={rect}", "--nx", str(nx), "--ny", str(ny))
    assert code == 0
    summary = verify_grid(EquationId(eq), Rect.parse(rect), nx, ny, 2, 1e-12)
    rows = out.splitlines()[1:-1]
    assert rows == _repr_rows(summary.reports)
    assert any(row.startswith("0.0,") for row in rows)


def test_verify_rows_keep_the_sign_of_zero(capsys, monkeypatch):
    # 0.0 == -0.0, but the two print differently, in either order.
    points = (complex(0.0, 1.0), complex(-0.0, 1.0), complex(-0.0, -0.0),
              complex(0.0, -0.0), complex(0.0, 0.0), complex(-0.0, 0.0),
              complex(2.5, 0.0), complex(2.5, -0.0))
    summary = GridSummary(EquationId.SHIFT, 1, [], [], 0)
    summary.reports.extend(ResidualReport(z, 1, 1 + 2j, 1 - 2j, 4.0, 0.5,
                                          1e-20, 2e-20) for z in points)
    monkeypatch.setattr(cli, "verify_grid", lambda *args: summary)
    code, out = run_cli(capsys, "verify", "--eq", "shift", "--k", "1")
    assert code == 0
    assert out.splitlines()[1:-1] == _repr_rows(summary.reports)


def test_verify_rejects_unknown_equation(capsys):
    code, _ = run_cli(capsys, "verify", "--eq", "rotation", "--k", "1")
    assert code == 2


def test_verify_bad_k(capsys):
    code, out = run_cli(capsys, "verify", "--eq", "shift", "--k", "0")
    assert code == 1
    assert "# error:" in out


def test_verify_failed_row_names_side(capsys):
    # At z = 1e-160 the shift's prefactor z^-2 leaves double range, so its
    # right side fails, while the point 1e-160 + 2i is tested.
    code, out = run_cli(capsys, "verify", "--eq", "shift", "--k", "1",
                        "--rect=0,-1,2e-160,3", "--nx", "1", "--ny", "2")
    assert code == 1
    failed = [l for l in out.split("\n") if l.startswith("# failed:")]
    assert len(failed) == 1
    assert failed[0].startswith("# failed: re=1e-160 im=0.0 tail bound ")
    assert failed[0].endswith(" [rhs]")
    assert "points_tested=1" in out and "points_failed=1" in out


def test_verify_all_points_failed_prints_failures(capsys):
    # The one regular point fails, as the prefactor overflows: a failed row
    # and the summary, not "no testable points".
    code, out = run_cli(capsys, "verify", "--eq", "shift", "--k", "1",
                        "--rect=0,0,2e-160,2e-160", "--nx", "1", "--ny", "1")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == cli.VERIFY_HEADER
    assert lines[1].startswith("# failed: re=1e-160 im=1e-160 tail bound ")
    assert lines[1].endswith(" [rhs]")
    assert lines[2].startswith("# summary eq=shift k=1 points_tested=0 "
                               "points_skipped=0 points_failed=1 ")
    assert len(lines) == 3


def test_verify_overflowing_prefactor_is_a_failure(capsys):
    # z^16 overflows: a failed row tagged [rhs] and exit 1, not a NaN row
    # counted as tested.
    code, out = run_cli(capsys, "verify", "--eq", "inversion", "--k", "8",
                        "--rect=1e30,1e30,2e30,2e30", "--nx", "1", "--ny", "1")
    assert code == 1
    assert "nan," not in out
    lines = out.strip().split("\n")
    assert lines[1].startswith("# failed: re=1.5000000000000002e+30 ")
    assert lines[1].endswith(" [rhs]")
    assert " points_tested=0 points_skipped=0 points_failed=1 " in lines[2]


@pytest.mark.parametrize("eq, counts", [
    ("inversion", "points_tested=2 points_skipped=2 points_failed=0"),
    ("shift", "points_tested=0 points_skipped=2 points_failed=2")])
def test_verify_skips_overflowing_reciprocal(capsys, eq, counts):
    # 1/z overflows at the centers +-5e-309; the grid goes on past them.
    # For the shift, z^-2 then overflows at +-1.5e-308 as well.
    code, out = run_cli(capsys, "verify", "--eq", eq, "--k", "1",
                        "--rect=-2e-308,-1e-310,2e-308,1e-310",
                        "--nx", "4", "--ny", "1")
    assert "# error:" not in out
    assert counts in out
    assert code == (0 if eq == "inversion" else 1)


# ---------------------------------------------------------------------- prove

def test_prove_reflection(capsys):
    code, out = run_cli(capsys, "prove", "--eq", "reflection",
                        "--window", "3", "--k", "1")
    assert code == 0
    assert "verdict: EXACT-ZERO\n" in out
    assert "boundary terms: 0" in out
    assert "residual numerator coefficients: 0" in out
    assert "defect numerator coefficients: 0" in out


def test_prove_inversion(capsys):
    code, out = run_cli(capsys, "prove", "--eq", "inversion",
                        "--window", "3", "--k", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "equation: inversion"
    assert "window half-width: 3" in lines
    assert "weight: 2" in lines
    assert "boundary terms: 2" in lines
    assert lines[-1] == "verdict: EXACT-ZERO-AFTER-BOUNDARY"
    # Boundary denominators are printed as space-separated rationals.
    b1 = next(l for l in lines if l.startswith("boundary 1 denominator"))
    coeffs = b1.split(": ")[1].split(" ")
    assert len(coeffs) == 3  # monic quadratic
    assert coeffs[-1] == "1"


def test_prove_window_validation(capsys):
    code, out = run_cli(capsys, "prove", "--eq", "shift",
                        "--window", "1", "--k", "1")
    assert code == 1
    assert "# error:" in out


_GUARDED_PROOFS = [("prove", "--eq", eq.value, "--window", str(J),
                    "--k", str(k))
                   for eq in EquationId for J in range(2, 9)
                   for k in (1, 2, 3)]


def test_prove_builds_no_fraction_and_no_polynomial(capsys, monkeypatch):
    # The prover sums and prints integer parts alone: with Fraction and
    # Polynomial refused where the exact engine looks them up, in
    # exact_reference, every report of the guarded range prints the same
    # bytes.
    want = [run_cli(capsys, *argv) for argv in _GUARDED_PROOFS]
    assert {code for code, _ in want} == {0}

    def refused(*args, **kwargs):
        raise AssertionError("prove built a Fraction or a Polynomial")

    monkeypatch.setattr(exact_reference, "Fraction", refused)
    monkeypatch.setattr(exact_reference, "Polynomial", refused)
    assert [run_cli(capsys, *argv) for argv in _GUARDED_PROOFS] == want


# Every request the guards allow, 4 equations x --window 2..8 x --k 1..3,
# then each guard's refusal at --window 1 and 9 and --k 0 and 4.
_GUARD_REFUSALS = [("prove", "--eq", eq.value, *bad) for eq in EquationId
                   for bad in (("--window", "1", "--k", "1"),
                               ("--window", "9", "--k", "1"),
                               ("--window", "2", "--k", "0"),
                               ("--window", "2", "--k", "4"))]


def test_every_allowed_proof_is_pinned(capsys):
    # One sha256 over the exit code and stdout of each request in turn.
    digest = hashlib.sha256()
    for argv in _GUARDED_PROOFS + _GUARD_REFUSALS:
        code, out = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == ("22080d55a3db859cad095388f56f21814d7f5223"
                                  "ed4a930dc734b25765ae9485")


def test_largest_exact_proofs_are_pinned():
    # J=8, k=3 takes milliseconds termwise and minutes by canonicalising the
    # whole window sum, so a return to that path fails here, by the time-out
    # of each run.  The four reports together must also stay byte-identical.
    out = "".join(
        _python("-m", "pelleis", "prove", "--eq", eq.value, "--window", "8",
                "--k", "3").stdout for eq in EquationId)
    digest = hashlib.sha256((out.rstrip("\n") + "\n").encode()).hexdigest()
    assert digest == ("9318fa1fdd4f5a33d955123ce9d70122118eed7a"
                      "22ce44b6e3eb4e76c2b0d573")


# -------------------------------------------------------------------- generic

def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "seq", "--from", "0")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "grid", "--rect", "0,0,1,1", "--nx", "0",
                   "--ny", "2", "--weight", "2")[0] == 2
    assert run_cli(capsys, "verify", "--eq", "shift", "--k", "1",
                   "--nx", "0")[0] == 2
    assert run_cli(capsys, "verify", "--eq", "shift", "--k", "1",
                   "--ny", "0")[0] == 2


# sha256 of stdout for small runs; a change to the numeric kernels must
# leave every byte of these as it is.
PINNED_STDOUT = {
    "grid-m2": (
        "grid --rect=-1.5,-0.5,2.5,0.5 --nx 12 --ny 5 --weight 2",
        "f2e2188a0e49b9f3212d9012b1f17b73808f2ce7d9f5d74c84461ac91ca742d0"),
    "grid-m8": (
        "grid --rect=-1.5,-0.5,2.5,0.5 --nx 12 --ny 5 --weight 8",
        "929b64267b6d6caad4ae32679444342625e349d419b93b7e6567120e19a4a302"),
    "verify-inversion": (
        "verify --eq inversion --k 1 --nx 5 --ny 5",
        "2ae30def0ee7f1406da229aac0667ea5e0cb0d6f6b971100f5f15a0a4d4ad0ab"),
    "verify-reflection": (
        "verify --eq reflection --k 1 --nx 5 --ny 5",
        "118ac0ad0adfccb164aaeba348d17670478d7b82f89455b6fbbc89f0a4a63aee"),
    "verify-shift": (
        "verify --eq shift --k 1 --nx 5 --ny 5",
        "e9105c2662ed02e9252eaea0b97dcccc187f33223ed8094d85e2cf4287347c5b"),
    "verify-negation": (
        "verify --eq negation --k 1 --nx 5 --ny 5",
        "8016dc602a27bb2ea43166acf4abc4962a642fe4225f66c0526fe199bc862f43"),
    # thin rectangle across the axis around p_1 = -1: skipped rows, and
    # points whose both sides are refined
    "verify-axis-pole-k3": (
        "verify --eq inversion --k 3 --rect=-1.5,-1e-6,-0.5,1e-6 --nx 9 --ny 5",
        "abddad1f4e33a224994d1a98dffdafe5a0065a857008758eb205daa3a0a7ee72"),
    # squares around 1 + sqrt(2): skipped points near the limit, and
    # refinement next to it
    "verify-accum-reflection": (
        "verify --eq reflection --k 2 --rect=2.412,-0.002,2.416,0.002 "
        "--nx 8 --ny 8",
        "de6f91d2792f047b16d8112bd00df3e7868cefb3c30a0ce50abfa6c711660a37"),
    "verify-accum-shift": (
        "verify --eq shift --k 3 --rect=2.41,-0.004,2.418,0.004 --nx 8 --ny 8",
        "dfdf55f52ad3859d8bb5a3fdcd30190ed8c04876d44c0bd3cbcc6a1777249858"),
    "poles": (
        "poles --rect=-2,-0.5,3.5,0.5",
        "f82a433c6963f320a9e956ccc4ff40be98e579959da34e6d063edb98674b620b"),
    "prove-inversion": (
        "prove --eq inversion --window 5 --k 2",
        "e1d4857279b80f3dc20ad4f4c876ce65a0d2a8d9de19ffc52b261286c75279e5"),
    "prove-shift": (
        "prove --eq shift --window 4 --k 2",
        "b35aae848c939c7188e8a60550f5be869ba81d5493667f52c7039f1595335a63"),
    "prove-negation": (
        "prove --eq negation --window 3 --k 1",
        "e060a977fe631c102d6624a2746e35532d606e5ba37efb7360b0c9277bab7c16"),
    "prove-reflection": (
        "prove --eq reflection --window 5 --k 2",
        "627cfa51af4b702f7d315b7e2eb5b48bfe04cc832401453bd703aa43207f84a9"),
}


@pytest.mark.parametrize("name", PINNED_STDOUT)
def test_stdout_bytes_pinned(capsys, name):
    command, digest = PINNED_STDOUT[name]
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_help_exits_0(capsys):
    code, out = run_cli(capsys, "--help")
    assert code == 0
    assert "seq" in out and "prove" in out


# ------------------------------------------------------------ parser reuse

def test_option_table_is_a_module_constant(capsys):
    table = cli.COMMANDS
    before = copy.deepcopy(table)
    assert run_cli(capsys, "prove", "--eq", "shift", "--window", "x",
                   "--k", "2")[0] == 2
    assert run_cli(capsys, "grid", "--bogus", "--rect", "0,0,1,1")[0] == 2
    assert cli.COMMANDS is table and table == before


def test_usage_error_leaves_parser_clean(capsys):
    command, digest = PINNED_STDOUT["prove-shift"]
    assert run_cli(capsys, "prove", "--eq", "shift", "--window", "x",
                   "--k", "2")[0] == 2
    assert run_cli(capsys, "prove", "--eq", "nonsense")[0] == 2
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_help_twice_is_identical(capsys):
    first = run_cli(capsys, "--help")
    assert first == run_cli(capsys, "--help")
    sub = run_cli(capsys, "prove", "--help")
    assert sub[0] == 0 and "--window" in sub[1]
    assert first == run_cli(capsys, "--help")
    assert sub == run_cli(capsys, "prove", "--help")


# ------------------------------------------------- parser against argparse

_OPTIONS = ("--from", "--to", "--re", "--im", "--weight", "--tol", "--rect",
            "--nx", "--ny", "--jcap", "--eq", "--k", "--window", "--help")
_PREFIXES = sorted({o[:n] for o in _OPTIONS for n in range(3, len(o) + 1)})
_VALUES = ("0", "1", "2", "12", "0.5", "1e-5", "-1e-5", "nan", "-1",
           "-1,0,1,1", "0,0,1,1", "x", "rotation", "shift")
_WORD = st.one_of(
    st.sampled_from((*_PREFIXES, *_VALUES, "-h", "--", "seq", "prove")),
    st.builds("{}={}".format, st.sampled_from(_PREFIXES),
              st.sampled_from((*_VALUES, "", "--"))))
# One accepted request per command, as (option, value) pairs.
_REQUESTS = {
    "seq": (("--from", "-1"), ("--to", "2")),
    "eval": (("--re", "0.5"), ("--im", "1"), ("--weight", "2")),
    "grid": (("--rect", "-1,0,1,1"), ("--nx", "2"), ("--ny", "3"),
             ("--weight", "2")),
    "poles": (("--rect", "0,0,1,1"),),
    "verify": (("--eq", "shift"), ("--k", "1")),
    "prove": (("--eq", "shift"), ("--window", "2"), ("--k", "1")),
}


@st.composite
def _argvs(draw):
    """An accepted request, its options shuffled, abbreviated and perhaps
    joined to their values by "=", then words inserted, replaced or
    deleted, one or two at a time."""
    command = draw(st.sampled_from(sorted(_REQUESTS)))
    argv = [command]
    for option, value in draw(st.permutations(_REQUESTS[command])):
        option = option[:draw(st.integers(3, len(option)))]
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option,
                                                                   value]
    edits = st.tuples(st.sampled_from("ird"), st.integers(0, 20),
                      st.lists(_WORD, min_size=1, max_size=2))
    for edit, at, words in draw(st.lists(edits, max_size=3)):
        if edit == "i":
            at %= len(argv) + 1
            argv[at:at] = words
        elif argv and edit == "r":
            argv[at % len(argv)] = words[0]
        elif argv:
            del argv[at % len(argv)]
    return argv


def _read(argv):
    """cli.parse_args(argv) in the form of reference_parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = cli.parse_args(argv)
        except SystemExit as exc:
            return ("help" if exc.code == 0 else "usage", exc.code,
                    out.getvalue(), err.getvalue())
    return "ok", vars(args), out.getvalue(), err.getvalue()


def _ambiguous_value(argv, reason):
    """Whether argparse refused argv for an ambiguous option that directly
    follows an option taking a value: argparse sorted every token into
    options and values before it read any value, while the parser takes
    the token as that option's value."""
    token = reason.partition("ambiguous option: ")[2].partition(" ")[0]
    if not token or token not in argv[1:]:
        return False
    before = argv[argv.index(token, 1) - 1]
    return (before[:2] == "--" and before != "--" and "=" not in before
            and any(o.startswith(before) for o in _OPTIONS if o != "--help"))


def _unlike_argparse(argv, expected, got):
    """The README's name for the class of argv that the parser reads
    unlike argparse did, if argv is in one; None otherwise."""
    status, reason, read = expected[0], expected[3], got[0]
    if status == "usage" and ("expected one argument" in reason
                              or _ambiguous_value(argv, reason)):
        return "a value that starts with '-'"
    if status == "usage" and "invalid choice: '--'" in reason:
        return "'--' before the command"
    if status == "usage" and read == "help" and "ambiguous option" in reason:
        return "an ambiguous prefix after -h"
    if (status == "usage" and read == "help"
            and "ignored explicit argument" in reason
            and any(t[:2] == "-h" and t[2:3] not in ("", "=") for t in argv)):
        return "-h run on with other letters"
    if status != "usage" and (
            any(t[:2] == "--" and t.partition("=")[2] == "--" for t in argv)
            or any(pair == ("--rect", "--")
                   for pair in zip(argv, argv[1:]))):
        return "the value '--'"
    return None


@settings(max_examples=1000)
@given(st.one_of(_argvs(), st.lists(_WORD, max_size=8)))
@example(["eval", "--rect", "--tol", "-h"])  # the fold joins --tol to --rect
@example(["--rect", "-1", "prove", "-h"])
@example(["-1", "prove", "-h"])  # a negative number stands for a command
@example(["-x y", "prove", "-h"])  # and so does a token with a space
@example(["prove", "--", "-h"])  # no token after "--" is an option
@example(["--eq", "prove", "-h"])  # help after an unknown option
@example(["prove", "x", "-h"])
@example(["verify", "--eq", "shift", "--k", "1", "--n", "3"])
@example(["grid", "--w", "2", "--r", "--n", "--ny", "3", "--nx", "2"])
@example(["grid", "--rec=-1,0,1,1", "--nx", "2", "--ny", "3", "--wei=2",
          "--w", "4"])
def test_parser_reads_argv_as_argparse_did(argv):
    expected, got = reference_parse(argv), _read(argv)
    status, code, out, err = got
    if status == "usage":
        assert code == 2 and not out and err.startswith("usage: pelleis")
    elif status == "help":
        assert code == 0 and out.startswith("usage: pelleis") and not err
    if status == expected[0] and (status != "ok" or {
            k: repr(v) for k, v in expected[1].items()} == {
            k: repr(v) for k, v in got[1].items()}):
        return
    assert _unlike_argparse(argv, expected, got), (argv, expected, got)


@pytest.mark.parametrize("argv, dest, value", [
    (["eval", "--re", "0", "--im", "1", "--weight", "2", "--tol", "-1e-5"],
     "tol", -1e-5),
    (["eval", "--re", "-2e-3", "--im", "1", "--weight", "2"], "re", -2e-3),
    (["poles", "--rec", "-1,0,1,1"], "rect", "-1,0,1,1"),
    (["--", "prove", "--eq", "shift", "--window", "2", "--k", "1"],
     "window", 2),
])
def test_parser_reads_on_where_argparse_refused(argv, dest, value):
    # argparse refused each of these; the last one only before Python
    # 3.13.13 (README, "CLI").
    assert getattr(cli.parse_args(argv), dest) == value


def test_the_value_dashdash_is_read_as_text(capsys):
    # argparse before Python 3.13 read "--" as an empty list and passed it
    # on unconverted: eval and grid then stopped with a traceback.
    code, out = run_cli(capsys, "eval", "--re=--", "--im", "1",
                        "--weight", "2")
    assert (code, out) == (2, "")
    code, out = run_cli(capsys, "grid", "--rect", "--", "--nx", "2",
                        "--ny", "2", "--weight", "2")
    assert code == 1 and out == "# error: expected X0,Y0,X1,Y1 got '--'\n"


def test_help_flag_run_on_prints_help(capsys):
    code, out = run_cli(capsys, "prove", "-hx")
    assert code == 0 and out.startswith("usage: pelleis prove")


def test_refusal_names_the_usage_and_the_reason(capsys):
    code = cli.run(["prove", "--eq", "rotation", "--window", "2", "--k", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "usage: pelleis prove [-h] --eq {inversion,reflection,shift,negation}"
        " --window WINDOW --k K",
        "pelleis: error: argument --eq: 'rotation' is not a valid EquationId"]
    # eval takes no window cap.
    code = cli.run(["eval", "--re", "1", "--im", "1", "--weight", "2",
                    "--max-j", "8"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "usage: pelleis eval [-h] --re RE --im IM --weight WEIGHT [--tol TOL]",
        "pelleis: error: unrecognized arguments: --max-j 8"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pelleis", "seq", "--from", "0", "--to", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == SEQ_0_4


def test_main_module_run_as_a_script():
    # runpy runs pelleis/__main__.py, and so cli.main, as `python -m
    # pelleis` does, but inside the calling interpreter: its stdout and
    # the code it exits with, for a table, a refused evaluation and an
    # unknown option.
    out = fresh.run(
        "import contextlib, io, runpy\n"
        "for argv in (['seq', '--from', '-3', '--to', '3'],\n"
        "             ['eval', '--re', '0.3', '--im', '1', '--weight', '1'],\n"
        "             ['seq', '--from', '0', '--to', '1', '--bogus']):\n"
        "    sys.argv = ['pelleis', *argv]\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = None\n"
        "        try:\n"
        "            runpy.run_module('pelleis', run_name='__main__')\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(repr(code), repr(out.getvalue()))\n")
    refused = (cli.EVAL_HEADER
               + "\n# error: weight must be an integer >= 2, got 1\n")
    seq = "n,Q_n\n" + "".join(f"{n},{pell_lucas(n)}\n" for n in range(-3, 4))
    assert out.splitlines() == [f"0 {seq!r}", f"1 {refused!r}", "2 ''"]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh python with this tree's package, timed out after 30 s: a
    weight or lattice that is not refused at once runs for minutes to days,
    and the time-out fails the test instead."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=30, env=env)


def test_huge_weight_is_refused_by_the_module_at_once():
    # Each term's power loop runs m - 1 times, so weight 10^10 would run
    # for about 50 minutes; a weight above evaluator.MAX_WEIGHT is refused
    # with exit 1 and a "# error:" line.
    proc = _python("-m", "pelleis", "eval", "--re", "0.3", "--im", "1",
                   "--weight", "10000000000")
    assert proc.returncode == 1
    assert any(line.startswith("# error:")
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("nx, ny", [("100000", "100000"),
                                    ("1" + "0" * 400, "1")],
                         ids=["100000x100000", "1e400x1"])
@pytest.mark.parametrize("command", [("grid", "--weight", "2"),
                                     ("verify", "--eq", "shift", "--k", "1")],
                         ids=["grid", "verify"])
def test_huge_lattice_is_refused_by_the_module_at_once(command, nx, ny):
    # A lattice of more than geometry.MAX_CELLS cells is refused before any
    # cell is built: 100000 x 100000 ran for days, and an nx of 10^400
    # crashed with an OverflowError and a traceback.
    proc = _python("-m", "pelleis", *command, "--rect", "0,1,1,2",
                   "--nx", nx, "--ny", ny)
    assert proc.returncode == 1
    assert any(line.startswith("# error:")
               for line in proc.stdout.splitlines())


def test_term_rf_refuses_a_huge_weight_at_once():
    # term_rf's polynomial power grows faster than m^2, so it takes m up to
    # exact.WINDOW_WEIGHT_GUARD alone; 10^10 never returned.
    proc = _python("-c", "from pelleis.exact_reference import term_rf\n"
                         "try:\n"
                         "    term_rf(1, 10**10)\n"
                         "except ValueError as exc:\n"
                         "    print(f'term_rf refused: {exc}')\n"
                         "else:\n"
                         "    raise SystemExit("
                         "'term_rf(1, 10**10) returned')\n")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("term_rf refused: ")
