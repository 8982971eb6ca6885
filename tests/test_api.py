"""The public signatures carry no knob that only ever takes one value;
importing the package loads neither dataclasses nor inspect, and loads the
exact engine, verify, analysis, fractions and numbers only on first use;
each CLI subcommand loads only the modules it runs, and a proof loads no
fractions."""

import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exact_referee
import pelleis
from pelleis import (EvalSettings, classify, eval_grid, eval_series,
                     evaluator, pell_lucas, pell_lucas_range, pole_ratio,
                     residual, term_value, verify_grid, verify_identity_exact,
                     window_sum)
from test_cli import _GUARDED_PROOFS

FIXED = {"pole_guard", "k_cap", "pole_tol", "accum_tol", "j_cap",
         "degree_cap", "table", "trace", "index_cap"}


def test_eval_settings_fields():
    assert EvalSettings._fields == ("target_tol", "max_half_width")


def test_no_fixed_knob_in_signatures():
    for fn in (term_value, residual, verify_grid, classify,
               verify_identity_exact, window_sum, pell_lucas,
               pell_lucas_range, pole_ratio, eval_series, eval_grid,
               evaluator._Series.extend):
        params = set(inspect.signature(fn).parameters)
        assert not params & FIXED, (fn.__name__, params & FIXED)


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter without site, importing
    pelleis from this tree."""
    src = Path(pelleis.__file__).resolve().parents[1]
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI run pays for the import, and dataclasses with the inspect it
    # pulls in cost about 16 ms of it.  Which modules load is checked, not
    # how long the import takes, in a fresh interpreter without site.
    out = _fresh("import pelleis.cli\n"
                 "print(sorted({'dataclasses', 'inspect'} & "
                 "set(sys.modules)))\n")
    assert out == "[]\n"


# Modules the numeric path never needs; importing them took about half of
# a fresh `import pelleis`.
DEFERRED = ("fractions", "decimal", "numbers", "enum", "pelleis.analysis",
            "pelleis.equations", "pelleis.exact", "pelleis.verify",
            "pelleis.cli")
SUBMODULES = ("analysis", "equations", "exact", "verify")


def test_numeric_path_loads_no_deferred_module():
    out = _fresh("import pelleis\n"
                 "pelleis.eval_series(1 + 1j, 2)\n"
                 "rect = pelleis.Rect.parse('-2,-1,2,1')\n"
                 "pelleis.eval_grid(rect, 6, 6, 4)\n"
                 "pelleis.tail_bound(5, 0.5j, 3)\n"
                 "pelleis.pell_lucas_range(-3, 3)\n"
                 f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n")
    assert out == "[]\n"


def test_every_public_name_is_its_defining_modules_object():
    for name in pelleis.__all__:
        value = getattr(pelleis, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("pelleis."), name
        assert getattr(home, name) is value, name
    for name in SUBMODULES:
        assert getattr(pelleis, name) is sys.modules[f"pelleis.{name}"]


def test_deferred_names_resolve_in_a_fresh_interpreter():
    # Star import, dir and the submodule attributes, each before anything
    # has resolved a deferred name.
    out = _fresh("import pelleis\n"
                 "listed = set(pelleis.__all__) <= set(dir(pelleis))\n"
                 "mods = all(getattr(pelleis, n).__name__ == 'pelleis.' + n\n"
                 f"           for n in {SUBMODULES!r})\n"
                 "names = {}\n"
                 "exec('from pelleis import *', names)\n"
                 "bound = all(names[n] is getattr(pelleis, n)\n"
                 "            for n in pelleis.__all__)\n"
                 "same = pelleis.exact.window_sum is pelleis.window_sum\n"
                 "print(listed, mods, bound, same)\n")
    assert out == "True True True True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pelleis.no_such_name
    assert not hasattr(pelleis, "cli_main")
    with pytest.raises(AttributeError, match="no attribute 'Fraction'"):
        pelleis.exact.Fraction
    with pytest.raises(ImportError):
        exec("from pelleis import no_such_name", {})


def test_concurrent_first_access_gets_one_object():
    # A short switch interval lets the threads interleave inside the import.
    out = _fresh("import threading\n"
                 "import pelleis\n"
                 "sys.setswitchinterval(1e-6)\n"
                 "barrier = threading.Barrier(8, timeout=30)\n"
                 "seen = []\n"
                 "def resolve():\n"
                 "    barrier.wait()\n"
                 "    seen.append(pelleis.verify_identity_exact)\n"
                 "threads = [threading.Thread(target=resolve)"
                 " for _ in range(8)]\n"
                 "for t in threads: t.start()\n"
                 "for t in threads: t.join(30)\n"
                 "from pelleis.exact import verify_identity_exact as home\n"
                 "print(any(t.is_alive() for t in threads), len(seen),\n"
                 "      all(f is home for f in seen))\n")
    assert out == "False 8 True\n"


def test_pole_ratio_matches_an_independent_recurrence():
    q = exact_referee.pell_lucas
    for j in range(-50, 51):
        ratio = pole_ratio(j)
        assert type(ratio) is Fraction
        assert ratio == Fraction(-q(j - 1), q(j)), j


# What each CLI subcommand must not load: grid needs neither the exact
# engine, verify nor analysis, verify no exact engine, prove neither verify,
# analysis nor fractions, and none argparse (with the gettext and locale it
# loads) or numbers (Rect needs it only for a corner that is not a plain
# float or int).
CLI_ARGV = {
    "grid": ["grid", "--rect", "-1,0.5,1,1.5", "--nx", "4", "--ny", "4",
             "--weight", "2"],
    "verify": ["verify", "--eq", "shift", "--k", "1", "--nx", "3",
               "--ny", "3"],
    "prove": ["prove", "--eq", "shift", "--window", "2", "--k", "1"],
}
_NO_ARGPARSE = ("argparse", "gettext", "locale")
CLI_UNLOADED = {
    "grid": ("pelleis.exact", "pelleis.verify", "pelleis.analysis",
             "fractions", "decimal", "numbers", *_NO_ARGPARSE),
    "verify": ("pelleis.exact", "fractions", "decimal", "numbers",
               *_NO_ARGPARSE),
    "prove": ("pelleis.verify", "pelleis.analysis", "fractions", "decimal",
              "numbers", *_NO_ARGPARSE),
}


@pytest.mark.parametrize("command", CLI_ARGV)
def test_cli_command_loads_only_what_it_runs(command):
    out = _fresh("import contextlib, io\n"
                 "import pelleis.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = pelleis.cli.run({CLI_ARGV[command]!r})\n"
                 "print(code, sorted("
                 f"set({CLI_UNLOADED[command]!r}) & set(sys.modules)))\n")
    assert out == "0 []\n"


def test_guarded_proofs_load_no_fractions():
    # Every proof the guards allow sums and prints integer parts alone, so
    # none loads fractions, nor the reference algebra that imports it.
    out = _fresh("import contextlib, io\n"
                 "import pelleis.cli\n"
                 f"argvs = {_GUARDED_PROOFS!r}\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    codes = {pelleis.cli.run(list(a)) for a in argvs}\n"
                 "print(len(argvs), codes, sorted("
                 "{'fractions', 'pelleis.exact_reference'} "
                 "& set(sys.modules)))\n")
    assert out == "84 {0} []\n"


def test_cli_calls_a_wrapper_set_before_first_use():
    # The benchmark's tracer and monkeypatch set pelleis.cli.verify_grid
    # before any command has resolved it; verify must call that wrapper.
    out = _fresh("import contextlib, io\n"
                 "import pelleis, pelleis.cli\n"
                 "calls = []\n"
                 "def wrapper(*args):\n"
                 "    calls.append(args[0])\n"
                 "    return pelleis.verify_grid(*args)\n"
                 "pelleis.cli.verify_grid = wrapper\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = pelleis.cli.run({CLI_ARGV['verify']!r})\n"
                 "print(code, [e.value for e in calls],\n"
                 "      pelleis.cli.verify_grid is wrapper)\n")
    assert out == "0 ['shift'] True\n"


def test_cli_deferred_names_are_their_modules_objects():
    out = _fresh("import pelleis.cli\n"
                 "from pelleis.cli import verify_grid\n"
                 "exact = pelleis.cli.verify_identity_exact\n"
                 "from pelleis import exact as home, verify\n"
                 "print(exact is home.verify_identity_exact,\n"
                 "      verify_grid is verify.verify_grid,\n"
                 "      'verify_identity_exact' in vars(pelleis.cli))\n"
                 "from pelleis import analysis as a\n"
                 "print(pelleis.cli.poles_in_rect is a.poles_in_rect,\n"
                 "      pelleis.cli.DEFAULT_J_CAP == a.DEFAULT_J_CAP)\n")
    assert out == "True True True\nTrue True\n"
    from pelleis import cli
    with pytest.raises(AttributeError, match="no attribute 'classify'"):
        cli.classify
