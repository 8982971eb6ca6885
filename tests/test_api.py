"""The public signatures carry no knob that only ever takes one value;
importing the package loads neither dataclasses nor inspect, and loads
every submodule but errors, and fractions and numbers, only on first use;
a one-shot eval_series loads no geometry; each CLI subcommand loads only
the modules it runs, a proof loads no fractions, and none loads importlib
or __future__; every bounded integer argument is refused in one form."""

import inspect
import sys
from fractions import Fraction

import pytest

import exact_referee
import fresh
import pelleis
from pelleis import (EquationId, EvalSettings, Rect, classify, eval_grid,
                     eval_series, evaluator, pell_lucas, pell_lucas_range,
                     pole_ratio, poles_in_rect, residual, tail_bound,
                     term_value, verify_grid, verify_identity_exact)
from pelleis.exact_reference import term_rf, window_sum
from test_cli import _GUARDED_PROOFS

FIXED = {"pole_guard", "k_cap", "pole_tol", "accum_tol", "j_cap",
         "degree_cap", "table", "trace", "index_cap"}


def test_eval_settings_fields():
    assert EvalSettings._fields == ("target_tol",)


def test_no_fixed_knob_in_signatures():
    for fn in (term_value, residual, verify_grid, classify,
               verify_identity_exact, window_sum, pell_lucas,
               pell_lucas_range, pole_ratio, eval_series, eval_grid,
               evaluator._Series.extend):
        params = set(inspect.signature(fn).parameters)
        assert not params & FIXED, (fn.__name__, params & FIXED)


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI run pays for the import, and dataclasses with the inspect it
    # pulls in cost about 16 ms of it.  Which modules load is checked, not
    # how long the import takes, in a fresh interpreter without site.
    out = fresh.run("import pelleis.cli\n"
                    "print(sorted({'dataclasses', 'inspect'} & "
                    "set(sys.modules)))\n")
    assert out == "[]\n"


# Modules the numeric path never needs; importing them took about half of
# a fresh `import pelleis`.
DEFERRED = ("fractions", "decimal", "numbers", "enum", "pelleis.analysis",
            "pelleis.equations", "pelleis.exact", "pelleis.verify",
            "pelleis.cli")
SUBMODULES = ("analysis", "equations", "evaluator", "exact", "geometry",
              "sequence", "verify")


def test_numeric_path_loads_no_deferred_module():
    out = fresh.run("import pelleis\n"
                    "pelleis.eval_series(1 + 1j, 2)\n"
                    "rect = pelleis.Rect.parse('-2,-1,2,1')\n"
                    "pelleis.eval_grid(rect, 6, 6, 4)\n"
                    "pelleis.tail_bound(5, 0.5j, 3)\n"
                    "pelleis.pell_lucas_range(-3, 3)\n"
                    f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n")
    assert out == "[]\n"


def test_one_shot_eval_series_loads_neither_geometry_nor_future():
    # Only eval_grid needs Rect, and no module imports __future__.
    out = fresh.run("import pelleis\n"
                    "pelleis.eval_series(1 + 1j, 2)\n"
                    "print(sorted({'pelleis.geometry', '__future__'}\n"
                    "             & set(sys.modules)))\n")
    assert out == "[]\n"


def test_eval_grid_refuses_a_non_rect_before_and_after_geometry_loads():
    # eval_grid imports Rect when it is called, not with evaluator; the
    # first call, before anything has loaded geometry, refuses as a later
    # one does.
    out = fresh.run("import pelleis\n"
                    "eval_grid = pelleis.eval_grid\n"
                    "for _ in range(2):\n"
                    "    loaded = 'pelleis.geometry' in sys.modules\n"
                    "    try:\n"
                    "        eval_grid((-1, -1, 1, 1), 2, 2, 2)\n"
                    "    except ValueError as exc:\n"
                    "        print(loaded, exc)\n")
    refusal = "region must be of type Rect, got (-1, -1, 1, 1)"
    assert out == f"False {refusal}\nTrue {refusal}\n"


def test_bare_import_loads_errors_alone():
    # Neither the numeric core (evaluator, geometry, cmath) nor sequence
    # loads until a name of theirs is first used.
    out = fresh.run("import pelleis\n"
                    "print(sorted(m for m in sys.modules\n"
                    "             if m.startswith('pelleis.')),\n"
                    "      'cmath' in sys.modules)\n")
    assert out == "['pelleis.errors'] False\n"


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
    out = fresh.run("import pelleis\n"
                    "listed = set(pelleis.__all__) <= set(dir(pelleis))\n"
                    "mods = all(getattr(pelleis, n).__name__\n"
                    "           == 'pelleis.' + n\n"
                    f"           for n in {SUBMODULES!r})\n"
                    "names = {}\n"
                    "exec('from pelleis import *', names)\n"
                    "bound = all(names[n] is getattr(pelleis, n)\n"
                    "            for n in pelleis.__all__)\n"
                    "alias = pelleis.exact.window_sum\n"
                    "from pelleis.exact_reference import window_sum\n"
                    "same = alias is window_sum\n"
                    "print(listed, mods, bound, same)\n")
    assert out == "True True True True\n"


def test_dir_lists_every_public_name():
    listed = dir(pelleis)
    assert set(pelleis.__all__) <= set(listed) and listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pelleis.no_such_name
    assert not hasattr(pelleis, "cli_main")
    for name in ("Fraction", "_gcd_mod_p"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(pelleis.exact, name)
    with pytest.raises(ImportError):
        exec("from pelleis import no_such_name", {})


# The reference algebra the tests hold the prover to; public in
# pelleis.exact_reference alone.
_REFERENCE = ("Polynomial", "substitute", "term_rf", "window_sum")


def test_reference_algebra_is_public_in_its_home_alone():
    assert len(pelleis.__all__) == 32
    assert not set(_REFERENCE) & {*pelleis.__all__, *dir(pelleis)}
    for name in _REFERENCE:
        with pytest.raises(AttributeError, match=(
                f"^module 'pelleis' has no attribute '{name}'$")):
            getattr(pelleis, name)
        with pytest.raises(ImportError):
            exec(f"from pelleis import {name}", {})
    with pytest.raises(AttributeError, match=(
            "^module 'pelleis.exact' has no attribute 'term_rf'$")):
        pelleis.exact.term_rf


# Every name that each first-use hook serves, with its home submodule.
_HOMES = {
    "pelleis": {
        "analysis": ("DomainClass", "DomainTag", "Pole", "accumulation_points",
                     "classify", "poles_in_rect", "analysis"),
        "equations": ("EquationId", "equations"),
        "evaluator": ("EvalResult", "EvalSettings", "eval_grid",
                      "eval_series", "tail_bound", "term_value", "evaluator"),
        "exact": ("ExactIdentityReport", "RationalFunction",
                  "verify_identity_exact", "exact"),
        "geometry": ("Rect", "geometry"),
        "sequence": ("pell_lucas", "pell_lucas_range", "pole_ratio",
                     "sequence"),
        "verify": ("GridSummary", "ResidualReport", "residual", "verify_grid",
                   "verify"),
    },
    "pelleis.cli": {
        "evaluator": ("EvalSettings", "EvalResult", "eval_series",
                      "eval_grid", "DEFAULT_TARGET_TOL"),
        "geometry": ("Rect",),
        "verify": ("verify_grid",),
        "exact": ("verify_identity_exact", "coefficient_texts"),
        "analysis": ("poles_in_rect", "DEFAULT_J_CAP"),
    },
    "pelleis.exact": {
        "exact_reference": ("Polynomial", "poly_gcd", "window_sum",
                            "substitute"),
    },
}


@pytest.mark.parametrize("module, name, home", [
    (module, name, home) for module, homes in _HOMES.items()
    for home, names in homes.items() for name in names])
def test_first_use_binds_the_home_modules_own_object(module, name, home):
    # In a fresh interpreter, as the first deferred name resolved: the name
    # is its home's own object (the home itself for a submodule's name), is
    # bound in the module afterwards, and an unknown name is refused in the
    # module's own name.
    out = fresh.run("import importlib\n"
                    f"module = importlib.import_module({module!r})\n"
                    f"value = getattr(module, {name!r})\n"
                    f"home = importlib.import_module('pelleis.{home}')\n"
                    f"own = home if {name!r} == {home!r} else "
                    f"vars(home)[{name!r}]\n"
                    f"bound = vars(module).get({name!r}) is value\n"
                    "print(value is own, bound)\n"
                    "try:\n"
                    "    module.no_such_name\n"
                    "except AttributeError as error:\n"
                    "    print(error)\n")
    assert out == (f"True True\n"
                   f"module {module!r} has no attribute 'no_such_name'\n")


def test_concurrent_first_access_gets_one_object():
    # A short switch interval lets the threads interleave inside the import.
    out = fresh.run("import threading\n"
                    "import pelleis, pelleis.cli\n"
                    "sys.setswitchinterval(1e-6)\n"
                    "barrier = threading.Barrier(8, timeout=30)\n"
                    "seen = []\n"
                    "def resolve():\n"
                    "    barrier.wait()\n"
                    "    seen.append((pelleis.verify_identity_exact,\n"
                    "                 pelleis.cli.verify_grid))\n"
                    "threads = [threading.Thread(target=resolve)"
                    " for _ in range(8)]\n"
                    "for t in threads: t.start()\n"
                    "for t in threads: t.join(30)\n"
                    "from pelleis.exact import verify_identity_exact as home\n"
                    "from pelleis.verify import verify_grid as grid_home\n"
                    "print(any(t.is_alive() for t in threads), len(seen),\n"
                    "      all(f is home and g is grid_home\n"
                    "          for f, g in seen))\n")
    assert out == "False 8 True\n"


def test_pole_ratio_matches_an_independent_recurrence():
    q = exact_referee.pell_lucas
    for j in range(-50, 51):
        ratio = pole_ratio(j)
        assert type(ratio) is Fraction
        assert ratio == Fraction(-q(j - 1), q(j)), j


# What each CLI subcommand must not load.  seq and prove need no numeric
# core (evaluator, geometry, cmath); seq, eval and grid need neither the
# exact engine, verify nor analysis; poles and verify need no exact engine;
# prove needs neither verify, analysis nor fractions.  No command loads
# argparse (with the gettext and locale it loads), importlib (the
# first-use rule imports with __import__) or __future__, and none but
# poles, whose fractions imports it, loads numbers; eval loads no geometry.
CLI_ARGV = {
    "seq": ["seq", "--from", "-3", "--to", "3"],
    "eval": ["eval", "--re", "0.3", "--im", "1", "--weight", "2"],
    "grid": ["grid", "--rect", "-1,0.5,1,1.5", "--nx", "4", "--ny", "4",
             "--weight", "2"],
    "verify": ["verify", "--eq", "shift", "--k", "1", "--nx", "3",
               "--ny", "3"],
    "poles": ["poles", "--rect", "-1,-1,1,1"],
    "prove": ["prove", "--eq", "shift", "--window", "2", "--k", "1"],
}
_NO_COMMAND = ("argparse", "gettext", "locale", "importlib", "__future__")
_NO_NUMERIC_CORE = ("pelleis.evaluator", "pelleis.geometry", "cmath")
_NUMERIC_ONLY = ("pelleis.exact", "pelleis.verify", "pelleis.analysis",
                 "fractions", "decimal", "numbers", *_NO_COMMAND)
CLI_UNLOADED = {
    "seq": (*_NUMERIC_ONLY, *_NO_NUMERIC_CORE),
    "eval": (*_NUMERIC_ONLY, "pelleis.geometry"),
    "grid": _NUMERIC_ONLY,
    "poles": ("pelleis.exact", "pelleis.verify", *_NO_COMMAND),
    "verify": ("pelleis.exact", "fractions", "decimal", "numbers",
               *_NO_COMMAND),
    "prove": ("pelleis.verify", "pelleis.analysis", "fractions", "decimal",
              "numbers", *_NO_COMMAND, *_NO_NUMERIC_CORE),
}


@pytest.mark.parametrize("command", CLI_ARGV)
def test_cli_command_loads_only_what_it_runs(command):
    out = fresh.run("import contextlib, io\n"
                    "import pelleis.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    code = pelleis.cli.run({CLI_ARGV[command]!r})\n"
                    "print(code, sorted("
                    f"set({CLI_UNLOADED[command]!r}) & set(sys.modules)))\n")
    assert out == "0 []\n"


def test_guarded_proofs_load_no_fractions():
    # Every proof the guards allow sums and prints integer parts alone, so
    # none loads fractions, nor the reference algebra that imports it.
    out = fresh.run("import contextlib, io\n"
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
    # and pelleis.cli.eval_grid before any command has resolved them; verify
    # and grid must call those wrappers.  Both take the lattice's nx and ny
    # just before k or the weight, and the settings.
    out = fresh.run("import contextlib, io\n"
                    "import pelleis, pelleis.cli\n"
                    "calls = []\n"
                    "def wrap(name):\n"
                    "    def wrapper(*args):\n"
                    "        calls.append((name, *args[-4:-2]))\n"
                    "        return getattr(pelleis, name)(*args)\n"
                    "    setattr(pelleis.cli, name, wrapper)\n"
                    "    return wrapper\n"
                    "names = ['verify_grid', 'eval_grid']\n"
                    "wrappers = [wrap(name) for name in names]\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    codes = [pelleis.cli.run({CLI_ARGV['verify']!r}),\n"
                    f"             pelleis.cli.run({CLI_ARGV['grid']!r})]\n"
                    "bound = [getattr(pelleis.cli, n) for n in names]\n"
                    "print(codes, calls, bound == wrappers)\n")
    assert out == ("[0, 0] [('verify_grid', 3, 3), ('eval_grid', 4, 4)] "
                   "True\n")


def test_cli_deferred_names_are_their_modules_objects():
    out = fresh.run("import pelleis.cli\n"
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


_SHIFT, _SQUARE = EquationId.SHIFT, Rect(-1, -1, 1, 1)

# Every bounded integer argument, refused below its lower bound, above its
# upper bound where it has one, and as a float, in the one form of
# errors.require_int.
_INT_REFUSALS = {
    "weight": (lambda v: eval_series(1j, v), 2, 65536),
    "tail_bound half_width": (lambda v: tail_bound(v, 1j, 2), 2, None),
    "residual k": (lambda v: residual(_SHIFT, 1j, v), 1, 8),
    "verify_grid k": (lambda v: verify_grid(_SHIFT, _SQUARE, 2, 2, v), 1, 8),
    "identity half_width": (
        lambda v: verify_identity_exact(_SHIFT, v, 1), 2, 8),
    "identity k": (lambda v: verify_identity_exact(_SHIFT, 2, v), 1, 3),
    "term_rf m": (lambda v: term_rf(1, v), 1, 6),
    "window_sum half_width": (lambda v: window_sum(v, 2), 1, 8),
    "window_sum m": (lambda v: window_sum(1, v), 1, 6),
    "nx": (lambda v: list(_SQUARE.cell_centers(v, 1)), 1, None),
    "ny": (lambda v: list(_SQUARE.cell_centers(1, v)), 1, None),
    "j_cap": (lambda v: poles_in_rect(_SQUARE, v), 0, None),
}


@pytest.mark.parametrize("site, kind", [
    (site, kind) for site, (_, low, high) in _INT_REFUSALS.items()
    for kind in ("low", "high", "type") if kind != "high" or high is not None])
def test_integer_refusals_share_one_form(site, kind):
    call, low, high = _INT_REFUSALS[site]
    name = site.split()[-1]
    if kind == "low":
        value, message = low - 1, f"{name} must be an integer >= {low}"
    elif kind == "high":
        value, message = high + 1, f"{name} must be at most {high}"
    else:
        value, message = float(low), f"{name} must be an integer"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{message}, got {value!r}"
