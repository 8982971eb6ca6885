"""The public signatures carry no knob that only ever takes one value;
importing the package loads neither dataclasses nor inspect, and loads the
exact engine, verify, analysis and fractions only on first use."""

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
DEFERRED = ("fractions", "decimal", "enum", "pelleis.analysis",
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
