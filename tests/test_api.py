"""The public signatures carry no knob that only ever takes one value, and
importing the package loads neither dataclasses nor inspect."""

import inspect
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI run pays for the import, and dataclasses with the inspect it
    # pulls in cost about 16 ms of it.  Which modules load is checked, not
    # how long the import takes, in a fresh interpreter without site.
    src = Path(pelleis.__file__).resolve().parents[1]
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import pelleis.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out == "[]\n"
