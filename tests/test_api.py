"""The public signatures carry no knob that only ever takes one value."""

import dataclasses
import inspect

from pelleis import (EvalSettings, classify, eval_grid, eval_series,
                     evaluator, pell_lucas, pell_lucas_range, pole_ratio,
                     residual, term_value, verify_grid, verify_identity_exact,
                     window_sum)

FIXED = {"pole_guard", "k_cap", "pole_tol", "accum_tol", "j_cap",
         "degree_cap", "table", "trace", "index_cap"}


def test_eval_settings_fields():
    assert [f.name for f in dataclasses.fields(EvalSettings)] == [
        "target_tol", "max_half_width"]


def test_no_fixed_knob_in_signatures():
    for fn in (term_value, residual, verify_grid, classify,
               verify_identity_exact, window_sum, pell_lucas,
               pell_lucas_range, pole_ratio, eval_series, eval_grid,
               evaluator._Series.extend):
        params = set(inspect.signature(fn).parameters)
        assert not params & FIXED, (fn.__name__, params & FIXED)
