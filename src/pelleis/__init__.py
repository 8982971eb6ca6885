"""Pell-Lucas numbers and their Eisenstein-like series.

Exact integer sequence work, certified numerical evaluation of the
bilateral series sum_j (Q_j z + Q_{j-1})^(-m), pole-structure maps, and
numeric plus exact checks of the four functional equations.

Importing the package loads only the numeric core: errors, evaluator,
geometry and sequence, which is all that eval_series, eval_grid,
tail_bound, term_value, Rect, the pell_lucas functions and the error types
need.  The other public names, and the submodules analysis, equations,
exact and verify, are imported on first access through the module
__getattr__ (PEP 562) and then bound here, so each is its defining
module's own object and later lookups cost nothing.
"""

from .errors import (DidNotConverge, EmptyGrid, IndexCapExceeded,
                     InvalidRange, InvalidRegion, PelleisError, PoleProximity,
                     ZeroArgument)
from .evaluator import (EvalResult, EvalSettings, eval_grid, eval_series,
                        tail_bound, term_value)
from .geometry import Rect
from .sequence import pell_lucas, pell_lucas_range, pole_ratio

__version__ = "0.1.0"

__all__ = [
    "DidNotConverge", "DomainClass", "DomainTag",
    "EmptyGrid", "EquationId", "EvalResult", "EvalSettings",
    "ExactIdentityReport", "GridSummary", "IndexCapExceeded", "InvalidRange",
    "InvalidRegion", "PelleisError", "Pole", "PoleProximity",
    "Polynomial", "RationalFunction", "Rect", "ResidualReport",
    "ZeroArgument", "accumulation_points", "classify", "eval_grid",
    "eval_series", "pell_lucas", "pell_lucas_range", "pole_ratio",
    "poles_in_rect", "residual", "substitute", "tail_bound", "term_rf",
    "term_value", "verify_grid", "verify_identity_exact", "window_sum",
]

# The submodule that defines each public name not imported above; a
# submodule's own name maps to itself.
_DEFERRED = {
    "DomainClass": "analysis", "DomainTag": "analysis", "Pole": "analysis",
    "accumulation_points": "analysis", "classify": "analysis",
    "poles_in_rect": "analysis", "analysis": "analysis",
    "EquationId": "equations", "equations": "equations",
    "ExactIdentityReport": "exact", "Polynomial": "exact",
    "RationalFunction": "exact", "substitute": "exact", "term_rf": "exact",
    "verify_identity_exact": "exact", "window_sum": "exact", "exact": "exact",
    "GridSummary": "verify", "ResidualReport": "verify", "residual": "verify",
    "verify_grid": "verify", "verify": "verify",
}


def __getattr__(name: str):
    try:
        module = _DEFERRED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
