"""Pell-Lucas numbers and their Eisenstein-like series.

Exact integer sequence work, certified numerical evaluation of the
bilateral series sum_j (Q_j z + Q_{j-1})^(-m), pole-structure maps, and
numeric plus exact checks of the four functional equations.
"""

from .analysis import (DomainClass, DomainTag, Pole, accumulation_points,
                       classify, poles_in_rect)
from .equations import EquationId
from .errors import (DidNotConverge, EmptyGrid, IndexCapExceeded,
                     InvalidRange, InvalidRegion, PelleisError, PoleProximity,
                     ZeroArgument)
from .evaluator import (EvalResult, EvalSettings, eval_grid, eval_series,
                        tail_bound, term_value)
from .exact import (ExactIdentityReport, Polynomial, RationalFunction,
                    substitute, term_rf, verify_identity_exact, window_sum)
from .geometry import Rect
from .sequence import pell_lucas, pell_lucas_range, pole_ratio
from .verify import GridSummary, ResidualReport, residual, verify_grid

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
