"""Pell-Lucas numbers and their Eisenstein-like series.

Exact integer sequence work, certified numerical evaluation of the
bilateral series sum_j (Q_j z + Q_{j-1})^(-m), pole-structure maps, and
numeric plus exact checks of the four functional equations.

Importing the package loads only errors.  Every other public name, and
the submodules analysis, equations, evaluator, exact, geometry, sequence
and verify, are imported on first access and then bound here, so each is
its defining module's own object: `pelleis prove` and `pelleis seq` never
load the numeric core (evaluator, geometry and cmath), and a one-shot
eval_series loads no geometry.  _first_use builds that module __getattr__;
the CLI and the exact engine defer their names through it too.
"""

from .errors import (DidNotConverge, EmptyGrid, IndexCapExceeded,
                     InvalidRange, InvalidRegion, PelleisError, PoleProximity,
                     ZeroArgument)

__version__ = "0.1.0"

__all__ = [
    "DidNotConverge", "DomainClass", "DomainTag",
    "EmptyGrid", "EquationId", "EvalResult",
    "ExactIdentityReport", "GridSummary", "IndexCapExceeded", "InvalidRange",
    "InvalidRegion", "PelleisError", "Pole", "PoleProximity",
    "RationalFunction", "Rect", "ResidualReport", "ZeroArgument",
    "accumulation_points", "classify", "eval_grid", "eval_series",
    "pell_lucas", "pell_lucas_range", "pole_ratio", "poles_in_rect",
    "residual", "tail_bound", "term_value", "verify_grid",
    "verify_identity_exact",
]

# The submodule that defines each public name not imported above; a
# submodule's own name maps to itself.
_DEFERRED = {
    "DomainClass": "analysis", "DomainTag": "analysis", "Pole": "analysis",
    "accumulation_points": "analysis", "classify": "analysis",
    "poles_in_rect": "analysis", "analysis": "analysis",
    "EquationId": "equations", "equations": "equations",
    "EvalResult": "evaluator", "eval_grid": "evaluator",
    "eval_series": "evaluator", "tail_bound": "evaluator",
    "term_value": "evaluator", "evaluator": "evaluator",
    "ExactIdentityReport": "exact", "RationalFunction": "exact",
    "verify_identity_exact": "exact", "exact": "exact",
    "Rect": "geometry", "geometry": "geometry",
    "pell_lucas": "sequence", "pell_lucas_range": "sequence",
    "pole_ratio": "sequence", "sequence": "sequence",
    "GridSummary": "verify", "ResidualReport": "verify", "residual": "verify",
    "verify_grid": "verify", "verify": "verify",
}


def _first_use(module_name: str, homes: dict[str, str]):
    """The module __getattr__ (PEP 562) of module_name for the names of
    homes: the first access imports the name's home submodule and binds
    the named object (or, for its own name, the submodule) in the module."""
    import sys
    module = sys.modules[module_name]

    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}") from None
        # __import__, not importlib, which a bare interpreter has not loaded.
        __import__(f"{__name__}.{home}")
        value = sys.modules[f"{__name__}.{home}"]
        if name != home:
            value = getattr(value, name)
        setattr(module, name, value)
        return value
    return __getattr__


__getattr__ = _first_use(__name__, _DEFERRED)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
