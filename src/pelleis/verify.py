"""Numeric residuals of the functional equations on points and grids."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .analysis import classify
from .equations import EquationId
from .errors import (DidNotConverge, EmptyGrid, PelleisError, ZeroArgument,
                     require_type)
from .evaluator import (EvalSettings, _require_point, _require_settings,
                        _Series)
from .evaluator import eval_series  # unused; perfbench wraps it
from .geometry import Rect

K_CAP = 8  # keeps |z|^(2k) within double range on the usual grids
_REL_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualReport:
    point: complex
    k: int
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    lhs_tail: float
    rhs_tail: float


@dataclass
class GridSummary:
    """A report per tested point, a (point, error) per failed point and the
    skipped count; the other counts and the worst point derive from them."""

    equation: EquationId
    k: int
    points_skipped: int = 0
    reports: list[ResidualReport] = field(default_factory=list)
    failures: list[tuple[complex, PelleisError]] = field(default_factory=list)

    @property
    def points_tested(self) -> int:
        return len(self.reports)

    @property
    def points_failed(self) -> int:
        return len(self.failures)

    @property
    def max_rel_residual(self) -> float:
        return max((r.rel_residual for r in self.reports), default=0.0)

    @property
    def worst_point(self) -> complex | None:
        """The first point with the largest relative residual above 0."""
        worst = max(self.reports, key=lambda r: r.rel_residual, default=None)
        return worst.point if worst and worst.rel_residual > 0 else None


def _require_k(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k > K_CAP:
        raise ValueError(f"k={k} above cap {K_CAP}")


def _pow_int(base: complex, n: int) -> complex:
    out = 1.0 + 0.0j
    for _ in range(n):
        out *= base
    return out


def _arguments(equation: EquationId, z: complex) -> tuple[complex, complex]:
    """(left-side argument, right-side argument) of the equation at z: the
    maps (a z + b)/(c z + d) of its row; one with d = 0 needs z != 0."""
    left, right, _, _ = equation.row
    if z == 0 and (left[3] == 0 or right[3] == 0):
        raise ZeroArgument(f"{equation.value} undefined at z = 0")
    lhs_z, rhs_z = ((a * z + b) / (c * z + d) for a, b, c, d in (left, right))
    if not (cmath.isfinite(lhs_z) and cmath.isfinite(rhs_z)):
        raise ZeroArgument(
            f"{equation.value} argument overflows at z = {z!r}")
    return lhs_z, rhs_z


_REFINE_ROUNDS = 2
_REFINE_TOL_FLOOR = 1e-250


def residual(equation: EquationId, z: complex, k: int,
             settings: EvalSettings | None = None) -> ResidualReport:
    """Evaluate both sides of the equation at z for weight 2k.

    target_tol is treated relative to the side magnitudes: after a first
    pass, both sides are refined with the tolerance scaled down to
    max(|lhs|, |rhs|) * target_tol, so the relative residual reflects the
    identity rather than the flat truncation error.  Each side is one
    resumable window sum (evaluator._Series): a refinement round sums on
    from the window the previous tolerance stopped at, and gives the same
    bits as a fresh eval_series at the tighter tolerance.  Tail bounds stay
    certified throughout.  The prefactor z^(+-2k) is applied to the right
    side by repeated multiplication and scales the right tail accordingly;
    a right side that leaves double range raises DidNotConverge (tail
    bound inf).  Evaluation errors carry side="lhs" or side="rhs".  Both
    arguments should classify REGULAR; every term is re-guarded during
    summation.
    """
    require_type("equation", equation, EquationId)
    _require_k(k)
    z = _require_point(z)
    base = _require_settings(settings)
    m = 2 * k
    lhs_z, rhs_z = _arguments(equation, z)

    sign = equation.row[2]
    if sign == 0:
        prefactor = 1.0 + 0.0j
    else:
        prefactor = _pow_int(z if sign > 0 else 1 / z, m)
    pref_mag = abs(prefactor)

    lhs_series = rhs_series = None
    lhs_tol = rhs_tol = base.target_tol
    for _ in range(_REFINE_ROUNDS + 1):
        try:
            if lhs_series is None:
                lhs_series = _Series(lhs_z, m)
            left = lhs_series.extend(lhs_tol, base.max_half_width)
        except PelleisError as exc:
            exc.side = "lhs"
            raise
        try:
            if rhs_series is None:
                rhs_series = _Series(rhs_z, m)
            right = rhs_series.extend(rhs_tol, base.max_half_width)
        except PelleisError as exc:
            exc.side = "rhs"
            raise
        rhs = prefactor * right.value
        rhs_tail = pref_mag * right.tail_bound
        if not (cmath.isfinite(rhs) and math.isfinite(rhs_tail)):
            # The prefactor z^(+-2k) left double range.
            raise DidNotConverge(right.terms_used, math.inf, point=rhs_z,
                                 side="rhs")
        scale = max(abs(left.value), abs(rhs))
        if (scale < _REFINE_TOL_FLOOR
                or left.tail_bound + rhs_tail <= 4.0 * scale * base.target_tol):
            break
        # A tolerance looser than one a side already met leaves it as it is.
        lhs_tol = max(scale * base.target_tol, _REFINE_TOL_FLOOR)
        rhs_tol = max(scale * base.target_tol / max(pref_mag, 1e-300),
                      _REFINE_TOL_FLOOR)

    abs_res = abs(left.value - rhs)
    rel_res = abs_res / max(abs(left.value), abs(rhs), _REL_FLOOR)
    return ResidualReport(
        point=z, k=k, lhs=left.value, rhs=rhs,
        abs_residual=abs_res, rel_residual=rel_res,
        lhs_tail=left.tail_bound, rhs_tail=rhs_tail,
    )


def verify_grid(equation: EquationId, region: Rect, nx: int, ny: int, k: int,
                settings: EvalSettings | None = None) -> GridSummary:
    """Residuals at every cell center whose arguments both classify REGULAR.

    Non-regular points (and z = 0, or a z whose 1/z overflows, where the
    equation needs 1/z) are skipped; evaluation failures at regular points
    are recorded as failures.  Raises EmptyGrid when every point was
    skipped, i.e. when no point was either tested or failed.
    """
    require_type("equation", equation, EquationId)
    require_type("region", region, Rect)
    _require_k(k)
    settings = _require_settings(settings)
    summary = GridSummary(equation, k)
    for z in region.cell_centers(nx, ny):
        try:
            lhs_z, rhs_z = _arguments(equation, z)
        except ZeroArgument:
            summary.points_skipped += 1
            continue
        if not (classify(lhs_z).is_regular and classify(rhs_z).is_regular):
            summary.points_skipped += 1
            continue
        try:
            summary.reports.append(residual(equation, z, k, settings))
        except PelleisError as exc:
            summary.failures.append((z, exc))
    if not (summary.reports or summary.failures):
        raise EmptyGrid(
            f"no testable points for {equation.value} on the given grid")
    return summary
