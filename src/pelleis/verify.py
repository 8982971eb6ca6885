"""Numeric residuals of the functional equations on points and grids; a
grid checks its arguments once and maps each point once."""

import math
from collections import namedtuple

from .analysis import classify
from .equations import EquationId
from .errors import (DidNotConverge, EmptyGrid, PelleisError, ZeroArgument,
                     require_int, require_type)
from .evaluator import (DEFAULT_TARGET_TOL, _limit_distances, _modulus,
                        _require_tol, _Series)
from .evaluator import eval_series  # unused; perfbench wraps it
from .geometry import Rect

K_CAP = 8  # keeps |z|^(2k) within double range on the usual grids
_REL_FLOOR = 1e-300


ResidualReport = namedtuple(
    "ResidualReport", "point k lhs rhs abs_residual rel_residual "
                      "lhs_tail rhs_tail")


class GridSummary(namedtuple("GridSummary", "equation k reports failures "
                                             "points_skipped")):
    """A report per tested point, a (point, error) per failed point and the
    skipped count; the other counts and the worst point derive from them."""

    __slots__ = ()

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


def _pow_int(base: complex, n: int) -> complex:
    out = 1.0 + 0.0j
    for _ in range(n):
        out *= base
    return out


def _arguments(equation: EquationId, z: complex) -> tuple[complex, complex]:
    """(left-side argument, right-side argument) of the equation at z: the
    maps (a z + b)/(c z + d) of its row; one with d = 0 needs z != 0, and
    an argument whose modulus leaves double range is refused."""
    (a, b, c, d), (e, f, g, h), _, _ = equation.row
    if z == 0 and (d == 0 or h == 0):
        raise ZeroArgument(f"{equation.value} undefined at z = 0")
    lhs_z = (a * z + b) / (c * z + d)
    rhs_z = (e * z + f) / (g * z + h)
    if not (_modulus(lhs_z) < math.inf and _modulus(rhs_z) < math.inf):
        raise ZeroArgument(
            f"{equation.value} argument overflows at z = {z!r}")
    return lhs_z, rhs_z


_REFINE_ROUNDS = 2
_REFINE_TOL_FLOOR = 1e-250


def residual(equation: EquationId, z: complex, k: int,
             target_tol: float = DEFAULT_TARGET_TOL) -> ResidualReport:
    """Evaluate both sides of the equation at z for weight 2k.

    target_tol is treated relative to the side magnitudes: after a first
    pass, both sides are refined with the tolerance scaled down to
    max(|lhs|, |rhs|) * target_tol, so the relative residual reflects the
    identity rather than the flat truncation error.  Each side is one
    resumable window sum (evaluator._Series): a refinement round sums on
    from the window the previous tolerance stopped at, and gives the same
    bits as a fresh eval_series at the tighter tolerance.  Values come from
    extend, bounds and windows from the series' state, so no EvalResult is
    built.  Tail bounds stay certified throughout.  The prefactor z^(+-2k)
    is applied to the right side by repeated multiplication and scales the
    right tail accordingly; a right side that leaves double range raises
    DidNotConverge (tail bound inf).  Evaluation errors carry side="lhs"
    or side="rhs".  Both arguments should classify REGULAR; every term is
    re-guarded during summation.  verify_grid calls its core, _residual.
    """
    require_type("equation", equation, EquationId)
    _require_tol(target_tol)
    require_int("k", k, 1, K_CAP)
    z, _, _ = _limit_distances(z)  # refuses a modulus beyond double range
    lhs_z, rhs_z = _arguments(equation, z)
    return _residual(equation.row[2], z, k, lhs_z, rhs_z, target_tol)


def _residual(sign: int, z: complex, k: int, lhs_z: complex, rhs_z: complex,
              target_tol: float) -> ResidualReport:
    """residual on checked arguments, z mapped to lhs_z and rhs_z."""
    m = 2 * k
    if sign == 0:
        prefactor = 1.0 + 0.0j
    else:
        prefactor = _pow_int(z if sign > 0 else 1 / z, m)
    pref_mag = _modulus(prefactor)

    lhs_series = rhs_series = None
    lhs_tol = rhs_tol = target_tol
    for _ in range(_REFINE_ROUNDS + 1):
        side = "lhs"
        try:
            lhs_series = lhs_series or _Series(lhs_z, m)
            lhs = lhs_series.extend(lhs_tol)
            side = "rhs"
            rhs_series = rhs_series or _Series(rhs_z, m)
            rhs = prefactor * rhs_series.extend(rhs_tol)
        except PelleisError as exc:
            exc.side = side
            raise
        rhs_tail = pref_mag * rhs_series.bound
        if not (_modulus(rhs) < math.inf and math.isfinite(rhs_tail)):
            # The prefactor z^(+-2k) left double range.
            raise DidNotConverge(rhs_series.level, math.inf, point=rhs_z,
                                 side="rhs")
        scale = max(abs(lhs), abs(rhs))
        if (scale < _REFINE_TOL_FLOOR
                or lhs_series.bound + rhs_tail <= 4.0 * scale * target_tol):
            break
        # A tolerance looser than one a side already met leaves it as it is.
        lhs_tol = max(scale * target_tol, _REFINE_TOL_FLOOR)
        rhs_tol = max(scale * target_tol / max(pref_mag, 1e-300),
                      _REFINE_TOL_FLOOR)

    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(abs(lhs), abs(rhs), _REL_FLOOR)
    return ResidualReport(z, k, lhs, rhs, abs_res, rel_res,
                          lhs_series.bound, rhs_tail)


def verify_grid(equation: EquationId, region: Rect, nx: int, ny: int, k: int,
                target_tol: float = DEFAULT_TARGET_TOL) -> GridSummary:
    """Residuals at every cell center whose arguments both classify REGULAR.

    The arguments are checked once per grid, and each point is mapped once.
    Non-regular points (and z = 0, or a z whose 1/z overflows, where the
    equation needs 1/z) are skipped; evaluation failures at regular points
    are recorded as failures.  Raises EmptyGrid when every point was
    skipped, i.e. when no point was either tested or failed.
    """
    require_type("equation", equation, EquationId)
    require_type("region", region, Rect)
    _require_tol(target_tol)
    require_int("k", k, 1, K_CAP)
    sign = equation.row[2]
    reports: list[ResidualReport] = []
    failures: list[tuple[complex, PelleisError]] = []
    for z in region.cell_centers(nx, ny):
        try:
            lhs_z, rhs_z = _arguments(equation, z)
        except ZeroArgument:  # skipped, as is a point not REGULAR
            continue
        if classify(lhs_z).is_regular and classify(rhs_z).is_regular:
            try:
                reports.append(_residual(sign, z, k, lhs_z, rhs_z, target_tol))
            except PelleisError as exc:
                failures.append((z, exc))
    if not (reports or failures):
        raise EmptyGrid(
            f"no testable points for {equation.value} on the given grid")
    return GridSummary(equation, k, reports, failures,
                       nx * ny - len(reports) - len(failures))
