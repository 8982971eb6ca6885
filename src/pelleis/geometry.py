"""Axis-aligned rectangles in the complex plane."""

import sys
from collections import namedtuple
from collections.abc import Iterator

from .errors import InvalidRegion, require_int, shown

_MAX_FLOAT = sys.float_info.max
MAX_CELLS = 1 << 18  # largest lattice nx * ny, 512 x 512


class Rect(namedtuple("Rect", "x0 y0 x1 y1")):
    """Closed rectangle [x0, x1] x [y0, y1] with real corners and strictly
    positive sides, all within double range."""

    __slots__ = ()

    def __new__(cls, x0, y0, x1, y1):
        corners = (x0, y0, x1, y1)
        if not all(type(c) is float or type(c) is int for c in corners):
            import numbers  # only for a corner not a plain float or int
            if not all(isinstance(c, numbers.Real) for c in corners):
                raise InvalidRegion(f"non-real corner in {shown(corners)}")
        # Compared, not converted to float, so that an int beyond double
        # range is refused as well.
        if not all(-_MAX_FLOAT <= c <= _MAX_FLOAT for c in corners):
            raise InvalidRegion(f"non-finite corner in {shown(corners)}")
        if x1 <= x0 or y1 <= y0:
            raise InvalidRegion(
                f"rectangle sides must be positive: {shown(corners)}")
        if not (x1 - x0 <= _MAX_FLOAT and y1 - y0 <= _MAX_FLOAT):
            raise InvalidRegion(f"rectangle sides overflow: {shown(corners)}")
        return super().__new__(cls, x0, y0, x1, y1)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)

    def contains(self, x, y) -> bool:
        # Exact when x, y are Fractions: comparisons against float bounds
        # are performed in rational arithmetic by Python.
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def cell_centers(self, nx: int, ny: int) -> Iterator[complex]:
        """Centers of an nx-by-ny lattice of equal cells, row-major (y outer,
        both coordinates ascending), at most MAX_CELLS of them."""
        require_int("nx", nx, 1)
        require_int("ny", ny, 1)
        # Checked before the sides are divided, which overflows for an nx
        # or ny beyond double range.
        if nx * ny > MAX_CELLS:
            raise ValueError(f"grid must have at most {MAX_CELLS} cells, "
                             f"got {shown(nx, format)} x {shown(ny, format)}")
        dx = (self.x1 - self.x0) / nx
        dy = (self.y1 - self.y0) / ny
        for iy in range(ny):
            y = self.y0 + (iy + 0.5) * dy
            for ix in range(nx):
                yield complex(self.x0 + (ix + 0.5) * dx, y)

    @classmethod
    def parse(cls, text: str) -> "Rect":
        parts = text.split(",")
        if len(parts) != 4:
            raise InvalidRegion(f"expected X0,Y0,X1,Y1 got {text!r}")
        try:
            x0, y0, x1, y1 = (float(p) for p in parts)
        except ValueError as exc:
            raise InvalidRegion(f"bad rectangle {text!r}: {exc}") from None
        return cls(x0, y0, x1, y1)
