"""Axis-aligned rectangles in the complex plane."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidRegion, require_int


@dataclass(frozen=True)
class Rect:
    """Closed rectangle [x0, x1] x [y0, y1] with real corners and strictly
    positive, finite sides."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        corners = (self.x0, self.y0, self.x1, self.y1)
        if not all(isinstance(c, numbers.Real) for c in corners):
            raise InvalidRegion(f"non-real corner in {corners}")
        if not all(math.isfinite(c) for c in corners):
            raise InvalidRegion(f"non-finite corner in {corners}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise InvalidRegion(f"rectangle sides must be positive: {corners}")
        if not (math.isfinite(self.x1 - self.x0)
                and math.isfinite(self.y1 - self.y0)):
            raise InvalidRegion(f"rectangle sides overflow: {corners}")

    def contains(self, x, y) -> bool:
        # Exact when x, y are Fractions: comparisons against float bounds
        # are performed in rational arithmetic by Python.
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def cell_centers(self, nx: int, ny: int) -> Iterator[complex]:
        """Centers of an nx-by-ny lattice of equal cells, row-major (y outer,
        both coordinates ascending)."""
        require_int("nx", nx)
        require_int("ny", ny)
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one cell per axis")
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
