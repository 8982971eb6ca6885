"""Exception types shared across the package, and its argument rules."""


class PelleisError(Exception):
    """Base class for all library-specific errors."""


def require_int(name: str, value) -> None:
    """Refuse anything but an int (a bool is no integer) with a ValueError
    that names the argument."""
    if value.__class__ is not int and (isinstance(value, bool)
                                       or not isinstance(value, int)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_type(name: str, value, cls: type) -> None:
    """Refuse anything but an instance of cls with a ValueError that names
    the argument."""
    if not isinstance(value, cls):
        raise ValueError(
            f"{name} must be of type {cls.__name__}, got {value!r}")


class IndexCapExceeded(PelleisError):
    """Requested sequence index (or the argument named by name, such as
    j_cap) lies beyond its cap."""

    def __init__(self, index: int, cap: int, name: str = "index"):
        super().__init__(f"{name} {index} exceeds cap {cap}")
        self.index = index
        self.cap = cap


class InvalidRange(PelleisError):
    """Lower range bound exceeds the upper bound."""


class InvalidRegion(PelleisError):
    """Rectangle is degenerate or has non-finite corners or sides."""


class ZeroArgument(PelleisError):
    """Equation undefined at z: z = 0, or its 1/z or -1/z overflows."""


class EmptyGrid(PelleisError):
    """Every grid point was skipped; no residual was computed."""


class PoleProximity(PelleisError):
    """A term denominator Q_j z + Q_{j-1} vanishes (or nearly) at the point.

    The message is rendered from the current fields, so a side set after
    construction (as verify.residual does) shows up as a [lhs]/[rhs] tag.
    """

    def __init__(self, index: int, point: complex, side: str | None = None):
        super().__init__(index, point, side)
        self.index = index
        self.point = point
        self.side = side

    def __str__(self) -> str:
        return (f"term j={self.index} is singular near z={self.point!r}"
                f"{_side_tag(self.side)}")


class DidNotConverge(PelleisError):
    """Tail bound stayed above the target tolerance at the maximum window."""

    def __init__(self, half_width: int, tail_bound: float,
                 point: complex | None = None, side: str | None = None):
        super().__init__(half_width, tail_bound, point, side)
        self.half_width = half_width
        self.tail_bound = tail_bound
        self.point = point
        self.side = side

    def __str__(self) -> str:
        return (f"tail bound {self.tail_bound!r} above tolerance at "
                f"half-width {self.half_width} for z={self.point!r}"
                f"{_side_tag(self.side)}")


def _side_tag(side: str | None) -> str:
    return f" [{side}]" if side else ""
