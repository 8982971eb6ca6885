"""Exception types shared across the package, and its argument rules."""


class PelleisError(Exception):
    """Base class for all library-specific errors."""


def shown(value, show=repr) -> str:
    """show(value) for a refusal message: repr, or format where the message
    formats the value as str.  Text beyond Python's int-to-string limit (an
    int of more than 4,300 digits, or a Fraction holding one) is replaced by
    the type and size, and a tuple is shown item by item, so that the
    refusal keeps its own type and message."""
    try:
        return show(value)
    except ValueError:
        if type(value) is tuple:
            return f"({', '.join(shown(v) for v in value)})"
        if isinstance(value, int):
            return f"<{type(value).__name__} of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to show>"


def require_int(name: str, value, low: int | None = None,
                high: int | None = None) -> None:
    """Refuse anything but an int (a bool is no integer), and an int below
    low or above high where they are given, with a ValueError that names
    the argument."""
    if value.__class__ is not int and (isinstance(value, bool)
                                       or not isinstance(value, int)):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if low is not None and value < low:
        raise ValueError(
            f"{name} must be an integer >= {low}, got {shown(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {shown(value)}")


def require_type(name: str, value, cls: type) -> None:
    """Refuse anything but an instance of cls with a ValueError that names
    the argument."""
    if not isinstance(value, cls):
        raise ValueError(
            f"{name} must be of type {cls.__name__}, got {shown(value)}")


class IndexCapExceeded(PelleisError):
    """Requested sequence index (or the argument named by name, such as
    j_cap) lies beyond its cap."""

    def __init__(self, index: int, cap: int, name: str = "index"):
        super().__init__(f"{name} {shown(index, format)} exceeds cap {cap}")
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
    """No tail bound certifies the point: it is within POLE_GUARD of
    1 +/- sqrt(2), or a sum or verify's prefactor left double range."""

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
