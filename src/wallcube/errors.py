"""Exception types shared across the library.

Most verification-style operations return report objects instead of raising;
exceptions are reserved for contract violations (bad input, exceeded caps,
impossible states).
"""


class WallcubeError(Exception):
    """Base class for all library errors."""


class UnknownPoint(WallcubeError):
    pass


class MetricRequired(WallcubeError):
    """Raised when a metric-dependent operation runs on a metric-less wallspace."""


class DuplicateInducedPartition(WallcubeError):
    def __init__(self, index_pairs):
        self.index_pairs = list(index_pairs)
        super().__init__(
            f"distinct parent walls induce equal genuine partitions: {self.index_pairs}"
        )


class StateSpaceCap(WallcubeError):
    """Exceeded a configured vertex / state budget.  Hard error, never silent."""


class NotInComplex(WallcubeError):
    pass


class StuckLoop(WallcubeError):
    """A loop contraction found no applicable move; would falsify simple connectivity."""


class NotAHemiwallspace(WallcubeError):
    def __init__(self, wall_indices):
        self.wall_indices = sorted(wall_indices)
        super().__init__(
            f"walls {self.wall_indices} retain no halfspace; not a hemiwallspace"
        )


class EmptySubcomplex(WallcubeError):
    pass


class ParseError(WallcubeError):
    pass


class UnknownGenerator(ParseError):
    """A generator or H-wall rule name the library does not know."""
