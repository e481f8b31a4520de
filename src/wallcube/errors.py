"""Exception types shared across the library.

Most verification-style operations return report objects instead of raising;
exceptions are reserved for contract violations (bad input, exceeded caps,
impossible states).
"""


class WallcubeError(Exception):
    """Base class for all library errors."""


class UnknownPoint(WallcubeError):
    pass


class IndexOutOfRange(WallcubeError):
    pass


class SameWall(WallcubeError):
    pass


class MetricRequired(WallcubeError):
    """Raised when a metric-dependent operation runs on a metric-less wallspace."""


class NotConnected(WallcubeError):
    def __init__(self, wall_index):
        self.wall_index = wall_index
        super().__init__(f"wall subgraph {wall_index} is not connected")


class WrongComponentCount(WallcubeError):
    def __init__(self, wall_index, count):
        self.wall_index = wall_index
        self.count = count
        super().__init__(
            f"removing wall subgraph {wall_index} leaves {count} components, expected 2"
        )


class DuplicateInducedPartition(WallcubeError):
    def __init__(self, index_pairs):
        self.index_pairs = list(index_pairs)
        super().__init__(
            f"distinct parent walls induce equal genuine partitions: {self.index_pairs}"
        )


class IncompleteOrientation(WallcubeError):
    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"orientation missing walls {self.missing}")


class InvalidZeroCube(WallcubeError):
    pass


class StateSpaceCap(WallcubeError):
    """Exceeded a configured vertex / state budget.  Hard error, never silent."""


class NotInComplex(WallcubeError):
    pass


class NotTransverse(WallcubeError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"walls {self.pair} are not transverse")


class OrientationConflict(WallcubeError):
    """Should be impossible for valid inputs; surfacing one means a bug."""


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


class UnknownGenerator(WallcubeError):
    pass


class ParseError(WallcubeError):
    pass
