"""Finite wallspaces.

A wallspace is a finite ground set X together with an indexed list of walls
{U, V} with U ∪ V = X (the halfspaces need not be disjoint).  Halfspaces are
stored as int bitmasks over the point ordering so that all the set tests the
library lives on are word-parallel.

Wall identity is the integer index, never the halfspace pair: two walls with
identical halfspaces but different indices are distinct walls.
"""

from dataclasses import dataclass, field

from .errors import (
    DuplicateInducedPartition,
    IndexOutOfRange,
    MetricRequired,
    NotConnected,
    SameWall,
    UnknownPoint,
    WallcubeError,
    WrongComponentCount,
)
from .metric import Metric, bits, components, compress, max_cliques

DEFAULT_MAX_POINTS = 64
DEFAULT_MAX_WALLS = 64


@dataclass(frozen=True)
class Wall:
    index: int
    left: int   # bitmask U
    right: int  # bitmask V

    def halfspaces(self):
        return (self.left, self.right)

    def carrier(self):
        """U ∩ V."""
        return self.left & self.right

    def open_left(self):
        return self.left & ~self.right

    def open_right(self):
        return self.right & ~self.left

    def is_genuine_partition(self):
        return self.left & self.right == 0 and self.left != 0 and self.right != 0

    def is_vacuous(self, full):
        return {self.left, self.right} == {0, full}


class Wallspace:
    """Immutable wallspace: points, walls, optional metric."""

    def __init__(self, points, walls, metric=None,
                 max_points=DEFAULT_MAX_POINTS, max_walls=DEFAULT_MAX_WALLS):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise WallcubeError("point ids must be unique")
        if len(points) == 0:
            raise WallcubeError("ground set must be nonempty")
        if len(points) > max_points:
            raise WallcubeError(
                f"{len(points)} points exceeds cap {max_points}")
        if len(walls) > max_walls:
            raise WallcubeError(f"{len(walls)} walls exceeds cap {max_walls}")
        self.points = points
        self.point_index = {p: i for i, p in enumerate(points)}
        self.full = (1 << len(points)) - 1
        ws_walls = []
        seen = set()
        for w in walls:
            if not isinstance(w, Wall):
                w = Wall(*w)
            if w.index in seen:
                raise WallcubeError(f"duplicate wall index {w.index}")
            seen.add(w.index)
            if (w.left | w.right) & ~self.full:
                raise WallcubeError(f"wall {w.index} references unknown points")
            ws_walls.append(w)
        self.walls = tuple(ws_walls)
        self.wall_pos = {w.index: i for i, w in enumerate(self.walls)}
        self.metric = metric
        if metric is not None and metric.n != len(points):
            raise WallcubeError("metric size does not match point count")
        self.max_points = max_points
        self.max_walls = max_walls
        # OrientationEngine (conflict tables) built by `complex` on first use;
        # it stays valid because the walls are a tuple of frozen Walls
        self._engine = None

    # -- small helpers -------------------------------------------------

    def nwalls(self):
        return len(self.walls)

    def point_bit(self, p):
        try:
            return 1 << self.point_index[p]
        except KeyError:
            raise UnknownPoint(p) from None

    def mask_of(self, names):
        m = 0
        for p in names:
            m |= self.point_bit(p)
        return m

    def names_of(self, mask):
        return [self.points[i] for i in bits(mask)]

    def wall(self, index):
        try:
            return self.walls[self.wall_pos[index]]
        except KeyError:
            raise IndexOutOfRange(index) from None

    def require_metric(self):
        if self.metric is None:
            raise MetricRequired("operation requires a metric")
        return self.metric

    def wall_indices(self):
        return [w.index for w in self.walls]

    def replace(self, **kw):
        args = dict(points=self.points, walls=self.walls, metric=self.metric,
                    max_points=self.max_points, max_walls=self.max_walls)
        args.update(kw)
        return Wallspace(**args)


@dataclass
class ValidationReport:
    ok: bool
    errors: list = field(default_factory=list)
    infos: list = field(default_factory=list)
    betwixt_counts: dict = field(default_factory=dict)

    def to_dict(self):
        return {"ok": self.ok, "errors": self.errors, "infos": self.infos,
                "betwixt_counts": self.betwixt_counts}


def validate(ws):
    """Check the wallspace axioms; returns a ValidationReport.

    Errors: coverage failures, duplicate genuine partitions.
    Infos: duplicate non-partition walls, vacuous walls.
    """
    errors = []
    infos = []
    for w in ws.walls:
        if w.left | w.right != ws.full:
            missing = ws.names_of(ws.full & ~(w.left | w.right))
            errors.append({"kind": "CoverageViolation", "wall": w.index,
                           "missing": missing})
    by_pair = {}
    for w in ws.walls:
        key = frozenset((w.left, w.right))
        by_pair.setdefault(key, []).append(w)
    for group in by_pair.values():
        if len(group) < 2:
            continue
        idxs = sorted(w.index for w in group)
        if group[0].is_genuine_partition():
            errors.append({"kind": "DuplicateGenuinePartition", "walls": idxs})
        else:
            infos.append({"kind": "DuplicateWalls", "walls": idxs})
    for w in ws.walls:
        if w.is_vacuous(ws.full):
            infos.append({"kind": "VacuousWall", "wall": w.index})
        elif w.is_genuine_partition():
            infos.append({"kind": "GenuinePartition", "wall": w.index})
    betwixt_counts = {p: len(betwixt_set(ws, p)) for p in ws.points}
    return ValidationReport(ok=not errors, errors=errors, infos=infos,
                            betwixt_counts=betwixt_counts)


def separation_count(ws, x, y):
    """#(x,y): number of walls whose open halfspaces separate x from y."""
    bx, by = ws.point_bit(x), ws.point_bit(y)
    n = 0
    for w in ws.walls:
        ol, orr = w.open_left(), w.open_right()
        if (ol & bx and orr & by) or (ol & by and orr & bx):
            n += 1
    return n


def betwixt_set(ws, x):
    """Indices of walls betwixting x (x in both halfspaces)."""
    b = ws.point_bit(x)
    return {w.index for w in ws.walls if w.left & b and w.right & b}


def transverse(ws, i, j):
    """All four halfspace intersections nonempty."""
    if i == j:
        raise SameWall(i)
    wi, wj = ws.wall(i), ws.wall(j)
    return bool(wi.left & wj.left and wi.left & wj.right
                and wi.right & wj.left and wi.right & wj.right)


def wall_separates_walls(ws, k, i, j):
    """Wall k separates walls i and j: closed halfspaces of i and of j lie
    in distinct open halfspaces of k."""
    if k in (i, j):
        raise IndexOutOfRange(f"separating wall {k} must differ from {i}, {j}")
    wk, wi, wj = ws.wall(k), ws.wall(i), ws.wall(j)
    ol, orr = wk.open_left(), wk.open_right()
    for a in wi.halfspaces():
        for b in wj.halfspaces():
            if (a & ~ol == 0 and b & ~orr == 0) or (a & ~orr == 0 and b & ~ol == 0):
                return True
    return False


def osculate(ws, i, j):
    """Not transverse and no third wall separates them."""
    if transverse(ws, i, j):
        return False
    for w in ws.walls:
        if w.index not in (i, j) and wall_separates_walls(ws, w.index, i, j):
            return False
    return True


def max_transverse_families(ws):
    """Maximal cliques of the transversality graph on nonvacuous walls.

    Returns (families, k) where families is a sorted list of sorted tuples of
    wall indices and k is the max clique size (the k-plane constant).
    """
    idxs = [w.index for w in ws.walls if not w.is_vacuous(ws.full)]
    adj = [0] * len(idxs)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if transverse(ws, idxs[a], idxs[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    # cliques are sets of wall positions; report sorted wall indices
    fams = sorted(tuple(sorted(idxs[a] for a in bits(c)))
                  for c in max_cliques(adj))
    k = max((len(f) for f in fams), default=0)
    return fams, k


def from_geometric_walls(points, edges, wall_subsets,
                         max_points=DEFAULT_MAX_POINTS,
                         max_walls=DEFAULT_MAX_WALLS):
    """Wallspace of a geometric wallspace on a connected graph.

    Each wall is a vertex subset whose induced subgraph is connected and whose
    removal leaves exactly two components U, V; the halfspaces are W ∪ U and
    W ∪ V.  The graph's path metric is attached.
    """
    pidx = {p: i for i, p in enumerate(points)}
    norm_edges = []
    for e in edges:
        p, q, w = e if len(e) == 3 else (*e, 1)
        norm_edges.append((pidx[p], pidx[q], w))
    metric = Metric.from_edges(len(points), norm_edges)
    adj = metric.adjacency()
    full = (1 << len(points)) - 1
    if len(components(adj, full)) != 1:
        raise WallcubeError("ambient graph is not connected")
    walls = []
    for widx, subset in enumerate(wall_subsets):
        wmask = sum(1 << pidx[p] for p in set(subset))
        if len(components(adj, wmask)) != 1:
            raise NotConnected(widx)
        comps = components(adj, full & ~wmask)
        if len(comps) != 2:
            raise WrongComponentCount(widx, len(comps))
        walls.append(Wall(widx, wmask | comps[0], wmask | comps[1]))
    return Wallspace(points, walls, metric=metric,
                     max_points=max_points, max_walls=max_walls)


def subwallspace(ws, Y):
    """Induced subwallspace on the point subset Y (names or bitmask).

    Induced walls are (U ∩ Y, V ∩ Y); induced vacuous walls {Y, ∅} are
    dropped.  Raises DuplicateInducedPartition when two distinct parent walls
    induce the same nonvacuous genuine partition of Y (the forbidden
    configuration).  The metric, when present, is the ambient metric
    restricted to Y.
    """
    ymask = Y if isinstance(Y, int) else ws.mask_of(Y)
    if ymask == 0:
        raise WallcubeError("Y must be nonempty")
    ypts = [p for p in ws.points if ws.point_bit(p) & ymask]
    yfull = (1 << len(ypts)) - 1
    walls = []
    for w in ws.walls:
        u, v = compress(w.left, ymask), compress(w.right, ymask)
        if {u, v} == {0, yfull}:
            continue  # induced vacuous wall dropped
        walls.append(Wall(w.index, u, v))
    partitions = {}
    dups = []
    for w in walls:
        if w.left & w.right == 0 and w.left and w.right:
            key = frozenset((w.left, w.right))
            if key in partitions:
                dups.append((partitions[key], w.index))
            else:
                partitions[key] = w.index
    if dups:
        raise DuplicateInducedPartition(dups)
    metric = None
    if ws.metric is not None:
        yidx = bits(ymask)
        metric = Metric([[ws.metric.dist[i][j] for j in yidx] for i in yidx])
    return Wallspace(ypts, walls, metric=metric,
                     max_points=ws.max_points, max_walls=ws.max_walls)
