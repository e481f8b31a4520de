"""Finite wallspaces.

A wallspace is a finite ground set X together with an indexed list of walls
{U, V} with U ∪ V = X (the halfspaces need not be disjoint).  Halfspaces are
stored as int bitmasks over the point ordering so that all the set tests the
library lives on are word-parallel.

Wall identity is the integer index, never the halfspace pair: two walls with
identical halfspaces but different indices are distinct walls.  The library
addresses a wall by its position in `Wallspace.walls`, and reads its index
only to name it in a report.

What is derived from a wallspace alone is built by its first reader and
kept through `Wallspace.derived`: the conflict tables, the validation
report, and the masks that betwixtness, canonical cubes and the
separation criteria read (`betwixt`, `open_sides`, `empty_sides`,
`wall_sides`), so `validate` transposes the carriers alone.
"""

import itertools
from collections import namedtuple

from .errors import MetricRequired, UnknownPoint, WallcubeError
from .metric import bits, flags, max_cliques, owners

# the one point cap: a sized generator stops before building a wallspace
# past it, and `groups.cayley_ball` before growing a ball past it; a
# Wallspace itself takes any number of points
MAX_POINTS = 4096


class Wall(namedtuple("Wall", "index left right")):
    """A wall: its index and its halfspaces U (`left`) and V (`right`), as
    point bitmasks."""

    __slots__ = ()

    def carrier(self):
        """U ∩ V."""
        return self.left & self.right

    def is_genuine_partition(self):
        return self.left & self.right == 0 and self.left != 0 and self.right != 0

    def is_vacuous(self, full):
        return {self.left, self.right} == {0, full}


class Wallspace:
    """Immutable wallspace: points, walls, optional metric."""

    def __init__(self, points, walls, metric=None):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise WallcubeError("point ids must be unique")
        if len(points) == 0:
            raise WallcubeError("ground set must be nonempty")
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
        self.metric = metric
        if metric is not None and metric.n != len(points):
            raise WallcubeError("metric size does not match point count")
        self._derived = {}

    # -- small helpers -------------------------------------------------

    def nwalls(self):
        return len(self.walls)

    def point_pos(self, p):
        try:
            return self.point_index[p]
        except KeyError:
            raise UnknownPoint(p) from None

    def names_of(self, mask):
        """The names of the points of a mask, in point order; UnknownPoint
        as in `point_mask` for a mask that is no point set."""
        return list(itertools.compress(
            self.points, flags(self.point_mask(mask), len(self.points))))

    def point_mask(self, X):
        """The point set X, given by names or as an int mask, as a mask:
        UnknownPoint for a name that is no point, and for a mask that is
        negative or sets a bit past the last point, naming those
        positions."""
        if not isinstance(X, int):
            m = 0
            for p in X:
                m |= 1 << self.point_pos(p)
            return m
        if X < 0:
            raise UnknownPoint(f"point mask {X} is negative: it sets every "
                               f"position from {len(self.points)} up")
        stray = X & ~self.full
        if stray:
            raise UnknownPoint(f"point mask sets positions {bits(stray)}, "
                               f"past the last point's {len(self.points) - 1}")
        return X

    def require_metric(self):
        if self.metric is None:
            raise MetricRequired("operation requires a metric")
        return self.metric

    def wall_indices(self):
        return [w.index for w in self.walls]

    def derived(self, build):
        """build(self), computed on first use and kept: sound because the
        points, the tuple of frozen Walls and the metric are fixed at
        construction, so `build` would compute the same value again."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]


class Report:
    """The result of a check: its keyword fields, read as attributes, and
    `to_dict`.  `cut` = (key, limit) names a list field that `to_dict`
    cuts to its first `limit` items, its length then under key + "_total".
    """

    __slots__ = ("_cut", "__dict__")

    def __init__(self, cut=None, **fields):
        self._cut = cut
        self.__dict__.update(fields)

    def to_dict(self):
        d = self.__dict__.copy()
        if self._cut is not None:
            key, limit = self._cut
            if len(d[key]) > limit:
                d[key + "_total"] = len(d[key])
                d[key] = d[key][:limit]
        return d


def validate(ws):
    """Check the wallspace axioms; returns a Report (ok, errors, infos,
    betwixt_counts).

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
    betwixt_counts = dict(zip(ws.points,
                              map(int.bit_count, ws.derived(betwixt))))
    return Report(ok=not errors, errors=errors, infos=infos,
                  betwixt_counts=betwixt_counts)


def betwixt(ws):
    """Each point's betwixting walls (Haglund–Paulin), by point position:
    the mask of the walls whose carrier U ∩ V holds it, one `owners`
    transpose of the carriers.  Read through `ws.derived`."""
    return owners([w.carrier() for w in ws.walls], len(ws.points))


def open_sides(ws):
    """Each point's principal orientation on open sides (Haglund–Paulin;
    Nica), by point position: the pair (sl, sr) of the walls with the
    point in their open left U ∖ V, resp. open right V ∖ U, side, two
    `owners` transposes.  Read through `ws.derived`."""
    n = len(ws.points)
    return list(zip(owners([w.left & ~w.right for w in ws.walls], n),
                    owners([w.right & ~w.left for w in ws.walls], n)))


def empty_sides(ws):
    """The walls with U = ∅, resp. V = ∅, as a pair of masks.  Read
    through `ws.derived`."""
    return (sum(1 << pos for pos, w in enumerate(ws.walls) if not w.left),
            sum(1 << pos for pos, w in enumerate(ws.walls) if not w.right))


def sides(ws, mask):
    """The pair (L, R) of a point set: the walls with all of it in their
    open left, resp. right, side.  The AND of `open_sides` over the set,
    so every wall for the empty set."""
    point = ws.derived(open_sides)
    left = right = (1 << len(ws.walls)) - 1
    for x in bits(mask):
        pl, pr = point[x]
        left &= pl
        right &= pr
    return left, right


def wall_sides(ws):
    """Each wall's pair (L, R), by position: the walls with one of its
    closed halfspaces in their open left, resp. right, side, the OR of
    the pairs of U and V.  Read through `ws.derived`."""
    out = []
    for w in ws.walls:
        (l1, r1), (l2, r2) = sides(ws, w.left), sides(ws, w.right)
        out.append((l1 | l2, r1 | r2))
    return out


def separating(s, t):
    """The walls with the sets of `s` and `t` in distinct open sides, from
    their pairs (L, R) (`open_sides`, `sides`, `wall_sides`).  For walls,
    the OR over their four pairs of closed halfspaces factors into this
    one by distributivity."""
    return s[0] & t[1] | s[1] & t[0]


def separation_count(ws, x, y):
    """#(x,y): number of walls whose open halfspaces separate x from y."""
    point = ws.derived(open_sides)
    return separating(point[ws.point_pos(x)],
                      point[ws.point_pos(y)]).bit_count()


def conflict_tables(ws):
    """conf[s][t][i] = bitmask of walls j whose side-t halfspace is disjoint
    from the side-s halfspace of wall i (side 0 left, 1 right).

    j = i is included, so an empty halfspace conflicts with itself, which is
    exactly the rule that bans orienting a vacuous wall to its empty side.
    Read the other way, j ≠ i is transverse to i, all four halfspace
    intersections nonempty, iff j is in none of i's four masks (see
    `max_transverse_families`).  Built once per wallspace, through
    `ws.derived`.
    """
    halves = ([w.left for w in ws.walls], [w.right for w in ws.walls])
    return [[[sum(1 << j for j, h2 in enumerate(halves[t]) if not h & h2)
              for h in halves[s]] for t in range(2)] for s in range(2)]


def max_transverse_families(ws):
    """Maximal cliques of the transversality graph on nonvacuous walls.

    The graph is read off the conflict tables: j ≠ i is adjacent to i iff
    j is in none of i's four conflict masks.  A vacuous wall's empty side
    conflicts with every wall, so it is a lone clique, dropped by one mask
    test.

    Returns (families, k) where families is a sorted list of sorted tuples of
    wall indices and k is the max clique size (the k-plane constant).
    """
    (c00, c01), (c10, c11) = ws.derived(conflict_tables)
    full = (1 << len(ws.walls)) - 1
    adj = [full & ~(a | b | c | d | 1 << i)
           for i, (a, b, c, d) in enumerate(zip(c00, c01, c10, c11))]
    vacuous = sum(1 << i for i, w in enumerate(ws.walls)
                  if w.is_vacuous(ws.full))
    index = [w.index for w in ws.walls]
    # cliques are sets of wall positions; report sorted wall indices
    fams = sorted(tuple(sorted(index[i] for i in bits(c)))
                  for c in max_cliques(adj) if not c & vacuous)
    k = max((len(f) for f in fams), default=0)
    return fams, k
