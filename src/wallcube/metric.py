"""Optional metric attached to a ground set, and the bitmask graph helpers.

A metric is either given as an explicit symmetric distance table or as a
weighted graph whose path metric is taken (shortest paths by breadth-first
search when every weight is 1, by Dijkstra otherwise).  Set arguments are
bitmasks over the point ordering, matching the rest of the library; so are
the graphs of `max_cliques` and `components`, given as a list of neighbour
bitmasks.
"""

import math
from heapq import heappop, heappush

from .errors import StateSpaceCap, WallcubeError

INF = float("inf")
# search states of one `max_cliques` call; a graph on n vertices can have
# 3^(n/3) maximal cliques (Moon–Moser)
MAX_CLIQUE_STATES = 1 << 18


def bits(mask):
    """Indices of set bits in an int bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def compress(mask, onto):
    """The bits of `mask` inside `onto`, renumbered 0, 1, ... in the order
    of `onto`'s bits: a subset's mask in the induced point ordering."""
    out = 0
    for k, i in enumerate(bits(onto)):
        if mask >> i & 1:
            out |= 1 << k
    return out


def max_cliques(adj):
    """Maximal cliques, as bitmasks, of the graph whose vertex i has
    neighbour bitmask adj[i] (no self-loops); [] for the empty graph.

    Bron–Kerbosch with Tomita pivoting: at each state (R, P, X) only the
    candidates outside the neighbourhood of a pivot u in P ∪ X maximising
    |P ∩ N(u)| are branched on, so every maximal clique is reported once.
    StateSpaceCap past MAX_CLIQUE_STATES states.
    """
    out = []
    stack = [(0, (1 << len(adj)) - 1, 0)] if adj else []
    states = 0
    while stack:
        states += 1
        if states > MAX_CLIQUE_STATES:
            raise StateSpaceCap(f"clique search exceeds cap "
                                f"{MAX_CLIQUE_STATES} states")
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        u = max(bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in bits(p & ~adj[u]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return out


def components(adj, mask):
    """Connected components, as bitmasks in order of their lowest vertex, of
    the subgraph induced on `mask` of the graph with neighbour masks adj."""
    out = []
    while mask:
        comp = new = mask & -mask
        while new:
            reach = 0
            for i in bits(new):
                reach |= adj[i]
            new = reach & mask & ~comp
            comp |= new
        out.append(comp)
        mask &= ~comp
    return out


def _close(a, b):
    """numpy `allclose`'s test for one pair; an infinity equals only itself."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= 1e-8 + 1e-5 * abs(b)


def _dijkstra(nbrs, s):
    """Distances from s in the graph with weighted neighbour lists nbrs."""
    d = [INF] * len(nbrs)
    d[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        du, u = heappop(heap)
        if du > d[u]:
            continue
        for v, w in nbrs[u]:
            dv = du + w
            if dv < d[v]:
                d[v] = dv
                heappush(heap, (dv, v))
    return d


class Metric:
    """Symmetric distance table (rows of floats), optionally backed by a
    graph.

    A unit-weight graph keeps only its neighbour masks: `rings` expands
    them breadth first, one ring per distance, and the table is built
    from the rings on first use of `dist`.  Per-point radius layers are
    not stored: a Python int is as wide as its highest bit, so they would
    cost about n·diam·n/8 bytes.
    """

    def __init__(self, dist, edges=None):
        dist = [list(map(float, row)) for row in dist]
        n = len(dist)
        if any(len(row) != n for row in dist):
            raise WallcubeError("metric table must be square")
        cols = [list(col) for col in zip(*dist)]
        if cols != dist and not all(_close(a, b) for row, col in zip(dist, cols)
                                    for a, b in zip(row, col)):
            raise WallcubeError("metric table must be symmetric")
        if any(dist[i][i] != 0 for i in range(n)):
            raise WallcubeError("metric table must have zero diagonal")
        # every entry >= 0: min is exact when no entry is NaN, and a NaN
        # entry makes the sum NaN
        total = sum(map(sum, dist))
        if not (min(map(min, dist), default=0.0) >= 0 and total == total):
            raise WallcubeError("metric table must be nonnegative")
        self._table = dist
        self.n = n
        # edges: list of (i, j, weight) when the metric came from a graph
        self.edges = list(edges) if edges is not None else None
        self._adj = None
        # levels[k] is the one float k of a unit-weight metric, shared by
        # every distance it reports; None for a table metric
        self._levels = None

    @classmethod
    def from_edges(cls, n, edges):
        """Path metric of a weighted graph on n vertices; edges = (i, j, w).
        Unreachable pairs are at distance inf.  When every weight is 1 only
        the neighbour masks are kept, and equal distances share one float
        object; otherwise the table comes from Dijkstra."""
        for i, j, w in edges:
            if not w >= 0:
                raise WallcubeError(f"edge ({i}, {j}) has negative weight {w}")
        if any(w != 1 for _i, _j, w in edges):
            nbrs = [[] for _ in range(n)]
            for i, j, w in edges:
                nbrs[i].append((j, w))
                nbrs[j].append((i, w))
            return cls([_dijkstra(nbrs, s) for s in range(n)], edges=edges)
        self = cls.__new__(cls)
        self.n, self.edges = n, list(edges)
        self._table, self._adj, self._levels = None, None, [0.0]
        return self

    @property
    def dist(self):
        """The distance table; a unit-weight metric builds it from its
        rings on first use."""
        if self._table is None:
            table = []
            for s in range(self.n):
                row = [INF] * self.n
                for d, ring in self.rings(1 << s):
                    for j in bits(ring):
                        row[j] = d
                table.append(row)
            self._table = table
        return self._table

    def d(self, i, j):
        return self.dist[i][j]

    def adjacency(self):
        """Neighbour bitmasks of the metric graph.

        When no graph was supplied the unit-distance graph is used (pairs at
        the minimum positive distance), which is the documented fallback for
        frontier computations.
        """
        if self._adj is None:
            adj = [0] * self.n
            if self.edges is not None:
                pairs = [(i, j) for i, j, _w in self.edges]
            else:
                unit = min((d for row in self.dist for d in row
                            if 0 < d < INF), default=None)
                pairs = [(i, j) for i in range(self.n)
                         for j in range(i + 1, self.n)
                         if self.dist[i][j] == unit]
            for i, j in pairs:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            self._adj = adj
        return self._adj

    def rings(self, mask, r=INF):
        """(d, ring) for each distance d <= r at which points lie from the
        set `mask`, nearest first: ring is the mask of the points at
        distance d, and a last ring at inf holds the points unreachable
        from the set.  Nothing for the empty set."""
        if not mask:
            return
        if self._levels is None:
            near = None
            for i in bits(mask):
                row = self._table[i]
                near = row if near is None else list(map(min, near, row))
            by = {}
            for p, d in enumerate(near):
                if d <= r:
                    by[d] = by.get(d, 0) | 1 << p
            yield from sorted(by.items())
            return
        adj, levels = self.adjacency(), self._levels
        seen = ring = mask
        k = 0
        while ring:
            if k == len(levels):
                levels.append(float(k))
            if not levels[k] <= r:
                return
            yield levels[k], ring
            reach = 0
            for i in bits(ring):
                reach |= adj[i]
            ring = reach & ~seen
            seen |= ring
            k += 1
        rest = ((1 << self.n) - 1) & ~seen
        if rest and INF <= r:
            yield INF, rest

    def ball(self, mask, r):
        """Bitmask of points within distance r of the set `mask`."""
        out = 0
        for _d, ring in self.rings(mask, r):
            out |= ring
        return out

    def diam(self, mask):
        """Diameter of a point set; None when empty."""
        worst = None
        for i in bits(mask):
            rest = mask
            for d, ring in self.rings(1 << i):
                rest &= ~ring
                if not rest:
                    break
            if worst is None or d > worst:
                worst = d
        return worst

    def dist_sets(self, mask_a, mask_b):
        """min distance between two point sets; inf when either is empty."""
        if mask_b:
            for d, ring in self.rings(mask_a):
                if ring & mask_b:
                    return d
        return INF

    def frontier(self, mask):
        """Points of `mask` adjacent (in the metric graph) to its complement."""
        adj = self.adjacency()
        return sum(1 << i for i in bits(mask) if adj[i] & ~mask)

    def diameter(self):
        """The largest distance, 0.0 on no points."""
        return self.diam((1 << self.n) - 1) or 0.0
