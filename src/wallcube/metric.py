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


def _bfs(nbrs, s, levels):
    """Distances from s when every edge has weight 1; levels[k] is the one
    float k, shared by every row and extended as needed."""
    d = [INF] * len(nbrs)
    d[s] = levels[0]
    frontier = [s]
    k = 0
    while frontier:
        k += 1
        if k == len(levels):
            levels.append(float(k))
        dk = levels[k]
        new = []
        for u in frontier:
            for v, _w in nbrs[u]:
                if d[v] == INF:
                    d[v] = dk
                    new.append(v)
        frontier = new
    return d


class Metric:
    """Symmetric distance table (rows of floats), optionally backed by a
    graph."""

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
        self.dist = dist
        self.n = n
        # edges: list of (i, j, weight) when the metric came from a graph
        self.edges = list(edges) if edges is not None else None
        self._adj = None
        self._balls = {}  # radius -> per-point ball masks, filled on demand

    @classmethod
    def from_edges(cls, n, edges):
        """Path metric of a weighted graph on n vertices; edges = (i, j, w).
        Unreachable pairs are at distance inf.  When every weight is 1 the
        rows come from breadth-first search and equal distances share one
        float object; otherwise from Dijkstra."""
        nbrs = [[] for _ in range(n)]
        for i, j, w in edges:
            if not w >= 0:
                raise WallcubeError(f"edge ({i}, {j}) has negative weight {w}")
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        if all(w == 1 for _i, _j, w in edges):
            levels = [0.0]
            dist = [_bfs(nbrs, s, levels) for s in range(n)]
        else:
            dist = [_dijkstra(nbrs, s) for s in range(n)]
        return cls(dist, edges=edges)

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

    def ball(self, mask, r):
        """Bitmask of points within distance r of the set `mask`."""
        near = self._balls.get(r)
        if near is None:
            near = self._balls[r] = [None] * self.n
        out = 0
        for i in bits(mask):
            if near[i] is None:
                near[i] = sum(1 << j for j, d in enumerate(self.dist[i])
                              if d <= r)
            out |= near[i]
        return out

    def diam(self, mask):
        """Diameter of a point set; None when empty."""
        idx = bits(mask)
        if not idx:
            return None
        return max(self.dist[i][j] for i in idx for j in idx)

    def dist_sets(self, mask_a, mask_b):
        """min distance between two point sets; inf when either is empty."""
        a, b = bits(mask_a), bits(mask_b)
        if not a or not b:
            return INF
        return min(self.dist[i][j] for i in a for j in b)

    def frontier(self, mask):
        """Points of `mask` adjacent (in the metric graph) to its complement."""
        adj = self.adjacency()
        return sum(1 << i for i in bits(mask) if adj[i] & ~mask)

    def diameter(self):
        return max(max(row) for row in self.dist) if self.n else 0.0
