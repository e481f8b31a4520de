"""Shared helpers: seeded random wallspaces and independent set-based oracles.

The oracles deliberately use plain python sets over point names, never the
library's bitmask machinery, so that every fast path is checked against an
independent reimplementation of the definitions.  The skeleton-completion
oracle takes the vertex masks the complex is built from, but completes them
with sets of `Cube` and a check of every face, not the library's int-mask
level scan, and the edge oracle tries every wall at every vertex, as does
`scan_up_masks`, which finds the up masks the 2-SAT search hands the
skeleton by a lookup per vertex and wall.  The maximal-cube, sub-complex
and NPC oracles read a complex through the `Cube` views that `all_cubes`
and `cubes` make of its cells, one per cell, and through its export
document; the export and adjacency oracles read the store directly, with
a sort per cube and a lookup per vertex and wall.
The canonical-cube oracle orients wall by wall toward the point and frees
its betwixting walls, and the flip search starts from that orientation.
The flip-search oracle for `build_dual` steps with `flippable`, the
one-wall flip test on the wallspace's conflict tables, which
`test_flippable_matches_validity` checks against the valid orientations,
but not with the 2-SAT search.  The loop-contraction,
H-wall, point-map, H-wall-system, action and decomposition oracles are
the library's earlier forms: every same-wall pair listed per pass, a
group product per H-member and point for each check, a translate per
ball element merged by halfspace pair, two translates per wall looked up
by halfspace pair, and every cube read through its `Cube` view.  The
induced-hemi oracle takes a neighbourhood per side and scans U*'s radii
one by one.
`OracleMetric` answers every metric query from the full table of
per-source breadth-first (or Dijkstra) rows, and the separation oracles
are the pair-by-pair scans that ran on it, item list and all; `diam`,
`dist_sets` and `wall_region` read set distances and wall regions off
any metric's table by their definitions.

The paper's definitions that no command runs live here too, for the
criteria and oracles that read them: the orientation helpers `chosen`,
`is_valid`, `flippable` and the pair order `pair_le`; `osculate`;
`from_geometric_walls`, whose walls `geom_path` writes down; and
`subwallspace`, the induced subwallspace that
`oracle_subspace_separation` separates in, built from the compressed
`induced_walls` (by `compress`), which also raise on a repeated genuine
partition of Y.  `subspace_separation` checks that repeat on U ∩ Y and
V ∩ Y in the ambient point ordering, so it shares no code with them.
The library addresses walls by position only, so the tests find a wall
by its index here, by a scan (`wall_position`, `wall_of`).
"""

import json
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from wallcube.complex import Cube, CubeComplex, canonical_cube
from wallcube.errors import (
    DuplicateInducedPartition,
    NotAHemiwallspace,
    NotInComplex,
    StuckLoop,
    WallcubeError,
)
from wallcube.groups import TRUNCATION_CAVEAT
from wallcube.hemi import induce_hemi
from wallcube.metric import INF, Metric, _dijkstra, bits, components
from wallcube.separation import (
    WALL_DISTANCE_NOTE,
    _largest_fraction_at_most,
    _report,
)
from wallcube.wallspace import (
    Report,
    Wall,
    Wallspace,
    conflict_tables,
    open_sides,
    separating,
    sides,
    wall_sides,
)


def random_wallspace(seed, max_points=8, max_walls=8, with_metric=True):
    """A random valid wallspace: coverage always holds, duplicate genuine
    partitions are avoided, a random connected unit-weight graph metric is
    attached when requested."""
    rng = random.Random(seed)
    npts = rng.randint(2, max_points)
    nwalls = rng.randint(1, max_walls)
    points = [f"p{i}" for i in range(npts)]
    full = (1 << npts) - 1
    walls = []
    seen_partitions = set()
    idx = 0
    tries = 0
    while len(walls) < nwalls and tries < 200:
        tries += 1
        u = rng.randint(1, full)
        v = (full & ~u) | (u & rng.randint(0, full))
        if v == 0:
            v = 1 << rng.randrange(npts)
        if rng.random() < 0.15:
            u = full  # some vacuous / wide walls
        if u & v == 0:
            key = frozenset((u, v))
            if key in seen_partitions:
                continue
            seen_partitions.add(key)
        walls.append(Wall(idx, u, v))
        idx += 1
    metric = random_metric(rng, npts) if with_metric else None
    return Wallspace(points, walls, metric=metric)


def random_metric(rng, npts):
    """Random connected unit-weight graph: a random tree plus extra edges."""
    edges = set()
    for i in range(1, npts):
        edges.add((rng.randrange(i), i))
    extra = rng.randint(0, npts)
    for _ in range(extra):
        a, b = rng.randrange(npts), rng.randrange(npts)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Metric.from_edges(npts, [(a, b, 1) for a, b in edges])


# -- the paper's definitions ------------------------------------------


def chosen(ws, m, i):
    """The chosen halfspace, a point mask, of wall position i under
    orientation m."""
    w = ws.walls[i]
    return w.right if (m >> i) & 1 else w.left


def is_valid(ws, m):
    """Is orientation m a 0-cube: no chosen side disjoint from another, or
    empty?  One test per wall against its conflict masks."""
    conf = ws.derived(conflict_tables)
    for i in range(len(ws.walls)):
        s = (m >> i) & 1
        if (conf[s][0][i] & ~m) | (conf[s][1][i] & m):
            return False
    return True


def flippable(ws, m, i):
    """Does the valid orientation m stay valid after flipping position i?"""
    conf = ws.derived(conflict_tables)
    m2 = m ^ (1 << i)
    s = (m2 >> i) & 1
    return not (conf[s][0][i] & ~m2) | (conf[s][1][i] & m2)


def pair_le(a, b):
    """(U,V) ≼ (U',V') iff U ⊊ U', or U = U' and V ⊇ V'."""
    (u, v), (u2, v2) = a, b
    if u != u2 and u & ~u2 == 0:
        return True
    return u == u2 and v2 & ~v == 0


def osculate(ws, i, j):
    """Walls i and j (indices) are not transverse and no third wall
    separates them."""
    a, b = wall_position(ws, i), wall_position(ws, j)
    wall = ws.derived(wall_sides)
    return not oracle_transverse(ws, i, j) and \
        not separating(wall[a], wall[b]) & ~(1 << a | 1 << b)


def from_geometric_walls(points, edges, wall_subsets):
    """Wallspace of a geometric wallspace on a connected graph.

    Each wall is a vertex subset whose induced subgraph is connected and
    whose removal leaves exactly two components U, V; the halfspaces are
    W ∪ U and W ∪ V.  The graph's path metric is attached.
    """
    pidx = {p: i for i, p in enumerate(points)}
    norm_edges = []
    for e in edges:
        p, q, w = e if len(e) == 3 else (*e, 1)
        norm_edges.append((pidx[p], pidx[q], w))
    metric = Metric.from_edges(len(points), norm_edges)
    adj = metric.adjacency()
    full = (1 << len(points)) - 1
    assert len(components(adj, full)) == 1, "ambient graph is not connected"
    walls = []
    for widx, subset in enumerate(wall_subsets):
        wmask = sum(1 << pidx[p] for p in set(subset))
        assert len(components(adj, wmask)) == 1, \
            f"wall subgraph {widx} is not connected"
        comps = components(adj, full & ~wmask)
        assert len(comps) == 2, \
            f"removing wall subgraph {widx} leaves {len(comps)} components"
        walls.append(Wall(widx, wmask | comps[0], wmask | comps[1]))
    return Wallspace(points, walls, metric=metric)


def compress(mask, onto):
    """The bits of `mask` inside `onto`, renumbered 0, 1, ... in the order
    of `onto`'s bits: a subset's mask in the induced point ordering."""
    out = 0
    for k, i in enumerate(bits(onto)):
        if mask >> i & 1:
            out |= 1 << k
    return out


def induced_walls(ws, ymask):
    """The walls induced on the nonempty point set `ymask`: (U ∩ Y, V ∩ Y),
    as masks over Y's points in order, with the induced vacuous walls
    {Y, ∅} dropped.  Raises DuplicateInducedPartition when two distinct
    parent walls induce the same genuine partition of Y (the forbidden
    configuration)."""
    if ymask == 0:
        raise WallcubeError("Y must be nonempty")
    yfull = (1 << ymask.bit_count()) - 1
    walls = []
    partitions = {}
    dups = []
    for w in ws.walls:
        u, v = compress(w.left, ymask), compress(w.right, ymask)
        if {u, v} == {0, yfull}:
            continue
        walls.append(Wall(w.index, u, v))
        if u & v == 0 and u and v:
            first = partitions.setdefault(frozenset((u, v)), w.index)
            if first != w.index:
                dups.append((first, w.index))
    if dups:
        raise DuplicateInducedPartition(dups)
    return walls


def subwallspace(ws, Y):
    """Induced subwallspace on the point subset Y (names or bitmask): the
    `induced_walls` on Y, and the ambient metric, when present, restricted
    to Y."""
    ymask = ws.point_mask(Y)
    walls = induced_walls(ws, ymask)
    metric = None
    if ws.metric is not None:
        yidx = bits(ymask)
        metric = Metric([[ws.metric.dist[i][j] for j in yidx] for i in yidx])
    return Wallspace(ws.names_of(ymask), walls, metric=metric)


# -- set-based oracles -------------------------------------------------


def wall_position(ws, index):
    """The position of the wall with this index, by a scan of the walls."""
    return next(pos for pos, w in enumerate(ws.walls) if w.index == index)


def wall_of(ws, index):
    """The wall with this index."""
    return ws.walls[wall_position(ws, index)]


def oracle_names(ws, mask):
    """The names of a mask's points, by a scan of every position."""
    return [p for i, p in enumerate(ws.points) if mask >> i & 1]


def halfspace_sets(ws, w):
    return set(oracle_names(ws, w.left)), set(oracle_names(ws, w.right))


def oracle_separation_count(ws, x, y):
    n = 0
    for w in ws.walls:
        u, v = halfspace_sets(ws, w)
        ou, ov = u - v, v - u
        if (x in ou and y in ov) or (x in ov and y in ou):
            n += 1
    return n


def oracle_betwixt(ws, x):
    out = set()
    for w in ws.walls:
        u, v = halfspace_sets(ws, w)
        if x in u and x in v:
            out.add(w.index)
    return out


def oracle_toward_point(ws, p):
    """The orientation toward point p, wall by wall: the side holding p,
    the left one when both do, and on a wall missing p (no cover) its
    nonempty side."""
    b = 1 << ws.point_pos(p)
    m = 0
    for i, w in enumerate(ws.walls):
        if not w.left & b and (w.right & b or not w.left):
            m |= 1 << i
    return m


def oracle_canonical_cube(ws, p):
    """p's canonical cube as `canonical_cube` built it wall by wall: the
    orientation toward p, with its betwixting walls freed."""
    free = sum(1 << wall_position(ws, i) for i in oracle_betwixt(ws, p))
    return normal_cube(oracle_toward_point(ws, p), free)


def oracle_transverse(ws, i, j):
    ui, vi = halfspace_sets(ws, wall_of(ws, i))
    uj, vj = halfspace_sets(ws, wall_of(ws, j))
    return all([ui & uj, ui & vj, vi & uj, vi & vj])


def oracle_wall_separates(ws, k, i, j):
    wk = wall_of(ws, k)
    u, v = halfspace_sets(ws, wk)
    ou, ov = u - v, v - u
    sides_i = halfspace_sets(ws, wall_of(ws, i))
    sides_j = halfspace_sets(ws, wall_of(ws, j))
    for a in sides_i:
        for b in sides_j:
            if (a <= ou and b <= ov) or (a <= ov and b <= ou):
                return True
    return False


def oracle_separates_sets(ws, wall_index, mask_a, mask_b):
    """The sets lie in distinct open halfspaces of the wall.  Empty sets are
    vacuously separated."""
    u, v = halfspace_sets(ws, wall_of(ws, wall_index))
    ou, ov = u - v, v - u
    a, b = set(oracle_names(ws, mask_a)), set(oracle_names(ws, mask_b))
    return (a <= ou and b <= ov) or (a <= ov and b <= ou)


def oracle_separates_compact_wall(ws, sep_index, kmask, wall_index):
    """K lies in one open halfspace of wall sep_index and a closed
    halfspace of wall wall_index in the other."""
    u, v = halfspace_sets(ws, wall_of(ws, sep_index))
    ou, ov = u - v, v - u
    k = set(oracle_names(ws, kmask))
    halves = halfspace_sets(ws, wall_of(ws, wall_index))
    return any(k <= kside and any(h <= wside for h in halves)
               for kside, wside in ((ou, ov), (ov, ou)))


def oracle_is_zero_cube(ws, mask):
    """Chosen halfspaces pairwise intersect, including each with itself."""
    chosen = []
    for pos, w in enumerate(ws.walls):
        side = w.right if (mask >> pos) & 1 else w.left
        chosen.append(set(oracle_names(ws, side)))
    for a in range(len(chosen)):
        for b in range(a, len(chosen)):
            if not chosen[a] & chosen[b]:
                return False
    return True


def oracle_all_vertices(ws):
    return sorted(m for m in range(1 << ws.nwalls())
                  if oracle_is_zero_cube(ws, m))


def oracle_build_dual(ws, p):
    """Sageev's vertex set, by its definition: the valid orientations a
    breadth-first search over single-wall flips reaches from the canonical
    orientation toward p, sorted.  `build_dual` reads all valid
    orientations off the 2-SAT search instead, on the strength of the
    flip graph being connected."""
    seed = oracle_toward_point(ws, p)
    seen = {seed}
    q = deque([seed])
    while q:
        m = q.popleft()
        for i in range(len(ws.walls)):
            m2 = m ^ (1 << i)
            if m2 not in seen and flippable(ws, m, i):
                seen.add(m2)
                q.append(m2)
    return sorted(seen)


def _edge_wall(u, v):
    """The wall of the edge (u, v): the one bit they differ in."""
    d = u ^ v
    if d == 0 or d & (d - 1):
        raise WallcubeError("not a 1-skeleton edge")
    return d.bit_length() - 1


def oracle_contract_loop(cc, loop):
    """`contract_loop` as it listed every pair (p, q) of edges on one wall
    with no wall repeated strictly between them, and took the least by
    (p, q - p): O(L³) a pass."""
    path = list(loop)
    if len(path) >= 2 and path[0] != path[-1]:
        raise WallcubeError("loop is not closed")
    for a, b in zip(path, path[1:]):
        d = a ^ b
        if not d or d & (d - 1) or not cc.has_cell(a, d):
            raise NotInComplex((a, b))
    moves = []
    while len(path) > 1:
        # 1. leftmost backtrack
        bt = next((p for p in range(len(path) - 2)
                   if path[p] == path[p + 2]), None)
        if bt is not None:
            moves.append(("backtrack", bt))
            del path[bt + 1:bt + 3]
            continue
        # 2. innermost pair of edges dual to the same wall: no wall repeats
        #    strictly between them; smallest (p, q-p) lexicographically
        nedges = len(path) - 1
        walls = [_edge_wall(path[t], path[t + 1]) for t in range(nedges)]
        inner = []
        for p in range(nedges):
            for q in range(p + 1, nedges):
                if walls[p] != walls[q]:
                    continue
                inside = walls[p + 1:q]
                if walls[p] not in inside and len(set(inside)) == len(inside):
                    inner.append((p, q))
        if not inner:
            raise StuckLoop("no backtrack and no innermost pair")
        p, q = min(inner, key=lambda pq: (pq[0], pq[1] - pq[0]))
        # push edge q leftward with square swaps until adjacent to edge p
        while q > p + 1:
            u, mid, v = path[q - 1], path[q], path[q + 1]
            w1, w2 = _edge_wall(u, mid), _edge_wall(mid, v)
            if not cc.has_cell(u, 1 << w1 | 1 << w2):
                raise StuckLoop(
                    f"square on walls {sorted((w1, w2))} missing at step {q}")
            new_mid = u ^ (1 << w2)
            moves.append(("square", q - 1,
                          tuple(sorted((cc.ws.walls[w1].index,
                                        cc.ws.walls[w2].index)))))
            path[q] = new_mid
            q -= 1
    return moves


def oracle_max_transverse_families(ws):
    """Brute force over all subsets of nonvacuous walls."""
    idxs = [w.index for w in ws.walls if not w.is_vacuous(ws.full)]
    cliques = []
    for r in range(1, len(idxs) + 1):
        for sub in combinations(idxs, r):
            if all(oracle_transverse(ws, a, b)
                   for a, b in combinations(sub, 2)):
                cliques.append(set(sub))
    maximal = [c for c in cliques
               if not any(c < c2 for c2 in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def normal_cube(base, wmask):
    """The Cube on the wall mask `wmask` with a corner `base`: its base is
    `base` with those bits cleared."""
    return Cube(base & ~wmask, wmask)


def oracle_complete_skeleton(vertex_set, nwalls):
    """Skeleton completion from the definition: a k-cube is added when all
    2k of its (k-1)-faces are present, to a fixed point.  Candidates grow
    each (k-1)-cube by one wall flippable at one of its corners.  Returns
    dict dim -> set of normalized Cube (dims >= 2)."""
    vset = set(vertex_set)
    prev = set()
    for m in vset:
        for m2, i in _corner_neighbors(m, nwalls, vset):
            prev.add(normal_cube(m, 1 << i))
    cubes = {}
    k = 2
    while prev:
        found = set()
        cand = set()
        for c in prev:
            for m in c.corners():
                for m2, i in _corner_neighbors(m, nwalls, vset):
                    if i not in c.walls:
                        cand.add(normal_cube(c.base, c.mask | 1 << i))
        for c in cand:
            if all(f in prev for f in _faces(c)):
                found.add(c)
        if found:
            cubes[k] = found
        prev = found
        k += 1
    return cubes


def oracle_edges(vertex_set, nwalls):
    """The 1-skeleton from its definition: (u, v, wall position) for each
    pair of vertices differing on one wall, u < v, sorted."""
    vset = set(vertex_set)
    return sorted((m, m2, i) for m in vset
                  for m2, i in _corner_neighbors(m, nwalls, vset) if m < m2)


def scan_up_masks(vertex_set, nwalls):
    """The up masks and edges by scan, a lookup of m | 1<<i for every
    vertex m and every bit i clear in m (the skeleton's level 1 before
    `enumerate_valid` gave the up masks).  Returns (up, level): up[m] for
    the vertices with an edge above them, and level, wall bit -> the
    bases of its edges."""
    vset = set(vertex_set)
    full = (1 << nwalls) - 1
    # up[m]: walls i with bit i clear in m and m | 1<<i a vertex;
    # level: wall mask -> bases of the cubes of the current dimension
    up = {}
    level = {}
    for m in vset:
        u = 0
        clear = full & ~m
        while clear:
            bit = clear & -clear
            clear ^= bit
            if m | bit in vset:
                u |= bit
                level.setdefault(bit, set()).add(m)
        if u:
            up[m] = u
    return up, level


def oracle_adj(cc):
    """Vertex -> [(neighbour, wall position)] from the edges of the cell
    store, each vertex's walls tried in ascending order."""
    return {m: [(m ^ 1 << i, i) for i in range(len(cc.ws.walls))
                if m & ~(1 << i) in cc.cells.get(1 << i, ())]
            for m in cc.vertices}


def oracle_export_dict(cc):
    """The export document as `CubeComplex.export_dict` built it with a
    sort per cube: walls sorted by index, corner ids sorted."""
    index = [w.index for w in cc.ws.walls]
    verts = [{"id": i, "orientation": [(m >> j) & 1
                                       for j in range(len(cc.ws.walls))]}
             for i, m in enumerate(cc.vertices)]
    edges = [{"u": cc.vid[u], "v": cc.vid[v], "wall": index[w]}
             for u, v, w in cc.edges]
    cubes = sorted((wmask.bit_count(), b, bits(wmask), wmask)
                   for wmask, bases in cc.cells.items()
                   if wmask.bit_count() >= 2 for b in bases)
    cubes = [{"dim": k,
              "walls": sorted(index[w] for w in walls),
              "vertices": sorted(cc.vid[m] for m in Cube(b, wmask).corners())}
             for k, b, walls, wmask in cubes]
    return {"vertices": verts, "edges": edges, "cubes": cubes}


def _corner_neighbors(m, nwalls, vset):
    for i in range(nwalls):
        m2 = m ^ (1 << i)
        if m2 in vset:
            yield m2, i


def _faces(cube):
    """The 2*dim codimension-1 faces of a cube."""
    for w in cube.walls:
        rest = cube.mask & ~(1 << w)
        yield Cube(cube.base, rest)
        yield Cube(cube.base | (1 << w), rest)


def strip_cells(cc, dim):
    """cc without its cubes of dimension >= dim."""
    cells = {w: b for w, b in cc.cells.items() if w.bit_count() < dim}
    return CubeComplex(cc.ws, cells)


def drop_vertex(cc, m):
    """cc without vertex m and every cube that has m as a corner."""
    cells = {w: {b for b in bases if m & ~w != b}
             for w, bases in cc.cells.items()}
    return CubeComplex(cc.ws, cells)


def cube_key(c):
    """A sort key that orders cubes by dimension, base and walls."""
    return c.dim, c.base, c.walls


def cubes(cc):
    """dim -> set of `Cube`, for the cubes of dimension >= 2 in the cell
    store of cc."""
    by_dim = {}
    for wmask, bases in cc.cells.items():
        if wmask.bit_count() >= 2:
            by_dim.setdefault(wmask.bit_count(), set()).update(
                Cube(b, wmask) for b in bases)
    return dict(sorted(by_dim.items()))


def all_cubes(cc):
    """Every cube of cc as a `Cube`: the 0-cubes first, in vertex order,
    then the edges, in edge order, then the higher cubes."""
    out = [Cube(m, 0) for m in cc.vertices]
    out += [Cube(u, 1 << w) for u, _v, w in cc.edges]
    for cs in cubes(cc).values():
        out += cs
    return out


def oracle_maximal_cubes(cc):
    """Cubes that are a face of no cube one dimension up, by a scan of all
    pairs."""
    by_dim = {}
    for c in all_cubes(cc):
        by_dim.setdefault(c.dim, []).append(c)
    out = []
    for k, cs in sorted(by_dim.items()):
        above = by_dim.get(k + 1, [])
        for c in cs:
            if not any(_is_face_of(c, c2) for c2 in above):
                out.append(c)
    return out


def _is_face_of(c, other):
    return c.mask != other.mask and not c.mask & ~other.mask and \
        c.base & ~other.mask == other.base


def oracle_dual_sub(cc, hemi):
    """(vertices, edges, dim -> set of Cube) of the full subcomplex on the
    vertices agreeing with every fixed orientation: a cube is kept when all
    of its corners are."""
    ws = cc.ws
    fixed_bits = [(wall_position(ws, i), s)
                  for i, s in fixed_sides(ws, hemi).items()]
    verts = [m for m in cc.vertices
             if all((m >> pos) & 1 == s for pos, s in fixed_bits)]
    vset = set(verts)
    edges = [(u, v, w) for u, v, w in cc.edges if u in vset and v in vset]
    kept = {}
    for k, cs in cubes(cc).items():
        keep = {c for c in cs if all(m in vset for m in c.corners())}
        if keep:
            kept[k] = keep
    return sorted(verts), sorted(edges), kept


def oracle_verify_npc(data):
    """NPC violations of an export document {vertices, edges, cubes}: the
    flag condition checked on sets of wall indices, plus repeated edges
    and repeated link vertices."""
    verts = [v["id"] for v in data["vertices"]]
    incident = {v: [] for v in verts}
    violations = []
    seen_edges = set()
    for e in data["edges"]:
        key = (min(e["u"], e["v"]), max(e["u"], e["v"]))
        if key in seen_edges:
            violations.append({"kind": "RepeatedEdge", "edge": key})
        seen_edges.add(key)
        incident[e["u"]].append(e["wall"])
        incident[e["v"]].append(e["wall"])
    cubes_at = {v: {} for v in verts}  # v -> dim -> set of frozenset walls
    for c in data["cubes"]:
        for v in c["vertices"]:
            cubes_at[v].setdefault(c["dim"], set()).add(frozenset(c["walls"]))
    for v in verts:
        link = sorted(set(incident[v]))
        if len(link) != len(incident[v]):
            violations.append({"kind": "RepeatedLinkVertex", "vertex": v,
                               "walls": sorted(w for w in link
                                               if incident[v].count(w) > 1)})
        adj = {w: set() for w in link}
        for sq in cubes_at[v].get(2, set()):
            a, b = sorted(sq)
            adj[a].add(b)
            adj[b].add(a)

        def extend(clique, candidates):
            for idx, w in enumerate(candidates):
                new = clique + [w]
                if len(new) >= 3:
                    if frozenset(new) not in cubes_at[v].get(len(new), set()):
                        violations.append({"kind": "MissingCube", "vertex": v,
                                           "walls": sorted(new)})
                        continue
                extend(new, [c for c in candidates[idx + 1:] if c in adj[w]])
        extend([], link)
    return violations


def oracle_cube_distance(cc, a, b):
    """Min 1-skeleton distance between corners of cubes a and b, by a
    breadth-first search from a's corners; None when b is unreachable."""
    targets = set(b.corners())
    sources = list(a.corners())
    if targets & set(sources):
        return 0
    dist = {m: 0 for m in sources}
    q = deque(sources)
    while q:
        m = q.popleft()
        for m2, _w in cc.adj[m]:
            if m2 not in dist:
                dist[m2] = dist[m] + 1
                if m2 in targets:
                    return dist[m2]
                q.append(m2)
    return None


def oracle_is_convex(cc, sub):
    """is_convex by breadth-first search: for each vertex pair (a, b) of
    sub, every vertex v outside sub with d(a,v) + d(v,b) = d(a,b) lies on a
    geodesic; the first one found gives the witness path, reconstructed
    greedily from the distance tables."""
    inside = set(sub.vertices)
    dists = {a: cc.bfs_distances([a]) for a in sub.vertices}
    for a in sub.vertices:
        da = dists[a]
        for b in sub.vertices:
            if b <= a:
                continue
            db = dists[b]
            d = da[b]
            for v in cc.vertices:
                if v in inside:
                    continue
                if v in da and v in db and da[v] + db[v] == d:
                    path = _geodesic_through(cc, a, v, b, da, db)
                    return False, path
    return True, None


def _geodesic_through(cc, a, v, b, da, db):
    """Reconstruct a geodesic a -> v -> b using the distance tables."""
    left = [v]
    cur = v
    while cur != a:
        cur = next(m for m, _w in cc.adj[cur] if da[m] == da[cur] - 1)
        left.append(cur)
    left.reverse()
    cur = v
    while cur != b:
        cur = next(m for m, _w in cc.adj[cur] if db[m] == db[cur] - 1)
        left.append(cur)
    return left


def fixed_sides(ws, hemi):
    """{wall index: fixed side, 0 left or 1 right} of a hemiwallspace of
    ws, read back from its two wall masks."""
    return {w.index: hemi.fixed_bits >> pos & 1
            for pos, w in enumerate(ws.walls) if hemi.fixed_mask >> pos & 1}


def forget_unpaired(ws, hemi):
    """Remark-style wallspace: delete the dependent walls of a
    hemiwallspace of ws entirely.

    The dual of this wallspace is isomorphic (after re-indexing) to
    dual_sub's output.
    """
    fixed = fixed_sides(ws, hemi)
    walls = [w for w in ws.walls if w.index not in fixed]
    return Wallspace(ws.points, walls, metric=ws.metric)


def oracle_induce_hemi(ws, P, variant):
    """`induce_hemi` with a neighbourhood taken per side, and U* as a scan
    over every distinct distance up to the diameter, as the fixed sides
    {wall index: 0 left or 1 right} of the dependent walls:
      U0:     U ∩ P nonempty
      Ur:     U ∩ N_r(P) nonempty
      Uinf:   diam(U ∩ P) >= tau
      Ustar:  diam(U ∩ N_r(P)) >= tau for some r
      UrStar: diam(U ∩ N_r(P)) >= tau
    """
    pmask = P if isinstance(P, int) else ws.point_mask(P)
    if pmask == 0:
        raise WallcubeError("P must be nonempty")
    kind = variant.kind
    if kind != "U0":
        metric = ws.require_metric()
    else:
        metric = ws.metric

    def nbhd(r):
        if r == 0 and metric is None:
            return pmask
        return metric.ball(pmask, r)

    def big(mask, r):
        d = diam(metric, mask & nbhd(r))
        return d is not None and d >= variant.tau

    def retained(side_mask):
        if kind == "U0":
            return bool(side_mask & pmask)
        if kind == "Ur":
            return bool(side_mask & nbhd(variant.r))
        if kind == "Uinf":
            return big(side_mask, 0)
        if kind == "UrStar":
            return big(side_mask, variant.r)
        r_max = metric.diameter()
        radii = sorted({0.0, r_max}
                       | {d for row in metric.dist for d in row
                          if 0 < d <= r_max})
        return any(big(side_mask, r) for r in radii)

    fixed = {}
    bad = []
    for w in ws.walls:
        keep_l, keep_r = retained(w.left), retained(w.right)
        if keep_l and keep_r:
            continue
        if keep_l:
            fixed[w.index] = 0
        elif keep_r:
            fixed[w.index] = 1
        else:
            bad.append(w.index)
    if bad:
        raise NotAHemiwallspace(bad)
    return fixed


def oracle_ball_metric(ball):
    """The word metric of a Cayley ball from its normal forms: d(g, h) is
    the length of g⁻¹h, one product per pair."""
    spec, elements = ball.spec, ball.elements
    n = len(elements)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = spec.length(spec.mul(spec.inv(elements[i]), elements[j]))
            dist[i][j] = dist[j][i] = d
    return dist


def oracle_side(hw, g):
    """'L' (left only), 'R' (right only) or 'B' (both) for a full-group
    element g, by the H-wall's rule: the sign of g's axis coordinate, or,
    after the leading power of the axis letter is stripped, the case of
    g's next letter."""
    if hw.rule == "coordinate":
        x = g[hw.axis]
        if x == 0:
            return "B"
        return "L" if x < 0 else "R"
    # branch rule on a free group
    axis = hw.axis  # the subgroup's letter, e.g. "a"
    rest = g.lstrip(axis + axis.upper())
    if not rest:
        return "B"
    return "L" if rest[0].islower() else "R"


def oracle_translate(ball, hw, t):
    """The halfspace masks (U, V) of the H-wall's translate by t, truncated
    to the ball, from the definition: point x is in tU when t⁻¹x is on the
    left of hw or on both sides, in tV when it is on the right or on both,
    one product per point."""
    spec = ball.spec
    u = v = 0
    for i, x in enumerate(ball.elements):
        side = oracle_side(hw, spec.mul(spec.inv(t), x))
        u |= (side != "R") << i
        v |= (side != "L") << i
    return u, v


def oracle_build_hwall(ball, hw):
    """The H-wall (its translate by the identity) and its conformance
    Report, as the library built them when it multiplied each element of
    H ∩ ball by the ball points once per check: the invariance scan, each
    orbit count and the side-swap test."""
    spec = ball.spec
    u, v = oracle_translate(ball, hw, spec.identity())
    hmembers = [g for g in ball.elements
                if hw.subgroup.contains(g) and g != spec.identity()]
    violations = []
    for h in hmembers:
        for i, g in enumerate(ball.elements):
            j = ball.by_elem.get(spec.mul(h, g))
            if j is not None and (u >> i ^ u >> j | v >> i ^ v >> j) & 1:
                violations.append({"h": spec.name(h), "g": spec.name(g)})
    carrier = u & v
    carrier_orbits = _oracle_orbit_count(ball, hmembers, bits(carrier))
    frontier_orbits = {}
    for tag, side in (("U", u), ("V", v)):
        fr = ball.metric.frontier(side)
        frontier_orbits[tag] = _oracle_orbit_count(ball, hmembers, bits(fr))
    # side-swapping elements of H (the index-2 coset of the side stabilizer)
    swappers = [h for h in hmembers if _oracle_swaps_sides(ball, h, u, v)]
    if swappers:
        hdotdot = "violated" if violations else "verified (side-swappers present)"
    else:
        hdotdot = "vacuous at this radius (no side-swapping element in ball)"
    rep = Report(
        cut=("invariance_violations", 10),
        ok=not violations,
        invariance_violations=violations,
        carrier_orbits=carrier_orbits,
        frontier_orbits=frontier_orbits,
        hdotdot_status=hdotdot,
        caveat=TRUNCATION_CAVEAT,
    )
    return Wall(hw.index or 0, u, v), rep


def _oracle_swaps_sides(ball, h, u, v):
    spec = ball.spec
    for i in bits(u & ~v):
        hg = spec.mul(h, ball.elements[i])
        j = ball.by_elem.get(hg)
        if j is not None:
            return bool((v & ~u) >> j & 1)
    return False


def _oracle_orbit_count(ball, hmembers, indices):
    """Partial H-orbit count of the given ball-element indices."""
    spec = ball.spec
    mask = sum(1 << i for i in indices)
    adj = [0] * len(ball.elements)
    for h in hmembers:
        for i in indices:
            j = ball.by_elem.get(spec.mul(h, ball.elements[i]))
            if j is not None and mask >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return len(components(adj, mask))


def oracle_point_map(ball, g):
    """The left action of g on the ball by names, as `CayleyBall.image`
    gives it by positions: a product per point."""
    spec = ball.spec
    pm = {}
    for x in ball.elements:
        gx = spec.mul(g, x)
        if gx in ball.by_elem:
            pm[spec.name(x)] = spec.name(gx)
    return pm


class CountingSpec:
    """A group spec that counts the products it makes."""

    def __init__(self, spec):
        self.spec = spec
        self.products = 0

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def mul(self, a, b):
        self.products += 1
        return self.spec.mul(a, b)


def oracle_generate_hwall_system(ball, hwall_specs):
    """`generate_hwall_system` as it translated each H-wall by every ball
    element and merged equal translates by (halfspace pair, spec
    position), with the report of each H-wall itself."""
    walls, seen, reports = [], set(), []
    for pos, hw in enumerate(hwall_specs):
        reports.append(oracle_build_hwall(ball, hw)[1].to_dict())
        for g in ball.elements:
            gu, gv = oracle_translate(ball, hw, g)
            key = (frozenset((gu, gv)), pos)
            if key not in seen:
                seen.add(key)
                walls.append(Wall(len(walls), gu, gv))
    return Wallspace(ball.names, walls, metric=ball.metric), reports


def oracle_rel_cocompact_check(ws, cc, peripheries, variant, m=None):
    """`groups.rel_cocompact_check` as it read every cube through its
    `Cube` view (see `all_cubes`)."""
    seeds = set()
    for p in ws.points:
        seeds.update(canonical_cube(ws, p).corners())
    vdepth = cc.bfs_distances(sorted(seeds))
    hemis = [induce_hemi(ws, P, variant) for P in peripheries]
    info = []
    for c in all_cubes(cc):
        depth = min(vdepth[mm] for mm in c.corners())
        reps = [k for k, h in enumerate(hemis)
                if h.represents(c.base, c.mask)]
        info.append((c, depth, reps))
    uncovered = [depth for _c, depth, reps in info if not reps]
    least_m = (max(uncovered) + 1) if uncovered else 0
    if m is None:
        m = least_m
    k_part = sum(1 for _c, depth, _r in info if depth < m)
    unique = sum(1 for _c, depth, reps in info
                 if depth >= m and len(reps) == 1)
    coverage = [{"dim": c.dim, "depth": depth}
                for c, depth, reps in info if depth >= m and not reps]
    isolation = [{"dim": c.dim, "depth": depth, "peripheries": reps}
                 for c, depth, reps in info if depth >= m and len(reps) > 1]
    inter_wit = []
    # each periphery's vertices: all_cubes lists 0-cubes first, in order
    subs = [set() for _ in hemis]
    for c, _depth, reps in info[:cc.nvertices()]:
        for k in reps:
            subs[k].add(c.base)
    for a in range(len(subs)):
        for b in range(a + 1, len(subs)):
            for v in subs[a] & subs[b]:
                if vdepth[v] >= m:
                    inter_wit.append({"peripheries": [a, b],
                                      "vertex": cc.vid[v],
                                      "depth": vdepth[v]})
    return Report(
        cut=("intersection_witnesses", 20),
        m=m, least_m=least_m, k_part=k_part, unique=unique,
        coverage_violations=coverage, isolation_violations=isolation,
        intersection_ok=not inter_wit,
        intersection_witnesses=inter_wit, caveat=TRUNCATION_CAVEAT)


def oracle_dumps(obj):
    """The standard library's indented JSON, which `io.dumps` must match
    byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- the row metric and the separation diagnostics it served -----------


def oracle_bfs(nbrs, s, levels):
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



class OracleMetric:
    """The row metric: every answer is read off the full distance table,
    one row per point, as `Metric` computed it before its rings.  adj
    holds the neighbour masks of the metric graph."""

    def __init__(self, rows, adj):
        self.dist, self.n, self._adj = rows, len(rows), adj

    @classmethod
    def of(cls, metric):
        """The row metric of `metric`'s graph or table: breadth-first rows
        for unit weights, Dijkstra rows for other weights, the table
        itself (with the unit-distance graph) when there is no graph."""
        n, edges = metric.n, metric.edges
        if edges is None:
            rows = [list(row) for row in metric.dist]
            unit = min((d for row in rows for d in row if 0 < d < INF),
                       default=None)
            edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n)
                     if rows[i][j] == unit]
        nbrs = [[] for _ in range(n)]
        adj = [0] * n
        for i, j, w in edges:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if metric.edges is not None:
            if all(w == 1 for _i, _j, w in edges):
                levels = [0.0]
                rows = [oracle_bfs(nbrs, s, levels) for s in range(n)]
            else:
                rows = [_dijkstra(nbrs, s) for s in range(n)]
        return cls(rows, adj)

    def adjacency(self):
        return self._adj

    def rings(self, mask):
        """(d, points at d from the set), nearest first."""
        near = [min((self.dist[i][p] for i in bits(mask)), default=None)
                for p in range(self.n)]
        return [(d, sum(1 << p for p in range(self.n) if near[p] == d))
                for d in sorted(set(near) - {None})]

    def ball(self, mask, r):
        return sum(1 << j for j in range(self.n)
                   if any(self.dist[i][j] <= r for i in bits(mask)))

    def frontier(self, mask):
        return sum(1 << i for i in bits(mask) if self._adj[i] & ~mask)

    def diameter(self):
        return max(max(row) for row in self.dist) if self.n else 0.0


def diam(metric, mask):
    """The diameter of a point set, off the distance table; None when
    empty.  The oracle of `Metric.reaches`."""
    idx = bits(mask)
    return max((metric.dist[i][j] for i in idx for j in idx), default=None)


def dist_sets(metric, mask_a, mask_b):
    """The least distance between two point sets, off the distance table;
    inf when either is empty."""
    return min((metric.dist[i][j] for i in bits(mask_a)
                for j in bits(mask_b)), default=INF)


def wall_region(ws, wall_index):
    """The point set standing in for a wall in separation distances: its
    carrier U ∩ V when nonempty, else the frontiers of U and V."""
    w = wall_of(ws, wall_index)
    metric = ws.require_metric()
    return w.carrier() or metric.frontier(w.left) | metric.frontier(w.right)


def oracle_least_threshold(items):
    """items: list of (distance, separated, witness).

    Returns (least t such that distance > t implies separated, witnesses
    at the worst offending distance) — t is the max unseparated distance
    (0 when none).
    """
    unsep = [(d, w) for d, sep, w in items if not sep]
    if not unsep:
        return 0, []
    t = max(d for d, _w in unsep)
    return t, sorted(w for d, w in unsep if d == t)


def oracle_linear_separation_fit(ws, max_denominator=64, max_offset=0.0):
    """Largest rational κ = p/q (q <= max_denominator) with
    #(x,y) >= κ·d(x,y) − ε on all pairs for some ε <= max_offset;
    ε* is then the minimal offset for that κ.

    On finite data *any* κ works for a large enough ε, so the offset must be
    bounded for the fit to mean anything; max_offset defaults to 0.
    """
    dist = ws.require_metric().dist
    point = ws.derived(open_sides)
    pts = ws.points
    data = [(pts[i], pts[j], dist[i][j],
             separating(point[i], point[j]).bit_count())
            for i in range(len(pts)) for j in range(i + 1, len(pts))]
    params = {"max_denominator": max_denominator, "max_offset": max_offset,
              "pairs": len(data)}
    pos = [(x, y, d, s) for x, y, d, s in data if d > 0]
    if not pos:
        return _report("LinearSeparation", params, "holds",
                       notes=["no pairs at positive distance"])
    # feasible κ <= (s + max_offset) / d on every pair; one exact ratio per
    # distinct (s, d), 0 at d = inf, where only κ = 0 is feasible
    ratio = {(s, d): Fraction(s + max_offset) / Fraction(d) if d < INF else 0
             for s, d in {(s, d) for _x, _y, d, s in pos}}
    kmax = min(ratio.values())
    tight = {key for key, q in ratio.items() if q == kmax}
    binding = sorted([x, y] for x, y, d, s in pos if (s, d) in tight)
    params["binding_pairs"] = len(binding)
    binding = binding[:20]
    if kmax <= 0:
        return _report(
            "LinearSeparation", params, "fails", value=0.0,
            witnesses=binding,
            notes=["no κ > 0 admits ε <= max_offset"])
    kappa = _largest_fraction_at_most(kmax, max_denominator)
    if kappa <= 0:
        return _report(
            "LinearSeparation", params, "fails", value=0.0,
            witnesses=binding,
            notes=[f"feasible κ below grid resolution 1/{max_denominator}"])
    k = float(kappa)
    eps = max(max(0.0, k * d - s) for _x, _y, d, s in pos)
    rep = _report("LinearSeparation", params, "holds",
                  value=float(kappa), witnesses=binding)
    rep.parameters["kappa"] = [kappa.numerator, kappa.denominator]
    rep.parameters["epsilon"] = eps
    return rep


def oracle_ball_ball_separation(ws, r):
    """Least m with: d(x1,x2) > m implies N_r(x1), N_r(x2) separated by a
    wall.  Fails when even the farthest pairs are unseparated."""
    metric = ws.require_metric()
    balls = [sides(ws, metric.ball(1 << i, r)) for i in range(metric.n)]
    items = []
    for i in range(len(ws.points)):
        for j in range(i + 1, len(ws.points)):
            sep = separating(balls[i], balls[j])
            items.append((metric.dist[i][j], bool(sep),
                          [ws.points[i], ws.points[j]]))
    diam = metric.diameter()
    m, witnesses = oracle_least_threshold(items)
    verdict = "holds" if m < diam or not witnesses else "fails"
    return _report("BallBall", {"r": r}, verdict, value=m,
                   witnesses=witnesses)


def oracle_compact_wall_separation(ws, K):
    """Least f with: d(K, W) >= f implies some other wall separates K from W
    (K in one open halfspace of W', a closed halfspace of W in the other)."""
    metric = ws.require_metric()
    kmask = K if isinstance(K, int) else ws.point_mask(K)
    if not kmask:
        raise WallcubeError("K must be nonempty")
    k_sides = sides(ws, kmask)
    wall = ws.derived(wall_sides)
    items = []
    for pos, w in enumerate(ws.walls):
        d = dist_sets(metric, kmask, wall_region(ws, w.index))
        sep = separating(k_sides, wall[pos]) & ~(1 << pos)
        items.append((d, bool(sep), [w.index]))
    diam = metric.diameter()
    # least f: every wall with d >= f separated; f may sit just above the
    # worst unseparated distance
    unsep = [(d, wit) for d, sep, wit in items if not sep]
    if not unsep:
        f, witnesses = 0, []
    else:
        worst = max(d for d, _ in unsep)
        # no wall at infinite distance has d >= f for a finite f
        higher = [d for d, sep, _ in items if worst < d < INF]
        f = min(higher) if higher else worst + 1
        witnesses = sorted(wit for d, wit in unsep if d == worst)
    # an unseparated wall at infinite distance leaves no f
    verdict = "holds" if f < INF and f <= diam or not witnesses else "fails"
    return _report("CompactWall", {"K": sorted(oracle_names(ws, kmask))},
                   verdict, value=f, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])


def oracle_wall_wall_separation(ws):
    """Least D with: d(W,W') > D implies some wall separates W and W'."""
    metric = ws.require_metric()
    wall = ws.derived(wall_sides)
    idxs = ws.wall_indices()
    regions = [bits(wall_region(ws, i)) for i in idxs]
    items = []
    for a in range(len(idxs)):
        # near[p]: d(p, W_a), so d(W_a, W_b) is its min over W_b
        near = [INF] * metric.n
        for q in regions[a]:
            near = list(map(min, near, metric.dist[q]))
        for b in range(a + 1, len(idxs)):
            d = min(map(near.__getitem__, regions[b]), default=INF)
            sep = separating(wall[a], wall[b]) & ~(1 << a | 1 << b)
            items.append((d, bool(sep), [idxs[a], idxs[b]]))
    diam = metric.diameter()
    D, witnesses = oracle_least_threshold(items)
    verdict = "holds" if D < diam or not witnesses else "fails"
    return _report("WallWall", {}, verdict, value=D,
                   witnesses=witnesses, notes=[WALL_DISTANCE_NOTE])


def oracle_subspace_separation(ws, Y, kind, r):
    """Ball-WallNbd / WallNbd-WallNbd separation of a subspace Y.

    Sets are intersected with Y and separation is by an induced wall of the
    subwallspace on Y; empty sets are vacuously separated.
    """
    if kind not in ("BallWallNbd", "WallNbdWallNbd"):
        raise WallcubeError(f"unknown kind {kind}")
    metric = ws.require_metric()
    ymask = Y if isinstance(Y, int) else ws.point_mask(Y)
    sub = subwallspace(ws, ymask)

    def part(mask):
        """The set within Y, and its sides in the subwallspace."""
        mask &= ymask
        return mask, sides(sub, compress(mask, ymask))

    def item(a, b, witness):
        d = dist_sets(metric, a[0], b[0])
        # an empty set is separated from anything ("any wall separates them")
        sep = not a[0] or not b[0] or bool(separating(a[1], b[1]))
        return d, sep, witness

    nbds = [part(metric.ball(wall_region(ws, w.index), r)) for w in ws.walls]
    idxs = ws.wall_indices()
    items = []
    if kind == "BallWallNbd":
        for p in bits(ymask):
            a = part(metric.ball(1 << p, r))
            for i, b in zip(idxs, nbds):
                items.append(item(a, b, [ws.points[p], i]))
    else:
        for x in range(len(idxs)):
            for y in range(x + 1, len(idxs)):
                items.append(item(nbds[x], nbds[y], [idxs[x], idxs[y]]))
    diam = metric.diameter()
    s, witnesses = oracle_least_threshold(items)
    verdict = "holds" if s < diam or not witnesses else "fails"
    return _report(kind, {"r": r, "Y": sorted(oracle_names(ws, ymask))},
                   verdict, value=s, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])
