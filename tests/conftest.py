"""Shared helpers: seeded random wallspaces and independent set-based oracles.

The oracles deliberately use plain python sets over point names, never the
library's bitmask machinery, so that every fast path is checked against an
independent reimplementation of the definitions.  The skeleton-completion
oracle takes the vertex masks the complex is built from, but completes them
with sets of `Cube` and a check of every face, not the library's int-mask
level scan.  The maximal-cube, sub-complex and NPC oracles read a complex
through its `Cube` views and its export document, never its cell store.
The flip-search oracle for `build_dual` steps with the library's one-wall
flip test, which `test_flippable_matches_validity` checks against the
valid orientations, but not with its 2-SAT search.  The loop-contraction,
H-wall, codimension-1, point-map, H-wall-system, action, axis-cut and
decomposition oracles are the library's earlier forms: every same-wall
pair listed per pass, a group product per H-member and point for each
check, a translate per ball element merged by halfspace pair, two
translates per wall looked up by halfspace pair, every power of an action
walked from scratch, and every cube read through its `Cube` view.  The
induced-hemi oracle takes a neighbourhood per side and scans U*'s radii
one by one.
`OracleMetric` answers every metric query from the full table of
per-source breadth-first (or Dijkstra) rows, and the separation oracles
are the pair-by-pair scans that ran on it, item list and all.
"""

import json
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from wallcube.complex import (
    Cube,
    CubeComplex,
    OrientationEngine,
    _edge_wall,
    canonical_cube,
)
from wallcube.errors import (
    NotAHemiwallspace,
    NotInComplex,
    StuckLoop,
    WallcubeError,
)
from wallcube.groups import TRUNCATION_CAVEAT, ActionMap, _translate
from wallcube.hemi import Hemiwallspace, induce_hemi
from wallcube.metric import INF, Metric, _dijkstra, bits, components, compress
from wallcube.separation import (
    WALL_DISTANCE_NOTE,
    _largest_fraction_at_most,
    _report,
    wall_distance,
    wall_region,
)
from wallcube.wallspace import (
    Report,
    Wall,
    Wallspace,
    separating,
    separation_index,
    subwallspace,
    transverse,
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


# -- set-based oracles -------------------------------------------------


def halfspace_sets(ws, w):
    return set(ws.names_of(w.left)), set(ws.names_of(w.right))


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


def oracle_transverse(ws, i, j):
    ui, vi = halfspace_sets(ws, ws.wall(i))
    uj, vj = halfspace_sets(ws, ws.wall(j))
    return all([ui & uj, ui & vj, vi & uj, vi & vj])


def oracle_wall_separates(ws, k, i, j):
    wk = ws.wall(k)
    u, v = halfspace_sets(ws, wk)
    ou, ov = u - v, v - u
    sides_i = [set(ws.names_of(h)) for h in ws.wall(i).halfspaces()]
    sides_j = [set(ws.names_of(h)) for h in ws.wall(j).halfspaces()]
    for a in sides_i:
        for b in sides_j:
            if (a <= ou and b <= ov) or (a <= ov and b <= ou):
                return True
    return False


def oracle_separates_sets(ws, wall_index, mask_a, mask_b):
    """The sets lie in distinct open halfspaces of the wall.  Empty sets are
    vacuously separated."""
    u, v = halfspace_sets(ws, ws.wall(wall_index))
    ou, ov = u - v, v - u
    a, b = set(ws.names_of(mask_a)), set(ws.names_of(mask_b))
    return (a <= ou and b <= ov) or (a <= ov and b <= ou)


def oracle_separates_compact_wall(ws, sep_index, kmask, wall_index):
    """K lies in one open halfspace of wall sep_index and a closed
    halfspace of wall wall_index in the other."""
    u, v = halfspace_sets(ws, ws.wall(sep_index))
    ou, ov = u - v, v - u
    k = set(ws.names_of(kmask))
    sides = halfspace_sets(ws, ws.wall(wall_index))
    return any(k <= kside and any(h <= wside for h in sides)
               for kside, wside in ((ou, ov), (ov, ou)))


def oracle_is_zero_cube(ws, mask):
    """Chosen halfspaces pairwise intersect, including each with itself."""
    chosen = []
    for pos, w in enumerate(ws.walls):
        side = w.right if (mask >> pos) & 1 else w.left
        chosen.append(set(ws.names_of(side)))
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
    eng = OrientationEngine(ws)
    seed = eng.toward_point(p)
    seen = {seed}
    q = deque([seed])
    while q:
        m = q.popleft()
        for i in range(eng.n):
            m2 = m ^ (1 << i)
            if m2 not in seen and eng.flippable(m, i):
                seen.add(m2)
                q.append(m2)
    return sorted(seen)


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


def oracle_complete_skeleton(vertex_set, nwalls):
    """Skeleton completion from the definition: a k-cube is added when all
    2k of its (k-1)-faces are present, to a fixed point.  Candidates grow
    each (k-1)-cube by one wall flippable at one of its corners.  Returns
    dict dim -> set of normalized Cube (dims >= 2)."""
    vset = set(vertex_set)
    prev = set()
    for m in vset:
        for m2, i in _corner_neighbors(m, nwalls, vset):
            prev.add(Cube(m, frozenset([i])).normalized())
    cubes = {}
    k = 2
    while prev:
        found = set()
        cand = set()
        for c in prev:
            for m in c.corners():
                for m2, i in _corner_neighbors(m, nwalls, vset):
                    if i not in c.walls:
                        cand.add(Cube(c.base & ~(1 << i),
                                      c.walls | {i}).normalized())
        for c in cand:
            if all(f in prev for f in _faces(c)):
                found.add(c)
        if found:
            cubes[k] = found
        prev = found
        k += 1
    return cubes


def _corner_neighbors(m, nwalls, vset):
    for i in range(nwalls):
        m2 = m ^ (1 << i)
        if m2 in vset:
            yield m2, i


def _faces(cube):
    """The 2*dim codimension-1 faces of a cube."""
    for w in cube.walls:
        rest = cube.walls - {w}
        yield Cube(cube.base, rest)
        yield Cube(cube.base | (1 << w), rest)


def strip_cells(cc, dim):
    """cc without its cubes of dimension >= dim."""
    cells = {w: b for w, b in cc.cells.items() if w.bit_count() < dim}
    return CubeComplex(cc.ws, cc.engine, cells)


def drop_vertex(cc, m):
    """cc without vertex m and every cube that has m as a corner."""
    cells = {w: {b for b in bases if m & ~w != b}
             for w, bases in cc.cells.items()}
    return CubeComplex(cc.ws, cc.engine, cells)


def cube_key(c):
    """A sort key that orders cubes by dimension, base and walls."""
    return c.dim, c.base, sorted(c.walls)


def oracle_maximal_cubes(cc):
    """Cubes that are a face of no cube one dimension up, by a scan of all
    pairs."""
    by_dim = {}
    for c in cc.all_cubes():
        by_dim.setdefault(c.dim, []).append(c)
    out = []
    for k, cs in sorted(by_dim.items()):
        above = by_dim.get(k + 1, [])
        for c in cs:
            if not any(_is_face_of(c, c2) for c2 in above):
                out.append(c)
    return out


def _is_face_of(c, other):
    if not c.walls < other.walls:
        return False
    omask = 0
    for w in other.walls:
        omask |= 1 << w
    return c.base & ~omask == other.base


def oracle_dual_sub(cc, hemi):
    """(vertices, edges, dim -> set of Cube) of the full subcomplex on the
    vertices agreeing with every fixed orientation: a cube is kept when all
    of its corners are."""
    ws = cc.ws
    fixed_bits = [(ws.wall_pos[i], s) for i, s in hemi.fixed.items()]
    verts = [m for m in cc.vertices
             if all((m >> pos) & 1 == s for pos, s in fixed_bits)]
    vset = set(verts)
    edges = [(u, v, w) for u, v, w in cc.edges if u in vset and v in vset]
    cubes = {}
    for k, cs in cc.cubes.items():
        keep = {c for c in cs if all(m in vset for m in c.corners())}
        if keep:
            cubes[k] = keep
    return sorted(verts), sorted(edges), cubes


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


def forget_unpaired(hemi):
    """Remark-style wallspace: delete the dependent walls entirely.

    The dual of this wallspace is isomorphic (after re-indexing) to
    dual_sub's output.
    """
    ws = hemi.parent
    walls = [w for w in ws.walls if w.index not in hemi.fixed]
    return Wallspace(ws.points, walls, metric=ws.metric)


def oracle_induce_hemi(ws, P, variant):
    """`induce_hemi` with a neighbourhood taken per side, and U* as a scan
    over every distinct distance up to the diameter:
      U0:     U ∩ P nonempty
      Ur:     U ∩ N_r(P) nonempty
      Uinf:   diam(U ∩ P) >= tau
      Ustar:  diam(U ∩ N_r(P)) >= tau for some r
      UrStar: diam(U ∩ N_r(P)) >= tau
    """
    pmask = P if isinstance(P, int) else ws.mask_of(P)
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
        d = metric.diam(mask & nbhd(r))
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
    meta = {"variant": kind, "r": variant.r, "tau": variant.tau,
            "P": sorted(ws.names_of(pmask))}
    return Hemiwallspace(ws, fixed, meta=meta)


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


def oracle_build_hwall(ball, hw):
    """`build_hwall` as it multiplied each element of H ∩ ball by the ball
    points once per check: the invariance scan, each orbit count and the
    side-swap test."""
    spec = ball.spec
    u, v = _translate(ball, hw, spec.identity())
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


def _oracle_orbit_count(ball, hmembers, indices, glue=()):
    """Partial H-orbit count of the given ball-element indices; the indices
    of each bitmask in `glue` count as one piece."""
    spec = ball.spec
    mask = sum(1 << i for i in indices)
    adj = [0] * len(ball.elements)
    for h in hmembers:
        for i in indices:
            j = ball.by_elem.get(spec.mul(h, ball.elements[i]))
            if j is not None and mask >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for piece in glue:
        for i in bits(piece):
            adj[i] |= piece
    return len(components(adj, mask))


def oracle_codim_one_analysis(ball, subgroup, d):
    """`codim_one_analysis` with a product per H-member and point of each
    set whose orbits it counts."""
    hmask = ball.mask_of(subgroup.contains)
    removed = ball.metric.ball(hmask, d) if hmask else 0
    adj = ball.metric.adjacency()
    keep = ((1 << len(ball.elements)) - 1) & ~removed
    comps = components(adj, keep)  # ordered by lowest element
    spec = ball.spec
    hmembers = [g for g in ball.elements
                if subgroup.contains(g) and g != spec.identity()]
    out = []
    deep = []
    for ci, comp in enumerate(comps):
        members = bits(comp)
        is_deep = any(spec.length(ball.elements[i]) == ball.radius
                      for i in members)
        frontier = [i for i in members if adj[i] & removed]
        out.append({"id": ci, "size": len(members), "deep": is_deep,
                    "frontier_size": len(frontier),
                    "frontier_orbits": _oracle_orbit_count(ball, hmembers,
                                                           frontier)})
        if is_deep:
            deep.append(comp)
    # partial H-orbit classes of deep components
    classes = _oracle_orbit_count(ball, hmembers, bits(sum(deep)), glue=deep)
    return {"d": d, "n_components": len(comps),
            "n_deep": len(deep), "deep_orbit_classes": classes,
            "components": out, "caveat": TRUNCATION_CAVEAT}


def oracle_point_map(ball, g):
    """The point map of `ActionMap.from_element`, a product per point."""
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
    position): `wall_info` maps index -> (spec position, name of the first
    element of the translate), `pair_index` (pair, spec position) -> index."""
    spec = ball.spec
    meta = Report(wall_info={}, pair_index={}, specs=list(hwall_specs),
                  reports=[])
    walls = []
    for pos, hw in enumerate(hwall_specs):
        _w, rep = oracle_build_hwall(ball, hw)
        meta.reports.append(rep.to_dict())
        for g in ball.elements:
            gu, gv = _translate(ball, hw, g)
            key = (frozenset((gu, gv)), pos)
            if key not in meta.pair_index:
                meta.wall_info[len(walls)] = (pos, spec.name(g))
                meta.pair_index[key] = len(walls)
                walls.append(Wall(len(walls), gu, gv))
    return Wallspace(ball.names, walls, metric=ball.metric), meta


def oracle_from_element(ball, g, ws, meta):
    """`ActionMap.from_element` as it translated each wall of the oracle
    system (`oracle_generate_hwall_system`) by gt and g⁻¹t, and looked the
    image up by its halfspace pair: the image wall, with its sides swapped
    when the pair comes reversed, a domain bit when the image truncates to
    vacuous, and the side forced by a vacuous preimage on a wall that is
    no wall's image.  Its wall map holds (image position, swap) pairs."""
    spec = ball.spec
    pm = {i: j for i, j in enumerate(ball.image(g)) if j is not None}
    wm, forced, dom_bits = {}, {}, {}
    ginv = spec.inv(g)
    for idx, (pos, tname) in meta.wall_info.items():
        t = ball.elements[ball.by_name[tname]]
        hw = meta.specs[pos]
        gu, gv = _translate(ball, hw, spec.mul(g, t))
        j = meta.pair_index.get((frozenset((gu, gv)), pos))
        if j is not None:
            wm[idx] = (j, ws.walls[j].left != gu)
        elif bool(gu) != bool(gv):
            dom_bits[idx] = int(not gu)
        pu, pv = _translate(ball, hw, spec.mul(ginv, t))
        if bool(pu) != bool(pv):
            forced[idx] = int(not pu)
    for j, _s in wm.values():
        forced.pop(j, None)
    return ActionMap(pm, wm, forced, dom_bits)


def oracle_wall_power(action, i, n):
    """The n-th power of the wall map at position i, each power walked from
    scratch; None when undefined.  Backwards, a wall steps to its last
    preimage in `wall_map` order."""
    fwd = action.wall_map
    if n < 0:
        fwd = {b: a for a, b in fwd.items()}
        n = -n
    for _ in range(n):
        if i not in fwd:
            return None
        i = fwd[i]
    return i


def oracle_point_mask_power(action, n):
    """A function applying the n-th power of the point map to a bitmask
    (dropping points that leave the domain), walked from scratch."""
    fwd = action.point_map
    if n < 0:
        fwd = {b: a for a, b in fwd.items()}
        n = -n

    def apply(mask):
        for _ in range(n):
            mask = sum({1 << fwd[b] for b in bits(mask) if b in fwd})
        return mask

    return apply


def oracle_fixes_vertex(action, m):
    """gc = c on every mapped wall (and some wall is mapped)."""
    return bool(action.wall_map) and all(
        (m >> i ^ m >> j) & 1 == 0 for i, j in action.wall_map.items())


def oracle_axis_cut_test(ws, action, w_index, n_max, cc=None):
    """`separation.axis_cut_test` as it computed each power of the action
    from scratch, O(n_max²) steps, with `oracle_wall_power`,
    `oracle_point_mask_power` and `oracle_fixes_vertex`."""
    action.check(ws)
    pos = ws.position(w_index)
    w = ws.walls[pos]
    conds = {}
    translates = {0: w_index}
    for n in range(1, n_max + 1):
        for sign in (1, -1):
            nn = sign * n
            img = oracle_wall_power(action, pos, nn)
            if img is None:
                continue
            j = ws.walls[img].index
            translates[nn] = j
            pm = oracle_point_mask_power(action, nn)
            conds[nn] = {
                "wall_moves": j != w_index,
                "U_overlaps": bool(w.left & pm(w.left)),
                "V_overlaps": bool(w.right & pm(w.right)),
                "image_wall": j,
            }
    tidx = sorted(set(translates.values()))
    pairwise = all(transverse(ws, a, b)
                   for x, a in enumerate(tidx) for b in tidx[x + 1:])
    fixed = []
    if cc is not None:
        fixed = [m for m in cc.vertices if oracle_fixes_vertex(action, m)]
    return {"wall": w_index, "n_max": n_max, "conditions": conds,
            "translates": tidx,
            "translates_pairwise_transverse": pairwise if len(tidx) > 1
            else None,
            "fixed_vertices": fixed,
            "note": "premises only; the conclusion concerns infinite scale"}


def oracle_rel_cocompact_check(ws, cc, peripheries, variant, m=None):
    """`groups.rel_cocompact_check` as it read every cube through the
    `Cube` views of `all_cubes`."""
    seeds = set()
    for p in ws.points:
        seeds.update(canonical_cube(ws, p).corners())
    vdepth = cc.bfs_distances(sorted(seeds))
    hemis = [induce_hemi(ws, P, variant) for P in peripheries]
    cubes = cc.all_cubes()
    info = []
    for c in cubes:
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

    def d(self, i, j):
        return self.dist[i][j]

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

    def diam(self, mask):
        idx = bits(mask)
        if not idx:
            return None
        return max(self.dist[i][j] for i in idx for j in idx)

    def dist_sets(self, mask_a, mask_b):
        a, b = bits(mask_a), bits(mask_b)
        if not a or not b:
            return INF
        return min(self.dist[i][j] for i in a for j in b)

    def frontier(self, mask):
        return sum(1 << i for i in bits(mask) if self._adj[i] & ~mask)

    def diameter(self):
        return max(max(row) for row in self.dist) if self.n else 0.0


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
    point = separation_index(ws).point
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
    index = separation_index(ws)
    balls = [index.sides(metric.ball(1 << i, r)) for i in range(metric.n)]
    items = []
    for i in range(len(ws.points)):
        for j in range(i + 1, len(ws.points)):
            sep = separating(balls[i], balls[j])
            items.append((metric.d(i, j), bool(sep),
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
    kmask = K if isinstance(K, int) else ws.mask_of(K)
    if not kmask:
        raise WallcubeError("K must be nonempty")
    index = separation_index(ws)
    k_sides = index.sides(kmask)
    items = []
    for pos, w in enumerate(ws.walls):
        d = wall_distance(ws, kmask, w.index)
        sep = separating(k_sides, index.wall[pos]) & ~(1 << pos)
        items.append((d, bool(sep), [w.index]))
    diam = metric.diameter()
    # least f: every wall with d >= f separated; f may sit just above the
    # worst unseparated distance
    unsep = [(d, wit) for d, sep, wit in items if not sep]
    if not unsep:
        f, witnesses = 0, []
    else:
        worst = max(d for d, _ in unsep)
        higher = [d for d, sep, _ in items if d > worst]
        f = min(higher) if higher else worst + 1
        witnesses = sorted(wit for d, wit in unsep if d == worst)
    verdict = "holds" if f <= diam or not witnesses else "fails"
    return _report("CompactWall", {"K": sorted(ws.names_of(kmask))},
                   verdict, value=f, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])


def oracle_wall_wall_separation(ws):
    """Least D with: d(W,W') > D implies some wall separates W and W'."""
    metric = ws.require_metric()
    wall = separation_index(ws).wall
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
    ymask = Y if isinstance(Y, int) else ws.mask_of(Y)
    index = separation_index(subwallspace(ws, ymask))

    def part(mask):
        """The set within Y, and its sides in the subwallspace."""
        mask &= ymask
        return mask, index.sides(compress(mask, ymask))

    def item(a, b, witness):
        d = metric.dist_sets(a[0], b[0])
        # an empty set is separated from anything ("any wall separates them")
        sep = not a[0] or not b[0] or bool(separating(a[1], b[1]))
        return 0 if d == INF else d, sep, witness

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
    return _report(kind, {"r": r, "Y": sorted(ws.names_of(ymask))},
                   verdict, value=s, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])
