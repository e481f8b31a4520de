"""The cube complex dual to a finite wallspace.

Vertices (0-cubes) are orientations: one chosen halfspace per wall, all
chosen halfspaces pairwise intersecting (including each with itself, which
forces vacuous walls toward X).  Edges join orientations differing on exactly
one wall; an n-cube is added whenever its (n-1)-skeleton is present.
The vertices span an induced subgraph of the hypercube on the wall bits, so
an n-cube's (n-1)-skeleton is present exactly when all 2^n of its corners are
vertices; the detector checks this level by level, an n-cube being present
when two opposite (n-1)-faces are (see `_complete_skeleton`).

Orientations are int bitmasks over wall positions: bit 0 means the wall's
`left` halfspace is chosen, bit 1 means `right`.  Validity is a 2-SAT
instance, one boolean per wall and one 2-clause per disjoint pair of
halfspaces, so all valid orientations are enumerated by a search whose work
is bounded by its output (see `OrientationEngine.enumerate_valid`).
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    IncompleteOrientation,
    InvalidZeroCube,
    NotInComplex,
    NotTransverse,
    OrientationConflict,
    StateSpaceCap,
    StuckLoop,
    UnknownPoint,
    WallcubeError,
)
from .metric import bits
from .wallspace import betwixt_set, transverse, validate

DEFAULT_VERTEX_CAP = 1 << 20


def conflict_tables(lefts, rights):
    """conf[s][t][i] = bitmask of walls j whose side-t halfspace is disjoint
    from the side-s halfspace of wall i (side 0 left, 1 right).

    j = i is included, so an empty halfspace conflicts with itself, which is
    exactly the rule that bans orienting a vacuous wall to its empty side.
    """
    sides = (lefts, rights)
    return [[[sum(1 << j for j, h2 in enumerate(sides[t]) if not h & h2)
              for h in sides[s]] for t in range(2)] for s in range(2)]


class OrientationEngine:
    """Precomputed conflict tables for fast orientation tests."""

    def __init__(self, ws):
        self.ws = ws
        self.n = ws.nwalls()
        lefts = [w.left for w in ws.walls]
        rights = [w.right for w in ws.walls]
        self.sides = (lefts, rights)
        self.conf = conflict_tables(lefts, rights)
        self.fullw = (1 << self.n) - 1

    def chosen(self, m, i):
        """Chosen halfspace bitmask of wall position i under orientation m."""
        return self.sides[(m >> i) & 1][i]

    def is_valid(self, m):
        conf = self.conf
        for i in range(self.n):
            s = (m >> i) & 1
            if (conf[s][0][i] & ~m) | (conf[s][1][i] & m):
                return False
        return True

    def flippable(self, m, i):
        """Valid orientation stays valid after flipping position i?"""
        m2 = m ^ (1 << i)
        s = (m2 >> i) & 1
        bad = (self.conf[s][0][i] & ~m2) | (self.conf[s][1][i] & m2)
        return bad == 0

    def toward_point(self, p):
        """Orientation toward point p: betwixting walls left (tie-break),
        others the side containing p."""
        b = self.ws.point_bit(p)
        m = 0
        for i, w in enumerate(self.ws.walls):
            in_l, in_r = bool(w.left & b), bool(w.right & b)
            if in_r and not in_l:
                m |= 1 << i
            elif not in_l and not in_r:
                # only possible for coverage-violating walls; orient to the
                # nonempty side so diagnostics can still run
                if not w.left:
                    m |= 1 << i
        return m

    def enumerate_valid(self, cap):
        """All valid orientation bitmasks, ascending.

        A 2-SAT search over states (assigned walls, orientation, forbidden
        left sides, forbidden right sides).  Choosing a side ORs its conflict
        masks into the forbidden masks; a free wall with one side forbidden
        is forced to the other, until nothing more is forced, and a state
        whose chosen sides are forbidden (a wall forced both ways included)
        is dropped.  Otherwise the lowest free wall is branched on.

        In a wallspace whose walls cover X, a nonempty halfspace h meeting
        every assigned side forces only sides containing h, so each branch
        reaches a vertex: the search visits 2·(vertices) − 1 states.  It
        raises StateSpaceCap past `cap` vertices or (n+1)·cap states, the
        second bounding dead-end search on non-covering inputs.
        """
        (c00, c01), (c10, c11) = self.conf
        budget = (self.n + 1) * cap
        out = []
        # empty sides are forbidden from the start
        fl, fr = (sum(1 << i for i, h in enumerate(side) if not h)
                  for side in self.sides)
        stack = [(0, 0, fl, fr)]
        while stack:
            budget -= 1
            if budget < 0:
                raise StateSpaceCap(
                    f"search budget {(self.n + 1) * cap} states exceeded")
            a, m, fl, fr = stack.pop()
            while not (fl & a & ~m) | (fr & m):
                free = self.fullw & ~a
                to_r, to_l = fl & free, fr & free
                if to_r | to_l:
                    a |= to_r | to_l
                    m |= to_r
                    for j in bits(to_r):
                        fl, fr = fl | c10[j], fr | c11[j]
                    for j in bits(to_l):
                        fl, fr = fl | c00[j], fr | c01[j]
                elif free:
                    i = free & -free
                    j = i.bit_length() - 1
                    stack.append((a | i, m | i, fl | c10[j], fr | c11[j]))
                    stack.append((a | i, m, fl | c00[j], fr | c01[j]))
                    break
                else:
                    if len(out) >= cap:
                        raise StateSpaceCap(
                            f"vertex budget {cap} exceeded")
                    out.append(m)
                    break
        return sorted(out)


def _engine(ws):
    """The wallspace's OrientationEngine, built on first use and kept on it,
    so each wallspace pays for its conflict tables once."""
    if ws._engine is None:
        ws._engine = OrientationEngine(ws)
    return ws._engine


@dataclass(frozen=True)
class Cube:
    """A cube of the dual complex.

    `walls` are the positions of its independent walls; `base` is the corner
    orientation with every independent wall on its left side (those bits
    cleared).  The 2^dim corners are base | (any subset of the wall bits).
    """

    base: int
    walls: frozenset

    @property
    def dim(self):
        return len(self.walls)

    def corners(self):
        ws = sorted(self.walls)
        for k in range(1 << len(ws)):
            m = self.base
            for j, w in enumerate(ws):
                if (k >> j) & 1:
                    m |= 1 << w
            yield m

    def normalized(self):
        m = self.base
        for w in self.walls:
            m &= ~(1 << w)
        return Cube(m, frozenset(self.walls))

    def is_face_of(self, other):
        if not self.walls < other.walls:
            return False
        omask = 0
        for w in other.walls:
            omask |= 1 << w
        return self.base & ~omask == other.base


class CubeComplex:
    """Immutable dual cube complex."""

    def __init__(self, ws, engine, vertices, cubes):
        self.ws = ws
        self.engine = engine
        self.vertices = sorted(vertices)
        self.vid = {m: i for i, m in enumerate(self.vertices)}
        # edges as (u, v, wall position) with u < v as orientation masks
        self.edges = []
        self.adj = {m: [] for m in self.vertices}
        vset = set(self.vertices)
        for m in self.vertices:
            for i in range(engine.n):
                m2 = m ^ (1 << i)
                if m2 in vset:
                    self.adj[m].append((m2, i))
                    if m < m2:
                        self.edges.append((m, m2, i))
        self.edges.sort()
        # cubes: dim -> set of normalized Cube, dims >= 2
        self.cubes = {k: set(v) for k, v in cubes.items() if v}

    # -- structure -----------------------------------------------------

    def nvertices(self):
        return len(self.vertices)

    def nedges(self):
        return len(self.edges)

    def dimension(self):
        dims = [0]
        if self.edges:
            dims.append(1)
        dims.extend(self.cubes.keys())
        return max(dims)

    def cube_counts(self):
        counts = {0: len(self.vertices), 1: len(self.edges)}
        for k, cs in sorted(self.cubes.items()):
            counts[k] = len(cs)
        return counts

    def all_cubes(self):
        """Every cube of every dimension, 0-cubes and edges included."""
        out = [Cube(m, frozenset()) for m in self.vertices]
        out += [Cube(u, frozenset([w])) for u, v, w in self.edges]
        for cs in self.cubes.values():
            out += list(cs)
        return out

    def has_cube(self, cube):
        cube = cube.normalized()
        if cube.dim == 0:
            return cube.base in self.vid
        if cube.dim == 1:
            (w,) = cube.walls
            return cube.base in self.vid and cube.base | (1 << w) in self.vid
        return cube in self.cubes.get(cube.dim, set())

    def require_cube(self, cube):
        if not self.has_cube(cube):
            raise NotInComplex(cube)

    def hyperplanes(self):
        """Map wall index -> sorted list of dual edges."""
        out = {w.index: [] for w in self.ws.walls}
        for u, v, i in self.edges:
            out[self.ws.walls[i].index].append((u, v))
        return out

    def degrees(self):
        return {m: len(nb) for m, nb in self.adj.items()}

    def max_degree(self):
        degs = self.degrees()
        return max(degs.values(), default=0)

    def bfs_distances(self, sources):
        dist = {m: 0 for m in sources}
        q = deque(sources)
        while q:
            m = q.popleft()
            for m2, _w in self.adj[m]:
                if m2 not in dist:
                    dist[m2] = dist[m] + 1
                    q.append(m2)
        return dist

    def export_dict(self):
        verts = [{"id": i, "orientation": [(m >> j) & 1
                                           for j in range(self.engine.n)]}
                 for i, m in enumerate(self.vertices)]
        edges = [{"u": self.vid[u], "v": self.vid[v],
                  "wall": self.ws.walls[w].index}
                 for u, v, w in self.edges]
        cubes = []
        for k in sorted(self.cubes):
            for c in sorted(self.cubes[k], key=lambda c: (c.base, sorted(c.walls))):
                cubes.append({
                    "dim": k,
                    "walls": sorted(self.ws.walls[w].index for w in c.walls),
                    "vertices": sorted(self.vid[m] for m in c.corners()),
                })
        return {"vertices": verts, "edges": edges, "cubes": cubes}


# -- construction ------------------------------------------------------


def is_zero_cube(ws, orientation):
    """Orientation given as a bitmask or a dict wall-index -> 0|1."""
    eng = _engine(ws)
    m = _as_mask(ws, orientation)
    return eng.is_valid(m)


def _as_mask(ws, orientation):
    if isinstance(orientation, int):
        return orientation
    missing = [w.index for w in ws.walls if w.index not in orientation]
    if missing:
        raise IncompleteOrientation(missing)
    m = 0
    for i, w in enumerate(ws.walls):
        if orientation[w.index]:
            m |= 1 << i
    return m


def flippable(ws, c, w_index):
    eng = _engine(ws)
    m = _as_mask(ws, c)
    if not eng.is_valid(m):
        raise InvalidZeroCube(m)
    return eng.flippable(m, ws.wall_pos[w_index])


def _complete_skeleton(vertex_set, nwalls):
    """Sageev's skeleton completion: every k-cube whose (k-1)-skeleton is
    present, for k >= 2.  Returns dict dim -> set of normalized Cube.

    The vertex set is an induced subgraph of the hypercube on `nwalls` bits,
    so an edge is present exactly when both its ends are vertices, and by
    induction a k-cube's boundary is present exactly when all 2^k of its
    corners are vertices (each face's corners are corners of the cube, and
    each corner lies on some face).  A k-cube (m, W | 1<<i), with i above
    the highest bit of W, has as corners those of the two opposite faces
    (m, W) and (m | 1<<i, W); so level k is read off level k-1 by checking
    that pair, and each cube is reached once, from its highest wall.

    Cubes are kept as (base, wall mask) int pairs, every wall bit cleared in
    base, grouped as wall mask -> set of bases; Cube objects are made only
    for the result.
    """
    vset = set(vertex_set)
    # up[m]: walls i with bit i clear in m and m | 1<<i a vertex
    up = {}
    for m in vset:
        u = 0
        for i in range(nwalls):
            bit = 1 << i
            if not m & bit and m | bit in vset:
                u |= bit
        if u:
            up[m] = u
    # level: wall mask -> bases of the cubes of the current dimension
    level = {}
    for m, u in up.items():
        while u:
            bit = u & -u
            level.setdefault(bit, set()).add(m)
            u ^= bit
    cubes = {}
    k = 2
    while level:
        nxt = {}
        for wmask, bases in level.items():
            above = -(1 << wmask.bit_length())
            for m in bases:
                u = up[m] & above
                while u:
                    bit = u & -u
                    if m | bit in bases:
                        nxt.setdefault(wmask | bit, set()).add(m)
                    u ^= bit
        if nxt:
            found = set()
            for wmask, bases in nxt.items():
                walls = frozenset(bits(wmask))
                found.update(Cube(m, walls) for m in bases)
            cubes[k] = found
        level = nxt
        k += 1
    return cubes


def build_dual(ws, basepoint, vertex_cap=DEFAULT_VERTEX_CAP):
    """BFS over flippable walls from the canonical vertex of `basepoint`,
    then skeleton completion."""
    rep = validate(ws)
    if not rep.ok:
        raise WallcubeError(f"wallspace does not validate: {rep.errors}")
    if basepoint not in ws.point_index:
        raise UnknownPoint(basepoint)
    eng = _engine(ws)
    seed = eng.toward_point(basepoint)
    if not eng.is_valid(seed):
        raise OrientationConflict(
            f"canonical orientation of {basepoint} is not a 0-cube")
    seen = {seed}
    q = deque([seed])
    while q:
        m = q.popleft()
        for i in range(eng.n):
            if eng.flippable(m, i):
                m2 = m ^ (1 << i)
                if m2 not in seen:
                    if len(seen) >= vertex_cap:
                        raise StateSpaceCap(
                            f"vertex budget {vertex_cap} exceeded")
                    seen.add(m2)
                    q.append(m2)
    cubes = _complete_skeleton(seen, eng.n)
    return CubeComplex(ws, eng, seen, cubes)


def enumerate_all_orientations(ws, vertex_cap=DEFAULT_VERTEX_CAP):
    """The complex on ALL valid orientations, found by the 2-SAT search of
    `OrientationEngine.enumerate_valid` without a basepoint; raises
    StateSpaceCap past `vertex_cap` vertices or (walls+1)·`vertex_cap`
    search states.  It checks `build_dual`'s connectivity."""
    eng = _engine(ws)
    verts = eng.enumerate_valid(vertex_cap)
    cubes = _complete_skeleton(verts, eng.n)
    return CubeComplex(ws, eng, verts, cubes)


# -- canonical cubes and paths ----------------------------------------


def canonical_cube(ws, x):
    """The cube of x: betwixting walls independent, all others toward x."""
    seed = _engine(ws).toward_point(x)
    free = frozenset(ws.wall_pos[i] for i in betwixt_set(ws, x))
    return Cube(seed, free).normalized()


def pair_le(a, b):
    """(U,V) ≼ (U',V') iff U ⊊ U', or U = U' and V ⊇ V'."""
    (u, v), (u2, v2) = a, b
    if u != u2 and u & ~u2 == 0:
        return True
    return u == u2 and v2 & ~v == 0


def path_to_canonical(ws, c, x0):
    """Flip a ≼-minimal misoriented wall until all walls orient toward x0.

    Returns the list of visited orientations (starting at c); its length - 1
    equals the initial number of misoriented walls.
    """
    eng = _engine(ws)
    m = _as_mask(ws, c)
    if not eng.is_valid(m):
        raise InvalidZeroCube(m)
    b = ws.point_bit(x0)
    path = [m]
    while True:
        mis = [i for i in range(eng.n) if not eng.chosen(m, i) & b]
        if not mis:
            return path
        pairs = {i: (eng.chosen(m, i), eng.chosen(m ^ (1 << i), i))
                 for i in mis}
        minimal = [i for i in mis
                   if not any(pairs[j] != pairs[i] and pair_le(pairs[j], pairs[i])
                              for j in mis)]
        i = min(minimal)
        if not eng.flippable(m, i):
            raise OrientationConflict(
                f"≼-minimal misoriented wall {i} not flippable (bug)")
        m ^= 1 << i
        path.append(m)


def cube_distance(cc, a, b):
    """Min 1-skeleton distance between corners of cubes a and b."""
    cc.require_cube(a)
    cc.require_cube(b)
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
    raise NotInComplex("cubes lie in different components")


def maximal_cubes(cc):
    """All cubes not properly contained in another cube."""
    by_dim = {}
    for c in cc.all_cubes():
        by_dim.setdefault(c.dim, []).append(c)
    out = []
    for k, cs in sorted(by_dim.items()):
        above = by_dim.get(k + 1, [])
        for c in cs:
            if not any(c.is_face_of(c2) for c2 in above):
                out.append(c)
    return out


def cube_from_family(ws, family, p):
    """The cube associated to a pairwise-transverse family of nonvacuous
    walls and a point p.

    Independent walls: the family plus every wall betwixting p that is
    transverse to all of the family.  A dependent wall not transverse to some
    family member is oriented toward that member (chosen side meets both its
    halfspaces); remaining dependent walls orient toward p.
    """
    family = sorted(set(family))
    for w in family:
        if ws.wall(w).is_vacuous(ws.full):
            raise WallcubeError(f"wall {w} is vacuous")
    for a, b in combinations(family, 2):
        if not transverse(ws, a, b):
            raise NotTransverse((a, b))
    b_p = ws.point_bit(p)
    indep = set(family)
    for w in ws.walls:
        if w.index in indep:
            continue
        if w.left & b_p and w.right & b_p:
            if all(transverse(ws, w.index, f) for f in family):
                indep.add(w.index)
    m = 0
    for i, w in enumerate(ws.walls):
        if w.index in indep:
            continue
        blockers = [f for f in family if not transverse(ws, w.index, f)]
        if blockers:
            ok_sides = []
            for s, side in enumerate((w.left, w.right)):
                if all(side & ws.wall(f).left and side & ws.wall(f).right
                       for f in blockers):
                    ok_sides.append(s)
            if not ok_sides:
                raise OrientationConflict(
                    f"wall {w.index} has no side toward {blockers}")
            if len(ok_sides) == 1:
                s = ok_sides[0]
            else:
                # tie-break toward p
                s = 1 if (w.right & b_p and not w.left & b_p) else 0
            if s:
                m |= 1 << i
        else:
            if w.right & b_p and not w.left & b_p:
                m |= 1 << i
    cube = Cube(m, frozenset(ws.wall_pos[w] for w in indep)).normalized()
    eng = _engine(ws)
    for corner in cube.corners():
        if not eng.is_valid(corner):
            raise OrientationConflict(
                f"corner {corner:b} of the associated cube is not a 0-cube")
    return cube


# -- verification ------------------------------------------------------


@dataclass
class NPCReport:
    ok: bool
    violations: list = field(default_factory=list)

    def to_dict(self):
        return {"ok": self.ok, "violations": self.violations}


def verify_npc(complex_data):
    """Vertex links are simplicial flag complexes.

    Accepts a CubeComplex or export-form dict {vertices, edges, cubes}.
    A link vertex is an incident edge (identified by its wall label); walls
    w1, w2 are adjacent at v iff some square contains v with walls {w1, w2};
    flag condition: every pairwise-adjacent set of link vertices spans a cube.
    """
    if isinstance(complex_data, CubeComplex):
        complex_data = complex_data.export_dict()
    verts = [v["id"] for v in complex_data["vertices"]]
    incident = {v: [] for v in verts}
    violations = []
    seen_edges = set()
    for e in complex_data["edges"]:
        key = (min(e["u"], e["v"]), max(e["u"], e["v"]))
        if key in seen_edges:
            violations.append({"kind": "RepeatedEdge", "edge": key})
        seen_edges.add(key)
        incident[e["u"]].append(e["wall"])
        incident[e["v"]].append(e["wall"])
    cubes_at = {v: {} for v in verts}  # v -> dim -> set of frozenset walls
    for c in complex_data["cubes"]:
        for v in c["vertices"]:
            cubes_at[v].setdefault(c["dim"], set()).add(frozenset(c["walls"]))
    for v in verts:
        link = sorted(set(incident[v]))
        if len(link) != len(incident[v]):
            violations.append({"kind": "RepeatedLinkVertex", "vertex": v,
                               "walls": sorted(w for w in link
                                               if incident[v].count(w) > 1)})
        squares = cubes_at[v].get(2, set())
        adj = {w: set() for w in link}
        for sq in squares:
            a, b = sorted(sq)
            adj[a].add(b)
            adj[b].add(a)
        # enumerate pairwise-adjacent subsets of size >= 3 and demand a cube
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
    return NPCReport(ok=not violations, violations=violations)


def contract_loop(cc, loop, max_steps=100000):
    """Contract a closed edge path to the empty path.

    `loop` is a list of vertex orientation masks with loop[0] == loop[-1].
    Moves: ("backtrack", p) removing edges p, p+1; ("square", p, walls)
    replacing edges p, p+1 across an existing 2-cube.  Raises StuckLoop if no
    move applies (which would falsify simple connectivity).
    """
    path = list(loop)
    if len(path) >= 2 and path[0] != path[-1]:
        raise WallcubeError("loop is not closed")
    edge_set = {(u, v) for u, v, w in cc.edges}
    for a, b in zip(path, path[1:]):
        if (min(a, b), max(a, b)) not in edge_set:
            raise NotInComplex((a, b))
    moves = []
    steps = 0
    while len(path) > 1:
        steps += 1
        if steps > max_steps:
            raise StuckLoop("move budget exceeded")
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
            sq = Cube(u, frozenset((w1, w2))).normalized()
            if sq not in cc.cubes.get(2, set()):
                raise StuckLoop(
                    f"square on walls {sorted((w1, w2))} missing at step {q}")
            new_mid = u ^ (1 << w2)
            moves.append(("square", q - 1,
                          tuple(sorted((cc.ws.walls[w1].index,
                                        cc.ws.walls[w2].index)))))
            path[q] = new_mid
            q -= 1
        # edges p and p+1 are now dual to the same wall and share a vertex,
        # so they backtrack; removed on the next iteration
    return moves


def _edge_wall(u, v):
    d = u ^ v
    if d == 0 or d & (d - 1):
        raise WallcubeError("not a 1-skeleton edge")
    return d.bit_length() - 1
