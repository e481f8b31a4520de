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
halfspaces, so all valid orientations are enumerated by one search whose
work is bounded by its output (see `OrientationEngine.enumerate_valid`),
the only vertex finder: `build_dual` reads its vertices from it too.
"""

from collections import deque, namedtuple
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
from .wallspace import Report, betwixt_set, transverse, validate

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
            # a wall missing p violates coverage: orient it to its nonempty
            # side, so diagnostics can still run
            if not w.left & b and (w.right & b or not w.left):
                m |= 1 << i
        return m

    def enumerate_valid(self, cap):
        """All valid orientation bitmasks, ascending; [] when there is none.

        A 2-SAT search over states (assigned walls, orientation, forbidden
        left sides, forbidden right sides), depth first, the left child
        first.  Choosing a side ORs its conflict masks into the forbidden
        masks; a free wall with one side forbidden is forced to the other,
        until nothing more is forced, and a state whose chosen sides are
        forbidden (a wall forced both ways included) dies.  Otherwise the
        lowest free wall is branched on.

        A state closed under forcing, without conflict, leaves a residual
        formula made of 2-clauses of the whole formula F, which any solution
        of F satisfies.  So if both children of a state die, F is
        unsatisfiable (Even–Itai–Shamir), and otherwise every branched state
        lies on a path of at most n branchings to a vertex: at most
        (2n + 1)·(vertices) states are visited, 2·(vertices) − 1 when the
        walls cover X.  Before the first vertex the search is a greedy
        descent, in which two dead states in a row are the two children of
        one state; it returns [] there.  It raises StateSpaceCap past `cap`
        vertices.
        """
        (c00, c01), (c10, c11) = self.conf
        out = []
        # empty sides are forbidden from the start
        fl, fr = (sum(1 << i for i, h in enumerate(side) if not h)
                  for side in self.sides)
        stack = [(0, 0, fl, fr)]
        died = False  # the state popped before this one died
        while stack:
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
            else:
                # dead; two in a row before any vertex: unsatisfiable
                if died and not out:
                    return []
                died = True
                continue
            died = False
        return sorted(out)


def _corners(base, wmask):
    """The corners base | s of the cube (base, wmask), s running over the
    submasks of wmask in ascending order."""
    s = 0
    while True:
        yield base | s
        s = (s - wmask) & wmask
        if not s:
            return


class Cube(namedtuple("Cube", "base walls")):
    """A cube of the dual complex, as returned to callers.

    `walls` are the positions of its independent walls, a frozenset;
    `base` is the corner orientation with every independent wall on its
    left side (those bits cleared).  The 2^dim corners are base | (any
    subset of the wall bits).
    """

    __slots__ = ()

    @property
    def dim(self):
        return len(self.walls)

    @property
    def mask(self):
        """The wall positions as a bitmask."""
        return sum(1 << w for w in self.walls)

    def corners(self):
        return _corners(self.base, self.mask)

    def normalized(self):
        return Cube(self.base & ~self.mask, self.walls)


class CubeComplex:
    """Immutable dual cube complex.

    `cells` is its one cube store: wall mask W -> set of bases b, each pair
    (b, W) the cube with corners b | (any subset of W), every bit of W
    cleared in b.  The empty mask holds the vertices and the one-bit masks
    the edges.  `vertices` (sorted), `vid`, `edges` and `adj` are read off
    it; `cubes` and `all_cubes` give `Cube` views.
    """

    def __init__(self, ws, engine, cells):
        self.ws = ws
        self.engine = engine
        self.cells = cells
        self.vertices = sorted(cells[0])
        self.vid = {m: i for i, m in enumerate(self.vertices)}
        cells[0] = self.vid.keys()  # the vertex set, held once
        # adj[m]: (neighbour, wall position), in ascending wall order
        self.adj = {m: [] for m in self.vertices}
        for i in range(engine.n):
            bit = 1 << i
            for b in cells.get(bit, ()):
                self.adj[b].append((b | bit, i))
                self.adj[b | bit].append((b, i))

    def has_cell(self, m, wmask):
        """Is there a cube on the walls of `wmask` with corner m?"""
        return (m & ~wmask) in self.cells.get(wmask, ())

    # -- structure -----------------------------------------------------

    @property
    def edges(self):
        """Edges as (u, v, wall position), u < v, sorted."""
        return sorted((b, b | bit, bit.bit_length() - 1)
                      for bit, bases in self.cells.items()
                      if bit.bit_count() == 1 for b in bases)

    @property
    def cubes(self):
        """dim -> set of Cube, for the cubes of dimension >= 2."""
        by_dim = {}
        for wmask, bases in self.cells.items():
            if wmask.bit_count() >= 2:
                walls = frozenset(bits(wmask))
                by_dim.setdefault(len(walls), set()).update(
                    Cube(b, walls) for b in bases)
        # built up, then copied: each set's layout, so the order of
        # all_cubes() and of the reports that follow it, depends on both
        return {k: set(cs) for k, cs in sorted(by_dim.items())}

    def nvertices(self):
        return len(self.vertices)

    def nedges(self):
        return self.cube_counts()[1]

    def dimension(self):
        """The largest cube dimension; -1 for the empty complex."""
        return max((wmask.bit_count() for wmask, bases in self.cells.items()
                    if bases), default=-1)

    def cube_counts(self):
        counts = {0: 0, 1: 0}
        for wmask, bases in self.cells.items():
            k = wmask.bit_count()
            counts[k] = counts.get(k, 0) + len(bases)
        return dict(sorted(counts.items()))

    def all_cubes(self):
        """Every cube of every dimension: the 0-cubes first, in vertex
        order, then the edges, then the higher cubes."""
        out = [Cube(m, frozenset()) for m in self.vertices]
        out += [Cube(u, frozenset([w])) for u, v, w in self.edges]
        for cs in self.cubes.values():
            out += list(cs)
        return out

    def has_cube(self, cube):
        return self.has_cell(cube.base, cube.mask)

    def require_cube(self, cube):
        if not self.has_cube(cube):
            raise NotInComplex(cube)

    def hyperplanes(self):
        """Map wall index -> sorted list of dual edges."""
        out = {w.index: [] for w in self.ws.walls}
        for u, v, i in self.edges:
            out[self.ws.walls[i].index].append((u, v))
        return out

    def max_degree(self):
        return max(map(len, self.adj.values()), default=0)

    def bfs_distances(self, sources):
        """Vertex -> 1-skeleton distance to the nearest of `sources`, by one
        multi-source breadth-first search.  (Between two vertices of a dual
        the library built the distance is popcount(u ^ v); see
        `cube_distance` and `hemi.is_convex`.)"""
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
        index = [w.index for w in self.ws.walls]
        verts = [{"id": i, "orientation": [(m >> j) & 1
                                           for j in range(self.engine.n)]}
                 for i, m in enumerate(self.vertices)]
        edges = [{"u": self.vid[u], "v": self.vid[v], "wall": index[w]}
                 for u, v, w in self.edges]
        cubes = sorted((wmask.bit_count(), b, bits(wmask), wmask)
                       for wmask, bases in self.cells.items()
                       if wmask.bit_count() >= 2 for b in bases)
        cubes = [{"dim": k,
                  "walls": sorted(index[w] for w in walls),
                  "vertices": sorted(self.vid[m] for m in _corners(b, wmask))}
                 for k, b, walls, wmask in cubes]
        return {"vertices": verts, "edges": edges, "cubes": cubes}


# -- construction ------------------------------------------------------


def is_zero_cube(ws, orientation):
    """Orientation given as a bitmask or a dict wall-index -> 0|1."""
    eng = ws.derived(OrientationEngine)
    m = _as_mask(ws, orientation)
    return eng.is_valid(m)


def _as_mask(ws, orientation):
    if isinstance(orientation, int):
        return orientation
    missing = [w.index for w in ws.walls if w.index not in orientation]
    if missing:
        raise IncompleteOrientation(missing)
    m = 0
    for index, side in orientation.items():
        m |= bool(side) << ws.position(index)
    return m


def flippable(ws, c, w_index):
    eng = ws.derived(OrientationEngine)
    m = _as_mask(ws, c)
    if not eng.is_valid(m):
        raise InvalidZeroCube(m)
    return eng.flippable(m, ws.position(w_index))


def _complete_skeleton(vertex_set, nwalls):
    """Sageev's skeleton completion: every k-cube whose (k-1)-skeleton is
    present.  Returns the cells, wall mask -> set of bases (see CubeComplex),
    level by level: the vertices, the edges, then each k >= 2.

    The vertex set is an induced subgraph of the hypercube on `nwalls` bits,
    so an edge is present exactly when both its ends are vertices, and by
    induction a k-cube's boundary is present exactly when all 2^k of its
    corners are vertices (each face's corners are corners of the cube, and
    each corner lies on some face).  A k-cube (m, W | 1<<i), with i above
    the highest bit of W, has as corners those of the two opposite faces
    (m, W) and (m | 1<<i, W); so level k is read off level k-1 by checking
    that pair, and each cube is reached once, from its highest wall.

    Cubes are (base, wall mask) int pairs, every wall bit cleared in base.
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
    cells = {0: vset, **level}
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
        cells.update(nxt)
        level = nxt
    return cells


def build_dual(ws, basepoint, vertex_cap=DEFAULT_VERTEX_CAP):
    """The dual of a valid wallspace: `enumerate_all_orientations`, once
    the wallspace validates and `basepoint` names a point.  Raises
    StateSpaceCap past `vertex_cap` vertices.

    The canonical orientation of `basepoint` p is then a 0-cube: as the
    walls cover X, `toward_point(p)` chooses sides that all hold p.
    Sageev's dual is the component of that vertex under wall flips, which
    is every valid orientation.  Take valid u != v, let D be the walls on
    which they differ and i in D.  Flipped, wall i takes v's side v_i,
    which meets v_i and every u_k = v_k off D, as v is valid; so the flip
    fails only if some j in D - {i} has u_j ∩ v_i = ∅, and then, as the
    walls cover X, u_j ⊆ X - v_i ⊆ u_i.  If every i in D had such a j,
    following the j's would close a cycle of two or more walls, all with
    u-side one U and v-side X - U (both nonempty, u and v being valid):
    one genuine partition on two walls, which `validate` rejects.  So some
    flip takes u one wall closer to v, and the flip graph is connected.
    """
    rep = ws.derived(validate)
    if not rep.ok:
        raise WallcubeError(f"wallspace does not validate: {rep.errors}")
    if basepoint not in ws.point_index:
        raise UnknownPoint(basepoint)
    return enumerate_all_orientations(ws, vertex_cap)


def enumerate_all_orientations(ws, vertex_cap=DEFAULT_VERTEX_CAP):
    """The complex on ALL valid orientations, by the 2-SAT search of
    `OrientationEngine.enumerate_valid`; on any input, valid or not, and
    with no vertex when no orientation is valid.  Raises StateSpaceCap past
    `vertex_cap` vertices."""
    eng = ws.derived(OrientationEngine)
    verts = eng.enumerate_valid(vertex_cap)
    return CubeComplex(ws, eng, _complete_skeleton(verts, eng.n))


# -- canonical cubes and paths ----------------------------------------


def canonical_cube(ws, x):
    """The cube of x: betwixting walls independent, all others toward x."""
    seed = ws.derived(OrientationEngine).toward_point(x)
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
    eng = ws.derived(OrientationEngine)
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
    """Min 1-skeleton distance between corners of cubes a and b.

    The popcount of the walls outside both cubes on which their bases
    differ.  This needs a dual the library built (`build_dual`,
    `enumerate_all_orientations` or `dual_sub`): its 1-skeleton is a median
    graph whose hyperplanes are the walls, so the distance between two
    vertices is the number of walls on which they differ (Sageev; Chepoi).
    """
    cc.require_cube(a)
    cc.require_cube(b)
    return ((a.base ^ b.base) & ~(a.mask | b.mask)).bit_count()


def maximal_cubes(cc):
    """All cubes not properly contained in another cube, in ascending
    dimension: (b, W) is maximal when no wall i outside W has a cube
    (b & ~(1<<i), W | 1<<i).  Such a cube has an edge on wall i at b, so
    only the walls of b's edges are tried."""
    out = []
    for wmask, bases in sorted(cc.cells.items(),
                               key=lambda item: item[0].bit_count()):
        walls = frozenset(bits(wmask))
        out += [Cube(b, walls) for b in bases
                if not any(cc.has_cell(b, wmask | 1 << i)
                           for _m, i in cc.adj[b] if not wmask >> i & 1)]
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
    indep |= {w.index for w in ws.walls
              if w.index not in indep and w.left & b_p and w.right & b_p
              and all(transverse(ws, w.index, f) for f in family)}
    m = 0
    for i, w in enumerate(ws.walls):
        if w.index in indep:
            continue
        blockers = [ws.wall(f) for f in family
                    if not transverse(ws, w.index, f)]
        sides = [s for s, h in enumerate(w.halfspaces())
                 if all(h & f.left and h & f.right for f in blockers)]
        if not sides:
            raise OrientationConflict(
                f"wall {w.index} has no side toward "
                f"{[f.index for f in blockers]}")
        # one side toward the blockers, or else the side toward p
        toward_p = bool(w.right & b_p and not w.left & b_p)
        m |= (sides[0] if len(sides) == 1 else toward_p) << i
    cube = Cube(m, frozenset(ws.wall_pos[w] for w in indep)).normalized()
    eng = ws.derived(OrientationEngine)
    for corner in cube.corners():
        if not eng.is_valid(corner):
            raise OrientationConflict(
                f"corner {corner:b} of the associated cube is not a 0-cube")
    return cube


# -- verification ------------------------------------------------------


def verify_npc(cc):
    """Vertex links are simplicial flag complexes; returns a Report (ok,
    violations).

    The link at v has a vertex per edge at v, named by its wall; walls i, j
    are adjacent iff a square on {i, j} has corner v.  Every clique of size
    >= 3, grown in wall-index order, must span a cube at v; one that does
    not is reported and not grown.  Each clique grown is a cell at v and
    costs one `has_cell` lookup per candidate, so the work is at most the
    sum over v of cells(v)·deg(v), bounded by the size of the complex.
    """
    index = [w.index for w in cc.ws.walls]
    violations = []
    for vid, v in enumerate(cc.vertices):
        def extend(clique, candidates):
            for k, i in enumerate(candidates):
                new = clique | 1 << i
                if clique & (clique - 1) and not cc.has_cell(v, new):
                    violations.append({
                        "kind": "MissingCube", "vertex": vid,
                        "walls": sorted(index[j] for j in bits(new))})
                    continue
                extend(new, [j for j in candidates[k + 1:]
                             if cc.has_cell(v, 1 << i | 1 << j)])
        extend(0, sorted((i for _m, i in cc.adj[v]), key=index.__getitem__))
    return Report(ok=not violations, violations=violations)


def contract_loop(cc, loop):
    """Contract a closed edge path to the empty path.

    `loop` is a list of vertex orientation masks with loop[0] == loop[-1].
    Moves: ("backtrack", p) removing edges p, p+1; ("square", p, walls)
    replacing edges p, p+1 across an existing 2-cube.  Raises StuckLoop if no
    move applies (which would falsify simple connectivity).

    No move budget is needed: each pass deletes a backtrack or pushes edge
    q next to edge p, leaving the backtrack (p, p+1) for the next pass, so
    the path is empty within len(loop) passes.
    """
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
        # 2. innermost pair of edges dual to the same wall
        pair = _innermost_pair([_edge_wall(a, b)
                                for a, b in zip(path, path[1:])])
        if pair is None:
            raise StuckLoop("no backtrack and no innermost pair")
        p, q = pair
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
        # edges p and p+1 are now dual to the same wall and share a vertex,
        # so they backtrack; removed on the next iteration
    return moves


def _innermost_pair(walls):
    """The least pair (p, q) of edges on one wall with no wall repeated
    strictly between them, or None: q can only be p's wall's next edge."""
    for p, wall in enumerate(walls):
        inside = set()
        for q in range(p + 1, len(walls)):
            if walls[q] == wall:
                return p, q
            if walls[q] in inside:
                break
            inside.add(walls[q])
    return None


def _edge_wall(u, v):
    d = u ^ v
    if d == 0 or d & (d - 1):
        raise WallcubeError("not a 1-skeleton edge")
    return d.bit_length() - 1
