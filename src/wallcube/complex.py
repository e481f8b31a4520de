"""The cube complex dual to a finite wallspace.

Vertices (0-cubes) are orientations: one chosen halfspace per wall, all
chosen halfspaces pairwise intersecting (including each with itself, which
forces vacuous walls toward X).  Edges join orientations differing on exactly
one wall; an n-cube is added whenever its (n-1)-skeleton is present.
The search that finds the vertices gives each vertex m its up mask, the
walls whose flip from left to right keeps m valid, and the edges are read
off those masks, with no vertex lookup.  The vertices span an induced
subgraph of the hypercube on the wall bits, so an n-cube's (n-1)-skeleton
is present exactly when all 2^n of its corners are vertices; the detector
checks this level by level, an n-cube being present when two opposite
(n-1)-faces are (see `_complete_skeleton`).

Orientations are int bitmasks over wall positions: bit 0 means the wall's
`left` halfspace is chosen, bit 1 means `right`.  Validity is a 2-SAT
instance, one boolean per wall and one 2-clause per disjoint pair of
halfspaces, read off the wallspace's conflict tables
(`wallspace.conflict_tables`, which `max_transverse_families` reads too), so
all valid orientations are enumerated by one search whose work is bounded
by its output (see `enumerate_valid`), the only vertex finder: `build_dual`
reads its vertices from it too.  A complex is its wallspace and its cells
(see `CubeComplex`), and a `Cube` returned to callers is one cell, the pair
(base, wall mask).
"""

from collections import deque, namedtuple
from functools import cached_property

from .errors import (
    NotInComplex,
    StateSpaceCap,
    StuckLoop,
    UnknownPoint,
    WallcubeError,
)
from .metric import bits, flags
from .wallspace import (
    Report,
    betwixt,
    conflict_tables,
    empty_sides,
    open_sides,
    validate,
)

DEFAULT_VERTEX_CAP = 1 << 20


def enumerate_valid(ws, cap):
    """All valid orientation bitmasks m of ws, each with its up mask, as a
    dict m -> up in search order; {} if none.  up is the mask of the walls
    i with bit i clear in m for which m | 1<<i is valid.

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
    one state; it returns {} there.  It raises StateSpaceCap past `cap`
    vertices.

    The up mask of a vertex m is the walls off m and off the forbidden-
    right mask fr at m, read with no further test.  Wall j set left ORs
    c01[j] with its own bit cleared into fr: that bit would forbid the
    right side of j itself, which no step reads, as a set wall is neither
    forced nor tested on its other side.  So at a vertex m, bit i of fr,
    for i clear in m, is set exactly when the right side V of i is empty
    (the start) or disjoint from the side m chooses on some wall j != i.
    Flipping i changes only the pairs holding i, so m | 1<<i is valid
    exactly when V is nonempty and meets the side m chooses on every
    j != i: exactly when bit i of fr is clear.
    """
    (c00, c01), (c10, c11) = ws.derived(conflict_tables)
    c01 = [c & ~(1 << j) for j, c in enumerate(c01)]
    fullw = (1 << len(ws.walls)) - 1
    out = {}
    # empty sides are forbidden from the start
    fl, fr = ws.derived(empty_sides)
    stack = [(0, 0, fl, fr)]
    died = False  # the state popped before this one died
    while stack:
        a, m, fl, fr = stack.pop()
        while not (fl & a & ~m) | (fr & m):
            free = fullw & ~a
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
                    raise StateSpaceCap(f"vertex budget {cap} exceeded")
                out[m] = fullw & ~(m | fr)
                break
        else:
            # dead; two in a row before any vertex: unsatisfiable
            if died and not out:
                return {}
            died = True
            continue
        died = False
    return out


def _corners(base, wmask):
    """The corners base | s of the cube (base, wmask), s running over the
    submasks of wmask in ascending order."""
    s = 0
    while True:
        yield base | s
        s = (s - wmask) & wmask
        if not s:
            return


class Cube(namedtuple("Cube", "base mask")):
    """A cube of the dual complex, as returned to callers.

    `mask` is the bitmask of the positions of its independent walls;
    `base` is the corner orientation with every independent wall on its
    left side (those bits cleared).  The 2^dim corners are base | (any
    submask of `mask`).
    """

    __slots__ = ()

    @property
    def dim(self):
        return self.mask.bit_count()

    @property
    def walls(self):
        """The positions of its independent walls, ascending."""
        return bits(self.mask)

    def corners(self):
        return _corners(self.base, self.mask)


class CubeComplex:
    """Immutable dual cube complex: a wallspace `ws`, over whose wall
    positions every mask runs, and its cells.

    `cells` is its one cube store: wall mask W -> set of bases b, each pair
    (b, W) the cube with corners b | (any subset of W), every bit of W
    cleared in b.  The empty mask holds the vertices and the one-bit masks
    the edges.  `vertices` (sorted) and `vid` are read off it at
    construction, `edges` on each read and `adj` on the first.
    """

    def __init__(self, ws, cells):
        self.ws = ws
        self.cells = cells
        self.vertices = sorted(cells[0])
        self.vid = {m: i for i, m in enumerate(self.vertices)}
        cells[0] = self.vid.keys()  # the vertex set, held once

    @cached_property
    def adj(self):
        """m -> [(neighbour, wall position)], in ascending wall order."""
        adj = {m: [] for m in self.vertices}
        for i in range(len(self.ws.walls)):
            bit = 1 << i
            for b in self.cells.get(bit, ()):
                adj[b].append((b | bit, i))
                adj[b | bit].append((b, i))
        return adj

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

    def nvertices(self):
        return len(self.vertices)

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
        n = len(self.ws.walls)
        verts = [{"id": i, "orientation": list(flags(m, n))}
                 for i, m in enumerate(self.vertices)]
        edges = [{"u": self.vid[u], "v": self.vid[v], "wall": index[w]}
                 for u, v, w in self.edges]
        # per wall mask: its positions (the sort key), its wall indices and
        # its corner offsets, ascending; `vid` grows with the mask, so the
        # corners' ids come out ascending
        masks = {wmask: (bits(wmask), sorted(index[w] for w in bits(wmask)),
                         list(_corners(0, wmask)))
                 for wmask in self.cells if wmask.bit_count() >= 2}
        cubes = sorted((len(key[0]), b, key)
                       for wmask, key in masks.items()
                       for b in self.cells[wmask])
        vid = self.vid
        cubes = [{"dim": k, "walls": walls.copy(),
                  "vertices": [vid[b | s] for s in subs]}
                 for k, b, (_pos, walls, subs) in cubes]
        return {"vertices": verts, "edges": edges, "cubes": cubes}


# -- construction ------------------------------------------------------


def _complete_skeleton(up):
    """Sageev's skeleton completion: every k-cube whose (k-1)-skeleton is
    present.  `up` maps each vertex m to its up mask, the walls i with bit
    i clear in m and m | 1<<i a vertex (see `enumerate_valid`).  Returns
    the cells, wall mask -> set of bases (see CubeComplex), level by
    level: the vertices, the edges read off the up masks, then each
    k >= 2.

    The vertex set is an induced subgraph of the hypercube on the wall
    bits, so an edge is present exactly when both its ends are vertices,
    and by induction a k-cube's boundary is present exactly when all 2^k
    of its corners are vertices (each face's corners are corners of the
    cube, and each corner lies on some face).  A k-cube (m, W | 1<<i),
    with i above the highest bit of W, has as corners those of the two
    opposite faces (m, W) and (m | 1<<i, W); so level k is read off level
    k-1 by checking that pair, and each cube is reached once, from its
    highest wall.

    Cubes are (base, wall mask) int pairs, every wall bit cleared in base.
    """
    # level: wall mask -> bases of the cubes of the current dimension
    level = {}
    for m, u in up.items():
        for i in bits(u):
            level.setdefault(1 << i, set()).add(m)
    cells = {0: up.keys(), **level}
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
    walls cover X, it chooses sides that all hold p (see
    `canonical_cube`).
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
    `enumerate_valid`; on any input, valid or not, and with no vertex when
    no orientation is valid.  Raises StateSpaceCap past `vertex_cap`
    vertices."""
    return CubeComplex(ws, _complete_skeleton(enumerate_valid(ws, vertex_cap)))


# -- canonical cubes and distance -------------------------------------


def canonical_cube(ws, x):
    """The cube of x: betwixting walls independent, all others toward x
    (Haglund–Paulin; Sageev).

    Toward x, a wall takes its right side V exactly when x ∉ U and
    (x ∈ V or U = ∅): the side holding x, the left one on a tie, and on a
    wall missing x (no cover) its nonempty side.  Off the betwixting walls
    those are the walls with x in V ∖ U, which is `sr` of x's
    `open_sides` pair, and the walls with U = ∅ (the left of
    `empty_sides`); a betwixting wall has x ∈ U, so its bit is clear, as
    the base of a cube needs.  So the cube is read off the wallspace's
    derived masks in a few mask operations: base sr | (U = ∅), free walls
    `betwixt` of x.
    """
    pos = ws.point_pos(x)
    return Cube(ws.derived(open_sides)[pos][1] | ws.derived(empty_sides)[0],
                ws.derived(betwixt)[pos])


def cube_distance(cc, a, b):
    """Min 1-skeleton distance between corners of cubes a and b.

    The popcount of the walls outside both cubes on which their bases
    differ.  This needs a dual the library built (`build_dual`,
    `enumerate_all_orientations` or `dual_sub`): its 1-skeleton is a median
    graph whose hyperplanes are the walls, so the distance between two
    vertices is the number of walls on which they differ (Sageev; Chepoi).
    """
    wa, wb = a.mask, b.mask
    if not cc.has_cell(a.base, wa):
        raise NotInComplex(a)
    if not cc.has_cell(b.base, wb):
        raise NotInComplex(b)
    return ((a.base ^ b.base) & ~(wa | wb)).bit_count()


def maximal_cubes(cc):
    """All cubes not properly contained in another cube, in ascending
    dimension: (b, W) is maximal when no wall i outside W has a cube
    (b & ~(1<<i), W | 1<<i).  Such a cube has an edge on wall i at b, so
    only the bits of link[b] & ~W are tried, link[b] being the mask of the
    walls of b's edges."""
    cells = cc.cells
    link = {m: sum(1 << i for _n, i in nbrs) for m, nbrs in cc.adj.items()}
    out = []
    for wmask, bases in sorted(cells.items(),
                               key=lambda item: item[0].bit_count()):
        for b in bases:
            free = link[b] & ~wmask
            while free:
                bit = free & -free
                if b & ~bit in cells.get(wmask | bit, ()):
                    break
                free ^= bit
            else:
                out.append(Cube(b, wmask))
    return out


# -- verification ------------------------------------------------------


def verify_npc(cc):
    """Vertex links are simplicial flag complexes; returns a Report (ok,
    violations).

    The link at v has a vertex per edge at v, named by its wall; walls i, j
    are adjacent iff a square on {i, j} has corner v.  Every clique of size
    >= 3, grown in wall-index order, must span a cube at v; one that does
    not is reported and not grown.  The link walls are ranked by wall
    index, and nb[r] is the mask of the ranks above r adjacent to r, read
    with one lookup per pair; a clique's candidates are then those of its
    parent ANDed with nb of its last rank, and each clique of size >= 3
    tried costs one lookup.  So the work is the sum over v of C(deg v, 2)
    plus the cells of dimension >= 3 at v, and one lookup per violation.
    """
    index = [w.index for w in cc.ws.walls]
    cells = cc.cells
    violations = []
    for vid, v in enumerate(cc.vertices):
        link = [1 << i for i in sorted((i for _m, i in cc.adj[v]),
                                       key=index.__getitem__)]
        nb = []
        for r, a in enumerate(link):
            mask = 0
            for s in range(r + 1, len(link)):
                w = a | link[s]
                if v & ~w in cells.get(w, ()):
                    mask |= 1 << s
            nb.append(mask)

        def extend(clique, cand):
            while cand:
                low = cand & -cand
                cand ^= low
                r = low.bit_length() - 1
                new = clique | link[r]
                if v & ~new in cells.get(new, ()):
                    extend(new, cand & nb[r])
                else:
                    violations.append({
                        "kind": "MissingCube", "vertex": vid,
                        "walls": sorted(index[j] for j in bits(new))})
        # the cliques of size 2 are the squares at v, each grown by its
        # common neighbours of higher rank
        for r, a in enumerate(link):
            rest = nb[r]
            while rest:
                low = rest & -rest
                rest ^= low
                s = low.bit_length() - 1
                extend(a | link[s], rest & nb[s])
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
        # 2. innermost pair of edges dual to the same wall; every step
        #    differs in one bit, checked above and kept by square swaps,
        #    so an edge's wall is the position of that bit
        pair = _innermost_pair([(a ^ b).bit_length() - 1
                                for a, b in zip(path, path[1:])])
        if pair is None:
            raise StuckLoop("no backtrack and no innermost pair")
        p, q = pair
        # push edge q leftward with square swaps until adjacent to edge p
        while q > p + 1:
            u, mid, v = path[q - 1], path[q], path[q + 1]
            w1, w2 = (u ^ mid).bit_length() - 1, (mid ^ v).bit_length() - 1
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

