"""Cayley-ball wallspaces with H-walls for concrete group families.

Supported groups have exact normal forms, and the library multiplies only
normal forms, so a product cancels only at the junction of its factors:

  * FreeAbelian(d): elements are integer tuples, generators ±e_i, L1 length.
  * Free(rank):     elements are reduced words over a, b, ... with inverses
                    written as uppercase letters.
  * FreeProduct:    syllable sequences over the factors.

A ball's word metric is the breadth-first path metric of its Cayley graph,
exact because the ball is geodesically convex (see `CayleyBall`).

Everything built from a ball is truncated to the ball, and every truncation
effect is reported, never silently passed.
"""

from functools import reduce
from itertools import combinations, repeat
from operator import add, neg

from .complex import _corners, canonical_cube
from .errors import (
    NotAnAutomorphism,
    ParseError,
    StateSpaceCap,
    UnknownGenerator,
    WallcubeError,
)
from .hemi import induce_hemi
from .io import INT, field, one_of
from .metric import Metric, bits, components
from .wallspace import MAX_POINTS, Report, Wall, Wallspace

TRUNCATION_CAVEAT = ("all conclusions are radius-limited: computed on a "
                     "finite ball of an infinite group")

# group products an H-wall system may take (see generate_hwall_system)
MAX_PRODUCTS = 1 << 22


# -- group families ----------------------------------------------------


class FreeAbelian:
    kind = "FreeAbelian"

    def __init__(self, d):
        if d < 1:
            raise WallcubeError("need d >= 1")
        # the radius-1 ball, 2d + 1 elements, fits the point cap
        if d > (MAX_POINTS - 1) // 2:
            raise WallcubeError(f"need d <= {(MAX_POINTS - 1) // 2}")
        self.d = d

    def identity(self):
        return (0,) * self.d

    def generators(self):
        return [tuple(sign * (k == i) for k in range(self.d))
                for i in range(self.d) for sign in (1, -1)]

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def length(self, a):
        return sum(map(abs, a))

    def name(self, a):
        return "(" + ",".join(str(x) for x in a) + ")"

    def to_dict(self):
        return {"kind": self.kind, "d": self.d}


class Free:
    kind = "Free"

    def __init__(self, rank):
        if rank < 1 or rank > 26:
            raise WallcubeError("need 1 <= rank <= 26")
        self.rank = rank
        self.letters = "abcdefghijklmnopqrstuvwxyz"[:rank]

    def identity(self):
        return ""

    def generators(self):
        return [c for c in self.letters] + [c.upper() for c in self.letters]

    def mul(self, a, b):
        """Product of two reduced words: only the junction cancels."""
        if not (a and b and a[-1] == b[0].swapcase()):
            return a + b
        k, n = 1, min(len(a), len(b))
        while k < n and a[-1 - k] == b[k].swapcase():
            k += 1
        return a[:-k] + b[k:]

    def inv(self, a):
        return "".join(c.swapcase() for c in reversed(a))

    def length(self, a):
        return len(a)

    def name(self, a):
        return a if a else "1"

    def to_dict(self):
        return {"kind": self.kind, "rank": self.rank}


class FreeProduct:
    """Free product of the given factor specs; elements are tuples of
    syllables (factor position, factor element)."""

    kind = "FreeProduct"

    def __init__(self, factors):
        if len(factors) < 2:
            raise WallcubeError("need at least two factors")
        self.factors = list(factors)

    def identity(self):
        return ()

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                gens.append(((i, g),))
        return gens

    def mul(self, a, b):
        """Product of two normal forms: syllables of one factor meet only at
        the junction, and a merge that is not the identity stops it."""
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            f = self.factors[b[j][0]]
            merged = f.mul(a[i - 1][1], b[j][1])
            i, j = i - 1, j + 1
            if merged != f.identity():
                return a[:i] + ((b[j - 1][0], merged),) + b[j:]
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple((i, self.factors[i].inv(g)) for i, g in reversed(a))

    def length(self, a):
        return sum(self.factors[i].length(g) for i, g in a)

    def name(self, a):
        """Syllables `i:name` joined by `*`; the name of a syllable in a
        factor that is itself a free product is bracketed, so that its
        own `*` cannot be read as one of this product's."""
        if not a:
            return "1"
        return "*".join(
            f"{i}:({self.factors[i].name(g)})"
            if isinstance(self.factors[i], FreeProduct)
            else f"{i}:{self.factors[i].name(g)}" for i, g in a)

    def to_dict(self):
        return {"kind": self.kind,
                "factors": [f.to_dict() for f in self.factors]}


def group_from_dict(d, path="group"):
    """The group spec of a document; a missing or out-of-range field is a
    ParseError naming its `path`."""
    kind = field(d, "kind", f"{path}.kind",
                 one_of("FreeAbelian", "Free", "FreeProduct"))
    if kind == "FreeProduct":
        factors = field(d, "factors", f"{path}.factors", (
            lambda x: isinstance(x, list) and len(x) >= 2,
            "a list of at least two groups"))
        return FreeProduct([group_from_dict(f, f"{path}.factors[{k}]")
                            for k, f in enumerate(factors)])
    make, key = (FreeAbelian, "d") if kind == "FreeAbelian" else (Free, "rank")
    size = field(d, key, f"{path}.{key}", INT)
    try:
        return make(size)
    except WallcubeError as exc:
        raise ParseError(f"{path}.{key}: {exc}") from None


# -- Cayley balls ------------------------------------------------------


class CayleyBall:
    """Ball of given radius in the word metric, with its Cayley-graph edges
    (element pairs `steps`).  The metric is their breadth-first path metric,
    which is the word metric because the ball is geodesically convex: in a
    free group it is a subtree; in ℤᵈ (L1) a geodesic can take all of its
    norm-decreasing steps first; in a free product a geodesic passes
    through the common prefix one syllable at a time, inside each factor's
    (convex) ball."""

    def __init__(self, spec, radius, elements, steps):
        self.spec = spec
        self.radius = radius
        self.elements = elements  # sorted by (length, name)
        self.names = [spec.name(g) for g in elements]
        self.by_name = {n: i for i, n in enumerate(self.names)}
        if len(self.by_name) != len(self.names):
            shared = next(n for i, n in enumerate(self.names)
                          if self.by_name[n] != i)
            raise WallcubeError(f"two elements of the ball are named "
                                f"{shared!r}")
        self.by_elem = by_elem = {g: i for i, g in enumerate(elements)}
        edges = sorted((by_elem[g], by_elem[h], 1) for g, h in steps)
        self.metric = Metric.from_edges(len(elements), edges)

    def image(self, g):
        """For each ball index i, the index of g·xᵢ, or None where that
        leaves the ball: the left action of g, one product per point."""
        mul, index = self.spec.mul, self.by_elem.get
        return [index(mul(g, x)) for x in self.elements]

    def mask_of(self, pred):
        return sum(1 << i for i, g in enumerate(self.elements) if pred(g))


def cayley_ball(spec, radius):
    """Breadth-first search, one product per (inner element, generator): a
    generator changes every length by exactly one, so each edge joins two
    consecutive spheres and is found from its inner end.  Raises
    StateSpaceCap before the ball grows past MAX_POINTS elements."""
    if radius < 0:
        raise WallcubeError("radius must be >= 0")
    gens = spec.generators()
    seen = {spec.identity()}
    frontier = [spec.identity()]
    steps = []
    for _ in range(radius):
        nxt = {}
        for g in frontier:
            for s in gens:
                h = spec.mul(g, s)
                if h not in seen:
                    if len(seen) >= MAX_POINTS:
                        raise StateSpaceCap(
                            f"cayley ball exceeds cap {MAX_POINTS}")
                    seen.add(h)
                    nxt[h] = None
                if h in nxt:
                    steps.append((g, h))
        frontier = list(nxt)
    elements = sorted(seen, key=lambda g: (spec.length(g), spec.name(g)))
    return CayleyBall(spec, radius, elements, steps)


# -- subgroups ---------------------------------------------------------


class CoordinateSubgroup:
    """<e_j : j in coords> inside FreeAbelian(d)."""

    def __init__(self, spec, coords):
        self.spec = spec
        self.coords = set(coords)

    def contains(self, g):
        return all(x == 0 for i, x in enumerate(g) if i not in self.coords)


class CyclicSubgroup:
    """<w> inside a free group; w is reduced here, once, letter by letter."""

    def __init__(self, spec, word):
        self.spec = spec
        if spec.kind != "Free" or not isinstance(word, str) or \
                not set(word) <= set(spec.generators()):
            raise WallcubeError(f"{word!r} is no word of {spec.to_dict()}")
        self.word = reduce(spec.mul, word, spec.identity())
        if not self.word:
            raise WallcubeError(f"{word!r} reduces to the identity")

    def contains(self, g):
        if g == self.spec.identity():
            return True
        for w in (self.word, self.spec.inv(self.word)):
            h = self.spec.identity()
            while self.spec.length(h) <= self.spec.length(g):
                h = self.spec.mul(h, w)
                if h == g:
                    return True
        return False


class FreeFactorSubgroup:
    """One free factor of a FreeProduct."""

    def __init__(self, spec, factor):
        self.spec = spec
        self.factor = factor

    def contains(self, g):
        return len(g) == 0 or (len(g) == 1 and g[0][0] == self.factor)


# -- H-walls -----------------------------------------------------------


class HWallSpec:
    """A subgroup plus an assignment rule deciding sides on the full group.

    Rules:
      "coordinate" (FreeAbelian, axis k): U = {x_k <= 0}, V = {x_k >= 0};
          carrier = the coordinate hyperplane x_k = 0.
      "branch" (Free(2), H = <letter>): after stripping the leading power of
          the axis letter, words whose next letter is the other generator go
          to U, its inverse to V; the axis itself is the carrier.
    """

    def __init__(self, subgroup, rule, axis=None, index=None):
        self.subgroup = subgroup
        self.rule = rule
        self.axis = axis
        self.index = index
        if rule not in ("coordinate", "branch"):
            raise UnknownGenerator(rule)

    def side(self, g):
        """'L' (left only), 'R' (right only) or 'B' (both) for a full-group
        element."""
        if self.rule == "coordinate":
            x = g[self.axis]
            if x == 0:
                return "B"
            return "L" if x < 0 else "R"
        # branch rule on a free group
        axis = self.axis  # the subgroup's letter, e.g. "a"
        rest = g.lstrip(axis + axis.upper())
        if not rest:
            return "B"
        return "L" if rest[0].islower() else "R"

    def key(self, t):
        """t's coset of the carrier (see `generate_hwall_system`): its axis
        coordinate, or t with trailing powers of the axis letter stripped."""
        if self.rule == "coordinate":
            return t[self.axis]
        return t.rstrip(self.axis + self.axis.upper())


def build_hwall(ball, hw):
    """The H-wall truncated to the ball, with its `_hwall_report`."""
    u, v = _translate(ball, hw, ball.spec.identity())
    return Wall(hw.index or 0, u, v), \
        _hwall_report(ball, u, v, _h_members(ball, hw.subgroup))


def _hwall_report(ball, u, v, hmembers):
    """The H-wall's conformance Report for the Def 2.8-style conditions,
    checked on the computable portion.  Each element of H ∩ ball
    (`hmembers`) acts on the ball once, by `CayleyBall.image`."""
    images = [ball.image(ball.elements[h]) for h in hmembers]
    violations = []
    for h, img in zip(hmembers, images):
        for i, j in enumerate(img):
            if j is not None and (u >> i ^ u >> j | v >> i ^ v >> j) & 1:
                violations.append({"h": ball.names[h], "g": ball.names[i]})
    carrier_orbits = _orbit_count(images, bits(u & v))
    frontier_orbits = {}
    for tag, side in (("U", u), ("V", v)):
        fr = ball.metric.frontier(side)
        frontier_orbits[tag] = _orbit_count(images, bits(fr))
    # side-swapping elements of H (the index-2 coset of the side stabilizer)
    if any(_swaps_sides(img, u, v) for img in images):
        hdotdot = "violated" if violations else "verified (side-swappers present)"
    else:
        hdotdot = "vacuous at this radius (no side-swapping element in ball)"
    return Report(
        cut=("invariance_violations", 10),
        ok=not violations,
        invariance_violations=violations,
        carrier_orbits=carrier_orbits,
        frontier_orbits=frontier_orbits,
        hdotdot_status=hdotdot,
        caveat=TRUNCATION_CAVEAT,
    )


_IN_LEFT = str.maketrans("LRB", "101")
_IN_RIGHT = str.maketrans("LRB", "011")


def _translate(ball, hw, t):
    """The halfspace masks (U, V) of the H-wall's translate by t, truncated
    to the ball: x lies in tU when t⁻¹x is on the left of hw or on both
    sides, in tV when it is on the right or on both.  Point i is bit i of
    each mask, hence the reversed side string."""
    sides = "".join(map(hw.side, map(ball.spec.mul, repeat(ball.spec.inv(t)),
                                     ball.elements)))[::-1]
    return int(sides.translate(_IN_LEFT), 2), \
        int(sides.translate(_IN_RIGHT), 2)


def _h_members(ball, subgroup):
    """The indices of H ∩ ball but the identity (index 0, the one element
    of length 0)."""
    return [i for i, g in enumerate(ball.elements)
            if i and subgroup.contains(g)]


def _swaps_sides(img, u, v):
    for i in bits(u & ~v):
        j = img[i]
        if j is not None:
            return bool((v & ~u) >> j & 1)
    return False


def _orbit_count(images, indices, glue=()):
    """Partial H-orbit count of the given ball indices, H acting by its
    ball `images`; the indices of each bitmask in `glue` count as one."""
    mask = sum(1 << i for i in indices)
    adj = dict.fromkeys(indices, 0)
    for img in images:
        for i in indices:
            j = img[i]
            if j is not None and mask >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for piece in glue:
        for i in bits(piece):
            adj[i] |= piece
    return len(components(adj, mask))


def generate_hwall_system(ball, hwall_specs):
    """Wallspace on the ball with all ball-translates of the given H-walls,
    truncated to the ball, and its bookkeeping, a Report.

    A rule's carrier C = {y : side(y) = "B"}, {y_k = 0} or <axis>, is the
    stabiliser of `side`, so the translate tW has carrier tC and depends
    only on t's `key`, its coset tC: one wall is built per (spec, key),
    from the first t of the key in ball order (W itself for the identity).
    Keys of ball elements have disjoint carriers, each holding its own t,
    so their truncated translates differ, and gtW is the wall of gt's key,
    sides unswapped, when that key has one; a key with no wall has its
    carrier outside the ball.  A translate, and the ball's image under each
    element of H ∩ ball but 1 (the report's checks share them), takes a
    product per point:
    StateSpaceCap is raised at the first spec that takes that count past
    MAX_PRODUCTS, before any translate or image.

    The bookkeeping holds `wall_info` (index -> (spec position, ball index
    of t)), `wall_of` ((spec position, key) -> index), `specs` and
    `reports` (each H-wall's `build_hwall` Report, as a dict).
    """
    wall_of, wall_info, hmembers = {}, {}, []
    for pos, hw in enumerate(hwall_specs):
        for i, t in enumerate(ball.elements):
            idx = wall_of.setdefault((pos, hw.key(t)), len(wall_of))
            wall_info.setdefault(idx, (pos, i))
        hmembers.append(_h_members(ball, hw.subgroup))
        products = (len(wall_of) + sum(map(len, hmembers))) * \
            len(ball.elements)
        if products > MAX_PRODUCTS:
            raise StateSpaceCap(f"H-wall system needs at least {products} "
                                f"group products, exceeds cap {MAX_PRODUCTS}")
    walls = [Wall(idx, *_translate(ball, hwall_specs[pos], ball.elements[i]))
             for idx, (pos, i) in wall_info.items()]
    one = ball.elements[0]
    reports = [
        _hwall_report(ball, *walls[wall_of[pos, hw.key(one)]].halfspaces(),
                      hm).to_dict()
        for pos, (hw, hm) in enumerate(zip(hwall_specs, hmembers))]
    ws = Wallspace(ball.names, walls, metric=ball.metric)
    return ws, Report(wall_info=wall_info, wall_of=wall_of,
                      specs=list(hwall_specs), reports=reports)


# -- codimension-1 analysis -------------------------------------------


def codim_one_analysis(ball, subgroup, d):
    """Components of ball minus N_d(H ∩ ball), with the radius-limited
    deep-component heuristic: a component is deep when it touches the
    boundary sphere of the ball."""
    hmembers = _h_members(ball, subgroup)
    images = [ball.image(ball.elements[h]) for h in hmembers]
    # H ∩ ball holds the identity
    removed = ball.metric.ball(sum(1 << h for h in hmembers) | 1, d)
    adj = ball.metric.adjacency()
    keep = ((1 << len(ball.elements)) - 1) & ~removed
    comps = components(adj, keep)  # ordered by lowest element
    spec = ball.spec
    out = []
    deep = []
    for ci, comp in enumerate(comps):
        members = bits(comp)
        is_deep = any(spec.length(ball.elements[i]) == ball.radius
                      for i in members)
        frontier = [i for i in members if adj[i] & removed]
        out.append({"id": ci, "size": len(members), "deep": is_deep,
                    "frontier_size": len(frontier),
                    "frontier_orbits": _orbit_count(images, frontier)})
        if is_deep:
            deep.append(comp)
    # partial H-orbit classes of deep components
    classes = _orbit_count(images, bits(sum(deep)), glue=deep)
    return {"d": d, "n_components": len(comps),
            "n_deep": len(deep), "deep_orbit_classes": classes,
            "components": out, "caveat": TRUNCATION_CAVEAT}


# -- actions -----------------------------------------------------------


class ActionMap:
    """Left multiplication by a group element, restricted to a ball, as
    partial maps of its point positions and (given a wall system's
    bookkeeping) wall positions.  `check` is its one consistency check."""

    def __init__(self, point_map, wall_map, forced_bits=None,
                 domain_bits=None):
        self.point_map = dict(point_map)    # point position -> position
        self.wall_map = dict(wall_map)      # wall position -> position
        # wall position -> side: forced on an image wall whose preimage
        # truncates to vacuous, and, as a domain bit, the side a vertex
        # must choose to have an image (the other maps outside the ball)
        self.forced_bits = dict(forced_bits or {})
        self.domain_bits = dict(domain_bits or {})

    @classmethod
    def from_element(cls, ball, g, meta):
        """The action of g on the ball and on the walls of an H-wall system
        (`meta`, its bookkeeping): tW goes to the wall of gt's key, sides
        unswapped.  A key with no wall has its carrier sC outside the ball
        (see `generate_hwall_system`), so sW truncates to vacuous: a ball
        point x lies on the side of s⁻¹x, which is never B, and changes
        between L and R only through sC along a Cayley-graph edge (left
        multiplication keeps edges); the ball is connected, so every x lies
        on the side of the identity, `side(s⁻¹)`, one evaluation.  For
        s = gt that side is a domain bit; for s = g⁻¹t, whose key has a
        wall exactly when tW is a wall's image, it is the side forced on
        tW, the side every ball vertex orients it to."""
        spec, ginv = ball.spec, ball.spec.inv(g)
        pm = {i: j for i, j in enumerate(ball.image(g)) if j is not None}
        wm, forced, dom_bits = {}, {}, {}
        for idx, (pos, i) in meta.wall_info.items():
            hw, t = meta.specs[pos], ball.elements[i]
            for h, out in ((g, dom_bits), (ginv, forced)):
                s = spec.mul(h, t)
                j = meta.wall_of.get((pos, hw.key(s)))
                if j is None:
                    out[idx] = int(hw.side(spec.inv(s)) == "R")
                elif out is dom_bits:
                    wm[idx] = j
        return cls(pm, wm, forced, dom_bits)

    def check(self, ws):
        """Raise NotAnAutomorphism on any inconsistency on the domain; what
        it checks implies the rest (see `verify_equivariance`).  The
        witness names the points and the wall indices."""
        if len(set(self.point_map.values())) != len(self.point_map):
            raise NotAnAutomorphism("point map not injective")
        names = ws.points
        if ws.metric is not None:
            d = ws.metric.d
            for x, y in combinations(self.point_map, 2):
                dxy, dgxy = d(x, y), d(self.point_map[x], self.point_map[y])
                if dxy != dgxy:
                    raise NotAnAutomorphism({"pair": [names[x], names[y]],
                                             "d": dxy, "d_image": dgxy})
        for i, j in self.wall_map.items():
            wi, wj = ws.walls[i], ws.walls[j]
            for x, gx in self.point_map.items():
                if (wi.left >> x ^ wj.left >> gx |
                        wi.right >> x ^ wj.right >> gx) & 1:
                    raise NotAnAutomorphism({"wall": wi.index,
                                             "image": wj.index,
                                             "point": names[x]})


def verify_equivariance(ws, action, cc):
    """Check the action is a partial automorphism of the wallspace and that
    its vertex map is a complex isomorphism on the subcomplex where total;
    returns a Report (ok, domain_vertices, preserved_edges, violations).

    `action.check` is the wallspace part, and separation counts need no
    recount after it.  For each mapped wall i -> j and each mapped point x,
    `check` compares x ∈ W_i.left with gx on the left of W_j and x ∈
    W_i.right with gx on the right, so x lies in an open side of W_i
    exactly when gx lies in the matching open side of W_j: W_i separates
    x, y exactly when W_j separates gx, gy, and the two counts over the
    mapped walls agree wall by wall.
    """
    action.check(ws)
    violations = []
    # the vertex map: a wall that is no mapped wall's image takes its
    # forced side, or, with no image information, keeps its side
    targets = sum({1 << j for j in action.wall_map.values()})
    forced = action.forced_bits
    keep = (1 << ws.nwalls()) - 1 & ~targets & ~sum(1 << p for p in forced)
    ones = sum(1 << p for p, s in forced.items() if s) & ~targets
    domain = {}
    for m in cc.vertices:
        if any((m >> pos) & 1 != s for pos, s in action.domain_bits.items()):
            continue  # image falls outside the truncated system
        img = m & keep | ones
        for pos, j in action.wall_map.items():
            img |= (m >> pos & 1) << j
        if img in cc.vid:
            domain[m] = img
    if len(set(domain.values())) != len(domain):
        violations.append({"kind": "NotInjective"})
    preserved = 0
    for u, v, w in cc.edges:
        if u in domain and v in domain and w in action.wall_map:
            d = domain[u] ^ domain[v]
            if d == 1 << action.wall_map[w]:
                preserved += 1
            else:
                violations.append({"kind": "EdgeNotPreserved",
                                   "edge": [cc.vid[u], cc.vid[v]]})
    return Report(cut=("violations", 10), ok=not violations,
                  domain_vertices=len(domain), preserved_edges=preserved,
                  violations=violations)


# -- relative cocompactness -------------------------------------------


def rel_cocompact_check(ws, cc, peripheries, variant, m=None):
    """Depth-partition of all cubes against peripheral hemiwallspaces, as a
    Report.

    Depth of a cube = min distance to a canonical cube of a ground point.
    Cubes of depth >= m must be represented in exactly one periphery;
    peripheral subcomplexes must pairwise intersect inside the depth-< m
    part.  A periphery's subcomplex is its represented 0-cubes.

    None is empty on a covering wallspace, such as an H-wall system.  If
    retained halfspaces A of wall i and B of wall j were disjoint, B would
    lie in i's other side, which the rules, monotone in the halfspace, then
    retain too: i keeps both sides, and likewise j.  So a fixed side meets
    every retained halfspace, and for any point x the fixed sides with the
    sides of the free walls holding x pairwise intersect: a 0-cube (Sageev
    1995) that the periphery represents.
    """
    seeds = set()
    for p in ws.points:
        seeds.update(canonical_cube(ws, p).corners())
    vdepth = cc.bfs_distances(sorted(seeds))
    hemis = [induce_hemi(ws, P, variant) for P in peripheries]
    # every cell (base, wall mask) by dimension, base and mask: the
    # 0-cells first, in vertex order, then the edges in edge order
    cells = sorted((wmask.bit_count(), b, wmask)
                   for wmask, bases in cc.cells.items() for b in bases)
    info = [(dim, min(vdepth[v] for v in _corners(b, wmask)),
             [k for k, h in enumerate(hemis) if h.represents(b, wmask)])
            for dim, b, wmask in cells]
    uncovered = [depth for _d, depth, reps in info if not reps]
    least_m = (max(uncovered) + 1) if uncovered else 0
    if m is None:
        m = least_m
    k_part = sum(1 for _d, depth, _r in info if depth < m)
    unique = sum(1 for _d, depth, reps in info
                 if depth >= m and len(reps) == 1)
    coverage = [{"dim": dim, "depth": depth}
                for dim, depth, reps in info if depth >= m and not reps]
    isolation = [{"dim": dim, "depth": depth, "peripheries": reps}
                 for dim, depth, reps in info if depth >= m and len(reps) > 1]
    # by periphery pair, then in vertex order
    inter_wit = [{"peripheries": [a, b], "vertex": cc.vid[v],
                  "depth": vdepth[v]}
                 for a, b in combinations(range(len(hemis)), 2)
                 for v in cc.vertices if vdepth[v] >= m
                 and hemis[a].represents(v, 0) and hemis[b].represents(v, 0)]
    return Report(
        cut=("intersection_witnesses", 20),
        m=m, least_m=least_m, k_part=k_part, unique=unique,
        coverage_violations=coverage, isolation_violations=isolation,
        intersection_ok=not inter_wit,
        intersection_witnesses=inter_wit, caveat=TRUNCATION_CAVEAT)
