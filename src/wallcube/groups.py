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

from .complex import canonical_cube
from .errors import (
    NotAnAutomorphism,
    ParseError,
    StateSpaceCap,
    UnknownGenerator,
    WallcubeError,
)
from .hemi import induce_hemi, represented_in
from .io import INT, field, one_of
from .metric import Metric, bits, components
from .wallspace import MAX_POINTS, Report, Wall, Wallspace

TRUNCATION_CAVEAT = ("all conclusions are radius-limited: computed on a "
                     "finite ball of an infinite group")

# group products an H-wall system may take, |specs|·|ball|²
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


def build_hwall(ball, hw):
    """The H-wall truncated to the ball, with a conformance Report for the
    Def 2.8-style conditions, checked on the computable portion (its
    `coverage_ok` is always true, see `generate_hwall_system`).  Each
    element of H ∩ ball acts on the ball once, by `CayleyBall.image`."""
    u, v = _translate(ball, hw, ball.spec.identity())
    hmembers, images = _h_images(ball, hw.subgroup)
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
    rep = Report(
        cut=("invariance_violations", 10),
        ok=not violations,
        coverage_ok=True,
        invariance_violations=violations,
        carrier_orbits=carrier_orbits,
        frontier_orbits=frontier_orbits,
        hdotdot_status=hdotdot,
        caveat=TRUNCATION_CAVEAT,
    )
    return Wall(hw.index or 0, u, v), rep


_IN_LEFT = str.maketrans("LRB", "101")
_IN_RIGHT = str.maketrans("LRB", "011")


def _translate(ball, hw, t_inv):
    """The halfspace masks (U, V) of the H-wall's translate by t, truncated
    to the ball: x lies in tU when t⁻¹x is on the left of hw or on both
    sides, in tV when it is on the right or on both.  Point i is bit i of
    each mask, hence the reversed side string."""
    sides = "".join(map(hw.side, map(ball.spec.mul, repeat(t_inv),
                                     ball.elements)))[::-1]
    return int(sides.translate(_IN_LEFT), 2), \
        int(sides.translate(_IN_RIGHT), 2)


def _h_images(ball, subgroup):
    """The indices of H ∩ ball but the identity (index 0, the one element
    of length 0), and the ball's image under each."""
    hmembers = [i for i, g in enumerate(ball.elements)
                if i and subgroup.contains(g)]
    return hmembers, [ball.image(ball.elements[h]) for h in hmembers]


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
    and its bookkeeping, a Report.

    Translate walls {gU, gV} are truncated to the ball, and equal ones are
    collapsed by (halfspace pair, source spec); none is dropped.  A
    translate takes a group product per ball point, |specs|·|ball|² in all:
    past MAX_PRODUCTS, StateSpaceCap is raised before any translate.

    The bookkeeping holds `wall_info` (index -> (spec position, name of
    g)), `pair_index` ((halfspace pair, spec position) -> index), `specs`
    and `reports` (each H-wall's `build_hwall` Report, as a dict).  Its
    `dropped_vacuous` and `dropped_duplicate_partitions` stay 0, kept as
    keys of `act`'s payload: both rules put the identity on both sides
    (`side` is "B" at x_k = 0 and at the empty word), so the translate by
    t has the ball point t on both sides, and is never vacuous, one-sided
    or a genuine partition.  Each report's `coverage_ok` stays true, kept
    as a key too: `side` puts every element on side L, R or B, so
    `_translate` puts every ball point in U or V, and U ∪ V is the ball.
    """
    products = len(hwall_specs) * len(ball.elements) ** 2
    if products > MAX_PRODUCTS:
        raise StateSpaceCap(f"H-wall system needs {products} group "
                            f"products, exceeds cap {MAX_PRODUCTS}")
    spec = ball.spec
    meta = Report(wall_info={}, pair_index={}, specs=list(hwall_specs),
                  dropped_vacuous=0, dropped_duplicate_partitions=0,
                  reports=[])
    walls = []
    inverses = list(map(spec.inv, ball.elements))
    for pos, hw in enumerate(hwall_specs):
        _w, rep = build_hwall(ball, hw)
        meta.reports.append(rep.to_dict())
        for g, ginv in zip(ball.elements, inverses):
            gu, gv = _translate(ball, hw, ginv)
            key = (frozenset((gu, gv)), pos)
            if key not in meta.pair_index:
                meta.wall_info[len(walls)] = (pos, spec.name(g))
                meta.pair_index[key] = len(walls)
                walls.append(Wall(len(walls), gu, gv))
    ws = Wallspace(ball.names, walls, metric=ball.metric)
    return ws, meta


# -- codimension-1 analysis -------------------------------------------


def codim_one_analysis(ball, subgroup, d):
    """Components of ball minus N_d(H ∩ ball), with the radius-limited
    deep-component heuristic: a component is deep when it touches the
    boundary sphere of the ball."""
    hmembers, images = _h_images(ball, subgroup)
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
    """Left multiplication by a group element, restricted to a ball; induces
    a partial permutation of points and (when a wall system's bookkeeping is
    supplied) of walls.  `check` is its one consistency check."""

    def __init__(self, point_map, wall_map, forced_bits=None,
                 domain_bits=None):
        self.point_map = dict(point_map)    # point name -> point name
        self.wall_map = dict(wall_map)      # wall index -> (index, swap)
        # wall index -> side, for image walls whose preimage wall truncates
        # to vacuous (its orientation in the image is forced)
        self.forced_bits = dict(forced_bits or {})
        # wall index -> side a vertex must choose to have an image at all:
        # the other side of the wall maps outside the truncation
        self.domain_bits = dict(domain_bits or {})

    @classmethod
    def from_element(cls, ball, g, ws=None, meta=None):
        """The action of g, in one pass over the walls: each wall's image
        translate gt gives its image wall (or, truncated to vacuous, a
        domain bit), and its preimage translate g⁻¹t, truncated to
        vacuous, the side forced on it when it is no wall's image."""
        spec = ball.spec
        names = ball.names
        pm = {names[i]: names[j] for i, j in enumerate(ball.image(g))
              if j is not None}
        wm, forced, dom_bits = {}, {}, {}
        if ws is not None and meta is not None:
            ginv = spec.inv(g)
            for idx, (pos, tname) in meta.wall_info.items():
                t = ball.elements[ball.by_name[tname]]
                hw = meta.specs[pos]
                gu, gv = _translate(ball, hw, spec.inv(spec.mul(g, t)))
                j = meta.pair_index.get((frozenset((gu, gv)), pos))
                if j is not None:
                    wm[idx] = (j, ws.wall(j).left != gu)
                elif bool(gu) != bool(gv):
                    dom_bits[idx] = int(not gu)
                # every ball vertex orients a vacuous preimage translate
                # to its full side
                pu, pv = _translate(ball, hw, spec.inv(spec.mul(ginv, t)))
                if bool(pu) != bool(pv):
                    forced[idx] = int(not pu)
            for j, _s in wm.values():
                forced.pop(j, None)
        return cls(pm, wm, forced, dom_bits)

    def check(self, ws):
        """Raise NotAnAutomorphism on any inconsistency on the domain; what
        it checks implies the rest (see `verify_equivariance`)."""
        vals = list(self.point_map.values())
        if len(set(vals)) != len(vals):
            raise NotAnAutomorphism("point map not injective")
        if ws.metric is not None:
            for x, y in combinations(self.point_map, 2):
                dxy = ws.metric.d(ws.point_index[x], ws.point_index[y])
                dgxy = ws.metric.d(ws.point_index[self.point_map[x]],
                                   ws.point_index[self.point_map[y]])
                if dxy != dgxy:
                    raise NotAnAutomorphism(
                        {"pair": [x, y], "d": dxy, "d_image": dgxy})
        for i, (j, swap) in self.wall_map.items():
            wi, wj = ws.wall(i), ws.wall(j)
            tgt_l, tgt_r = (wj.right, wj.left) if swap else (wj.left, wj.right)
            for x, gx in self.point_map.items():
                bx, bgx = ws.point_bit(x), ws.point_bit(gx)
                if bool(wi.left & bx) != bool(tgt_l & bgx) or \
                        bool(wi.right & bx) != bool(tgt_r & bgx):
                    raise NotAnAutomorphism(
                        {"wall": i, "image": j, "point": x})

    def point_mask_power(self, ws, n):
        """Returns a function applying the n-th power of the point map to a
        bitmask (dropping points that leave the domain)."""
        fwd = {ws.point_index[a]: ws.point_index[b]
               for a, b in self.point_map.items()}
        if n < 0:
            fwd = {b: a for a, b in fwd.items()}
            n = -n

        def apply(mask):
            for _ in range(n):
                out = 0
                for b in bits(mask):
                    if b in fwd:
                        out |= 1 << fwd[b]
                mask = out
            return mask

        return apply

    def wall_power(self, i, n):
        """n-th power of the wall map at wall i; None when undefined."""
        fwd = self.wall_map
        if n < 0:
            fwd = {}
            for a, (b, swap) in self.wall_map.items():
                fwd[b] = (a, swap)
            n = -n
        j, flip = i, False
        for _ in range(n):
            if j not in fwd:
                return None
            j, s = fwd[j]
            flip ^= s
        return j, flip

    def fixes_vertex(self, ws, m):
        """gc = c on every mapped wall (and some wall is mapped)."""
        return bool(self.wall_map) and all(
            (m >> ws.wall_pos[i] ^ m >> ws.wall_pos[j]) & 1 == swap
            for i, (j, swap) in self.wall_map.items())


def verify_equivariance(ws, action, cc):
    """Check the action is a partial automorphism of the wallspace and that
    its vertex map is a complex isomorphism on the subcomplex where total;
    returns a Report (ok, domain_vertices, preserved_edges, violations).

    `action.check` is the wallspace part, and separation counts need no
    recount after it.  For each mapped wall i -> (j, swap) and each mapped
    point x, `check` compares x ∈ W_i.left with gx on the left of W_j and
    x ∈ W_i.right with gx on the right (sides exchanged when swap), so x
    lies in an open side of W_i exactly when gx lies in the matching open
    side of W_j.  Open-side separation is symmetric in the two sides, so
    the swap does not matter: W_i separates x, y exactly when W_j separates
    gx, gy, and the two counts over the mapped walls agree wall by wall.
    """
    action.check(ws)
    violations = []
    phi = _vertex_map(ws, action)
    vset = set(cc.vertices)
    dom_req = {ws.wall_pos[i]: s for i, s in action.domain_bits.items()}
    domain = {}
    for m in cc.vertices:
        if any((m >> pos) & 1 != s for pos, s in dom_req.items()):
            continue  # image falls outside the truncated system
        img = phi(m)
        if img in vset:
            domain[m] = img
    if len(set(domain.values())) != len(domain):
        violations.append({"kind": "NotInjective"})
    preserved = 0
    wall_img = {ws.wall_pos[i]: ws.wall_pos[j]
                for i, (j, _s) in action.wall_map.items()}
    for u, v, w in cc.edges:
        if u in domain and v in domain and w in wall_img:
            d = domain[u] ^ domain[v]
            if d == 1 << wall_img[w]:
                preserved += 1
            else:
                violations.append({"kind": "EdgeNotPreserved",
                                   "edge": [cc.vid[u], cc.vid[v]]})
    return Report(cut=("violations", 10), ok=not violations,
                  domain_vertices=len(domain), preserved_edges=preserved,
                  violations=violations)


def _vertex_map(ws, action):
    wall_img = {ws.wall_pos[i]: (ws.wall_pos[j], s)
                for i, (j, s) in action.wall_map.items()}
    targets = sum({1 << j for j, _s in wall_img.values()})
    forced = {ws.wall_pos[i]: s for i, s in action.forced_bits.items()}
    # a wall that is no mapped wall's image takes its forced side, or,
    # with no image information, keeps its side
    keep = (1 << ws.nwalls()) - 1 & ~targets & ~sum(1 << p for p in forced)
    ones = sum(1 << p for p, s in forced.items() if s) & ~targets

    def phi(m):
        out = m & keep | ones
        for pos, (j, s) in wall_img.items():
            out |= ((m >> pos & 1) ^ bool(s)) << j
        return out

    return phi


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
    cubes = cc.all_cubes()
    info = []
    for c in cubes:
        depth = min(vdepth[mm] for mm in c.corners())
        reps = [k for k, h in enumerate(hemis) if represented_in(c, h)]
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
