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
from .errors import ParseError, StateSpaceCap, UnknownGenerator, WallcubeError
from .hemi import induce_hemi
from .io import INT, field, one_of
from .metric import Metric, bits, components
from .wallspace import MAX_POINTS, Report, Wall, Wallspace

TRUNCATION_CAVEAT = ("all conclusions are radius-limited: computed on a "
                     "finite ball of an infinite group")

# per-point work an H-wall system may take (see generate_hwall_system)
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


def subgroup_from_dict(spec, d, path):
    """The subgroup of `spec` a document names, read like a group spec."""
    kind = _kind_for(spec, d, "kind", path, SUBGROUP_GROUP, "subgroup")
    if kind == "coordinate":
        axis, axes = _axis(spec.d, "axes")
        return CoordinateSubgroup(spec, field(
            d, "coords", f"{path}.coords", (
                lambda x: isinstance(x, list) and all(map(axis, x)),
                "a list of " + axes)))
    if kind == "cyclic":
        word = field(d, "word", f"{path}.word")
        try:
            return CyclicSubgroup(spec, word)
        except WallcubeError as exc:
            raise ParseError(f"{path}.word: {exc}") from None
    return FreeFactorSubgroup(spec, field(
        d, "factor", f"{path}.factor",
        _axis(len(spec.factors), "a factor position")))


# the group kind each subgroup kind is a subgroup of, and the one each rule
# reads: the coordinate rule one coordinate of a free abelian element, the
# branch rule powers of a free generator
SUBGROUP_GROUP = {"coordinate": "FreeAbelian", "cyclic": "Free",
                  "factor": "FreeProduct"}
RULE_GROUP = {"branch": "Free", "coordinate": "FreeAbelian"}


def _kind_for(spec, d, key, path, groups, what):
    """The field `key` of d, one of the kinds `groups` maps to a group
    kind, which must be spec's: a ParseError naming `path.key` otherwise."""
    kind = field(d, key, f"{path}.{key}", one_of(*groups))
    if spec.kind != groups[kind]:
        raise ParseError(f"{path}.{key}: {kind!r} is a {what} of "
                         f"{groups[kind]} groups, not of {spec.kind}")
    return kind


def hwall_from_dict(spec, d, i):
    """The H-wall `hwalls[i]` of an `act` spec on `spec`, read like a group
    spec: its subgroup, then its rule, then its axis."""
    path = f"hwalls[{i}]"
    sub = subgroup_from_dict(
        spec, field(d, "subgroup", f"{path}.subgroup"), f"{path}.subgroup")
    rule = _kind_for(spec, d, "rule", path, RULE_GROUP, "rule")
    letters = list(getattr(spec, "letters", ""))
    axis = field(d, "axis", f"{path}.axis", (
        lambda x: x in letters, f"one of the generator letters {letters}")
        if rule == "branch" else _axis(spec.d, "an axis"))
    return HWallSpec(sub, rule, axis=axis, index=i)


def _axis(count, what):
    """The kind of an integer (not a bool) in range(count), `what`."""
    return (lambda k: INT[0](k) and 0 <= k < count,
            f"{what} in range({count})")


# -- Cayley balls ------------------------------------------------------


class CayleyBall:
    """Ball of given radius in the word metric, with its Cayley-graph edges
    (element pairs `steps`).  The metric is their breadth-first path metric,
    which is the word metric because the ball is geodesically convex: in a
    free group it is a subtree; in ℤᵈ (L1) a geodesic can take all of its
    norm-decreasing steps first; in a free product a geodesic passes
    through the common prefix one syllable at a time, inside each factor's
    (convex) ball."""

    def __init__(self, spec, elements, steps):
        self.spec = spec
        self.elements = elements  # sorted by (length, name)
        self.names = [spec.name(g) for g in elements]
        by_name = {n: i for i, n in enumerate(self.names)}
        if len(by_name) != len(self.names):
            shared = next(n for i, n in enumerate(self.names)
                          if by_name[n] != i)
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
    return CayleyBall(spec, elements, steps)


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
    """A subgroup H plus a rule deciding sides on the full group.

    Rules:
      "coordinate" (FreeAbelian, axis k): U = {x_k <= 0}, V = {x_k >= 0};
          carrier = the coordinate hyperplane x_k = 0.
      "branch" (Free(r), any rank r, on a letter a): after stripping the
          leading power of a, words whose next letter is lowercase go to U,
          uppercase to V; the axis <a> itself is the carrier.

    A rule meets this contract, on which `generate_hwall_system` rests: its
    carrier C = {y : y on both sides} is the stabiliser of its sides;
    `key(t)` names t's coset tC; and `side(key, x)` is the side of t⁻¹x
    for every t of that key, read with no group product.  The tests hold
    the product definition, the side of t⁻¹x for each t, as its oracle.
    """

    def __init__(self, subgroup, rule, axis=None, index=None):
        self.subgroup = subgroup
        self.rule = rule
        self.axis = axis
        self.index = index
        if rule not in RULE_GROUP:
            raise UnknownGenerator(rule)

    def side(self, key, x):
        """'L' (left only), 'R' (right only) or 'B' (both): the side of t⁻¹x
        for every t of the `key`, with no product.  Coordinate: t⁻¹x has
        axis coordinate x_k − key.  Branch: the key s is t less its trailing
        powers of a, so t⁻¹x = a^j·s⁻¹x, on the same side.  If x = s·y, then
        s⁻¹x = y.  Otherwise x shares only s[:p], p < |s|, with s, so
        s⁻¹x = s[p:]⁻¹·x[p:] is reduced and starts with the inverse of s's
        last letter, no power of a: s⁻¹x is on the left iff that last letter
        is uppercase."""
        if self.rule == "coordinate":
            c = x[self.axis] - key
            return "B" if c == 0 else "L" if c < 0 else "R"
        if not x.startswith(key):
            return "L" if key[-1].isupper() else "R"
        rest = x[len(key):].lstrip(self.axis + self.axis.upper())
        if not rest:
            return "B"
        return "L" if rest[0].islower() else "R"

    def key(self, t):
        """t's coset of the carrier (see `generate_hwall_system`): its axis
        coordinate, or t with trailing powers of the axis letter stripped."""
        if self.rule == "coordinate":
            return t[self.axis]
        return t.rstrip(self.axis + self.axis.upper())


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
    # side-swapping elements of H (the index-2 coset of the side stabilizer):
    # a swapper sends some i ∈ U∖V to j ∈ V∖U, an invariance violation
    if any(_swaps_sides(img, u, v) for img in images):
        hdotdot = "violated"
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


def _translate(ball, hw, key):
    """The halfspace masks (U, V) of the H-wall's translate by any t of the
    `key`, truncated to the ball: x lies in tU when t⁻¹x is on the left of
    hw or on both sides, in tV when it is on the right or on both.  Point i
    is bit i of each mask, hence the reversed side string."""
    sides = "".join(map(hw.side, repeat(key), ball.elements))[::-1]
    return int(sides.translate(_IN_LEFT), 2), \
        int(sides.translate(_IN_RIGHT), 2)


def _swaps_sides(img, u, v):
    for i in bits(u & ~v):
        j = img[i]
        if j is not None:
            return bool((v & ~u) >> j & 1)
    return False


def _orbit_count(images, indices):
    """Partial H-orbit count of the given ball indices, H acting by its
    ball `images`."""
    mask = sum(1 << i for i in indices)
    adj = dict.fromkeys(indices, 0)
    for img in images:
        for i in indices:
            j = img[i]
            if j is not None and mask >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return len(components(adj, mask))


def generate_hwall_system(ball, hwall_specs):
    """Wallspace on the ball with all ball-translates of the given H-walls,
    truncated to the ball, and the `_hwall_report` dict of each H-wall
    itself, the translate by the identity.

    A rule's carrier C is the stabiliser of its sides, so the translate tW
    has carrier tC and depends only on t's `key`, its coset tC: one wall is
    built per (spec, key), in ball order of each key's first t.  Keys of
    ball elements have disjoint carriers, each holding its own t, so their
    truncated translates differ.  A translate reads a side per point, and
    the ball's image under each element of H ∩ ball but 1 (the report's
    checks share them) takes a product per point: StateSpaceCap is raised
    at the first spec that takes that count past MAX_PRODUCTS, before any
    translate or image.
    """
    wall_of, hmembers = {}, []
    for pos, hw in enumerate(hwall_specs):
        for t in ball.elements:
            wall_of.setdefault((pos, hw.key(t)), len(wall_of))
        # H ∩ ball but the identity, index 0 (the one element of length 0)
        hmembers.append(bits(ball.mask_of(hw.subgroup.contains) & ~1))
        products = (len(wall_of) + sum(map(len, hmembers))) * \
            len(ball.elements)
        if products > MAX_PRODUCTS:
            raise StateSpaceCap(f"H-wall system needs at least {products} "
                                f"group products, exceeds cap {MAX_PRODUCTS}")
    walls = [Wall(idx, *_translate(ball, hwall_specs[pos], key))
             for (pos, key), idx in wall_of.items()]
    one = ball.elements[0]
    reports = []
    for pos, (hw, hm) in enumerate(zip(hwall_specs, hmembers)):
        w = walls[wall_of[pos, hw.key(one)]]
        reports.append(_hwall_report(ball, w.left, w.right, hm).to_dict())
    return Wallspace(ball.names, walls, metric=ball.metric), reports


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
