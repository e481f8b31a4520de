"""Hemiwallspaces and their convex dual subcomplexes.

A hemiwallspace keeps a subcollection of halfspaces such that every wall
retains at least one side.  Walls with both sides retained stay independent;
walls with one retained side become dependent with that orientation fixed.
The dual of a hemiwallspace is the full subcomplex on the vertices agreeing
with every fixed orientation, and it is always convex in the 1-skeleton.
"""

from dataclasses import dataclass

from .complex import CubeComplex
from .errors import EmptySubcomplex, MetricRequired, NotAHemiwallspace, WallcubeError
from .wallspace import Wallspace


@dataclass(frozen=True)
class InducedVariant:
    kind: str       # "U0" | "Ur" | "Uinf" | "Ustar" | "UrStar"
    r: float = 0
    tau: float = 1
    r_max: float = None

    def __post_init__(self):
        if self.kind not in ("U0", "Ur", "Uinf", "Ustar", "UrStar"):
            raise WallcubeError(f"unknown variant {self.kind}")
        if self.r < 0 or self.tau < 1:
            raise WallcubeError("need r >= 0 and tau >= 1")


class Hemiwallspace:
    """Parent wallspace plus fixed orientations of the dependent walls."""

    def __init__(self, parent, fixed, meta=None):
        self.parent = parent
        self.fixed = dict(fixed)  # wall index -> 0 (left) | 1 (right)
        for i in self.fixed:
            parent.wall(i)
        self.independent = [w.index for w in parent.walls
                            if w.index not in self.fixed]
        self.meta = meta or {}
        # the dependent walls' positions, and their fixed sides
        pos = parent.wall_pos
        self.fixed_mask = sum(1 << pos[i] for i in self.fixed)
        self.fixed_bits = sum(s << pos[i] for i, s in self.fixed.items())

    def represents(self, base, wmask):
        """Are all halfspaces of the cube (base, wmask) retained: both sides
        of each of its walls, and the chosen side of every other wall?"""
        return (not wmask & self.fixed_mask
                and base & self.fixed_mask == self.fixed_bits)

    def retains(self, wall_index, side):
        """Is the given halfspace (side 0=left, 1=right) retained?"""
        if wall_index in self.fixed:
            return self.fixed[wall_index] == side
        return True

    def to_dict(self):
        d = {"fixed": [{"wall": i, "side": s}
                       for i, s in sorted(self.fixed.items())],
             "independent": sorted(self.independent)}
        d.update(self.meta)
        return d


def induce_hemi(ws, P, variant):
    """Hemiwallspace induced by a peripheral point subset P.

    Retention rules per variant (U a halfspace):
      U0:     U ∩ P nonempty
      Ur:     U ∩ N_r(P) nonempty
      Uinf:   diam(U ∩ P) >= tau          (finite proxy for infinite diameter)
      Ustar:  diam(U ∩ N_r(P)) >= tau for some r <= r_max
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
        # Ustar: some radius r <= r_max works
        r_max = variant.r_max
        if r_max is None:
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


def dual_sub(cc, hemi):
    """Full subcomplex of cc on the vertices agreeing with hemi's fixed
    orientations: the cubes represented in hemi, as a CubeComplex."""
    cells = {}
    for wmask, bases in cc.cells.items():
        keep = {b for b in bases if hemi.represents(b, wmask)}
        if keep:
            cells[wmask] = keep
    if not cells:
        raise EmptySubcomplex("no vertex agrees with the fixed orientations")
    return CubeComplex(cc.ws, cc.engine, cells)


def is_convex(cc, sub):
    """Every 1-skeleton geodesic of cc between vertices of sub stays in sub.

    Checked by scanning, for each vertex pair (a, b) of sub, all vertices v
    outside sub with d(a,v) + d(v,b) = d(a,b); any such v lies on a geodesic
    (witness path reconstructed greedily).  Returns (bool, witness path or
    None).
    """
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


def represented_in(cube, hemi):
    """All halfspaces of the cube's defining data are retained by hemi:
    both sides of each independent wall, and each fixed dependent side."""
    return hemi.represents(cube.base, cube.mask)


def forget_unpaired(hemi):
    """Remark-style wallspace: delete the dependent walls entirely.

    The dual of this wallspace is isomorphic (after re-indexing) to
    dual_sub's output; used as an oracle in tests.
    """
    ws = hemi.parent
    walls = [w for w in ws.walls if w.index not in hemi.fixed]
    return Wallspace(ws.points, walls, metric=ws.metric,
                     max_points=ws.max_points, max_walls=ws.max_walls)
