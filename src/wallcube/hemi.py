"""Hemiwallspaces and their convex dual subcomplexes.

A hemiwallspace keeps a subcollection of halfspaces such that every wall
retains at least one side.  Walls with both sides retained stay independent;
walls with one retained side become dependent with that orientation fixed.
The dual of a hemiwallspace is the full subcomplex on the vertices agreeing
with every fixed orientation, and it is always convex in the 1-skeleton.
"""

from collections import namedtuple

from .complex import CubeComplex
from .errors import EmptySubcomplex, NotAHemiwallspace, WallcubeError
from .metric import bits


class InducedVariant(namedtuple("InducedVariant", "kind r tau")):
    """The rule of `induce_hemi`: `kind` is "U0", "Ur", "Uinf", "Ustar" or
    "UrStar"; r >= 0 and tau >= 1."""

    __slots__ = ()

    def __new__(cls, kind, r=0, tau=1):
        if kind not in ("U0", "Ur", "Uinf", "Ustar", "UrStar"):
            raise WallcubeError(f"kind: unknown variant {kind!r}")
        for name, x, low in (("r", r, 0), ("tau", tau, 1)):
            if not x >= low:
                raise WallcubeError(f"{name}: {x!r} is not >= {low}")
        return super().__new__(cls, kind, r, tau)


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

    One neighbourhood N of P and one rule per variant (U a halfspace):
      U0:     N = P,           U ∩ N nonempty
      Ur:     N = N_r(P),      U ∩ N nonempty
      Uinf:   N = N_0(P),      diam(U ∩ N) >= tau  (tau stands in for ∞)
      UrStar: N = N_r(P),      diam(U ∩ N) >= tau
      Ustar:  N = X,           diam(U ∩ N) >= tau
    Ustar asks for some radius r; N_r(P), and with it diam(U ∩ N_r(P)),
    only grows with r, up to X at r = the diameter (inf when the metric
    is disconnected), so X works iff some r does.  UrStar is its bounded
    form.
    """
    pmask = P if isinstance(P, int) else ws.mask_of(P)
    if pmask == 0:
        raise WallcubeError("P must be nonempty")
    kind = variant.kind
    if kind == "U0":
        near = pmask
    else:
        metric = ws.require_metric()
        near = ws.full if kind == "Ustar" else \
            metric.ball(pmask, 0 if kind == "Uinf" else variant.r)

    def retained(side_mask):
        if kind in ("U0", "Ur"):
            return bool(side_mask & near)
        d = metric.diam(side_mask & near)
        return d is not None and d >= variant.tau

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

    Returns (True, None), or (False, a geodesic a -> v -> b with a < b in
    sub and v outside it).  cc must be a dual the library built
    (`build_dual`, `enumerate_all_orientations` or `dual_sub`): its
    1-skeleton is then a median graph whose hyperplanes are the walls, in
    which the geodesics from a to b run through the vertices agreeing with
    both wherever these agree, and the convex sets are the intersections of
    halfspaces (Mulder 1980; Chepoi 2000).  So sub is convex iff it holds
    every vertex v of cc with AND(sub) <= v <= OR(sub) bitwise.  Only on
    failure is a witness searched: the first (a, b, v) in vertex order,
    each half of its path found by `_walk`.  Where no witness exists, cc
    is not such a dual, and WallcubeError is raised.  On `dual_sub(cc, h)`,
    itself an intersection of halfspaces, the test holds by construction;
    the tests check that claim by breadth-first search.
    """
    verts = sub.vertices
    lo, hi = -1, 0
    for m in verts:
        lo, hi = lo & m, hi | m
    outside = [v for v in cc.vertices
               if v & lo == lo and not v & ~hi and v not in sub.vid]
    if not outside:
        return True, None
    a, b, v = _first((a, b, v) for i, a in enumerate(verts)
                     for b in verts[i + 1:] for v in outside
                     if not (v ^ a) & ~(a ^ b))
    return False, _walk(cc, v, a)[::-1] + _walk(cc, v, b)[1:]


def _walk(cc, v, a):
    """A geodesic v -> a of cc, each step flipping the lowest wall on which
    the two differ whose flip is a vertex of cc."""
    path = [v]
    while v != a:
        v ^= 1 << _first(i for i in bits(v ^ a) if v ^ (1 << i) in cc.vid)
        path.append(v)
    return path


def _first(items):
    for item in items:
        return item
    raise WallcubeError("is_convex needs a dual the library built: its "
                        "1-skeleton is not a median graph on the walls")


def represented_in(cube, hemi):
    """All halfspaces of the cube's defining data are retained by hemi:
    both sides of each independent wall, and each fixed dependent side."""
    return hemi.represents(cube.base, cube.mask)
