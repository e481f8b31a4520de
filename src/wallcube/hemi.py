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


class Hemiwallspace(namedtuple("Hemiwallspace", "fixed_mask fixed_bits")):
    """A hemiwallspace of a wallspace, by wall positions: `fixed_mask` holds
    its dependent walls and `fixed_bits` their retained sides (bit set: the
    right side).  Every other wall keeps both sides and stays
    independent."""

    __slots__ = ()

    def represents(self, base, wmask):
        """Are all halfspaces of the cube (base, wmask) retained: both sides
        of each of its walls, and the chosen side of every other wall?"""
        return (not wmask & self.fixed_mask
                and base & self.fixed_mask == self.fixed_bits)


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
    pmask = ws.point_mask(P)
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
        return metric.reaches(side_mask & near, variant.tau)

    fixed_mask = fixed_bits = 0
    bad = []
    for pos, w in enumerate(ws.walls):
        keep_l, keep_r = retained(w.left), retained(w.right)
        if not (keep_l or keep_r):
            bad.append(w.index)
        elif not (keep_l and keep_r):
            fixed_mask |= 1 << pos
            if keep_r:
                fixed_bits |= 1 << pos
    if bad:
        raise NotAHemiwallspace(bad)
    return Hemiwallspace(fixed_mask, fixed_bits)


def dual_sub(cc, hemi):
    """Full subcomplex of cc on the vertices agreeing with hemi's fixed
    orientations: the cubes represented in hemi, as a CubeComplex.  A
    wall mask meeting the fixed walls holds none of them, and on any other
    the test is one mask compare per base."""
    fixed_mask, fixed_bits = hemi.fixed_mask, hemi.fixed_bits
    cells = {}
    for wmask, bases in cc.cells.items():
        if wmask & fixed_mask:
            continue
        keep = {b for b in bases if b & fixed_mask == fixed_bits}
        if keep:
            cells[wmask] = keep
    if not cells:
        raise EmptySubcomplex("no vertex agrees with the fixed orientations")
    return CubeComplex(cc.ws, cells)


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
