"""Metric separation diagnostics.

All thresholds are computed exactly over the finite instance: the candidate
threshold values are the distances that actually occur, so "least m such
that ..." is a finite search.  Every report carries its witnesses, and every
witness re-validates under a from-scratch definition scan (tested).

Distance to a wall uses the wall's carrier U ∩ V when nonempty, otherwise
the union of the frontiers of U and V in the metric graph.  The paper writes
d(K, W) without defining it for abstract walls; this documented choice
coincides with the geometric wall in all geometric cases and is recorded in
every report.
"""

from fractions import Fraction

from .errors import WallcubeError
from .metric import INF, bits, compress, max_cliques
from .wallspace import (
    Report,
    separating,
    separation_index,
    subwallspace,
    transverse,
)

WALL_DISTANCE_NOTE = "wall distance = min over carrier U∩V, else frontiers"


def wall_region(ws, wall_index):
    """The point set standing in for a wall: carrier, else both frontiers."""
    w = ws.wall(wall_index)
    c = w.carrier()
    if c:
        return c
    metric = ws.require_metric()
    return metric.frontier(w.left) | metric.frontier(w.right)


def wall_distance(ws, mask, wall_index):
    return ws.require_metric().dist_sets(mask, wall_region(ws, wall_index))


def _report(prop, parameters, verdict, value=None, witnesses=(), notes=()):
    """A diagnostic's Report; `verdict` is "holds" or "fails"."""
    return Report(property=prop, parameters=parameters, verdict=verdict,
                  value=value, witnesses=list(witnesses), notes=list(notes))


def _least_threshold(items):
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


def linear_separation_fit(ws, max_denominator=64, max_offset=0.0):
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


def _largest_fraction_at_most(x, n):
    """The largest p/q <= x with 1 <= q <= n.  `limit_denominator` gives
    the nearest such fraction a/b; when a/b > x it is x's right neighbour
    in the Farey sequence F_n, and the answer is a/b's left neighbour c/d
    there: the one with a·d − b·c = 1 and d <= n largest."""
    near = x.limit_denominator(n)
    if near <= x:
        return near
    a, b = near.numerator, near.denominator
    d = pow(a, -1, b)  # 0 when b = 1
    d += (n - d) // b * b
    return Fraction((a * d - 1) // b, d)


def ball_ball_separation(ws, r):
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
    m, witnesses = _least_threshold(items)
    verdict = "holds" if m < diam or not witnesses else "fails"
    return _report("BallBall", {"r": r}, verdict, value=m,
                   witnesses=witnesses)


def compact_wall_separation(ws, K):
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


def wall_wall_separation(ws):
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
    D, witnesses = _least_threshold(items)
    verdict = "holds" if D < diam or not witnesses else "fails"
    return _report("WallWall", {}, verdict, value=D,
                   witnesses=witnesses, notes=[WALL_DISTANCE_NOTE])


def subspace_separation(ws, Y, kind, r):
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
    s, witnesses = _least_threshold(items)
    verdict = "holds" if s < diam or not witnesses else "fails"
    return _report(kind, {"r": r, "Y": sorted(ws.names_of(ymask))},
                   verdict, value=s, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])


def bounded_packing_number(ws, subsets, D):
    """Max family of the given point subsets that is pairwise D-close
    (d <= D), found by exhaustive clique search.  The witness is the
    lexicographically least sorted list of subset positions among the
    largest such families; returns a Report (D, k, witness_family)."""
    metric = ws.require_metric()
    masks = [s if isinstance(s, int) else ws.mask_of(s) for s in subsets]
    adj = [0] * len(masks)
    for i in range(len(masks)):
        # under D = inf every pair is close, an empty subset too (its
        # distance to anything is inf); otherwise empty subsets are not
        near = metric.ball(masks[i], D)
        for j in range(i + 1, len(masks)):
            if near & masks[j] or D == INF:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best = min((bits(c) for c in max_cliques(adj)),
               key=lambda c: (-len(c), c), default=[])
    return Report(D=D, k=len(best), witness_family=best)


def axis_cut_test(ws, action, w_index, n_max, cc=None):
    """Evaluate the axis-cut premises for a (partial) automorphism g.

    For 0 < |n| <= n_max where g^n is defined on the wall:
      (1) g^n W != W (as indexed walls)
      (2) U ∩ g^n U nonempty
      (3) V ∩ g^n V nonempty
    plus: pairwise transversality of the defined translates {g^m W}, and the
    fixed vertices of g in cc (when given).  Only the premises are checkable
    at finite scale; the theorem's conclusion concerns infinite families.

    After `action.check`, the images g^n U and g^n V lie in the matching
    sides of the image wall, so no check of its own is needed: `check`
    gives, for each mapped wall i -> (j, swap) and mapped point x,
    x ∈ W_i.left iff gx lies on the left of W_j, and likewise on the
    right (sides exchanged when swap).  Induction along `wall_power` and
    `point_mask_power` carries this to g^n, n = ±1..n_max, on every point
    whose orbit stays in the domain; under a many-to-one wall map, every
    preimage `wall_power` can pick passed `check` too.
    """
    action.check(ws)
    w = ws.wall(w_index)
    conds = {}
    translates = {0: w_index}
    for n in range(1, n_max + 1):
        for sign in (1, -1):
            nn = sign * n
            img = action.wall_power(w_index, nn)
            if img is None:
                continue
            j = img[0]
            translates[nn] = j
            pm = action.point_mask_power(ws, nn)
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
        fixed = [m for m in cc.vertices if action.fixes_vertex(ws, m)]
    return {"wall": w_index, "n_max": n_max, "conditions": conds,
            "translates": tidx,
            "translates_pairwise_transverse": pairwise if len(tidx) > 1 else None,
            "fixed_vertices": fixed,
            "note": "premises only; the conclusion concerns infinite scale"}
