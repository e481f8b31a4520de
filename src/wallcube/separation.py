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

from .errors import DuplicateInducedPartition, WallcubeError
from .metric import INF, bits, max_cliques, owners
from .wallspace import Report, open_sides, separating, sides, wall_sides

WALL_DISTANCE_NOTE = "wall distance = min over carrier U∩V, else frontiers"


def _wall_regions(ws):
    """Each wall's region, by position: the point set standing in for the
    wall, its carrier, else both frontiers."""
    metric = ws.require_metric()
    return [w.carrier() or metric.frontier(w.left) | metric.frontier(w.right)
            for w in ws.walls]


def _diameter(ws):
    return ws.metric.diameter()


def _report(prop, parameters, verdict, value=None, witnesses=(), notes=()):
    """A diagnostic's Report; `verdict` is "holds" or "fails"."""
    return Report(property=prop, parameters=parameters, verdict=verdict,
                  value=value, witnesses=list(witnesses), notes=list(notes))


class _Worst:
    """The largest distance among unseparated items so far, and the
    witnesses at it.  Callers add only items at distance >= `d`, so they
    can skip the separation test of every nearer item."""

    def __init__(self):
        self.d, self.witnesses = -INF, []

    def add(self, d, witness):
        if d > self.d:
            self.d, self.witnesses = d, []
        self.witnesses.append(witness)

    def result(self):
        """(t, witnesses at t, sorted): t is the least threshold such that
        distance > t implies separated, 0 when every item is separated."""
        if not self.witnesses:
            return 0, []
        return self.d, sorted(self.witnesses)


def _distances(metric, source, owner, todo):
    """{k: d(source, masks[k])} for the positions k in the mask `todo`,
    owner being `owners(masks, n)`: one expansion of the rings of
    `source`, each ring meeting the masks its points own.  inf for a mask
    no ring meets (an empty one, too)."""
    out = {}
    for d, ring in metric.rings(source):
        if not todo:
            break
        met = 0
        for p in bits(ring):
            met |= owner[p]
        for pos in bits(met & todo):
            out[pos] = d
        todo &= ~met
    for pos in bits(todo):
        out[pos] = INF
    return out


def linear_separation_fit(ws, max_denominator=64, max_offset=0.0):
    """Largest rational κ = p/q (q <= max_denominator) with
    #(x,y) >= κ·d(x,y) − ε on all pairs for some ε <= max_offset;
    ε* is then the minimal offset for that κ.

    On finite data *any* κ works for a large enough ε, so the offset must be
    bounded for the fit to mean anything; max_offset defaults to 0.
    """
    dist = ws.require_metric().dist
    point = ws.derived(open_sides)
    pts = ws.points
    n = len(pts)
    # per distance d > 0, the least #(x,y) and its pairs: (s + ε)/d grows
    # with s, so only they can bind; at d = inf every pair binds at κ = 0
    least = {}
    for i in range(n):
        row, pi = dist[i], point[i]
        for j in range(i + 1, n):
            d = row[j]
            if d > 0:
                s = separating(pi, point[j]).bit_count()
                best = least.get(d)
                if best is None or (s < best[0] and d < INF):
                    least[d] = (s, [(i, j)])
                elif s == best[0] or d == INF:
                    best[1].append((i, j))
    params = {"max_denominator": max_denominator, "max_offset": max_offset,
              "pairs": n * (n - 1) // 2}
    if not least:
        return _report("LinearSeparation", params, "holds",
                       notes=["no pairs at positive distance"])
    # feasible κ <= (s + max_offset) / d on every pair, 0 at d = inf,
    # where only κ = 0 is feasible
    ratio = {d: Fraction(s + max_offset) / Fraction(d) if d < INF else 0
             for d, (s, _pairs) in least.items()}
    kmax = min(ratio.values())
    binding = sorted([pts[i], pts[j]] for d, q in ratio.items() if q == kmax
                     for i, j in least[d][1])
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
    eps = max(0.0, *(k * d - s for d, (s, _pairs) in least.items()))
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
    balls = [sides(ws, metric.ball(1 << i, r)) for i in range(metric.n)]
    names = ws.points
    worst = _Worst()
    for i, row in enumerate(metric.dist):
        bi = balls[i]
        for j in range(i + 1, metric.n):
            d = row[j]
            if d >= worst.d and not separating(bi, balls[j]):
                worst.add(d, [names[i], names[j]])
    m, witnesses = worst.result()
    verdict = ("holds" if not witnesses or m < ws.derived(_diameter)
               else "fails")
    return _report("BallBall", {"r": r}, verdict, value=m,
                   witnesses=witnesses)


def compact_wall_separation(ws, K):
    """Least f with: d(K, W) >= f implies some other wall separates K from W
    (K in one open halfspace of W', a closed halfspace of W in the other)."""
    metric = ws.require_metric()
    kmask = ws.point_mask(K)
    if not kmask:
        raise WallcubeError("K must be nonempty")
    k_sides = sides(ws, kmask)
    wall = ws.derived(wall_sides)
    owner = owners(ws.derived(_wall_regions), metric.n)
    dist = _distances(metric, kmask, owner, (1 << len(ws.walls)) - 1)
    # least f: every wall with d >= f separated; f may sit just above the
    # worst unseparated distance
    worst = _Worst()
    for pos, w in enumerate(ws.walls):
        if (dist[pos] >= worst.d
                and not separating(k_sides, wall[pos]) & ~(1 << pos)):
            worst.add(dist[pos], [w.index])
    f, witnesses = worst.result()
    if witnesses:
        # walls out of reach never meet d >= f, so they bound no f
        higher = [d for d in dist.values() if f < d < INF]
        f = min(higher) if higher else f + 1
    # f is infinite, and no f works, when an unseparated wall is out of reach
    verdict = ("holds" if not witnesses
               or f < INF and f <= ws.derived(_diameter) else "fails")
    return _report("CompactWall", {"K": sorted(ws.names_of(kmask))},
                   verdict, value=f, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])


def wall_wall_separation(ws):
    """Least D with: d(W,W') > D implies some wall separates W and W'."""
    metric = ws.require_metric()
    wall = ws.derived(wall_sides)
    idxs = ws.wall_indices()
    regions = ws.derived(_wall_regions)
    owner = owners(regions, metric.n)
    worst = _Worst()
    for a, wa in enumerate(wall):
        # the later walls no third wall separates from W_a; only their
        # distances to W_a count
        unsep = 0
        for b in range(a + 1, len(wall)):
            if not separating(wa, wall[b]) & ~(1 << a | 1 << b):
                unsep |= 1 << b
        for b, d in _distances(metric, regions[a], owner, unsep).items():
            if d >= worst.d:
                worst.add(d, [idxs[a], idxs[b]])
    D, witnesses = worst.result()
    verdict = ("holds" if not witnesses or D < ws.derived(_diameter)
               else "fails")
    return _report("WallWall", {}, verdict, value=D,
                   witnesses=witnesses, notes=[WALL_DISTANCE_NOTE])


def subspace_separation(ws, Y, kind, r):
    """Ball-WallNbd / WallNbd-WallNbd separation of a subspace Y.

    Sets are intersected with Y and separation is by an induced wall
    (U ∩ Y, V ∩ Y) of the subwallspace on Y; empty sets are vacuously
    separated.  Y must be nonempty, and no two walls may induce the same
    genuine partition of Y: one with u = U ∩ Y and v = V ∩ Y nonempty and
    disjoint.  Such pairs raise DuplicateInducedPartition, each as (first
    wall index, repeat), in wall order.

    The parent's open sides decide it (`wallspace.sides` of each set):
    for A ⊆ Y, the open sides of the induced wall, restricted to A, are
    (U ∖ V) ∩ A and (V ∖ U) ∩ A, as for the parent wall; and an induced vacuous wall {Y, ∅}, which the
    subwallspace drops, has an empty open side, so it separates no two
    nonempty sets.
    """
    if kind not in ("BallWallNbd", "WallNbdWallNbd"):
        raise WallcubeError(f"unknown kind {kind}")
    metric = ws.require_metric()
    ymask = ws.point_mask(Y)
    if not ymask:
        raise WallcubeError("Y must be nonempty")
    first, dups = {}, []
    for w in ws.walls:
        u, v = w.left & ymask, w.right & ymask
        if u and v and not u & v:
            i = first.setdefault(frozenset((u, v)), w.index)
            if i != w.index:
                dups.append((i, w.index))
    if dups:
        raise DuplicateInducedPartition(dups)
    def part(mask):
        """The set within Y, and its sides."""
        mask &= ymask
        return mask, sides(ws, mask)

    nbds = [part(metric.ball(region, r))
            for region in ws.derived(_wall_regions)]
    owner = owners([mask for mask, _sides in nbds], metric.n)
    idxs = ws.wall_indices()
    worst = _Worst()

    def scan(a, later, witness):
        """Add the pairs of a with the nbds at the positions in `later`
        that no wall separates; an empty set is separated from anything
        ("any wall separates them"), and an infinite distance counts as 0."""
        unsep = 0
        if a[0]:
            for pos in bits(later):
                b = nbds[pos]
                if b[0] and not separating(a[1], b[1]):
                    unsep |= 1 << pos
        dist = _distances(metric, a[0], owner, unsep)
        for pos in bits(unsep):
            d = 0 if dist[pos] == INF else dist[pos]
            if d >= worst.d:
                worst.add(d, [witness, idxs[pos]])

    full = (1 << len(idxs)) - 1
    if kind == "BallWallNbd":
        for p in bits(ymask):
            scan(part(metric.ball(1 << p, r)), full, ws.points[p])
    else:
        for x in range(len(idxs)):
            scan(nbds[x], full & ~((2 << x) - 1), idxs[x])
    s, witnesses = worst.result()
    verdict = ("holds" if not witnesses or s < ws.derived(_diameter)
               else "fails")
    return _report(kind, {"r": r, "Y": sorted(ws.names_of(ymask))},
                   verdict, value=s, witnesses=witnesses,
                   notes=[WALL_DISTANCE_NOTE])


def bounded_packing_number(ws, subsets, D):
    """Max family of the given point subsets that is pairwise D-close
    (d <= D), found by exhaustive clique search.  The witness is the
    lexicographically least sorted list of subset positions among the
    largest such families; returns a Report (D, k, witness_family)."""
    metric = ws.require_metric()
    masks = list(map(ws.point_mask, subsets))
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

