"""Separation diagnostics; every witness re-validates from scratch."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OracleMetric,
    dist_sets,
    oracle_ball_ball_separation,
    oracle_compact_wall_separation,
    oracle_linear_separation_fit,
    oracle_separates_compact_wall,
    oracle_separates_sets,
    oracle_subspace_separation,
    oracle_wall_separates,
    oracle_wall_wall_separation,
    random_wallspace,
    wall_position,
    wall_region,
)
from wallcube import io
from wallcube.errors import MetricRequired, WallcubeError
from wallcube.generators import fig3, geom_path, grid, rbad
from wallcube.groups import (
    CoordinateSubgroup,
    CyclicSubgroup,
    Free,
    FreeAbelian,
    HWallSpec,
    cayley_ball,
    generate_hwall_system,
)
from wallcube.metric import INF, Metric
from wallcube.separation import (
    _largest_fraction_at_most,
    _wall_regions,
    _Worst,
    ball_ball_separation,
    bounded_packing_number,
    compact_wall_separation,
    linear_separation_fit,
    subspace_separation,
    wall_wall_separation,
)
from wallcube.wallspace import Wall, Wallspace, separation_count, validate


def metric_spaces(count=10):
    out = [grid(2), grid(3), geom_path(5), rbad(2)]
    for s in range(count * 3):
        ws = random_wallspace(s, with_metric=True)
        if validate(ws).ok:
            out.append(ws)
        if len(out) >= count + 4:
            break
    return out


def test_worst_unseparated_distance():
    worst = _Worst()
    for d, wit in ((1, ["a"]), (3, ["b"]), (3, ["a"])):
        if d >= worst.d:
            worst.add(d, wit)
    assert worst.result() == (3, [["a"], ["b"]])
    assert _Worst().result() == (0, [])


def test_wall_region_carrier_vs_frontier():
    ws = rbad(2)
    # interval walls have a one-point carrier at each multiple of n
    regions = ws.derived(_wall_regions)
    assert ws.names_of(regions[wall_position(ws, 1)]) == ["2"]
    ws2 = grid(2)
    # genuine partitions fall back to the two frontiers
    region = set(ws2.names_of(
        ws2.derived(_wall_regions)[wall_position(ws2, 0)]))
    assert region == {"0,0", "0,1", "0,2", "1,0", "1,1", "1,2"}
    for ws in metric_spaces():
        assert ws.derived(_wall_regions) == \
            [wall_region(ws, i) for i in ws.wall_indices()]


def test_linear_fit_grid_is_exact():
    for n in (2, 3, 4):
        rep = linear_separation_fit(grid(n))
        assert rep.verdict == "holds"
        assert rep.value == 1.0
        assert rep.parameters["kappa"] == [1, 1]
        assert rep.parameters["epsilon"] == 0.0


def test_linear_fit_witnesses_revalidate():
    for ws in metric_spaces(8):
        rep = linear_separation_fit(ws)
        if rep.verdict != "holds" or rep.value is None:
            continue
        kappa = Fraction(*rep.parameters["kappa"])
        eps = rep.parameters["epsilon"]
        for x in ws.points:
            for y in ws.points:
                if x >= y:
                    continue
                d = ws.metric.dist[ws.point_index[x]][ws.point_index[y]]
                s = separation_count(ws, x, y)
                assert s >= float(kappa) * d - eps - 1e-9


def test_linear_fit_fails_when_points_indistinguishable():
    # geomPath endpoints are never separated from their neighbors' carrier
    # points... use a wall-free space instead: no wall separates anything
    full = 0b11
    ws = Wallspace(["x", "y"], [Wall(0, full, full)],
                   metric=Metric.from_edges(2, [(0, 1, 1)]))
    rep = linear_separation_fit(ws)
    assert rep.verdict == "fails"
    assert rep.value == 0.0


def test_linear_fit_fails_at_infinite_distance():
    # no κ > 0 has κ·inf − ε <= #(x,y); this once raised OverflowError
    ws = Wallspace(["x", "y", "z"], [Wall(0, 0b101, 0b110)],
                   metric=Metric.from_edges(3, [(0, 2, 1)]))
    rep = linear_separation_fit(ws, max_offset=5)
    assert rep.verdict == "fails" and rep.value == 0.0
    assert rep.witnesses == [["x", "y"], ["y", "z"]]


def test_linear_fit_kappa_off_the_1_over_q_grid():
    # κ may be at most 0.39 with q <= 10: limit_denominator rounds up to
    # 2/5, and stepping down on multiples of 1/10 gave 3/10, not 3/8
    ws = Wallspace(["x", "y"], [Wall(0, 0b11, 0b11)],
                   metric=Metric.from_edges(2, [(0, 1, 1)]))
    rep = linear_separation_fit(ws, max_denominator=10, max_offset=0.39)
    assert rep.verdict == "holds"
    assert rep.parameters["kappa"] == [3, 8] and rep.value == 0.375


def test_largest_fraction_at_most_matches_brute_force():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 40)
        if rng.random() < 0.3:
            x = Fraction(rng.random() * 3)
        else:
            x = Fraction(rng.randint(0, 400), rng.randint(1, 300))
        best = max(Fraction(x.numerator * q // x.denominator, q)
                   for q in range(1, n + 1))
        assert _largest_fraction_at_most(x, n) == best


def test_ball_ball_revalidates():
    for ws in metric_spaces(8):
        for r in (0, 1):
            rep = ball_ball_separation(ws, r)
            m = rep.value
            # from-scratch scan: every pair at distance > m has separated
            # r-balls; the witnesses are exactly the worst unseparated pairs
            for i in range(len(ws.points)):
                for j in range(i + 1, len(ws.points)):
                    bi = ws.metric.ball(1 << i, r)
                    bj = ws.metric.ball(1 << j, r)
                    sep = any(oracle_separates_sets(ws, w.index, bi, bj)
                              for w in ws.walls)
                    d = ws.metric.dist[i][j]
                    if rep.verdict == "holds" and d > m:
                        assert sep
                    if [ws.points[i], ws.points[j]] in rep.witnesses:
                        assert not sep and d == m


def test_ball_ball_grid_r0():
    rep = ball_ball_separation(grid(3), 0)
    assert rep.verdict == "holds" and rep.value == 0


def test_compact_wall_grid_and_rbad():
    rep = compact_wall_separation(grid(3), ["0,0"])
    assert rep.verdict == "holds"
    # rbad keeps f bounded as n grows
    vals = []
    for n in (2, 4):
        ws = rbad(n)
        mid = ws.points[len(ws.points) // 2]
        r = compact_wall_separation(ws, [mid])
        assert r.verdict == "holds"
        vals.append(r.value)
    assert max(vals) <= 4


@pytest.mark.parametrize("ws, verdict, value", [
    # the one wall's region is empty, so at infinite distance from K, and
    # no other wall separates it: f = inf, which no diameter bounds
    (Wallspace("abc", [Wall(0, 0b011, 0b100)],
               metric=Metric.from_edges(3, [(0, 1, 1)])), "fails", INF),
    # a-b-c and d-e: W0 = ({a,b}, {c,d,e}) is unseparated at distance 1;
    # W1 = ({a,b,c,d}, {e}) is out of reach of K and separated by W0
    (Wallspace("abcde",
               [Wall(0, 0b00011, 0b11100), Wall(1, 0b01111, 0b10000)],
               metric=Metric.from_edges(5, [(0, 1, 1), (1, 2, 1),
                                            (3, 4, 1)])), "holds", 2),
    # a-b-c, connected: W1 = ({a,b,c}, {}) is vacuous, its region empty and
    # out of reach, and W0 separates it from K as {} lies in W0's right
    (Wallspace("abc", [Wall(0, 0b011, 0b100), Wall(1, 0b111, 0)],
               metric=Metric.from_edges(3, [(0, 1, 1), (1, 2, 1)])),
     "holds", 2),
], ids=["unseparated", "disconnected", "vacuous"])
def test_compact_wall_with_a_wall_out_of_reach(ws, verdict, value):
    # a wall at infinite distance never has d >= f for a finite f, so only
    # an unseparated one makes f infinite
    for diagnostic in (compact_wall_separation,
                       oracle_compact_wall_separation):
        rep = diagnostic(ws, ["a"])
        assert (rep.verdict, rep.value, rep.witnesses) == \
            (verdict, value, [[0]])


def test_compact_wall_revalidates():
    for ws in metric_spaces(6):
        K = [ws.points[0]]
        rep = compact_wall_separation(ws, K)
        kmask = ws.point_mask(K)
        if rep.verdict != "holds":
            continue
        for w in ws.walls:
            d = dist_sets(ws.metric, kmask, wall_region(ws, w.index))
            if d >= rep.value:
                assert any(
                    oracle_separates_compact_wall(ws, w2.index, kmask,
                                                  w.index)
                    for w2 in ws.walls if w2.index != w.index)


def test_wall_wall_grid():
    rep = wall_wall_separation(grid(3))
    assert rep.verdict == "holds"
    # parallel walls at gap >= 2 have a separator between them, so the
    # threshold stays below the largest wall gap
    assert rep.value <= 1


def test_wall_wall_revalidates():
    for ws in metric_spaces(6):
        rep = wall_wall_separation(ws)
        if rep.verdict != "holds":
            continue
        idxs = ws.wall_indices()
        for i, j in combinations(idxs, 2):
            d = dist_sets(ws.metric, wall_region(ws, i), wall_region(ws, j))
            if d != INF and d > rep.value:
                assert any(oracle_wall_separates(ws, k, i, j)
                           for k in idxs if k not in (i, j))


def test_subspace_separation_runs_and_revalidates():
    ws = grid(2)
    col = [p for p in ws.points if p.startswith("0,")]
    for kind in ("BallWallNbd", "WallNbdWallNbd"):
        rep = subspace_separation(ws, col, kind, 0)
        assert rep.property == kind
        assert rep.value is not None
    with pytest.raises(WallcubeError):
        subspace_separation(ws, col, "Bogus", 0)


def test_subspace_separation_builds_no_table():
    # the induced walls' separation is read from the parent's index, so a
    # unit-weight metric is never expanded into its n² table
    def system():
        ball = cayley_ball(Free(2), 4)
        ws, _meta = generate_hwall_system(ball, [
            HWallSpec(CyclicSubgroup(Free(2), "a"), "branch", axis="a")])
        return ws

    ws, oracle_ws = system(), system()
    half = ws.points[::2]
    for Y in (ws.points, half):
        for kind in ("BallWallNbd", "WallNbdWallNbd"):
            rep = subspace_separation(ws, Y, kind, 1)
            assert ws.metric._table is None
            assert rep.to_dict() == oracle_subspace_separation(
                oracle_ws, Y, kind, 1).to_dict()


def test_wall_regions_are_computed_once_per_wallspace(monkeypatch):
    frontier = Metric.frontier
    calls = []

    def counted(self, mask):
        calls.append(mask)
        return frontier(self, mask)

    monkeypatch.setattr(Metric, "frontier", counted)
    for ws in (grid(3), grid(3)):
        before = len(calls)
        for _ in range(2):
            wall_wall_separation(ws)
            compact_wall_separation(ws, ["0,0"])
            subspace_separation(ws, ws.points[:8], "WallNbdWallNbd", 1)
            subspace_separation(ws, ws.points, "BallWallNbd", 0)
        # no grid wall has a carrier: one frontier for each side
        assert len(calls) - before == 2 * ws.nwalls()


def test_packing_rows():
    ws = grid(3)
    rows = [[p for p in ws.points if p.endswith(f",{j}")] for j in range(4)]
    assert bounded_packing_number(ws, rows, 0).k == 1
    assert bounded_packing_number(ws, rows, 1).k == 2
    assert bounded_packing_number(ws, rows, 3).k == 4


def test_packing_matches_bruteforce():
    for ws in metric_spaces(6):
        regions = [wall_region(ws, w.index) for w in ws.walls]
        regions = [r for r in regions if r]
        if not regions:
            continue
        rep = bounded_packing_number(ws, regions, 1)
        best = 0
        for r in range(1, len(regions) + 1):
            for sub in combinations(range(len(regions)), r):
                if all(dist_sets(ws.metric, regions[a], regions[b]) <= 1
                       for a, b in combinations(sub, 2)):
                    best = max(best, r)
        assert rep.k == best


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packing_matches_pairwise_oracle(data):
    # graphs that may be disconnected, subsets that may be empty, D = inf
    n = data.draw(st.integers(1, 7))
    point = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=10))
    edges = sorted({(min(a, b), max(a, b), 1) for a, b in pairs if a != b})
    ws = Wallspace([f"p{i}" for i in range(n)], [],
                   metric=Metric.from_edges(n, edges))
    subsets = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    D = data.draw(st.sampled_from([0, 1, 1.5, 2, 4, INF]))

    def close(a, b):
        d = min((ws.metric.dist[i][j] for i in range(n) if a >> i & 1
                 for j in range(n) if b >> j & 1), default=INF)
        return d <= D

    best = []
    for size in range(len(subsets), 0, -1):
        families = [list(f) for f in combinations(range(len(subsets)), size)
                    if all(close(subsets[a], subsets[b])
                           for a, b in combinations(f, 2))]
        if families:
            best = min(families)
            break
    rep = bounded_packing_number(ws, subsets, D)
    assert (rep.k, rep.witness_family) == (len(best), best)


def test_packing_witness_is_least_maximum_family():
    # carriers of the Z^2 radius-3 H-wall system: many 4-families tie
    ball = cayley_ball(FreeAbelian(2), 3)
    ws, _meta = generate_hwall_system(ball, [
        HWallSpec(CoordinateSubgroup(FreeAbelian(2), [1]), "coordinate",
                  axis=0),
        HWallSpec(CoordinateSubgroup(FreeAbelian(2), [0]), "coordinate",
                  axis=1)])
    regions = [w.carrier() for w in ws.walls]
    rep = bounded_packing_number(ws, regions, 1)
    close = [list(sub) for r in range(rep.k, rep.k + 2)
             for sub in combinations(range(len(regions)), r)
             if all(dist_sets(ws.metric, regions[a], regions[b]) <= 1
                    for a, b in combinations(sub, 2))]
    assert all(len(f) == rep.k for f in close) and len(close) > 1
    assert rep.witness_family == min(close) == [0, 1, 7, 8]


@st.composite
def separation_inputs(draw):
    """A wallspace with any walls (vacuous, empty-sided or not covering
    the points) and a unit-weight, weighted or explicit-table metric, which
    may have inf distances and zero distances between distinct points."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    sides = st.integers(0, full)
    walls = [Wall(i, u, v) for i, (u, v) in
             enumerate(draw(st.lists(st.tuples(sides, sides), max_size=6)))]
    kind = draw(st.sampled_from(["unit", "weighted", "table"]))
    if kind == "table":
        entry = st.sampled_from([0, 1, 1.5, 2, 3, INF])
        table = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            table[i][j] = table[j][i] = draw(entry)
        metric = Metric(table)
    else:
        weight = st.just(1) if kind == "unit" else st.sampled_from(
            [0, 0.5, 1, 2, 3])
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        metric = Metric.from_edges(n, [(i, j, draw(weight))
                                       for i, j in pairs if i != j])
    return Wallspace([f"p{i}" for i in range(n)], walls, metric=metric)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_separation_diagnostics_match_row_scans(data):
    # the same reports, byte for byte, as the pair-by-pair scans over the
    # row metric, or the same error
    ws = data.draw(separation_inputs())
    old = Wallspace(ws.points, ws.walls, metric=OracleMetric.of(ws.metric))
    K = data.draw(st.integers(1, ws.full))
    Y = data.draw(st.integers(1, ws.full))
    r = data.draw(st.sampled_from([0, 1, 1.5, 2, INF]))
    fit = {"max_denominator": data.draw(st.sampled_from([1, 3, 64])),
           "max_offset": data.draw(st.sampled_from([0.0, 0.5, 1, 3]))}
    for new, oracle, args in (
            (linear_separation_fit, oracle_linear_separation_fit, ()),
            (ball_ball_separation, oracle_ball_ball_separation, (r,)),
            (compact_wall_separation, oracle_compact_wall_separation, (K,)),
            (wall_wall_separation, oracle_wall_wall_separation, ()),
            (subspace_separation, oracle_subspace_separation,
             (Y, "BallWallNbd", r)),
            (subspace_separation, oracle_subspace_separation,
             (Y, "WallNbdWallNbd", r))):
        kwargs = fit if new is linear_separation_fit else {}
        assert outcome(new, ws, *args, **kwargs) \
            == outcome(oracle, old, *args, **kwargs)


def test_subspace_separation_matches_the_oracle_on_hand_cases():
    # production finds a repeated genuine partition of Y on U ∩ Y and
    # V ∩ Y in the parent's ordering, the oracle on the compressed walls
    # of the subwallspace
    metric = Metric.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    # both walls induce ({0, 1}, {2}) on Y = {0, 1, 2}
    twice = Wallspace("abcd", [Wall(0, 0b0011, 0b1100),
                               Wall(1, 0b1011, 0b0100)], metric=metric)
    # so do three walls, reported by index, first wall first
    thrice = Wallspace("abcd", [Wall(7, 0b0011, 0b1100),
                                Wall(2, 0b1011, 0b0100),
                                Wall(5, 0b0011, 0b0100)], metric=metric)
    # wall 1 is {Y, ∅} on Y, which the subwallspace drops, and wall 2
    # {∅, Y}; walls 3 and 4 both induce ({0, 1, 2}, {2}), which is no
    # genuine partition, so its repeat is allowed
    vacuous = Wallspace("abcd", [Wall(0, 0b0011, 0b1100),
                                 Wall(1, 0b1111, 0b1000),
                                 Wall(2, 0b1000, 0b1111),
                                 Wall(3, 0b0111, 0b1100),
                                 Wall(4, 0b1111, 0b0100)], metric=metric)
    cases = [(twice, 0b0111), (twice, ["a", "b", "c"]), (twice, 0b1111),
             (thrice, 0b0111), (vacuous, 0b0111), (vacuous, 0b0011),
             (twice, []), (twice, 0)]
    for ws, Y in cases:
        for kind in ("BallWallNbd", "WallNbdWallNbd"):
            for r in (0, 1):
                assert outcome(subspace_separation, ws, Y, kind, r) == \
                    outcome(oracle_subspace_separation, ws, Y, kind, r)
    message = "distinct parent walls induce equal genuine partitions: "
    assert outcome(subspace_separation, twice, 0b0111, "BallWallNbd", 0) \
        == ("DuplicateInducedPartition", message + "[(0, 1)]")
    assert outcome(subspace_separation, thrice, 0b0111, "BallWallNbd", 0) \
        == ("DuplicateInducedPartition", message + "[(7, 2), (7, 5)]")
    assert subspace_separation(vacuous, 0b0111, "BallWallNbd", 0).verdict \
        == "holds"
    for Y in ([], 0):
        assert outcome(subspace_separation, twice, Y, "BallWallNbd", 0) \
            == ("WallcubeError", "Y must be nonempty")


def outcome(diagnostic, ws, *args, **kwargs):
    """The report as its JSON text, or the error raised instead."""
    try:
        return io.dumps(diagnostic(ws, *args, **kwargs).to_dict())
    except WallcubeError as exc:
        return type(exc).__name__, str(exc)


def test_metric_required():
    with pytest.raises(MetricRequired):
        linear_separation_fit(fig3())
    with pytest.raises(MetricRequired):
        ball_ball_separation(fig3(), 0)
