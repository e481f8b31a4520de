"""Wallspace core, everything against set-based oracles."""

import random

import pytest

from conftest import (
    from_geometric_walls,
    oracle_betwixt,
    oracle_max_transverse_families,
    oracle_names,
    oracle_separation_count,
    oracle_transverse,
    oracle_wall_separates,
    osculate,
    random_wallspace,
    subwallspace,
    wall_of,
    wall_position,
)
from wallcube import io
from wallcube.complex import Cube
from wallcube.errors import (
    DuplicateInducedPartition,
    MetricRequired,
    UnknownPoint,
)
from wallcube.generators import fig3, geom_path, grid, non_hausdorff3
from wallcube.hemi import InducedVariant, induce_hemi
from wallcube.metric import bits
from wallcube.separation import (
    bounded_packing_number,
    compact_wall_separation,
    subspace_separation,
)
from wallcube.wallspace import (
    Wall,
    Wallspace,
    max_transverse_families,
    betwixt,
    separating,
    separation_count,
    validate,
    wall_sides,
)

SEEDS = range(40)


def reversed_walls(ws):
    """The same wallspace with its walls listed against index order."""
    return Wallspace(ws.points, ws.walls[::-1], metric=ws.metric)


def spaces():
    out = [fig3(), grid(2), non_hausdorff3(), geom_path(4)]
    out += [random_wallspace(s) for s in SEEDS]
    out += [reversed_walls(ws) for ws in out[:12]]
    return out


# four points a, b, c, d: two transverse walls, both vacuous walls, {∅, ∅},
# {X, X} and a wall missing c and d
DEGENERATE = Wallspace("abcd", [
    Wall(0, 0b0011, 0b1100), Wall(1, 0b0101, 0b1010), Wall(2, 0, 0b1111),
    Wall(3, 0b1111, 0), Wall(4, 0, 0), Wall(5, 0b1111, 0b1111),
    Wall(6, 0b0001, 0b0010)])


def degenerate_spaces():
    """Wallspaces that `random_wallspace` never makes, as each side here
    is any point set: vacuous walls {∅, X}, walls {∅, ∅}, and walls that
    miss points.  A wall with an empty side conflicts with every wall,
    itself included."""
    out = [DEGENERATE]
    for seed in SEEDS:
        rng = random.Random(seed)
        npts = rng.randint(1, 5)
        full = (1 << npts) - 1
        walls = [Wall(i, *(rng.choice((0, full, rng.randint(0, full)))
                           for _ in "uv"))
                 for i in range(rng.randint(1, 7))]
        out.append(Wallspace([f"p{i}" for i in range(npts)], walls))
    return out


def test_separation_count_matches_oracle():
    for ws in spaces():
        for x in ws.points:
            for y in ws.points:
                assert separation_count(ws, x, y) == \
                    oracle_separation_count(ws, x, y)


def test_betwixt_matches_oracle():
    for ws in spaces():
        masks = ws.derived(betwixt)
        for x in ws.points:
            assert {ws.walls[pos].index
                    for pos in bits(masks[ws.point_pos(x)])} == \
                oracle_betwixt(ws, x)


def test_wall_separates_walls_matches_oracle():
    for ws in spaces():
        wall = ws.derived(wall_sides)
        idxs = ws.wall_indices()
        for i in idxs:
            for j in idxs:
                mask = separating(wall[wall_position(ws, i)],
                              wall[wall_position(ws, j)])
                for k in idxs:
                    if k in (i, j):
                        continue
                    assert bool(mask >> wall_position(ws, k) & 1) == \
                        oracle_wall_separates(ws, k, i, j)


def test_osculate_definition():
    for ws in spaces():
        idxs = ws.wall_indices()
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                expect = (not oracle_transverse(ws, i, j)) and not any(
                    oracle_wall_separates(ws, k, i, j)
                    for k in idxs if k not in (i, j))
                assert osculate(ws, i, j) == expect


def test_max_transverse_families_matches_bruteforce():
    for ws in spaces() + degenerate_spaces():
        fams, k = max_transverse_families(ws)
        expect = oracle_max_transverse_families(ws)
        assert fams == expect
        assert k == max((len(f) for f in expect), default=0)
    # the vacuous walls 2 and 3 are dropped; {X, X} is transverse to every
    # wall with two nonempty sides, {∅, ∅} to none
    assert max_transverse_families(DEGENERATE) == \
        ([(0, 1, 5), (4,), (5, 6)], 3)


def test_validate_fig3():
    rep = validate(fig3())
    assert rep.ok
    kinds = {}
    for info in rep.infos:
        kinds.setdefault(info["kind"], []).append(info)
    assert kinds["DuplicateWalls"][0]["walls"] == [3, 5]
    assert [i["wall"] for i in kinds["GenuinePartition"]] == [4]
    assert "VacuousWall" not in kinds
    # e is betwixt walls 3 and 5 (duplicates) only among nonbetwixt... check counts
    assert rep.betwixt_counts == {"a": 1, "b": 1, "c": 0, "d": 0, "e": 2, "f": 0}


def test_validate_coverage_violation():
    ws = Wallspace(["x", "y", "z"], [Wall(0, 0b001, 0b010)])
    rep = validate(ws)
    assert not rep.ok
    assert rep.errors[0]["kind"] == "CoverageViolation"
    assert rep.errors[0]["missing"] == ["z"]


def test_validate_duplicate_genuine_partition():
    ws = Wallspace(["x", "y"], [Wall(0, 0b01, 0b10), Wall(1, 0b10, 0b01)])
    rep = validate(ws)
    assert not rep.ok
    assert rep.errors[0]["kind"] == "DuplicateGenuinePartition"
    assert rep.errors[0]["walls"] == [0, 1]


def test_validate_vacuous_wall_allowed():
    full = 0b11
    ws = Wallspace(["x", "y"], [Wall(0, full, 0), Wall(1, 0, full)])
    rep = validate(ws)
    assert rep.ok
    assert sum(1 for i in rep.infos if i["kind"] == "VacuousWall") == 2
    # duplicate vacuous walls are only an info, never an error
    assert any(i["kind"] == "DuplicateWalls" for i in rep.infos)


def test_non_hausdorff_counts():
    ws = non_hausdorff3()
    assert separation_count(ws, "x", "y") == 1
    assert separation_count(ws, "x", "z") == 0
    assert separation_count(ws, "y", "z") == 0


def test_unknown_point_and_caps():
    ws = fig3()
    with pytest.raises(UnknownPoint):
        separation_count(ws, "a", "zz")
    # no cap on the points: only the steps that explode have one
    big = Wallspace([f"q{i}" for i in range(4097)], [])
    assert len(big.points) == 4097 and big.nwalls() == 0
    with pytest.raises(MetricRequired):
        ws.require_metric()


def test_names_of_matches_scan():
    # masks of no point, one point, every point, and random masks, on
    # spaces of up to 300 points; a mask with a bit past the last point,
    # which the scan would drop, is no point set
    rng = random.Random(3)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 300):
        ws = Wallspace([f"q{i}" for i in range(n)], [])
        masks = [0, ws.full, 1, 1 << (n - 1)]
        masks += [1 << rng.randrange(n) for _ in range(5)]
        masks += [rng.getrandbits(n) for _ in range(20)]
        for m in masks:
            assert ws.names_of(m) == oracle_names(ws, m)
        for m in (-1, ws.full | 1 << n, 1 << (n + 70)):
            with pytest.raises(UnknownPoint):
                ws.names_of(m)
    for ws in spaces():
        for w in ws.walls:
            for side in (w.left, w.right):
                assert ws.names_of(side) == oracle_names(ws, side)


def test_point_set_arguments_are_checked_once():
    # names or a mask, through one check: a negative mask (which once sent
    # compact_wall_separation into an endless loop) and a bit past the
    # last point (once a bare IndexError, or NotAHemiwallspace) are
    # UnknownPoint, naming the stray positions
    ws = grid(2)
    n = len(ws.points)
    names = ["0,0", "0,1", "1,1"]
    mask = sum(1 << ws.point_pos(p) for p in names)
    entry_points = [
        lambda X: compact_wall_separation(ws, X).to_dict(),
        lambda X: bounded_packing_number(ws, [X, names], 1).to_dict(),
        lambda X: subspace_separation(ws, X, "BallWallNbd", 1).to_dict(),
        lambda X: induce_hemi(ws, X, InducedVariant("U0")),
    ]
    for run in entry_points:
        assert run(mask) == run(names)
        with pytest.raises(UnknownPoint, match=f"from {n} up"):
            run(-1)
        with pytest.raises(UnknownPoint, match=rf"positions \[{n}\]"):
            run(1 << n | 1)
        with pytest.raises(UnknownPoint, match=rf"positions \[{n}, {n + 4}\]"):
            run(0b10001 << n)
        with pytest.raises(UnknownPoint):
            run(["0,0", "zz"])
    assert ws.point_mask(mask) == ws.point_mask(names) == mask
    assert ws.point_mask(ws.full) == ws.full and ws.point_mask(0) == 0


def test_from_geometric_walls_path():
    ws = geom_path(3)
    # interior vertices 1, 2 give walls ({0,1},{1,2,3}) and ({0,1,2},{2,3})
    assert ws.nwalls() == 2
    w0 = wall_of(ws, 0)
    assert set(ws.names_of(w0.left)) in ({"0", "1"}, {"1", "2", "3"})
    assert set(ws.names_of(w0.left | w0.right)) == {"0", "1", "2", "3"}
    assert ws.metric is not None
    assert ws.metric.dist[0][3] == 3


def test_geom_path_matches_geometric_walls():
    # geom_path writes down the walls that from_geometric_walls finds
    for n in range(41):
        points = [str(i) for i in range(n + 1)]
        edges = [(str(i), str(i + 1)) for i in range(n)]
        built = from_geometric_walls(points, edges,
                                     [[str(k)] for k in range(1, n)])
        assert io.wallspace_to_dict(geom_path(n)) \
            == io.wallspace_to_dict(built)


def test_from_geometric_walls_errors():
    pts = ["0", "1", "2", "3"]
    edges = [("0", "1"), ("1", "2"), ("2", "3")]
    with pytest.raises(AssertionError, match="not connected"):
        from_geometric_walls(pts, edges, [["0", "2"]])
    with pytest.raises(AssertionError, match="leaves 1 components"):
        from_geometric_walls(pts, edges, [["0"]])


def test_geometric_separation_tracks_distance():
    # in the path graph, walls at interior vertices strictly between x and y
    # are exactly the separators, so #(x,y) is within 1 of d(x,y)
    ws = geom_path(6)
    for i in range(7):
        for j in range(i + 1, 7):
            s = separation_count(ws, str(i), str(j))
            d = j - i
            assert d - 2 <= s <= d
            if i > 0 and j < 6:
                assert s == max(0, d - 1)


def test_subwallspace_projection():
    ws = fig3()
    sub = subwallspace(ws, ["a", "b", "c"])
    assert sub.points == ("a", "b", "c")
    for w in sub.walls:
        parent = wall_of(ws, w.index)
        assert set(sub.names_of(w.left)) == \
            set(ws.names_of(parent.left)) & {"a", "b", "c"}
    # wall 4 ({abce},{df}) induces ({abc}, {}) on {a,b,c}: vacuous, dropped
    assert 4 not in [w.index for w in sub.walls]


def test_subwallspace_duplicate_partition_raises():
    pts = ["0", "1", "2", "3"]
    walls = [Wall(0, 0b0011, 0b1100), Wall(1, 0b1011, 0b0100)]
    ws = Wallspace(pts, walls)
    # on {0,1,2} both walls induce ({0,1},{2})
    with pytest.raises(DuplicateInducedPartition):
        subwallspace(ws, ["0", "1", "2"])


def test_subwallspace_metric_restriction():
    ws = grid(2)
    row = ["0,0", "1,0", "2,0"]
    sub = subwallspace(ws, row)
    # the two vertical walls survive with distinct partitions, the
    # horizontal walls induce vacuous walls and are dropped
    assert [w.index for w in sub.walls] == [0, 1]
    assert sub.metric.dist[0][2] == \
        ws.metric.dist[ws.point_index["0,0"]][ws.point_index["2,0"]]


def test_value_types_are_immutable_tuples():
    # equal to, and hashed as, the tuple of their fields: the hash that
    # dataclass(frozen=True) gave them, which orders sets of cubes
    for value in (Wall(0, 0b01, 0b10), Cube(0b100, 0b10),
                  InducedVariant("Ur", r=1)):
        assert value == tuple(value) and hash(value) == hash(tuple(value))
        for name in (value._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
