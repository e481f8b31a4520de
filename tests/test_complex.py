"""Dual complex construction, checked against brute-force enumeration."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    all_cubes,
    cube_key,
    cubes,
    flippable,
    is_valid,
    oracle_adj,
    oracle_all_vertices,
    oracle_betwixt,
    oracle_build_dual,
    oracle_canonical_cube,
    oracle_contract_loop,
    oracle_complete_skeleton,
    oracle_cube_distance,
    oracle_edges,
    oracle_export_dict,
    oracle_maximal_cubes,
    oracle_verify_npc,
    pair_le,
    random_wallspace,
    scan_up_masks,
    strip_cells,
)
from wallcube import io, wallspace
from wallcube.complex import (
    DEFAULT_VERTEX_CAP,
    Cube,
    CubeComplex,
    _complete_skeleton,
    build_dual,
    canonical_cube,
    conflict_tables,
    contract_loop,
    cube_distance,
    enumerate_all_orientations,
    enumerate_valid,
    maximal_cubes,
    verify_npc,
)
from wallcube.errors import (
    NotInComplex,
    StateSpaceCap,
    StuckLoop,
    UnknownPoint,
    WallcubeError,
)
from wallcube.generators import fig3, geom_path, grid, non_hausdorff3, rbad
from wallcube.groups import (
    CoordinateSubgroup,
    CyclicSubgroup,
    Free,
    FreeAbelian,
    HWallSpec,
    cayley_ball,
    generate_hwall_system,
)
from wallcube.hemi import InducedVariant, dual_sub, induce_hemi
from wallcube.metric import owners
from wallcube.separation import compact_wall_separation
from wallcube.wallspace import (
    Wall,
    Wallspace,
    max_transverse_families,
    separation_count,
    validate,
)

SEEDS = range(30)


def valid_spaces():
    out = [fig3(), grid(2), non_hausdorff3()]
    for s in SEEDS:
        ws = random_wallspace(s, with_metric=False)
        if validate(ws).ok:
            out.append(ws)
    return out


def f2_system(radius):
    """The F2 H-wall system of <a> on the radius-`radius` ball."""
    f2 = Free(2)
    ws, _meta = generate_hwall_system(
        cayley_ball(f2, radius),
        [HWallSpec(CyclicSubgroup(f2, "a"), "branch", axis="a")])
    return ws


def hypercube(n):
    """{0,1}^n with one wall per coordinate: n pairwise transverse walls,
    whose dual is the n-cube."""
    pts = range(1 << n)
    return Wallspace([f"p{p}" for p in pts], [
        Wall(i, sum(1 << p for p in pts if not p >> i & 1),
             sum(1 << p for p in pts if p >> i & 1)) for i in range(n)])


def complexes():
    """The duals of `valid_spaces()` and of the first twelve with their
    walls listed against index order, each also with its cubes of
    dimension >= 3, then >= 2, stripped, and as the dual of a U0 hemi."""
    rng = random.Random(5)
    spaces = valid_spaces()
    spaces += [Wallspace(ws.points, ws.walls[::-1]) for ws in spaces[:12]]
    out = []
    for ws in spaces:
        cc = enumerate_all_orientations(ws)
        P = rng.sample(ws.points, rng.randint(1, len(ws.points)))
        out += [cc, strip_cells(cc, 3), strip_cells(cc, 2),
                dual_sub(cc, induce_hemi(ws, P, InducedVariant("U0")))]
    return out


def test_conflict_tables_hand_case():
    # two disjoint halfspaces conflict; overlapping ones do not
    ws = Wallspace(["p0", "p1", "p2", "p3"],
                   [Wall(0, 0b0011, 0b1100), Wall(1, 0b0001, 0b1110)])
    conf = conflict_tables(ws)
    # left of wall 0 ({p0,p1}) vs right of wall 0 ({p2,p3}): disjoint
    assert conf[0][1][0] & 1
    # left of wall 0 vs left of wall 1 ({p0}): overlap
    assert not conf[0][0][0] & 0b10


def test_enumeration_matches_oracle():
    no_walls = Wallspace(["x"], [])
    for ws in valid_spaces() + [grid(3), no_walls]:
        cc = enumerate_all_orientations(ws)
        assert cc.vertices == oracle_all_vertices(ws)


def test_enumeration_matches_build_dual_beyond_brute_force():
    # 74 and 27 walls: far past any 2^walls enumeration
    for ws in (rbad(8), f2_system(3)):
        assert enumerate_all_orientations(ws).vertices == \
            oracle_build_dual(ws, ws.points[0])


def test_build_dual_every_basepoint_matches_enumeration():
    for ws in valid_spaces():
        full = enumerate_all_orientations(ws)
        for p in ws.points:
            assert oracle_build_dual(ws, p) == full.vertices


@st.composite
def covering_wallspaces(draw):
    """A valid wallspace on at most 6 points and 7 walls, with vacuous,
    overlapping and repeated non-genuine walls among them."""
    npts = draw(st.integers(1, 6))
    full = (1 << npts) - 1
    halves = st.integers(0, full)
    walls = []
    for i in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["cover", "vacuous", "repeat"]))
        if kind == "repeat" and walls:
            w = draw(st.sampled_from(walls))
            u, v = w.left, w.right
        elif kind == "vacuous":
            u, v = draw(st.sampled_from([(full, 0), (0, full)]))
        else:
            u = draw(halves)
            v = (full & ~u) | (u & draw(halves))
        walls.append(Wall(i, u, v))
    ws = Wallspace([f"p{i}" for i in range(npts)], walls)
    assume(validate(ws).ok)
    return ws


@settings(max_examples=300, deadline=None)
@given(covering_wallspaces())
def test_build_dual_matches_flip_search_oracle(ws):
    for p in ws.points:
        assert build_dual(ws, p).vertices == oracle_build_dual(ws, p)


def noncovering_wallspace(seed):
    """Arbitrary halfspace pairs on at most 5 points and 7 walls, most of
    them not covering X, empty and vacuous sides among them."""
    rng = random.Random(seed)
    full = (1 << rng.randint(1, 5)) - 1
    walls = [Wall(i, rng.randint(0, full), rng.randint(0, full))
             for i in range(rng.randint(1, 7))]
    return Wallspace([f"p{i}" for i in range(full.bit_length())], walls)


def test_enumeration_matches_oracle_on_noncovering_spaces():
    # about a third of these spaces have no valid orientation at all
    unsatisfiable = 0
    for seed in range(400):
        ws = noncovering_wallspace(seed)
        expected = oracle_all_vertices(ws)
        assert enumerate_all_orientations(ws).vertices == expected
        unsatisfiable += not expected
    assert unsatisfiable > 50


seeds = st.integers(0, 1 << 32)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    covering_wallspaces(),
    seeds.map(lambda s: random_wallspace(s, with_metric=False)),
    seeds.map(noncovering_wallspace)))
def test_up_masks_are_the_flippable_walls(ws):
    # bit i of up[m] is set iff bit i is clear in m and flipping i keeps m
    # valid; the scan the up masks replaced finds the same edges, and the
    # cells built on them equal the definitions' edges and cubes
    n = ws.nwalls()
    up = enumerate_valid(ws, DEFAULT_VERTEX_CAP)
    verts = oracle_all_vertices(ws)
    assert sorted(up) == verts
    for m, u in up.items():
        assert u == sum(1 << i for i in range(n)
                        if not m >> i & 1 and flippable(ws, m, i))
    scan_up, scan_level = scan_up_masks(verts, n)
    assert {m: u for m, u in up.items() if u} == scan_up
    cc = CubeComplex(ws, _complete_skeleton(up))
    assert {w: b for w, b in cc.cells.items() if w.bit_count() == 1} == \
        scan_level
    assert cc.edges == oracle_edges(verts, n)
    assert cubes(cc) == oracle_complete_skeleton(set(verts), n)


def test_up_masks_match_the_scan_at_size():
    # past the oracles' reach: the scan's edges and the recorded counts
    for ws, counts in [(grid(20), {0: 441, 1: 840, 2: 400}),
                       (rbad(20), {0: 442, 1: 460, 2: 19}),
                       (geom_path(511), {0: 511, 1: 510})]:
        up = enumerate_valid(ws, DEFAULT_VERTEX_CAP)
        scan_up, scan_level = scan_up_masks(up, ws.nwalls())
        assert {m: u for m, u in up.items() if u} == scan_up
        cc = CubeComplex(ws, _complete_skeleton(up))
        assert {w: b for w, b in cc.cells.items() if w.bit_count() == 1} == \
            scan_level
        assert cc.cube_counts() == counts


def counting_set():
    """A set type, and the counts of insertions and membership tests made
    on all its instances."""
    counts = {"add": 0, "in": 0}

    class CountingSet(set):
        def add(self, x):
            counts["add"] += 1
            super().add(x)

        def __contains__(self, x):
            counts["in"] += 1
            return super().__contains__(x)

    return CountingSet, counts


def test_skeleton_edges_work_count(monkeypatch):
    # level 1 inserts each bit of each up mask, one insertion per edge,
    # and makes no membership test; no timing.  On the path no edge's base
    # has an up edge on a higher wall, so level 2 tests nothing either.
    # The scan the up masks replaced tests every clear bit of every
    # vertex: 511 * 510 / 2 tests on the path.
    ws = geom_path(511)
    up = enumerate_valid(ws, DEFAULT_VERTEX_CAP)
    counting, counts = counting_set()
    monkeypatch.setattr("wallcube.complex.set", counting, raising=False)
    cc = CubeComplex(ws, _complete_skeleton(up))
    assert cc.cube_counts() == {0: 511, 1: 510}
    assert counts == {"add": 510, "in": 0}
    counting, counts = counting_set()
    monkeypatch.setattr(conftest, "set", counting, raising=False)
    scan_up_masks(up, ws.nwalls())
    assert counts == {"add": 510, "in": 511 * 510 // 2}


def test_build_dual_transposes_only_the_carriers(monkeypatch):
    # no timing: on a fresh wallspace `build_dual` transposes the carriers
    # alone, for validate's betwixt counts; the open sides wait for their
    # first reader, a separation diagnostic, which builds them once
    calls = []

    def counting(masks, n):
        calls.append(masks)
        return owners(masks, n)

    monkeypatch.setattr(wallspace, "owners", counting)
    for ws in (grid(7), f2_system(4)):
        calls.clear()
        build_dual(ws, ws.points[0])
        carriers = [w.carrier() for w in ws.walls]
        assert calls == [carriers]
        for _ in range(2):
            compact_wall_separation(ws, ws.points[:2])
        assert calls == [carriers,
                         [w.left & ~w.right for w in ws.walls],
                         [w.right & ~w.left for w in ws.walls]]


def test_detectors_agree():
    # the whole cell store: vertices, edges (the one-bit masks) and cubes;
    # rbad 8 (74 walls) and F2 r4 (81 walls) are where a skeleton loop
    # that missed a wall, or a per-wall pass, would show
    for ws in valid_spaces() + [rbad(8), f2_system(4)]:
        cc = enumerate_all_orientations(ws)
        n = ws.nwalls()
        verts = (oracle_all_vertices(ws) if n <= 8
                 else oracle_build_dual(ws, ws.points[0]))
        assert sorted(cc.cells[0]) == cc.vertices == verts
        assert all(cc.cells.values())
        assert cc.edges == oracle_edges(verts, n)
        assert cubes(cc) == oracle_complete_skeleton(set(verts), n)


def test_adjacency_is_built_on_first_read():
    for cc in complexes() + [enumerate_all_orientations(ws)
                             for ws in (rbad(8), f2_system(4))]:
        assert cc.adj == oracle_adj(cc)
    ws = fig3()
    cc = enumerate_all_orientations(ws)
    sub = dual_sub(cc, induce_hemi(ws, ["a"], InducedVariant("U0")))
    assert "adj" not in vars(sub)
    assert sub.adj == oracle_adj(sub)
    assert "adj" in vars(sub)


def test_export_matches_oracle():
    # corner ids come out ascending with no sort, walls listed against
    # index order included
    for cc in complexes():
        assert io.dumps(cc.export_dict()) == io.dumps(oracle_export_dict(cc))
    # orientation rows of exactly one entry per wall, none for no wall,
    # across the byte and word boundaries of the wall mask
    for nwalls in (0, 1, 8, 64, 65):
        cc = enumerate_all_orientations(geom_path(nwalls + 1))
        assert cc.ws.nwalls() == nwalls
        doc = cc.export_dict()
        assert io.dumps(doc) == io.dumps(oracle_export_dict(cc))
        assert [len(v["orientation"]) for v in doc["vertices"]] == \
            [nwalls] * (nwalls + 1)
    doc = enumerate_all_orientations(Wallspace(["a"], [])).export_dict()
    assert doc["vertices"] == [{"id": 0, "orientation": []}]


def test_flippable_matches_validity():
    for ws in valid_spaces()[:12]:
        cc = enumerate_all_orientations(ws)
        vset = set(cc.vertices)
        for m in cc.vertices:
            for i in range(ws.nwalls()):
                assert flippable(ws, m, i) == \
                    ((m ^ (1 << i)) in vset)


def test_fig3_structure():
    ws = fig3()
    cc = build_dual(ws, "a")
    assert cc.cube_counts() == {0: 12, 1: 18, 2: 8, 3: 1}
    assert cc.dimension() == 3
    (cube3,) = cubes(cc)[3]
    assert sorted(ws.walls[w].index for w in cube3.walls) == [3, 4, 5]
    fams, k = max_transverse_families(ws)
    assert fams == [(1, 2), (1, 4), (3, 4, 5)]
    assert k == 3


def test_canonical_cube_fig3():
    ws = fig3()
    dims = {p: canonical_cube(ws, p).dim for p in ws.points}
    assert dims == {"a": 1, "b": 1, "c": 0, "d": 0, "e": 2, "f": 0}


def test_canonical_cube_is_in_complex():
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        for p in ws.points:
            c = canonical_cube(ws, p)
            assert cc.has_cell(c.base, c.mask)
            assert c.dim == len(oracle_betwixt(ws, p))


def paper_family_spaces():
    """The inputs of the paper-families benchmark: grid 5-7, rbad 6-8, and
    the H-wall systems of the Z2 balls of radius 3-5 and the F2 balls of
    radius 2-4."""
    z2 = FreeAbelian(2)
    z2_hwalls = [HWallSpec(CoordinateSubgroup(z2, [1]), "coordinate", axis=0),
                 HWallSpec(CoordinateSubgroup(z2, [0]), "coordinate", axis=1)]
    return ([grid(n) for n in (5, 6, 7)] + [rbad(n) for n in (6, 7, 8)]
            + [generate_hwall_system(cayley_ball(z2, r), z2_hwalls)[0]
               for r in (3, 4, 5)]
            + [f2_system(r) for r in (2, 3, 4)])


def non_covering_spaces():
    """Wallspaces that fail coverage or carry vacuous walls: a wall missing
    a point, walls with an empty left or right side, a vacuous wall each
    way round, and random spaces whose sides are any two point sets."""
    full = 0b1111
    out = [Wallspace("abcd", [Wall(0, 0b0011, 0b0100),      # misses d
                              Wall(1, 0, 0b0110),           # empty left
                              Wall(2, 0b0101, 0),           # empty right
                              Wall(3, 0, full),             # vacuous
                              Wall(4, full, 0),             # vacuous
                              Wall(5, 0b0111, 0b1110),
                              Wall(6, 0, 0)])]              # empty both
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        out.append(Wallspace(range(n), [
            Wall(i, rng.randint(0, full), rng.randint(0, full))
            for i in range(rng.randint(0, 7))]))
    return out


def test_canonical_cube_matches_wall_by_wall_construction():
    # the index masks against the orientation toward p built wall by wall,
    # its betwixting walls freed; on spaces without cover too
    spaces = valid_spaces() + paper_family_spaces() + non_covering_spaces()
    assert len(spaces) > 50
    for ws in spaces:
        for p in ws.points:
            assert canonical_cube(ws, p) == oracle_canonical_cube(ws, p)
        assert validate(ws).betwixt_counts == {
            p: len(oracle_betwixt(ws, p)) for p in ws.points}
    with pytest.raises(UnknownPoint):
        canonical_cube(fig3(), "z")


def test_pair_le_is_a_partial_order():
    rng = random.Random(5)
    pairs = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(30)]
    for a in pairs:
        assert pair_le(a, a)
        for b in pairs:
            if pair_le(a, b) and pair_le(b, a):
                assert a == b
            for c in pairs:
                if pair_le(a, b) and pair_le(b, c):
                    assert pair_le(a, c)


def test_distance_law():
    # separation count equals complex distance between canonical cubes
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        for x in ws.points:
            for y in ws.points:
                cx, cy = canonical_cube(ws, x), canonical_cube(ws, y)
                assert cube_distance(cc, cx, cy) == separation_count(ws, x, y)


def test_cube_distance_needs_cubes_of_the_complex():
    # each cube is checked against the cell store: the first missing one
    # is named
    ws = grid(1)
    cc = build_dual(ws, "0,0")
    v = cc.vertices
    square = Cube(v[0], 0b11)
    assert cc.has_cell(square.base, square.mask)
    assert cube_distance(cc, square, Cube(v[3], 0)) == 0
    diagonal = Cube(v[0] | 0b100, 0)
    assert not cc.has_cell(diagonal.base, diagonal.mask)
    with pytest.raises(NotInComplex) as exc:
        cube_distance(cc, square, diagonal)
    assert exc.value.args == (diagonal,)
    with pytest.raises(NotInComplex) as exc:
        cube_distance(cc, diagonal, Cube(v[1], 1 << 9))
    assert exc.value.args == (diagonal,)


def test_cube_distance_matches_bfs():
    # every vertex pair of grid(2), and pairs of cubes of every dimension
    # on the valid spaces (a seeded sample where there are many)
    rng = random.Random(5)
    ws = grid(2)
    cc = build_dual(ws, "0,0")
    for a in cc.vertices:
        for b in cc.vertices:
            ca, cb = Cube(a, 0), Cube(b, 0)
            assert cube_distance(cc, ca, cb) == \
                oracle_cube_distance(cc, ca, cb)
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        sample = all_cubes(cc)
        sample = rng.sample(sample, min(len(sample), 25))
        for a in sample:
            for b in sample:
                assert cube_distance(cc, a, b) == \
                    oracle_cube_distance(cc, a, b)


def test_maximal_cube_bijection():
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        fams, _k = max_transverse_families(ws)
        maximal = sorted(
            tuple(sorted(ws.walls[w].index for w in c.walls))
            for c in maximal_cubes(cc) if c.dim >= 1)
        # one maximal positive-dimensional cube per maximal family; when the
        # complex is a single point there are no families either
        assert sorted(set(maximal)) == fams
        assert len(maximal) == len(set(maximal)) or len(fams) == 0


def test_verify_npc_passes_on_duals():
    for ws in valid_spaces():
        rep = verify_npc(enumerate_all_orientations(ws))
        assert rep.ok, rep.violations


def test_verify_npc_catches_missing_cube():
    # three squares around a corner vertex with no 3-cube filling them:
    # the seven corners of a 3-cube on walls 0, 1, 2 but 0b111, the nine
    # edges among them and the three squares at vertex 0b000 (id 0)
    ws = Wallspace(["x"], [Wall(i, 1, 1) for i in range(3)])
    cells = {
        0: {0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110},
        0b001: {0b000, 0b010, 0b100},
        0b010: {0b000, 0b001, 0b100},
        0b100: {0b000, 0b001, 0b010},
        0b011: {0b000}, 0b101: {0b000}, 0b110: {0b000},
    }
    cc = CubeComplex(ws, cells)
    assert cc.cube_counts() == {0: 7, 1: 9, 2: 3}
    rep = verify_npc(cc)
    assert not rep.ok
    assert any(v["kind"] == "MissingCube" and v["vertex"] == 0
               and v["walls"] == [0, 1, 2] for v in rep.violations)


class CountingCells(dict):
    """A cell store that counts its `get` lookups."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def npc_lookup_bound(cc):
    """The sum over vertices v of C(deg v, 2) plus the cells of dimension
    >= 3 with corner v."""
    total = 0
    for v in cc.vertices:
        deg = len(cc.adj[v])
        total += deg * (deg - 1) // 2 + sum(
            v & ~w in bases for w, bases in cc.cells.items()
            if w.bit_count() >= 3)
    return total


def test_verify_npc_work_count():
    # one lookup per pair of link walls and per clique of size >= 3; no
    # timing.  `adj` is read by the bound, before the store is wrapped.
    cube6 = enumerate_all_orientations(hypercube(6))
    assert npc_lookup_bound(cube6) == 64 * (15 + 20 + 15 + 6 + 1) == 3648
    for cc in [cube6] + [enumerate_all_orientations(ws) for ws in
                         valid_spaces() + [rbad(8), f2_system(4)]]:
        bound = npc_lookup_bound(cc)
        cc.cells = CountingCells(cc.cells)
        assert verify_npc(cc).ok
        assert cc.cells.gets <= bound


def test_maximal_cubes_match_oracle():
    for sub in complexes():
        assert sorted(maximal_cubes(sub), key=cube_key) == \
            sorted(oracle_maximal_cubes(sub), key=cube_key)


def test_verify_npc_matches_oracle():
    # walls listed against index order too: links are walked by wall index
    failing = 0
    for sub in complexes():
        rep = verify_npc(sub)
        assert rep.violations == oracle_verify_npc(sub.export_dict())
        assert rep.ok == (not rep.violations)
        failing += not rep.ok
    # the stripped complexes of dimension >= 3 run the failing branch
    assert failing >= 5


def test_contract_loop_squares_and_backtracks():
    ws = grid(2)
    cc = build_dual(ws, "0,0")
    rng = random.Random(3)
    verts = cc.vertices
    contracted = 0
    while contracted < 50:
        start = rng.choice(verts)
        path = [start]
        for _ in range(11):
            path.append(rng.choice(cc.adj[path[-1]])[0])
            if path[-1] == start and len(path) > 2:
                moves = contract_loop(cc, path)
                assert all(mv[0] in ("backtrack", "square") for mv in moves)
                contracted += 1
                break


def test_contract_loop_errors():
    cc = build_dual(grid(1), "0,0")
    v = cc.vertices
    with pytest.raises(WallcubeError):
        contract_loop(cc, [v[0], v[1]])  # not closed
    with pytest.raises(NotInComplex):
        contract_loop(cc, [v[0], v[3], v[0]])  # diagonal is not an edge


def test_contract_loop_stuck_without_square():
    # a hollow square: 4 vertices, 4 edges, no 2-cube
    cc = strip_cells(build_dual(grid(1), "0,0"), 2)  # strip the square
    v = sorted(cc.vertices)
    loop = [v[0], v[1], v[3], v[2], v[0]]
    with pytest.raises(StuckLoop):
        contract_loop(cc, loop)


def closed_walks(cc, rng, count):
    """Random closed walks: a random walk out, then a random geodesic
    back, each step flipping a wall on which the walk and its start
    differ."""
    walks = []
    for _ in range(count):
        start = rng.choice(cc.vertices)
        walk = [start]
        for _ in range(rng.randint(1, 12)):
            walk.append(rng.choice(cc.adj[walk[-1]])[0])
        while walk[-1] != start:
            walk.append(rng.choice([m for m, i in cc.adj[walk[-1]]
                                    if (walk[-1] ^ start) >> i & 1]))
        walks.append(walk)
    return walks


def z2_dual(radius):
    spec = FreeAbelian(2)
    ws, _meta = generate_hwall_system(cayley_ball(spec, radius), [
        HWallSpec(CoordinateSubgroup(spec, {1 - axis}), "coordinate",
                  axis=axis, index=axis) for axis in (0, 1)])
    return build_dual(ws, ws.points[0])


def loop_outcome(contract, cc, loop):
    try:
        return contract(cc, loop)
    except WallcubeError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("make", [
    lambda: build_dual(grid(3), "0,0"), lambda: build_dual(rbad(3), "0"),
    lambda: z2_dual(3), lambda: build_dual(fig3(), "a")],
    ids=["grid 3", "rbad 3", "Z2 r3", "fig3"])
def test_contract_loop_matches_oracle(make):
    # the next same-wall edge is the only partner an edge can have, so one
    # scan per pass makes the moves of the scan over every pair
    cc = make()
    for walk in closed_walks(cc, random.Random(19), 300):
        assert loop_outcome(contract_loop, cc, walk) == \
            loop_outcome(oracle_contract_loop, cc, walk)
    hollow = strip_cells(build_dual(grid(1), "0,0"), 2)
    v = sorted(hollow.vertices)
    loop = [v[0], v[1], v[3], v[2], v[0]]
    assert loop_outcome(contract_loop, hollow, loop) == \
        loop_outcome(oracle_contract_loop, hollow, loop)
    assert loop_outcome(contract_loop, hollow, loop)[0] == "StuckLoop"


def test_canonical_orientation_of_a_valid_wallspace_is_a_zero_cube():
    # the proof in build_dual: the walls of a wallspace that validates
    # cover X, so the orientation toward p, the base of p's canonical
    # cube, chooses sides that all hold p
    checked, seed = 0, 0
    while checked < 400:
        ws = random_wallspace(seed, with_metric=False)
        seed += 1
        if not validate(ws).ok:
            continue
        assert all(is_valid(ws, canonical_cube(ws, p).base)
                   for p in ws.points)
        checked += 1


def test_single_vacuous_wall_dual():
    full = 0b11
    ws = Wallspace(["x", "y"], [Wall(0, full, 0)])
    cc = build_dual(ws, "x")
    # the empty side conflicts with itself, so the only 0-cube orients the
    # wall toward X
    assert cc.cube_counts() == {0: 1, 1: 0}


def test_vertex_cap():
    with pytest.raises(StateSpaceCap):
        build_dual(grid(3), "0,0", vertex_cap=3)
    with pytest.raises(StateSpaceCap):
        enumerate_all_orientations(grid(3), vertex_cap=3)


def test_search_budget_on_unsatisfiable_noncovering_space():
    # 24 unconstrained walls ahead of two walls whose only halfspaces {p}
    # and {q} are disjoint: every branch dies at the last pair, a 2^24-leaf
    # dead-end tree, but the first state whose two children die decides
    # that no orientation is valid, after one descent
    full = 0b111
    walls = [Wall(i, full, full) for i in range(24)]
    walls += [Wall(24, 0b001, 0b001), Wall(25, 0b010, 0b010)]
    ws = Wallspace(["p", "q", "r"], walls)
    t0 = time.perf_counter()
    cc = enumerate_all_orientations(ws, vertex_cap=100)
    assert time.perf_counter() - t0 < 1.0
    assert cc.vertices == [] and cc.cube_counts() == {0: 0, 1: 0}


def test_export_dict_shape():
    cc = build_dual(fig3(), "a")
    doc = cc.export_dict()
    assert len(doc["vertices"]) == 12
    assert len(doc["edges"]) == 18
    assert sum(1 for c in doc["cubes"] if c["dim"] == 2) == 8
    assert sum(1 for c in doc["cubes"] if c["dim"] == 3) == 1
    for c in doc["cubes"]:
        assert len(c["vertices"]) == 1 << c["dim"]


def test_empty_complex_has_dimension_minus_one():
    # {p}|{p} and {q}|{q}: no orientation is valid; the empty complex has
    # no cube, so its dimension is -1 (a max over nonempty cells), and
    # there is no loop to sample
    from wallcube.cli import _sample_loops

    ws = Wallspace(["p", "q"], [Wall(0, 1, 1), Wall(1, 2, 2)])
    cc = enumerate_all_orientations(ws)
    assert cc.nvertices() == 0 and cc.dimension() == -1
    assert _sample_loops(cc, random.Random(0), count=5, max_len=6) == []
    assert enumerate_all_orientations(Wallspace(["p"], [])).dimension() == 0
