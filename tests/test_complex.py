"""Dual complex construction, checked against brute-force enumeration."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    cube_key,
    oracle_all_vertices,
    oracle_build_dual,
    oracle_contract_loop,
    oracle_complete_skeleton,
    oracle_cube_distance,
    oracle_is_zero_cube,
    oracle_maximal_cubes,
    oracle_verify_npc,
    random_wallspace,
    strip_cells,
)
from wallcube.complex import (
    Cube,
    CubeComplex,
    OrientationEngine,
    build_dual,
    canonical_cube,
    conflict_tables,
    contract_loop,
    cube_distance,
    cube_from_family,
    enumerate_all_orientations,
    flippable,
    is_zero_cube,
    maximal_cubes,
    pair_le,
    path_to_canonical,
    verify_npc,
)
from wallcube.errors import (
    IndexOutOfRange,
    NotInComplex,
    NotTransverse,
    StateSpaceCap,
    StuckLoop,
    WallcubeError,
)
from wallcube.generators import fig3, grid, non_hausdorff3, rbad
from wallcube.groups import (
    CoordinateSubgroup,
    CyclicSubgroup,
    Free,
    FreeAbelian,
    HWallSpec,
    cayley_ball,
    generate_hwall_system,
)
from wallcube.wallspace import (
    Wall,
    Wallspace,
    betwixt_set,
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


def test_is_zero_cube_matches_oracle():
    for ws in valid_spaces()[:12] + [grid(3)]:
        for m in range(1 << ws.nwalls()):
            assert is_zero_cube(ws, m) == oracle_is_zero_cube(ws, m)


def test_conflict_tables_hand_case():
    # two disjoint halfspaces conflict; overlapping ones do not
    lefts = [0b0011, 0b0001]
    rights = [0b1100, 0b1110]
    conf = conflict_tables(lefts, rights)
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
    f2 = Free(2)
    f2_r3, _meta = generate_hwall_system(
        cayley_ball(f2, 3),
        [HWallSpec(CyclicSubgroup(f2, "a"), "branch", axis="a")])
    for ws in (rbad(8), f2_r3):
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


def test_enumeration_matches_oracle_on_noncovering_spaces():
    # arbitrary halfspace pairs, most of them not covering X; about a
    # third of these spaces have no valid orientation at all
    unsatisfiable = 0
    for seed in range(400):
        rng = random.Random(seed)
        full = (1 << rng.randint(1, 5)) - 1
        walls = [Wall(i, rng.randint(0, full), rng.randint(0, full))
                 for i in range(rng.randint(1, 7))]
        ws = Wallspace([f"p{i}" for i in range(full.bit_length())], walls)
        expected = oracle_all_vertices(ws)
        assert enumerate_all_orientations(ws).vertices == expected
        unsatisfiable += not expected
    assert unsatisfiable > 50


def test_detectors_agree():
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        assert cc.cubes == oracle_complete_skeleton(set(cc.vertices),
                                                    ws.nwalls())


def test_flippable_matches_validity():
    for ws in valid_spaces()[:12]:
        cc = enumerate_all_orientations(ws)
        vset = set(cc.vertices)
        for m in cc.vertices:
            for w in ws.walls:
                assert flippable(ws, m, w.index) == \
                    ((m ^ (1 << ws.wall_pos[w.index])) in vset)


def test_orientation_helpers_name_an_unknown_wall():
    # once a bare KeyError, resp. a wall ignored without a word
    ws = fig3()
    with pytest.raises(IndexOutOfRange, match="^99$"):
        flippable(ws, 0, 99)
    whole = {w.index: 0 for w in ws.walls}
    assert is_zero_cube(ws, whole)
    for side in (0, 1):
        with pytest.raises(IndexOutOfRange, match="^99$"):
            is_zero_cube(ws, {**whole, 99: side})


def test_fig3_structure():
    ws = fig3()
    cc = build_dual(ws, "a")
    assert cc.cube_counts() == {0: 12, 1: 18, 2: 8, 3: 1}
    assert cc.dimension() == 3
    (cube3,) = cc.cubes[3]
    assert sorted(ws.walls[w].index for w in cube3.walls) == [3, 4, 5]
    fams, k = max_transverse_families(ws)
    assert fams == [(1, 2), (1, 4), (3, 4, 5)]
    assert k == 3


def test_fig3_hyperplanes():
    cc = build_dual(fig3(), "a")
    hp = cc.hyperplanes()
    # every wall's hyperplane is nonempty; duplicates 3 and 5 have equally
    # many dual edges
    assert all(hp[i] for i in (1, 2, 3, 4, 5))
    assert len(hp[3]) == len(hp[5])


def test_canonical_cube_fig3():
    ws = fig3()
    dims = {p: canonical_cube(ws, p).dim for p in ws.points}
    assert dims == {"a": 1, "b": 1, "c": 0, "d": 0, "e": 2, "f": 0}


def test_canonical_cube_is_in_complex():
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        for p in ws.points:
            c = canonical_cube(ws, p)
            assert cc.has_cube(c)
            assert c.dim == len(betwixt_set(ws, p))


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


def test_path_to_canonical():
    for ws in valid_spaces()[:15]:
        cc = enumerate_all_orientations(ws)
        eng = cc.engine
        vset = set(cc.vertices)
        for p in ws.points:
            target = eng.toward_point(p)
            free = {ws.wall_pos[i] for i in betwixt_set(ws, p)}
            for m in cc.vertices[:20]:
                path = path_to_canonical(ws, m, p)
                assert path[0] == m
                assert all(step in vset for step in path)
                # ends with every wall oriented toward p
                b = ws.point_bit(p)
                assert all(eng.chosen(path[-1], i) & b
                           for i in range(eng.n))
                # number of flips = number of initially misoriented walls
                mis = sum(1 for i in range(eng.n)
                          if not eng.chosen(m, i) & b)
                assert len(path) - 1 == mis


def test_distance_law():
    # separation count equals complex distance between canonical cubes
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        for x in ws.points:
            for y in ws.points:
                cx, cy = canonical_cube(ws, x), canonical_cube(ws, y)
                assert cube_distance(cc, cx, cy) == separation_count(ws, x, y)


def test_cube_distance_matches_bfs():
    # every vertex pair of grid(2), and pairs of cubes of every dimension
    # on the valid spaces (a seeded sample where there are many)
    rng = random.Random(5)
    ws = grid(2)
    cc = build_dual(ws, "0,0")
    for a in cc.vertices:
        for b in cc.vertices:
            ca, cb = Cube(a, frozenset()), Cube(b, frozenset())
            assert cube_distance(cc, ca, cb) == \
                oracle_cube_distance(cc, ca, cb)
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        cubes = cc.all_cubes()
        cubes = rng.sample(cubes, min(len(cubes), 25))
        for a in cubes:
            for b in cubes:
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


def test_cube_from_family_fig3():
    ws = fig3()
    cc = build_dual(ws, "a")
    c = cube_from_family(ws, [3, 4, 5], "e")
    assert c.dim == 3
    assert cc.has_cube(c)
    c2 = cube_from_family(ws, [1, 2], "a")
    assert c2.dim == 2
    assert cc.has_cube(c2)
    with pytest.raises(NotTransverse):
        cube_from_family(ws, [2, 3], "a")
    # the empty family gives the canonical cube of p
    assert cube_from_family(ws, [], "a") == canonical_cube(ws, "a")


def test_cube_from_family_random():
    for ws in valid_spaces()[:15]:
        cc = enumerate_all_orientations(ws)
        fams, _k = max_transverse_families(ws)
        for fam in fams:
            for p in ws.points:
                c = cube_from_family(ws, list(fam), p)
                assert cc.has_cube(c)
                assert set(fam) <= {ws.walls[w].index for w in c.walls}


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
    cc = CubeComplex(ws, OrientationEngine(ws), cells)
    assert cc.cube_counts() == {0: 7, 1: 9, 2: 3}
    rep = verify_npc(cc)
    assert not rep.ok
    assert any(v["kind"] == "MissingCube" and v["vertex"] == 0
               and v["walls"] == [0, 1, 2] for v in rep.violations)


def test_maximal_cubes_match_oracle():
    for ws in valid_spaces():
        cc = enumerate_all_orientations(ws)
        for sub in (cc, strip_cells(cc, 3), strip_cells(cc, 2)):
            assert sorted(maximal_cubes(sub), key=cube_key) == \
                sorted(oracle_maximal_cubes(sub), key=cube_key)


def test_verify_npc_matches_oracle():
    failing = 0
    # walls listed against index order too: links are walked by wall index
    spaces = valid_spaces()
    spaces += [Wallspace(ws.points, ws.walls[::-1]) for ws in spaces[:12]]
    for ws in spaces:
        cc = enumerate_all_orientations(ws)
        for sub in (cc, strip_cells(cc, 3), strip_cells(cc, 2)):
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
    # cover X, so toward_point(p) chooses sides that all hold p
    checked, seed = 0, 0
    while checked < 400:
        ws = random_wallspace(seed, with_metric=False)
        seed += 1
        if not validate(ws).ok:
            continue
        eng = OrientationEngine(ws)
        assert all(eng.is_valid(eng.toward_point(p)) for p in ws.points)
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
