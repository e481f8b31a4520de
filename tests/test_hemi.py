"""Hemiwallspaces: induction variants, convex duals, forgetting oracle."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    cube_key,
    forget_unpaired,
    oracle_dual_sub,
    oracle_induce_hemi,
    oracle_is_convex,
    oracle_maximal_cubes,
    oracle_verify_npc,
    random_wallspace,
    strip_cells,
)
from wallcube.complex import (
    CubeComplex,
    build_dual,
    enumerate_all_orientations,
    maximal_cubes,
    verify_npc,
)
from wallcube.errors import (
    EmptySubcomplex,
    NotAHemiwallspace,
    WallcubeError,
)
from wallcube.generators import fig3, grid
from wallcube.hemi import (
    Hemiwallspace,
    InducedVariant,
    dual_sub,
    induce_hemi,
    is_convex,
    represented_in,
)
from wallcube.metric import Metric
from wallcube.wallspace import Wall, Wallspace, validate


def metric_spaces(count=20):
    out = [grid(2), grid(3)]
    for s in range(count * 3):
        ws = random_wallspace(s, with_metric=True)
        if validate(ws).ok:
            out.append(ws)
        if len(out) >= count + 2:
            break
    return out


def test_variant_validation():
    with pytest.raises(WallcubeError, match="^kind: unknown variant 'bogus'"):
        InducedVariant("bogus")
    with pytest.raises(WallcubeError, match="^r: -1 is not >= 0"):
        InducedVariant("Ur", r=-1)
    with pytest.raises(WallcubeError, match="^tau: 0 is not >= 1"):
        InducedVariant("Uinf", tau=0)


def test_u0_retention_direct():
    ws = grid(2)
    hemi = induce_hemi(ws, ["0,0"], InducedVariant("U0"))
    # the corner lies in {i<k} and {j<k} for every k, so all walls are fixed
    # to their left sides
    assert hemi.fixed == {w.index: 0 for w in ws.walls}
    hemi2 = induce_hemi(ws, list(ws.points), InducedVariant("U0"))
    assert hemi2.fixed == {}


def test_ur_monotone_in_r():
    ws = grid(3)
    prev = None
    for r in range(4):
        hemi = induce_hemi(ws, ["0,0"], InducedVariant("Ur", r=r))
        if prev is not None:
            assert set(hemi.fixed) <= set(prev.fixed)
        prev = hemi
    # radius the full diameter retains everything
    assert induce_hemi(ws, ["0,0"], InducedVariant("Ur", r=6)).fixed == {}


def test_uinf_large_tau_raises():
    ws = grid(2)
    with pytest.raises(NotAHemiwallspace):
        induce_hemi(ws, ["0,0"], InducedVariant("Uinf", tau=99))


def test_ustar_scans_radii():
    ws = grid(3)
    # a side is retained under Ustar iff some radius r retains it under
    # UrStar, so Ustar's fixed set is contained in UrStar's at every radius
    # where the latter is defined; grid 3's diameter is 6
    star = induce_hemi(ws, ["0,0"], InducedVariant("Ustar", tau=2))
    for r in range(7):
        try:
            at_r = induce_hemi(ws, ["0,0"],
                               InducedVariant("UrStar", r=r, tau=2))
        except NotAHemiwallspace:
            continue
        assert set(star.fixed) <= set(at_r.fixed)
        for i, s in star.fixed.items():
            if i in at_r.fixed:
                assert at_r.fixed[i] == s


@st.composite
def metric_wallspaces(draw):
    """Any walls (vacuous, empty-sided or not covering the points), and a
    metric that may be missing, weighted or disconnected."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    sides = st.integers(0, full)
    walls = [Wall(i, u, v) for i, (u, v) in
             enumerate(draw(st.lists(st.tuples(sides, sides), max_size=6)))]
    metric = None
    if draw(st.integers(0, 3)):
        weight = st.just(1) | st.integers(0, 4) | st.floats(0, 4)
        # a random spanning tree, mostly, plus random edges
        tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)] \
            if draw(st.integers(0, 3)) else []
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        extra = draw(st.lists(pair, max_size=n))
        metric = Metric.from_edges(n, [(i, j, draw(weight))
                                       for i, j in tree + extra if i != j])
    return Wallspace([f"p{i}" for i in range(n)], walls, metric=metric)


variants = st.builds(
    InducedVariant, st.sampled_from(["U0", "Ur", "Uinf", "Ustar", "UrStar"]),
    r=st.integers(0, 5) | st.floats(0, 5),
    tau=st.integers(1, 5) | st.floats(1, 5))


def outcome(induce, ws, P, variant):
    try:
        hemi = induce(ws, P, variant)
    except NotAHemiwallspace as exc:
        return "not a hemiwallspace", exc.wall_indices
    except WallcubeError as exc:
        return type(exc).__name__
    return hemi.fixed, hemi.meta


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_induce_hemi_matches_oracle(data):
    # one neighbourhood and one rule per variant, U* on X only, against
    # a neighbourhood per side and U*'s scan over every distance
    ws = data.draw(metric_wallspaces())
    P = data.draw(st.integers(1, ws.full))
    variant = data.draw(variants)
    assert outcome(induce_hemi, ws, P, variant) == \
        outcome(oracle_induce_hemi, ws, P, variant)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_induced_hemi_of_a_covering_wallspace_is_nonempty(seed, data):
    # the proof in rel_cocompact_check: a fixed side meets every retained
    # halfspace, so some vertex agrees with every fixed side
    ws = random_wallspace(seed, max_points=7, max_walls=7)
    P = data.draw(st.integers(1, ws.full))
    try:
        hemi = induce_hemi(ws, P, data.draw(variants))
    except NotAHemiwallspace:
        return
    cc = enumerate_all_orientations(ws)
    assert any(hemi.represents(v, 0) for v in cc.vertices)


def test_dual_sub_is_convex():
    rng = random.Random(0)
    for ws in metric_spaces(12):
        cc = enumerate_all_orientations(ws)
        for _ in range(3):
            k = rng.randint(1, len(ws.points))
            P = rng.sample(list(ws.points), k)
            hemi = induce_hemi(ws, P, InducedVariant("U0"))
            sub = dual_sub(cc, hemi)
            # the hull test holds here by construction: check by BFS
            convex, witness = oracle_is_convex(cc, sub)
            assert convex, witness
            assert is_convex(cc, sub) == (True, None)


def test_convexity_witness_on_nonconvex_subset():
    # a hand-picked non-convex vertex set: two opposite corners of a square
    ws = grid(1)
    cc = build_dual(ws, "0,0")
    v = sorted(cc.vertices)
    sub = CubeComplex(ws, cc.engine, {0: {v[0], v[3]}})
    convex, witness = is_convex(cc, sub)
    assert not convex
    # the witness is a real geodesic through an outside vertex
    assert witness[0] in (v[0], v[3]) and witness[-1] in (v[0], v[3])
    assert len(witness) == 3 and witness[1] in (v[1], v[2])


@st.composite
def convexity_cases(draw):
    """(cc, vertex set): cc the dual of a seeded random wallspace, or a U0
    hemi dual of it; the set a hemi dual of cc, an intersection of
    halfspaces, or a random subset, then perhaps one vertex added or
    removed."""
    ws = random_wallspace(draw(st.integers(0, 2**32)), max_points=7,
                          max_walls=7, with_metric=True)
    assume(validate(ws).ok)
    cc = enumerate_all_orientations(ws)
    points = st.lists(st.sampled_from(ws.points), min_size=1, unique=True)
    if draw(st.booleans()):
        cc = dual_sub(cc, induce_hemi(ws, draw(points), InducedVariant("U0")))
    kind = draw(st.sampled_from(["hemi", "halfspaces", "random"]))
    if kind == "hemi":
        variant = draw(st.sampled_from([InducedVariant("U0"),
                                        InducedVariant("Ur", r=1),
                                        InducedVariant("Ur", r=2)]))
        try:
            verts = set(dual_sub(cc, induce_hemi(ws, draw(points),
                                                 variant)).vertices)
        except EmptySubcomplex:
            verts = set()
    elif kind == "halfspaces":
        walls = st.integers(0, cc.engine.fullw)
        fixed, sides = draw(walls), draw(walls)
        verts = {v for v in cc.vertices if not (v ^ sides) & fixed}
    else:
        verts = draw(st.sets(st.sampled_from(cc.vertices)))
    edit = draw(st.sampled_from(cc.vertices))
    if draw(st.booleans()):
        verts ^= {edit}
    return cc, verts


@settings(max_examples=300, deadline=None)
@given(convexity_cases())
def test_is_convex_matches_bfs_oracle(case):
    # verdict and witness path, on convex and non-convex sets
    cc, verts = case
    sub = CubeComplex(cc.ws, cc.engine, {0: verts})
    assert is_convex(cc, sub) == oracle_is_convex(cc, sub)


@pytest.mark.parametrize("verts, sub", [
    # 111 is between the three vertices, but not between any two of them
    ({0b001, 0b010, 0b100, 0b111}, {0b001, 0b010, 0b100}),
    # 011 is between 000 and 111, but no neighbour of it is a vertex
    ({0b000, 0b011, 0b111}, {0b000, 0b111}),
])
def test_is_convex_refuses_a_non_median_complex(verts, sub):
    cc = build_dual(grid(2), "0,0")
    hand = CubeComplex(cc.ws, cc.engine, {0: verts})
    with pytest.raises(WallcubeError, match="dual the library built"):
        is_convex(hand, CubeComplex(cc.ws, cc.engine, {0: sub}))


def test_dual_sub_matches_oracle():
    rng = random.Random(3)
    variants = [InducedVariant("U0"), InducedVariant("Ur", r=1)]
    for ws in metric_spaces(20):
        cc = enumerate_all_orientations(ws)
        for full in (cc, strip_cells(cc, 3)):
            for variant in variants:
                P = rng.sample(ws.points, rng.randint(1, len(ws.points)))
                hemi = induce_hemi(ws, P, variant)
                verts, edges, cubes = oracle_dual_sub(full, hemi)
                sub = dual_sub(full, hemi)
                assert sub.vertices == verts
                assert sub.edges == edges
                assert sub.cubes == cubes
                # the subcomplex is a complex the other checks read
                assert verify_npc(sub).violations == \
                    oracle_verify_npc(sub.export_dict())
                assert sorted(maximal_cubes(sub), key=cube_key) == \
                    sorted(oracle_maximal_cubes(sub), key=cube_key)


def test_represented_iff_vertex_subcomplex():
    rng = random.Random(1)
    for ws in metric_spaces(10):
        cc = enumerate_all_orientations(ws)
        k = rng.randint(1, len(ws.points))
        P = rng.sample(list(ws.points), k)
        hemi = induce_hemi(ws, P, InducedVariant("U0"))
        sub = dual_sub(cc, hemi)
        vset = set(sub.vertices)
        for c in cc.all_cubes():
            assert represented_in(c, hemi) == \
                all(m in vset for m in c.corners())


def test_forget_unpaired_oracle():
    rng = random.Random(2)
    for ws in metric_spaces(10):
        cc = enumerate_all_orientations(ws)
        k = rng.randint(1, len(ws.points))
        P = rng.sample(list(ws.points), k)
        hemi = induce_hemi(ws, P, InducedVariant("U0"))
        sub = dual_sub(cc, hemi)
        try:
            small = enumerate_all_orientations(forget_unpaired(hemi))
        except WallcubeError:
            continue  # forgetting can create duplicate wall indices? no-op
        assert len(sub.vertices) == len(small.vertices)
        assert len(sub.edges) == len(small.edges)
        assert {k: len(v) for k, v in sub.cubes.items()} == \
            {k: len(v) for k, v in small.cubes.items()}


def test_empty_subcomplex():
    pts = ["0", "1", "2", "3", "4"]
    walls = [Wall(0, 0b00011, 0b11100), Wall(1, 0b01111, 0b10000)]
    ws = Wallspace(pts, walls)
    cc = build_dual(ws, "0")
    hemi = Hemiwallspace(ws, {0: 0, 1: 1})  # {0,1} and {4} cannot both hold
    with pytest.raises(EmptySubcomplex):
        dual_sub(cc, hemi)


def test_retains_and_to_dict():
    ws = fig3()
    hemi = Hemiwallspace(ws, {1: 0})
    assert hemi.retains(1, 0) and not hemi.retains(1, 1)
    assert hemi.retains(2, 0) and hemi.retains(2, 1)
    d = hemi.to_dict()
    assert d["fixed"] == [{"wall": 1, "side": 0}]
    assert d["independent"] == [2, 3, 4, 5]
