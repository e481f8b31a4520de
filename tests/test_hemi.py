"""Hemiwallspaces: induction variants, convex duals, forgetting oracle."""

import random

import pytest

from conftest import (
    cube_key,
    oracle_dual_sub,
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
    forget_unpaired,
    induce_hemi,
    is_convex,
    represented_in,
)
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
    with pytest.raises(WallcubeError):
        InducedVariant("bogus")
    with pytest.raises(WallcubeError):
        InducedVariant("Ur", r=-1)
    with pytest.raises(WallcubeError):
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
    # a side is retained under Ustar iff some radius r <= r_max retains it
    # under UrStar, so Ustar's fixed set is contained in UrStar's at every
    # radius where the latter is defined
    star = induce_hemi(ws, ["0,0"], InducedVariant("Ustar", tau=2, r_max=6))
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


def test_dual_sub_is_convex():
    rng = random.Random(0)
    for ws in metric_spaces(12):
        cc = enumerate_all_orientations(ws)
        for _ in range(3):
            k = rng.randint(1, len(ws.points))
            P = rng.sample(list(ws.points), k)
            hemi = induce_hemi(ws, P, InducedVariant("U0"))
            sub = dual_sub(cc, hemi)
            convex, witness = is_convex(cc, sub)
            assert convex, witness


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
