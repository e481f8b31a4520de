"""Group families, Cayley balls, H-wall systems, actions, decompositions."""

import hashlib
import json
import random
from functools import cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    CountingSpec,
    oracle_ball_metric,
    oracle_build_hwall,
    oracle_codim_one_analysis,
    oracle_axis_cut_test,
    oracle_from_element,
    oracle_generate_hwall_system,
    oracle_point_map,
    oracle_rel_cocompact_check,
    random_wallspace,
)
from wallcube import complex as complex_mod
from wallcube.complex import build_dual
from wallcube import groups, io
from wallcube.cli import _default_hwalls
from wallcube.errors import (
    NotAnAutomorphism,
    StateSpaceCap,
    WallcubeError,
)
from wallcube.groups import (
    ActionMap,
    CoordinateSubgroup,
    CyclicSubgroup,
    Free,
    FreeAbelian,
    FreeFactorSubgroup,
    FreeProduct,
    HWallSpec,
    build_hwall,
    cayley_ball,
    codim_one_analysis,
    generate_hwall_system,
    group_from_dict,
    rel_cocompact_check,
    verify_equivariance,
)
from wallcube.hemi import InducedVariant, induce_hemi
from wallcube.wallspace import Wall, Wallspace, transverse, validate

Z2 = FreeAbelian(2)
F2 = Free(2)


def z2_system(radius=3):
    ball = cayley_ball(Z2, radius)
    hw = [HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0),
          HWallSpec(CoordinateSubgroup(Z2, [0]), "coordinate", axis=1)]
    return ball, generate_hwall_system(ball, hw)


def f2_system(radius=3):
    ball = cayley_ball(F2, radius)
    hw = [HWallSpec(CyclicSubgroup(F2, "a"), "branch", axis="a")]
    return ball, generate_hwall_system(ball, hw)


# -- groups ------------------------------------------------------------


def test_free_abelian_ops():
    assert Z2.mul((1, 2), (3, -1)) == (4, 1)
    assert Z2.inv((2, -3)) == (-2, 3)
    assert Z2.length((2, -3)) == 5
    assert Z2.name((0, 1)) == "(0,1)"


def test_free_reduced_words():
    assert F2.mul("ab", "Ba") == "aa"
    assert F2.mul("a", "A") == ""
    assert F2.inv("abA") == "aBA"
    assert F2.length("aBa") == 3


def test_free_product_syllables():
    fp = FreeProduct([FreeAbelian(1), Free(1)])
    g = fp.mul(((0, (2,)),), ((1, "a"),))
    assert g == ((0, (2,)), (1, "a"))
    assert fp.mul(g, fp.inv(g)) == ()
    assert fp.length(g) == 3


def stack_reduced(word):
    """Free reduction of any word, one letter at a time on a stack."""
    out = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


reduced_words = st.text("abcABC", max_size=12).map(stack_reduced)


@settings(max_examples=300, deadline=None)
@given(reduced_words, reduced_words)
def test_free_mul_cancels_at_the_junction(a, b):
    assert Free(3).mul(a, b) == stack_reduced(a + b)


def test_cyclic_subgroup_reduces_its_word():
    assert CyclicSubgroup(F2, "abBa").word == "aa"
    for word in ("aA", "abBA", "", "ax", 5):
        with pytest.raises(WallcubeError):
            CyclicSubgroup(F2, word)
    with pytest.raises(WallcubeError):
        CyclicSubgroup(Z2, "a")
    # membership of powers of a word that is not cyclically reduced
    h = CyclicSubgroup(F2, "abA")
    assert h.contains("abbA") and h.contains("aBBBA")
    assert not h.contains("ab") and not h.contains("b")


def test_group_from_dict_roundtrip():
    for spec in (Z2, F2, FreeProduct([FreeAbelian(1), Free(1)])):
        again = group_from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


# -- balls -------------------------------------------------------------


def test_cayley_ball_z2_counts():
    for r in (1, 2, 3):
        ball = cayley_ball(Z2, r)
        assert len(ball.elements) == 2 * r * r + 2 * r + 1
        # exact word metric
        i = ball.by_name["(1,0)"]
        j = ball.by_name[f"(-{r},0)"]
        assert ball.metric.d(i, j) == r + 1


def test_cayley_ball_f2_counts():
    for r in (1, 2, 3):
        ball = cayley_ball(F2, r)
        assert len(ball.elements) == 2 * 3 ** r - 1


def test_cayley_ball_cap():
    with pytest.raises(StateSpaceCap):
        cayley_ball(F2, 8)  # 13121 points, past the cap of 4096


NESTED_PRODUCTS = [
    FreeProduct([FreeAbelian(1), FreeProduct([FreeAbelian(1), Free(1)])]),
    FreeProduct([FreeProduct([Free(1), Free(1)]), FreeAbelian(2)]),
    FreeProduct([Free(1), FreeProduct([Free(1), FreeProduct(
        [FreeAbelian(1), Free(1)])])]),
]


@pytest.mark.parametrize("spec", NESTED_PRODUCTS,
                         ids=[json.dumps(spec.to_dict())
                              for spec in NESTED_PRODUCTS])
def test_nested_product_names_are_injective(spec):
    for radius in range(4):
        ball = cayley_ball(spec, radius)
        assert len(set(ball.names)) == len(ball.elements), radius


def test_nested_product_names_bracket_the_inner_product():
    # once both named 1:1:A*0:(-1)
    fp = NESTED_PRODUCTS[0]
    assert fp.name(((1, ((1, "A"), (0, (-1,)))),)) == "1:(1:A*0:(-1))"
    assert fp.name(((1, ((1, "A"),)), (0, (-1,)))) == "1:(1:A)*0:(-1)"


def test_cayley_ball_refuses_shared_names():
    class OneName(Free):
        def name(self, a):
            return "g" if a else "1"

    with pytest.raises(WallcubeError, match="named 'g'"):
        cayley_ball(OneName(1), 1)


# (family, largest radius): the nested free product Z * (Z * Z) stops at
# radius 3 (187 points), as its 937-point radius-4 ball takes the pairwise
# oracle several seconds
METRIC_FAMILIES = [
    (FreeAbelian(1), 4), (FreeAbelian(2), 4), (FreeAbelian(3), 4),
    (Free(1), 4), (Free(2), 4), (Free(3), 4),
    (FreeProduct([FreeAbelian(1), Free(1)]), 4),
    (FreeProduct([FreeAbelian(2), Free(1)]), 4),
    (FreeProduct([FreeAbelian(1), FreeProduct([FreeAbelian(1), Free(1)])]),
     3)]


@pytest.mark.parametrize("spec, max_radius", METRIC_FAMILIES,
                         ids=[json.dumps(spec.to_dict())
                              for spec, _r in METRIC_FAMILIES])
def test_ball_metric_is_the_word_metric(spec, max_radius):
    # the breadth-first metric of the ball's edges against g⁻¹h per pair
    for radius in range(max_radius + 1):
        ball = cayley_ball(spec, radius)
        assert ball.metric.dist == oracle_ball_metric(ball), radius


def counted_systems():
    z2, f2 = CountingSpec(Z2), CountingSpec(F2)
    yield z2, 5, [
        HWallSpec(CoordinateSubgroup(z2, [1]), "coordinate", axis=0),
        HWallSpec(CoordinateSubgroup(z2, [0]), "coordinate", axis=1)]
    yield f2, 4, [HWallSpec(CyclicSubgroup(f2, "a"), "branch", axis="a"),
                  HWallSpec(CyclicSubgroup(f2, "abA"), "branch", axis="a")]


@pytest.mark.parametrize("spec, radius, hws", counted_systems(),
                         ids=["Z2", "F2"])
def test_group_layer_work_counts(spec, radius, hws):
    # product counts, not times: a quadratic loop over the ball fails here
    ball = cayley_ball(spec, radius)
    n = len(ball.elements)
    assert spec.products <= n * len(spec.generators())
    hsizes = [sum(map(hw.subgroup.contains, ball.elements)) - 1
              for hw in hws]
    keys = sum(len(set(map(hw.key, ball.elements))) for hw in hws)
    spec.products = 0
    ws, meta = generate_hwall_system(ball, hws)
    # per spec: one translate per key, with one product per point, the
    # identity's among them; the invariance check, the carrier and
    # frontier orbit counts and the side-swap test share one image of the
    # ball per H-member in it, one product per point; cyclic membership of
    # a point costs 2(r + 1)
    checks = sum(h + 2 * (radius + 1) for h in hsizes)
    assert ws.nwalls() == keys
    assert spec.products <= (keys + checks) * n
    # the action of each generator: a product per wall and side (a key
    # with no wall takes one side evaluation, no translate), and the point
    # map
    for g in spec.generators():
        spec.products = 0
        ActionMap.from_element(ball, g, meta)
        assert spec.products <= 2 * ws.nwalls() + n


def test_hwall_system_stops_at_the_product_cap(monkeypatch):
    # two H-walls on the 25-point ball, each with 7 keys and 6 members but
    # the identity: 2 · (7 + 6) · 25 = 650 products, counted before any
    # translate or image is built
    ball, (ws, meta) = z2_system(3)
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 650)
    assert generate_hwall_system(ball, meta.specs)[0].walls == ws.walls

    def not_built(*args):
        raise AssertionError("a translate or an image was built")

    monkeypatch.setattr(groups, "MAX_PRODUCTS", 649)
    monkeypatch.setattr(groups, "_translate", not_built)
    monkeypatch.setattr(ball, "image", not_built)
    with pytest.raises(StateSpaceCap, match="^H-wall system needs at least "
                       "650 group products, exceeds cap 649$"):
        generate_hwall_system(ball, meta.specs)
    # the count stops at the first spec past the cap
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 324)
    with pytest.raises(StateSpaceCap, match="^H-wall system needs at least "
                       "325 group products, exceeds cap 324$"):
        generate_hwall_system(ball, meta.specs)


# (group, largest radius); `rules` lists every rule the group takes: the
# coordinate rule on each axis of ℤᵈ, the branch rule on each letter of F_r
KEYED_GROUPS = [(FreeAbelian(1), 6), (FreeAbelian(2), 5), (FreeAbelian(3), 3),
                (Free(1), 6), (Free(2), 4), (Free(3), 3)]


def rules(spec):
    if spec.kind == "FreeAbelian":
        return [("coordinate", k) for k in range(spec.d)]
    return [("branch", letter) for letter in spec.letters]


@st.composite
def hwall_specs(draw, spec):
    """A rule with any subgroup of the family, matched to it or not: a
    coordinate subgroup on any axes, or a cyclic subgroup on any word."""
    rule, axis = draw(st.sampled_from(rules(spec)))
    if spec.kind == "FreeAbelian":
        sub = CoordinateSubgroup(spec, draw(st.sets(st.sampled_from(
            range(spec.d)))))
    else:
        word = draw(st.text(spec.letters + spec.letters.upper(),
                            min_size=1, max_size=3).map(stack_reduced)
                    .filter(bool))
        sub = CyclicSubgroup(spec, word)
    return HWallSpec(sub, rule, axis=axis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_keyed_hwall_system_matches_a_translate_per_element(data):
    # the walls, their bookkeeping and the action of any ball element
    # equal those of the loop over every ball element merged by halfspace
    # pair; no image pair comes reversed, so the wall map is of positions
    spec, max_radius = data.draw(st.sampled_from(KEYED_GROUPS))
    ball = cayley_ball(spec, data.draw(st.integers(0, max_radius)))
    hws = data.draw(st.lists(hwall_specs(spec), min_size=1, max_size=3))
    ws, meta = generate_hwall_system(ball, hws)
    ows, ometa = oracle_generate_hwall_system(ball, hws)
    assert ws.walls == ows.walls
    assert {i: (pos, ball.names[t]) for i, (pos, t) in
            meta.wall_info.items()} == ometa.wall_info
    assert meta.reports == ometa.reports
    for g in data.draw(st.lists(st.sampled_from(ball.elements),
                                min_size=1, max_size=4)):
        action = ActionMap.from_element(ball, g, meta)
        oracle = oracle_from_element(ball, g, ows, ometa)
        assert action.point_map == oracle.point_map
        assert not any(swap for _j, swap in oracle.wall_map.values())
        assert action.wall_map == {i: j for i, (j, _swap)
                                   in oracle.wall_map.items()}
        assert action.forced_bits == oracle.forced_bits
        assert action.domain_bits == oracle.domain_bits


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hwall_key_names_the_coset_of_the_carrier(data):
    # key(s) == key(t) ⟺ s⁻¹t ∈ C = {y : side(y) = "B"} ⟺ the two
    # translates are equal: a rule whose carrier is not the stabiliser of
    # its sides fails here, and does not merge distinct walls
    spec, max_radius = data.draw(st.sampled_from(KEYED_GROUPS))
    rule, axis = data.draw(st.sampled_from(rules(spec)))
    hw = HWallSpec(None, rule, axis=axis)
    ball = cayley_ball(spec, data.draw(st.integers(0, max_radius)))
    translates = [groups._translate(ball, hw, t) for t in ball.elements]
    for (s, ts), (t, tt) in combinations(zip(ball.elements, translates), 2):
        in_carrier = hw.side(spec.mul(spec.inv(s), t)) == "B"
        assert (hw.key(s) == hw.key(t)) == in_carrier == (ts == tt)


# -- H-walls -----------------------------------------------------------


def test_build_hwall_z2():
    ball = cayley_ball(Z2, 3)
    hw = HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0)
    wall, rep = build_hwall(ball, hw)
    assert rep.ok
    assert rep.invariance_violations == []
    assert rep.carrier_orbits == 1  # the y-axis is one partial H-orbit
    # carrier = {x = 0}
    carrier = {ball.names[i] for i in range(len(ball.names))
               if (wall.carrier() >> i) & 1}
    assert carrier == {f"(0,{y})" for y in range(-3, 4)}


def test_build_hwall_f2_branch():
    ball = cayley_ball(F2, 3)
    hw = HWallSpec(CyclicSubgroup(F2, "a"), "branch", axis="a")
    wall, rep = build_hwall(ball, hw)
    assert rep.ok
    # carrier is the axis <a> itself
    carrier = {ball.names[i] for i in range(len(ball.names))
               if (wall.carrier() >> i) & 1}
    assert carrier == {"1", "a", "A", "aa", "AA", "aaa", "AAA"}
    # the branch rule of the letter a is not invariant under <ab>
    _wall, rep = build_hwall(
        ball, HWallSpec(CyclicSubgroup(F2, "ab"), "branch", axis="a"))
    assert not rep.ok and {"h": "BA", "g": "1"} in rep.invariance_violations


def test_build_hwall_invariance_violations_carry_total():
    ball = cayley_ball(F2, 4)
    hw = HWallSpec(CyclicSubgroup(F2, "ab"), "branch", axis="a")
    _wall, rep = build_hwall(ball, hw)
    # the branch rule of a is not <ab>-invariant (see the test above)
    doc = rep.to_dict()
    assert doc["invariance_violations"] == rep.invariance_violations[:10]
    assert doc["invariance_violations_total"] == \
        len(rep.invariance_violations) > 10
    _wall, rep = build_hwall(ball, HWallSpec(CyclicSubgroup(F2, "a"),
                                             "branch", axis="a"))
    assert "invariance_violations_total" not in rep.to_dict()


# the default H-walls, and two whose subgroup crosses its own wall, so
# that some element of H swaps the sides
HWALL_CASES = {
    "Z2": (Z2, _default_hwalls(Z2)),
    "F2": (F2, _default_hwalls(F2)),
    "Z2 coords [0] axis 0": (Z2, [HWallSpec(CoordinateSubgroup(Z2, [0]),
                                            "coordinate", axis=0)]),
    "F2 <ab> branch a": (F2, [HWallSpec(CyclicSubgroup(F2, "ab"), "branch",
                                        axis="a")]),
}


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("case", list(HWALL_CASES))
def test_group_layer_matches_a_product_per_check(case, radius):
    # one image of the ball per element of H ∩ ball serves every check
    spec, hws = HWALL_CASES[case]
    ball = cayley_ball(spec, radius)
    _ws, meta = generate_hwall_system(ball, [])
    for hw in hws:
        wall, rep = build_hwall(ball, hw)
        owall, orep = oracle_build_hwall(ball, hw)
        assert wall == owall
        assert io.dumps(rep.to_dict()) == io.dumps(orep.to_dict())
        if radius >= 3 and case not in ("Z2", "F2"):
            # the side-swapper branch
            assert rep.hdotdot_status == "violated"
        for d in range(radius + 1):
            assert io.dumps(codim_one_analysis(ball, hw.subgroup, d)) == \
                io.dumps(oracle_codim_one_analysis(ball, hw.subgroup, d))
    for g in ball.elements:
        pm = ActionMap.from_element(ball, g, meta).point_map
        assert {ball.names[i]: ball.names[j] for i, j in pm.items()} == \
            oracle_point_map(ball, g)


def test_hwall_rules_put_the_identity_on_both_sides():
    # the claim of generate_hwall_system's proof, on every rule and axis the
    # tests and the CLI build: no translate is vacuous, one-sided or a
    # genuine partition, so none is dropped
    specs = [HWallSpec(CoordinateSubgroup(FreeAbelian(d), []), "coordinate",
                       axis=k) for d in (1, 2, 3) for k in range(d)]
    specs += [HWallSpec(CyclicSubgroup(Free(rank), letter), "branch",
                        axis=letter)
              for rank in (1, 2, 3) for letter in Free(rank).letters]
    for hw in specs:
        assert hw.side(hw.subgroup.spec.identity()) == "B"
    for (ball, (ws, meta)), hws in ((z2_system(), 2), (f2_system(), 1)):
        assert len(meta.reports) == hws
        for w in ws.walls:
            _pos, i = meta.wall_info[w.index]
            assert w.carrier() >> i & 1


def test_generated_systems_validate():
    for _ball, (ws, _meta) in (z2_system(), f2_system()):
        rep = validate(ws)
        assert rep.ok, rep.errors


def test_z2_translate_transversality():
    # walls in the same direction are nested, orthogonal ones transverse
    ball, (ws, meta) = z2_system(3)
    by_pos = {}
    offset = {}
    for idx, (pos, i) in meta.wall_info.items():
        by_pos.setdefault(pos, []).append(idx)
        offset[idx] = ball.elements[i][pos]
    for pos, idxs in by_pos.items():
        for a, b in combinations(idxs, 2):
            assert not transverse(ws, a, b)
    # orthogonal translates are transverse when their quadrants reach into
    # the ball; extreme offsets lose a quadrant to truncation
    for a in by_pos[0]:
        for b in by_pos[1]:
            if abs(offset[a]) <= 1 and abs(offset[b]) <= 1:
                assert transverse(ws, a, b)


def test_f2_system_is_a_tree():
    for radius in (3, 4):
        _ball, (ws, _meta) = f2_system(radius)
        # transversality graph edgeless
        idxs = ws.wall_indices()
        assert not any(transverse(ws, a, b) for a, b in combinations(idxs, 2))
        cc = build_dual(ws, ws.points[0])
        assert cc.dimension() == 1
        assert cc.nedges() == cc.nvertices() - 1  # connected and acyclic


def test_z2_system_shape():
    _ball, (ws, _meta) = z2_system(3)
    assert ws.nwalls() == 14
    cc = build_dual(ws, ws.points[0])
    from wallcube.wallspace import max_transverse_families
    _fams, k = max_transverse_families(ws)
    assert k == 2 and cc.dimension() == 2
    # Euler characteristic of a disk-like grid patch
    counts = cc.cube_counts()
    assert counts[0] - counts[1] + counts[2] == 1


def test_transverse_implies_close():
    # finite check: carriers (wall regions) of transverse walls stay close,
    # and the measured bound is monotone under radius growth
    from wallcube.separation import wall_region
    bounds = []
    for radius in (2, 3):
        _ball, (ws, _meta) = z2_system(radius)
        worst = 0
        for a, b in combinations(ws.wall_indices(), 2):
            if transverse(ws, a, b):
                d = ws.metric.dist_sets(wall_region(ws, a),
                                        wall_region(ws, b))
                worst = max(worst, d)
        bounds.append(worst)
    assert bounds[0] <= bounds[1] <= 2


# -- codim-1 -----------------------------------------------------------


def test_codim_one_z2():
    ball = cayley_ball(Z2, 4)
    out = codim_one_analysis(ball, CoordinateSubgroup(Z2, [1]), 0)
    assert out["n_components"] == 2
    assert out["n_deep"] == 2
    assert out["deep_orbit_classes"] == 2
    assert "caveat" in out


def test_codim_one_f2():
    ball = cayley_ball(F2, 3)
    out = codim_one_analysis(ball, CyclicSubgroup(F2, "a"), 0)
    assert out["n_deep"] >= 2
    assert out["deep_orbit_classes"] >= 1
    # removing everything leaves nothing
    total = codim_one_analysis(ball, CyclicSubgroup(F2, "a"), 10)
    assert total["n_components"] == 0


# -- actions -----------------------------------------------------------


def test_equivariance_z2_translations():
    ball, (ws, meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    for g in [(1, 0), (0, 1), (-1, 0), (1, 1)]:
        action = ActionMap.from_element(ball, g, meta)
        rep = verify_equivariance(ws, action, cc)
        assert rep.ok, rep.violations
        assert rep.domain_vertices >= cc.nvertices() // 2
        assert rep.preserved_edges > 0


def test_equivariance_f2_generators():
    ball, (ws, meta) = f2_system(3)
    cc = build_dual(ws, ws.points[0])
    for g in ("a", "A", "b"):
        action = ActionMap.from_element(ball, g, meta)
        rep = verify_equivariance(ws, action, cc)
        assert rep.ok, rep.violations
        assert rep.domain_vertices > 0


def test_equivariance_identity():
    ball, (ws, meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    action = ActionMap.from_element(ball, Z2.identity(), meta)
    rep = verify_equivariance(ws, action, cc)
    assert rep.ok
    assert rep.domain_vertices == cc.nvertices()
    assert rep.preserved_edges == cc.nedges()


def test_equivariance_violations_carry_total():
    # no points to check, and each x-wall sent to the y-wall at the same
    # offset: the image of an edge on an x-wall differs on two walls
    ball, (ws, meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    at = {(pos, ball.names[t]): i for i, (pos, t) in meta.wall_info.items()}
    walls = {at[0, f"({k},0)"]: at[1, f"(0,{k})"] for k in range(-2, 3)}
    rep = verify_equivariance(ws, ActionMap({}, walls), cc)
    doc = rep.to_dict()
    assert doc["violations"] == rep.violations[:10]

    def image(m):  # each y-wall takes the side of its x-wall
        for i, j in walls.items():
            a, b = ws.wall_pos[i], ws.wall_pos[j]
            m = m & ~(1 << b) | (m >> a & 1) << b
        return m

    domain = {m for m in cc.vertices if image(m) in cc.vid}
    broken = sum(1 for u, v, w in cc.edges
                 if u in domain and v in domain and ws.walls[w].index in walls)
    assert doc["violations_total"] == 1 + broken > 10  # and NotInjective
    identity = ActionMap.from_element(ball, Z2.identity(), meta)
    assert "violations_total" not in \
        verify_equivariance(ws, identity, cc).to_dict()


def test_axis_cut_z2():
    from wallcube.separation import axis_cut_test
    ball, (ws, meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    action = ActionMap.from_element(ball, (1, 0), meta)
    # pick the x-wall through the origin
    target = next(i for i, (pos, t) in meta.wall_info.items()
                  if pos == 0 and t == 0)
    out = axis_cut_test(ws, action, target, 2, cc=cc)
    for c in out["conditions"].values():
        assert c["wall_moves"] and c["U_overlaps"] and c["V_overlaps"]
    # x-translates of an x-wall are nested, never transverse
    assert out["translates_pairwise_transverse"] is False
    # only boundary artifacts can be fixed: vertices whose x-cut escapes the
    # ball orient every x-wall the same way
    xpos = [ws.wall_pos[i] for i, (pos, _t) in meta.wall_info.items()
            if pos == 0]
    for m in out["fixed_vertices"]:
        bits_x = {(m >> p) & 1 for p in xpos}
        assert len(bits_x) == 1


# sha256 of `io.dumps` of each action's equivariance report and of its
# axis-cut results (every wall, n_max 2, fixed vertices on), recorded when
# an ActionMap was keyed by point names and wall indices
ACTION_RECORDED = {
    ("Z2", (1, 0)): (
        "eb3f11c18281d9030fa53a6b000df53ac2b7253cfca37ba4af3f3cb20985fc45",
        "a4569a773a6fe655752345f5454643b4cebc7468ab117153ec9feaa86fce974c"),
    ("Z2", (-1, 0)): (
        "eb3f11c18281d9030fa53a6b000df53ac2b7253cfca37ba4af3f3cb20985fc45",
        "3500ecb1f0bc64a216ec6197ef963a3c52bd2bee9d674f96deaa1a0b38d5fd9d"),
    ("Z2", (0, 1)): (
        "eb3f11c18281d9030fa53a6b000df53ac2b7253cfca37ba4af3f3cb20985fc45",
        "2c541e1bb590b41d6bfe082427519a7812c0bad9d71610981357f8e19bb6904c"),
    ("Z2", (0, -1)): (
        "eb3f11c18281d9030fa53a6b000df53ac2b7253cfca37ba4af3f3cb20985fc45",
        "518a6516ec35f371c299e045659a3ba280d0691493a49bb79cd410fdc99d30f2"),
    ("Z2", (1, 1)): (
        "4088beb5c704ead996553f636314db0633ba0f61194fb84c136dbaacfcc740a3",
        "6bbc9778be8daccb902f656a80a7ada179d078a894704e17a61e7e980fbecfff"),
    ("F2", "a"): (
        "f4ee48863d7e31f147714a6799e3cffca24766dc15ca1900e26a6ce59cdefaff",
        "ba2870bbfbfe68cf671aae72cf613759a657c82b049c468b435da4f2000f9823"),
    ("F2", "b"): (
        "2119813c835a78e68c8b446c8b4591322cd82b4bf1d2d6e045bc4be809a8aa3a",
        "d80677d005863da4e203adcb8160b4287689b7f9bb331b1fcffd0aa8da8bf1bc"),
    ("F2", "A"): (
        "f4ee48863d7e31f147714a6799e3cffca24766dc15ca1900e26a6ce59cdefaff",
        "366505a64d461f8496ec3d18400015ebff9c256cdf215ed12863edd7c62e78dd"),
    ("F2", "B"): (
        "2119813c835a78e68c8b446c8b4591322cd82b4bf1d2d6e045bc4be809a8aa3a",
        "fca69f8b22fa13df795265e6248ebe296790e6070700f657b8b5d8a54ba7c3f0"),
    ("F2", "ab"): (
        "02142094f40dcbe0ab03ac9e25b34dd2ac3758dbde229cd87f55ad62605d7050",
        "1259ffa004b8ea187ef6d0ebef8406f70e031584196e8dbe4a59d92a8e6c698e"),
}


@pytest.mark.parametrize("system, g", list(ACTION_RECORDED),
                         ids=[f"{s} {g}" for s, g in ACTION_RECORDED])
def test_action_outputs_recorded(system, g):
    from wallcube.separation import axis_cut_test
    ball, (ws, meta) = (z2_system if system == "Z2" else f2_system)(3)
    cc = build_dual(ws, ws.points[0])
    action = ActionMap.from_element(ball, g, meta)

    def digest(obj):
        return hashlib.sha256(io.dumps(obj).encode()).hexdigest()

    assert (digest(verify_equivariance(ws, action, cc).to_dict()),
            digest([axis_cut_test(ws, action, i, 2, cc=cc)
                    for i in ws.wall_indices()])) == ACTION_RECORDED[system, g]


def test_not_an_automorphism_names_points_and_wall_indices():
    from wallcube.generators import fig3, grid
    from wallcube.separation import axis_cut_test
    # fig3's wall 1 (position 0) sent to wall 2 (position 1), points fixed
    ws = fig3()
    action = ActionMap({i: i for i in range(6)}, {0: 1})
    with pytest.raises(NotAnAutomorphism) as exc:
        axis_cut_test(ws, action, 1, 1)
    assert str(exc.value) == "map is not a wallspace automorphism: " \
        "{'wall': 1, 'image': 2, 'point': 'a'}"
    # grid 2: points "0,1" and "2,2" (positions 1 and 8) swapped
    ws = grid(2)
    pm = {i: i for i in range(9)}
    pm[1], pm[8] = 8, 1
    with pytest.raises(NotAnAutomorphism) as exc:
        ActionMap(pm, {}).check(ws)
    assert str(exc.value) == "map is not a wallspace automorphism: " \
        "{'pair': ['0,0', '0,1'], 'd': 1.0, 'd_image': 4.0}"
    with pytest.raises(NotAnAutomorphism, match="point map not injective"):
        ActionMap({0: 4, 1: 4}, {}).check(ws)


def random_action(rng):
    """A random wallspace (2-5 points, 1-4 walls, each side a random
    nonempty set) with a random partial injective point map and a random,
    possibly many-to-one, wall map."""
    npts = rng.randint(2, 5)
    full = (1 << npts) - 1
    walls = [Wall(i, rng.randint(1, full), rng.randint(1, full))
             for i in range(rng.randint(1, 4))]
    ws = Wallspace([f"p{i}" for i in range(npts)], walls)
    domain = rng.sample(range(npts), rng.randint(1, npts))
    points = dict(zip(domain, rng.sample(range(npts), len(domain))))
    walls = {i: rng.randrange(len(walls))
             for i in range(len(walls)) if rng.random() < 0.8}
    return ws, ActionMap(points, walls)


def open_separates(w, bx, by):
    """From the definition: x and y lie in opposite open halfspaces."""
    ol, orr = w.left & ~w.right, w.right & ~w.left
    return bool(ol & bx and orr & by or ol & by and orr & bx)


def orbit(step, x, n):
    """g^n x under a partial map `step` of g, one step at a time; None once
    the orbit leaves the domain.  Backwards, x steps to its last preimage
    in the map's order."""
    if n < 0:
        step = {gx: x for x, gx in step.items()}
    for _ in range(abs(n)):
        x = step.get(x)
        if x is None:
            return None
    return x


def test_check_implies_separation_and_power_halfspaces():
    # what verify_equivariance and axis_cut_test no longer re-check: on
    # an action that passes check, each mapped wall separates a pair of
    # mapped points exactly when its image separates their images, and
    # g^n carries the halfspaces of W into the matching sides of g^n W,
    # for n = ±1..3
    rng = random.Random(12)
    nontrivial = 0
    for _ in range(4000):
        ws, action = random_action(rng)
        try:
            action.check(ws)
        except NotAnAutomorphism:
            continue
        nontrivial += bool(action.wall_map) and len(action.point_map) > 1
        for x, y in combinations(action.point_map, 2):
            gx, gy = action.point_map[x], action.point_map[y]
            for i, j in action.wall_map.items():
                assert open_separates(ws.walls[i], 1 << x, 1 << y) == \
                    open_separates(ws.walls[j], 1 << gx, 1 << gy)
        for pos, w in enumerate(ws.walls):
            for n in (1, -1, 2, -2, 3, -3):
                img = orbit(action.wall_map, pos, n)
                if img is None:
                    continue
                wj = ws.walls[img]
                for x in range(len(ws.points)):
                    gx = orbit(action.point_map, x, n)
                    if gx is None:
                        continue
                    assert w.left >> x & 1 == wj.left >> gx & 1
                    assert w.right >> x & 1 == wj.right >> gx & 1
    assert nontrivial > 100


def test_axis_cut_matches_powers_from_scratch():
    # one orbit walk per direction against every power walked from
    # scratch: on random actions that pass check, many-to-one wall maps
    # among them (the backward walk takes the last preimage), with every
    # wall mask as a vertex; and on each element of B(1) acting on the ℤ²
    # and F₂ systems
    from wallcube.separation import axis_cut_test
    rng = random.Random(23)
    compared = many_to_one = 0
    for _ in range(3000):
        ws, action = random_action(rng)
        try:
            action.check(ws)
        except NotAnAutomorphism:
            continue
        cc = SimpleNamespace(vertices=range(1 << ws.nwalls()))
        for i in ws.wall_indices():
            assert axis_cut_test(ws, action, i, 3, cc=cc) == \
                oracle_axis_cut_test(ws, action, i, 3, cc=cc)
        compared += 1
        values = list(action.wall_map.values())
        many_to_one += len(set(values)) < len(values)
    assert compared > 300 and many_to_one > 30
    for ball, (ws, meta) in (z2_system(3), f2_system(3)):
        cc = build_dual(ws, ws.points[0])
        for g in ball.elements:
            if ball.spec.length(g) > 1:
                break
            action = ActionMap.from_element(ball, g, meta)
            for i in ws.wall_indices():
                assert axis_cut_test(ws, action, i, 3, cc=cc) == \
                    oracle_axis_cut_test(ws, action, i, 3, cc=cc)


# -- relative cocompactness -------------------------------------------


def test_rel_cocompact_whole_group_periphery():
    ball, (ws, _meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    rep = rel_cocompact_check(ws, cc, [list(ws.points)],
                              InducedVariant("Ur", r=0))
    assert rep.least_m == 0
    assert rep.coverage_violations == []
    assert rep.isolation_violations == []
    assert rep.intersection_ok


def test_rel_cocompact_no_peripheries_tree():
    _ball, (ws, _meta) = f2_system(3)
    cc = build_dual(ws, ws.points[0])
    rep = rel_cocompact_check(ws, cc, [], InducedVariant("U0"))
    # no peripheries: the K-part must absorb everything at the least m
    total = len(cc.all_cubes())
    assert rep.k_part == total
    assert rep.least_m >= 1
    assert rep.coverage_violations == [] and rep.unique == 0


@pytest.mark.parametrize("variant, summary, digest", [
    (InducedVariant("U0"), (1, 1, 129, 0, 0, 0, True),
     "d65fe1b917baa306896f200130c42fd68f5638fd715fad8546b32ead4f314e64"),
    (InducedVariant("Ur", r=1), (0, 0, 0, 80, 0, 49, False),
     "47e50b317e792114350d8f06e92318efed389cfef37290919afa78917a014430"),
])
def test_rel_cocompact_z2_axes_recorded(monkeypatch, variant, summary,
                                        digest):
    # recorded output on the Z^2 radius-3 system with the two coordinate
    # axes as peripheries (Ur re-recorded when the intersection witnesses
    # were put in vertex order); the wallspace's conflict tables are built
    # once, by build_dual, and reused by every canonical_cube call
    builds = []
    tables = complex_mod.conflict_tables
    monkeypatch.setattr(complex_mod, "conflict_tables",
                        lambda *a: builds.append(1) or tables(*a))
    ball, (ws, _meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    axes = [[n for n, g in zip(ball.names, ball.elements)
             if CoordinateSubgroup(Z2, [k]).contains(g)] for k in (0, 1)]
    rep = rel_cocompact_check(ws, cc, axes, variant).to_dict()
    assert len(builds) == 1
    assert (rep["m"], rep["least_m"], rep["k_part"], rep["unique"],
            len(rep["coverage_violations"]), len(rep["isolation_violations"]),
            rep["intersection_ok"]) == summary
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rel_cocompact_intersection_witnesses_carry_total():
    # two copies of the whole ball meet at every vertex, all of depth >= 0
    ball, (ws, _meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    whole = list(ws.points)
    rep = rel_cocompact_check(ws, cc, [whole, whole], InducedVariant("U0"),
                              m=0)
    doc = rep.to_dict()
    assert doc["intersection_witnesses"] == rep.intersection_witnesses[:20]
    assert doc["intersection_witnesses_total"] == cc.nvertices() > 20


def test_rel_cocompact_partition_consistency():
    ball, (ws, _meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    left = [n for n, g in zip(ball.names, ball.elements) if g[0] <= 0]
    right = [n for n, g in zip(ball.names, ball.elements) if g[0] >= 1]
    rep = rel_cocompact_check(ws, cc, [left, right], InducedVariant("U0"))
    total = len(cc.all_cubes())
    accounted = rep.k_part + rep.unique + \
        len(rep.coverage_violations) + len(rep.isolation_violations)
    assert accounted == total
    assert rep.coverage_violations == []  # m defaults to the least m


def assert_same_decomposition(rep, orep):
    """Every key equal; the two violation lists equal up to the order of
    the cubes of one dimension, each sorted by dimension; the intersection
    witnesses equal as a multiset, in periphery-pair and vertex order."""
    doc, odoc = rep.to_dict(), orep.to_dict()
    for key in ("coverage_violations", "isolation_violations"):
        got, want = doc.pop(key), odoc.pop(key)
        dims = [v["dim"] for v in got]
        assert dims == sorted(dims) == [v["dim"] for v in want]
        assert sorted(map(io.dumps, got)) == sorted(map(io.dumps, want))
    # to_dict cuts the witness list at 20
    got, want = rep.intersection_witnesses, orep.intersection_witnesses
    order = [(w["peripheries"], w["vertex"]) for w in got]
    assert order == sorted(order)
    assert sorted(map(io.dumps, got)) == sorted(map(io.dumps, want))
    del doc["intersection_witnesses"], odoc["intersection_witnesses"]
    assert doc == odoc


DECOMPOSITION_VARIANTS = [
    InducedVariant("U0"), InducedVariant("Ur", r=1),
    InducedVariant("Ustar", tau=2), InducedVariant("UrStar", r=1, tau=2),
    InducedVariant("Uinf")]


@pytest.mark.parametrize("system, radius", [
    ("Z2", 2), ("Z2", 3), ("Z2", 4), ("Z2", 5),
    ("F2", 2), ("F2", 3), ("F2", 4)])
def test_rel_cocompact_matches_oracle(monkeypatch, system, radius):
    # the coordinate axes of Z², the cyclic subgroups <a> and <b> of F₂;
    # each hemi is induced once, for both functions and every m
    once = cache(induce_hemi)
    monkeypatch.setattr(groups, "induce_hemi", once)
    monkeypatch.setattr(conftest, "induce_hemi", once)
    ball, (ws, _meta) = (z2_system if system == "Z2" else f2_system)(radius)
    subs = [CoordinateSubgroup(Z2, [0]), CoordinateSubgroup(Z2, [1])] \
        if system == "Z2" else [CyclicSubgroup(F2, "a"),
                                CyclicSubgroup(F2, "b")]
    peripheries = [ball.mask_of(sub.contains) for sub in subs]
    cc = build_dual(ws, ws.points[0])
    for variant in DECOMPOSITION_VARIANTS:
        for m in (None, 0, 1, 2):
            assert_same_decomposition(
                rel_cocompact_check(ws, cc, peripheries, variant, m=m),
                oracle_rel_cocompact_check(ws, cc, peripheries, variant,
                                           m=m))


@pytest.mark.parametrize("variant", [
    InducedVariant("Ustar", tau=2), InducedVariant("Ustar", tau=3),
    InducedVariant("UrStar", r=1, tau=2), InducedVariant("Uinf", tau=2)])
def test_rel_cocompact_tau_variants_scan_few_rings(monkeypatch, variant):
    # the F₂ radius-4 system with both branch H-walls (162 walls) and <a>,
    # <b> as peripheries: each side is asked whether its diameter reaches
    # tau, not for its diameter, which once took 52,808 ring scans under
    # Ustar
    ball = cayley_ball(F2, 4)
    ws, _meta = generate_hwall_system(ball, [
        HWallSpec(CyclicSubgroup(F2, letter), "branch", axis=letter, index=i)
        for i, letter in enumerate("ab")])
    cc = build_dual(ws, ws.points[0])
    peripheries = [ball.mask_of(CyclicSubgroup(F2, letter).contains)
                   for letter in "ab"]
    rings, calls = ws.metric.rings, []
    monkeypatch.setattr(ws.metric, "rings",
                        lambda *a: calls.append(1) or rings(*a))
    rel_cocompact_check(ws, cc, peripheries, variant)
    assert len(calls) <= 2000


def test_rel_cocompact_matches_oracle_on_random_duals():
    rng = random.Random(20)
    for seed in range(150):
        ws = random_wallspace(seed, with_metric=False)
        cc = build_dual(ws, ws.points[0])
        full = (1 << len(ws.points)) - 1
        peripheries = [rng.randint(1, full)
                       for _ in range(rng.randint(0, 3))]
        m = rng.choice([None, 0, 1, 2])
        assert_same_decomposition(
            rel_cocompact_check(ws, cc, peripheries, InducedVariant("U0"),
                                m=m),
            oracle_rel_cocompact_check(ws, cc, peripheries,
                                       InducedVariant("U0"), m=m))
