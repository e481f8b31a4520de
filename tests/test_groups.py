"""Group families, Cayley balls, H-wall systems, decompositions."""

import hashlib
import json
import random
import sys
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    CountingSpec,
    dist_sets,
    oracle_ball_metric,
    oracle_build_hwall,
    oracle_generate_hwall_system,
    oracle_point_map,
    oracle_rel_cocompact_check,
    oracle_side,
    oracle_translate,
    oracle_transverse,
    random_wallspace,
    wall_region,
)
from wallcube.complex import build_dual
from wallcube import groups, io
from wallcube.errors import StateSpaceCap, WallcubeError
from wallcube.generators import _default_hwalls
from wallcube.groups import (
    CoordinateSubgroup,
    CyclicSubgroup,
    Free,
    FreeAbelian,
    FreeProduct,
    HWallSpec,
    cayley_ball,
    generate_hwall_system,
    group_from_dict,
    rel_cocompact_check,
)
from wallcube.hemi import InducedVariant, induce_hemi
from wallcube.metric import bits
from wallcube.wallspace import (
    conflict_tables,
    max_transverse_families,
    validate,
)

Z2 = FreeAbelian(2)
F2 = Free(2)


Z2_HWALLS = [HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0),
             HWallSpec(CoordinateSubgroup(Z2, [0]), "coordinate", axis=1)]
F2_HWALLS = [HWallSpec(CyclicSubgroup(F2, "a"), "branch", axis="a")]


def z2_system(radius=3):
    ball = cayley_ball(Z2, radius)
    return ball, generate_hwall_system(ball, Z2_HWALLS)


def f2_system(radius=3):
    ball = cayley_ball(F2, radius)
    return ball, generate_hwall_system(ball, F2_HWALLS)


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
        i = ball.names.index("(1,0)")
        j = ball.names.index(f"(-{r},0)")
        assert ball.metric.dist[i][j] == r + 1


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
    # per spec: one translate per key, read off the key with no product;
    # the invariance check, the carrier and frontier orbit counts and the
    # side-swap test share one image of the ball per H-member in it, one
    # product per point; cyclic membership of a point costs 2(r + 1), and
    # coordinate membership none
    checks = sum(sum(map(hw.subgroup.contains, ball.elements)) - 1
                 + 2 * (radius + 1) * isinstance(hw.subgroup, CyclicSubgroup)
                 for hw in hws)
    keys = sum(len(set(map(hw.key, ball.elements))) for hw in hws)
    spec.products = 0
    ws, _reports = generate_hwall_system(ball, hws)
    assert ws.nwalls() == keys
    assert spec.products <= checks * n


def test_hwall_system_stops_at_the_product_cap(monkeypatch):
    # two H-walls on the 25-point ball, each with 7 keys and 6 members but
    # the identity: 2 · (7 + 6) · 25 = 650 products, counted before any
    # translate or image is built
    ball, (ws, _reports) = z2_system(3)
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 650)
    assert generate_hwall_system(ball, Z2_HWALLS)[0].walls == ws.walls

    def not_built(*args):
        raise AssertionError("a translate or an image was built")

    monkeypatch.setattr(groups, "MAX_PRODUCTS", 649)
    monkeypatch.setattr(groups, "_translate", not_built)
    monkeypatch.setattr(ball, "image", not_built)
    with pytest.raises(StateSpaceCap, match="^H-wall system needs at least "
                       "650 group products, exceeds cap 649$"):
        generate_hwall_system(ball, Z2_HWALLS)
    # the count stops at the first spec past the cap
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 324)
    with pytest.raises(StateSpaceCap, match="^H-wall system needs at least "
                       "325 group products, exceeds cap 324$"):
        generate_hwall_system(ball, Z2_HWALLS)


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
    # the walls and reports equal those of the loop over every ball
    # element, a product per point, merged by halfspace pair
    spec, max_radius = data.draw(st.sampled_from(KEYED_GROUPS))
    ball = cayley_ball(spec, data.draw(st.integers(0, max_radius)))
    hws = data.draw(st.lists(hwall_specs(spec), min_size=1, max_size=3))
    ws, reports = generate_hwall_system(ball, hws)
    ows, oreports = oracle_generate_hwall_system(ball, hws)
    assert ws.walls == ows.walls
    assert reports == oreports
    # a side-swapper of H is an invariance violation
    assert all(r["invariance_violations"] for r in reports
               if r["hdotdot_status"] == "violated")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hwall_key_names_the_coset_of_the_carrier(data):
    # key(s) == key(t) ⟺ s⁻¹t ∈ C = {y : side(y) = "B"} ⟺ the two
    # translates are equal: a rule whose carrier is not the stabiliser of
    # its sides fails here, and does not merge distinct walls; and the
    # translate read off the key is the one by its definition
    spec, max_radius = data.draw(st.sampled_from(KEYED_GROUPS))
    rule, axis = data.draw(st.sampled_from(rules(spec)))
    hw = HWallSpec(None, rule, axis=axis)
    ball = cayley_ball(spec, data.draw(st.integers(0, max_radius)))
    translates = [oracle_translate(ball, hw, t) for t in ball.elements]
    for t, tt in zip(ball.elements, translates):
        assert groups._translate(ball, hw, hw.key(t)) == tt
    for (s, ts), (t, tt) in combinations(zip(ball.elements, translates), 2):
        in_carrier = oracle_side(hw, spec.mul(spec.inv(s), t)) == "B"
        assert (hw.key(s) == hw.key(t)) == in_carrier == (ts == tt)


# -- H-walls -----------------------------------------------------------


def hwall(ball, hw):
    """The H-wall itself, the translate by the identity (wall 0), and its
    report, as `generate_hwall_system` builds them for the one spec."""
    ws, reports = generate_hwall_system(ball, [hw])
    return ws.walls[0], reports[0]


def test_build_hwall_z2():
    ball = cayley_ball(Z2, 3)
    hw = HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0)
    wall, rep = hwall(ball, hw)
    assert rep["ok"]
    assert rep["invariance_violations"] == []
    assert rep["carrier_orbits"] == 1  # the y-axis is one partial H-orbit
    # carrier = {x = 0}
    carrier = {ball.names[i] for i in range(len(ball.names))
               if (wall.carrier() >> i) & 1}
    assert carrier == {f"(0,{y})" for y in range(-3, 4)}


def test_build_hwall_f2_branch():
    ball = cayley_ball(F2, 3)
    hw = HWallSpec(CyclicSubgroup(F2, "a"), "branch", axis="a")
    wall, rep = hwall(ball, hw)
    assert rep["ok"]
    # carrier is the axis <a> itself
    carrier = {ball.names[i] for i in range(len(ball.names))
               if (wall.carrier() >> i) & 1}
    assert carrier == {"1", "a", "A", "aa", "AA", "aaa", "AAA"}
    # the branch rule of the letter a is not invariant under <ab>
    _wall, rep = hwall(
        ball, HWallSpec(CyclicSubgroup(F2, "ab"), "branch", axis="a"))
    assert not rep["ok"] and \
        {"h": "BA", "g": "1"} in rep["invariance_violations"]


def test_build_hwall_invariance_violations_carry_total():
    ball = cayley_ball(F2, 4)
    hw = HWallSpec(CyclicSubgroup(F2, "ab"), "branch", axis="a")
    _wall, doc = hwall(ball, hw)
    # the branch rule of a is not <ab>-invariant (see the test above)
    violations = oracle_build_hwall(ball, hw)[1].invariance_violations
    assert doc["invariance_violations"] == violations[:10]
    assert doc["invariance_violations_total"] == len(violations) > 10
    _wall, doc = hwall(ball, HWallSpec(CyclicSubgroup(F2, "a"), "branch",
                                       axis="a"))
    assert "invariance_violations_total" not in doc


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
    for hw in hws:
        wall, rep = hwall(ball, hw)
        owall, orep = oracle_build_hwall(ball, hw)
        assert (wall.left, wall.right) == (owall.left, owall.right)
        assert io.dumps(rep) == io.dumps(orep.to_dict())
        if radius >= 3 and case not in ("Z2", "F2"):
            # the side-swapper branch
            assert rep["hdotdot_status"] == "violated"
    for g in ball.elements:
        assert {ball.names[i]: ball.names[j]
                for i, j in enumerate(ball.image(g)) if j is not None} == \
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
        assert oracle_side(hw, hw.subgroup.spec.identity()) == "B"
    for (ball, (ws, reports)), hws in ((z2_system(), Z2_HWALLS),
                                       (f2_system(), F2_HWALLS)):
        assert len(reports) == len(hws)
        # the ball index of each key's first t, one per wall, in wall order
        first = {}
        for pos, hw in enumerate(hws):
            for i, t in enumerate(ball.elements):
                first.setdefault((pos, hw.key(t)), i)
        assert len(first) == ws.nwalls()
        for w, i in zip(ws.walls, first.values()):
            assert w.carrier() >> i & 1


def test_generated_systems_validate():
    for _ball, (ws, _meta) in (z2_system(), f2_system()):
        rep = validate(ws)
        assert rep.ok, rep.errors


def test_z2_translate_transversality():
    # walls in the same direction are nested, orthogonal ones transverse
    ball, (ws, _reports) = z2_system(3)
    by_pos = {}
    offset = {}
    for w in ws.walls:
        # the wall x_k = c: its carrier's points share x_k = c, and its
        # left side is {x_k <= c}
        g = ball.elements[bits(w.carrier())[0]]
        (pos, offset[w.index]), = [
            (k, g[k]) for k in range(2)
            if w.left == ball.mask_of(lambda x: x[k] <= g[k])]
        by_pos.setdefault(pos, []).append(w.index)
    for pos, idxs in by_pos.items():
        for a, b in combinations(idxs, 2):
            assert not oracle_transverse(ws, a, b)
    # orthogonal translates are transverse when their quadrants reach into
    # the ball; extreme offsets lose a quadrant to truncation
    for a in by_pos[0]:
        for b in by_pos[1]:
            if abs(offset[a]) <= 1 and abs(offset[b]) <= 1:
                assert oracle_transverse(ws, a, b)


def test_f2_system_is_a_tree():
    for radius in (3, 4):
        _ball, (ws, _meta) = f2_system(radius)
        # transversality graph edgeless
        idxs = ws.wall_indices()
        assert not any(oracle_transverse(ws, a, b)
                       for a, b in combinations(idxs, 2))
        cc = build_dual(ws, ws.points[0])
        assert cc.dimension() == 1
        # connected and acyclic
        assert cc.cube_counts()[1] == cc.nvertices() - 1


def test_z2_system_shape():
    _ball, (ws, _meta) = z2_system(3)
    assert ws.nwalls() == 14
    cc = build_dual(ws, ws.points[0])
    _fams, k = max_transverse_families(ws)
    assert k == 2 and cc.dimension() == 2
    # Euler characteristic of a disk-like grid patch
    counts = cc.cube_counts()
    assert counts[0] - counts[1] + counts[2] == 1


def test_transverse_implies_close():
    # finite check: carriers (wall regions) of transverse walls stay close,
    # and the measured bound is monotone under radius growth
    bounds = []
    for radius in (2, 3):
        _ball, (ws, _meta) = z2_system(radius)
        worst = 0
        for a, b in combinations(ws.wall_indices(), 2):
            if oracle_transverse(ws, a, b):
                d = dist_sets(ws.metric, wall_region(ws, a),
                              wall_region(ws, b))
                worst = max(worst, d)
        bounds.append(worst)
    assert bounds[0] <= bounds[1] <= 2


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
    total = sum(cc.cube_counts().values())
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
    # once, by build_dual, and nothing after it builds them again: not
    # max_transverse_families, which reads them too, nor canonical_cube,
    # which reads the separation index.  Every module's binding of
    # conflict_tables, the name its readers look up, gets one counting
    # wrapper, so the wrapper is one `derived` key as the function is.
    builds = []

    def counting(ws):
        builds.append(1)
        return conflict_tables(ws)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wallcube" and \
                getattr(module, "conflict_tables", None) is conflict_tables:
            monkeypatch.setattr(module, "conflict_tables", counting)
    ball, (ws, _meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    max_transverse_families(ws)
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
    total = sum(cc.cube_counts().values())
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
