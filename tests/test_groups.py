"""Group families, Cayley balls, H-wall systems, actions, decompositions."""

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_ball_metric,
    oracle_build_hwall,
    oracle_codim_one_analysis,
    oracle_point_map,
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
from wallcube.hemi import InducedVariant
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


class CountingSpec:
    """A group spec that counts the products it makes."""

    def __init__(self, spec):
        self.spec = spec
        self.products = 0

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def mul(self, a, b):
        self.products += 1
        return self.spec.mul(a, b)


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
    spec.products = 0
    generate_hwall_system(ball, hws)
    # per spec: one translate per ball point, with one product per point;
    # the invariance check, the carrier and frontier orbit counts and the
    # side-swap test multiply each H-member in the ball by each point at
    # most once each; cyclic membership of a point costs 2(r + 1) products
    checks = sum(5 * h + 2 * (radius + 1) for h in hsizes)
    assert spec.products <= (len(hws) * (n + 1) + checks) * n


def test_hwall_system_stops_at_the_product_cap(monkeypatch):
    # two H-walls on the 25-point ball: 2 · 25² = 1250 products, counted
    # before any translate is built
    ball, (ws, meta) = z2_system(3)
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 1250)
    assert generate_hwall_system(ball, meta.specs)[0].walls == ws.walls

    def no_translate(*args):
        raise AssertionError("a translate was built")

    monkeypatch.setattr(groups, "MAX_PRODUCTS", 1249)
    monkeypatch.setattr(groups, "_translate", no_translate)
    with pytest.raises(StateSpaceCap, match="^H-wall system needs 1250 "
                       "group products, exceeds cap 1249$"):
        generate_hwall_system(ball, meta.specs)


# -- H-walls -----------------------------------------------------------


def test_build_hwall_z2():
    ball = cayley_ball(Z2, 3)
    hw = HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0)
    wall, rep = build_hwall(ball, hw)
    assert rep.ok and rep.coverage_ok
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
        assert ActionMap.from_element(ball, g).point_map == \
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
        assert meta.dropped_vacuous == meta.dropped_duplicate_partitions == 0
        assert len(meta.reports) == hws
        for w in ws.walls:
            _pos, t = meta.wall_info[w.index]
            assert w.carrier() >> ball.by_name[t] & 1


def test_generated_systems_validate():
    for _ball, (ws, _meta) in (z2_system(), f2_system()):
        rep = validate(ws)
        assert rep.ok, rep.errors


def test_z2_translate_transversality():
    # walls in the same direction are nested, orthogonal ones transverse
    _ball, (ws, meta) = z2_system(3)
    by_pos = {}
    offset = {}
    for idx, (pos, t) in meta.wall_info.items():
        by_pos.setdefault(pos, []).append(idx)
        gx, gy = (int(v) for v in t.strip("()").split(","))
        offset[idx] = gx if pos == 0 else gy
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
        action = ActionMap.from_element(ball, g, ws=ws, meta=meta)
        rep = verify_equivariance(ws, action, cc)
        assert rep.ok, rep.violations
        assert rep.domain_vertices >= cc.nvertices() // 2
        assert rep.preserved_edges > 0


def test_equivariance_f2_generators():
    ball, (ws, meta) = f2_system(3)
    cc = build_dual(ws, ws.points[0])
    for g in ("a", "A", "b"):
        action = ActionMap.from_element(ball, g, ws=ws, meta=meta)
        rep = verify_equivariance(ws, action, cc)
        assert rep.ok, rep.violations
        assert rep.domain_vertices > 0


def test_equivariance_identity():
    ball, (ws, meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    action = ActionMap.from_element(ball, Z2.identity(), ws=ws, meta=meta)
    rep = verify_equivariance(ws, action, cc)
    assert rep.ok
    assert rep.domain_vertices == cc.nvertices()
    assert rep.preserved_edges == cc.nedges()


def test_equivariance_violations_carry_total():
    # no points to check, and each x-wall sent to the y-wall at the same
    # offset: the image of an edge on an x-wall differs on two walls
    ball, (ws, meta) = z2_system(2)
    cc = build_dual(ws, ws.points[0])
    at = {(pos, t): i for i, (pos, t) in meta.wall_info.items()}
    walls = {at[0, f"({k},0)"]: (at[1, f"(0,{k})"], False)
             for k in range(-2, 3)}
    rep = verify_equivariance(ws, ActionMap({}, walls), cc)
    doc = rep.to_dict()
    assert doc["violations"] == rep.violations[:10]

    def image(m):  # each y-wall takes the side of its x-wall
        for i, (j, _swap) in walls.items():
            a, b = ws.wall_pos[i], ws.wall_pos[j]
            m = m & ~(1 << b) | (m >> a & 1) << b
        return m

    domain = {m for m in cc.vertices if image(m) in cc.vid}
    broken = sum(1 for u, v, w in cc.edges
                 if u in domain and v in domain and ws.walls[w].index in walls)
    assert doc["violations_total"] == 1 + broken > 10  # and NotInjective
    identity = ActionMap.from_element(ball, Z2.identity(), ws=ws, meta=meta)
    assert "violations_total" not in \
        verify_equivariance(ws, identity, cc).to_dict()


def test_axis_cut_z2():
    from wallcube.separation import axis_cut_test
    ball, (ws, meta) = z2_system(3)
    cc = build_dual(ws, ws.points[0])
    action = ActionMap.from_element(ball, (1, 0), ws=ws, meta=meta)
    # pick the x-wall through the origin
    target = next(i for i, (pos, t) in meta.wall_info.items()
                  if pos == 0 and t == "(0,0)")
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


def random_action(rng):
    """A random wallspace (2-5 points, 1-4 walls, each side a random
    nonempty set) with a random partial injective point map and a random,
    possibly many-to-one, wall map."""
    npts = rng.randint(2, 5)
    full = (1 << npts) - 1
    walls = [Wall(i, rng.randint(1, full), rng.randint(1, full))
             for i in range(rng.randint(1, 4))]
    ws = Wallspace([f"p{i}" for i in range(npts)], walls)
    domain = rng.sample(ws.points, rng.randint(1, npts))
    points = dict(zip(domain, rng.sample(ws.points, len(domain))))
    walls = {i: (rng.randrange(len(walls)), rng.random() < 0.5)
             for i in range(len(walls)) if rng.random() < 0.8}
    return ws, ActionMap(points, walls)


def open_separates(w, bx, by):
    """From the definition: x and y lie in opposite open halfspaces."""
    ol, orr = w.left & ~w.right, w.right & ~w.left
    return bool(ol & bx and orr & by or ol & by and orr & bx)


def orbit_point(action, x, n):
    """g^n x, step by step; None once the orbit leaves the domain."""
    step = action.point_map if n > 0 else \
        {gx: x for x, gx in action.point_map.items()}
    for _ in range(abs(n)):
        x = step.get(x)
        if x is None:
            return None
    return x


def test_check_implies_separation_and_power_halfspaces():
    # what verify_equivariance and axis_cut_test no longer re-check: on
    # an action that passes check, each mapped wall separates a pair of
    # mapped points exactly when its image separates their images, and
    # g^n carries the halfspaces of W into the matching sides of the wall
    # wall_power gives, for n = ±1..3
    rng = random.Random(12)
    nontrivial = 0
    for _ in range(4000):
        ws, action = random_action(rng)
        try:
            action.check(ws)
        except NotAnAutomorphism:
            continue
        nontrivial += bool(action.wall_map) and len(action.point_map) > 1
        bit = ws.point_bit
        for x, y in combinations(action.point_map, 2):
            gx, gy = action.point_map[x], action.point_map[y]
            for i, (j, _swap) in action.wall_map.items():
                assert open_separates(ws.wall(i), bit(x), bit(y)) == \
                    open_separates(ws.wall(j), bit(gx), bit(gy))
        for w in ws.walls:
            for n in (1, -1, 2, -2, 3, -3):
                img = action.wall_power(w.index, n)
                if img is None:
                    continue
                wj = ws.wall(img[0])
                left, right = (wj.right, wj.left) if img[1] else \
                    (wj.left, wj.right)
                pm = action.point_mask_power(ws, n)
                for x in ws.points:
                    gx = orbit_point(action, x, n)
                    if gx is None:
                        continue
                    assert bool(w.left & bit(x)) == bool(left & bit(gx))
                    assert bool(w.right & bit(x)) == bool(right & bit(gx))
                assert pm(w.left) & ~left == 0 and pm(w.right) & ~right == 0
    assert nontrivial > 100


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
     "d0d95c4a15a33dff18060797810c967016921454471d88add0fc1ac70bce587e"),
])
def test_rel_cocompact_z2_axes_recorded(monkeypatch, variant, summary,
                                        digest):
    # recorded output on the Z^2 radius-3 system with the two coordinate
    # axes as peripheries; the wallspace's conflict tables are built once,
    # by build_dual, and reused by every canonical_cube call
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
