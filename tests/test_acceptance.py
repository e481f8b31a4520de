"""Acceptance gate: one printed pass/fail line per criterion.

Each criterion re-derives its expectation from an independent oracle where
one exists, and carries the stated time budget as a hard assertion.
"""

import random
import time
from itertools import combinations

import pytest

from conftest import (
    all_cubes,
    chosen,
    cubes,
    flippable,
    oracle_build_dual,
    oracle_is_convex,
    osculate,
    pair_le,
    random_wallspace,
    wall_position,
)
from wallcube.complex import (
    build_dual,
    canonical_cube,
    contract_loop,
    cube_distance,
    enumerate_all_orientations,
    maximal_cubes,
    verify_npc,
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
    rel_cocompact_check,
)
from wallcube.hemi import InducedVariant, dual_sub, induce_hemi, is_convex
from wallcube.separation import compact_wall_separation, linear_separation_fit
from wallcube.wallspace import (
    Wall,
    Wallspace,
    max_transverse_families,
    separation_count,
    validate,
)

N_RANDOM = 500


_CAPMAN = [None]


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    _CAPMAN[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def echo(line):
    # write past pytest's capture so one line per criterion always shows
    if _CAPMAN[0] is not None:
        with _CAPMAN[0].global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def report(num, ok, text):
    echo(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def random_instances():
    out = []
    for s in range(N_RANDOM):
        ws = random_wallspace(s, max_points=8, max_walls=8, with_metric=False)
        if validate(ws).ok:
            out.append(ws)
    return out


_CACHE = {}


def instances():
    if "random" not in _CACHE:
        _CACHE["random"] = random_instances()
    return _CACHE["random"]


def duals():
    """The shared corpus of (ws, enumerate_all_orientations(ws)) pairs and
    the seconds its one build took.

    Every criterion that reads the corpus adds the build time to its own,
    so each budget covers the same work whichever criterion runs first.
    """
    if "duals" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["duals"] = [(ws, enumerate_all_orientations(ws))
                           for ws in instances()]
        _CACHE["duals_s"] = time.perf_counter() - t0
    return _CACHE["duals"], _CACHE["duals_s"]


def test_criterion_01_fig3_complex():
    t0 = time.perf_counter()
    cc = build_dual(fig3(), "a")
    ok = cc.dimension() == 3 and len(cubes(cc).get(3, ())) == 1
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0,
           f"fig3 dual has dimension 3 with one 3-cube ({elapsed:.2f}s)")


@pytest.mark.xfail(strict=True,
                   reason="stated canonical-dimension tuple (1,1,0,0,3,0) is "
                          "inconsistent with the wall data: e lies in both "
                          "halfspaces of exactly two walls, so its canonical "
                          "cube has dimension 2, not 3")
def test_criterion_01b_fig3_canonical_dims_as_stated():
    ws = fig3()
    dims = tuple(canonical_cube(ws, p).dim for p in ws.points)
    echo(f"criterion 01b {'PASS' if dims == (1, 1, 0, 0, 3, 0) else 'FAIL'}: "
         f"canonical dims {dims} vs stated (1,1,0,0,3,0)")
    assert dims == (1, 1, 0, 0, 3, 0)


def test_criterion_02_maximal_cube_bijection():
    corpus, build_s = duals()
    t0 = time.perf_counter()
    checked = 0
    for ws, cc in corpus:
        fams, _k = max_transverse_families(ws)
        maximal = [tuple(sorted(ws.walls[w].index for w in c.walls))
                   for c in maximal_cubes(cc) if c.dim >= 1]
        if sorted(set(maximal)) != fams or len(maximal) != len(set(maximal)):
            report(2, False, f"bijection fails on instance {checked}")
        checked += 1
    elapsed = build_s + time.perf_counter() - t0
    report(2, checked >= 400 and elapsed < 30,
           f"maximal cubes <-> maximal transverse families on {checked} "
           f"random instances ({elapsed:.1f}s)")


def test_criterion_03_connectivity_oracle():
    corpus, build_s = duals()
    t0 = time.perf_counter()
    checked = 0
    gens = [fig3(), grid(2), grid(3), rbad(2), non_hausdorff3(), geom_path(4)]
    for ws, full in corpus + [(w, enumerate_all_orientations(w))
                              for w in gens]:
        for p in ws.points:
            if oracle_build_dual(ws, p) != full.vertices:
                report(3, False, f"basepoint {p} misses orientations")
        checked += 1
    elapsed = build_s + time.perf_counter() - t0
    report(3, elapsed < 60,
           f"flip search from every basepoint = enumerateAllOrientations "
           f"on {checked} instances ({elapsed:.1f}s)")


def test_criterion_04_distance_law():
    corpus, build_s = duals()
    t0 = time.perf_counter()
    pairs = 0
    for ws, cc in corpus:
        for x, y in combinations(ws.points, 2):
            d = cube_distance(cc, canonical_cube(ws, x),
                              canonical_cube(ws, y))
            if d != separation_count(ws, x, y):
                report(4, False, f"#(x,y) != d_C on {x},{y}")
            pairs += 1
    elapsed = build_s + time.perf_counter() - t0
    report(4, elapsed < 30,
           f"#(x,y) = d_C(c_x,c_y) over {pairs} point pairs ({elapsed:.1f}s)")


def test_criterion_05_npc_and_simple_connectivity():
    corpus, build_s = duals()
    t0 = time.perf_counter()
    rng = random.Random(0)
    loops_done = 0
    for ws, cc in corpus:
        rep = verify_npc(cc)
        if not rep.ok:
            report(5, False, f"NPC violation {rep.violations[:1]}")
        tries = 0
        while tries < 30 and loops_done < 1200:
            tries += 1
            start = rng.choice(cc.vertices)
            path = [start]
            dead = False
            for _ in range(11):
                nbrs = cc.adj[path[-1]]
                if not nbrs:
                    dead = True
                    break
                path.append(rng.choice(nbrs)[0])
                if path[-1] == start and len(path) > 2:
                    contract_loop(cc, path)
                    loops_done += 1
                    break
            if dead:
                break
    elapsed = build_s + time.perf_counter() - t0
    report(5, loops_done >= 1000 and elapsed < 60,
           f"NPC everywhere; {loops_done} sampled loops contracted "
           f"({elapsed:.1f}s)")


def test_criterion_06_hemi_convexity():
    t0 = time.perf_counter()
    rng = random.Random(1)
    done = 0
    variants = [InducedVariant("U0"), InducedVariant("Ur", r=1),
                InducedVariant("Ur", r=2)]
    while done < 200:
        ws = random_wallspace(rng.randrange(10_000), max_points=7,
                              max_walls=7, with_metric=True)
        if not validate(ws).ok:
            continue
        cc = enumerate_all_orientations(ws)
        P = rng.sample(list(ws.points), rng.randint(1, len(ws.points)))
        hemi = induce_hemi(ws, P, rng.choice(variants))
        sub = dual_sub(cc, hemi)
        # the hull test holds on a dual_sub by construction, so the claim
        # is checked by breadth-first search
        convex, witness = oracle_is_convex(cc, sub)
        if not convex:
            report(6, False, f"non-convex dual sub, witness {witness}")
        if is_convex(cc, sub) != (True, None):
            report(6, False, f"is_convex disagrees with BFS on {P}")
        done += 1
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 60,
           f"isConvex(dualSub) on {done} random (ws, P, variant) triples "
           f"({elapsed:.1f}s)")


def test_criterion_07_pair_order_counterexample():
    t0 = time.perf_counter()
    ws = Wallspace(["1", "2", "3"],
                   [Wall(0, 0b011, 0b111), Wall(1, 0b110, 0b001)])
    cc = enumerate_all_orientations(ws)
    found = False
    for x0 in ws.points:
        b = 1 << ws.point_pos(x0)
        for m in cc.vertices:
            mis = [i for i in range(ws.nwalls()) if not chosen(ws, m, i) & b]
            pairs = {i: (chosen(ws, m, i), chosen(ws, m ^ (1 << i), i))
                     for i in mis}
            for i in mis:
                if not flippable(ws, m, i):
                    continue
                dominated = any(pairs[j] != pairs[i]
                                and pair_le(pairs[j], pairs[i])
                                for j in mis)
                if dominated:
                    found = True
    elapsed = time.perf_counter() - t0
    report(7, found and elapsed < 1.0,
           "flippable misoriented wall that is not minimal in the pair "
           f"order exists in the 3-point instance ({elapsed:.2f}s)")


def test_criterion_08_non_hausdorff():
    t0 = time.perf_counter()
    ws = non_hausdorff3()
    ok = (separation_count(ws, "x", "y") == 1
          and separation_count(ws, "x", "z") == 0
          and separation_count(ws, "y", "z") == 0)
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 1.0,
           f"#(x,y)=1, #(x,z)=#(y,z)=0 ({elapsed:.2f}s)")


def test_criterion_09_grid_family():
    t0 = time.perf_counter()
    for n in range(1, 7):
        ws = grid(n)
        cc = build_dual(ws, "0,0")
        full = enumerate_all_orientations(ws)
        counts = cc.cube_counts()
        ok = (cc.vertices == full.vertices
              and counts[0] == (n + 1) ** 2
              and counts[1] == 2 * n * (n + 1)
              and counts.get(2, 0) == n * n
              and cc.dimension() == 2)
        fit = linear_separation_fit(ws)
        ok = ok and fit.parameters["kappa"] == [1, 1] \
            and fit.parameters["epsilon"] == 0.0
        if not ok:
            report(9, False, f"grid({n}) mismatch: {counts}")
    elapsed = time.perf_counter() - t0
    report(9, elapsed < 10,
           f"grid(1..6) counts, dimension 2, kappa=1/eps=0 ({elapsed:.1f}s)")


def test_criterion_10_rbad_trend():
    t0 = time.perf_counter()
    prev = 0
    for n in (2, 4, 8, 16):
        ws = rbad(n)
        cc = build_dual(ws, "0")
        npts = n * n + 1
        n_interval = ws.nwalls() - npts
        sing = [wall_position(ws, i)
                for i in range(n_interval, ws.nwalls())]
        # line vertices orient every singleton wall to its complement
        line = [m for m in cc.vertices
                if all((m >> p) & 1 for p in sing)]
        deg = max(len(cc.adj[m]) for m in line)
        mid = ws.points[len(ws.points) // 2]
        rep = compact_wall_separation(ws, [mid])
        if not (deg >= n and deg >= prev and rep.verdict == "holds"):
            report(10, False,
                   f"rbad({n}): line degree {deg}, verdict {rep.verdict}")
        prev = deg
    elapsed = time.perf_counter() - t0
    report(10, elapsed < 30,
           f"line-vertex degree nondecreasing and >= n with finite "
           f"compact-wall f, n in 2..16 ({elapsed:.1f}s)")


def test_criterion_11_cayley_systems():
    t0 = time.perf_counter()
    # F2 radius-4 <a>-wall system: a tree
    F2 = Free(2)
    ballf = cayley_ball(F2, 4)
    wsf, _ = generate_hwall_system(
        ballf, [HWallSpec(CyclicSubgroup(F2, "a"), "branch", axis="a")])
    ccf = build_dual(wsf, wsf.points[0])
    tree = ccf.dimension() == 1 and \
        ccf.cube_counts()[1] == ccf.nvertices() - 1
    # Z2 radius-4 coordinate system: equal as a wall set to directly built
    # interval walls on the same ball, and its dual is that grid patch
    Z2 = FreeAbelian(2)
    ball = cayley_ball(Z2, 4)
    ws, _meta = generate_hwall_system(ball, [
        HWallSpec(CoordinateSubgroup(Z2, [1]), "coordinate", axis=0),
        HWallSpec(CoordinateSubgroup(Z2, [0]), "coordinate", axis=1)])
    direct = []
    for axis in (0, 1):
        for c in range(-4, 5):
            u = ball.mask_of(lambda g, a=axis, c=c: g[a] <= c)
            v = ball.mask_of(lambda g, a=axis, c=c: g[a] >= c)
            if u and v:
                direct.append(Wall(len(direct), u, v))
    same_walls = {frozenset((w.left, w.right)) for w in ws.walls} == \
        {frozenset((w.left, w.right)) for w in direct}
    cc = build_dual(ws, ws.points[0])
    ws2 = Wallspace(ball.names, direct, metric=ball.metric)
    cc2 = build_dual(ws2, ball.names[0])
    counts, counts2 = cc.cube_counts(), cc2.cube_counts()
    patch = (counts == counts2 and cc.dimension() == 2
             and counts[0] - counts[1] + counts[2] == 1
             and cc.max_degree() <= 4)
    elapsed = time.perf_counter() - t0
    report(11, tree and same_walls and patch and elapsed < 30,
           f"F2 tree and Z2 grid patch equal to the direct interval-wall "
           f"oracle ({elapsed:.1f}s)")


def test_criterion_12_osculation_correspondence():
    corpus, build_s = duals()
    t0 = time.perf_counter()
    checked = 0
    for ws, cc in corpus:
        flippables = {}
        for m in cc.vertices:
            for i in range(ws.nwalls()):
                if (m ^ (1 << i)) in cc.vid:
                    flippables.setdefault(i, set()).add(m)
        squares = {frozenset(c.walls) for c in cubes(cc).get(2, ())}
        for a, b in combinations(range(ws.nwalls()), 2):
            i, j = ws.walls[a].index, ws.walls[b].index
            share = bool(flippables.get(a, set()) & flippables.get(b, set()))
            square = frozenset((a, b)) in squares
            expect = share and not square
            if osculate(ws, i, j) != expect:
                report(12, False,
                       f"osculate({i},{j}) != shared-vertex-no-square")
            checked += 1
    elapsed = build_s + time.perf_counter() - t0
    report(12, elapsed < 30,
           f"osculation = shared vertex without common square over "
           f"{checked} wall pairs ({elapsed:.1f}s)")


def test_criterion_13_rel_cocompact_fixture():
    t0 = time.perf_counter()
    ws = grid(2)
    cc = build_dual(ws, "0,0")
    left = [p for p in ws.points if int(p.split(",")[0]) <= 1]
    right = [p for p in ws.points if int(p.split(",")[0]) >= 1]
    variant = InducedVariant("U0")
    rep = rel_cocompact_check(ws, cc, [left, right], variant, m=0)
    # from-scratch scan of the definition
    hemis = [induce_hemi(ws, P, variant) for P in (left, right)]
    k_part = unique = both = none = 0
    for c in all_cubes(cc):
        reps = [k for k, h in enumerate(hemis)
                if h.represents(c.base, c.mask)]
        # depth >= m = 0 always, so the K-part is empty
        if len(reps) == 1:
            unique += 1
        elif len(reps) > 1:
            both += 1
        else:
            none += 1
    ok = (rep.k_part == 0 and rep.unique == unique
          and len(rep.isolation_violations) == both
          and len(rep.coverage_violations) == none
          and both > 0)
    elapsed = time.perf_counter() - t0
    report(13, ok and elapsed < 5,
           f"two-periphery fixture partition matches the definition scan: "
           f"{unique} unique, {both} shared, {none} uncovered "
           f"({elapsed:.1f}s)")
