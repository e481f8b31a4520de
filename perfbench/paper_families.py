"""paper-families: the paper's structured families at larger sizes.

Inputs are grid 5..7, rbad 6..8, and the Cayley-ball H-wall systems of Z^2
at radius 3..5 and F_2 at radius 2..4.  Three sizes per family keep many
ops of similar cost around the median, so the median does not jump between
two ops of different cost from run to run.  For each seed the benchmark
permutes the order of points and walls in each input document (names and
wall indices stay), picks the basepoint, the sampled loops, the
hemiwallspace subsets and the point pairs of the distance law.  Every
quantity checked below is invariant under that relabeling, so one table of
expected values serves all seeds.

One op is one (input, task) pair, plus group generation and two
`rel_cocompact_check` runs.  Complexes used by the query tasks are built
during set-up; the `build` task times construction on its own.
"""

import random
from itertools import combinations

from wallcube import (
    InducedVariant,
    build_dual,
    canonical_cube,
    contract_loop,
    cube_distance,
    dual_sub,
    enumerate_all_orientations,
    induce_hemi,
    is_convex,
    max_transverse_families,
    maximal_cubes,
    separation_count,
    validate,
    verify_npc,
)
from wallcube import generators, groups, io, separation

from harness import expect, warm_up
from oracle_corpus import euler_characteristic, record_complex, sample_loops

# (family, size): grid n, rbad n, and the Z^2 and F_2 balls of radius n
INPUTS = [("grid", 5), ("grid", 6), ("grid", 7),
          ("rbad", 6), ("rbad", 7), ("rbad", 8),
          ("z2", 3), ("z2", 4), ("z2", 5),
          ("f2", 2), ("f2", 3), ("f2", 4)]
Z2_RADIUS = 5
F2_RADIUS = 4
ACT_RADIUS = 5
CONNECTED_MAX_WALLS = 20   # `connected` enumerates 2^walls orientations
DISTANCE_PAIRS = 300
BALL_R = 1
PACKING_D = 1

# Values at the commit that defined the benchmark.  Each is a property of
# the input up to relabeling: the diagnostics' verdicts and values, the
# complex's cube counts and the packing number.
EXPECTED = {
    "grid5": {
        "counts": {0: 36, 1: 60, 2: 25},
        "linear": ("holds", 1.0),
        "ball_ball": ("holds", 4.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 0.0),
        "packing": 0,
    },
    "grid6": {
        "counts": {0: 49, 1: 84, 2: 36},
        "linear": ("holds", 1.0),
        "ball_ball": ("holds", 4.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 0.0),
        "packing": 0,
    },
    "grid7": {
        "counts": {0: 64, 1: 112, 2: 49},
        "linear": ("holds", 1.0),
        "ball_ball": ("holds", 4.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 0.0),
        "packing": 0,
    },
    "rbad6": {
        "counts": {0: 50, 1: 54, 2: 5},
        "linear": ("holds", 0.19444444444444445),
        "ball_ball": ("holds", 8.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 6.0),
        "packing": 1,
    },
    "rbad7": {
        "counts": {0: 65, 1: 70, 2: 6},
        "linear": ("holds", 0.16326530612244897),
        "ball_ball": ("holds", 9.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 7.0),
        "packing": 1,
    },
    "rbad8": {
        "counts": {0: 82, 1: 88, 2: 7},
        "linear": ("holds", 0.140625),
        "ball_ball": ("holds", 10.0),
        "compact_wall": ("holds", 1.0),
        "wall_wall": ("holds", 8.0),
        "packing": 1,
    },
    "z2r3": {
        "counts": {0: 40, 1: 64, 2: 25},
        "linear": ("fails", 0.0),
        "ball_ball": ("fails", 6.0),
        "compact_wall": ("holds", 2.0),
        "wall_wall": ("holds", 2.0),
        "packing": 4,
    },
    "z2r4": {
        "counts": {0: 60, 1: 100, 2: 41},
        "linear": ("fails", 0.0),
        "ball_ball": ("holds", 6.0),
        "compact_wall": ("holds", 2.0),
        "wall_wall": ("holds", 2.0),
        "packing": 4,
    },
    "z2r5": {
        "counts": {0: 84, 1: 144, 2: 61},
        "linear": ("fails", 0.0),
        "ball_ball": ("holds", 6.0),
        "compact_wall": ("holds", 2.0),
        "wall_wall": ("holds", 2.0),
        "packing": 4,
    },
    "f2r2": {
        "counts": {0: 10, 1: 9},
        "linear": ("fails", 0.0),
        "ball_ball": ("fails", 4.0),
        "compact_wall": ("holds", 3.0),
        "wall_wall": ("fails", 4.0),
        "packing": 2,
    },
    "f2r3": {
        "counts": {0: 28, 1: 27},
        "linear": ("fails", 0.0),
        "ball_ball": ("fails", 6.0),
        "compact_wall": ("holds", 4.0),
        "wall_wall": ("fails", 6.0),
        "packing": 2,
    },
    "f2r4": {
        "counts": {0: 82, 1: 81},
        "linear": ("fails", 0.0),
        "ball_ball": ("fails", 8.0),
        "compact_wall": ("holds", 5.0),
        "wall_wall": ("fails", 8.0),
        "packing": 2,
    },
}
# cayley Z2 radius ACT_RADIUS with coordinate peripheries, for the U0 and
# the Ur (r = 1) variants
ACT_EXPECTED = {"least_m": 1, "cubes": 289}


def z2_hwalls(spec):
    return [groups.HWallSpec(groups.CoordinateSubgroup(spec, {1}),
                             "coordinate", axis=0, index=0),
            groups.HWallSpec(groups.CoordinateSubgroup(spec, {0}),
                             "coordinate", axis=1, index=1)]


def f2_hwalls(spec):
    return [groups.HWallSpec(groups.CyclicSubgroup(spec, "a"), "branch",
                             axis="a", index=0)]


def z2_system(radius):
    spec = groups.FreeAbelian(2)
    ball = groups.cayley_ball(spec, radius)
    ws, _meta = groups.generate_hwall_system(ball, z2_hwalls(spec))
    return ball, ws


def f2_system(radius):
    spec = groups.Free(2)
    ball = groups.cayley_ball(spec, radius)
    ws, _meta = groups.generate_hwall_system(ball, f2_hwalls(spec))
    return ball, ws


def z2_interval_walls(names, radius):
    """Oracle for the Z^2 system: the coordinate interval walls
    {x_a <= c} | {x_a >= c} of the ball, as sets of point names."""
    coords = {n: tuple(int(t) for t in n.strip("()").split(","))
              for n in names}
    out = set()
    for axis in (0, 1):
        for c in range(-radius, radius + 1):
            u = frozenset(n for n, x in coords.items() if x[axis] <= c)
            v = frozenset(n for n, x in coords.items() if x[axis] >= c)
            out.add(frozenset((u, v)))
    return out


def axis_peripheries(ball, spec):
    """The points of the Z^2 ball on each coordinate axis."""
    return [[n for n, g in zip(ball.names, ball.elements)
             if groups.CoordinateSubgroup(spec, coords).contains(g)]
            for coords in ([0], [1])]


def wall_name_sets(ws):
    return {frozenset((frozenset(ws.names_of(w.left)),
                       frozenset(ws.names_of(w.right)))) for w in ws.walls}


def relabel(doc, rng):
    """The same wallspace with its points and walls in a seeded order."""
    points = list(doc["points"])
    walls = list(doc["walls"])
    rng.shuffle(points)
    rng.shuffle(walls)
    return dict(doc, points=points, walls=walls)


def canonical_input(family, n):
    """(wallspace, fixed point K of the compact-wall diagnostic)."""
    if family == "grid":
        return generators.grid(n), f"{n // 2},{n // 2}"
    if family == "rbad":
        return generators.rbad(n), str(n * n // 2)
    if family == "z2":
        return z2_system(n)[1], "(0,0)"
    return f2_system(n)[1], "1"


class Input:
    def __init__(self, family, size, rng):
        self.family = family
        self.size = size
        self.name = f"{family}{size}" if family in ("grid", "rbad") \
            else f"{family}r{size}"
        ws, self.center = canonical_input(family, size)
        self.text = io.dumps(relabel(io.wallspace_to_dict(ws), rng))
        self.ws = io.wallspace_from_dict(io.loads(self.text))
        self.basepoint = rng.choice(self.ws.points)
        self.cc = build_dual(self.ws, self.basepoint)
        self.expected = EXPECTED[self.name]


def check_counts(inp, cc):
    counts = cc.cube_counts()
    expect(counts == inp.expected["counts"],
           f"{inp.name}: cube counts {counts}")
    expect(euler_characteristic(counts) == 1,
           f"{inp.name}: Euler characteristic != 1")
    if inp.family == "grid":
        n = inp.size
        expect((counts[0], counts[1], counts[2])
               == ((n + 1) ** 2, 2 * n * (n + 1), n * n),
               "grid: counts != (n+1)^2, 2n(n+1), n^2")
    if inp.family == "f2":
        expect(cc.dimension() == 1 and counts[1] == counts[0] - 1,
               "F2: dual is not a tree")
    if inp.family == "z2":
        expect(cc.dimension() == 2, "Z2: dual is not 2-dimensional")


def task_load(tr, inp, rng):
    doc = io.loads(inp.text)
    ws = tr.call("io.wallspace_from_dict", io.wallspace_from_dict, doc)
    text = tr.call("io.dumps", io.dumps, io.wallspace_to_dict(ws))
    expect(text == inp.text, f"{inp.name}: document does not round-trip")


def task_validate(tr, inp, rng):
    rep = tr.call("wallspace.validate", validate, inp.ws)
    expect(rep.ok, f"{inp.name}: validate reports errors")


def task_build(tr, inp, rng):
    cc = tr.call("complex.build_dual", build_dual, inp.ws, inp.basepoint)
    record_complex(tr, cc)
    check_counts(inp, cc)


def task_npc(tr, inp, rng):
    rep = tr.call("complex.verify_npc", verify_npc, inp.cc)
    expect(rep.ok, f"{inp.name}: NPC violation")


def task_connected(tr, inp, rng):
    full = tr.call("complex.enumerate_all_orientations",
                   enumerate_all_orientations, inp.ws)
    record_complex(tr, full)
    expect(full.vertices == inp.cc.vertices,
           f"{inp.name}: BFS build misses orientations")


def task_loops(tr, inp, rng):
    loops = sample_loops(inp.cc, rng)
    expect(loops, f"{inp.name}: no loop sampled")
    for loop in loops:
        tr.call("complex.contract_loop", contract_loop, inp.cc, loop)


def task_maximal(tr, inp, rng):
    ws = inp.ws
    fams, _k = tr.call("wallspace.max_transverse_families",
                       max_transverse_families, ws)
    cubes = tr.call("complex.maximal_cubes", maximal_cubes, inp.cc)
    maximal = sorted(tuple(sorted(ws.walls[w].index for w in c.walls))
                     for c in cubes if c.dim >= 1)
    expect(maximal == fams,
           f"{inp.name}: maximal cubes != maximal transverse families")


def task_convexity(tr, inp, rng):
    variants = (InducedVariant("U0"), InducedVariant("Ur", r=1))
    for _ in range(3):
        P = rng.sample(inp.ws.points, rng.randint(1, 3))
        hemi = tr.call("hemi.induce_hemi", induce_hemi, inp.ws, P,
                       rng.choice(variants))
        sub = tr.call("hemi.dual_sub", dual_sub, inp.cc, hemi)
        convex, _w = tr.call("hemi.is_convex", is_convex, inp.cc, sub)
        expect(convex, f"{inp.name}: dual_sub of {sorted(P)} not convex")


def verdict(tr, inp, key, rep):
    tr.output(io.dumps(rep.to_dict()))
    got = (rep.verdict, rep.value)
    expect(got == inp.expected[key], f"{inp.name}: {key} gave {got}")


def task_linear(tr, inp, rng):
    rep = tr.call("separation.linear_separation_fit",
                  separation.linear_separation_fit, inp.ws)
    verdict(tr, inp, "linear", rep)
    if inp.family == "grid":
        expect(rep.parameters["kappa"] == [1, 1]
               and rep.parameters["epsilon"] == 0.0,
               "grid: linear fit is not kappa = 1, epsilon = 0")


def task_ball_ball(tr, inp, rng):
    rep = tr.call("separation.ball_ball_separation",
                  separation.ball_ball_separation, inp.ws, BALL_R)
    verdict(tr, inp, "ball_ball", rep)


def task_compact_wall(tr, inp, rng):
    rep = tr.call("separation.compact_wall_separation",
                  separation.compact_wall_separation, inp.ws, [inp.center])
    verdict(tr, inp, "compact_wall", rep)


def task_wall_wall(tr, inp, rng):
    rep = tr.call("separation.wall_wall_separation",
                  separation.wall_wall_separation, inp.ws)
    verdict(tr, inp, "wall_wall", rep)


def task_packing(tr, inp, rng):
    ws = inp.ws
    carriers = [ws.names_of(w.carrier())
                for w in sorted(ws.walls, key=lambda w: w.index)
                if w.carrier()]
    rep = tr.call("separation.bounded_packing_number",
                  separation.bounded_packing_number, ws, carriers, PACKING_D)
    tr.output(io.dumps(rep.to_dict()))
    expect(rep.k == inp.expected["packing"],
           f"{inp.name}: packing number {rep.k}")


def task_distance_law(tr, inp, rng):
    ws, cc = inp.ws, inp.cc
    every = list(combinations(sorted(ws.points), 2))
    pairs = rng.sample(every, min(DISTANCE_PAIRS, len(every)))
    cubes = {}
    for p in sorted({p for pair in pairs for p in pair}):
        cubes[p] = tr.call("complex.canonical_cube", canonical_cube, ws, p)
    for x, y in pairs:
        d = tr.call("complex.cube_distance", cube_distance, cc,
                    cubes[x], cubes[y])
        s = tr.call("wallspace.separation_count", separation_count, ws, x, y)
        expect(d == s, f"{inp.name}: #({x},{y}) = {s} but d_C = {d}")


def task_export(tr, inp, rng):
    doc = tr.call("complex.export_dict", inp.cc.export_dict)
    text = tr.call("io.dumps", io.dumps, doc)
    tr.output(text)
    expect(io.loads(text) == doc, f"{inp.name}: export does not round-trip")
    counts = inp.expected["counts"]
    expect(len(doc["vertices"]) == counts[0]
           and len(doc["edges"]) == counts[1]
           and len(doc["cubes"]) == sum(c for k, c in counts.items()
                                        if k >= 2),
           f"{inp.name}: export counts")


def task_dot(tr, inp, rng):
    dot = tr.call("io.skeleton_dot", io.skeleton_dot, inp.cc)
    tr.output(dot)
    counts = inp.expected["counts"]
    expect(dot.count("\n") == counts[0] + counts[1] + 2,
           f"{inp.name}: DOT line count")


TASKS = [task_load, task_validate, task_build, task_npc, task_connected,
         task_loops, task_maximal, task_convexity, task_linear,
         task_ball_ball, task_compact_wall, task_wall_wall, task_packing,
         task_distance_law, task_export, task_dot]


def gen_z2(tr, rng):
    spec = groups.FreeAbelian(2)
    ball = tr.call("groups.cayley_ball", groups.cayley_ball, spec, Z2_RADIUS)
    ws, _meta = tr.call("groups.generate_hwall_system",
                        groups.generate_hwall_system, ball, z2_hwalls(spec))
    expect(len(ws.points) == 2 * Z2_RADIUS * (Z2_RADIUS + 1) + 1,
           "Z2 ball size != 2r(r+1)+1")
    expect(wall_name_sets(ws) == z2_interval_walls(ws.points, Z2_RADIUS),
           "Z2 H-wall system != coordinate interval walls")


def gen_f2(tr, rng):
    spec = groups.Free(2)
    ball = tr.call("groups.cayley_ball", groups.cayley_ball, spec, F2_RADIUS)
    ws, _meta = tr.call("groups.generate_hwall_system",
                        groups.generate_hwall_system, ball, f2_hwalls(spec))
    expect(len(ws.points) == 2 * 3 ** F2_RADIUS - 1,
           "F2 ball size != 2*3^r - 1")
    expect(ws.nwalls() == len(ws.points) // 2 + 1,
           "F2 <a>-wall count != (|ball| + 1) / 2")


def act_z2(tr, variant, rng):
    spec = groups.FreeAbelian(2)
    ball = tr.call("groups.cayley_ball", groups.cayley_ball, spec,
                   ACT_RADIUS)
    ws, _meta = tr.call("groups.generate_hwall_system",
                        groups.generate_hwall_system, ball, z2_hwalls(spec))
    cc = tr.call("complex.build_dual", build_dual, ws, rng.choice(ws.points))
    record_complex(tr, cc)
    rep = tr.call("groups.rel_cocompact_check", groups.rel_cocompact_check,
                  ws, cc, axis_peripheries(ball, spec), variant)
    tr.output(io.dumps(rep.to_dict()))
    cubes = sum(cc.cube_counts().values())
    expect(cubes == ACT_EXPECTED["cubes"], f"act: {cubes} cubes")
    expect(rep.least_m == ACT_EXPECTED["least_m"],
           f"act: least m {rep.least_m}")
    expect(rep.coverage_violations == [],
           "act: coverage violations at m = least m")
    expect(rep.k_part + rep.unique + len(rep.isolation_violations) == cubes,
           "act: depth partition does not cover every cube")


def setup(seed, workdir):
    """The pass for `seed`.  The grid ops run once here, so first-call
    costs stay out of the measurement."""
    rng = random.Random(f"paper-families:{seed}")
    inputs = [Input(family, size, rng) for family, size in INPUTS]
    ops = []

    def bind(label, fn, *args):
        index = len(ops)

        def op(tr):
            fn(tr, *args, random.Random(f"{seed}:{index}"))

        op.label = label
        ops.append(op)

    for inp in inputs:
        for task in TASKS:
            if task is task_connected and \
                    inp.ws.nwalls() > CONNECTED_MAX_WALLS:
                continue
            bind(f"{inp.name}/{task.__name__[5:]}", task, inp)
    bind("z2r5/gen", gen_z2)
    bind("f2r4/gen", gen_f2)
    bind("z2r5/act U0", act_z2, InducedVariant("U0"))
    bind("z2r5/act Ur", act_z2, InducedVariant("Ur", r=1))
    warm_up([op for op in ops if op.label.startswith("grid5/")])
    return ops
