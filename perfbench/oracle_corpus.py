"""oracle-corpus: small random wallspaces run through every exact check.

Instances follow the distribution of the test suite's random wallspaces
(2..8 points, 1..8 walls, a random connected unit-weight graph metric) but
are drawn by this module's own generator and checked against this module's
own brute-force oracle, which never calls the library.

The draw is stratified by the total number of cells an op builds (the
complex's cells times one enumeration plus one build per point): a fixed
number of instances per half-octave band of that count, from 2^4 to 2^11.
Per-op cost grows with the count, so a fixed number per band keeps the work
of a pass comparable across seeds.  From 2^11 cells up one op took 0.1 to
11 s at the commit that defined the benchmark, so a handful would decide a
whole run; below 2^4 ops take well under a millisecond.
"""

import random

from wallcube import (
    InducedVariant,
    build_dual,
    contract_loop,
    dual_sub,
    enumerate_all_orientations,
    induce_hemi,
    is_convex,
    max_transverse_families,
    maximal_cubes,
    validate,
    verify_npc,
)
from wallcube import io

from harness import expect, warm_up

# band floor(2 * log2(total cells built)) -> instances per pass.  The
# middle band is four times larger and holds the median op, so the median
# rests on 81 instances of similar cost rather than on the edge between two
# bands.
BANDS = {band: 81 if band == 14 else 20 for band in range(8, 22)}
MAX_DRAWS = 50_000
HEMIS_PER_OP = 3
LOOP_TRIES = 30
LOOP_LEN = 12


def draw_doc(rng, max_points=8, max_walls=8):
    """A random wallspace document; walls always cover X and no genuine
    partition repeats, so every document validates."""
    npts = rng.randint(2, max_points)
    nwalls = rng.randint(1, max_walls)
    full = (1 << npts) - 1
    walls = []
    partitions = set()
    tries = 0
    while len(walls) < nwalls and tries < 200:
        tries += 1
        u = rng.randint(1, full)
        v = (full & ~u) | (u & rng.randint(0, full))
        if v == 0:
            v = 1 << rng.randrange(npts)
        if rng.random() < 0.15:
            u = full
        if u & v == 0:
            if frozenset((u, v)) in partitions:
                continue
            partitions.add(frozenset((u, v)))
        walls.append((u, v))
    edges = {(rng.randrange(i), i) for i in range(1, npts)}
    for _ in range(rng.randint(0, npts)):
        a, b = rng.randrange(npts), rng.randrange(npts)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    names = [f"p{i}" for i in range(npts)]

    def side(mask):
        return [names[i] for i in range(npts) if mask >> i & 1]

    return {
        "points": names,
        "walls": [{"index": i, "left": side(u), "right": side(v)}
                  for i, (u, v) in enumerate(walls)],
        "metric": {"edges": [[names[a], names[b], 1]
                             for a, b in sorted(edges)]},
    }, walls


def oracle_vertices(walls):
    """All orientations (bit i set = right side of wall i) whose chosen
    halfspaces pairwise intersect, each with itself included."""
    n = len(walls)
    out = []

    def extend(i, mask, chosen):
        if i == n:
            out.append(mask)
            return
        for s in (0, 1):
            h = walls[i][s]
            if h and all(h & c for c in chosen):
                extend(i + 1, mask | (s << i), chosen + [h])

    extend(0, 0, [])
    return sorted(out)


def oracle_cube_counts(vertices, nwalls):
    """dim -> number of cubes: a k-cube is present iff all 2^k corners are
    vertices.  Each cube is counted once, from its lowest corner."""
    vset = set(vertices)
    counts = {0: 0, 1: 0}

    def grow(corners, dim, ups):
        counts[dim] = counts.get(dim, 0) + 1
        for j, i in enumerate(ups):
            lifted = [c | 1 << i for c in corners]
            if all(c in vset for c in lifted):
                grow(corners + lifted, dim + 1, ups[j + 1:])

    for v in vertices:
        ups = [i for i in range(nwalls)
               if not v >> i & 1 and v | 1 << i in vset]
        grow([v], 0, ups)
    return counts


class Instance:
    def __init__(self, doc, vertices, counts):
        self.doc = doc
        self.ws = io.wallspace_from_dict(doc)
        self.vertices = vertices
        self.counts = counts
        self.cells = sum(counts.values())


def draw_corpus(seed):
    """The stratified corpus for `seed`, cheapest band first; the same
    seed always gives the same corpus."""
    rng = random.Random(f"oracle-corpus:{seed}")
    need = dict(BANDS)
    picked = {band: [] for band in BANDS}
    top = max(BANDS) + 1
    for _ in range(MAX_DRAWS):
        if not any(need.values()):
            break
        doc, walls = draw_doc(rng)
        builds = len(doc["points"]) + 1
        vertices = oracle_vertices(walls)
        if (len(vertices) * builds) ** 2 >= 1 << top:
            continue
        counts = oracle_cube_counts(vertices, len(walls))
        band = ((sum(counts.values()) * builds) ** 2).bit_length() - 1
        if need.get(band):
            need[band] -= 1
            picked[band].append((doc, vertices, counts))
    else:
        raise RuntimeError(f"corpus bands not filled after {MAX_DRAWS} draws")
    return [Instance(*item) for band in sorted(picked)
            for item in picked[band]]


def sample_loops(cc, rng):
    """Closed random walks of at most LOOP_LEN vertices."""
    loops = []
    for _ in range(LOOP_TRIES):
        start = rng.choice(cc.vertices)
        path = [start]
        for _ in range(LOOP_LEN - 1):
            nbrs = cc.adj[path[-1]]
            if not nbrs:
                break
            path.append(rng.choice(nbrs)[0])
            if path[-1] == start and len(path) > 2:
                loops.append(path)
                break
    return loops


def euler_characteristic(counts):
    return sum((-1) ** k * c for k, c in counts.items())


def record_complex(tr, cc):
    counts = cc.cube_counts()
    tr.count("complex.vertices", counts[0])
    tr.count("complex.edges", counts[1])
    tr.count("complex.cubes", sum(c for k, c in counts.items() if k >= 2))
    tr.count("complex.cells", sum(counts.values()))
    tr.maximum("complex.max_dim", cc.dimension())


def make_op(inst, seed, index):
    ws = inst.ws
    variants = (InducedVariant("U0"), InducedVariant("Ur", r=1))

    def op(tr):
        rng = random.Random(f"{seed}:{index}")
        rep = tr.call("wallspace.validate", validate, ws)
        expect(rep.ok, "validate: generated wallspace must be valid")
        full = tr.call("complex.enumerate_all_orientations",
                       enumerate_all_orientations, ws)
        record_complex(tr, full)
        expect(full.vertices == inst.vertices,
               "enumerate_all_orientations != brute-force vertices")
        expect(full.cube_counts() == inst.counts,
               "enumerate_all_orientations cube counts != oracle")
        expect(euler_characteristic(full.cube_counts()) == 1,
               "Euler characteristic of the dual != 1")
        for p in ws.points:
            cc = tr.call("complex.build_dual", build_dual, ws, p)
            record_complex(tr, cc)
            expect(cc.vertices == full.vertices
                   and cc.cube_counts() == inst.counts,
                   f"build_dual from {p} != enumerate_all_orientations")
        npc = tr.call("complex.verify_npc", verify_npc, full)
        expect(npc.ok, "verify_npc reports a violation")
        fams, _k = tr.call("wallspace.max_transverse_families",
                           max_transverse_families, ws)
        cubes = tr.call("complex.maximal_cubes", maximal_cubes, full)
        maximal = sorted(tuple(sorted(ws.walls[w].index for w in c.walls))
                         for c in cubes if c.dim >= 1)
        expect(maximal == fams,
               "maximal cubes != maximal transverse families")
        for loop in sample_loops(full, rng):
            tr.call("complex.contract_loop", contract_loop, full, loop)
        for _ in range(HEMIS_PER_OP):
            P = rng.sample(ws.points, rng.randint(1, len(ws.points)))
            hemi = tr.call("hemi.induce_hemi", induce_hemi, ws, P,
                           rng.choice(variants))
            sub = tr.call("hemi.dual_sub", dual_sub, full, hemi)
            convex, _witness = tr.call("hemi.is_convex", is_convex, full, sub)
            expect(convex, f"dual_sub of P={sorted(P)} is not convex")
        doc = tr.call("complex.export_dict", full.export_dict)
        text = tr.call("io.dumps", io.dumps, doc)
        expect(io.loads(text) == doc, "export does not round-trip")
        expect(len(doc["vertices"]) == inst.counts[0]
               and len(doc["cubes"]) == inst.cells - inst.counts[0]
               - inst.counts[1], "export counts != oracle")
        tr.output(text)

    op.label = f"oracle-corpus[{index}]"
    return op


def setup(seed, workdir):
    """The pass for `seed`.  The first op of each of the eight cheapest
    bands runs once here, so first-call costs stay out of the
    measurement."""
    ops = [make_op(inst, seed, i)
           for i, inst in enumerate(draw_corpus(seed))]
    firsts = [sum(BANDS[b] for b in sorted(BANDS)[:k]) for k in range(8)]
    warm_up([ops[i] for i in firsts])
    return ops
