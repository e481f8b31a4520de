"""Command-line surface: `wallcube COMMAND ...`, on the standard library's
argparse.

Each command imports the library modules it runs in its own body, so a
cold process loads only those: `gen grid` never loads `groups` or
`separation`, and only `gen cayley` and `act` load `groups`.  (Importing
the package already loads `complex`, `hemi`, `metric` and `wallspace`.)

Exit codes: 0 ok, 1 domain failure (validation/check/diagnostic error),
2 I/O or parse error, or a usage error (argparse's message on stderr),
3 state-space cap exceeded.
"""

import argparse
import os
import sys

from . import io
from .complex import DEFAULT_VERTEX_CAP
from .errors import ParseError, StateSpaceCap, WallcubeError
from .wallspace import MAX_POINTS

EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_CAP = 3


def _read_doc(path):
    try:
        text = sys.stdin.read() if path == "-" else open(path).read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    doc = io.loads(text)
    if isinstance(doc, dict) and "payload" in doc:
        doc = doc["payload"]
    return doc, io.input_digest(text)


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _emit(payload, seed=None, caps=None, digest=None):
    sys.stdout.write(io.dumps(io.artifact(payload, seed=seed, caps=caps,
                                          digest=digest)))


def _fail(exc, name, code):
    sys.stderr.write(io.dumps({"error": name, "detail": str(exc)}))
    sys.exit(code)


def cmd_validate(args):
    from .wallspace import validate

    doc, digest = _read_doc(args.file)
    rep = validate(io.wallspace_from_dict(doc))
    _emit(rep.to_dict(), digest=digest)
    if not rep.ok:
        sys.exit(EXIT_DOMAIN)


def cmd_gen(args):
    if args.name == "cayley":
        from . import groups

        if len(args.params) != 2:
            raise ParseError("gen cayley takes GROUP RADIUS, e.g. Z2 5")
        spec = _group_spec(args.params[0])
        radius = io.integer(args.params[1], "RADIUS:", 0)
        ball = groups.cayley_ball(spec, radius)
        ws, _meta = groups.generate_hwall_system(ball, _default_hwalls(spec))
    else:
        from . import generators

        ws = generators.generate(args.name, *args.params)
    # the limits this command checks
    caps = {"points": MAX_POINTS, "names": io.MAX_NAMES}
    if args.name == "cayley":
        caps["products"] = groups.MAX_PRODUCTS
    _emit(io.wallspace_to_dict(ws), seed=args.seed, caps=caps)


def _group_spec(text):
    from . import groups

    families = {"Z": (groups.FreeAbelian, "1", "GROUP Zd:"),
                "F": (groups.Free, "2", "GROUP Fr:")}
    if text[:1] not in families:
        raise ParseError(f"unknown group {text}; use Zd or Fr")
    make, size, what = families[text[0]]
    n = io.integer(text[1:] or size, what)
    try:
        return make(n)
    except WallcubeError as exc:
        raise ParseError(f"GROUP {text}: {exc}") from None


def _default_hwalls(spec):
    from . import groups

    if spec.kind == "FreeAbelian":
        return [groups.HWallSpec(
            groups.CoordinateSubgroup(
                spec, set(range(spec.d)) - {axis}),
            "coordinate", axis=axis, index=axis)
            for axis in range(spec.d)]
    if spec.kind == "Free":
        return [groups.HWallSpec(
            groups.CyclicSubgroup(spec, "a"), "branch", axis="a", index=0)]
    raise ParseError("no default H-walls for this group")


def cmd_build(args):
    from .complex import build_dual

    doc, digest = _read_doc(args.file)
    ws = io.wallspace_from_dict(doc)
    bp = args.basepoint if args.basepoint is not None else ws.points[0]
    if bp not in ws.point_index:
        raise ParseError(f"--basepoint: {bp!r} is not a point of the "
                         "wallspace")
    cc = build_dual(ws, bp, vertex_cap=args.cap_vertices)
    if args.export:
        _write(args.export, io.dumps(cc.export_dict()))
    if args.dot:
        _write(args.dot, io.skeleton_dot(cc))
    _emit(io.complex_summary(cc), digest=digest,
          caps={"vertices": args.cap_vertices})


ALL_CHECKS = ("npc", "connected", "simply-connected", "maximal-bijection",
              "convexity")
# vertices from which `verify --checks convexity` tests the distance law
DISTANCE_LAW_SOURCES = 5


def cmd_verify(args):
    import random

    from .complex import build_dual

    doc, digest = _read_doc(args.file)
    ws = io.wallspace_from_dict(doc)
    cc = build_dual(ws, ws.points[0], vertex_cap=args.cap_vertices)
    rng = random.Random(args.seed)
    results = {}
    for check in args.checks:
        results[check] = _check(check, ws, cc, rng)
    ok = all(r.get("ok") for r in results.values())
    _emit({"ok": ok, "checks": results}, seed=args.seed,
          caps={"vertices": args.cap_vertices}, digest=digest)
    if not ok:
        sys.exit(EXIT_DOMAIN)


def _check(check, ws, cc, rng):
    from .complex import contract_loop, maximal_cubes, verify_npc
    from .hemi import InducedVariant, dual_sub, induce_hemi, is_convex
    from .wallspace import max_transverse_families

    if check == "npc":
        return verify_npc(cc).to_dict()
    if check == "connected":
        # every vertex is a valid orientation, so this checks that the
        # 1-skeleton's edges connect them
        reached = len(cc.bfs_distances(cc.vertices[:1]))
        return {"ok": reached == cc.nvertices(), "vertices": reached,
                "all_orientations": cc.nvertices()}
    if check == "simply-connected":
        loops = _sample_loops(cc, rng, count=25, max_len=12)
        for loop in loops:
            contract_loop(cc, loop)  # raises StuckLoop on failure
        return {"ok": True, "loops": len(loops)}
    if check == "maximal-bijection":
        # the families are nonempty: a lone 0-cube matches none
        fams, _k = max_transverse_families(ws)
        cubes = sorted(
            tuple(sorted(ws.walls[w].index for w in c.walls))
            for c in maximal_cubes(cc) if c.dim >= 1)
        return {"ok": cubes == sorted(fams), "families": len(fams)}
    # convexity: the hull test of is_convex holds on a dual_sub by
    # construction; what can fail is the median-graph law it rests on
    sources = rng.sample(cc.vertices,
                         min(DISTANCE_LAW_SOURCES, cc.nvertices()))
    broken = _distance_law_break(cc, sources)
    if broken:
        return {"ok": False, "instances": 0, "distance_law": broken}
    results = []
    for _ in range(5):
        k = rng.randint(1, len(ws.points))
        P = rng.sample(list(ws.points), k)
        hemi = induce_hemi(ws, P, InducedVariant("U0"))
        sub = dual_sub(cc, hemi)
        convex, _wit = is_convex(cc, sub)
        results.append(convex)
    return {"ok": all(results), "instances": len(results)}


def _distance_law_break(cc, sources):
    """The first pair (v in sources, u in cc.vertices) whose 1-skeleton
    distance is not popcount(u ^ v), by vertex ids, or None.  On a dual
    the library built, a median graph whose hyperplanes are the walls,
    there is none; an unreachable u has distance None."""
    for v in sources:
        dist = cc.bfs_distances([v])
        for u in cc.vertices:
            law = (u ^ v).bit_count()
            if dist.get(u) != law:
                return {"from": cc.vid[v], "to": cc.vid[u],
                        "distance": dist.get(u), "popcount": law}
    return None


def _sample_loops(cc, rng, count, max_len):
    loops = []
    verts = cc.vertices
    tries = 0
    while verts and len(loops) < count and tries < count * 40:
        tries += 1
        start = rng.choice(verts)
        path = [start]
        for _ in range(max_len - 1):
            nbrs = cc.adj[path[-1]]
            if not nbrs:
                break
            path.append(rng.choice(nbrs)[0])
            if path[-1] == start and len(path) > 2:
                loops.append(path)
                break
    return loops


def cmd_diagnose(args):
    from .complex import build_dual
    from .separation import (
        ball_ball_separation,
        bounded_packing_number,
        compact_wall_separation,
        linear_separation_fit,
        subspace_separation,
        wall_wall_separation,
    )

    doc, digest = _read_doc(args.file)
    ws = io.wallspace_from_dict(doc)
    p = io.loads(args.params)
    if not isinstance(p, dict):
        raise ParseError(f"--params: {args.params} is not a JSON object")

    def read(key, kind, default=None):
        # an absent or null field takes its default
        return io.field(p, key, f"--params.{key}", kind, default)

    def points(x):
        return isinstance(x, list) and all(
            isinstance(q, str) and q in ws.point_index for q in x)

    names = (lambda x: points(x) and x != [], "a nonempty list of point names")
    number = (lambda x: io.NUMBER[0](x) and x >= 0, "a non-negative number")
    # every field is read, whatever the property
    max_denominator = read("max_denominator", (
        lambda x: io.INT[0](x) and x >= 1, "a positive integer"), 64)
    # ε = inf admits every κ
    max_offset = read("max_offset", (
        lambda x: number[0](x) and x < float("inf"), number[1]), 0.0)
    r, D = read("r", io.NATURAL, 0), read("D", number, 1)
    K, Y = read("K", names), read("Y", names)
    subsets = read("subsets", (
        lambda x: isinstance(x, list) and all(map(points, x)),
        "a list of lists of point names"))
    prop = args.property
    if prop == "linear-separation":
        rep = linear_separation_fit(
            ws, max_denominator=max_denominator,
            max_offset=max_offset).to_dict()
    elif prop == "ball-ball":
        rep = ball_ball_separation(ws, r).to_dict()
    elif prop == "compact-wall":
        rep = compact_wall_separation(ws, K or [ws.points[0]]).to_dict()
    elif prop == "wall-wall":
        rep = wall_wall_separation(ws).to_dict()
    elif prop in ("ball-wallnbd", "wallnbd-wallnbd"):
        kind = "BallWallNbd" if prop == "ball-wallnbd" else "WallNbdWallNbd"
        rep = subspace_separation(ws, Y or list(ws.points), kind,
                                  r).to_dict()
    elif prop == "packing":
        if subsets is None:
            subsets = [ws.names_of(w.carrier()) for w in ws.walls
                       if w.carrier()]
        rep = bounded_packing_number(ws, subsets, D).to_dict()
    else:  # degree-profile
        cc = build_dual(ws, ws.points[0])
        rep = {"max_degree": cc.max_degree(),
               "dimension": cc.dimension()}
    _emit(rep, digest=digest)


def cmd_act(args):
    from . import groups
    from .complex import build_dual
    from .hemi import InducedVariant

    doc, digest = _read_doc(args.file)
    # the whole spec is read before any computation, so a malformed
    # one exits 2 naming the field
    spec = groups.group_from_dict(io.field(doc, "group", "group"))
    radius = io.field(doc, "radius", "radius", io.NATURAL)
    hws = [_hwall_from_dict(spec, h, i) for i, h in
           enumerate(io.field(doc, "hwalls", "hwalls", io.LIST, []))]
    subs = [_subgroup_from_dict(spec, pd, f"peripheries[{k}]") for k, pd in
            enumerate(io.field(doc, "peripheries", "peripheries", io.LIST,
                               []))]
    v = io.field(doc, "variant", "variant", io.OBJECT, {})
    kind = io.field(v, "kind", "variant.kind",
                    (lambda x: isinstance(x, str), "a string"), "U0")
    r = io.field(v, "r", "variant.r", io.INT, 0)
    tau = io.field(v, "tau", "variant.tau", io.INT, 1)
    try:
        variant = InducedVariant(kind, r=r, tau=tau)
    except WallcubeError as exc:
        raise ParseError(f"variant.{exc}") from None
    m = io.field(doc, "m", "m", io.NATURAL, None)
    ball = groups.cayley_ball(spec, radius)
    ws, meta = groups.generate_hwall_system(ball, hws)
    payload = {
        "wallspace": io.wallspace_to_dict(ws),
        "hwall_reports": meta.reports,
    }
    if subs:
        cc = build_dual(ws, ws.points[0])
        peripheries = [ball.mask_of(sub.contains) for sub in subs]
        rep = groups.rel_cocompact_check(ws, cc, peripheries, variant, m=m)
        payload["decomposition"] = rep.to_dict()
    _emit(payload, digest=digest)


def _subgroup_from_dict(spec, d, path):
    from . import groups

    # a coordinate subgroup is one of ℤᵈ only
    kinds = ("coordinate", "cyclic", "factor")[spec.kind != "FreeAbelian":]
    kind = io.field(d, "kind", f"{path}.kind", io.one_of(*kinds))
    if kind == "coordinate":
        axis, axes = _axis(spec.d, "axes")
        return groups.CoordinateSubgroup(spec, io.field(
            d, "coords", f"{path}.coords", (
                lambda x: isinstance(x, list) and all(map(axis, x)),
                "a list of " + axes)))
    if kind == "cyclic":
        word = io.field(d, "word", f"{path}.word")
        try:
            return groups.CyclicSubgroup(spec, word)
        except WallcubeError as exc:
            raise ParseError(f"{path}.word: {exc}") from None
    return groups.FreeFactorSubgroup(spec, io.field(
        d, "factor", f"{path}.factor",
        _axis(len(getattr(spec, "factors", ())), "a factor position")))


def _hwall_from_dict(spec, d, i):
    from . import groups

    path = f"hwalls[{i}]"
    sub = _subgroup_from_dict(
        spec, io.field(d, "subgroup", f"{path}.subgroup"), f"{path}.subgroup")
    rule = io.field(d, "rule", f"{path}.rule",
                    io.one_of("branch", "coordinate"))
    # the branch rule strips powers of a free generator, the coordinate
    # rule reads one coordinate of a free abelian element
    letters = list(getattr(spec, "letters", ""))
    axis = io.field(d, "axis", f"{path}.axis", (
        lambda x: x in letters, f"one of the generator letters {letters}")
        if rule == "branch" else _axis(getattr(spec, "d", 0), "an axis"))
    return groups.HWallSpec(sub, rule, axis=axis, index=i)


def _axis(count, what):
    """The kind of an integer (not a bool) in range(count), `what`."""
    return (lambda k: io.INT[0](k) and 0 <= k < count,
            f"{what} in range({count})")


def cmd_sweep(args):
    from . import generators
    from .complex import build_dual

    degree = args.property == "degree-profile"
    header = (["n", "vertices", "max_degree", "dimension"] if degree
              else ["n", "verdict", "f"])
    rows = []
    for n in [io.integer(x, "--ns:") for x in args.ns.split(",")]:
        ws = generators.generate(args.generator, n)
        if degree:
            cc = build_dual(ws, ws.points[0])
            rows.append((n, cc.nvertices(), cc.max_degree(),
                         cc.dimension()))
        else:  # compact-wall
            from .separation import compact_wall_separation

            mid = ws.points[len(ws.points) // 2]
            rep = compact_wall_separation(ws, [mid])
            rows.append((n, rep.verdict, rep.value))
    sys.stdout.write(io.sweep_csv(rows, header))


def _parser():
    parser = argparse.ArgumentParser(
        prog="wallcube", allow_abbrev=False,
        description="Finite wallspaces and their dual cube complexes.")
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND")

    def command(name, run, doc):
        sub = commands.add_parser(name, help=doc, description=doc,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    # option values are checked here: a bad one is a usage error
    def int_option(sub, flag, default, low=None):
        def kind(text):
            try:
                return io.integer(text, "value", low)
            except ParseError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        sub.add_argument(flag, type=kind, default=default,
                         help="(default: %(default)s)")

    def checks(text):
        names = text.split(",")
        unknown = sorted(set(names) - set(ALL_CHECKS))
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown checks {unknown}")
        return names

    sub = command("validate", cmd_validate,
                  "Check the wallspace axioms; exit 0 iff they hold.")
    sub.add_argument("file")

    sub = command("gen", cmd_gen,
                  "Emit a generator's wallspace (fig3, grid N, rbad N, "
                  "nonHausdorff3, geomPath N, cayley GROUP RADIUS).")
    sub.add_argument("name")
    sub.add_argument("params", nargs="*")
    int_option(sub, "--seed", 0)

    sub = command("build", cmd_build, "Build the dual cube complex.")
    sub.add_argument("file")
    sub.add_argument("--basepoint")
    sub.add_argument("--export")
    sub.add_argument("--dot")
    int_option(sub, "--cap-vertices", DEFAULT_VERTEX_CAP, 0)

    sub = command("verify", cmd_verify,
                  "Check the dual cube complex of a wallspace.")
    sub.add_argument("file")
    sub.add_argument("--checks", type=checks, default=",".join(ALL_CHECKS),
                     help="(default: %(default)s)")
    int_option(sub, "--seed", 0)
    int_option(sub, "--cap-vertices", DEFAULT_VERTEX_CAP, 0)

    sub = command("diagnose", cmd_diagnose,
                  "Run one separation diagnostic.")
    sub.add_argument("file")
    sub.add_argument("--property", required=True, choices=(
        "linear-separation", "ball-ball", "compact-wall", "wall-wall",
        "ball-wallnbd", "wallnbd-wallnbd", "packing", "degree-profile"))
    sub.add_argument("--params", default="{}",
                     help="JSON object (default: %(default)s)")

    sub = command("act", cmd_act,
                  "Group-actions pipeline: spec file -> wallspace + "
                  "reports.")
    sub.add_argument("file")

    sub = command("sweep", cmd_sweep,
                  "Family runs -> CSV (scale, measured values).")
    sub.add_argument("--generator", required=True)
    sub.add_argument("--ns", required=True, help="comma-separated sizes")
    sub.add_argument("--property", default="degree-profile",
                     choices=("degree-profile", "compact-wall"),
                     help="(default: %(default)s)")
    return parser


def main(argv=None):
    """Run one command; argv defaults to sys.argv[1:]."""
    args = _parser().parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()
    except StateSpaceCap as exc:
        _fail(exc, "StateSpaceCap", EXIT_CAP)
    except ParseError as exc:
        _fail(exc, "ParseError", EXIT_IO)
    except WallcubeError as exc:
        _fail(exc, type(exc).__name__, EXIT_DOMAIN)
    except BrokenPipeError:
        # the reader closed the pipe (`wallcube gen grid 7 | head -c 1`):
        # exit 1 without a traceback, with nothing left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_DOMAIN)


if __name__ == "__main__":
    main()
