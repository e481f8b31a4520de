"""Command-line surface.

Exit codes: 0 ok, 1 domain failure (validation/check/diagnostic error),
2 I/O or parse error, 3 state-space cap exceeded.
"""

import random
import sys

import click

from . import generators, groups, io
from .complex import (
    build_dual,
    contract_loop,
    enumerate_all_orientations,
    maximal_cubes,
    verify_npc,
)
from .errors import ParseError, StateSpaceCap, WallcubeError
from .hemi import InducedVariant, dual_sub, induce_hemi, is_convex
from .separation import (
    ball_ball_separation,
    bounded_packing_number,
    compact_wall_separation,
    linear_separation_fit,
    subspace_separation,
    wall_wall_separation,
)
from .wallspace import max_transverse_families, validate

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


def _emit(payload, seed=None, caps=None, digest=None):
    click.echo(io.dumps(io.artifact(payload, seed=seed, caps=caps,
                                    digest=digest)), nl=False)


def _run(fn):
    try:
        return fn()
    except StateSpaceCap as exc:
        click.echo(io.dumps({"error": "StateSpaceCap", "detail": str(exc)}),
                   nl=False, err=True)
        sys.exit(EXIT_CAP)
    except ParseError as exc:
        click.echo(io.dumps({"error": "ParseError", "detail": str(exc)}),
                   nl=False, err=True)
        sys.exit(EXIT_IO)
    except WallcubeError as exc:
        click.echo(io.dumps({"error": type(exc).__name__,
                             "detail": str(exc)}), nl=False, err=True)
        sys.exit(EXIT_DOMAIN)


@click.group()
def main():
    """Finite wallspaces and their dual cube complexes."""


@main.command("validate")
@click.argument("file")
def cli_validate(file):
    def go():
        doc, digest = _read_doc(file)
        ws = io.wallspace_from_dict(doc)
        rep = validate(ws)
        _emit(rep.to_dict(), digest=digest)
        if not rep.ok:
            sys.exit(EXIT_DOMAIN)
    _run(go)


@main.command("gen")
@click.argument("name")
@click.argument("params", nargs=-1)
@click.option("--seed", default=0, show_default=True)
def cli_gen(name, params, seed):
    """Emit a generator's wallspace (fig3, grid N, rbad N, nonHausdorff3,
    geomPath N, cayley GROUP RADIUS)."""
    def go():
        if name == "cayley":
            spec = _group_spec(params[0])
            ball = groups.cayley_ball(spec, int(params[1]))
            hws = _default_hwalls(spec)
            ws, _meta = groups.generate_hwall_system(ball, hws)
        else:
            ws = generators.generate(name, *params)
        _emit(io.wallspace_to_dict(ws), seed=seed,
              caps={"points": ws.max_points, "walls": ws.max_walls})
    _run(go)


def _group_spec(text):
    if text.startswith("Z"):
        return groups.FreeAbelian(int(text[1:] or 1))
    if text.startswith("F"):
        return groups.Free(int(text[1:] or 2))
    raise ParseError(f"unknown group {text}; use Zd or Fr")


def _default_hwalls(spec):
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


@main.command("build")
@click.argument("file")
@click.option("--basepoint", default=None)
@click.option("--export", "export_path", default=None)
@click.option("--dot", "dot_path", default=None)
@click.option("--cap-vertices", default=1 << 20, show_default=True)
def cli_build(file, basepoint, export_path, dot_path, cap_vertices):
    def go():
        doc, digest = _read_doc(file)
        ws = io.wallspace_from_dict(doc)
        bp = basepoint if basepoint is not None else ws.points[0]
        cc = build_dual(ws, bp, vertex_cap=cap_vertices)
        if export_path:
            open(export_path, "w").write(io.dumps(cc.export_dict()))
        if dot_path:
            open(dot_path, "w").write(io.skeleton_dot(cc))
        _emit(io.complex_summary(cc), digest=digest,
              caps={"vertices": cap_vertices})
    _run(go)


ALL_CHECKS = ("npc", "connected", "simply-connected", "maximal-bijection",
              "convexity")


@main.command("verify")
@click.argument("file")
@click.option("--checks", default=",".join(ALL_CHECKS), show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--cap-vertices", default=1 << 20, show_default=True)
def cli_verify(file, checks, seed, cap_vertices):
    def go():
        doc, digest = _read_doc(file)
        ws = io.wallspace_from_dict(doc)
        cc = build_dual(ws, ws.points[0], vertex_cap=cap_vertices)
        rng = random.Random(seed)
        results = {}
        for check in checks.split(","):
            results[check] = _check(check, ws, cc, rng, cap_vertices)
        ok = all(r.get("ok") for r in results.values())
        _emit({"ok": ok, "checks": results}, seed=seed,
              caps={"vertices": cap_vertices}, digest=digest)
        if not ok:
            sys.exit(EXIT_DOMAIN)
    _run(go)


def _check(check, ws, cc, rng, cap):
    if check == "npc":
        return verify_npc(cc).to_dict()
    if check == "connected":
        full = enumerate_all_orientations(ws, vertex_cap=cap)
        ok = full.vertices == cc.vertices
        return {"ok": ok, "vertices": cc.nvertices(),
                "all_orientations": full.nvertices()}
    if check == "simply-connected":
        loops = _sample_loops(cc, rng, count=25, max_len=12)
        for loop in loops:
            contract_loop(cc, loop)  # raises StuckLoop on failure
        return {"ok": True, "loops": len(loops)}
    if check == "maximal-bijection":
        fams, _k = max_transverse_families(ws)
        cubes = sorted(
            tuple(sorted(ws.walls[w].index for w in c.walls))
            for c in maximal_cubes(cc))
        return {"ok": cubes == sorted(fams), "families": len(fams)}
    if check == "convexity":
        results = []
        for _ in range(5):
            k = rng.randint(1, len(ws.points))
            P = rng.sample(list(ws.points), k)
            hemi = induce_hemi(ws, P, InducedVariant("U0"))
            sub = dual_sub(cc, hemi)
            convex, _wit = is_convex(cc, sub)
            results.append(convex)
        return {"ok": all(results), "instances": len(results)}
    raise WallcubeError(f"unknown check {check}")


def _sample_loops(cc, rng, count, max_len):
    loops = []
    verts = cc.vertices
    tries = 0
    while len(loops) < count and tries < count * 40:
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


@main.command("diagnose")
@click.argument("file")
@click.option("--property", "prop", required=True)
@click.option("--params", default="{}")
def cli_diagnose(file, prop, params):
    def go():
        doc, digest = _read_doc(file)
        ws = io.wallspace_from_dict(doc)
        p = io.loads(params)
        if prop == "linear-separation":
            rep = linear_separation_fit(
                ws, max_denominator=p.get("max_denominator", 64),
                max_offset=p.get("max_offset", 0.0)).to_dict()
        elif prop == "ball-ball":
            rep = ball_ball_separation(ws, p.get("r", 0)).to_dict()
        elif prop == "compact-wall":
            K = p.get("K") or [ws.points[0]]
            rep = compact_wall_separation(ws, K).to_dict()
        elif prop == "wall-wall":
            rep = wall_wall_separation(ws).to_dict()
        elif prop in ("ball-wallnbd", "wallnbd-wallnbd"):
            kind = "BallWallNbd" if prop == "ball-wallnbd" else "WallNbdWallNbd"
            Y = p.get("Y") or list(ws.points)
            rep = subspace_separation(ws, Y, kind, p.get("r", 0)).to_dict()
        elif prop == "packing":
            subsets = p.get("subsets") or [
                ws.names_of(w.carrier()) for w in ws.walls if w.carrier()]
            rep = bounded_packing_number(ws, subsets, p.get("D", 1)).to_dict()
        elif prop == "degree-profile":
            cc = build_dual(ws, ws.points[0])
            rep = {"max_degree": cc.max_degree(),
                   "dimension": cc.dimension()}
        else:
            raise WallcubeError(f"unknown property {prop}")
        _emit(rep, digest=digest)
    _run(go)


@main.command("act")
@click.argument("file")
def cli_act(file):
    """Group-actions pipeline: spec file -> wallspace + reports."""
    def go():
        doc, digest = _read_doc(file)
        # the whole spec is read before any computation, so a malformed
        # one exits 2 naming the field
        spec = groups.group_from_dict(io.get_field(doc, "group", "group"))
        radius = io.int_field(doc, "radius", "radius")
        hws = [_hwall_from_dict(spec, h, i)
               for i, h in enumerate(doc.get("hwalls", []))]
        subs = [_subgroup_from_dict(spec, pd, f"peripheries[{k}]")
                for k, pd in enumerate(doc.get("peripheries") or [])]
        if subs:
            variant = _variant_from_dict(doc.get("variant", {}))
            m = _optional_int(doc, "m", "m", None)
        ball = groups.cayley_ball(spec, radius)
        ws, meta = groups.generate_hwall_system(ball, hws)
        payload = {
            "wallspace": io.wallspace_to_dict(ws),
            "hwall_reports": meta.reports,
            "dropped_vacuous": meta.dropped_vacuous,
            "dropped_duplicate_partitions": meta.dropped_duplicate_partitions,
        }
        if subs:
            cc = build_dual(ws, ws.points[0])
            peripheries = [[n for n, g in zip(ball.names, ball.elements)
                            if sub.contains(g)] for sub in subs]
            rep = groups.rel_cocompact_check(ws, cc, peripheries, variant,
                                             m=m)
            payload["decomposition"] = rep.to_dict()
        _emit(payload, digest=digest)
    _run(go)


def _optional_int(d, key, path, default):
    """d[key] as an integer, or `default` when it is absent or null."""
    return default if d.get(key) is None else io.int_field(d, key, path)


def _variant_from_dict(d):
    if not isinstance(d, dict):
        raise ParseError(f"variant: {d!r} is not an object")
    kind = d.get("kind", "U0")
    if not isinstance(kind, str):
        raise ParseError(f"variant.kind: {kind!r} is not a string")
    return InducedVariant(kind, r=_optional_int(d, "r", "variant.r", 0),
                          tau=_optional_int(d, "tau", "variant.tau", 1))


def _subgroup_from_dict(spec, d, path):
    kind = io.get_field(d, "kind", f"{path}.kind")
    if kind == "coordinate":
        return groups.CoordinateSubgroup(
            spec, io.get_field(d, "coords", f"{path}.coords"))
    if kind == "cyclic":
        return groups.CyclicSubgroup(
            spec, io.get_field(d, "word", f"{path}.word"))
    if kind == "factor":
        return groups.FreeFactorSubgroup(
            spec, io.get_field(d, "factor", f"{path}.factor"))
    raise ParseError(f"unknown subgroup kind {kind}")


def _hwall_from_dict(spec, d, i):
    path = f"hwalls[{i}]"
    sub = _subgroup_from_dict(
        spec, io.get_field(d, "subgroup", f"{path}.subgroup"),
        f"{path}.subgroup")
    return groups.HWallSpec(sub, io.get_field(d, "rule", f"{path}.rule"),
                            axis=d.get("axis"), index=i)


@main.command("sweep")
@click.option("--generator", "gen_name", required=True)
@click.option("--ns", required=True, help="comma-separated sizes")
@click.option("--property", "prop", default="degree-profile",
              show_default=True)
def cli_sweep(gen_name, ns, prop):
    """Family runs -> CSV (scale, measured values)."""
    def go():
        rows = []
        if prop == "degree-profile":
            header = ["n", "vertices", "max_degree", "dimension"]
        elif prop == "compact-wall":
            header = ["n", "verdict", "f"]
        else:
            raise WallcubeError(f"unknown sweep property {prop}")
        for n in (int(x) for x in ns.split(",")):
            ws = generators.generate(gen_name, n)
            if prop == "degree-profile":
                cc = build_dual(ws, ws.points[0])
                rows.append((n, cc.nvertices(), cc.max_degree(),
                             cc.dimension()))
            else:
                mid = ws.points[len(ws.points) // 2]
                rep = compact_wall_separation(ws, [mid])
                rows.append((n, rep.verdict, rep.value))
        click.echo(io.sweep_csv(rows, header), nl=False)
    _run(go)


if __name__ == "__main__":
    main()
