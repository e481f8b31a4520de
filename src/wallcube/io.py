"""JSON / DOT / CSV formats.

JSON is the single source format; DOT and CSV are export-only.  Serialized
documents use canonically ordered fields and sorted collections so that
round-trips are bit-exact and re-runs are stable.  Every CLI artifact embeds
tool version, seed, caps, and a digest of its input.
"""

import hashlib
import json

from .errors import ParseError
from .metric import Metric
from .wallspace import Wall, Wallspace

VERSION = "0.1.0"


def wallspace_to_dict(ws):
    doc = {
        "points": list(ws.points),
        "walls": [{"index": w.index,
                   "left": sorted(ws.names_of(w.left)),
                   "right": sorted(ws.names_of(w.right))}
                  for w in ws.walls],
    }
    if ws.metric is not None:
        if ws.metric.edges is not None:
            doc["metric"] = {"edges": sorted(
                [sorted([ws.points[i], ws.points[j]]) + [w]
                 for i, j, w in ws.metric.edges])}
        else:
            doc["metric"] = {"table": [list(row) for row in ws.metric.dist]}
    return doc


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def get_field(doc, key, path):
    """doc[key]; a ParseError naming the field by its `path` in the
    document when doc is no object or has no such key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {path}")
    return doc[key]


def int_field(doc, key, path):
    """get_field for a field that must hold an integer."""
    x = get_field(doc, key, path)
    if not isinstance(x, int) or isinstance(x, bool):
        raise ParseError(f"{path}: {x!r} is not an integer")
    return x


def wallspace_from_dict(doc, max_points=None, max_walls=None):
    try:
        points = list(get_field(doc, "points", "points"))
        pidx = {p: i for i, p in enumerate(points)}

        def index(field, p):
            if p not in pidx:
                raise ParseError(f"{field}: unknown point {p!r}")
            return pidx[p]

        walls = []
        for k, w in enumerate(get_field(doc, "walls", "walls")):
            sides = []
            for side in ("left", "right"):
                field = f"walls[{k}].{side}"
                sides.append(sum({1 << index(field, p)
                                  for p in get_field(w, side, field)}))
            walls.append(Wall(int(get_field(w, "index", f"walls[{k}].index")),
                              *sides))
        metric = None
        if "metric" in doc and doc["metric"]:
            md = doc["metric"]
            if "edges" in md:
                edges = []
                for k, (a, b, w) in enumerate(md["edges"]):
                    field = f"metric.edges[{k}]"
                    if not _is_number(w):
                        raise ParseError(f"{field}: weight {w!r} is not a number")
                    edges.append((index(field, a), index(field, b), w))
                metric = Metric.from_edges(len(points), edges)
            else:
                table = get_field(md, "table", "metric.table")
                for i, row in enumerate(table):
                    if not isinstance(row, list) or len(row) != len(table):
                        raise ParseError(f"metric.table[{i}] is not a row "
                                         f"of {len(table)} entries")
                    for j, x in enumerate(row):
                        if not _is_number(x):
                            raise ParseError(
                                f"metric.table[{i}][{j}]: {x!r} is not a number")
                metric = Metric(table)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad wallspace document: {exc}") from exc
    if max_points is None:
        max_points = max(64, len(points))
    if max_walls is None:
        max_walls = max(64, len(walls))
    return Wallspace(points, walls, metric=metric,
                     max_points=max_points, max_walls=max_walls)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc


def input_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def artifact(payload, seed=None, caps=None, digest=None):
    """Wrap a payload with run metadata."""
    return {
        "tool": "wallcube",
        "version": VERSION,
        "seed": seed,
        "caps": caps or {},
        "input_digest": digest,
        "payload": payload,
    }


def complex_summary(cc):
    return {
        "vertices": cc.nvertices(),
        "edges": cc.nedges(),
        "cubes_by_dim": cc.cube_counts(),
        "dimension": cc.dimension(),
        "max_degree": cc.max_degree(),
    }


def skeleton_dot(cc):
    """1-skeleton as DOT, wall-index edge labels, sorted for stability."""
    lines = ["graph skeleton {"]
    for i, _m in enumerate(cc.vertices):
        lines.append(f"  v{i};")
    for u, v, w in sorted(cc.edges):
        lines.append(
            f"  v{cc.vid[u]} -- v{cc.vid[v]} "
            f"[label=\"{cc.ws.walls[w].index}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transversality_dot(ws):
    from .wallspace import transverse
    lines = ["graph transversality {"]
    idxs = sorted(w.index for w in ws.walls)
    for i in idxs:
        lines.append(f"  w{i};")
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if transverse(ws, idxs[a], idxs[b]):
                lines.append(f"  w{idxs[a]} -- w{idxs[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows, header):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(x) for x in row))
    return "\n".join(out) + "\n"
