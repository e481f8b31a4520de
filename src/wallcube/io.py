"""JSON / DOT / CSV formats.

JSON is the single source format; DOT and CSV are export-only.  Serialized
documents use canonically ordered fields and sorted collections so that
round-trips are bit-exact and re-runs are stable.  Every CLI artifact embeds
tool version, seed, caps, and a digest of its input.

`dumps` writes the bytes of `json.dumps(obj, sort_keys=True, indent=2)`
plus a newline: keys sorted, two-space indentation, ASCII-escaped strings,
NaN and Infinity written as json writes them.  The standard library runs
its pure-Python encoder whenever `indent` is set, so `dumps` has its own
writer that leaves the per-element work to C: exact ints go through
`int.__repr__`, strings through json's C string escaper, other scalars
through json's C encoder, and a list of records of one shape (dicts with
one set of str keys, or lists of one length) is rendered by columns through
one `str.format` template.  The one departure from json: a cyclic value
raises RecursionError, not ValueError.
"""

import json
import re
from functools import partial, reduce
from itertools import chain
from operator import itemgetter, or_

from .errors import ParseError, StateSpaceCap, WallcubeError
from .metric import Metric
from .wallspace import Wall, Wallspace

VERSION = "0.1.0"
# point names a wallspace document may list in its walls' sides
MAX_NAMES = 1 << 22


def wallspace_to_dict(ws):
    """The wallspace as a document; StateSpaceCap, before any list is
    built, when its walls' sides list more than MAX_NAMES point names."""
    names = sum(w.left.bit_count() + w.right.bit_count() for w in ws.walls)
    if names > MAX_NAMES:
        raise StateSpaceCap(f"wallspace document lists {names} point names "
                            f"in its walls' sides, exceeds cap {MAX_NAMES}")
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


# kinds of field value for `field`: (test, what a value passing it is)
ANY = (lambda x: True, "anything")
INT = (lambda x: type(x) is int, "an integer")
NATURAL = (lambda x: INT[0](x) and x >= 0, "a non-negative integer")
NUMBER = (lambda x: type(x) in (int, float), "a number")
# NaN compares false, so it is no non-negative number
NONNEGATIVE = (lambda x: NUMBER[0](x) and x >= 0, "a non-negative number")
LIST = (lambda x: isinstance(x, list), "a list")
OBJECT = (lambda x: isinstance(x, dict), "an object")


def one_of(*names):
    """The kind of a field holding one of these names."""
    *rest, last = map(repr, names)
    return (lambda x: x in names, ", ".join(rest) + " or " + last)


_REQUIRED = object()


def field(doc, key, path, kind=ANY, default=_REQUIRED):
    """doc[key], a value of the given kind; with a default, a field that
    is absent or null takes the default.  Otherwise a ParseError naming the
    field by its `path` in the document: `missing field PATH` when doc is
    no object or has no such key, `PATH: VALUE is not WHAT` when the value
    fails the kind's test."""
    if not isinstance(doc, dict) or key not in doc and default is _REQUIRED:
        raise ParseError(f"missing field {path}")
    x = doc.get(key)
    if x is None and default is not _REQUIRED:
        return default
    if not kind[0](x):
        raise ParseError(f"{path}: {x!r} is not {kind[1]}")
    return x


def integer(text, what, low=None):
    """The integer `text` (or int), at least any given `low`; a ParseError
    `WHAT 'x' is not an integer` or `WHAT n is not >= low` otherwise, WHAT
    naming the value, as in `RADIUS:` or `grid: size`.  A text is an
    optional sign and ASCII digits (`int` also reads `1_0`, ` 2` or `٣`)."""
    if isinstance(text, str) and not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ParseError(f"{what} {text!r} is not an integer")
    n = int(text)
    if low is not None and n < low:
        raise ParseError(f"{what} {n} is not >= {low}")
    return n


def wallspace_from_dict(doc):
    try:
        points = field(doc, "points", "points", LIST)
        if not points:
            raise ParseError("points: [] is not a nonempty list")
        bit = {}
        for k, p in enumerate(points):
            if not isinstance(p, str) or p in bit:
                raise ParseError(f"points[{k}]: {p!r} is not a new name")
            bit[p] = 1 << k

        def index(path, p):
            if not isinstance(p, str) or p not in bit:
                raise ParseError(f"{path}: unknown point {p!r}")
            return bit[p].bit_length() - 1

        def mask(path, names):
            """The mask of a list of point names, by one lookup each in C;
            on a name that is no point (unknown, not a string, unhashable)
            the scan for the first such raises `index`'s ParseError."""
            try:
                return reduce(or_, map(bit.__getitem__, names), 0)
            except (KeyError, TypeError):
                for p in names:
                    index(path, p)
                raise

        walls = []
        seen = set()
        for k, w in enumerate(field(doc, "walls", "walls", LIST)):
            sides = []
            for side in ("left", "right"):
                path = f"walls[{k}].{side}"
                sides.append(mask(path, field(w, side, path, LIST)))
            i = field(w, "index", f"walls[{k}].index", INT)
            if i in seen:
                raise ParseError(f"walls[{k}].index: {i} is not a new index")
            seen.add(i)
            walls.append(Wall(i, *sides))
        metric = None
        md = field(doc, "metric", "metric", OBJECT, {})
        if "edges" in md:
            edges = []
            for k, e in enumerate(field(md, "edges", "metric.edges", LIST)):
                path = f"metric.edges[{k}]"
                if not isinstance(e, list) or len(e) != 3:
                    raise ParseError(f"{path}: {e!r} is not a list of two "
                                     f"point names and a number")
                a, b, w = e
                if not NONNEGATIVE[0](w):
                    raise ParseError(
                        f"{path}: weight {w!r} is not {NONNEGATIVE[1]}")
                edges.append((index(path, a), index(path, b), w))
            metric = Metric.from_edges(len(points), edges)
        elif md:
            table = field(md, "table", "metric.table", (
                lambda x: LIST[0](x) and len(x) == len(points),
                f"a list of {len(points)} rows"))
            for i, row in enumerate(table):
                if not isinstance(row, list) or len(row) != len(table):
                    raise ParseError(f"metric.table[{i}] is not a row "
                                     f"of {len(table)} entries")
                for j, x in enumerate(row):
                    if not NONNEGATIVE[0](x):
                        raise ParseError(f"metric.table[{i}][{j}]: {x!r} "
                                         f"is not {NONNEGATIVE[1]}")
            try:
                metric = Metric(table)
            except WallcubeError as exc:  # zero diagonal, symmetry
                raise ParseError(f"metric.table: {exc}") from None
    except OverflowError as exc:
        # an int past float's range, in Metric or Metric.from_edges
        raise ParseError(f"bad wallspace document: {exc}") from exc
    return Wallspace(points, walls, metric=metric)


_escape = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode    # compact, hence json's C encoder
_LEAF = {int: int.__repr__, str: _escape}


def dumps(obj):
    """The text of `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`,
    byte for byte: keys sorted, non-ASCII characters escaped, NaN and
    ±Infinity written as json writes them.  Raises TypeError where json
    does (a value or key json cannot encode, keys that do not sort); a
    cyclic value raises RecursionError, not json's ValueError."""
    return _value(obj, "\n") + "\n"


def _value(o, ind):
    # `ind` is the newline and indentation of o's own closing bracket
    leaf = _LEAF.get(type(o))
    if leaf is not None:
        return leaf(o)
    if isinstance(o, dict):
        return _object(o, ind)
    if isinstance(o, (list, tuple)):
        return _array(o, ind)
    if isinstance(o, (str, int, float)) or o is None:
        return _scalar(o)
    raise TypeError(f"Object of type {type(o).__name__} "
                    f"is not JSON serializable")


def _key(k):
    if isinstance(k, str):
        return _escape(k)
    if isinstance(k, (int, float)) or k is None:
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def _object(d, ind):
    if not d:
        return "{}"
    inner = ind + "  "
    return ("{" + inner + ("," + inner).join(
        [_key(k) + ": " + _value(v, inner) for k, v in sorted(d.items())])
        + ind + "}")


def _array(a, ind):
    if not a:
        return "[]"
    inner = ind + "  "
    types = set(map(type, a))
    body = None
    if len(types) == 1:
        t = types.pop()
        if t in _LEAF:
            body = ("," + inner).join(map(_LEAF[t], a))
        elif t is dict or t is list:
            body = _records(a, inner)
    if body is None:
        body = ("," + inner).join([_value(v, inner) for v in a])
    return "[" + inner + body + ind + "]"


def _records(rows, ind):
    """Records of one shape -- exact dicts with one set of str keys, or
    exact lists of one length -- rendered column by column into one
    template; None for any other list of dicts or lists."""
    first = rows[0]
    n = len(first)
    if not n or set(map(len, rows)) != {n}:
        return None
    if type(first) is list:
        keys, names, opening, closing = range(n), [""] * n, "[", "]"
    elif set(map(type, first)) == {str}:
        keys = sorted(first)
        names = [_escape(k).replace("{", "{{").replace("}", "}}") + ": "
                 for k in keys]
        opening, closing = "{{", "}}"
    else:
        return None
    try:
        cols = [list(map(itemgetter(k), rows)) for k in keys]
    except KeyError:
        return None
    inner = ind + "  "
    deeper = inner + "  "
    fields, cells = [], []
    for name, col in zip(names, cols):
        types = set(map(type, col))
        nested = types == {list} and all(col)
        if nested:
            types = set(map(type, chain.from_iterable(col)))
        leaf = _LEAF.get(types.pop()) if len(types) == 1 else None
        if leaf is None:
            fields.append(name + "{}")
            cells.append([_value(v, inner) for v in col])
        elif nested:
            # nonempty lists of one leaf type: the brackets go in the
            # template, each list is one join
            fields.append(name + "[" + deeper + "{}" + inner + "]")
            cells.append(map(("," + deeper).join,
                             map(partial(map, leaf), col)))
        else:
            fields.append(name + "{}")
            cells.append(map(leaf, col))
    template = opening + inner + ("," + inner).join(fields) + ind + closing
    return ("," + ind).join(map(template.format, *cells))


def loads(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an int past int()'s digit limit, or too deep nesting
        raise ParseError(str(exc)) from exc


def input_digest(text):
    import hashlib

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
    counts = cc.cube_counts()
    return {
        "vertices": cc.nvertices(),
        "edges": counts[1],
        "cubes_by_dim": counts,
        "dimension": cc.dimension(),
        "max_degree": cc.max_degree(),
    }


def skeleton_dot(cc):
    """1-skeleton as DOT, wall-index edge labels, sorted for stability."""
    lines = ["graph skeleton {"]
    for i, _m in enumerate(cc.vertices):
        lines.append(f"  v{i};")
    for u, v, w in cc.edges:
        lines.append(
            f"  v{cc.vid[u]} -- v{cc.vid[v]} "
            f"[label=\"{cc.ws.walls[w].index}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows, header):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(x) for x in row))
    return "\n".join(out) + "\n"
