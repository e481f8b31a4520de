"""Deterministic example wallspaces.

fig3          the six-point, five-wall example with one 3-cube
grid(n)       (n+1) x (n+1) lattice with the 2n coordinate line walls, L1 metric
rbad(n)       finite line analogue: interval walls every n steps along
              {0..n^2} plus a singleton wall at every point
nonHausdorff3 X = {x,y,z} with the single wall ({x,z},{y,z})
geomPath(n)   geometric wallspace of the path graph 0-1-...-n
cayley(G, r)  the default H-wall system of the radius-r Cayley ball of
              G = Zd or Fr, see the groups module
"""

from .errors import ParseError, StateSpaceCap, UnknownGenerator, WallcubeError
from .io import integer
from .metric import Metric
from .wallspace import MAX_POINTS, Wall, Wallspace


def _check_size(name, n, npts):
    if npts > MAX_POINTS:
        raise StateSpaceCap(f"{name} {n} has {npts} points, exceeds cap "
                            f"{MAX_POINTS}")


def fig3():
    """Six points a..f; walls 3 and 5 are duplicates, wall 4 is the only
    genuine partition; the dual complex has a single 3-cube."""
    points = ["a", "b", "c", "d", "e", "f"]

    def m(names):
        return sum(1 << points.index(p) for p in names)

    walls = [
        Wall(1, m("abf"), m("bcde")),
        Wall(2, m("ab"), m("acdef")),
        Wall(3, m("abcef"), m("de")),
        Wall(4, m("abce"), m("df")),
        Wall(5, m("abcef"), m("de")),
    ]
    return Wallspace(points, walls)


def grid(n):
    """(n+1)^2 lattice points "i,j"; vertical wall k: {i < k} | {i >= k},
    horizontal wall k likewise; all walls genuine partitions; L1 metric."""
    _check_size("grid", n, (n + 1) ** 2)
    coords = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    points = [f"{i},{j}" for i, j in coords]

    def mask(pred):
        return sum(1 << t for t, (i, j) in enumerate(coords) if pred(i, j))

    walls = []
    idx = 0
    for k in range(1, n + 1):
        walls.append(Wall(idx, mask(lambda i, j, k=k: i < k),
                          mask(lambda i, j, k=k: i >= k)))
        idx += 1
    for k in range(1, n + 1):
        walls.append(Wall(idx, mask(lambda i, j, k=k: j < k),
                          mask(lambda i, j, k=k: j >= k)))
        idx += 1
    npts = len(points)
    # each point's neighbours (i, j+1) and (i+1, j), at t + 1 and t + n + 1
    edges = []
    for t, (i, j) in enumerate(coords):
        if j < n:
            edges.append((t, t + 1, 1))
        if i < n:
            edges.append((t, t + n + 1, 1))
    return Wallspace(points, walls, metric=Metric.from_edges(npts, edges))


def rbad(n):
    """Finite sample of the line-with-singleton-walls example.

    Points 0..n^2 on a line; overlapping interval walls {<= k} | {>= k} at
    every multiple k of n; a singleton wall {r} | X - {r} at every point.
    The dual is a path of edges-with-squares plus pendant edges whose count
    per line vertex grows linearly with n, while compact-wall separation
    stays finite.
    """
    npts = n * n + 1
    _check_size("rbad", n, npts)
    full = (1 << npts) - 1
    return _line(npts, range(0, npts, n),
                 [(1 << r, full & ~(1 << r)) for r in range(npts)])


def _line(npts, cuts, sides=()):
    """Points 0..npts-1 on a unit-weight path; walls indexed in order: an
    interval wall ({0..k}, {k..}) at each cut k, then the pairs `sides`."""
    full = (1 << npts) - 1
    sides = [((2 << k) - 1, full & ~((1 << k) - 1)) for k in cuts] \
        + list(sides)
    edges = [(i, i + 1, 1) for i in range(npts - 1)]
    return Wallspace([str(i) for i in range(npts)],
                     [Wall(i, *pair) for i, pair in enumerate(sides)],
                     metric=Metric.from_edges(npts, edges))


def non_hausdorff3():
    """The 3-point example with #(x,y)=1 but #(x,z)=#(y,z)=0; metric from
    the path x - z - y."""
    points = ["x", "y", "z"]
    walls = [Wall(0, 0b101, 0b110)]  # ({x,z},{y,z})
    metric = Metric.from_edges(3, [(0, 2, 1), (1, 2, 1)])
    return Wallspace(points, walls, metric=metric)


def geom_path(n):
    """Geometric wallspace of the path 0-1-...-n: at each interior vertex k
    the wall k-1 = ({0..k}, {k..n}): the vertex k, joined to each of the
    two components that its removal leaves."""
    _check_size("geomPath", n, n + 1)
    return _line(n + 1, range(1, n))


def cayley(*args):
    """`cayley GROUP RADIUS`: the H-wall system of the Cayley ball of
    radius RADIUS, GROUP `Zd` with its d coordinate H-walls or `Fr` with
    the branch H-wall of its letter a.  Only this generator loads the
    groups module."""
    from . import groups

    if len(args) != 2:
        raise ParseError("gen cayley takes GROUP RADIUS, e.g. Z2 5")
    spec = _group_spec(args[0])
    ball = groups.cayley_ball(spec, integer(args[1], "RADIUS:", 0))
    return groups.generate_hwall_system(ball, _default_hwalls(spec))[0]


def _group_spec(text):
    from . import groups

    families = {"Z": (groups.FreeAbelian, "1", "GROUP Zd:"),
                "F": (groups.Free, "2", "GROUP Fr:")}
    if text[:1] not in families:
        raise ParseError(f"unknown group {text}; use Zd or Fr")
    make, size, what = families[text[0]]
    n = integer(text[1:] or size, what)
    try:
        return make(n)
    except WallcubeError as exc:
        raise ParseError(f"GROUP {text}: {exc}") from None


def _default_hwalls(spec):
    """The coordinate H-walls of Zd, or the branch H-wall of Fr at a."""
    from . import groups

    if spec.kind == "FreeAbelian":
        return [groups.HWallSpec(
            groups.CoordinateSubgroup(spec, set(range(spec.d)) - {axis}),
            "coordinate", axis=axis, index=axis) for axis in range(spec.d)]
    return [groups.HWallSpec(groups.CyclicSubgroup(spec, "a"), "branch",
                             axis="a", index=0)]


def generate(name, *args):
    """The named generator's wallspace; a sized one takes its size, an int
    or its text, as its one argument, and `cayley` GROUP RADIUS.  A
    missing or extra argument is a ParseError, and an unknown name an
    UnknownGenerator (a ParseError) that lists the known ones."""
    # each generator with its least size, None for one that takes none
    known = {"fig3": (fig3, None), "nonHausdorff3": (non_hausdorff3, None),
             "grid": (grid, 0), "rbad": (rbad, 1), "geomPath": (geom_path, 0)}
    if name == "cayley":
        return cayley(*args)
    if name not in known:
        raise UnknownGenerator(f"unknown generator {name!r}; use one of "
                               f"{', '.join(known)}, cayley")
    make, low = known[name]
    if low is None:
        if args:
            raise ParseError(f"{name} takes no argument, got {args[0]!r}")
        return make()
    if not args:
        raise ParseError(f"{name} needs a size N")
    if len(args) > 1:
        raise ParseError(f"{name} takes one size N, got also {args[1]!r}")
    return make(integer(args[0], f"{name}: size", low))
