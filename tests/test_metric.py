"""Metric and bitmask graph helpers against networkx and scipy, which stay
test-only oracles."""

import os
import random
import subprocess
import sys
from pathlib import Path

import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from conftest import OracleMetric, diam
import wallcube
from wallcube import io
from wallcube import metric as metric_module
from wallcube.complex import build_dual
from wallcube.errors import StateSpaceCap, WallcubeError
from wallcube.generators import grid
from wallcube.groups import (
    CyclicSubgroup,
    Free,
    FreeAbelian,
    HWallSpec,
    cayley_ball,
    generate_hwall_system,
)
from wallcube.metric import (
    INF,
    Metric,
    _dijkstra,
    bits,
    components,
    max_cliques,
)


def random_graph(seed):
    """(n, edge list) of a seeded random graph, density varying by seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return n, edges


def graphs():
    out = [(0, []), (1, []), (5, []),                         # empty, isolated
           (6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),  # K6
           (5, [(0, 1), (1, 2)])]                             # plus isolated
    out += [random_graph(s) for s in range(60)]
    return out


def masks(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def test_bits_matches_naive_scan():
    rng = random.Random(0)
    cases = [0, 1, 1 << 200, (1 << 161) - 1]
    for width in (1, 8, 64, 161, 300):
        for density in (0.05, 0.5, 0.95):
            cases += [sum(1 << i for i in range(width)
                          if rng.random() < density) for _ in range(5)]
    for mask in cases:
        assert bits(mask) == [i for i in range(mask.bit_length())
                              if mask >> i & 1]


def test_max_cliques_matches_networkx():
    for n, edges in graphs():
        got = sorted(bits(c) for c in max_cliques(masks(n, edges)))
        expect = sorted(sorted(c) for c in nx.find_cliques(nx_graph(n, edges)))
        assert got == expect


def test_max_cliques_cap(monkeypatch):
    # K_{3,3,3,3}: 3^4 maximal cliques, one vertex from each part
    adj = [sum(1 << j for j in range(12) if j // 3 != i // 3)
           for i in range(12)]
    assert len(max_cliques(adj)) == 81
    monkeypatch.setattr(metric_module, "MAX_CLIQUE_STATES", 81)
    with pytest.raises(StateSpaceCap, match="clique search exceeds cap 81"):
        max_cliques(adj)


def test_components_matches_networkx():
    rng = random.Random(7)
    for n, edges in graphs():
        adj = masks(n, edges)
        for mask in ((1 << n) - 1, rng.getrandbits(n) if n else 0):
            keep = bits(mask)
            got = [bits(c) for c in components(adj, mask)]
            expect = sorted(sorted(c) for c in nx.connected_components(
                nx_graph(n, edges).subgraph(keep)))
            assert got == expect  # also ordered by lowest vertex


def test_from_edges_matches_scipy():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        # two random components, so some pairs are unreachable
        cut = rng.randint(1, n)
        edges = {}
        for lo, hi in ((0, cut), (cut, n)):
            for j in range(lo + 1, hi):  # a tree plus up to one chord each
                for _ in range(2):
                    edges[(rng.randrange(lo, j), j)] = rng.uniform(0.1, 5.0)
        triples = [(i, j, w) for (i, j), w in sorted(edges.items())]
        rows = [i for i, j, _w in triples] + [j for i, j, _w in triples]
        cols = [j for i, j, _w in triples] + [i for i, j, _w in triples]
        data = [w for _i, _j, w in triples] * 2
        expect = shortest_path(csr_matrix((data, (rows, cols)), shape=(n, n)),
                               method="D", directed=False)
        got = Metric.from_edges(n, triples).dist
        for i in range(n):
            # same shortest paths summed in another order: equal up to
            # float64 rounding; an infinity only equals itself
            assert got[i] == pytest.approx(list(expect[i]), rel=1e-12)
        if cut < n:
            assert got[0][n - 1] == float("inf")


def test_unit_weights_bfs_matches_dijkstra():
    # the grid and Cayley graphs, and the unit-weight random graphs (some
    # with isolated vertices, so unreachable pairs)
    cases = [(m.n, m.edges) for m in (
        grid(3).metric, grid(7).metric, cayley_ball(FreeAbelian(2), 4).metric,
        cayley_ball(Free(2), 3).metric)]
    cases += [(n, [(i, j, 1) for i, j in edges]) for n, edges in graphs()]
    for n, edges in cases:
        nbrs = [[] for _ in range(n)]
        for i, j, w in edges:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        got = Metric.from_edges(n, edges).dist
        assert got == [_dijkstra(nbrs, s) for s in range(n)]
        # one float object per distinct distance
        values = {d for row in got for d in row}
        assert len({id(d) for row in got for d in row}) == len(values)


@st.composite
def unit_graphs(draw):
    """(n, edges) of a unit-weight graph: up to 12 vertices, often with
    isolated ones and several components, repeated edges and loops."""
    n = draw(st.integers(0, 12))
    if not n:
        return 0, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return n, [(i, j, 1) for i, j in pairs]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_metric_matches_row_oracle(data):
    n, edges = data.draw(unit_graphs())
    m = Metric.from_edges(n, edges)
    oracle = OracleMetric.of(m)
    mask = st.integers(0, (1 << n) - 1)
    a = data.draw(mask)
    k = data.draw(st.integers(0, n))
    assert list(m.rings(a)) == oracle.rings(a)
    assert list(m.rings(a, k)) == [(d, ring) for d, ring in oracle.rings(a)
                                   if d <= k]
    for r in (-1, 0, 1.5, k, INF):
        assert m.ball(a, r) == oracle.ball(a, r)
    assert m.frontier(a) == oracle.frontier(a)
    # none of the above needs the table; it is built on first use
    assert m._table is None
    assert m.dist == oracle.dist
    assert m.diameter() == oracle.diameter()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reaches_matches_diam(data):
    # unit-weight graphs, often disconnected, and the same graphs weighted,
    # whose metric is a table
    n, edges = data.draw(unit_graphs())
    if data.draw(st.booleans()):
        weight = st.sampled_from([0.5, 1, 2.5])
        edges = [(i, j, data.draw(weight)) for i, j, _w in edges]
    m = Metric.from_edges(n, edges)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    d = diam(m, mask)
    for tau in (0.5, 1, 2, 2.5, 3, 5, INF):
        assert m.reaches(mask, tau) == (d is not None and d >= tau)
    assert m.diameter() == (diam(m, (1 << n) - 1) or 0.0)


def test_reaches_counts_the_ring_at_inf():
    # a set spanning two components reaches every tau
    for m in (Metric.from_edges(4, [(0, 1, 1), (2, 3, 1)]),
              Metric.from_edges(4, [(0, 1, 2.5), (2, 3, 1)])):
        for tau in (1, 100, INF):
            assert m.reaches(0b101, tau)
        assert not m.reaches(0b011, 3) and not m.reaches(0, 0.5)


def test_unit_metric_builds_no_table_to_load_or_generate():
    ball = cayley_ball(Free(2), 4)
    generate_hwall_system(ball, [
        HWallSpec(CyclicSubgroup(Free(2), "a"), "branch", axis="a")])
    assert ball.metric._table is None
    text = io.dumps(io.wallspace_to_dict(grid(5)))
    ws = io.wallspace_from_dict(io.loads(text))
    assert io.dumps(io.wallspace_to_dict(ws)) == text
    assert ws.metric._table is None


def test_weighted_metric_builds_no_table_to_load_or_build(monkeypatch):
    # a weighted graph keeps its edges, as a unit-weight one does: parsing
    # the document and building its dual run no Dijkstra, and the first
    # read of `dist` runs one per point
    sources = []

    def counting(nbrs, s):
        sources.append(s)
        return _dijkstra(nbrs, s)

    monkeypatch.setattr(metric_module, "_dijkstra", counting)
    unit = grid(4)
    doc = io.wallspace_to_dict(unit)
    doc["metric"]["edges"] = [[a, b, 2.5]
                              for a, b, _w in doc["metric"]["edges"]]
    text = io.dumps(doc)
    ws = io.wallspace_from_dict(io.loads(text))
    assert build_dual(ws, ws.points[0]).nvertices() == \
        build_dual(unit, unit.points[0]).nvertices()
    assert io.dumps(io.wallspace_to_dict(ws)) == text
    assert sources == [] and ws.metric._table is None
    assert ws.metric.dist == [[2.5 * d for d in row]
                              for row in unit.metric.dist]
    assert sources == list(range(ws.metric.n))


def test_unit_metric_memory_stays_linear():
    # a 2000-point path: its 2000 × 2000 table would take 32 MB of row
    # pointers, per-radius ball layers about 500 MB
    n = 2000
    tracemalloc.start()
    try:
        m = Metric.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])
        assert m.ball(1, n // 2) == (1 << n // 2 + 1) - 1
        assert len(list(m.rings(1 << n // 2))) == n // 2 + 1
        assert list(m.rings(1))[-1] == (n - 1, 1 << n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m._table is None
    assert peak < 10 * 2 ** 20


def test_metric_checks_and_tolerance():
    Metric([[0, 1], [1 + 1e-9, 0]])  # within allclose's tolerance
    inf, nan = float("inf"), float("nan")
    Metric([[0, inf], [inf, 0]])
    for table, msg in (([[0, 1], [2, 0]], "symmetric"),
                       ([[0, 1], [inf, 0]], "symmetric"),
                       ([[0, 1, 2], [1, 0]], "square"),
                       ([[1, 0], [0, 0]], "diagonal"),
                       ([[0, -1], [-1, 0]], "nonnegative"),
                       ([[0, -inf], [-inf, 0]], "nonnegative"),
                       # one NaN object, so that the table is symmetric
                       ([[0, nan], [nan, 0]], "nonnegative"),
                       ([[0, 1, nan], [1, 0, 1], [nan, 1, 0]], "nonnegative"),
                       ([[0, nan, -1], [nan, 0, 1], [-1, 1, 0]],
                        "nonnegative")):
        with pytest.raises(WallcubeError, match=msg):
            Metric(table)
    for weight in (-1, -inf, nan):
        with pytest.raises(WallcubeError, match="negative weight"):
            Metric.from_edges(2, [(0, 1, weight)])


def test_ball_and_set_distances():
    m = Metric.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 2.5)])
    assert m.ball(0b1, 1) == 0b11
    assert m.ball(0b101, 1) == 0b111
    assert m.ball(0, 3) == 0
    assert list(m.rings(0b1)) == [(0, 0b1), (1, 0b10), (2, 0b100),
                                  (4.5, 0b1000), (INF, 0b10000)]
    assert list(m.rings(0)) == []
    assert m.reaches(0b1111, 4.5) and not m.reaches(0b1111, 5)
    assert m.diameter() == float("inf")
    assert m.frontier(0b11) == 0b10


def test_diameter_is_the_largest_distance():
    for m in (Metric.from_edges(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)]),
              Metric.from_edges(4, [(0, 1, 2.5), (1, 2, 1), (2, 3, 0.5)]),
              Metric([[0, 1, 3], [1, 0, 2], [3, 2, 0]]),
              Metric.from_edges(3, [(0, 1, 1)]),
              Metric.from_edges(3, [(0, 1, 0.5)]),
              Metric.from_edges(1, []), Metric([[0]])):
        assert m.diameter() == max(map(max, m.dist))
    assert Metric.from_edges(3, [(0, 1, 1)]).diameter() == INF
    assert Metric.from_edges(0, []).diameter() == 0.0
    assert Metric([]).diameter() == 0.0


def run_python(code, *args, cwd=None):
    """`python -c code *args` in a fresh interpreter that imports wallcube
    from this source tree."""
    src = str(Path(wallcube.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src})


def test_import_pulls_no_numeric_stack():
    # beyond what the interpreter loads at start-up, only the standard
    # library and wallcube itself
    code = ("import sys; before = set(sys.modules); "
            "import wallcube, wallcube.cli; "
            "print(sorted(m for m in ('numpy', 'scipy', 'networkx', 'click') "
            "if m in sys.modules)); "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'wallcube'}))")
    r = run_python(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:2] == ["[]", "[]"]


# run one CLI command, then list every module it loaded on stderr
CLI_MODULES = ("import sys\n"
               "from wallcube.cli import main\n"
               "try:\n"
               "    main(sys.argv[1:])\n"
               "finally:\n"
               "    sys.stderr.write(' '.join(sorted(sys.modules)))\n")


ACT_SPEC = ('{"group": {"kind": "FreeAbelian", "d": 2}, "radius": 2, '
            '"hwalls": [{"subgroup": {"kind": "coordinate", "coords": [1]}, '
            '"rule": "coordinate", "axis": 0}], '
            '"peripheries": [{"kind": "coordinate", "coords": [0]}]}')


# no command loads `dataclasses` or, through it, `inspect`, nor `hashlib`:
# the input digest reads the interpreter's own SHA-256
@pytest.mark.parametrize("args, unloaded", [
    (["gen", "grid", "3"], {"wallcube.groups", "wallcube.separation"}),
    (["validate", "grid3.json"], {"wallcube.groups"}),
    (["build", "grid3.json"], {"wallcube.groups", "wallcube.separation"}),
    (["verify", "grid3.json"], {"wallcube.groups", "wallcube.separation"}),
    (["diagnose", "grid3.json", "--property", "linear-separation"],
     {"wallcube.groups"}),
    (["act", "act.json"], {"wallcube.separation"}),
    (["sweep", "--generator", "grid", "--ns", "2,3"],
     {"wallcube.groups", "wallcube.separation"}),
])
def test_cli_command_imports_only_what_it_runs(tmp_path, args, unloaded):
    gen = run_python(CLI_MODULES, "gen", "grid", "3")
    (tmp_path / "grid3.json").write_text(gen.stdout)
    (tmp_path / "act.json").write_text(ACT_SPEC)
    r = run_python(CLI_MODULES, *args, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stderr.split())
    assert "wallcube.cli" in loaded
    assert not (unloaded | {"dataclasses", "inspect", "hashlib"}) & loaded


# and so maps no OpenSSL
@pytest.mark.parametrize("command", ["validate", "build"])
def test_reading_a_document_maps_no_openssl(tmp_path, command):
    gen = run_python(CLI_MODULES, "gen", "grid", "3")
    (tmp_path / "grid3.json").write_text(gen.stdout)
    code = ("import sys\n"
            "from wallcube.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    sys.stderr.write(str('_hashlib' in sys.modules))\n")
    r = run_python(code, command, "grid3.json", cwd=tmp_path)
    assert (r.returncode, r.stderr) == (0, "False")
