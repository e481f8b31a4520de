"""Serialization round-trips and the CLI surface with its exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drop_vertex, random_wallspace, wall_of
import wallcube
from wallcube import cli as cli_module
from wallcube import complex as complex_module
from wallcube import generators, groups, io
from wallcube import metric as metric_module
from wallcube import wallspace as wallspace_module
from wallcube.cli import main
from wallcube.errors import ParseError
from wallcube.generators import fig3, grid, non_hausdorff3, rbad
from wallcube.wallspace import Wall


def roundtrip_equal(ws):
    doc = io.wallspace_to_dict(ws)
    ws2 = io.wallspace_from_dict(doc)
    return io.wallspace_to_dict(ws2) == doc


def test_roundtrip_bit_exact():
    for ws in (fig3(), grid(2), rbad(2), non_hausdorff3()):
        assert roundtrip_equal(ws)
        doc = io.wallspace_to_dict(ws)
        assert io.dumps(doc) == io.dumps(io.loads(io.dumps(doc)))
    for s in range(10):
        ws = random_wallspace(s)
        assert roundtrip_equal(ws)


def test_roundtrip_preserves_semantics():
    ws = grid(2)
    ws2 = io.wallspace_from_dict(io.wallspace_to_dict(ws))
    assert ws2.points == ws.points
    for w in ws.walls:
        w2 = wall_of(ws2, w.index)
        assert (w2.left, w2.right) == (w.left, w.right)
    assert ws2.metric.dist[0][5] == ws.metric.dist[0][5]


def test_loads_parse_error():
    from wallcube.errors import ParseError
    with pytest.raises(ParseError):
        io.loads("{nope")
    with pytest.raises(ParseError):
        io.wallspace_from_dict({"points": ["a"]})


def test_digest_and_artifact():
    d1 = io.input_digest("abc")
    assert d1 == io.input_digest("abc") and len(d1) == 16
    art = io.artifact({"x": 1}, seed=7, caps={"points": 64}, digest=d1)
    assert art["tool"] == "wallcube" and art["payload"] == {"x": 1}
    assert art["seed"] == 7 and art["input_digest"] == d1


@pytest.mark.parametrize("text", ["", "abc", "ℤ² and F₂: ∞ ≠ 0",
                                  "x" * (1 << 20)],
                         ids=["empty", "ascii", "non-ascii", "1MB"])
def test_digest_is_sha256(text):
    assert io.input_digest(text) == \
        hashlib.sha256(text.encode()).hexdigest()[:16]


def test_dot_outputs_stable():
    from wallcube.complex import build_dual
    cc = build_dual(grid(1), "0,0")
    assert io.skeleton_dot(cc) == io.skeleton_dot(cc)
    assert io.skeleton_dot(cc).startswith("graph skeleton {")


# -- CLI ---------------------------------------------------------------


def run_cli(args, stdin=None):
    """`wallcube *args` run in this process: its exit code, stdout and
    stderr, and the exception that would end a real process with a
    traceback and exit code 1."""
    out, err = StringIO(), StringIO()
    code, exception = 0, None
    saved_stdin, sys.stdin = sys.stdin, StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(args)
    except SystemExit as exc:
        code = exc.code or 0
    except Exception as exc:
        code, exception = 1, exc
    finally:
        sys.stdin = saved_stdin
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           stderr=err.getvalue(), exception=exception)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_gen_fig3_and_validate(tmp_path):
    r = run_cli(["gen", "fig3"])
    assert r.exit_code == 0
    doc = json.loads(r.stdout)
    assert doc["payload"]["walls"][0]["index"] == 1
    path = write(tmp_path, "fig3.json", r.stdout)
    r2 = run_cli(["validate", path])
    assert r2.exit_code == 0
    assert json.loads(r2.stdout)["payload"]["ok"] is True


def test_cli_gen_non_hausdorff():
    r = run_cli(["gen", "nonHausdorff3"])
    doc = json.loads(r.stdout)["payload"]
    assert doc["points"] == ["x", "y", "z"]
    (w,) = doc["walls"]
    assert sorted(w["left"]) == ["x", "z"] and sorted(w["right"]) == ["y", "z"]


def test_cli_validate_domain_error(tmp_path):
    bad = {"points": ["x", "y"],
           "walls": [{"index": 0, "left": ["x"], "right": ["y"]},
                     {"index": 1, "left": ["y"], "right": ["x"]}]}
    path = write(tmp_path, "bad.json", json.dumps(bad))
    r = run_cli(["validate", path])
    assert r.exit_code == 1
    assert any(e["kind"] == "DuplicateGenuinePartition"
               for e in json.loads(r.stdout)["payload"]["errors"])


def test_cli_parse_error(tmp_path):
    path = write(tmp_path, "garbage.json", "{oops")
    r = run_cli(["validate", path])
    assert r.exit_code == 2


@pytest.mark.parametrize("text", [
    '{"points": [' + "1" * 5000 + "]}", "[" * 100000 + "]" * 100000,
], ids=["long-int", "deep"])
def test_cli_parse_error_past_json_limits(tmp_path, text):
    # past int()'s digit limit, or the recursion limit: both once ended in
    # a traceback
    path = write(tmp_path, "garbage.json", text)
    r = run_cli(["validate", path])
    assert r.exit_code == 2 and r.exception is None
    assert json.loads(r.stderr)["error"] == "ParseError"


NOT_UTF8 = b'{"points": ["\xe9"], "walls": []}'


@pytest.mark.parametrize("command", [["validate"], ["build"], ["act"]])
def test_cli_input_that_is_not_utf8(tmp_path, command):
    # a file fails its decoding, stdin (read with surrogateescape) the
    # digest's encoding: both once ended in a traceback and exit 1
    path = tmp_path / "bad.json"
    for data in (b"\xff\xfe{", NOT_UTF8):
        path.write_bytes(data)
        r = run_cli([*command, str(path)])
        assert (r.exit_code, r.exception, r.stdout) == (2, None, "")
        assert json.loads(r.stderr) == {
            "error": "ParseError", "detail": f"{path}: input is not UTF-8"}
    r = run_cli([*command, "-"],
                stdin=NOT_UTF8.decode("utf-8", "surrogateescape"))
    assert (r.exit_code, r.exception, r.stdout) == (2, None, "")
    assert json.loads(r.stderr) == {
        "error": "ParseError", "detail": "stdin: input is not UTF-8"}


def test_cli_stdin_that_is_not_utf8_in_a_process():
    # a real stdin in UTF-8 mode, whose error handler is surrogateescape
    src = str(Path(wallcube.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-m", "wallcube.cli", "validate", "-"],
                       input=NOT_UTF8, capture_output=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "1"})
    assert (r.returncode, r.stdout) == (2, b"")
    assert json.loads(r.stderr) == {
        "error": "ParseError", "detail": "stdin: input is not UTF-8"}


@pytest.mark.parametrize("doc, where", [
    ({"metric": {"table": [[0, 1], [1]]}}, "metric.table[1]"),
    ({"metric": {"table": [[0, 1, 1], [1, 0, 1]]}}, "metric.table[0]"),
    ({"metric": {"table": [[0, "x"], ["x", 0]]}}, "metric.table[0][1]"),
    ({"metric": {"edges": [["a", "c", 1]]}}, "metric.edges[0]: unknown point 'c'"),
    ({"metric": {"edges": [["a", "b", "far"]]}}, "metric.edges[0]: weight"),
    ({"walls": [{"index": 0, "left": ["a"], "right": ["b", "c"]}]},
     "walls[0].right: unknown point 'c'"),
    # each of these was once read loosely, to exit 0 or a domain error
    ({"points": "ab"}, "points: 'ab' is not a list"),
    ({"points": ["a", 5]}, "points[1]: 5 is not a new name"),
    ({"points": ["a", "b", "a"]}, "points[2]: 'a' is not a new name"),
    ({"walls": [{"index": 3.7, "left": ["a"], "right": ["b"]}]},
     "walls[0].index: 3.7 is not an integer"),
    ({"walls": [{"index": True, "left": ["a"], "right": ["b"]}]},
     "walls[0].index: True is not an integer"),
    ({"walls": [{"index": "x", "left": ["a"], "right": ["b"]}]},
     "walls[0].index: 'x' is not an integer"),
    ({"walls": [{"index": 0, "left": ["a"], "right": ["b"]},
                {"index": 0, "left": ["b"], "right": ["a", "b"]}]},
     "walls[1].index: 0 is not a new index"),
    ({"walls": [{"index": 0, "left": "ab", "right": ["b"]}]},
     "walls[0].left: 'ab' is not a list"),
    # and these once ended in a traceback
    ({"metric": {"table": [[0, 10 ** 400], [10 ** 400, 0]]}},
     "int too large to convert to float"),
    ({"metric": {"edges": [["a", "b", 10 ** 400]]}},
     "int too large to convert to float"),
    # and these were once reported without the field they are in
    ({"metric": 5}, "metric: 5 is not an object"),
    ({"metric": {"edges": 5}}, "metric.edges: 5 is not a list"),
    ({"metric": {"table": 5}}, "metric.table: 5 is not a list"),
    ({"metric": {"edges": [["a", "b"]]}},
     "metric.edges[0]: ['a', 'b'] is not a list of two point names and a "
     "number"),
    ({"metric": {"edges": [["a", "b", 1], ["a", "b", 1, 2]]}},
     "metric.edges[1]: ['a', 'b', 1, 2] is not a list of two point names "
     "and a number"),
    # and this exited 1, its rows counted only by the Wallspace
    ({"metric": {"table": [[0]]}},
     "metric.table: [[0]] is not a list of 2 rows"),
    # a side is read by one lookup per name; a name that is no point is
    # then found by a scan, which names the first
    ({"walls": [{"index": 0, "left": ["a"], "right": [5]}]},
     "walls[0].right: unknown point 5"),
    ({"walls": [{"index": 0, "left": ["a"], "right": ["b", ["a"]]}]},
     "walls[0].right: unknown point ['a']"),
    ({"walls": [{"index": 0, "left": [None], "right": ["b"]}]},
     "walls[0].left: unknown point None"),
    ({"walls": [{"index": 0, "left": ["a", "z", 7], "right": ["b"]}]},
     "walls[0].left: unknown point 'z'"),
    # this exited 1, the Wallspace's "ground set must be nonempty"
    ({"points": [], "walls": []}, "points: [] is not a nonempty list"),
])
def test_cli_malformed_document(tmp_path, doc, where):
    base = {"points": ["a", "b"],
            "walls": [{"index": 0, "left": ["a"], "right": ["b"]}]}
    path = write(tmp_path, "bad.json", json.dumps({**base, **doc}))
    r = run_cli(["validate", path])
    assert r.exit_code == 2
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


@pytest.mark.parametrize("doc, where", [
    ({"walls": []}, "missing field points"),
    ({"points": ["a"]}, "missing field walls"),
    ({"points": ["a"], "walls": [{"index": 0, "right": ["a"]}]},
     "missing field walls[0].left"),
    ({"points": ["a"], "walls": [], "metric": {"rows": []}},
     "missing field metric.table"),
])
def test_cli_missing_document_field(tmp_path, doc, where):
    path = write(tmp_path, "bad.json", json.dumps(doc))
    r = run_cli(["validate", path])
    assert r.exit_code == 2
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


def test_wallspace_sides_name_points():
    # the parse errors word for word, and a name repeated within a side
    # read once
    base = {"points": ["a", "b"]}
    for side, message in (([5], "unknown point 5"),
                          (["b", ["a"]], "unknown point ['a']"),
                          ([None], "unknown point None"),
                          ([True], "unknown point True"),
                          (["a", "z", 7], "unknown point 'z'"),
                          ([{"a": 1}], "unknown point {'a': 1}")):
        doc = {**base, "walls": [{"index": 0, "left": ["a"], "right": side}]}
        with pytest.raises(ParseError) as exc:
            io.wallspace_from_dict(doc)
        assert str(exc.value) == "walls[0].right: " + message
    doc = {**base, "walls": [{"index": 0, "left": ["a", "a"],
                              "right": ["b", "a", "b"]}]}
    assert io.wallspace_from_dict(doc).walls == (Wall(0, 0b01, 0b11),)
    doc = {**base, "walls": [], "metric": {"edges": [["a", "q", 1]]}}
    with pytest.raises(ParseError) as exc:
        io.wallspace_from_dict(doc)
    assert str(exc.value) == "metric.edges[0]: unknown point 'q'"


@pytest.mark.parametrize("metric", [{}, {"metric": None}, {"metric": {}}])
def test_document_without_metric(metric):
    doc = {"points": ["a", "b"],
           "walls": [{"index": 0, "left": ["a"], "right": ["b"]}], **metric}
    assert io.wallspace_from_dict(doc).metric is None


def test_field_reader():
    doc = {"n": 1, "null": None}
    assert io.field(doc, "n", "d.n", io.INT) == 1
    assert io.field(doc, "absent", "d.absent", io.INT, 7) == 7
    assert io.field(doc, "null", "d.null", io.LIST, []) == []
    assert io.field(doc, "null", "d.null") is None
    for d, key, kind, message in (
            (doc, "absent", io.INT, "missing field d.absent"),
            (doc, "null", io.LIST, "d.null: None is not a list"),
            ([doc], "n", io.ANY, "missing field d.n"),
            ("n", "n", io.ANY, "missing field d.n"),
            (doc, "n", io.LIST, "d.n: 1 is not a list"),
            ({"n": -1}, "n", io.NATURAL,
             "d.n: -1 is not a non-negative integer"),
            ({"n": True}, "n", io.INT, "d.n: True is not an integer"),
            ({"n": "c"}, "n", io.one_of("a", "b", "d"),
             "d.n: 'c' is not 'a', 'b' or 'd'"),
            ({"n": ["a"]}, "n", io.one_of("a", "b"),
             "d.n: ['a'] is not 'a' or 'b'")):
        with pytest.raises(ParseError) as exc:
            io.field(d, key, f"d.{key}", kind)
        assert str(exc.value) == message


def test_cli_build_grid(tmp_path):
    gen = run_cli(["gen", "grid", "3"])
    path = write(tmp_path, "grid3.json", gen.stdout)
    export = str(tmp_path / "cc.json")
    dot = str(tmp_path / "cc.dot")
    r = run_cli(["build", path, "--export", export, "--dot", dot])
    assert r.exit_code == 0
    summary = json.loads(r.stdout)["payload"]
    assert summary["vertices"] == 16 and summary["edges"] == 24
    assert summary["cubes_by_dim"]["2"] == 9 or \
        summary["cubes_by_dim"].get(2) == 9
    assert summary["dimension"] == 2
    cc_doc = json.loads(open(export).read())
    assert len(cc_doc["vertices"]) == 16
    assert open(dot).read().startswith("graph skeleton {")


def test_cli_build_cap_exit(tmp_path):
    gen = run_cli(["gen", "grid", "3"])
    path = write(tmp_path, "grid3.json", gen.stdout)
    r = run_cli(["build", path, "--cap-vertices", "2"])
    assert r.exit_code == 3


def test_cli_build_cap_exit_leaves_the_outputs(tmp_path):
    # a build stopped at the vertex cap leaves an existing output as it
    # was, and a new one empty
    gen = run_cli(["gen", "grid", "3"])
    path = write(tmp_path, "grid3.json", gen.stdout)
    export = write(tmp_path, "cc.json", "old")
    dot = tmp_path / "cc.dot"
    r = run_cli(["build", path, "--cap-vertices", "2", "--export", export,
                 "--dot", str(dot)])
    assert r.exit_code == 3
    assert open(export).read() == "old" and dot.read_text() == ""


@pytest.mark.parametrize("option, bad", [
    ("--export", "no-such-directory/cc.json"), ("--dot", ".")],
    ids=["export", "dot"])
def test_cli_build_checks_its_outputs_before_the_dual(tmp_path, monkeypatch,
                                                       option, bad):
    # a path that cannot be written exits 2 before any work, and an
    # existing output it would have written is left unchanged
    def not_built(*args, **kwargs):
        raise AssertionError("the dual was built")

    monkeypatch.setattr(complex_module, "build_dual", not_built)
    export = write(tmp_path, "cc.json", "old")
    other = {"--export": ["--dot", str(tmp_path / "cc.dot")],
             "--dot": ["--export", export]}[option]
    r = run_cli(["build", "-", option, bad] + other,
                stdin=run_cli(["gen", "grid", "2"]).stdout)
    assert r.exit_code == 2 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr)["detail"].startswith(f"{option}: [Errno ")
    assert open(export).read() == "old"


def test_cli_build_stdin():
    gen = run_cli(["gen", "fig3"])
    r = run_cli(["build", "-"], stdin=gen.stdout)
    assert r.exit_code == 0
    assert json.loads(r.stdout)["payload"]["dimension"] == 3


def test_cli_verify_pass(tmp_path):
    gen = run_cli(["gen", "grid", "2"])
    path = write(tmp_path, "grid2.json", gen.stdout)
    r = run_cli(["verify", path])
    assert r.exit_code == 0
    out = json.loads(r.stdout)["payload"]
    assert out["ok"] is True
    assert set(out["checks"]) == {"npc", "connected", "simply-connected",
                                  "maximal-bijection", "convexity"}


def test_cli_verify_reports_vertex_cap(tmp_path):
    gen = run_cli(["gen", "fig3"])
    path = write(tmp_path, "fig3.json", gen.stdout)
    r = run_cli(["verify", path, "--cap-vertices", "4096"])
    assert r.exit_code == 0
    assert json.loads(r.stdout)["caps"] == {
        "vertices": 4096, "clique_states": metric_module.MAX_CLIQUE_STATES}


def test_cli_verify_rbad4(tmp_path):
    # 22 walls: the orientation enumeration is bounded by its output, not
    # by 2^walls
    gen = run_cli(["gen", "rbad", "4"])
    path = write(tmp_path, "rbad4.json", gen.stdout)
    r = run_cli(["verify", path])
    assert r.exit_code == 0
    connected = json.loads(r.stdout)["payload"]["checks"]["connected"]
    assert connected["ok"] is True
    assert connected["vertices"] == connected["all_orientations"]


@pytest.mark.parametrize("doc", [
    {"points": ["a"], "walls": []},
    {"points": ["a", "b"],
     "walls": [{"index": 0, "left": ["a", "b"], "right": []}]}])
def test_cli_verify_one_vertex_dual(doc):
    # the dual is one 0-cube and there are no transverse families: the
    # maximal cubes of dimension >= 1 match them
    r = run_cli(["verify", "-"], stdin=json.dumps(doc))
    assert r.exit_code == 0, r.stdout
    checks = json.loads(r.stdout)["payload"]["checks"]
    assert checks["maximal-bijection"] == {"ok": True, "families": 0}


def test_cli_verify_convexity_checks_distance_law(tmp_path, monkeypatch):
    # the hull test holds on every dual_sub by construction; the distance
    # law it rests on fails once the centre of the 3 x 3 grid is dropped:
    # two opposite neighbours of the hole are 4 apart, at popcount 2
    build = complex_module.build_dual

    def holed(ws, basepoint, vertex_cap):
        cc = build(ws, basepoint, vertex_cap=vertex_cap)
        centre = next(m for m in cc.vertices if len(cc.adj[m]) == 4)
        return drop_vertex(cc, centre)

    path = write(tmp_path, "grid2.json", run_cli(["gen", "grid", "2"]).stdout)
    monkeypatch.setattr(complex_module, "build_dual", holed)
    for seed in range(5):
        # 5 of the 8 vertices are sampled, so one is next to the hole
        r = run_cli(["verify", path, "--checks", "convexity",
                     "--seed", str(seed)])
        assert r.exit_code == 1
        check = json.loads(r.stdout)["payload"]["checks"]["convexity"]
        assert check["ok"] is False and check["instances"] == 0
        law = check["distance_law"]
        assert (law["distance"], law["popcount"]) == (4, 2)


def test_cli_verify_connected_fails_on_disconnected_dual(tmp_path,
                                                        monkeypatch):
    # the vertices all come from one enumeration, so what the check can
    # catch is a 1-skeleton that does not connect them: the square of
    # grid 1 without two opposite corners is two isolated vertices
    build = complex_module.build_dual

    def split(ws, basepoint, vertex_cap):
        cc = build(ws, basepoint, vertex_cap=vertex_cap)
        for m in (0, (1 << ws.nwalls()) - 1):
            cc = drop_vertex(cc, m)
        return cc

    path = write(tmp_path, "grid1.json", run_cli(["gen", "grid", "1"]).stdout)
    monkeypatch.setattr(complex_module, "build_dual", split)
    r = run_cli(["verify", path, "--checks", "connected"])
    assert r.exit_code == 1
    check = json.loads(r.stdout)["payload"]["checks"]["connected"]
    assert check == {"ok": False, "vertices": 1, "all_orientations": 2}


def test_cli_diagnose(tmp_path):
    gen = run_cli(["gen", "grid", "4"])
    path = write(tmp_path, "grid4.json", gen.stdout)
    r = run_cli(["diagnose", path, "--property", "linear-separation"])
    assert r.exit_code == 0
    rep = json.loads(r.stdout)["payload"]
    assert rep["verdict"] == "holds" and rep["value"] == 1.0
    assert rep["parameters"]["epsilon"] == 0.0
    r2 = run_cli(["diagnose", path, "--property", "ball-ball",
                  "--params", '{"r": 1}'])
    assert r2.exit_code == 0
    r3 = run_cli(["diagnose", path, "--property", "degree-profile"])
    assert json.loads(r3.stdout)["payload"]["dimension"] == 2


# a-b and c-d, two components: W0 = ({a,b,c}, {c,d}), W1 = ({a}, {b,c,d})
TWO_COMPONENTS = (
    '{"points": ["a", "b", "c", "d"], "walls": ['
    '{"index": 0, "left": ["a", "b", "c"], "right": ["c", "d"]}, '
    '{"index": 1, "left": ["a"], "right": ["b", "c", "d"]}], '
    '"metric": {"edges": [["a", "b", 1], ["c", "d", 1]]}}')


@pytest.mark.parametrize("prop, witnesses", [
    ("ball-wallnbd", [["b", 0], ["c", 1]]),
    ("wallnbd-wallnbd", [[0, 1]]),
    ("wall-wall", [[0, 1]]),
])
def test_cli_diagnose_an_unseparated_pair_out_of_reach(tmp_path, prop,
                                                       witnesses):
    # each threshold is inf, which no diameter bounds
    path = write(tmp_path, "two.json", TWO_COMPONENTS)
    r = run_cli(["diagnose", path, "--property", prop])
    assert r.exit_code == 0 and '"value": Infinity' in r.stdout
    rep = json.loads(r.stdout)["payload"]
    assert (rep["verdict"], rep["witnesses"]) == ("fails", witnesses)


def test_cli_diagnose_metric_required(tmp_path):
    gen = run_cli(["gen", "fig3"])
    path = write(tmp_path, "fig3.json", gen.stdout)
    r = run_cli(["diagnose", path, "--property", "ball-ball"])
    assert r.exit_code == 1


@pytest.mark.parametrize("args", [["grid", "8"], ["geomPath", "70"]])
def test_cli_gen_sizes_caps_to_input(args):
    # both once stopped at the default cap of 64 points; the caps are the
    # limits `gen` checks
    r = run_cli(["gen", *args])
    assert r.exit_code == 0
    doc = json.loads(r.stdout)
    assert doc["caps"] == {"points": wallspace_module.MAX_POINTS,
                           "names": io.MAX_NAMES}
    assert len(doc["payload"]["points"]) > 64


@pytest.mark.parametrize("args, points", [
    (["gen", "grid", "64"], 4225), (["gen", "rbad", "64"], 4097),
    (["gen", "geomPath", "4096"], 4097),
    (["sweep", "--generator", "grid", "--ns", "2,64"], 4225)])
def test_cli_sized_generators_stop_at_the_point_cap(args, points):
    # past cayley_ball's cap of 4096 points, before building anything
    r = run_cli(args)
    assert r.exit_code == 3 and r.exception is None
    assert r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "StateSpaceCap"
    assert err["detail"].endswith(f"{points} points, exceeds cap 4096")


def test_geom_path_builds_no_component_search(monkeypatch):
    # the walls are written down, not found by breadth-first searches, of
    # which the largest size under the point cap once made 8,188
    components = metric_module.components
    calls = []

    def counted(adj, mask):
        calls.append(mask)
        return components(adj, mask)

    monkeypatch.setattr(metric_module, "components", counted)
    assert generators.generate("geomPath", 4095).nwalls() == 4094
    r = run_cli(["gen", "geomPath", "300"])
    assert r.exit_code == 0 and calls == []
    assert len(json.loads(r.stdout)["payload"]["walls"]) == 299


def test_cli_gen_grid_40():
    r = run_cli(["gen", "grid", "40"])
    assert r.exit_code == 0
    assert len(json.loads(r.stdout)["payload"]["points"]) == 41 * 41


def test_cli_gen_cayley_sizes_the_wall_cap_to_the_system():
    # 729 walls once exceeded a fixed cap of 256; the digest was recorded
    # from the translates that took a product per point
    r = run_cli(["gen", "cayley", "F2", "6"])
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == \
        "b39e1ace1e8482c72031f5ca519592b46444421c6ff9f7ec0a5979a87cebbba9"
    doc = json.loads(r.stdout)
    assert doc["caps"] == {"points": wallspace_module.MAX_POINTS,
                           "names": io.MAX_NAMES,
                           "products": groups.MAX_PRODUCTS}
    assert len(doc["payload"]["walls"]) == 729


def test_cli_gen_cayley_stops_at_the_product_cap():
    # the default H-wall of F4 on the 3201-point ball of radius 4: 2401
    # keys (the reduced words of length <= 4 not ending in a or A) and 8
    # members of <a> but the identity, a product per point each
    assert_product_cap_exit(["gen", "cayley", "F4", "4"], 7711209)


def test_cli_gen_cayley_counts_the_products_spec_by_spec():
    # 600 coordinate H-walls on the 1201-point ball of radius 1, each with
    # 3 keys and 1198 members: the count passes the cap at the third, long
    # before the 865,440,600 products of all 600
    assert_product_cap_exit(["gen", "cayley", "Z600", "1"],
                            3 * (3 + 1198) * 1201)


def assert_product_cap_exit(args, products):
    r = run_cli(args)
    assert r.exit_code == 3 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "StateSpaceCap",
        "detail": f"H-wall system needs at least {products} group products, "
                  "exceeds cap 4194304"}


def test_cli_gen_cayley_z2_30_builds():
    # once 6,926,642 products, a translate per ball point; two default
    # H-walls on the 1861-point ball, each with 61 keys and 60 members but
    # the identity, take 450,362
    r = run_cli(["gen", "cayley", "Z2", "30"])
    assert r.exit_code == 0
    doc = json.loads(r.stdout)["payload"]
    assert len(doc["points"]) == 1861 and len(doc["walls"]) == 122


def side_names(ws):
    return sum(w.left.bit_count() + w.right.bit_count() for w in ws.walls)


@pytest.mark.parametrize("args, names", [
    (["rbad", "45"], 4197918), (["geomPath", "2048"], 4196350)])
def test_cli_gen_stops_at_the_name_cap(args, names):
    # the first sizes whose walls' sides list more than 2^22 point names,
    # counted before any list is built; one size less stays under the cap
    name, n = args
    smaller = generators.generate(name, int(n) - 1)
    assert side_names(smaller) <= io.MAX_NAMES
    r = run_cli(["gen", *args])
    assert r.exit_code == 3 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "StateSpaceCap",
        "detail": f"wallspace document lists {names} point names in its "
                  f"walls' sides, exceeds cap {io.MAX_NAMES}"}


def test_cli_gen_name_cap_boundary(monkeypatch):
    # a document listing exactly MAX_NAMES names is written, one more is not
    names = side_names(grid(2))
    monkeypatch.setattr(io, "MAX_NAMES", names)
    r = run_cli(["gen", "grid", "2"])
    assert r.exit_code == 0 and json.loads(r.stdout)["caps"]["names"] == names
    monkeypatch.setattr(io, "MAX_NAMES", names - 1)
    assert run_cli(["gen", "grid", "2"]).exit_code == 3


def test_cli_gen_unknown():
    # a parse error that lists the generators there are, cayley among
    # them, in gen and sweep
    for args in (["gen", "mystery"],
                 ["sweep", "--generator", "mystery", "--ns", "1"]):
        r = run_cli(args)
        assert r.exit_code == 2 and r.exception is None and r.stdout == ""
        assert json.loads(r.stderr) == {
            "error": "ParseError",
            "detail": "unknown generator 'mystery'; use one of fig3, "
                      "nonHausdorff3, grid, rbad, geomPath, cayley"}
    # sweep sizes a generator by one N, which cayley does not take
    r = run_cli(["sweep", "--generator", "cayley", "--ns", "1"])
    assert r.exit_code == 2 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "ParseError",
        "detail": "gen cayley takes GROUP RADIUS, e.g. Z2 5"}


def test_cli_act(tmp_path):
    spec = {
        "group": {"kind": "FreeAbelian", "d": 2},
        "radius": 2,
        "hwalls": [
            {"subgroup": {"kind": "coordinate", "coords": [1]},
             "rule": "coordinate", "axis": 0},
            {"subgroup": {"kind": "coordinate", "coords": [0]},
             "rule": "coordinate", "axis": 1},
        ],
        "peripheries": [{"kind": "coordinate", "coords": [0, 1]}],
        "variant": {"kind": "Ur", "r": 0},
    }
    path = write(tmp_path, "act.json", json.dumps(spec))
    r = run_cli(["act", path])
    assert r.exit_code == 0
    payload = json.loads(r.stdout)["payload"]
    assert payload["hwall_reports"][0]["ok"] is True
    assert payload["decomposition"]["least_m"] == 0
    assert payload["decomposition"]["coverage_violations"] == []


F1 = {"kind": "Free", "rank": 1}
F1_F1 = {"kind": "FreeProduct", "factors": [F1, F1]}


def act_spec(**changes):
    """A small valid act spec with the given top-level fields replaced;
    a field given as None is dropped."""
    spec = {
        "group": {"kind": "FreeAbelian", "d": 2},
        "radius": 2,
        "hwalls": [{"subgroup": {"kind": "coordinate", "coords": [1]},
                    "rule": "coordinate", "axis": 0}],
        "peripheries": [{"kind": "coordinate", "coords": [0]}],
    }
    spec.update(changes)
    return {k: v for k, v in spec.items() if v is not None}


F2_ACT = {"group": {"kind": "Free", "rank": 2}, "radius": 2,
          "hwalls": [{"subgroup": {"kind": "cyclic", "word": "a"},
                      "rule": "branch", "axis": "a"}]}


@pytest.mark.parametrize("spec, where", [
    ({}, "missing field group"),
    (act_spec(group=None), "missing field group"),
    (act_spec(radius=None), "missing field radius"),
    (act_spec(radius=1.5), "radius: 1.5 is not a non-negative integer"),
    (act_spec(radius="2"), "radius: '2' is not a non-negative integer"),
    (act_spec(group={"kind": "FreeAbelian"}), "missing field group.d"),
    (act_spec(group={"kind": "Free"}), "missing field group.rank"),
    (act_spec(hwalls=[{"rule": "coordinate"}]),
     "missing field hwalls[0].subgroup"),
    (act_spec(hwalls=[{"subgroup": {"kind": "coordinate", "coords": [1]}}]),
     "missing field hwalls[0].rule"),
    (act_spec(peripheries=[{"kind": "coordinate"}]),
     "missing field peripheries[0].coords"),
    (act_spec(variant="Ur"), "variant: 'Ur' is not an object"),
    (act_spec(variant=["Ur"]), "variant: ['Ur'] is not an object"),
    (act_spec(variant={"kind": 1}), "variant.kind: 1 is not a string"),
    (act_spec(variant={"kind": "Ur", "r": "1"}),
     "variant.r: '1' is not an integer"),
    (act_spec(variant={"kind": "Ur", "r": 1, "tau": 1.5}),
     "variant.tau: 1.5 is not an integer"),
    (act_spec(m="x"), "m: 'x' is not a non-negative integer"),
    (act_spec(m=True), "m: True is not a non-negative integer"),
    # out of range: each once ran unchecked, to exit 0 or a domain error
    (act_spec(group={"kind": "FreeAbelian", "d": 0}), "group.d: need d >= 1"),
    (act_spec(group={"kind": "Free", "rank": 0}), "group.rank: need 1 <="),
    (act_spec(group={"kind": "FreeProduct", "factors": [F1]}),
     "group.factors: [{'kind': 'Free', 'rank': 1}] is not a list of at "
     "least two groups"),
    (act_spec(radius=-1), "radius: -1 is not a non-negative integer"),
    (act_spec(group=F1_F1, hwalls=None,
              peripheries=[{"kind": "factor", "factor": 7}]),
     "peripheries[0].factor: 7 is not a factor position in range(2)"),
    (act_spec(group=F1_F1, hwalls=None,
              peripheries=[{"kind": "factor", "factor": "x"}]),
     "peripheries[0].factor: 'x' is not a factor position in range(2)"),
    (act_spec(peripheries=[{"kind": "factor", "factor": 0}]),
     "peripheries[0].kind: 'factor' is a subgroup of FreeProduct groups, "
     "not of FreeAbelian"),
    # each of these once ran to exit 0, ended in a domain error or a
    # traceback, or (the huge d) would take O(d²) memory
    (act_spec(m=-1), "m: -1 is not a non-negative integer"),
    (act_spec(variant={"kind": "Zz"}),
     "variant.kind: unknown variant 'Zz'"),
    (act_spec(variant={"kind": "Ur", "r": -1}), "variant.r: -1 is not >= 0"),
    (act_spec(variant={"kind": "Uinf", "tau": 0}),
     "variant.tau: 0 is not >= 1"),
    (act_spec(hwalls=5), "hwalls: 5 is not a list"),
    (act_spec(peripheries=5), "peripheries: 5 is not a list"),
    (act_spec(group={"kind": "Foo"}),
     "group.kind: 'Foo' is not 'FreeAbelian', 'Free' or 'FreeProduct'"),
    (act_spec(group={"kind": ["Free"]}),
     "group.kind: ['Free'] is not 'FreeAbelian', 'Free' or 'FreeProduct'"),
    (act_spec(group={"kind": "FreeAbelian", "d": 10 ** 9}),
     "group.d: need d <= 2047"),
    (act_spec(peripheries=[{"kind": "normal"}]),
     "peripheries[0].kind: 'normal' is not 'coordinate', 'cyclic' or "
     "'factor'"),
    # read with no peripheries too: each once passed unread, to exit 0
    ({"group": {"kind": "FreeAbelian", "d": 2}, "radius": 2,
      "variant": "junk", "m": -4}, "variant: 'junk' is not an object"),
    (act_spec(peripheries=None, m=-4), "m: -4 is not a non-negative integer"),
    (act_spec(peripheries=[], variant={"kind": "Zz"}),
     "variant.kind: unknown variant 'Zz'"),
    # a coordinate subgroup is one of ℤᵈ only: `"coords": []` once built
    # the trivial subgroup on any group
    ({**F2_ACT, "peripheries": [{"kind": "coordinate", "coords": []}]},
     "peripheries[0].kind: 'coordinate' is a subgroup of FreeAbelian "
     "groups, not of Free"),
    ({**F2_ACT, "hwalls": [{**F2_ACT["hwalls"][0], "subgroup": {
        "kind": "coordinate", "coords": []}}]},
     "hwalls[0].subgroup.kind: 'coordinate' is a subgroup of FreeAbelian "
     "groups, not of Free"),
    (act_spec(group=F1_F1, hwalls=None,
              peripheries=[{"kind": "coordinate", "coords": []}]),
     "peripheries[0].kind: 'coordinate' is a subgroup of FreeAbelian "
     "groups, not of FreeProduct"),
    # likewise the other subgroup kinds, which once blamed the next field:
    # `peripheries[0].factor: 0 is not a factor position in range(0)`, or
    # `'a' is no word of` the group
    ({**F2_ACT, "peripheries": [{"kind": "factor", "factor": 0}]},
     "peripheries[0].kind: 'factor' is a subgroup of FreeProduct groups, "
     "not of Free"),
    (act_spec(peripheries=[{"kind": "cyclic", "word": "a"}]),
     "peripheries[0].kind: 'cyclic' is a subgroup of Free groups, not of "
     "FreeAbelian"),
    (act_spec(group=F1_F1, hwalls=None,
              peripheries=[{"kind": "cyclic", "word": "a"}]),
     "peripheries[0].kind: 'cyclic' is a subgroup of Free groups, not of "
     "FreeProduct"),
])
def test_cli_act_malformed_spec(tmp_path, spec, where):
    path = write(tmp_path, "act.json", json.dumps(spec))
    r = run_cli(["act", path])
    assert r.exit_code == 2 and r.exception is None
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


@pytest.mark.parametrize("changes, where", [
    ({"peripheries": [{"kind": "cyclic", "word": "aA"}]},
     "peripheries[0].word: 'aA' reduces to the identity"),
    ({"peripheries": [{"kind": "cyclic", "word": "b"},
                      {"kind": "cyclic", "word": "ax"}]},
     "peripheries[1].word: 'ax' is no word"),
    ({"peripheries": [{"kind": "cyclic", "word": 5}]},
     "peripheries[0].word: 5 is no word"),
    ({"hwalls": [{"subgroup": {"kind": "cyclic", "word": "abBA"},
                  "rule": "branch", "axis": "a"}]},
     "hwalls[0].subgroup.word: 'abBA' reduces to the identity"),
    ({"group": {"kind": "FreeAbelian", "d": 2}},
     "hwalls[0].subgroup.kind: 'cyclic' is a subgroup of Free groups, not "
     "of FreeAbelian"),
])
def test_cli_act_bad_cyclic_word(tmp_path, changes, where):
    # in a child process under a time bound: a word reducing to the
    # identity once made subgroup membership loop forever
    path = write(tmp_path, "act.json", json.dumps({**F2_ACT, **changes}))
    src = str(Path(wallcube.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-m", "wallcube.cli", "act", path],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 2 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


@pytest.mark.parametrize("spec, where", [
    ({**F2_ACT, "hwalls": [{"subgroup": {"kind": "cyclic", "word": "a"},
                            "rule": "branch"}]},
     "missing field hwalls[0].axis"),
    ({**F2_ACT, "hwalls": [{"subgroup": {"kind": "cyclic", "word": "a"},
                            "rule": "branch", "axis": "c"}]},
     "hwalls[0].axis: 'c' is not one of the generator letters"),
    ({**F2_ACT, "hwalls": [{"subgroup": {"kind": "cyclic", "word": "a"},
                            "rule": "branch", "axis": "ab"}]},
     "hwalls[0].axis: 'ab' is not one of the generator letters"),
    (act_spec(hwalls=[{"subgroup": {"kind": "coordinate", "coords": [1]},
                       "rule": "coordinate", "axis": 5}]),
     "hwalls[0].axis: 5 is not an axis in range(2)"),
    (act_spec(hwalls=[{"subgroup": {"kind": "coordinate", "coords": [1]},
                       "rule": "coordinate", "axis": True}]),
     "hwalls[0].axis: True is not an axis in range(2)"),
    (act_spec(hwalls=[{"subgroup": {"kind": "coordinate", "coords": [1]},
                       "rule": "coordinate"}]),
     "missing field hwalls[0].axis"),
])
def test_cli_act_bad_hwall_axis(tmp_path, spec, where):
    path = write(tmp_path, "act.json", json.dumps(spec))
    r = run_cli(["act", path])
    assert r.exit_code == 2 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


@pytest.mark.parametrize("spec, where", [
    ({**F2_ACT, "hwalls": [{"subgroup": {"kind": "cyclic", "word": "a"},
                            "rule": "coordinate", "axis": 0}]},
     "hwalls[0].rule: 'coordinate' is a rule of FreeAbelian groups, not of "
     "Free"),
    (act_spec(group={"kind": "FreeProduct", "factors": [
        {"kind": "FreeAbelian", "d": 2}, F1]}, hwalls=[
            {"subgroup": {"kind": "factor", "factor": 0},
             "rule": "coordinate", "axis": 0}], peripheries=None),
     "hwalls[0].rule: 'coordinate' is a rule of FreeAbelian groups, not of "
     "FreeProduct"),
    (act_spec(hwalls=[{"subgroup": {"kind": "coordinate", "coords": [1]},
                       "rule": "branch", "axis": "a"}]),
     "hwalls[0].rule: 'branch' is a rule of Free groups, not of "
     "FreeAbelian"),
], ids=["coordinate on F2", "coordinate on Z2*Z", "branch on Z2"])
def test_cli_act_rule_the_group_does_not_take(tmp_path, spec, where):
    # each once blamed the axis: `hwalls[0].axis: 0 is not an axis in
    # range(0)`, or the generator letters of a group that has none
    path = write(tmp_path, "act.json", json.dumps(spec))
    r = run_cli(["act", path])
    assert r.exit_code == 2 and r.stdout == ""
    assert json.loads(r.stderr) == {"error": "ParseError", "detail": where}


COORD_HWALL = {"subgroup": {"kind": "coordinate", "coords": [1]},
               "rule": "coordinate", "axis": 0}


@pytest.mark.parametrize("spec, where", [
    (act_spec(hwalls=[{**COORD_HWALL,
                       "subgroup": {"kind": "coordinate", "coords": [7]}}]),
     "hwalls[0].subgroup.coords: [7] is not a list of axes in range(2)"),
    (act_spec(hwalls=[{**COORD_HWALL,
                       "subgroup": {"kind": "coordinate", "coords": "x"}}]),
     "hwalls[0].subgroup.coords: 'x' is not a list of axes in range(2)"),
    (act_spec(peripheries=[{"kind": "coordinate", "coords": [0]},
                           {"kind": "coordinate", "coords": [7]}]),
     "peripheries[1].coords: [7] is not a list of axes in range(2)"),
    (act_spec(peripheries=[{"kind": "coordinate", "coords": "x"}]),
     "peripheries[0].coords: 'x' is not a list of axes in range(2)"),
    (act_spec(peripheries=[{"kind": "coordinate", "coords": [True]}]),
     "peripheries[0].coords: [True] is not a list of axes in range(2)"),
    (act_spec(hwalls=[{**COORD_HWALL, "rule": "diagonal"}]),
     "hwalls[0].rule: 'diagonal' is not 'branch' or 'coordinate'"),
    (act_spec(hwalls=[COORD_HWALL, {**COORD_HWALL, "rule": 3}]),
     "hwalls[1].rule: 3 is not 'branch' or 'coordinate'"),
])
def test_cli_act_bad_coords_or_rule(tmp_path, spec, where):
    # out-of-range coordinates once made a trivial subgroup and exit 0,
    # an unknown rule a domain error (exit 1)
    path = write(tmp_path, "act.json", json.dumps(spec))
    r = run_cli(["act", path])
    assert r.exit_code == 2 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


GRID1 = io.wallspace_to_dict(grid(1))    # a metric by edges
PATH3 = {"points": ["a", "b", "c"],      # a metric by table
         "walls": [{"index": 0, "left": ["a"], "right": ["b", "c"]}],
         "metric": {"table": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}}

# valid documents, each field of which the fuzz test below replaces, with
# the arguments of the command that reads them
FUZZ_DOCUMENTS = [
    (["validate"], GRID1),
    (["validate"], PATH3),
    (["build"], GRID1),
    (["verify"], PATH3),
    (["diagnose", "--property", "linear-separation"], GRID1),
    (["diagnose", "--property", "ball-ball"], PATH3),
    (["diagnose", "--property", "compact-wall"], GRID1),
    (["diagnose", "--property", "wall-wall"], PATH3),
    (["diagnose", "--property", "ball-wallnbd"], GRID1),
    (["diagnose", "--property", "wallnbd-wallnbd"], PATH3),
    (["diagnose", "--property", "packing"], GRID1),
    (["diagnose", "--property", "degree-profile"], PATH3),
    (["act"], act_spec(variant={"kind": "Ur", "r": 1}, m=1)),
    (["act"], {**F2_ACT, "peripheries": [{"kind": "cyclic", "word": "b"}],
               "variant": {"kind": "Ustar", "tau": 2}}),
    (["act"], act_spec(group=F1_F1, hwalls=None,
                       peripheries=[{"kind": "factor", "factor": 0}])),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def field_paths(doc, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from field_paths(value, path + (key,))


def replace_field(doc, path, value):
    if not path:
        return value
    copy = doc.copy()
    copy[path[0]] = replace_field(doc[path[0]], path[1:], value)
    return copy


@settings(max_examples=900, deadline=None)
@given(st.sampled_from(FUZZ_DOCUMENTS), st.data())
def test_cli_survives_any_field_value(command_doc, data):
    # one field, at any depth, replaced by any JSON value: the command
    # ends with an exit code, never with a traceback
    (command, *options), doc = command_doc
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    text = json.dumps(replace_field(doc, path, data.draw(JSON_VALUES)))
    r = run_cli([command, "-", *options], stdin=text)
    assert r.exception is None and r.exit_code in (0, 1, 2, 3), r.stderr


@pytest.mark.parametrize("args, where", [
    (["gen", "grid"], "grid needs a size N"),
    (["gen", "grid", "x"], "grid: size 'x' is not an integer"),
    (["gen", "cayley", "Z2"], "gen cayley takes GROUP RADIUS"),
    (["gen", "cayley", "Zx", "2"], "GROUP Zd: 'x' is not an integer"),
    (["gen", "cayley", "F2", "x"], "RADIUS: 'x' is not an integer"),
    (["sweep", "--generator", "rbad", "--ns", "2,x"],
     "--ns: 'x' is not an integer"),
    (["diagnose", "-", "--property", "ball-ball", "--params", "[1]"],
     "--params: [1] is not a JSON object"),
    # each of these once ended in a traceback, or ran to exit 0
    (["diagnose", "-", "--property", "linear-separation",
      "--params", '{"max_denominator": 0}'],
     "--params.max_denominator: 0 is not a positive integer"),
    (["diagnose", "-", "--property", "linear-separation",
      "--params", '{"max_denominator": "x"}'],
     "--params.max_denominator: 'x' is not a positive integer"),
    (["diagnose", "-", "--property", "linear-separation",
      "--params", '{"max_offset": "x"}'],
     "--params.max_offset: 'x' is not a non-negative number"),
    (["diagnose", "-", "--property", "ball-ball", "--params", '{"r": "x"}'],
     "--params.r: 'x' is not a non-negative integer"),
    (["diagnose", "-", "--property", "ball-ball", "--params", '{"r": -1}'],
     "--params.r: -1 is not a non-negative integer"),
    (["diagnose", "-", "--property", "ball-wallnbd", "--params", '{"Y": 5}'],
     "--params.Y: 5 is not a nonempty list of point names"),
    (["diagnose", "-", "--property", "compact-wall",
      "--params", '{"K": ["0,0", "9,9"]}'],
     "--params.K: ['0,0', '9,9'] is not a nonempty list of point names"),
    (["diagnose", "-", "--property", "packing",
      "--params", '{"subsets": [["0,0"], 3]}'],
     "--params.subsets: [['0,0'], 3] is not a list of lists of point names"),
    (["diagnose", "-", "--property", "packing", "--params", '{"D": -1}'],
     "--params.D: -1 is not a non-negative number"),
    (["diagnose", "-", "--property", "linear-separation",
      "--params", '{"max_offset": Infinity}'],
     "--params.max_offset: inf is not a finite non-negative number"),
    (["gen", "rbad", "0"], "rbad: size 0 is not >= 1"),
    (["gen", "grid", "-1"], "grid: size -1 is not >= 0"),
    (["gen", "geomPath", "-1"], "geomPath: size -1 is not >= 0"),
    (["sweep", "--generator", "rbad", "--ns", "2,0"],
     "rbad: size 0 is not >= 1"),
    # each of these once exited 1, or ran to exit 0
    (["gen", "cayley", "Z2", "-1"], "RADIUS: -1 is not >= 0"),
    (["gen", "cayley", "Z0", "1"], "GROUP Z0: need d >= 1"),
    (["gen", "cayley", "F30", "1"], "GROUP F30: need 1 <= rank <= 26"),
    (["gen", "grid", "3", "4"], "grid takes one size N, got also '4'"),
    (["gen", "fig3", "7"], "fig3 takes no argument, got '7'"),
    (["sweep", "--generator", "fig3", "--ns", "2"],
     "fig3 takes no argument, got 2"),
    # int() reads these as 10, 3, 10, 10 and 2: an integer argument is an
    # optional sign and ASCII digits
    (["gen", "grid", "1_0"], "grid: size '1_0' is not an integer"),
    (["gen", "grid", "\u0663"], "grid: size '\u0663' is not an integer"),
    (["sweep", "--generator", "grid", "--ns", "1_0"],
     "--ns: '1_0' is not an integer"),
    (["gen", "cayley", "Z1_0", "1"], "GROUP Zd: '1_0' is not an integer"),
    (["gen", "cayley", "Z2", " 2"], "RADIUS: ' 2' is not an integer"),
    # an empty K or Y once took the default
    (["diagnose", "-", "--property", "compact-wall", "--params", '{"K": []}'],
     "--params.K: [] is not a nonempty list of point names"),
    (["diagnose", "-", "--property", "ball-wallnbd", "--params", '{"Y": []}'],
     "--params.Y: [] is not a nonempty list of point names"),
    # once exit 1, an UnknownPoint
    (["build", "-", "--basepoint", "zz"],
     "--basepoint: 'zz' is not a point of the wallspace"),
    # each of these once ended in a traceback: a path in no directory,
    # and a directory
    (["build", "-", "--export", "no-such-directory/cc.json"],
     "--export: [Errno 2] No such file or directory"),
    (["build", "-", "--dot", "."], "--dot: [Errno 21] Is a directory"),
])
def test_cli_malformed_arguments(args, where):
    r = run_cli(args, stdin=run_cli(["gen", "grid", "2"]).stdout)
    assert r.exit_code == 2 and r.exception is None and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and where in err["detail"]


@pytest.mark.parametrize("prop, key", [
    ("linear-separation", "max_denominator"),
    ("linear-separation", "max_offset"), ("ball-ball", "r"),
    ("compact-wall", "K"), ("ball-wallnbd", "Y"), ("wallnbd-wallnbd", "r"),
    ("packing", "subsets"), ("packing", "D")])
def test_cli_diagnose_null_param_takes_its_default(prop, key):
    grid2 = run_cli(["gen", "grid", "2"]).stdout
    default = run_cli(["diagnose", "-", "--property", prop], stdin=grid2)
    r = run_cli(["diagnose", "-", "--property", prop,
                 "--params", json.dumps({key: None})], stdin=grid2)
    assert default.exit_code == 0 and r.exit_code == 0
    assert r.stdout == default.stdout


def test_cli_diagnose_empty_subsets_is_the_empty_family():
    # once read as absent, and so as the walls' carriers
    r = run_cli(["diagnose", "-", "--property", "packing",
                 "--params", '{"subsets": []}'],
                stdin=run_cli(["gen", "grid", "2"]).stdout)
    assert r.exit_code == 0
    rep = json.loads(r.stdout)["payload"]
    assert rep["k"] == 0 and rep["witness_family"] == []


@pytest.mark.parametrize("metric", [
    ({"table": [[0, float("-inf")], [float("-inf"), 0]]},
     "metric.table[0][1]: -inf is not a non-negative number"),
    ({"table": [[0, float("nan")], [float("nan"), 0]]},
     "metric.table[0][1]: nan is not a non-negative number"),
    ({"edges": [["a", "b", float("nan")]]},
     "metric.edges[0]: weight nan is not a non-negative number"),
    ({"edges": [["a", "b", -1]]},
     "metric.edges[0]: weight -1 is not a non-negative number"),
    ({"table": [[0, 1], [2, 0]]},
     "metric.table: metric table must be symmetric"),
    ({"table": [[1, 1], [1, 0]]},
     "metric.table: metric table must have zero diagonal"),
])
@pytest.mark.parametrize("args", [
    ["validate", "-"], ["diagnose", "-", "--property", "ball-ball"]])
def test_cli_rejects_a_metric_not_nonnegative(args, metric):
    # a parse error naming the field; json writes -Infinity and NaN, and
    # reads them back
    metric, detail = metric
    doc = {"points": ["a", "b"],
           "walls": [{"index": 0, "left": ["a"], "right": ["b"]}],
           "metric": metric}
    r = run_cli(args, stdin=json.dumps(doc))
    assert r.exit_code == 2 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr) == {"error": "ParseError", "detail": detail}


@pytest.mark.parametrize("args", [
    ["diagnose", "-", "--property", "packing", "--params",
     # a 4-cycle, with four maximal cliques
     '{"D": 1, "subsets": [["0,0"], ["0,1"], ["1,1"], ["1,0"]]}'],
    ["verify", "-", "--checks", "maximal-bijection"],
])
def test_cli_clique_search_cap_exit(monkeypatch, args):
    grid2 = run_cli(["gen", "grid", "2"]).stdout
    assert run_cli(args, stdin=grid2).exit_code == 0
    monkeypatch.setattr(metric_module, "MAX_CLIQUE_STATES", 2)
    r = run_cli(args, stdin=grid2)
    assert r.exit_code == 3 and r.exception is None
    assert "clique search" in json.loads(r.stderr)["detail"]


# the module attribute each cap a command prints is read from
CAP_SOURCES = {"points": (groups, "MAX_POINTS"),
               "names": (io, "MAX_NAMES"),
               "products": (groups, "MAX_PRODUCTS"),
               "vertices": (cli_module, "DEFAULT_VERTEX_CAP"),
               "clique_states": (metric_module, "MAX_CLIQUE_STATES")}


# caps below what act_spec() needs: its ball has 13 points, and a point cap
# under 5 would stop ℤ² as a parse error first (d <= (cap - 1) // 2)
ACT_CAPS = {"points": 12, "names": 1, "products": 1}
# a 4-cycle, with four maximal cliques
PACKING = '{"D": 1, "subsets": [["0,0"], ["0,1"], ["1,1"], ["1,0"]]}'


@pytest.mark.parametrize("args, doc, caps", [
    (["act"], act_spec(), {**ACT_CAPS, "vertices": 1}),
    (["act"], act_spec(peripheries=None), ACT_CAPS),
    (["diagnose", "--property", "degree-profile"], None, {"vertices": 1}),
    (["diagnose", "--property", "packing", "--params", PACKING], None,
     {"clique_states": 1}),
    (["verify"], None, {"vertices": 1, "clique_states": 1}),
    (["verify", "--checks", "npc"], None, {"vertices": 1}),
    (["validate"], None, {}),
], ids=["act", "act-no-dual", "degree-profile", "packing", "verify",
        "verify-npc", "validate"])
def test_cli_prints_every_cap_it_can_stop_at(monkeypatch, args, doc, caps):
    # on an act spec, or else on grid 2: the caps printed are the limits
    # checked, and each one, lowered to the value given, below what the run
    # needs, stops it with exit 3
    stdin = json.dumps(doc) if doc else run_cli(["gen", "grid", "2"]).stdout
    args = [args[0], "-", *args[1:]]
    r = run_cli(args, stdin=stdin)
    assert r.exit_code == 0
    assert json.loads(r.stdout)["caps"] == {
        cap: getattr(*CAP_SOURCES[cap]) for cap in caps}
    for cap, lowered in caps.items():
        with monkeypatch.context() as m:
            m.setattr(*CAP_SOURCES[cap], lowered)
            r = run_cli(args, stdin=stdin)
        assert r.exit_code == 3 and r.exception is None and r.stdout == ""
        assert json.loads(r.stderr)["error"] == "StateSpaceCap"


def test_cli_act_product_cap_exit(tmp_path, monkeypatch):
    # one H-wall on the 13-point ball of radius 2, with 5 keys and 4
    # members but the identity: 117 group products
    path = write(tmp_path, "act.json", json.dumps(act_spec()))
    assert run_cli(["act", path]).exit_code == 0
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 117)
    assert run_cli(["act", path]).exit_code == 0
    monkeypatch.setattr(groups, "MAX_PRODUCTS", 116)
    r = run_cli(["act", path])
    assert r.exit_code == 3 and r.exception is None and r.stdout == ""
    assert json.loads(r.stderr)["detail"] == \
        "H-wall system needs at least 117 group products, exceeds cap 116"


def cold_act_spec(variant):
    """The act spec of the cli-cold benchmark workload."""
    return {
        "group": {"kind": "FreeAbelian", "d": 2},
        "radius": 3,
        "hwalls": [
            {"subgroup": {"kind": "coordinate", "coords": [1]},
             "rule": "coordinate", "axis": 0},
            {"subgroup": {"kind": "coordinate", "coords": [0]},
             "rule": "coordinate", "axis": 1},
        ],
        "peripheries": [{"kind": "coordinate", "coords": [0]},
                        {"kind": "coordinate", "coords": [1]}],
        "variant": variant,
    }


# sha256 of the standard output, recorded from the normal-form metric and
# the stack-reduced products that the Cayley-ball layer replaced; re-recorded
# when `gen`'s caps became the limits it checks and `act` dropped its
# always-constant keys, and when `act`'s caps became the limits it checks,
# every other byte unchanged
GROUP_OUTPUT_RECORDED = [
    (["gen", "cayley", "Z2", "5"], None,
     "82d7873350077daa9299095ad757c75fcaf0b3e9fcc348e3c651af50a48c07fb"),
    (["gen", "cayley", "F2", "4"], None,
     "b2c36b122bbfe7b65a938d60d9f96c543bd9d327c9d321bb646d89ce236955fc"),
    (["act"], cold_act_spec({"kind": "U0"}),
     "dc2f9df2575cd114503f9389b199ce84901e844a3805de81859c07c3ee01dbba"),
    (["act"], cold_act_spec({"kind": "Ur", "r": 1}),
     "d822c5d76cd77fba05bb3e9aaea92864063f472b1439c9180081f0c9fb9f8652"),
    # recorded from the translates that took a product per point: a branch
    # H-wall of F3 sends a word that does not extend the key, by either of
    # its two other letters, to one side
    (["gen", "cayley", "F3", "3"], None,
     "f91ce24e87309a0850ae6df22115f673efdcbfa527220575e55dc54209bca73a"),
]


@pytest.mark.parametrize("args, spec, digest", GROUP_OUTPUT_RECORDED,
                         ids=["cayley Z2 5", "cayley F2 4", "act U0",
                              "act Ur", "cayley F3 3"])
def test_cli_group_output_recorded(tmp_path, args, spec, digest):
    if spec is not None:
        args = args + [write(tmp_path, "act.json", json.dumps(spec))]
    r = run_cli(args)
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_cli_act_library_key_error_surfaces(tmp_path, monkeypatch):
    # only the spec is read as a document: a KeyError raised by the
    # computation is a bug and must not pass for a parse error
    from wallcube import groups

    def broken(ball, hws):
        raise KeyError("bug")

    monkeypatch.setattr(groups, "generate_hwall_system", broken)
    path = write(tmp_path, "act.json", json.dumps(act_spec()))
    r = run_cli(["act", path])
    assert r.exit_code == 1 and isinstance(r.exception, KeyError)


DIAGNOSE_PROPERTIES = [
    ("linear-separation", "{}"), ("ball-ball", "{}"),
    ("ball-ball", '{"r": 1}'), ("compact-wall", "{}"), ("wall-wall", "{}"), ("ball-wallnbd", "{}"),
    ("wallnbd-wallnbd", "{}"), ("packing", "{}"), ("degree-profile", "{}")]


# sha256 of exit code, stdout and stderr of every property in turn;
# re-recorded when `gen`'s caps changed, which moves each input_digest, and
# when `degree-profile` and `packing` came to print the caps they check
DIAGNOSE_RECORDED = {
    "fig3":
        "91a3db148356d540def83673fdfde083b10c195b7fdc46eafd5b83bf1ab689b9",
    "grid 7":
        "02ab04f7a16261907b67090f5612374a1d5a6883adf771468edfdb49ae4ca6e4",
    "rbad 4":
        "10c8970cf62bbd3ecb89a18e597f79fab9f0eb716f9a83b553ed93d434cf9a96",
    "rbad 8":
        "bb95c200bb2cea1f2a9d05c0a18b40fd7ea2080df7f68004253c82297de2058f",
    "cayley Z2 3":
        "2127320dc53b3b48db6144fd82a9ecf4c15e66182841a4d4ce895d4ea45ea7f3",
    "cayley Z2 5":
        "6809358ec55fdb52ce7031e11894acd9b216c5885541643a3dca052157b6b4eb",
    "cayley F2 3":
        "62767c2079998abc3c748b2fecfb45e0f9afb54b7a954838cd84a4102e829b6c",
}


@pytest.mark.parametrize("gen", DIAGNOSE_RECORDED)
def test_cli_diagnose_recorded(gen):
    # exit code, stdout and stderr of every property, recorded from the
    # per-wall-loop predicates that the separation index replaced (fig3
    # has no metric: each metric property is the same exit-1 error)
    doc = run_cli(["gen", *gen.split()]).stdout
    h = hashlib.sha256()
    for prop, params in DIAGNOSE_PROPERTIES:
        r = run_cli(["diagnose", "-", "--property", prop, "--params", params],
                    stdin=doc)
        h.update(f"{r.exit_code}\n{r.stdout}\n{r.stderr}\n".encode())
    assert h.hexdigest() == DIAGNOSE_RECORDED[gen]


# sha256 of the bytes a command writes, recorded from json.dumps(...,
# indent=2), the encoder that io.dumps replaced; `gen` re-recorded when its
# caps changed, `verify` with the input_digest that moved with them and
# when it came to print its clique-state cap
OUTPUT_RECORDED = {
    "gen grid 7":
        "ffb3f5331d119052bccad326a36c9e75accaabd394392c09a943d7de35d8d89b",
    "gen rbad 8":
        "840f34f6b4166bd2aa370943d8ed3dffbfe797d946264b4f274bdc57ba876b1b",
    "verify rbad 4":
        "ecb3176763c03c4fc5734ec38842feb2d572136cdb592490593e1a1dc35890b8",
    "build rbad 4 --export":
        "ffa2eebe1f9c4681a8008384d323878478f155a1c94ccac084fcc4b4a09e8ff7",
}


@pytest.mark.parametrize("command", OUTPUT_RECORDED)
def test_cli_output_recorded(tmp_path, command):
    if command.startswith("gen"):
        r = run_cli(command.split())
        assert r.exit_code == 0
        text = r.stdout
    else:
        path = write(tmp_path, "rbad4.json",
                     run_cli(["gen", "rbad", "4"]).stdout)
        if command.startswith("verify"):
            r = run_cli(["verify", path])
            text = r.stdout
        else:
            export = tmp_path / "cc.json"
            r = run_cli(["build", path, "--export", str(export)])
            text = export.read_text()
        assert r.exit_code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == OUTPUT_RECORDED[command]


def test_cli_sweep():
    r = run_cli(["sweep", "--generator", "grid", "--ns", "1,2",
                 "--property", "degree-profile"])
    assert r.exit_code == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,vertices,max_degree,dimension"
    assert lines[1].startswith("1,4,") and lines[2].startswith("2,9,")


def test_cli_sweep_compact_wall():
    r = run_cli(["sweep", "--generator", "rbad", "--ns", "2,4",
                 "--property", "compact-wall"])
    assert r.exit_code == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,verdict,f"
    assert all(line.split(",")[1] == "holds" for line in lines[1:])


@pytest.mark.parametrize("doc, verdict, value", [
    # c is in no metric edge, so the one wall's region, its frontiers, is
    # empty and at infinite distance from K; no other wall separates it,
    # so no f works.  This once said "holds", as inf passed f <= diameter
    ({"points": ["a", "b", "c"],
      "walls": [{"index": 0, "left": ["a", "b"], "right": ["c"]}],
      "metric": {"edges": [["a", "b", 1]]}}, "fails", metric_module.INF),
    # wall 1's region {d, e} is out of reach of K, and wall 0 separates
    # it, so it bounds no f: f sits just above wall 0 at distance 1
    ({"points": ["a", "b", "c", "d", "e"],
      "walls": [{"index": 0, "left": ["a", "b"], "right": ["c", "d", "e"]},
                {"index": 1, "left": ["a", "b", "c", "d"], "right": ["e"]}],
      "metric": {"edges": [["a", "b", 1], ["b", "c", 1], ["d", "e", 1]]}},
     "holds", 2),
], ids=["unseparated", "separated"])
def test_cli_compact_wall_with_a_wall_out_of_reach(tmp_path, doc, verdict,
                                                   value):
    path = write(tmp_path, "far.json", json.dumps(doc))
    r = run_cli(["diagnose", path, "--property", "compact-wall",
                 "--params", '{"K": ["a"]}'])
    assert r.exit_code == 0
    payload = json.loads(r.stdout)["payload"]
    assert (payload["verdict"], payload["value"], payload["witnesses"]) == \
        (verdict, value, [[0]])


@pytest.mark.parametrize("args", [
    [],                                # no command
    ["mystery"],                       # no such command
    ["diagnose", "x.json"],            # --property is required
    ["gen", "fig3", "--seed", "x"],    # not an integer
    # each of these once exited 1 or 3, after reading the file
    ["diagnose", "x.json", "--property", "bogus"],
    ["sweep", "--generator", "grid", "--ns", "1", "--property", "bogus"],
    ["verify", "x.json", "--checks", "bogus"],
    ["verify", "x.json", "--checks", "npc,,npc"],
    ["build", "x.json", "--cap-vertices", "-1"],
    ["verify", "x.json", "--cap-vertices", "-1"],
    # int() reads these as 10 and 3
    ["gen", "fig3", "--seed", "1_0"],
    ["build", "x.json", "--cap-vertices", "\u0663"],
    ["verify", "x.json", "--seed", "\u0663"],
])
def test_cli_usage_error(args):
    r = run_cli(args)
    assert r.exit_code == 2 and r.stdout == ""
    assert "usage: wallcube" in r.stderr


CLI_OPTIONS = {
    "validate": [],
    "gen": ["--seed"],
    "build": ["--basepoint", "--export", "--dot", "--cap-vertices"],
    "verify": ["--checks", "--seed", "--cap-vertices"],
    "diagnose": ["--property", "--params"],
    "act": [],
    "sweep": ["--generator", "--ns", "--property"],
}


@pytest.mark.parametrize("command", CLI_OPTIONS)
def test_cli_help(command):
    r = run_cli([command, "--help"])
    assert r.exit_code == 0 and r.stderr == ""
    for option in ["--help", *CLI_OPTIONS[command]]:
        assert option in r.stdout
