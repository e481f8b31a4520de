"""cli-cold: the README pipeline as cold `python -m wallcube.cli` processes.

A pass generates five wallspaces with `gen`, then runs validate, build
(with --export and --dot), verify, three diagnose properties, sweep and
act: 13 commands, an odd number, so the median op is one command's
latency and not the midpoint between two.
The seed picks which generated file each command reads and the act
variant.  Only command/input pairs that exit 0 at the commit that defined
the benchmark are used: `verify` exits 3 on rbad 4 and F2 radius 3 (over
the 2^walls cap) and `diagnose` exits 1 on fig3 (no metric).

Each command's output is compared with the same computation made in this
process through the library, and every `gen` document must round-trip
bit-exact through the parser.
"""

import json
import random

from wallcube import InducedVariant, build_dual
from wallcube import generators, groups, io, separation

from harness import expect, run_child
from paper_families import axis_peripheries, f2_system, z2_system

GENS = {
    "fig3": ["fig3"],
    "grid7": ["grid", "7"],
    "rbad4": ["rbad", "4"],
    "z2r3": ["cayley", "Z2", "3"],
    "f2r3": ["cayley", "F2", "3"],
}
VERIFY_INPUTS = ["fig3", "grid7", "z2r3"]
METRIC_INPUTS = ["grid7", "rbad4", "z2r3", "f2r3"]
SWEEP_NS = (2, 4, 8)
ACT_RADIUS = 3
EXIT_OK = 0


def reference_wallspace(name):
    if name == "z2r3":
        return z2_system(3)[1]
    if name == "f2r3":
        return f2_system(3)[1]
    args = GENS[name]
    return generators.generate(args[0], *args[1:])


def normalized(obj):
    """The value as it reads back from the CLI's JSON."""
    return json.loads(io.dumps(obj))


def act_spec(variant):
    return {
        "group": {"kind": "FreeAbelian", "d": 2},
        "radius": ACT_RADIUS,
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


def act_reference(variant):
    spec = groups.FreeAbelian(2)
    ball, ws = z2_system(ACT_RADIUS)
    cc = build_dual(ws, ws.points[0])
    rep = groups.rel_cocompact_check(
        ws, cc, axis_peripheries(ball, spec),
        InducedVariant(variant["kind"], r=variant.get("r", 0)))
    return normalized(io.wallspace_to_dict(ws)), normalized(rep.to_dict())


def sweep_reference():
    lines = ["n,vertices,max_degree,dimension"]
    for n in SWEEP_NS:
        cc = build_dual(generators.rbad(n), "0")
        lines.append(f"{n},{cc.nvertices()},{cc.max_degree()},"
                     f"{cc.dimension()}")
    return "\n".join(lines) + "\n"


class Pipeline:
    def __init__(self, seed, workdir):
        rng = random.Random(f"cli-cold:{seed}")
        self.dir = workdir
        self.refs = {name: reference_wallspace(name) for name in GENS}
        self.docs = {name: normalized(io.wallspace_to_dict(ws))
                     for name, ws in self.refs.items()}
        self.validate_in = rng.choice(sorted(GENS))
        self.build_in = rng.choice(sorted(GENS))
        self.verify_in = rng.choice(VERIFY_INPUTS)
        self.linear_in = rng.choice(METRIC_INPUTS)
        self.compact_in = rng.choice(METRIC_INPUTS)
        self.wall_wall_in = rng.choice(METRIC_INPUTS)
        variant = rng.choice([{"kind": "U0"}, {"kind": "Ur", "r": 1}])
        (workdir / "act.json").write_text(json.dumps(act_spec(variant)))
        self.act_ref = act_reference(variant)
        ws = self.refs[self.build_in]
        self.build_ref = normalized(
            io.complex_summary(build_dual(ws, ws.points[0])))
        ws = self.refs[self.linear_in]
        self.linear_ref = normalized(
            separation.linear_separation_fit(ws).to_dict())
        ws = self.refs[self.compact_in]
        self.compact_ref = normalized(
            separation.compact_wall_separation(ws, [ws.points[0]]).to_dict())
        ws = self.refs[self.wall_wall_in]
        self.wall_wall_ref = normalized(
            separation.wall_wall_separation(ws).to_dict())
        self.sweep_ref = sweep_reference()

    def cli(self, tr, command, *args):
        """Run one command; returns its stdout after checking the exit
        code."""
        r = tr.call(f"cli.{command}", run_child,
                    ["-m", "wallcube.cli", command, *args], cwd=self.dir)
        expect(r.returncode == EXIT_OK,
               f"{command} {' '.join(args)} exited {r.returncode}: "
               f"{r.stderr.strip()[-300:]}")
        tr.output(r.stdout)
        return r.stdout

    def payload(self, tr, command, *args):
        return json.loads(self.cli(tr, command, *args))["payload"]

    def ops(self):
        out = []

        def add(label, fn, *args):
            def op(tr):
                fn(tr, *args)

            op.label = f"cli-cold/{label}"
            out.append(op)

        for name in GENS:
            add(f"gen {name}", self.gen, name)
        add("validate", self.validate)
        add("build", self.build)
        add("verify", self.verify)
        add("diagnose linear", self.diagnose_linear)
        add("diagnose compact", self.diagnose_compact)
        add("diagnose wall-wall", self.diagnose_wall_wall)
        add("sweep", self.sweep)
        add("act", self.act)
        return out

    def gen(self, tr, name):
        text = self.cli(tr, "gen", *GENS[name])
        expect(io.dumps(io.loads(text)) == text,
               f"gen {name}: artifact does not round-trip bit-exact")
        doc = io.loads(text)["payload"]
        expect(doc == self.docs[name], f"gen {name}: != library generator")
        again = io.dumps(io.wallspace_to_dict(io.wallspace_from_dict(doc)))
        expect(again == io.dumps(doc),
               f"gen {name}: wallspace does not round-trip bit-exact")
        (self.dir / f"{name}.json").write_text(text)

    def validate(self, tr):
        rep = self.payload(tr, "validate", f"{self.validate_in}.json")
        expect(rep["ok"] is True, "validate: not ok")

    def build(self, tr):
        summary = self.payload(tr, "build", f"{self.build_in}.json",
                               "--export", "cc.json", "--dot", "cc.dot")
        expect(summary == self.build_ref, "build: summary != library")
        counts = {int(k): v for k, v in summary["cubes_by_dim"].items()}
        tr.count("complex.vertices", counts[0])
        tr.count("complex.edges", counts[1])
        tr.count("complex.cubes",
                 sum(c for k, c in counts.items() if k >= 2))
        tr.count("complex.cells", sum(counts.values()))
        tr.maximum("complex.max_dim", summary["dimension"])
        export = (self.dir / "cc.json").read_text()
        dot = (self.dir / "cc.dot").read_text()
        tr.output(export)
        tr.output(dot)
        doc = json.loads(export)
        expect(len(doc["vertices"]) == counts[0]
               and len(doc["edges"]) == counts[1]
               and len(doc["cubes"]) == sum(c for k, c in counts.items()
                                            if k >= 2),
               "build: export counts != summary")
        expect(dot.count("\n") == counts[0] + counts[1] + 2,
               "build: DOT line count != V + E + 2")

    def verify(self, tr):
        rep = self.payload(tr, "verify", f"{self.verify_in}.json")
        expect(rep["ok"] is True and len(rep["checks"]) == 5,
               f"verify {self.verify_in}: {rep}")

    def diagnose_linear(self, tr):
        rep = self.payload(tr, "diagnose", f"{self.linear_in}.json",
                           "--property", "linear-separation")
        expect(rep == self.linear_ref, "diagnose linear: != library")

    def diagnose_compact(self, tr):
        rep = self.payload(tr, "diagnose", f"{self.compact_in}.json",
                           "--property", "compact-wall")
        expect(rep == self.compact_ref, "diagnose compact: != library")

    def diagnose_wall_wall(self, tr):
        rep = self.payload(tr, "diagnose", f"{self.wall_wall_in}.json",
                           "--property", "wall-wall")
        expect(rep == self.wall_wall_ref, "diagnose wall-wall: != library")

    def sweep(self, tr):
        csv = self.cli(tr, "sweep", "--generator", "rbad", "--ns",
                       ",".join(str(n) for n in SWEEP_NS))
        expect(csv == self.sweep_ref, "sweep: CSV != library")

    def act(self, tr):
        payload = self.payload(tr, "act", "act.json")
        ws_ref, decomposition_ref = self.act_ref
        expect(payload["wallspace"] == ws_ref, "act: wallspace != library")
        expect(payload["decomposition"] == decomposition_ref,
               "act: decomposition != library")
        expect(all(r["ok"] for r in payload["hwall_reports"]),
               "act: H-wall report not ok")


def setup(seed, workdir):
    return Pipeline(seed, workdir).ops()
