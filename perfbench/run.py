"""The wallcube benchmark: one command, three workloads.

    python3 perfbench/run.py --workload oracle-corpus --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from `src/`.
`--workload all` runs the three workloads in turn.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  See README.md in this directory.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from statistics import median

from harness import (
    OUT,
    SRC,
    NullTracer,
    Tracer,
    cold_import_s,
    measure,
    peak_rss_mb,
    percentile,
    run_child,
    run_metadata,
)

SETUP_REPEATS = 3
START_SAMPLES = 3
LIBRARY_IMPORTS = ["wallcube", "wallcube.io", "wallcube.separation",
                   "wallcube.groups", "wallcube.generators"]
CLI_IMPORTS = ["wallcube.cli"]

# name -> (module, modules a cold start imports, tail percentile, whether
# child processes count toward peak RSS).  The tail percentile is the
# highest of 50/75/90/95/99 that leaves at least ten ops beyond it in a
# run of BENCHMARK.json's run_seconds at the commit that defined the
# benchmark, with room for a slower machine; it is fixed so that the metric
# means the same thing in every run.
WORKLOADS = {
    "oracle-corpus": ("oracle_corpus", LIBRARY_IMPORTS, 95, False),
    "paper-families": ("paper_families", LIBRARY_IMPORTS, 90, False),
    "cli-cold": ("cli_cold", CLI_IMPORTS, 50, True),
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELF_S_LAYERS = [
    "complex.build_dual",
    "complex.enumerate_all_orientations",
    "complex.verify_npc",
    "complex.contract_loop",
    "complex.maximal_cubes",
    "complex.cube_distance",
    "complex.canonical_cube",
    "complex.export_dict",
    "hemi.induce_hemi",
    "hemi.dual_sub",
    "hemi.is_convex",
    "separation.linear_separation_fit",
    "separation.ball_ball_separation",
    "separation.compact_wall_separation",
    "separation.wall_wall_separation",
    "separation.bounded_packing_number",
    "wallspace.validate",
    "wallspace.max_transverse_families",
    "wallspace.separation_count",
    "groups.cayley_ball",
    "groups.generate_hwall_system",
    "groups.rel_cocompact_check",
    "io.wallspace_from_dict",
    "io.dumps",
    "io.skeleton_dot",
    "harness.op",
]
COUNTS = ["complex.vertices", "complex.edges", "complex.cubes",
          "complex.cells", "io.bytes_out"]
CLI_COMMANDS = ["gen", "validate", "build", "verify", "diagnose", "sweep",
                "act"]


def set_up(module, imports, seed, workdir):
    """Set up SETUP_REPEATS times: a cold interpreter importing what the
    workload imports, then input generation and warm-up in this process.
    Returns the last pass's ops and the median set-up seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _import_s = cold_import_s(imports)
        t0 = time.perf_counter()
        ops = module.setup(seed, workdir)
        times.append(wall + time.perf_counter() - t0)
    return ops, median(times)


def end_to_end(result, setup_s, tail_pct, children):
    ms = [x * 1000 for x in result.latencies]
    return {
        "ops_per_s": result.ops_per_s,
        "op_p50_ms": median(ms),
        "op_tail_ms": percentile(ms, tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children),
    }


def start_costs():
    """Median seconds of a bare interpreter and of `import wallcube.cli`
    inside a fresh one."""
    interp = []
    imports = []
    for _ in range(START_SAMPLES):
        t0 = time.perf_counter()
        r = run_child(["-c", "pass"])
        interp.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise RuntimeError("bare interpreter failed")
        imports.append(cold_import_s(CLI_IMPORTS)[1])
    return median(interp), median(imports)


def per_layer(untraced, traced, tr):
    """Per-layer metrics of the traced run, per pass of the workload."""
    passes = traced.passes
    out = {}
    for name in SELF_S_LAYERS:
        out[f"{name}.self_s"] = (tr.self_s[name] / passes, "s")
    out["complex.enumerate_all_orientations.calls"] = (
        tr.calls["complex.enumerate_all_orientations"] / passes, "count")
    for name in COUNTS:
        unit = "B" if name == "io.bytes_out" else "count"
        out[name] = (tr.counts[name] / passes, unit)
    out["complex.max_dim"] = (tr.maxima.get("complex.max_dim", 0), "count")
    interp_s, import_s = start_costs()
    out["cli.interp_s"] = (interp_s, "s")
    out["cli.import_s"] = (import_s, "s")
    for command in CLI_COMMANDS:
        d = tr.durations(f"cli.{command}")
        out[f"cli.{command}.p50_ms"] = (median(d) * 1000 if d else 0.0,
                                        "ms")
    out["trace.overhead_ratio"] = (traced.ops_per_s / untraced.ops_per_s,
                                   "ratio")
    return out


def run_workload(name, seed, seconds, trace):
    module_name, imports, tail_pct, children = WORKLOADS[name]
    module = importlib.import_module(module_name)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_s = set_up(module, imports, seed, workdir)
        if trace:
            untraced = measure(ops, seconds / 2, NullTracer())
            tr = Tracer()
            traced = measure(ops, seconds / 2, tr)
            metrics = per_layer(untraced, traced, tr)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            result = traced
        else:
            result = measure(ops, seconds, NullTracer())
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                       end_to_end(result, setup_s, tail_pct,
                                  children).items()}
            attempted, failed = result.attempted, result.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = dict(run_metadata(), workload=name, seed=seed, seconds=seconds,
                trace=trace, passes=result.passes, ops_per_pass=len(ops),
                tail_percentile=tail_pct)
    if trace:
        tr.write(OUT / f"trace-{name}-seed{seed}.json", meta)
    print(f"# {name} seed {seed} trace {trace}: {result.passes} passes of "
          f"{len(ops)} ops in {result.elapsed:.1f} s")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "op_tail_ms":
            beyond = attempted - -(-attempted * tail_pct // 100)
            note = f"  (p{tail_pct} of {attempted} ops, {beyond} beyond)"
        print(f"{key:48s} {value:14.6g} {unit}{note}")
    print(f"{'fail_ratio':48s} {failed / attempted:14.6g} "
          f"({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wallcube" / "__init__.py").is_file():
        print(f"no wallcube sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
