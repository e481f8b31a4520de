"""Closed-loop measurement, spans and run metadata for the wallcube benchmark.

Load comes from one caller in one thread: the next op starts when the
previous one ends.  A run executes whole passes over a workload's fixed op
list until at least the requested number of seconds has elapsed, so every
run measures the same mix of ops however many passes fit.
"""

import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class Mismatch(Exception):
    """An op's output disagrees with its oracle or closed form."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def child_env():
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(argv, cwd=None, timeout=120):
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def cold_import_s(modules):
    """(wall seconds of a fresh interpreter importing `modules`, seconds the
    import itself took inside it)."""
    code = ("import time; t = time.perf_counter(); "
            f"import {', '.join(modules)}; "
            "print(time.perf_counter() - t)")
    t0 = time.perf_counter()
    r = run_child(["-c", code])
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError(f"cold import failed: {r.stderr.strip()}")
    return wall, float(r.stdout.strip())


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def maximum(self, name, value):
        pass

    def output(self, text):
        pass


class Tracer:
    """Spans around calls into the library, kept in memory.

    A span is (op id, name, start, end, parent span index or -1).  Self time
    is a span's duration minus the time its child spans cover.  Counts and
    an output digest are kept at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.digest = hashlib.sha256()
        self.op = -1
        self._stack = []  # [span index, child seconds]

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _index, child = self._stack.pop()
            self.spans[index] = (self.op, name, start, end, parent)
            self.self_s[name] += end - start - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += end - start

    def count(self, name, n=1):
        self.counts[name] += n

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def output(self, text):
        """Feed an op's serialized output into the run digest."""
        data = text.encode() if isinstance(text, str) else text
        self.count("io.bytes_out", len(data))
        self.digest.update(data)

    def durations(self, name):
        return [end - start for _op, n, start, end, _p in self.spans
                if n == name]

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["op", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def warm_up(ops):
    """Run `ops` once outside the measurement, so that first-call costs are
    paid.  A failing op is not counted here: it fails again, and is counted,
    in the measured passes."""
    for fn in ops:
        try:
            fn(NullTracer())
        except Exception:
            pass


class Result:
    def __init__(self, latencies, failed, passes, elapsed):
        self.latencies = latencies
        self.attempted = len(latencies)
        self.failed = failed
        self.passes = passes
        self.elapsed = elapsed

    @property
    def ops_per_s(self):
        """Ops completed per second over the whole run.  On a machine whose
        speed drifts, this spreads less from run to run than the rate of
        the median pass."""
        return self.attempted / self.elapsed


def measure(ops, seconds, tracer):
    """Run whole passes over `ops` until `seconds` have elapsed (at least
    one pass).  Each op is `fn(tracer)` and raises on a wrong answer; an
    exception counts as a failed op and its traceback goes to stderr."""
    latencies = []
    failed = 0
    passes = 0
    t0 = time.perf_counter()
    while True:
        for fn in ops:
            tracer.op = len(latencies)
            start = time.perf_counter()
            try:
                tracer.call("harness.op", fn, tracer)
            except Exception:
                failed += 1
                print(f"op {getattr(fn, 'label', fn)} failed:",
                      file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            latencies.append(time.perf_counter() - start)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return Result(latencies, failed, passes, elapsed)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def run_metadata():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                rev = r.stdout.strip()
        except OSError:
            pass
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "click": version("click"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
