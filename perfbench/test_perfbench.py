"""Tests of the benchmark itself: `python -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, NullTracer, Tracer, measure  # noqa: E402

sys.path.insert(0, str(SRC))

import oracle_corpus  # noqa: E402
import paper_families  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_pass(module, seed, tmp_path):
    tr = Tracer()
    result = measure(module.setup(seed, tmp_path), 0, tr)
    return result, tr


@pytest.mark.parametrize("module", [oracle_corpus, paper_families])
def test_same_seed_same_work_and_outputs(module, tmp_path):
    (a, tr_a), (b, tr_b) = (one_pass(module, 5, tmp_path),
                            one_pass(module, 5, tmp_path))
    assert a.failed == b.failed == 0
    assert a.attempted == b.attempted
    assert tr_a.counts == tr_b.counts
    assert tr_a.maxima == tr_b.maxima
    assert tr_a.calls == tr_b.calls
    assert tr_a.digest.hexdigest() == tr_b.digest.hexdigest()
    assert tr_a.counts["complex.cells"] > 0


def test_seeds_change_the_corpus():
    a = [inst.doc for inst in oracle_corpus.draw_corpus(1)]
    b = [inst.doc for inst in oracle_corpus.draw_corpus(2)]
    assert a != b
    assert len(a) == len(b) == sum(oracle_corpus.BANDS.values())


def test_brute_force_oracle_on_a_square():
    # two transverse walls on four points: the dual is one square
    walls = [(0b0011, 0b1100), (0b0101, 0b1010)]
    vertices = oracle_corpus.oracle_vertices(walls)
    assert vertices == [0, 1, 2, 3]
    assert oracle_corpus.oracle_cube_counts(vertices, 2) == \
        {0: 4, 1: 4, 2: 1}


def test_wrong_answer_counts_as_failure():
    insts = oracle_corpus.draw_corpus(3)[:2]
    insts[1].counts = dict(insts[1].counts)
    insts[1].counts[0] += 1
    ops = [oracle_corpus.make_op(inst, 3, i) for i, inst in enumerate(insts)]
    result = measure(ops, 0, NullTracer())
    assert (result.attempted, result.failed) == (2, 1)


def test_wrong_expected_value_counts_as_failure(tmp_path, monkeypatch):
    wrong = dict(paper_families.EXPECTED["grid7"], packing=1)
    monkeypatch.setitem(paper_families.EXPECTED, "grid7", wrong)
    ops = [op for op in paper_families.setup(4, tmp_path)
           if op.label == "grid7/packing"]
    assert measure(ops, 0, NullTracer()).failed == 1


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    r = run_cli(["--workload", "oracle-corpus", "--seed", "2",
                 "--seconds", "0", "--trace", str(trace)], HERE.parent)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = run_cli(["--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert r.returncode != 0
    assert r.stdout == ""


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == \
        sorted(w["name"] for w in BENCHMARK["workloads"])
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
