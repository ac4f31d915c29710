"""Smoke tests of the benchmark itself (toy inputs, a second or so per run).

Run from the repository root: ``python3 -m pytest embedbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "embedbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(workload, trace):
    out = smoke(workload, 1, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["embed-mesh", "serve-mix"])
def test_held_out_seed_is_correct_and_differs(workload):
    out = smoke(workload, 2, 0)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"], out.stderr
    assert workloads.serve_job_specs(1, smoke=True) != workloads.serve_job_specs(2, smoke=True)
    grid = ["grid", 4, 4]
    assert workloads.shuffled_edges(grid, 1) != workloads.shuffled_edges(grid, 2)


def test_planted_wrong_rotation_is_counted_as_failed(monkeypatch):
    honest = run.embed_child

    def planted(graph, traced):
        out = honest(graph, traced)
        rotation = out["rotation"]
        v = next(v for v, order in rotation.items() if len(order) >= 3)
        first, second, *rest = rotation[v]
        rotation[v] = (second, first, *rest)
        return out

    monkeypatch.setattr(run, "embed_child", planted)
    inputs = workloads.embed_inputs("embed-mesh", 1, smoke=True)[:2]
    checker = run.Checker({label: graph.edges() for label, graph in inputs})
    p = run.run_embed_pass(inputs, checker, traced=False)
    assert len(p.failures) == 2
    assert all("not a planar embedding" in f for f in p.failures)


def test_planted_serve_verdicts_are_counted_as_failed():
    from repro import distributed_planar_embedding
    from repro.serve import parse_job

    edges = workloads.shuffled_edges(["grid", 3, 3], 1)
    k5 = workloads.subdivided_edges(workloads.K5, 2)
    rotation = distributed_planar_embedding(parse_job({"edges": edges}).graph).rotation
    wrong = {repr(v): [repr(u) for u in order] for v, order in rotation.items()}
    center = next(v for v, order in wrong.items() if len(order) == 4)
    wrong[center][0], wrong[center][1] = wrong[center][1], wrong[center][0]
    items = [
        ("a", "embed", "ok", {"outcome": "non-planar", "witness": {"edges": edges}}),
        ("b", "embed", "ok", {"outcome": "ok", "report": {}, "rotation": wrong}),
        ("c", "embed", "ok", {"outcome": "non-planar", "witness": {"edges": k5[:-1]}}),
    ]
    failures, _ = check.check_outputs(items, {"a": edges, "b": edges, "c": k5}, {})
    assert len(failures) == 3, failures


def test_pass_mismatch_is_counted_as_failed():
    checker = run.Checker({})
    first = run.Pass(traced=False, wall=1.0, latencies={"a": 1.0}, jobs=1, rounds=10, digest="x")
    later = run.Pass(traced=True, wall=1.0, latencies={"a": 1.0}, jobs=1, rounds=11, digest="x")
    checker(first, [])
    checker(later, [])
    assert first.failures == [] and len(later.failures) == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "embedbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = smoke("embed-mesh", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
