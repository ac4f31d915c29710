"""E13 — the LR planarity kernel ([HT74] stand-in): correctness + scaling.

The centralized kernel underpins every local computation in the system
(merge instances, realizations, the baseline's root solve).  This bench
confirms near-linear wall-clock scaling on maximal planar graphs and
exact decisions on planar/non-planar families.

It also gates the kernel's speed against the v1 dict-based kernel kept
as a test oracle (``tests/planar/lr_v1.py``): both embed
``random_maximal_planar(2000)`` and ``grid_graph(40, 40)`` in the same
process, interleaved, best of 3 each, with the structural memo cleared
before every timed call.  The slower of the two time ratios (kernel /
v1) must stay within ``max_lr_kernel_ratio`` of
``benchmarks/time_budget.json``.  A ratio of two timings taken side by
side does not depend on the host's speed, so the gate is meaningful on
shared CI runners.

``REPRO_BENCH_SMOKE=1`` skips the scaling sweep and runs only the
decisions and the ratio gate (what CI runs, ~1 s).
"""

import json
import math
import os
import time
from pathlib import Path

from repro.analysis import fit_power_law, print_table, verdict
from repro.planar import is_planar, lr_planarity
from repro.planar.generators import (
    complete_bipartite,
    complete_graph,
    grid_graph,
    random_maximal_planar,
)
from repro.planar.lr_planarity import clear_caches
from tests.planar.lr_v1 import v1_planarity

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

BUDGET_PATH = Path(__file__).resolve().parent / "time_budget.json"

RATIO_WORKLOADS = {
    "maximal:2000": lambda: random_maximal_planar(2000, seed=2000),
    "grid:40x40": lambda: grid_graph(40, 40),
}


def _cold_kernel(graph):
    clear_caches()
    return lr_planarity(graph)


def kernel_ratios(report=None):
    """Best-of-3 kernel and v1 times per workload, interleaved (kernel,
    v1, kernel, v1, ...), and their ratio."""
    ratios = {}
    rows = []
    for key, make in RATIO_WORKLOADS.items():
        graph = make()
        best_new = best_old = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            rot = _cold_kernel(graph)
            best_new = min(best_new, time.perf_counter() - t0)
            t0 = time.perf_counter()
            v1_planarity(graph)
            best_old = min(best_old, time.perf_counter() - t0)
        assert rot is not None and rot.genus() == 0
        ratios[key] = best_new / best_old
        if report is not None:
            report.record(
                workload=key, n=graph.num_nodes, m=graph.num_edges, mode="ratio",
                kernel_s=round(best_new, 6), v1_s=round(best_old, 6),
                ratio=round(ratios[key], 4),
            )
        rows.append([key, round(best_new * 1000, 1), round(best_old * 1000, 1),
                     f"{ratios[key]:.3f}"])
    print_table(
        ["workload", "kernel (ms)", "v1 (ms)", "ratio"],
        rows,
        title="E13: LR kernel vs the v1 oracle (best-of-3, interleaved)",
    )
    return ratios


def run_experiment(report=None):
    rows, ns, times = [], [], []
    if not SMOKE:
        for n in (500, 1000, 2000, 4000, 8000):
            g = random_maximal_planar(n, seed=n)
            dt = math.inf
            for _ in range(3):  # best of 3: the first call also warms up
                t0 = time.perf_counter()
                rot = _cold_kernel(g)
                dt = min(dt, time.perf_counter() - t0)
            assert rot is not None and rot.genus() == 0
            if report is not None:
                report.record(n=n, m=g.num_edges, wall_s=round(dt, 6), mode="scaling")
            ns.append(n)
            times.append(dt)
            rows.append([n, g.num_edges, round(dt * 1000, 1)])
        print_table(
            ["n", "m", "time (ms)"],
            rows,
            title="E13: LR kernel scaling on maximal planar graphs (best-of-3)",
        )
    decisions_ok = (
        is_planar(grid_graph(40, 40))
        and not is_planar(complete_graph(5))
        and not is_planar(complete_bipartite(3, 3))
    )
    ratios = kernel_ratios(report)
    return ns, times, decisions_ok, ratios


def test_e13_kernel(run_once, bench_report):
    ns, times, decisions_ok, ratios = run_once(run_experiment, bench_report)
    ok = True
    if not SMOKE:
        fit = fit_power_law(ns, times)
        ok &= verdict(
            "E13: kernel scales near-linearly",
            fit.exponent <= 1.5,
            f"time exponent {fit.exponent:.2f}",
        )
    ok &= verdict("E13: exact planar/non-planar decisions", decisions_ok)
    limit = json.loads(BUDGET_PATH.read_text())["max_lr_kernel_ratio"]
    worst = max(ratios.values())
    ok &= verdict(
        "E13: kernel within max_lr_kernel_ratio of the v1 oracle",
        worst <= limit,
        f"worst ratio {worst:.3f} (limit {limit})",
    )
    assert ok
