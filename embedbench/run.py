"""The repository benchmark: end-to-end and per-layer metrics of the
planar-embedding library, measured from outside through its public API.

Run from the repository root::

    python3 embedbench/run.py --workload embed-mesh --seed 1 --seconds 45 --trace 0

Workloads (why each exists: README.md next to this file):

* ``embed-mesh`` — one cold embed each of five low-diameter graphs;
* ``serve-mix``  — one closed batch of about 100 jobs through
  ``ServiceDriver(workers=2)`` with a fresh cache and persistent store.

A *pass* runs one workload's inputs once.  Every embed runs in a fresh
fork of this process, which has imported ``repro`` but never embedded,
so each embed starts with cold memos, as a command-line user's would; a
serve pass runs in a fresh fork too, with a fresh driver, pool and
cache.  Passes repeat until ``--seconds`` have passed (at least two).
Outputs are checked with networkx after each pass, outside the timed
region, and rounds, words, rotation digests and the serve miss count
must repeat exactly from pass to pass.  Every time is reported in
reference seconds: scaled by a fixed kernel timed right before and right
after it, so that the host's drifting speed cancels (calibrate.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; the traced
passes' spans are written to ``.embedbench/spans-<workload>-<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".embedbench"

WORKLOADS = ("embed-mesh", "serve-mix")
SERVE_WORKERS = 2
SETUP_PROBES = 9
#: Calibration kernel samples taken right before and right after each
#: embed or serve batch, and in each set-up probe (see calibrate.py).
EMBED_CAL_REPS = 2
SERVE_CAL_REPS = 4
PROBE_CAL_REPS = 4

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "rounds": "count",
    "words": "count",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: Layers reported as self seconds per pass (``<layer>.s``).
TIMED_LAYERS = (
    "primitives.leader", "primitives.bfs", "primitives.aggregation",
    "primitives.subtree", "primitives.splitter", "congest.network",
    "planar.lr_planarity", "planar.verify", "core.realize",
    "core.unrestricted", "core.interface", "core.symmetry", "core.recursion",
    "core.parts.fresh_part", "core.assembly", "certify.prover",
    "certify.verifier", "certify.delta", "serve.canon.canonical_form",
    "serve.canon.exact_fingerprint", "serve.cache.lookup", "serve.cache.store",
)
#: Layers that also report how often they were entered (``<layer>.calls``).
COUNTED_LAYERS = (
    "congest.network", "planar.lr_planarity", "core.parts.fresh_part",
    "serve.canon.canonical_form",
)
#: Ledger phase groups (the part of a phase name before ``:``).
LEDGER_GROUPS = (
    "leader-election", "bfs", "preamble", "subtree-stats", "splitter-walk",
    "recursion", "merge", "unrestricted", "certify", "recovery", "other",
)
LEDGER_FIELDS = ("rounds", "words", "activations", "activations_saved")
SCOPED = ("split_tests", "split_rejections", "memo_hits", "scoped_tests")
FAULTS = ("sent", "faults_injected", "recovery_messages")


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in the order they are printed."""
    units = {f"{layer}.s": "s" for layer in TIMED_LAYERS}
    units["serve.worker.execute_job.s"] = "s"
    units |= {f"{layer}.calls": "count" for layer in COUNTED_LAYERS}
    units |= {
        "embed.residual_s": "s",
        "serve.residual_s": "s",
        "serve.queue_wait_s": "s",
        "trace.overhead_s": "s",
        "trace.identity_err_s": "s",
    }
    units |= {f"planar.scoped.{name}": "count" for name in SCOPED}
    units["planar.scoped.wasted_ratio"] = "ratio"
    units |= {
        "serve.cache.hits": "count",
        "serve.cache.hits_canonical": "count",
        "serve.cache.misses": "count",
        "serve.cache.rejected_remaps": "count",
        "serve.cache.useful_ratio": "ratio",
    }
    units |= {f"fault_stats.{name}": "count" for name in FAULTS}
    units |= {
        f"ledger.{group}.{name}": "count" for group in LEDGER_GROUPS for name in LEDGER_FIELDS
    }
    return units


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    """What one pass produced, reduced to what the checks and metrics need."""

    traced: bool
    wall: float  # reference seconds the timed calls took (embed: summed over graphs)
    latencies: dict[str, float]  # job label or id -> reference seconds
    jobs: int
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    words: int = 0
    digest: str = ""
    misses: int | None = None
    counters: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    identity_err: float = 0.0  # measured seconds, like the spans
    peak_rss_mb: float = 0.0
    calibration: list[float] = field(default_factory=list)  # kernel seconds
    scale: float = 1.0  # host-speed scale of the pass's per-layer times

    def calibrate(self, reps: int) -> list[float]:
        samples = calibrate.sample(reps)
        self.calibration += samples
        self.scale = calibrate.scale(self.calibration)
        return samples

    def rescale(self, factor: float) -> None:
        """Turn measured seconds into reference seconds."""
        self.wall *= factor
        self.latencies = {job: t * factor for job, t in self.latencies.items()}
        self.scale = factor


def max_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def in_fork(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    Fork, not spawn: the child must share this process's imported but
    never-used library state, which is what makes its memos cold."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child():
        try:
            sender.send(("ok", fn(*args)))
        except BaseException as exc:  # reported to the parent as a failed job
            sender.send(("error", f"{type(exc).__name__}: {exc}"))
            raise

    proc = ctx.Process(target=child)
    proc.start()
    sender.close()
    try:
        status, value = receiver.recv()
    except EOFError:
        status, value = "error", "child exited without a result"
    proc.join()
    receiver.close()
    return status, value


def _ledger(phases: dict, into: dict) -> None:
    for phase, row in phases.items():
        group = phase.split(":")[0]
        group = group if group in LEDGER_GROUPS else "other"
        for name in LEDGER_FIELDS:
            key = f"ledger.{group}.{name}"
            into[key] = into.get(key, 0) + row[name]


def _scoped(report: dict, into: dict) -> None:
    oracle = report.get("split_oracle") or {}
    values = {
        "split_tests": report.get("split_tests", 0),
        "split_rejections": report.get("split_rejections", 0),
        "memo_hits": oracle.get("memo_hits", 0),
        "scoped_tests": oracle.get("scoped_tests", 0),
    }
    for name, value in values.items():
        key = f"planar.scoped.{name}"
        into[key] = into.get(key, 0) + value


def embed_child(graph, traced: bool) -> dict:
    from repro import distributed_planar_embedding

    recorder = None
    if traced:
        recorder = layers.Recorder()
        layers.install(recorder)
    start = time.perf_counter()
    if recorder is not None:
        result = recorder.root("embed", distributed_planar_embedding, graph)
    else:
        result = distributed_planar_embedding(graph)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "peak_rss_mb": max_rss_mb(),
        "rotation": result.rotation,
        "report": {
            "rounds": result.rounds,
            "words": result.metrics.total_words,
            "phases": result.metrics.phase_breakdown(),
            "split_tests": result.split_tests,
            "split_rejections": result.split_rejections,
            "split_oracle": result.split_oracle,
        },
        "spans": recorder.spans if recorder is not None else [],
    }


def serve_child(jobs, traced: bool) -> dict:
    from repro.serve import ResultCache, ServiceDriver

    WORK.mkdir(exist_ok=True)
    pass_dir = tempfile.mkdtemp(dir=WORK, prefix="pass-")
    try:
        recorder = None
        if traced:
            recorder = layers.Recorder()
            recorder.graph_jobs = {id(job.graph): job.id for job in jobs}
            recorder.span_dir = pass_dir
            layers.install(recorder)  # before the pool forks its workers
        cache = ResultCache(path=os.path.join(pass_dir, "store.jsonl"))
        driver = ServiceDriver(workers=SERVE_WORKERS, cache=cache)
        start = time.perf_counter()
        if recorder is not None:
            outcomes = recorder.root("serve.pass", driver.run, jobs)
        else:
            outcomes = driver.run(jobs)
        wall = time.perf_counter() - start
        # The driver shuts its pool down without waiting; reap the
        # workers so that their peak memory is counted.
        deadline = time.monotonic() + 60
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        spans = []
        if recorder is not None:
            spans = recorder.spans + layers.read_worker_spans(pass_dir)
        return {
            "wall": wall,
            "peak_rss_mb": max(max_rss_mb(), max_rss_mb(children=True)),
            "outcomes": [(o.id, o.cache, o.wall_s, o.record) for o in outcomes],
            "stats": cache.stats.to_dict(),
            "spans": spans,
        }
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


# -- checks (outside the timed region) --------------------------------------


class Checker:
    """Checks each pass's outputs with networkx (:mod:`check`), and its
    rounds, words, rotation digest and miss count against the first
    pass.  networkx runs in a forked child, so it never loads into this
    process, whose memory every later fork would inherit."""

    def __init__(self, edges_by_job: dict[str, list]) -> None:
        self.edges = edges_by_job
        self.planar: dict[str, bool] = {}
        self.first: Pass | None = None

    def __call__(self, p: Pass, items: list[tuple]) -> None:
        status, value = in_fork(_check_outputs, items, self.edges, self.planar)
        if status != "ok":
            p.failures.append(f"checker failed: {value}")
            return
        failures, self.planar = value
        p.failures.extend(failures)
        if self.first is None:
            self.first = p
            return
        for name in ("rounds", "words", "digest", "misses"):
            mine, first = getattr(p, name), getattr(self.first, name)
            if mine != first:
                p.failures.append(f"{name} {mine} differs from the first pass's {first}")


def _check_outputs(items, edges, planar):
    import check  # imports networkx: only ever in the checking child

    return check.check_outputs(items, edges, planar)


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def rotation_digest(rotation: dict) -> str:
    return digest(sorted((repr(v), [repr(u) for u in order]) for v, order in rotation.items()))


def run_embed_pass(inputs, checker: Checker, traced: bool) -> Pass:
    """One cold embed of each input.  Each embed's time is scaled by the
    kernel samples taken right before and right after it, because the
    host's speed can change within seconds."""
    p = Pass(traced=traced, wall=0.0, latencies={}, jobs=len(inputs))
    digests, items = [], []
    before = p.calibrate(EMBED_CAL_REPS)
    for label, graph in inputs:
        status, value = in_fork(embed_child, graph, traced)
        after = p.calibrate(EMBED_CAL_REPS)
        scale = calibrate.scale(before + after)
        before = after
        if status != "ok":
            items.append((label, None, status, value))
            continue
        items.append((label, None, status, value["rotation"]))
        report = value["report"]
        p.peak_rss_mb = max(p.peak_rss_mb, value["peak_rss_mb"])
        p.wall += value["wall"] * scale
        p.latencies[label] = value["wall"] * scale
        p.rounds += report["rounds"]
        p.words += report["words"]
        digests.append(rotation_digest(value["rotation"]))
        _ledger(report["phases"], p.counters)
        _scoped(report, p.counters)
        if traced:
            p.spans.extend(value["spans"])
            p.identity_err += abs(value["wall"] - sum(s[3] for s in value["spans"]))
    p.digest = digest(digests)
    checker(p, items)
    return p


def run_serve_pass(jobs, checker: Checker, traced: bool) -> Pass:
    """One batch.  Its times stay in measured seconds until the run ends
    (see :func:`main`)."""
    p = Pass(traced=traced, wall=0.0, latencies={}, jobs=len(jobs))
    p.calibrate(SERVE_CAL_REPS)
    status, value = in_fork(serve_child, jobs, traced)
    p.calibrate(SERVE_CAL_REPS)
    if status != "ok":
        p.failures.extend(f"{job.id}: batch failed: {value}" for job in jobs)
        return p
    kinds = {job.id: job.kind for job in jobs}
    p.wall = value["wall"]
    p.peak_rss_mb = value["peak_rss_mb"]
    digests, items = [], []
    for job_id, tier, latency, record in value["outcomes"]:
        items.append((job_id, kinds[job_id], "ok", record))
        p.latencies[job_id] = latency
        report = record.get("report") or {}
        p.rounds += report.get("rounds", 0)
        p.words += report.get("metrics", {}).get("total_words", 0)
        digests.append((job_id, record["outcome"], rotation_digest(record.get("rotation") or {})))
        if tier == "miss" and report:  # count each computation once
            _ledger(report["metrics"]["phases"], p.counters)
            _scoped(report, p.counters)
            faults = report.get("fault_stats") or {}
            for name in FAULTS:
                key = f"fault_stats.{name}"
                p.counters[key] = p.counters.get(key, 0) + faults.get(name, 0)
    stats = value["stats"]
    p.misses = stats["misses"]
    p.counters |= {
        # Exact and coalesced hits split by timing; only their sum repeats.
        "serve.cache.hits": stats["hits_exact"] + stats["hits_coalesced"] + stats["hits_canonical"],
        "serve.cache.hits_canonical": stats["hits_canonical"],
        "serve.cache.misses": stats["misses"],
        "serve.cache.rejected_remaps": stats["rejected_remaps"],
        "serve.cache.useful_ratio": stats["misses"] / len(jobs),
    }
    p.digest = digest(digests)
    if traced:
        p.spans = value["spans"]
        p.counters["serve.queue_wait_s"] = _queue_wait(value["outcomes"], p.spans)
        driver_pid = next(s[6] for s in p.spans if s[0] == "serve.pass")
        driver = [s for s in p.spans if s[6] == driver_pid]
        worker = [s for s in p.spans if s[6] != driver_pid]
        compute = sum(s[2] - s[1] for s in worker if s[0] == "serve.worker.execute_job")
        p.identity_err = abs(p.wall - sum(s[3] for s in driver)) + abs(
            compute - sum(s[3] for s in worker)
        )
    checker(p, items)
    return p


def _queue_wait(outcomes, spans) -> float:
    """Median over jobs of latency minus the job's keying, lookup and compute."""
    busy: dict[str, float] = {}
    layers_of_job = ("serve.canon.canonical_form", "serve.canon.exact_fingerprint",
                     "serve.cache.lookup", "serve.worker.execute_job")
    outer = {(s[6], s[7]): s for s in spans}
    for s in spans:
        parent = outer.get((s[6], s[4]))
        if s[0] in layers_of_job and s[5] is not None and (parent is None or parent[0] != s[0]):
            busy[s[5]] = busy.get(s[5], 0.0) + (s[2] - s[1])
    return statistics.median(latency - busy.get(job_id, 0.0) for job_id, _, latency, _ in outcomes)


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    # Each job's latency is its median over the run's passes, so the
    # percentiles do not depend on how many passes fit in the run.  On
    # embed-mesh a pass has only 5 graphs of quite different
    # sizes: pooled samples would put the percentile's rank on the edge
    # between two graphs, which moves with the pass count.
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for job, latency in p.latencies.items():
            by_job.setdefault(job, []).append(latency)
    latencies = [statistics.median(v) for v in by_job.values()] or [0.0]
    attempted = sum(p.jobs for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median([p.jobs / p.wall for p in passes if p.wall] or [0.0]),
        "job_p50_s": percentile(latencies, 0.50),
        "job_p90_s": percentile(latencies, 0.90),
        "rounds": passes[0].rounds,
        "words": passes[0].words,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "ok_frac": max(0, attempted - failed) / attempted,
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    units = per_layer_units()
    rows = []
    for p in traced:
        roll = layers.rollup(p.spans)
        row = {f"{layer}.s": roll.get(layer, {}).get("self", 0.0) for layer in TIMED_LAYERS}
        # Worker compute summed over the pool: the inclusive time, unlike
        # the self times above.
        job_root = roll.get("serve.worker.execute_job", {})
        row["serve.worker.execute_job.s"] = job_root.get("total", 0.0)
        row |= {f"{layer}.calls": roll.get(layer, {}).get("calls", 0) for layer in COUNTED_LAYERS}
        # What no named layer covers: the embed root's own time (on
        # serve-mix, the worker's job root), and the driver's own time.
        row["embed.residual_s"] = (
            roll.get("embed", {}).get("self", 0.0)
            + job_root.get("self", 0.0)
        )
        row["serve.residual_s"] = roll.get("serve.pass", {}).get("self", 0.0)
        row["serve.queue_wait_s"] = p.counters.get("serve.queue_wait_s", 0.0)
        row["trace.identity_err_s"] = p.identity_err
        # Spans hold measured seconds; report them in reference seconds.
        rows.append({name: value * p.scale if units[name] == "s" else value
                     for name, value in row.items()})
    out = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in plain
    )
    counters = traced[0].counters
    for name in units:
        if name not in out:
            out[name] = counters.get(name, 0)
    tests = out["planar.scoped.split_tests"]
    rejected = out["planar.scoped.split_rejections"]
    out["planar.scoped.wasted_ratio"] = rejected / tests if tests else 0.0
    return out


# -- driver -----------------------------------------------------------------


def build_inputs(workload: str, seed: int, smoke: bool):
    """Import the library and build one workload's inputs (the set-up)."""
    layers.import_layer_modules()
    if workload == "serve-mix":
        return workloads.serve_jobs(seed, smoke)
    return workloads.embed_inputs(workload, seed, smoke)


def probe_setup(args) -> tuple[float, float]:
    """Set-up seconds, median over fresh interpreters, and the host-speed
    scale of the kernel samples that those interpreters took after it."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times, samples = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(probe["setup"])
        samples += probe["calibration"]
    return statistics.median(times), calibrate.scale(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy inputs, for the tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"embedbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        start = time.perf_counter()
        build_inputs(args.workload, args.seed, args.smoke)
        setup = time.perf_counter() - start
        samples = calibrate.sample(1 if args.smoke else PROBE_CAL_REPS)
        print(json.dumps({"setup": setup, "calibration": samples}))
        return 0

    setup_s, setup_scale = probe_setup(args)
    inputs = build_inputs(args.workload, args.seed, args.smoke)
    if args.workload == "serve-mix":
        checker = Checker({job.id: job.graph.edges() for job in inputs})
        run_pass = run_serve_pass
    else:
        checker = Checker({label: graph.edges() for label, graph in inputs})
        run_pass = run_embed_pass

    passes: list[Pass] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(inputs, checker, traced))
    if args.workload == "serve-mix":
        # A batch keeps both CPUs busy for seconds with three processes,
        # and its time tracked the kernel samples around it no better
        # than the kernel samples of the whole run; those are many more.
        run_scale = calibrate.scale([x for p in passes for x in p.calibration])
        for p in passes:
            p.rescale(run_scale)

    attempted = sum(p.jobs for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(passes), per_layer_units()
        spans_out = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        with open(spans_out, "w") as f:
            for p in passes:
                f.writelines(json.dumps(s) + "\n" for s in p.spans)
    else:
        plain = [p for p in passes if not p.traced]
        values, units = end_to_end(plain, setup_s * setup_scale), END_TO_END
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes"
        f" ({sum(p.traced for p in passes)} traced), {attempted} jobs,"
        f" {len(failures)} failed; host-speed scale: passes"
        f" {min(p.scale for p in passes):.3f}-{max(p.scale for p in passes):.3f},"
        f" set-up {setup_scale:.3f}", file=sys.stderr,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
