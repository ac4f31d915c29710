"""Job specifications for the embedding service.

A *job* is one unit of work for the service driver: a serialized graph
plus the kind of computation to run on it and its configuration.  Jobs
travel as JSONL — one JSON object per line — both into ``repro serve``
/ ``repro batch`` and out of them as verdicts, and the same flat
representation is what crosses the process boundary to pool workers
(primitives only, no rich objects — the MPC framing of Chang & Zheng:
stateless workers over serialized subproblems).

Job object fields:

``kind``
    ``"embed"`` (default), ``"certify"`` (embed + distributed
    certification), ``"heal"`` (the self-healing pipeline under an
    optional chaos schedule), or ``"churn"`` (embed + certify, then a
    seeded edge insert/delete workload with per-op re-certification —
    see :mod:`repro.certify.delta`).
``edges`` / ``demo``
    Exactly one graph source: ``edges`` is a list of ``[u, v]`` pairs
    (int or string node IDs, insertion order preserved — it is
    observable in the output rotation); ``demo`` is a generator spec
    like ``["grid", 16, 16]`` accepted by
    :func:`repro.planar.generators.demo_graph`, expanded at parse time
    so caching and canonical hashing always see the concrete graph.
``id``
    Optional caller-chosen string echoed on the verdict (defaults to
    ``"job-<index>"``).
``seed``
    Seed for randomized ``demo`` families (default 0).
``config``
    Optional dict: ``bandwidth`` (words/edge/round, default 1),
    ``shard_workers`` (per-job recursion worker processes, default 0 =
    sequential; see :mod:`repro.shard`), and ``deadline_s`` (per-attempt
    wall-clock budget in seconds, overriding the driver's
    ``--deadline``; see :mod:`repro.serve.resilience`) for all kinds;
    ``faults`` (a chaos spec string), ``fault_seed``, and ``max_retries``
    additionally for ``heal``; ``churn_ops`` (operation count, default
    8), ``churn_seed`` (op-plan seed, default 0), and ``incremental``
    (patch the dirty region vs full rebuild per op, default true)
    additionally for ``churn``.  ``shard_workers`` never changes a
    verdict — the sharded path is bit-identical — and is ignored under
    fault injection, but an *explicit* value does enter the cache key
    like any other config field, so omit it when cache sharing across
    settings matters (the server-side default is applied after key
    computation).  Unknown keys are rejected — a typo'd config silently
    changing the cache key would be a debugging nightmare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from ..planar.generators import demo_graph
from ..planar.graph import Graph, NodeId

__all__ = ["Job", "JobSpecError", "JOB_KINDS", "parse_job", "load_jobs", "config_key"]

JOB_KINDS = ("embed", "certify", "heal", "churn")

_COMMON_CONFIG = {"bandwidth", "shard_workers", "deadline_s"}
_HEAL_CONFIG = {"faults", "fault_seed", "max_retries"}
_CHURN_CONFIG = {"churn_ops", "churn_seed", "incremental"}


class JobSpecError(ValueError):
    """A malformed job line or job object."""


def _default_config(kind: str) -> dict:
    config: dict = {"bandwidth": 1}
    if kind == "heal":
        config.update({"faults": None, "fault_seed": 0, "max_retries": 3})
    elif kind == "churn":
        config.update({"churn_ops": 8, "churn_seed": 0, "incremental": True})
    return config


@dataclass
class Job:
    """One parsed, validated unit of service work."""

    index: int
    id: str
    kind: str
    graph: Graph
    config: dict
    source: dict = field(default_factory=dict)  # the original spec, for echoing

    def payload(self) -> dict:
        """The flat, picklable form shipped to a pool worker: primitives
        only, adjacency insertion order preserved."""
        return {
            "id": self.id,
            "kind": self.kind,
            "nodes": list(self.graph.nodes()),
            "edges": [list(e) for e in self.graph.edges()],
            "config": dict(self.config),
        }


def config_key(config: dict) -> str:
    """The canonical cache-key serialization of a job config."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _check_node(value) -> NodeId:
    if not isinstance(value, (int, str)):
        raise JobSpecError(
            f"node IDs must be ints or strings, got {type(value).__name__}: {value!r}"
        )
    return value


def parse_job(obj: dict, index: int = 0) -> Job:
    """Validate one decoded job object into a :class:`Job`.

    The network contract matches the CLI's edge lists: at least one
    vertex, no self-loops, connected.  A repeated edge (in either
    orientation) is deduplicated, not rejected — the network is a simple
    graph, and the first occurrence fixes the insertion order.
    """
    if not isinstance(obj, dict):
        raise JobSpecError(f"job {index}: expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {"kind", "edges", "demo", "id", "seed", "config"}
    if unknown:
        raise JobSpecError(f"job {index}: unknown fields {sorted(unknown)}")
    kind = obj.get("kind", "embed")
    if kind not in JOB_KINDS:
        raise JobSpecError(f"job {index}: unknown kind {kind!r}; options: {list(JOB_KINDS)}")

    if ("edges" in obj) == ("demo" in obj):
        raise JobSpecError(f"job {index}: provide exactly one of 'edges' or 'demo'")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise JobSpecError(f"job {index}: 'seed' must be an integer")
    if "demo" in obj:
        spec = obj["demo"]
        if not isinstance(spec, list) or not spec:
            raise JobSpecError(f"job {index}: 'demo' must be a non-empty list")
        try:
            graph = demo_graph(spec, seed=seed)
        except ValueError as exc:
            raise JobSpecError(f"job {index}: {exc}") from exc
    else:
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise JobSpecError(f"job {index}: 'edges' must be a list of [u, v] pairs")
        graph = Graph()
        for pos, pair in enumerate(edges):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise JobSpecError(f"job {index}: edge {pos} is not a [u, v] pair: {pair!r}")
            u, v = _check_node(pair[0]), _check_node(pair[1])
            if u == v:
                raise JobSpecError(f"job {index}: edge {pos} is a self-loop at {u!r}")
            graph.add_edge(u, v)
    if graph.num_nodes == 0:
        raise JobSpecError(f"job {index}: graph has no vertices")
    if not graph.is_connected():
        raise JobSpecError(f"job {index}: graph must be connected")

    config = _default_config(kind)
    allowed = _COMMON_CONFIG | (
        _HEAL_CONFIG if kind == "heal"
        else _CHURN_CONFIG if kind == "churn"
        else set()
    )
    supplied = obj.get("config", {})
    if not isinstance(supplied, dict):
        raise JobSpecError(f"job {index}: 'config' must be an object")
    unknown = set(supplied) - allowed
    if unknown:
        raise JobSpecError(
            f"job {index}: unknown config keys for kind {kind!r}: {sorted(unknown)}"
        )
    config.update(supplied)
    if not isinstance(config["bandwidth"], int) or config["bandwidth"] < 1:
        raise JobSpecError(f"job {index}: config.bandwidth must be an integer >= 1")
    # Optional on purpose (no default): an absent key keeps the cache
    # key identical to pre-sharding job files.
    if "shard_workers" in config and (
        not isinstance(config["shard_workers"], int) or config["shard_workers"] < 0
    ):
        raise JobSpecError(f"job {index}: config.shard_workers must be an integer >= 0")
    if "deadline_s" in config and (
        isinstance(config["deadline_s"], bool)
        or not isinstance(config["deadline_s"], (int, float))
        or config["deadline_s"] <= 0
    ):
        raise JobSpecError(f"job {index}: config.deadline_s must be a number > 0")
    if kind == "heal":
        if config["faults"] is not None and not isinstance(config["faults"], str):
            raise JobSpecError(f"job {index}: config.faults must be a spec string or null")
        if not isinstance(config["fault_seed"], int):
            raise JobSpecError(f"job {index}: config.fault_seed must be an integer")
        if not isinstance(config["max_retries"], int) or config["max_retries"] < 0:
            raise JobSpecError(f"job {index}: config.max_retries must be an integer >= 0")
    if kind == "churn":
        if not isinstance(config["churn_ops"], int) or config["churn_ops"] < 1:
            raise JobSpecError(f"job {index}: config.churn_ops must be an integer >= 1")
        if not isinstance(config["churn_seed"], int):
            raise JobSpecError(f"job {index}: config.churn_seed must be an integer")
        if not isinstance(config["incremental"], bool):
            raise JobSpecError(f"job {index}: config.incremental must be a boolean")
        if graph.num_nodes < 2:
            raise JobSpecError(f"job {index}: churn needs at least two nodes")

    job_id = obj.get("id", f"job-{index}")
    if not isinstance(job_id, str):
        raise JobSpecError(f"job {index}: 'id' must be a string")
    return Job(index=index, id=job_id, kind=kind, graph=graph, config=config, source=obj)


def load_jobs(source: str | IO[str] | Iterable[str]) -> list[Job]:
    """Parse a JSONL job stream (path, open file, or iterable of lines).

    Blank lines and ``#`` comment lines are skipped.  Raises
    :class:`JobSpecError` with the line number on the first bad line —
    a job file is a unit of intent, so partial acceptance would hide
    typos until after hours of compute.
    """
    if isinstance(source, str):
        with open(source) as f:
            return load_jobs(f)
    jobs: list[Job] = []
    for lineno, line in enumerate(source, 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            obj = json.loads(body)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            jobs.append(parse_job(obj, index=len(jobs)))
        except JobSpecError as exc:
            raise JobSpecError(f"line {lineno}: {exc}") from exc
    return jobs
