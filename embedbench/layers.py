"""Layer spans recorded from outside the library.

:func:`install` replaces each public boundary function listed in
:data:`LAYERS` by a wrapper, in every loaded ``repro`` module that
holds a reference to it (and on the class, for methods), so that calls
made between the library's own modules are timed too.  The library
itself is not changed.  The benchmark installs the wrappers only in
forked children that run one traced pass, so untraced passes run the
untouched functions.

A span is ``(layer, start, end, self, parent, job, pid, id)``; ``parent``
is the id of the enclosing span in the same process, -1 for a root.  Its self
time is its duration minus the time its child spans cover, so the self
times of all spans under a root add up to the root's duration: each
layer's self time plus the root's own self time (the residual that no
named layer covers) is the traced wall time.  Spans stay in memory and
are written out as JSONL when the benchmark ends.  Serve pool workers
are forked after the wrappers are installed, so they record spans too;
each worker appends its spans to ``spans-<pid>.jsonl`` in the pass's
directory when a job finishes, because a pool worker's exit cannot be
hooked, and the pass reads them back once the batch is done.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: Layer name -> the public boundary callables that enter it, as
#: ``module:qualname``.
LAYERS = {
    "primitives.leader": ["repro.primitives.leader:elect_leader"],
    "primitives.bfs": ["repro.primitives.bfs:build_bfs_tree"],
    "primitives.aggregation": [
        "repro.primitives.aggregation:tree_aggregate",
        "repro.primitives.aggregation:tree_broadcast",
    ],
    "primitives.subtree": ["repro.primitives.subtree:compute_subtree_stats"],
    "primitives.splitter": [
        "repro.primitives.splitter:find_splitter",
        "repro.primitives.splitter:splitter_components",
    ],
    "congest.network": ["repro.congest.network:CongestNetwork.run"],
    "planar.lr_planarity": [
        "repro.planar.lr_planarity:lr_planarity",
        "repro.planar.lr_planarity:lr_is_planar",
        "repro.planar.lr_planarity:planar_embedding",
        "repro.planar.lr_planarity:is_planar",
    ],
    "planar.verify": [
        "repro.planar.verify:verify_rotation_system",
        "repro.planar.verify:verify_planar_embedding",
        "repro.planar.verify:check_embedding_with_boundary",
    ],
    "core.realize": ["repro.core.realize:realize_boundary_order"],
    "core.unrestricted": ["repro.core.unrestricted:unrestricted_path_merge"],
    "core.interface": [
        "repro.core.interface:interface_skeleton",
        "repro.core.interface:block_attachment_order",
    ],
    "core.symmetry": ["repro.core.symmetry:symmetry_break"],
    "core.recursion": ["repro.core.recursion:embed_subtree"],
    "core.parts.fresh_part": ["repro.core.parts:fresh_part"],
    "core.assembly": [
        "repro.core.assembly:expand_copies",
        "repro.core.assembly:insert_pendant",
        "repro.core.assembly:insert_two_terminal",
    ],
    "certify.prover": ["repro.certify.prover:build_certificates"],
    "certify.verifier": ["repro.certify.verifier:verify_distributed"],
    "certify.delta": [
        "repro.certify.delta:repair_certificates",
        "repro.certify.delta:DynamicCertifiedEmbedding.insert_edge",
        "repro.certify.delta:DynamicCertifiedEmbedding.delete_edge",
    ],
    "serve.canon.canonical_form": ["repro.serve.canon:canonical_form"],
    "serve.canon.exact_fingerprint": ["repro.serve.canon:exact_fingerprint"],
    "serve.cache.lookup": ["repro.serve.cache:ResultCache.lookup"],
    "serve.cache.store": ["repro.serve.cache:ResultCache.store"],
    "serve.worker.execute_job": ["repro.serve.driver:execute_job"],
}

#: Which positional argument names the job a serve span works for.
_GRAPH_ARG = {
    "serve.canon.canonical_form": 0,
    "serve.canon.exact_fingerprint": 0,
    "serve.cache.lookup": 4,
}


def import_layer_modules() -> None:
    """Import every module :data:`LAYERS` names, so that forked passes
    start from the same set of loaded modules, traced or not."""
    for targets in LAYERS.values():
        for target in targets:
            importlib.import_module(target.split(":")[0])


class Recorder:
    """In-memory span store with a stack for self-time accounting."""

    def __init__(self) -> None:
        self.graph_jobs: dict[int, str] = {}  # id(graph) -> job id
        self.span_dir: str | None = None  # where pool workers flush spans
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._next = 0
        self._stack: list[int] = []
        self._child: list[float] = []

    def wrap(self, layer: str, fn):
        graph_arg = _GRAPH_ARG.get(layer)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a freshly forked worker
                self._reset()
            if layer == "serve.worker.execute_job":
                job = args[0].get("id")
            elif graph_arg is not None:
                job = self.graph_jobs.get(id(args[graph_arg]))
            else:
                job = None
            parent = self._stack[-1] if self._stack else -1
            sid = self._next
            self._next += 1
            self._stack.append(sid)
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                inner = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.spans.append(
                    (layer, start, end, end - start - inner, parent, job, self.pid, sid)
                )
                if not self._stack and layer == "serve.worker.execute_job":
                    self.flush_worker()

        return span

    def root(self, layer: str, fn, *args):
        """Run ``fn(*args)`` as a root span named ``layer``."""
        return self.wrap(layer, fn)(*args)

    def flush_worker(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans.clear()


def install(recorder: Recorder) -> None:
    """Wrap every boundary of :data:`LAYERS` for ``recorder``."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m]
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[name] if path else getattr(owner, name)
            wrapped = recorder.wrap(layer, fn)
            if path:
                setattr(owner, name, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)


def read_worker_spans(span_dir: str) -> list[tuple]:
    spans = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(span_dir, name)) as f:
                spans.extend(tuple(json.loads(line)) for line in f)
    return spans


def rollup(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per layer: ``self`` seconds, ``calls`` (entries from another
    layer) and ``total`` seconds of those entries."""
    out: dict[str, dict[str, float]] = {}
    by_id = {(s[6], s[7]): s for s in spans}
    for layer, start, end, self_s, parent, _job, pid, _sid in spans:
        row = out.setdefault(layer, {"self": 0.0, "calls": 0, "total": 0.0})
        row["self"] += self_s
        outer = by_id.get((pid, parent))
        if outer is None or outer[0] != layer:
            row["calls"] += 1
            row["total"] += end - start
    return out
