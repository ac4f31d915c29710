"""The ``wl-graph-v1`` canonical hash, kept as a test oracle.

This is the first canonical form the serving cache shipped: 1-WL colour
refinement that rehashes *every* vertex colour each round with blake2b,
until the number of colour classes stops growing.  It costs Θ(n·D)
digests (a path of 2000 vertices takes about a thousand rounds of 2000
hashes), which is why :func:`repro.serve.canon.canonical_form` now
refines a partition with the smaller-half rule instead.  Both reach the
same stable partition, round for round, so this loop pins the new code's
partition, discreteness and round count; its hash also builds
``wl-graph-v1``-keyed store records for the cache-compatibility tests.
"""

from __future__ import annotations

import hashlib

from repro.planar.graph import Graph, NodeId
from repro.serve import CanonicalForm

_DIGEST_SIZE = 16


def _h(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


def wl_v1(graph: Graph) -> tuple[CanonicalForm, dict[NodeId, bytes]]:
    """The v1 canonical form of ``graph`` and its final vertex colours."""
    nodes = graph.nodes()
    n = len(nodes)
    m = graph.num_edges
    if n == 0:
        return CanonicalForm(hash=_h(b"empty-graph").hex(), n=0, m=0, iterations=0, labels={}), {}

    adj = graph._adj
    color: dict[NodeId, bytes] = {
        v: _h(b"deg:" + len(adj[v]).to_bytes(8, "big")) for v in nodes
    }
    classes = len(set(color.values()))
    iterations = 0
    while classes < n:
        new: dict[NodeId, bytes] = {}
        for v in nodes:
            neighbor_colors = sorted(color[u] for u in adj[v])
            new[v] = _h(color[v] + b"".join(neighbor_colors))
        iterations += 1
        new_classes = len(set(new.values()))
        color = new
        if new_classes == classes:
            break
        classes = new_classes

    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(b"wl-graph-v1")
    hasher.update(n.to_bytes(8, "big"))
    hasher.update(m.to_bytes(8, "big"))
    for c in sorted(color[v] for v in nodes):
        hasher.update(c)
    for pair in sorted(
        min(color[a], color[b]) + max(color[a], color[b]) for a, b in graph.edges()
    ):
        hasher.update(pair)

    labels: dict[NodeId, int] | None = None
    if classes == n:
        ranked = sorted(nodes, key=lambda v: color[v])
        labels = {v: i for i, v in enumerate(ranked)}
    form = CanonicalForm(hash=hasher.hexdigest(), n=n, m=m, iterations=iterations, labels=labels)
    return form, color


def color_classes(color: dict[NodeId, bytes]) -> set[frozenset]:
    """The partition a colouring induces, as a set of vertex sets."""
    classes: dict[bytes, set] = {}
    for v, c in color.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(cls) for cls in classes.values()}
