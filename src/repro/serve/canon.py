"""Whole-graph canonical hashing for the serving cache.

The E16 scoped oracle (:mod:`repro.planar.scoped`) already showed that
canonicalizing a *region* — renaming its one fresh copy vertex to a
fixed token — turns isomorphic subproblems into cache hits.  The service
layer needs the same trick at whole-job scope: two submissions of the
same topology under different vertex labels should land on the same
cache line.  This module computes a **label-invariant canonical hash**
of a graph by colour refinement (1-WL), implemented as smaller-half
partition refinement (Hopcroft; Paige–Tarjan):

* the vertices sit in one permutation array, and every cell of the
  ordered partition is a contiguous range of it, named by its start
  position;
* the first partition groups vertices by degree, in ascending degree
  order;
* each round counts, for every vertex, its neighbours in each
  *splitter* cell, and splits every cell by those counts: vertices with
  no neighbour in a splitter keep the cell's start, the others follow in
  ascending order of their count signature;
* a round's splitters are the pieces the previous round cut, except the
  largest piece of each cut (the first round: every degree cell except
  the largest).  Counts into the left-out piece follow from counts into
  its parent and its siblings, so each round ends on the same partition
  as a full 1-WL round — and each vertex is a splitter member at most
  O(log n) times, so refinement costs O(m log n) overall;
* refinement stops when a round cuts nothing (the partition is the
  coarsest equitable one, 1-WL's stable colouring) or every cell is a
  single vertex.

Cell positions and count signatures never depend on vertex names, so
the ordered partition is canonical.  The graph hash (tag
``wl-graph-v2``) digests ``(n, m)``, the degree cells, the split trace
(every cut cell, its pieces and their signatures, round by round) and
the sorted multiset of edges under cell ranks.  ``CanonicalForm
.iterations`` counts refinement rounds.  Round r leaves the partition of
1-WL round r, so this equals the WL round count of the earlier
``wl-graph-v1`` hash, except on regular graphs: their degree partition
is already stable, which takes 0 rounds here and took one confirming
WL round there.  The new tag makes records keyed by v1 hashes miss the
canonical tier cleanly instead of aliasing.

All hashing uses ``blake2b`` over deterministic byte strings — never
Python's randomized ``hash()`` — so the digest is **stable across
processes and machines**, which the persistent JSONL cache relies on.

1-WL cannot distinguish *every* non-isomorphic pair (co-spectral regular
graphs collide), so the cache layered on top never trusts the hash
alone: exact hits match a submission-order fingerprint, and isomorphic
"remap" hits are only served when refinement is **discrete** (every
vertex alone in its cell).  In that case cell order is a genuine
canonical labeling: matching cells between two discretely refined graphs
with equal hashes *is* an isomorphism, because the edge multiset under
cell ranks is part of the hash.  Symmetric families (the grid's mirror
images, cycles) never refine to discrete cells and are simply served by
exact fingerprint instead — correctness never leans on a heuristic.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from ..planar.graph import Graph, NodeId, sort_key

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_hash",
    "equitable_partition",
    "exact_fingerprint",
]

#: Digest width for graph hashes (128 bits: birthday collisions are
#: negligible at any realistic cache population).
_DIGEST_SIZE = 16


def _h(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


def _pack(ints: list[int]) -> bytes:
    """Length-prefixed big-endian int64s: the same bytes on every host."""
    return struct.pack(f">q{len(ints)}q", len(ints), *ints)


@dataclass(frozen=True)
class CanonicalForm:
    """The refinement outcome for one graph.

    ``hash`` is the label-invariant hex digest.  ``labels`` maps every
    vertex to its canonical rank — present **only** when refinement was
    discrete (every cell a single vertex), i.e. when the ranks constitute
    a canonical labeling usable for isomorphism remapping; ``None``
    otherwise.  ``iterations`` is the number of refinement rounds.
    """

    hash: str
    n: int
    m: int
    iterations: int
    labels: dict[NodeId, int] | None = field(default=None, compare=False)

    @property
    def discrete(self) -> bool:
        return self.labels is not None


def _refine(nbrs: list[list[int]]) -> tuple[list[int], list[int], list[int], int]:
    """Smaller-half refinement of vertices ``0..n-1`` with adjacency
    ``nbrs`` from the degree partition to the coarsest equitable one.

    Returns ``(order, cell, trace, rounds)``: the permutation array, each
    vertex's cell start in it, the split trace and the round count.
    """
    n = len(nbrs)
    order = sorted(range(n), key=lambda v: len(nbrs[v]))
    pos = [0] * n
    cell = [0] * n
    end = [0] * n  # end[start] = one past the last position of that cell
    trace: list[int] = []
    queue: list[int] = []
    i = 0
    while i < n:
        degree = len(nbrs[order[i]])
        j = i
        while j < n and len(nbrs[order[j]]) == degree:
            pos[order[j]] = j
            cell[order[j]] = i
            j += 1
        end[i] = j
        trace += (i, degree)
        queue.append(i)
        i = j
    cells = len(queue)
    # The degree partition is stable with respect to the whole vertex
    # set, so the largest degree cell need not split anything.
    queue.remove(max(queue, key=lambda s: end[s] - s))
    rounds = 0
    while queue and cells < n:
        rounds += 1
        trace.append(-2)
        # Each vertex's signature lists the splitters it has neighbours
        # in, once per neighbour, in ascending splitter order.
        sig: dict[int, list[int]] = {}
        for s in queue:
            for u in order[s:end[s]]:
                for w in nbrs[u]:
                    found = sig.get(w)
                    if found is None:
                        sig[w] = [s]
                    else:
                        found.append(s)
        touched: dict[int, list[int]] = {}
        for w in sig:
            found = touched.get(cell[w])
            if found is None:
                touched[cell[w]] = [w]
            else:
                found.append(w)
        queue = []
        for c in sorted(touched):
            members = touched[c]
            members.sort(key=sig.__getitem__)
            e = end[c]
            t = e - len(members)
            if t == c and sig[members[0]] == sig[members[-1]]:
                continue  # every vertex of the cell has the same counts
            if t > c:
                # Swap the untouched vertices out of [t, e), into the
                # holes the touched ones leave below t.
                j = t
                for w in members:
                    p = pos[w]
                    if p < t:
                        while order[j] in sig:
                            j += 1
                        order[p] = order[j]
                        pos[order[j]] = p
                        j += 1
            order[t:e] = members
            starts = [c] if t > c else []
            trace += (c, t)
            previous = None
            for p, w in enumerate(members, t):
                pos[w] = p
                signature = sig[w]
                if signature != previous:
                    previous = signature
                    starts.append(p)
                    trace += (p, len(signature))
                    trace += signature
                cell[w] = starts[-1]
            trace.append(-1)
            for a, b in zip(starts, starts[1:]):
                end[a] = b
            end[starts[-1]] = e
            cells += len(starts) - 1
            largest = max(starts, key=lambda s: end[s] - s)
            queue += (s for s in starts if s != largest)
    return order, cell, trace, rounds


def _indexed(graph: Graph) -> tuple[list[NodeId], list[list[int]]]:
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    adj = graph._adj
    return nodes, [[index[u] for u in adj[v]] for v in nodes]


def equitable_partition(graph: Graph) -> list[list[NodeId]]:
    """The coarsest equitable partition refining the degree partition
    (1-WL's stable colour classes), cells in canonical order."""
    nodes, nbrs = _indexed(graph)
    order, cell, _trace, _rounds = _refine(nbrs)
    cells: list[list[NodeId]] = []
    for p, v in enumerate(order):
        if cell[v] == p:
            cells.append([])
        cells[-1].append(nodes[v])
    return cells


def canonical_form(graph: Graph) -> CanonicalForm:
    """Refine ``graph``'s partition and return its canonical form."""
    nodes, nbrs = _indexed(graph)
    n = len(nodes)
    if n == 0:
        return CanonicalForm(hash=_h(b"empty-graph").hex(), n=0, m=0, iterations=0, labels={})
    order, cell, trace, rounds = _refine(nbrs)
    edges = sorted(
        min(cell[a], cell[b]) * n + max(cell[a], cell[b])
        for a in range(n)
        for b in nbrs[a]
        if a < b
    )
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(b"wl-graph-v2")
    hasher.update(_pack([n, len(edges)]))
    hasher.update(_pack(trace))
    hasher.update(_pack(edges))

    labels: dict[NodeId, int] | None = None
    if all(cell[v] == p for p, v in enumerate(order)):
        # Discrete refinement: cell order is a canonical labeling.
        labels = {nodes[v]: p for p, v in enumerate(order)}
    return CanonicalForm(
        hash=hasher.hexdigest(), n=n, m=len(edges), iterations=rounds, labels=labels
    )


def canonical_hash(graph: Graph) -> str:
    """The label-invariant hex digest of ``graph`` (shorthand)."""
    return canonical_form(graph).hash


def exact_fingerprint(graph: Graph) -> str:
    """A digest of the graph *as constructed*: vertex identities plus
    per-vertex adjacency in insertion order.

    Two submissions with equal fingerprints build byte-identical
    adjacency structures, and every algorithm in this library is
    deterministic given that structure — so an exact-fingerprint cache
    hit may legally return the stored report verbatim as "bit-identical
    to a cold run".  Equal fingerprints also imply equal canonical
    forms, which is why the cache can consult its exact tier before the
    canonical form is computed at all.  Submissions of the same edge set
    in a *different order* get different fingerprints on purpose:
    insertion order is observable in the output rotation, so
    order-insensitive matching would break the bit-identical contract
    (they still share a canonical hash and dedupe at that level).
    """
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(b"exact-v1")
    for v in graph.nodes():
        hasher.update(b"\x00v" + sort_key(v).encode())
        for u in graph.neighbors(v):
            hasher.update(b"\x01n" + sort_key(u).encode())
    return hasher.hexdigest()
