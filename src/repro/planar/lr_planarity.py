"""From-scratch left-right planarity test with an embedding phase.

This module is the reproduction's stand-in for the Hopcroft-Tarjan
planarity algorithm [HT74] that the paper cites as the centralized
counterpart of its contribution.  It implements the left-right (also
known as de Fraysseix-Rosenstiehl) planarity criterion in the formulation
of Brandes' lecture notes ("The left-right planarity test"), including the
embedding phase, so that a planar input yields a full rotation system.

The algorithm runs in three DFS passes over an orientation of the graph:

1. *Orientation* - root a DFS forest, classify edges as tree/back edges,
   and compute ``lowpt``/``lowpt2``/``nesting_depth`` per directed edge.
2. *Testing* - process outgoing edges in nesting order while maintaining a
   stack of conflict pairs (intervals of return edges that must go to the
   same side); a forced left-left/right-right conflict proves K5/K3,3.
3. *Embedding* - resolve the relative sides via the ``ref``/``side``
   relation, re-sort adjacencies by signed nesting depth, and emit a
   rotation system by splicing back edges next to the correct reference
   half-edges.

All passes are iterative (no Python recursion) so graphs far beyond the
interpreter's recursion limit embed fine.  The test-suite cross-validates
this module against ``networkx.check_planarity`` on thousands of random
graphs, and against the first (dict-based) implementation of the same
algorithm, which is kept in ``tests/planar/lr_v1.py``; inside the library
it is the *only* planarity kernel.

Internally the input is relabeled to integers ``0..n-1`` in node
insertion order and stored as a CSR adjacency: vertex ``v``'s neighbours
occupy the slots ``off[v] .. off[v + 1] - 1`` of one flat ``dst`` list,
in insertion order.  A directed edge ``(v, w)`` is identified by its
slot ``off[v] + i`` (``w`` being ``v``'s ``i``-th neighbour), so every
per-edge quantity (``lowpt``, ``nesting_depth``, ``ref``, ``side``, ...)
is a preallocated flat list indexed by edge id, and ``src``/``dst`` give
an edge's endpoints.  Each undirected edge is oriented once, and keeps
the slot at its tail.  The relabeling is order-preserving — adjacency
lists keep their insertion order, and the nesting-depth sorts are
stable — so the emitted rotation system is exactly the one the algorithm
would produce on the original labels.

Callers that only need the verdict (e.g. the scoped split-validation
oracle) can use :func:`lr_is_planar`, which runs the orientation and
testing passes and skips the embedding phase entirely.

CONGEST context: nodes have unbounded local computation, so the
distributed algorithm's coordinators may run this kernel locally on the
(small, summarized) instances they gather; see ``repro.core.merges``.
"""

from __future__ import annotations

from .graph import Graph, NodeId
from .rotation import RotationSystem

__all__ = [
    "NonPlanarGraphError",
    "lr_planarity",
    "lr_is_planar",
    "planar_embedding",
    "is_planar",
]


class NonPlanarGraphError(ValueError):
    """Raised when an embedding is requested for a non-planar graph."""


# Structural memoization: the solver relabels nodes to ``0..n-1`` in
# insertion order, and every pass afterwards is a pure function of the
# relabeled adjacency structure ``tuple(tuple(ints), ...)``.  Two graphs
# with the same structure therefore get the same verdict and the same
# int-level rotations — only the final int->node mapping differs.  The
# recursion embeds thousands of small parts (leaf stars, short paths,
# repeated realization gadgets) that collide on structure constantly, so
# both the verdict and the embedding are cached per structure.  Caches
# are cleared wholesale when full, like ``interface._BLOCK_ORDER_MEMO``.
_MEMO_MISS = object()
_DECIDE_MEMO: dict[tuple, bool] = {}
_EMBED_MEMO: dict[tuple, tuple[tuple[int, ...], ...] | None] = {}
_MEMO_MAX_ENTRIES = 1 << 12


def clear_caches() -> None:
    """Drop the structural memo tables.

    The memos are process-global pure caches (verdicts and int-level
    rotations keyed by relabeled structure), so sharing them is always
    *correct* — but a forked shard worker should start from an empty,
    process-private state rather than a copy-on-write snapshot of the
    parent's tables.  Worker initializers call this via
    :func:`repro.shard.caches.clear_caches`.
    """
    _DECIDE_MEMO.clear()
    _EMBED_MEMO.clear()


def _structure(graph: Graph) -> tuple[list[NodeId], tuple[tuple[int, ...], ...]]:
    """``graph``'s nodes in insertion order and its relabeled adjacency.

    The adjacency (vertex ``i`` is ``nodes[i]``, neighbours in insertion
    order) is both the memo key and the solver's only input.
    """
    nodes = graph.nodes()
    index = {u: i for i, u in enumerate(nodes)}.__getitem__
    adj = graph._adj
    return nodes, tuple([tuple(map(index, adj[u])) for u in nodes])


def _memo_decide(graph: Graph) -> bool:
    key = _structure(graph)[1]
    verdict = _DECIDE_MEMO.get(key)
    if verdict is None:
        embedded = _EMBED_MEMO.get(key, _MEMO_MISS)
        if embedded is not _MEMO_MISS:
            verdict = embedded is not None
        else:
            verdict = _LRPlanarity(key).decide()
        if len(_DECIDE_MEMO) >= _MEMO_MAX_ENTRIES:
            _DECIDE_MEMO.clear()
        _DECIDE_MEMO[key] = verdict
    return verdict


def is_planar(graph: Graph) -> bool:
    """True iff ``graph`` is planar (decision only; no embedding built)."""
    return _memo_decide(graph)


def lr_is_planar(graph: Graph) -> bool:
    """Decision-only left-right test: orientation + testing passes.

    Identical verdict to ``lr_planarity(graph) is not None`` (the
    embedding pass never changes the outcome) at roughly two thirds of
    the cost; use it wherever the rotation system itself is not needed.
    """
    return _memo_decide(graph)


def planar_embedding(graph: Graph) -> RotationSystem:
    """A combinatorial planar embedding of ``graph``.

    Raises :class:`NonPlanarGraphError` when the graph is not planar.
    """
    rotation = lr_planarity(graph)
    if rotation is None:
        raise NonPlanarGraphError(
            f"graph with {graph.num_nodes} nodes / {graph.num_edges} edges is not planar"
        )
    return rotation


def lr_planarity(graph: Graph) -> RotationSystem | None:
    """Left-right planarity test; a rotation system, or ``None`` if non-planar."""
    nodes, key = _structure(graph)
    rings = _EMBED_MEMO.get(key, _MEMO_MISS)
    if rings is _MEMO_MISS:
        rings = _LRPlanarity(key).int_rotations()
        if len(_EMBED_MEMO) >= _MEMO_MAX_ENTRIES:
            _EMBED_MEMO.clear()
        _EMBED_MEMO[key] = rings
    if rings is None:
        return None
    order = {
        nodes[v]: tuple([nodes[w] for w in ring]) for v, ring in enumerate(rings)
    }
    return RotationSystem.trusted(graph, order)


class _LRPlanarity:
    """State machine for one left-right planarity run.

    Works on the CSR relabeling described in the module docstring:
    ``adj[v]`` lists ``v``'s neighbours, and the directed edge ``(v, w)``
    is the slot of ``w`` in ``v``'s row.  Node- and edge-indexed state
    lives in flat lists; ``None`` marks an absent edge (no parent edge,
    no reference, an empty interval end).

    A conflict pair is a 4-slot list ``[L.low, L.high, R.low, R.high]``
    of return edges.  Pairs on the stack are compared by identity
    (``stack_bottom``), so a pair that is trimmed in place keeps it.
    """

    def __init__(self, adj: tuple[tuple[int, ...], ...]) -> None:
        n = len(adj)
        self.n = n
        off = [0] * (n + 1)
        dst: list[int] = []
        src: list[int] = []
        for v, row in enumerate(adj):
            dst += row
            src += [v] * len(row)
            off[v + 1] = len(dst)
        self.off = off
        self.dst = dst
        self.src = src
        slots = len(dst)
        self.roots: list[int] = []
        self.height: list[int] = [-1] * n
        self.parent_edge: list[int | None] = [None] * n
        self.out_adj: list[list[int]] = [[] for _ in range(n)]
        self.ordered_adjs: list[list[int]] = []
        # Per *directed* edge (CSR slot of the edge at its tail):
        self.lowpt: list[int] = [0] * slots
        self.lowpt2: list[int] = [0] * slots
        self.nesting_depth: list[int] = [0] * slots
        self.ref: list[int | None] = [None] * slots
        self.side: list[int] = [1] * slots
        self.stack_bottom: list[list | None] = [None] * slots
        self.lowpt_edge: list[int | None] = [None] * slots
        self.S: list[list] = []

    def _ordered_out_adj(self) -> list[list[int]]:
        """Each ``out_adj[v]`` stably sorted by nesting depth."""
        depth = self.nesting_depth.__getitem__
        return [sorted(out, key=depth) for out in self.out_adj]

    def decide(self) -> bool:
        """Passes 1 + 2 only: True iff the graph is planar."""
        n = self.n
        if n > 2 and len(self.dst) // 2 > 3 * n - 6:
            return False  # violates the planar edge bound

        self._dfs_orientation()  # pass 1
        self.ordered_adjs = self._ordered_out_adj()
        return self._dfs_testing()  # pass 2

    def int_rotations(self) -> tuple[tuple[int, ...], ...] | None:
        """Per-vertex clockwise rings over the int relabeling (or None).

        This is the whole algorithm minus the final int->node mapping; a
        pure function of the relabeled adjacency, which is what makes
        the module's structural memo sound.
        """
        if not self.decide():
            return None

        # Pass 3: embedding.
        nesting_depth = self.nesting_depth
        ref = self.ref
        side = self.side
        sign = self._sign
        for out in self.out_adj:
            for e in out:
                nesting_depth[e] *= side[e] if ref[e] is None else sign(e)
        self.ordered_adjs = self._ordered_out_adj()
        return self._embed()

    # -- pass 1 -----------------------------------------------------------

    def _dfs_orientation(self) -> None:
        """Orient every edge along a DFS forest, one tree per component."""
        off = self.off
        dst = self.dst
        src = self.src
        height = self.height
        parent_edge = self.parent_edge
        lowpt = self.lowpt
        lowpt2 = self.lowpt2
        nesting_depth = self.nesting_depth
        out_adj = self.out_adj
        # next slot to scan per vertex; a resumed vertex rescans its tree
        # edge, recognised by ``parent_edge[w] == vw``
        ind = off[:-1]

        for root in range(self.n):
            if height[root] >= 0:
                continue
            height[root] = 0
            self.roots.append(root)
            dfs_stack = [root]
            while dfs_stack:
                v = dfs_stack.pop()
                e = parent_edge[v]
                parent = -1 if e is None else src[e]
                out = out_adj[v]
                hv = height[v]
                vw = ind[v]
                end = off[v + 1]
                while vw < end:
                    w = dst[vw]
                    hw = height[w]
                    if hw < 0:  # tree edge: orient it, descend, resume here
                        out.append(vw)
                        lowpt[vw] = hv
                        lowpt2[vw] = hv
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = vw
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        break
                    if parent_edge[w] != vw:  # not the tree edge just finished
                        if hw >= hv or w == parent:
                            vw += 1  # oriented from the other end already
                            continue
                        out.append(vw)  # back edge
                        lowpt[vw] = hw
                        lowpt2[vw] = hv
                    low = lowpt[vw]
                    low2 = lowpt2[vw]

                    # nesting depth: twice the lowpoint, +1 if chordal
                    nesting_depth[vw] = 2 * low + (1 if low2 < hv else 0)

                    if e is not None:  # fold lowpoints into the parent edge
                        le = lowpt[e]
                        if low < le:
                            lowpt2[e] = le if le < low2 else low2
                            lowpt[e] = low
                        elif low > le:
                            if low < lowpt2[e]:
                                lowpt2[e] = low
                        elif low2 < lowpt2[e]:
                            lowpt2[e] = low2
                    vw += 1

    # -- pass 2 -----------------------------------------------------------

    def _dfs_testing(self) -> bool:
        """Run the conflict-pair test over every DFS tree; False on a conflict."""
        dst = self.dst
        parent_edge = self.parent_edge
        height = self.height
        lowpt = self.lowpt
        lowpt_edge = self.lowpt_edge
        stack_bottom = self.stack_bottom
        ordered_adjs = self.ordered_adjs
        add_constraints = self._add_constraints
        remove_back_edges = self._remove_back_edges
        S = self.S
        # per vertex: how many ordered out-edges have been started; a
        # resumed vertex first integrates the tree edge it descended
        ind = [0] * self.n

        for root in self.roots:
            dfs_stack = [root]
            while dfs_stack:
                v = dfs_stack.pop()
                e = parent_edge[v]
                adjacency = ordered_adjs[v]
                degree = len(adjacency)
                hv = height[v]
                i = ind[v]
                if i:  # back from the tree edge adjacency[i - 1]
                    ei = adjacency[i - 1]
                    if lowpt[ei] < hv:
                        if i == 1:
                            lowpt_edge[e] = lowpt_edge[ei]
                        elif not add_constraints(ei, e):
                            return False
                while i < degree:
                    ei = adjacency[i]
                    i += 1
                    stack_bottom[ei] = S[-1] if S else None
                    w = dst[ei]
                    if ei == parent_edge[w]:  # tree edge: recurse first
                        ind[v] = i
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        break
                    # back edge: its own one-element right interval
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])

                    # integrate the return edges contributed by ei
                    if lowpt[ei] < hv:
                        if i == 1:
                            lowpt_edge[e] = lowpt_edge[ei]
                        elif not add_constraints(ei, e):
                            return False  # forced same-side conflict: non-planar
                else:
                    if e is not None:
                        remove_back_edges(e)
        return True

    def _add_constraints(self, ei: int, e: int) -> bool:
        lowpt = self.lowpt
        ref = self.ref
        S = self.S
        pl_lo = pl_hi = pr_lo = pr_hi = None
        lp_e = lowpt[e]
        lp_ei = lowpt[ei]
        bottom = self.stack_bottom[ei]
        # merge return edges of ei into P.right
        while True:
            ql_lo, ql_hi, qr_lo, qr_hi = S.pop()
            if ql_lo is not None or ql_hi is not None:  # read Q swapped
                if qr_lo is not None or qr_hi is not None:
                    return False
                qr_lo, qr_hi = ql_lo, ql_hi
            if lowpt[qr_lo] > lp_e:
                if pr_lo is None and pr_hi is None:
                    pr_hi = qr_hi
                else:
                    ref[pr_lo] = qr_hi
                pr_lo = qr_lo
            else:  # align with the parent's lowpoint edge
                ref[qr_lo] = self.lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while True:
            top = S[-1]
            hl = top[1]
            hr = top[3]
            if not (
                (hl is not None and lowpt[hl] > lp_ei)
                or (hr is not None and lowpt[hr] > lp_ei)
            ):
                break
            ql_lo, ql_hi, qr_lo, qr_hi = S.pop()
            if qr_hi is not None and lowpt[qr_hi] > lp_ei:  # read Q swapped
                ql_lo, ql_hi, qr_lo, qr_hi = qr_lo, qr_hi, ql_lo, ql_hi
                if qr_hi is not None and lowpt[qr_hi] > lp_ei:
                    return False
            if pr_lo is not None:  # an empty P.right has no ref to set
                ref[pr_lo] = qr_hi
            if qr_lo is not None:
                pr_lo = qr_lo
            if pl_lo is None and pl_hi is None:
                pl_hi = ql_hi
            else:
                ref[pl_lo] = ql_hi
            pl_lo = ql_lo
        if not (pl_lo is None and pl_hi is None and pr_lo is None and pr_hi is None):
            S.append([pl_lo, pl_hi, pr_lo, pr_hi])
        return True

    def _remove_back_edges(self, e: int) -> None:
        dst = self.dst
        u = self.src[e]
        hu = self.height[u]
        lowpt = self.lowpt
        ref = self.ref
        side = self.side
        S = self.S
        # drop entire conflict pairs whose lowest return point is u
        while S:
            l_lo, l_hi, r_lo, r_hi = S[-1]
            if l_lo is None and l_hi is None:
                lowest = lowpt[r_lo]
            elif r_lo is None and r_hi is None:
                lowest = lowpt[l_lo]
            else:
                lowest = min(lowpt[l_lo], lowpt[r_lo])
            if lowest != hu:
                break
            S.pop()
            if l_lo is not None:
                side[l_lo] = -1
        if S:  # one more pair may need trimming (in place: same identity)
            P = S[-1]
            high = P[1]
            while high is not None and dst[high] == u:
                high = ref[high]
            P[1] = high
            if high is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            high = P[3]
            while high is not None and dst[high] == u:
                high = ref[high]
            P[3] = high
            if high is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # the side of e follows the side of its highest return edge
        if lowpt[e] < hu:
            top = S[-1]
            hl = top[1]
            hr = top[3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    # -- pass 3 -----------------------------------------------------------

    def _sign(self, e: int) -> int:
        """Resolve the absolute side of ``e`` along its ``ref`` chain.

        Every edge on the chain gets its absolute side and loses its
        reference, so later calls stop at it.
        """
        ref = self.ref
        side = self.side
        chain = []
        cur = e
        nxt = ref[cur]
        while nxt is not None:
            chain.append(cur)
            ref[cur] = None
            cur = nxt
            nxt = ref[cur]
        s = side[cur]
        for cur in reversed(chain):
            s = side[cur] = side[cur] * s
        return s

    def _embed(self) -> tuple[tuple[int, ...], ...]:
        """Splice every back edge into the tree-edge rings; the cw rings.

        Half-edges are numbered by edge id: ``e`` is edge ``e``'s half
        at its tail, ``e + slots`` its half at its head, so ``nbr[h]``
        is the neighbour that half-edge ``h`` points to.  ``cw``/``ccw``
        link each vertex's ring; ``first`` is its ring's start.
        """
        n = self.n
        dst = self.dst
        ordered_adjs = self.ordered_adjs
        slots = len(dst)
        nbr = dst + self.src
        cw: list[int] = [0] * (2 * slots)
        ccw: list[int] = [0] * (2 * slots)
        first: list[int | None] = [None] * n
        for v, ordered in enumerate(ordered_adjs):
            if ordered:  # the out-edges, clockwise in nesting order
                prev = ordered[-1]
                for h in ordered:
                    cw[prev] = h
                    ccw[h] = prev
                    prev = h
                first[v] = ordered[0]

        parent_edge = self.parent_edge
        side = self.side
        left_ref: list[int | None] = [None] * n
        right_ref: list[int | None] = [None] * n
        ind = [0] * n
        for root in self.roots:
            dfs_stack = [root]
            while dfs_stack:
                v = dfs_stack.pop()
                adjacency = ordered_adjs[v]
                degree = len(adjacency)
                i = ind[v]
                while i < degree:
                    ei = adjacency[i]
                    i += 1
                    w = dst[ei]
                    h = ei + slots  # the half-edge w -> v
                    if ei == parent_edge[w]:  # tree edge: w -> v goes first
                        at = first[w]
                        if at is None:
                            cw[h] = ccw[h] = h
                        else:  # insert h counter-clockwise before ``at``
                            before = ccw[at]
                            cw[before] = h
                            ccw[at] = h
                            cw[h] = at
                            ccw[h] = before
                        first[w] = h
                        left_ref[v] = right_ref[v] = ei
                        ind[v] = i
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        break
                    # back edge: splice next to the reference half-edge at w
                    if side[ei] == 1:
                        before = right_ref[w]  # h goes clockwise after it
                    else:  # h goes counter-clockwise before left_ref[w]
                        at = left_ref[w]
                        before = ccw[at]
                        if at == first[w]:
                            first[w] = h
                        left_ref[w] = h
                    after = cw[before]
                    cw[before] = h
                    cw[h] = after
                    ccw[after] = h
                    ccw[h] = before

        rings = []
        for v in range(n):
            start = first[v]
            if start is None:
                rings.append(())
                continue
            ring = [nbr[start]]
            h = cw[start]
            while h != start:
                ring.append(nbr[h])
                h = cw[h]
            rings.append(tuple(ring))
        return tuple(rings)
