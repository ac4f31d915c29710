"""Property tests for the whole-graph canonical hash (serve/canon.py).

The serving cache's contract rests on three hash properties, each
pinned here: **invariance** (equal across arbitrary vertex relabelings
of one topology — hypothesis-driven), **discrimination** (distinct
across the seeded demo families at equal vertex counts), and
**process stability** (the digest never touches Python's randomized
``hash()``, so it is byte-equal across interpreters with different
``PYTHONHASHSEED`` — what persistent JSONL cache stores rely on).
The partition refinement behind the hash is also held to the
``wl-graph-v1`` WL loop it replaced (``tests/serve/wl_v1.py``): same
stable partition, discreteness and round count.
"""

import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planar.generators import (
    caterpillar,
    cycle_graph,
    grid_graph,
    k4_subdivision,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)
from repro.planar.graph import Graph
from repro.serve import canonical_form, canonical_hash, exact_fingerprint
from repro.serve.canon import equitable_partition
from tests.serve.wl_v1 import color_classes, wl_v1

FAMILIES = {
    "grid": lambda n, seed: grid_graph(max(2, round(n ** 0.5)), max(2, round(n ** 0.5))),
    "trigrid": lambda n, seed: triangulated_grid(max(2, round(n ** 0.5)), max(2, round(n ** 0.5))),
    "tree": random_tree,
    "outerplanar": random_outerplanar,
    "maximal": lambda n, seed: random_maximal_planar(max(4, n), seed=seed),
}


def relabel(graph: Graph, perm_seed: int) -> Graph:
    """The same topology under a random bijective renaming, with edge
    insertion order shuffled too — nothing but structure survives."""
    nodes = graph.nodes()
    shuffled = list(nodes)
    rng = random.Random(perm_seed)
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    edges = [(mapping[u], mapping[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    return Graph(edges=edges)


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    perm_seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_hash_invariant_under_relabeling(family, n, seed, perm_seed):
    graph = FAMILIES[family](n, seed)
    assert canonical_hash(relabel(graph, perm_seed)) == canonical_hash(graph)


@given(
    n=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
    perm_seed=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_discrete_labels_agree_across_relabelings(n, seed, perm_seed):
    """When refinement is discrete, the canonical ranks are a labeling:
    mapping each graph's rank-i vertex to the other's rank-i vertex is
    an isomorphism (here: checked edge-for-edge)."""
    graph = random_maximal_planar(max(4, n), seed=seed)
    form = canonical_form(graph)
    if form.labels is None:
        return  # symmetric instance: nothing to check
    other = relabel(graph, perm_seed)
    other_form = canonical_form(other)
    assert other_form.hash == form.hash
    assert other_form.labels is not None
    inverse = {rank: v for v, rank in other_form.labels.items()}
    mapping = {v: inverse[rank] for v, rank in form.labels.items()}
    mapped = {frozenset((mapping[u], mapping[v])) for u, v in graph.edges()}
    assert mapped == {frozenset(e) for e in other.edges()}


def test_distinct_across_demo_families():
    """The five seeded demo families at 25 vertices all get different
    hashes — the cache must never cross-serve them."""
    graphs = {
        "grid": grid_graph(5, 5),
        "trigrid": triangulated_grid(5, 5),
        "maximal": random_maximal_planar(25, seed=1),
        "outerplanar": random_outerplanar(25, seed=1),
        "tree": random_tree(25, seed=1),
    }
    hashes = {name: canonical_hash(g) for name, g in graphs.items()}
    assert len(set(hashes.values())) == len(hashes), hashes


def test_distinct_across_sizes_and_seeds():
    assert canonical_hash(grid_graph(4, 4)) != canonical_hash(grid_graph(4, 5))
    assert canonical_hash(random_maximal_planar(20, seed=1)) != canonical_hash(
        random_maximal_planar(20, seed=2)
    )


def test_hash_stable_across_processes():
    """blake2b over deterministic bytes: a subprocess with a different
    PYTHONHASHSEED must reproduce the digest byte-for-byte."""
    reference = canonical_hash(random_maximal_planar(24, seed=3))
    src = Path(__file__).resolve().parent.parent.parent / "src"
    program = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.planar.generators import random_maximal_planar\n"
        "from repro.serve import canonical_hash\n"
        "print(canonical_hash(random_maximal_planar(24, seed=3)))\n"
    )
    for hashseed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", program, str(src)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        assert out.stdout.strip() == reference


def test_symmetric_families_are_not_discrete():
    """Graphs with automorphisms (grids mirror, same-parent leaves swap)
    must refuse a canonical labeling — remap hits would be unsound."""
    assert canonical_form(grid_graph(5, 5)).labels is None
    assert canonical_form(Graph(edges=[(0, 1), (0, 2)])).labels is None


def test_asymmetric_tree_is_discrete():
    # Three arms of distinct lengths 1, 2, 3 off one center: the
    # automorphism group is trivial and 1-WL is complete on trees.
    g = Graph(edges=[(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    form = canonical_form(g)
    assert form.labels is not None
    assert sorted(form.labels.values()) == list(range(7))


def test_exact_fingerprint_is_order_sensitive():
    """Insertion order is observable in the output rotation, so the
    exact tier must distinguish differently-ordered submissions of one
    edge set (they still share a canonical hash)."""
    a = Graph(edges=[(0, 1), (1, 2), (2, 0)])
    b = Graph(edges=[(2, 0), (1, 2), (0, 1)])
    assert exact_fingerprint(a) != exact_fingerprint(b)
    assert canonical_hash(a) == canonical_hash(b)
    c = Graph(edges=[(0, 1), (1, 2), (2, 0)])
    assert exact_fingerprint(c) == exact_fingerprint(a)


def test_single_vertex_and_small_graphs():
    g1 = Graph(nodes=[7])
    g2 = Graph(nodes=["x"])
    assert canonical_hash(g1) == canonical_hash(g2)
    assert canonical_form(g1).labels == {7: 0}
    edge = Graph(edges=[(0, 1)])
    assert canonical_hash(edge) != canonical_hash(g1)


# -- differential against the wl-graph-v1 oracle -----------------------

#: The six demo families plus paths, cycles, caterpillars and long 4 x k
#: grids (high diameter: where v1's per-round rehash was quadratic).
ORACLE_FAMILIES = {
    **FAMILIES,
    "k4sub": lambda n, seed: k4_subdivision(max(1, n // 6)),
    "path": lambda n, seed: path_graph(max(2, n)),
    "cycle": lambda n, seed: cycle_graph(max(3, n)),
    "caterpillar": lambda n, seed: caterpillar(max(2, n // 3), 1 + seed % 3),
    "grid4xk": lambda n, seed: grid_graph(4, max(2, n // 4)),
}


def _is_regular(graph: Graph) -> bool:
    return len({graph.degree(v) for v in graph.nodes()}) == 1


@given(
    family=st.sampled_from(sorted(ORACLE_FAMILIES)),
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
    perm_seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_partition_refinement_matches_wl_v1(family, n, seed, perm_seed):
    """Smaller-half refinement ends on 1-WL's stable colour classes,
    with the same discreteness and (off regular graphs) the same round
    count, on every relabeling."""
    graph = relabel(ORACLE_FAMILIES[family](n, seed), perm_seed)
    v1_form, colors = wl_v1(graph)
    form = canonical_form(graph)
    cells = equitable_partition(graph)
    assert {frozenset(cell) for cell in cells} == color_classes(colors)
    assert sorted(v for cell in cells for v in cell) == sorted(graph.nodes())
    assert form.discrete == v1_form.discrete
    assert (form.labels is None) == (len(cells) < graph.num_nodes)
    if _is_regular(graph):
        assert form.iterations == 0 and v1_form.iterations <= 1
    else:
        assert form.iterations == v1_form.iterations


@given(
    family=st.sampled_from(sorted(ORACLE_FAMILIES)),
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
    perm_seed=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_labels_and_cells_agree_across_relabelings(family, n, seed, perm_seed):
    """Cell order is canonical: a relabeled copy gets the same hash, the
    same cells in the same order under the renaming, and — when
    discrete — the same rank for every renamed vertex."""
    graph = ORACLE_FAMILIES[family](n, seed)
    nodes = graph.nodes()
    shuffled = list(nodes)
    random.Random(perm_seed).shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    other = Graph(edges=[(mapping[u], mapping[v]) for u, v in graph.edges()])
    form, other_form = canonical_form(graph), canonical_form(other)
    assert other_form.hash == form.hash
    assert [len(c) for c in equitable_partition(other)] == [
        len(c) for c in equitable_partition(graph)
    ]
    assert [{mapping[v] for v in c} for c in equitable_partition(graph)] == [
        set(c) for c in equitable_partition(other)
    ]
    if form.labels is not None:
        assert other_form.labels == {mapping[v]: rank for v, rank in form.labels.items()}


def test_v2_hash_never_equals_v1():
    """The tag change makes every v1-keyed store record miss the
    canonical tier."""
    for graph in (grid_graph(4, 4), path_graph(9), random_maximal_planar(20, seed=1)):
        assert canonical_hash(graph) != wl_v1(graph)[0].hash


def test_keying_is_near_linear_on_long_paths():
    """v1 needed ~n/2 full rehash rounds on a path (seconds at n=2000);
    refinement touches O(1) vertices per round."""
    import time

    graph = path_graph(2000)
    start = time.perf_counter()
    form = canonical_form(graph)
    assert time.perf_counter() - start < 1.0
    assert form.iterations == 999  # the WL round count, unchanged
