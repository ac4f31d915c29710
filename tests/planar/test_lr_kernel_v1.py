"""The array-native LR kernel against the v1 dict-based kernel.

Both run Brandes' left-right algorithm in the same DFS order with the
same stable sorts, so on every input they must give the same verdict and
the same clockwise rotation at every vertex (``tests/planar/lr_v1.py``
holds v1).  Inputs cover random sparse and dense graphs, non-planar and
disconnected ones, isolated vertices, shuffled insertion orders, and the
node labels the pipeline really embeds: ints, ``("copy", ...)``
4-tuples, ``("stub", u, x)`` stubs, and mixtures of them.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planar import Graph, is_planar, lr_is_planar, lr_planarity
from repro.planar.generators import (
    complete_bipartite,
    complete_graph,
    grid_graph,
    random_maximal_planar,
    triangulated_grid,
)
from tests.planar.lr_v1 import v1_is_planar, v1_rotations

lr_mod = importlib.import_module("repro.planar.lr_planarity")


@pytest.fixture(autouse=True)
def _private_memos(monkeypatch):
    """Fresh memo tables, so every solve below can be made cold."""
    monkeypatch.setattr(lr_mod, "_DECIDE_MEMO", {})
    monkeypatch.setattr(lr_mod, "_EMBED_MEMO", {})


def _label(scheme, i):
    if scheme == "int":
        return i
    if scheme == "copy":
        return ("copy", i % 7, i // 7, i)
    if scheme == "stub":
        return ("stub", i, i + 1)
    # mixed: ints, copies and stubs in one graph
    return (i, ("copy", i, 0, i), ("stub", i, 0))[i % 3]


def _build(n, edges, rng, scheme="int", isolated=0.0):
    """A graph on ``n`` labels with ``edges`` inserted in shuffled order and
    orientation; a fraction of the vertices is added up front (so some
    stay isolated and node order differs from first-edge order)."""
    g = Graph()
    for i in rng.sample(range(n), n):
        if rng.random() < isolated:
            g.add_node(_label(scheme, i))
    edges = list(edges)
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        g.add_edge(_label(scheme, u), _label(scheme, v))
    return g


def _random_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _planar_edges(n, keep, rng):
    """A random subgraph of a maximal planar graph (a planar input)."""
    base = random_maximal_planar(n, seed=rng.randrange(10**6))
    return [e for e in base.edges() if rng.random() < keep]


def assert_matches_v1(g):
    """Cold verdicts and rotations of both kernels agree exactly."""
    lr_mod.clear_caches()
    expected = v1_rotations(g)
    rot = lr_planarity(g)
    lr_mod.clear_caches()
    assert lr_is_planar(g) == (expected is not None) == v1_is_planar(g)
    if expected is None:
        assert rot is None
    else:
        assert rot is not None
        assert {v: rot.order(v) for v in g.nodes()} == expected
    return expected is not None


SCHEMES = ("int", "copy", "stub", "mixed")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_seeded_random_sweep(scheme):
    rng = random.Random(f"lr-v1-{scheme}")
    verdicts = []
    for _ in range(400):
        n = rng.randrange(0, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.6))
        g = _build(n, _random_edges(n, p, rng), rng, scheme, isolated=0.3)
        verdicts.append(assert_matches_v1(g))
    assert any(verdicts) and not all(verdicts)  # both outcomes exercised


@pytest.mark.parametrize("scheme", SCHEMES)
def test_seeded_planar_sweep(scheme):
    rng = random.Random(f"lr-v1-planar-{scheme}")
    for _ in range(40):
        n = rng.randrange(4, 120)
        edges = _planar_edges(n, rng.choice((1.0, 0.8, 0.5)), rng)
        g = _build(n, edges, rng, scheme, isolated=0.1)
        assert assert_matches_v1(g)


def test_planar_plus_chords_sweep():
    """Near-planar inputs: a planar graph plus a few random extra edges,
    which usually (not always) makes it non-planar late in the test pass."""
    rng = random.Random("lr-v1-chords")
    for _ in range(60):
        n = rng.randrange(6, 80)
        edges = _planar_edges(n, 1.0, rng)
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, 4))]
        assert_matches_v1(_build(n, edges, rng, "mixed"))


def test_disconnected_unions():
    rng = random.Random("lr-v1-union")
    for _ in range(30):
        parts, offset = [], 0
        for _ in range(rng.randrange(2, 5)):
            k = rng.randrange(3, 25)
            parts += [(u + offset, v + offset) for u, v in _planar_edges(k, 0.7, rng)]
            offset += k
        if rng.random() < 0.5:  # one non-planar component sinks the union
            parts += [(u + offset, v + offset) for u, v in complete_graph(5).edges()]
            offset += 5
        assert_matches_v1(_build(offset, parts, rng, "int", isolated=0.2))


@pytest.mark.parametrize(
    "g",
    [
        grid_graph(40, 40),
        triangulated_grid(20, 20),
        random_maximal_planar(600, seed=3),
        complete_graph(5),
        complete_bipartite(3, 3),
        complete_graph(8),  # rejected by the edge bound
        Graph(),
        Graph(nodes=[("stub", 0, 1)]),
    ],
    ids=["grid40", "trigrid20", "maximal600", "k5", "k33", "k8", "empty", "single"],
)
def test_fixed_families(g):
    assert_matches_v1(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hypothesis_differential(data):
    n = data.draw(st.integers(min_value=0, max_value=16))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    scheme = data.draw(st.sampled_from(SCHEMES))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    isolated = data.draw(st.sampled_from((0.0, 0.3, 1.0)))
    assert_matches_v1(_build(n, edges, random.Random(seed), scheme, isolated))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=60),
    keep=st.sampled_from((1.0, 0.8, 0.5)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scheme=st.sampled_from(SCHEMES),
)
def test_hypothesis_planar_differential(n, keep, seed, scheme):
    rng = random.Random(seed)
    assert assert_matches_v1(_build(n, _planar_edges(n, keep, rng), rng, scheme))


def test_memo_hit_equals_cold_solve():
    """A structural memo hit (same relabeled adjacency, other labels)
    returns exactly what a cold solve of that graph returns."""
    rng = random.Random("lr-v1-memo")
    edges = _planar_edges(50, 0.8, rng)
    order_rng = random.Random(7)
    g_int = _build(50, edges, order_rng, "int")
    order_rng = random.Random(7)  # same insertion order, other labels
    g_copy = _build(50, edges, order_rng, "copy")

    lr_mod.clear_caches()
    lr_planarity(g_int)
    assert len(lr_mod._EMBED_MEMO) == 1
    warm = lr_planarity(g_copy)
    assert len(lr_mod._EMBED_MEMO) == 1  # served from the memo
    assert is_planar(g_copy)  # decided from the embed memo
    lr_mod.clear_caches()
    cold = lr_planarity(g_copy)
    assert {v: warm.order(v) for v in g_copy.nodes()} == {
        v: cold.order(v) for v in g_copy.nodes()
    } == v1_rotations(g_copy)
