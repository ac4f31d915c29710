"""The job model (serve/jobs.py) and result cache (serve/cache.py)."""

import json

import pytest

from repro.planar import lr_planarity
from repro.planar.generators import grid_graph, random_maximal_planar
from repro.planar.graph import Graph
from repro.serve import (
    ResultCache,
    ServiceDriver,
    canonical_form,
    config_key,
    exact_fingerprint,
    load_jobs,
    parse_job,
)
from repro.serve.jobs import JobSpecError


class TestJobParsing:
    def test_edges_job(self):
        job = parse_job({"edges": [[0, 1], [1, 2], [2, 0]], "id": "tri"}, 4)
        assert job.id == "tri"
        assert job.kind == "embed"
        assert job.index == 4
        assert job.graph.num_nodes == 3
        assert job.config == {"bandwidth": 1}

    def test_demo_job_expanded_at_parse_time(self):
        job = parse_job({"demo": ["grid", 3, 3]})
        assert job.graph.num_nodes == 9
        assert job.payload()["edges"] == [list(e) for e in grid_graph(3, 3).edges()]

    def test_demo_seed_threaded(self):
        a = parse_job({"demo": ["maximal", 12], "seed": 1})
        b = parse_job({"demo": ["maximal", 12], "seed": 2})
        assert sorted(map(repr, a.graph.edges())) != sorted(map(repr, b.graph.edges()))

    def test_heal_config_defaults(self):
        job = parse_job({"demo": ["grid", 3, 3], "kind": "heal"})
        assert job.config == {
            "bandwidth": 1, "faults": None, "fault_seed": 0, "max_retries": 3,
        }

    @pytest.mark.parametrize("bad", [
        {},  # no graph source
        {"edges": [[0, 1]], "demo": ["grid", 2, 2]},  # both sources
        {"edges": [[0, 1]], "kind": "dance"},  # unknown kind
        {"edges": [[0, 1]], "bogus": 1},  # unknown field
        {"edges": [[0, 1]], "config": {"bogus": 1}},  # unknown config key
        {"edges": [[0, 1]], "config": {"faults": "drop=0.1"}},  # heal-only key on embed
        {"edges": [[0, 0]]},  # self-loop
        {"edges": [[0, 1], [2, 3]]},  # disconnected
        {"edges": [[0, 1.5]]},  # non-int/str node
        {"edges": "0 1"},  # not a list
        {"demo": ["nosuch", 3]},  # unknown family
        {"edges": [[0, 1]], "config": {"bandwidth": 0}},  # bandwidth < 1
        {"edges": [[0, 1]], "id": 7},  # non-string id
    ])
    def test_rejects(self, bad):
        with pytest.raises(JobSpecError):
            parse_job(bad)

    def test_load_jobs_skips_blanks_and_comments(self):
        lines = [
            "# a comment",
            "",
            json.dumps({"edges": [[0, 1]]}),
            json.dumps({"demo": ["cycle", 5]}),
        ]
        jobs = load_jobs(lines)
        assert [j.index for j in jobs] == [0, 1]
        assert [j.id for j in jobs] == ["job-0", "job-1"]

    def test_load_jobs_reports_line_number(self):
        with pytest.raises(JobSpecError, match="line 2"):
            load_jobs([json.dumps({"edges": [[0, 1]]}), "{not json"])

    def test_config_key_is_order_insensitive(self):
        assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})


def _entry(graph, kind="embed", config=None):
    form = canonical_form(graph)
    key = (form.hash, kind, config_key(config or {"bandwidth": 1}))
    return key, exact_fingerprint(graph), form


class TestResultCache:
    def test_exact_hit_round_trip(self):
        cache = ResultCache(capacity=4)
        g = grid_graph(3, 3)
        key, exact, form = _entry(g)
        verdict = {"outcome": "ok", "report": {"rounds": 5}}
        cache.store(key, exact, verdict)
        hit = cache.lookup(key, exact, form, g)
        assert hit is not None and hit.tier == "exact"
        assert hit.verdict == verdict
        assert cache.stats.hits_exact == 1

    def test_miss_on_different_config(self):
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, form = _entry(g)
        cache.store(key, exact, {"outcome": "ok"})
        other_key = (key[0], key[1], config_key({"bandwidth": 2}))
        assert cache.lookup(other_key, exact, form, g) is None

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        graphs = [grid_graph(2, k) for k in (2, 3, 4)]
        keys = [_entry(g) for g in graphs]
        cache.store(*keys[0][:2], {"outcome": "ok", "which": 0})
        cache.store(*keys[1][:2], {"outcome": "ok", "which": 1})
        # Touch the first entry so the second is now least-recent.
        assert cache.lookup(keys[0][0], keys[0][1], keys[0][2], graphs[0]) is not None
        cache.store(*keys[2][:2], {"outcome": "ok", "which": 2})
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[1][0], keys[1][1], keys[1][2], graphs[1]) is None
        assert cache.lookup(keys[0][0], keys[0][1], keys[0][2], graphs[0]) is not None

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        g = random_maximal_planar(16, seed=1)
        key, exact, form = _entry(g)
        first = ResultCache(capacity=8, path=path)
        first.store(key, exact, {"outcome": "ok", "report": {"rounds": 9}})

        warm = ResultCache(capacity=8, path=path)
        assert warm.stats.persisted_loads == 1
        assert warm.stats.stores == 0  # replay is not fresh work
        hit = warm.lookup(key, exact, form, g)
        assert hit is not None and hit.verdict["report"]["rounds"] == 9

    def test_corrupt_persisted_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({
            "v": 1, "key": ["h", "embed", "{}"], "exact": "fp",
            "verdict": {"outcome": "ok"}, "canon_rot": None,
        })
        path.write_text("{broken\n" + json.dumps({"v": 99}) + "\n" + good + "\n")
        cache = ResultCache(path=str(path))
        assert cache.stats.persisted_loads == 1
        assert cache.stats.persisted_skipped == 2
        assert len(cache) == 1

    def test_duplicate_store_is_idempotent(self):
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, _form = _entry(g)
        cache.store(key, exact, {"outcome": "ok"})
        cache.store(key, exact, {"outcome": "ok"})
        assert cache.stats.stores == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


def _exact_lookup(cache, graph, kind="embed", config=None):
    """The driver's first probe: exact tier only, no canonical form."""
    scope = (kind, config_key(config or {"bandwidth": 1}))
    return cache.lookup((None, *scope), exact_fingerprint(graph), None, graph)


def _index_is_coherent(cache):
    """The exact index holds exactly the entries the LRU holds."""
    live = {
        (entry.exact, key[1], key[2]): (key, id(entry))
        for key, bucket in cache._store.items()
        for entry in bucket
    }
    return live == {k: (key, id(entry)) for k, (key, entry) in cache._exact.items()}


def _reordered(graph, shift):
    """The same edge set inserted in a rotated order: one canonical key,
    a different exact fingerprint."""
    edges = graph.edges()
    return Graph(edges=edges[shift:] + edges[:shift])


class TestExactIndex:
    def test_exact_hit_without_canonical_form(self):
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, _form = _entry(g)
        cache.store(key, exact, {"outcome": "ok", "n": 9})
        hit = _exact_lookup(cache, g)
        assert hit is not None and hit.tier == "exact" and hit.verdict["n"] == 9
        assert _exact_lookup(cache, g, config={"bandwidth": 2}) is None
        assert _exact_lookup(cache, g, kind="certify") is None
        assert _exact_lookup(cache, grid_graph(3, 4)) is None

    def test_index_follows_lru_eviction(self):
        cache = ResultCache(capacity=2)
        graphs = [grid_graph(2, k) for k in (2, 3, 4)]
        for g in graphs:
            key, exact, _form = _entry(g)
            cache.store(key, exact, {"outcome": "ok"})
        assert cache.stats.evictions == 1
        assert _exact_lookup(cache, graphs[0]) is None
        assert _exact_lookup(cache, graphs[2]) is not None
        assert _index_is_coherent(cache)

    def test_exact_hit_refreshes_lru_position(self):
        cache = ResultCache(capacity=2)
        graphs = [grid_graph(2, k) for k in (2, 3, 4)]
        for g in graphs[:2]:
            key, exact, _form = _entry(g)
            cache.store(key, exact, {"outcome": "ok"})
        assert _exact_lookup(cache, graphs[0]) is not None  # touch
        key, exact, _form = _entry(graphs[2])
        cache.store(key, exact, {"outcome": "ok"})
        assert _exact_lookup(cache, graphs[0]) is not None
        assert _exact_lookup(cache, graphs[1]) is None
        assert _index_is_coherent(cache)

    def test_index_follows_per_key_cap(self):
        cache = ResultCache()
        base = grid_graph(3, 4)
        variants = [_reordered(base, shift) for shift in range(10)]
        keys = {_entry(g)[0] for g in variants}
        assert len(keys) == 1  # one canonical key, ten fingerprints
        for i, g in enumerate(variants):
            key, exact, _form = _entry(g)
            cache.store(key, exact, {"outcome": "ok", "i": i})
        assert len(cache._exact) == 8
        assert _exact_lookup(cache, variants[0]) is None
        assert _exact_lookup(cache, variants[1]) is None
        assert _exact_lookup(cache, variants[9]).verdict["i"] == 9
        assert _index_is_coherent(cache)

    def test_index_rebuilt_on_warm_restart(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = ResultCache(capacity=2, path=path)
        graphs = [grid_graph(2, k) for k in (2, 3, 4)]
        for g in graphs:
            key, exact, _form = _entry(g)
            first.store(key, exact, {"outcome": "ok", "cols": g.num_nodes // 2})
        warm = ResultCache(capacity=2, path=path)
        assert warm.stats.persisted_loads == 3
        assert _exact_lookup(warm, graphs[0]) is None  # evicted again on replay
        assert _exact_lookup(warm, graphs[2]).verdict["cols"] == 4
        assert _index_is_coherent(warm)

    def test_newer_canonical_key_replaces_older_one(self):
        """The same submission stored under two canonical keys (a v1
        record, then a v2 one) keeps one entry: the newer."""
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, _form = _entry(g)
        cache.store(("old-hash",) + key[1:], exact, {"outcome": "ok", "v": 1})
        cache.store(key, exact, {"outcome": "ok", "v": 2})
        assert len(cache) == 1 and len(cache._exact) == 1
        assert _exact_lookup(cache, g).verdict["v"] == 2
        assert _index_is_coherent(cache)


def _relabeled(graph, prefix):
    """An isomorph of ``graph`` under new labels: one canonical key, a
    different exact fingerprint."""
    return Graph(edges=[(f"{prefix}{u}", f"{prefix}{v}") for u, v in graph.edges()])


def _stored_with_rotation(cache, graph):
    """Store ``graph``'s real embedding the way the driver does, with its
    rotation re-keyed by canonical rank so remap hits can serve it."""
    key, exact, form = _entry(graph)
    rot = lr_planarity(graph)
    verdict = {
        "outcome": "ok",
        "rotation": {repr(v): [repr(u) for u in rot.order(v)] for v in graph.nodes()},
    }
    ranks = ServiceDriver._canonical_rotation(graph, form, verdict)
    assert ranks is not None  # a discrete refinement
    cache.store(key, exact, verdict, ranks)
    return key


class TestRemapFiledExact:
    """A verified canonical remap is filed under the query's fingerprint."""

    def test_remap_then_exact_repeat(self):
        cache = ResultCache()
        base = random_maximal_planar(14, seed=2)
        _stored_with_rotation(cache, base)
        iso = _relabeled(base, "y")
        key, exact, form = _entry(iso)
        first = cache.lookup(key, exact, form, iso)
        assert first is not None and first.tier == "canonical"
        again = _exact_lookup(cache, iso)
        assert again is not None and again.tier == "exact"
        assert again.verdict == first.verdict and again.verdict["remapped"] is True
        assert cache.stats.hits_canonical == 1 and cache.stats.hits_exact == 1
        assert cache.stats.stores == 1  # filing a remap is not fresh work
        assert len(cache) == 1 and len(cache._exact) == 2
        assert _index_is_coherent(cache)

    def test_remaps_obey_per_key_cap(self):
        cache = ResultCache()
        base = random_maximal_planar(14, seed=2)
        _stored_with_rotation(cache, base)
        isos = [_relabeled(base, f"r{i}_") for i in range(9)]
        for iso in isos:
            key, exact, form = _entry(iso)
            assert cache.lookup(key, exact, form, iso).tier == "canonical"
        assert len(cache._exact) == 8  # the original and the first remap went
        assert _exact_lookup(cache, base) is None
        assert _exact_lookup(cache, isos[0]) is None
        assert _exact_lookup(cache, isos[8]).tier == "exact"
        assert _index_is_coherent(cache)

    def test_remaps_follow_lru_eviction(self):
        cache = ResultCache(capacity=1)
        base = random_maximal_planar(14, seed=2)
        _stored_with_rotation(cache, base)
        iso = _relabeled(base, "y")
        key, exact, form = _entry(iso)
        assert cache.lookup(key, exact, form, iso).tier == "canonical"
        other_key, other_exact, _form = _entry(grid_graph(3, 3))
        cache.store(other_key, other_exact, {"outcome": "ok"})
        assert cache.stats.evictions == 1
        assert _exact_lookup(cache, iso) is None
        assert _index_is_coherent(cache)

    def test_remaps_are_not_persisted(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=str(path))
        base = random_maximal_planar(14, seed=2)
        _stored_with_rotation(cache, base)
        iso = _relabeled(base, "y")
        key, exact, form = _entry(iso)
        assert cache.lookup(key, exact, form, iso).tier == "canonical"
        assert len(path.read_text().splitlines()) == 1
        warm = ResultCache(path=str(path))
        assert _exact_lookup(warm, iso) is None
        assert warm.lookup(key, exact, form, iso).tier == "canonical"


class TestChurnJobs:
    def test_churn_config_defaults(self):
        job = parse_job({"demo": ["grid", 3, 3], "kind": "churn"})
        assert job.config == {
            "bandwidth": 1, "churn_ops": 8, "churn_seed": 0, "incremental": True,
        }

    @pytest.mark.parametrize("bad", [
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_ops": 0}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_seed": "x"}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"incremental": 1}},
        {"demo": ["grid", 3, 3], "config": {"churn_ops": 4}},  # churn-only key on embed
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"faults": "drop=0.1"}},
    ])
    def test_churn_rejects(self, bad):
        with pytest.raises(JobSpecError):
            parse_job(bad)
