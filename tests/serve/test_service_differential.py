"""Differential suite for the serving subsystem.

Three contracts, each proved by running the *same* workload two ways
and comparing byte-for-byte:

1. **Warm == cold.** A warm cache hit (exact tier) returns a verdict
   whose ``json.dumps(..., sort_keys=True)`` bytes equal the cold run's
   — reports and rotations included.
2. **Pool == sequential.** A 2-worker process pool produces the same
   outcomes, records, and cache-counter totals as the inline
   sequential reference driver (``workers=0``), job for job.
3. **The batch acceptance workload.** ``repro batch`` on the same
   topology submitted 8 times performs exactly one embedding
   computation; the other 7 are surfaced warm hits with bit-identical
   verdicts.

Plus the canonical-tier differential: a *relabeled* copy of a discrete
graph is served from cache via isomorphism remap, and the remapped
rotation independently passes the embedding referee on the new labels.
"""

import json

from repro.__main__ import main
from repro.planar import verify_planar_embedding
from repro.planar.generators import random_maximal_planar
from repro.planar.graph import Graph
from repro.serve import ResultCache, ServiceDriver, load_jobs
from tests.serve.wl_v1 import wl_v1


def _jobs(objs):
    return load_jobs(json.dumps(o) for o in objs)


def _bytes(record):
    return json.dumps(record, sort_keys=True)


class TestWarmEqualsCold:
    def test_exact_hit_bit_identical_across_driver_instances(self):
        """Cold run in one driver, warm hit in a second sharing the
        cache: same bytes, report and rotation included."""
        cache = ResultCache()
        spec = [{"demo": ["trigrid", 4, 4], "kind": "certify"}]
        cold = ServiceDriver(workers=0, cache=cache).run(_jobs(spec))[0]
        warm = ServiceDriver(workers=0, cache=cache).run(_jobs(spec))[0]
        assert cold.cache == "miss" and warm.cache == "exact"
        assert _bytes(warm.record) == _bytes(cold.record)
        assert warm.record["rotation"] == cold.record["rotation"]
        assert warm.record["report"] == cold.record["report"]

    def test_warm_from_persistent_store(self, tmp_path):
        """A fresh process-equivalent (new cache object warm-started
        from the JSONL store) serves the same bytes."""
        path = str(tmp_path / "store.jsonl")
        spec = [{"demo": ["grid", 5, 5]}]
        cold_cache = ResultCache(path=path)
        cold = ServiceDriver(workers=0, cache=cold_cache).run(_jobs(spec))[0]

        warm_cache = ResultCache(path=path)
        assert warm_cache.stats.persisted_loads == 1
        warm = ServiceDriver(workers=0, cache=warm_cache).run(_jobs(spec))[0]
        assert warm.cache == "exact"
        assert _bytes(warm.record) == _bytes(cold.record)

    def test_canonical_remap_hit_verifies_on_new_labels(self):
        """A relabeled isomorphic copy of a discrete graph is served
        from cache (canonical tier); its remapped rotation must be a
        genuine planar embedding of the *relabeled* graph."""
        base = random_maximal_planar(32, seed=5)
        nodes = base.nodes()
        mapping = {v: f"x{v}" for v in nodes}
        relabeled = Graph(edges=[(mapping[u], mapping[v]) for u, v in base.edges()])

        cache = ResultCache()
        driver = ServiceDriver(workers=0, cache=cache)
        jobs = _jobs([{"edges": [list(e) for e in base.edges()]}])
        cold = driver.run(jobs)[0]
        assert cold.cache == "miss" and cold.outcome == "ok"

        relabeled_jobs = _jobs(
            [{"edges": [[u, v] for u, v in relabeled.edges()]}]
        )
        warm = driver.run(relabeled_jobs)[0]
        assert warm.cache == "canonical"
        assert warm.record["remapped"] is True
        assert cache.stats.hits_canonical == 1
        # Verdict rotation keys are repr() strings; the relabeled node
        # IDs are strings, so repr adds quotes.
        by_repr = {repr(v): v for v in relabeled.nodes()}
        rotation = {
            by_repr[rv]: [by_repr[ru] for ru in order]
            for rv, order in warm.record["rotation"].items()
        }
        verify_planar_embedding(relabeled, rotation)
        # The ledger fields describe the original isomorphic run.
        assert warm.record["report"] == cold.record["report"]


    def test_v1_keyed_store_serves_exact_hits_only(self, tmp_path):
        """A store written under wl-graph-v1 canonical keys keeps its
        exact tier after the move to wl-graph-v2, and never aliases on
        the canonical tier: a relabeled isomorph recomputes."""
        base = random_maximal_planar(24, seed=7)
        spec = [{"edges": [list(e) for e in base.edges()]}]
        relabeled = _jobs([{"edges": [[f"x{u}", f"x{v}"] for u, v in base.edges()]}])

        cold_cache = ResultCache()
        cold = ServiceDriver(workers=0, cache=cold_cache).run(_jobs(spec))[0]
        (v2_key, [entry]), = cold_cache._store.items()
        # Control: under its own (v2) key the isomorph is a canonical hit.
        control = ServiceDriver(workers=0, cache=cold_cache).run(relabeled)[0]
        assert control.cache == "canonical"

        v1_form, _colors = wl_v1(base)
        assert v1_form.labels is not None
        v1_rotation = ServiceDriver._canonical_rotation(base, v1_form, cold.record)
        path = str(tmp_path / "store.jsonl")
        ResultCache(path=path).store(
            (v1_form.hash, *v2_key[1:]), entry.exact, cold.record, v1_rotation
        )

        warm_cache = ResultCache(path=path)
        assert warm_cache.stats.persisted_loads == 1
        driver = ServiceDriver(workers=0, cache=warm_cache)
        warm = driver.run(_jobs(spec))[0]
        assert warm.cache == "exact"
        assert _bytes(warm.record) == _bytes(cold.record)
        isomorph = driver.run(relabeled)[0]
        assert isomorph.cache == "miss"
        assert warm_cache.stats.hits_canonical == 0
        assert warm_cache.stats.misses == 1


class TestPoolMatchesSequential:
    WORKLOAD = [
        {"demo": ["grid", 4, 4], "id": "g"},
        {"demo": ["trigrid", 3, 3], "id": "t"},
        {"edges": [[u, v] for u in range(5) for v in range(u + 1, 5)], "id": "k5"},
        {"demo": ["grid", 4, 4], "id": "g-again"},
        {"demo": ["maximal", 20], "seed": 2, "id": "m", "kind": "certify"},
        {"demo": ["outerplanar", 12], "seed": 1, "id": "o"},
        {"demo": ["grid", 4, 4], "id": "g-third"},
    ]

    def _run(self, workers):
        cache = ResultCache()
        driver = ServiceDriver(workers=workers, cache=cache)
        outcomes = driver.run(_jobs(self.WORKLOAD))
        return outcomes, cache, driver

    def test_two_worker_pool_matches_inline_driver_job_for_job(self):
        seq_outcomes, seq_cache, seq_driver = self._run(0)
        pool_outcomes, pool_cache, pool_driver = self._run(2)

        assert [o.id for o in pool_outcomes] == [o.id for o in seq_outcomes]
        assert [o.outcome for o in pool_outcomes] == [o.outcome for o in seq_outcomes]
        for seq, pool in zip(seq_outcomes, pool_outcomes):
            assert _bytes(pool.record) == _bytes(seq.record), seq.id
        # Same number of actual computations; duplicates resolve as
        # exact hits sequentially and exact-or-coalesced under a pool.
        assert pool_cache.stats.misses == seq_cache.stats.misses
        assert pool_cache.stats.hits == seq_cache.stats.hits
        assert pool_driver.exit_code(pool_outcomes) == seq_driver.exit_code(seq_outcomes)

    def test_pool_without_cache_still_matches(self):
        jobs = self.WORKLOAD[:3]
        seq = ServiceDriver(workers=0, cache=None).run(_jobs(jobs))
        pool = ServiceDriver(workers=2, cache=None).run(_jobs(jobs))
        assert [_bytes(o.record) for o in pool] == [_bytes(o.record) for o in seq]


class TestBatchAcceptance:
    def test_repeated_topology_computes_once_end_to_end(self, tmp_path, capsys):
        """ISSUE acceptance: ``repro batch`` on the same topology x8 →
        one computation, 7 surfaced warm hits, all verdicts
        bit-identical."""
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            "".join(json.dumps({"demo": ["grid", 16, 16]}) + "\n" for _ in range(8))
        )
        verdicts_file = tmp_path / "verdicts.jsonl"
        code = main([
            "batch", str(jobs_file), "--workers", "2", "--json",
            "--verdicts", str(verdicts_file),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"] == 8
        assert report["computed"] == 1  # exactly one embedding computation
        assert report["cache"]["misses"] == 1
        assert report["cache"]["hits"] == 7  # surfaced warm hits
        assert report["outcomes"]["ok"] == 8

        lines = verdicts_file.read_text().splitlines()
        assert len(lines) == 8
        verdicts = [json.loads(line)["verdict"] for line in lines]
        assert len({_bytes(v) for v in verdicts}) == 1  # bit-identical
        tiers = [json.loads(line)["cache"] for line in lines]
        assert tiers.count("miss") == 1
        assert all(t in ("miss", "exact", "coalesced") for t in tiers)
