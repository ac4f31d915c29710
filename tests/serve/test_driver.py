"""The async batch driver (serve/driver.py): typed outcomes, ordering,
single-flight coalescing, and pool behavior."""

import json

import pytest

from repro.planar.generators import grid_graph
from repro.serve import (
    Job,
    ResultCache,
    ServiceDriver,
    execute_job,
    load_jobs,
    parse_job,
)

K5_EDGES = [[u, v] for u in range(5) for v in range(u + 1, 5)]


def _jobs(objs):
    return load_jobs(json.dumps(o) for o in objs)


class TestExecuteJob:
    def test_embed_ok(self):
        record = execute_job(parse_job({"demo": ["grid", 3, 3]}).payload())
        assert record["outcome"] == "ok"
        assert record["report"]["planar"] is True
        assert len(record["rotation"]) == 9
        # normalized: a JSON round-trip is the identity
        assert json.loads(json.dumps(record)) == record

    def test_certify_ok(self):
        record = execute_job(
            parse_job({"demo": ["grid", 3, 3], "kind": "certify"}).payload()
        )
        assert record["outcome"] == "ok"
        assert record["report"]["certification"]["accepted"] is True

    def test_non_planar(self):
        record = execute_job(parse_job({"edges": K5_EDGES}).payload())
        assert record["outcome"] == "non-planar"
        assert record["witness"]["kind"] == "K5"
        assert "rotation" not in record

    def test_heal_with_faults(self):
        record = execute_job(
            parse_job({
                "demo": ["grid", 3, 3],
                "kind": "heal",
                "config": {"faults": "drop=0.05", "fault_seed": 3},
            }).payload()
        )
        assert record["outcome"] == "ok"
        assert record["report"]["certification"]["accepted"] is True

    def test_unknown_kind_is_typed_error(self):
        record = execute_job({"nodes": [0, 1], "edges": [[0, 1]], "kind": "dance"})
        assert record["outcome"] == "error"
        assert record["error"]["type"] == "JobSpecError"

    def test_internal_failure_is_typed_error(self):
        # A disconnected payload trips the driver's own validation; the
        # worker must fold it into an error outcome, never raise.
        record = execute_job({"nodes": [0, 1, 2, 3], "edges": [[0, 1], [2, 3]]})
        assert record["outcome"] == "error"
        assert record["error"]["type"] == "ValueError"


class TestServiceDriver:
    def test_results_in_submission_order(self):
        jobs = _jobs([
            {"demo": ["grid", 4, 4], "id": "big"},
            {"demo": ["cycle", 5], "id": "small"},
            {"edges": K5_EDGES, "id": "k5"},
        ])
        outcomes = ServiceDriver(workers=2, cache=ResultCache()).run(jobs)
        assert [o.id for o in outcomes] == ["big", "small", "k5"]
        assert [o.outcome for o in outcomes] == ["ok", "ok", "non-planar"]

    def test_streaming_hook_order(self):
        jobs = _jobs([{"demo": ["grid", 3, 3], "id": f"j{i}"} for i in range(4)])
        seen = []
        ServiceDriver(workers=2, cache=ResultCache()).run(
            jobs, on_result=lambda o: seen.append(o.id)
        )
        assert seen == ["j0", "j1", "j2", "j3"]

    def test_repeated_topology_computes_once(self):
        """The acceptance workload: R identical topologies, exactly one
        computation regardless of worker count."""
        jobs = _jobs([{"demo": ["grid", 4, 4]} for _ in range(6)])
        for workers in (0, 2):
            cache = ResultCache()
            outcomes = ServiceDriver(workers=workers, cache=cache).run(jobs)
            assert cache.stats.misses == 1, f"workers={workers}"
            assert cache.stats.hits == 5, f"workers={workers}"
            records = {json.dumps(o.record, sort_keys=True) for o in outcomes}
            assert len(records) == 1  # all verdicts bit-identical

    def test_non_planar_verdicts_are_cached(self):
        cache = ResultCache()
        jobs = _jobs([{"edges": K5_EDGES}, {"edges": K5_EDGES}])
        outcomes = ServiceDriver(workers=0, cache=cache).run(jobs)
        assert [o.outcome for o in outcomes] == ["non-planar"] * 2
        assert cache.stats.misses == 1 and cache.stats.hits_exact == 1

    def test_error_outcomes_not_cached(self):
        cache = ResultCache()
        jobs = _jobs([
            {"edges": [[0, 1]], "kind": "heal",
             "config": {"faults": "drop=1.0", "max_retries": 0}},
        ])
        ServiceDriver(workers=0, cache=cache).run(jobs)
        assert cache.stats.stores == 0

    def test_no_cache_disables_dedup(self):
        jobs = _jobs([{"demo": ["grid", 3, 3]} for _ in range(3)])
        outcomes = ServiceDriver(workers=0, cache=None).run(jobs)
        assert all(o.cache == "off" for o in outcomes)

    def test_exit_code_is_worst_job(self):
        jobs = _jobs([
            {"demo": ["grid", 3, 3]},
            {"edges": K5_EDGES},
            {"demo": ["grid", 3, 3], "kind": "heal",
             "config": {"faults": "crash=1:1000", "fault_seed": 1, "max_retries": 0}},
        ])
        driver = ServiceDriver(workers=0, cache=ResultCache())
        outcomes = driver.run(jobs)
        codes = {o.id: o.exit_code for o in outcomes}
        assert codes["job-0"] == 0 and codes["job-1"] == 1
        assert driver.exit_code(outcomes) == max(codes.values())
        report = driver.aggregate(outcomes, 1.0)
        assert report["exit_code"] == driver.exit_code(outcomes)
        assert report["jobs"] == 3

    def test_aggregate_latency_percentiles(self):
        jobs = _jobs([{"demo": ["grid", 3, 3]} for _ in range(4)])
        driver = ServiceDriver(workers=0, cache=ResultCache())
        outcomes = driver.run(jobs)
        report = driver.aggregate(outcomes, 0.5)
        assert 0 < report["latency_s"]["p50"] <= report["latency_s"]["p99"]
        assert report["latency_s"]["p99"] <= report["latency_s"]["max"]
        assert report["cache"]["hits"] == 3

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ServiceDriver(workers=-1)

    def test_direct_job_objects(self):
        job = Job(index=0, id="direct", kind="embed", graph=grid_graph(3, 3),
                  config={"bandwidth": 1})
        outcomes = ServiceDriver(workers=0).run([job])
        assert outcomes[0].outcome == "ok"
        assert outcomes[0].cache == "off"

    def test_verdict_wire_shape(self):
        jobs = _jobs([{"demo": ["grid", 3, 3], "id": "w"}])
        outcome = ServiceDriver(workers=0, cache=ResultCache()).run(jobs)[0]
        obj = outcome.to_json_obj()
        assert obj["type"] == "job-verdict"
        assert obj["id"] == "w" and obj["outcome"] == "ok" and obj["cache"] == "miss"
        assert "outcome" not in obj["verdict"]
        json.dumps(obj)  # wire-ready


class TestKeying:
    """Cache keying order: exact fingerprint, then in-flight, then the
    canonical form — only when both miss."""

    @staticmethod
    def _count_canonical_forms(monkeypatch):
        import repro.serve.driver as driver_mod

        calls = []
        real = driver_mod.canonical_form

        def counting(graph):
            calls.append(graph.num_nodes)
            return real(graph)

        monkeypatch.setattr(driver_mod, "canonical_form", counting)
        return calls

    def test_exact_repeat_skips_canonical_form(self, monkeypatch):
        calls = self._count_canonical_forms(monkeypatch)
        base = {"demo": ["maximal", 14], "seed": 2}
        edges = parse_job(base).graph.edges()
        isomorph = {"edges": [[f"y{u}", f"y{v}"] for u, v in edges]}
        cache = ResultCache()
        outcomes = ServiceDriver(workers=0, cache=cache).run(
            _jobs([base, base, isomorph, base, isomorph])
        )
        # A verified canonical hit is filed under the isomorph's own
        # fingerprint, so its repeat is exact too: only the first
        # submission of each labelling pays for the canonical form.
        assert [o.cache for o in outcomes] == [
            "miss", "exact", "canonical", "exact", "exact",
        ]
        assert outcomes[4].record == outcomes[2].record
        assert len(calls) == 2
        assert len(calls) == cache.stats.misses + cache.stats.hits_canonical

    def test_inflight_duplicates_coalesce_at_two_workers(self, monkeypatch):
        calls = self._count_canonical_forms(monkeypatch)
        jobs = _jobs([{"demo": ["grid", 4, 4]} for _ in range(6)])
        cache = ResultCache()
        outcomes = ServiceDriver(workers=2, cache=cache).run(jobs)
        assert cache.stats.misses == 1
        assert cache.stats.hits_coalesced >= 1
        assert cache.stats.hits == 5
        assert len(calls) == 1  # one canonical form for six submissions
        assert len({json.dumps(o.record, sort_keys=True) for o in outcomes}) == 1

    def test_key_s_per_job_and_in_report(self):
        jobs = _jobs([{"demo": ["grid", 3, 3]} for _ in range(3)])
        driver = ServiceDriver(workers=0, cache=ResultCache())
        outcomes = driver.run(jobs)
        assert all(0 < o.key_s < o.wall_s for o in outcomes)
        assert outcomes[0].to_json_obj()["key_s"] == round(outcomes[0].key_s, 6)
        report = driver.aggregate(outcomes, 1.0)
        assert 0 < report["key_s"]["p50"] <= report["key_s"]["p99"]
        off = ServiceDriver(workers=0, cache=None).run(jobs[:1])[0]
        assert off.key_s == 0.0


class TestChurnExecution:
    def test_churn_ok(self):
        record = execute_job(
            parse_job(
                {"demo": ["grid", 4, 4], "kind": "churn",
                 "config": {"churn_ops": 3, "incremental": True}}
            ).payload()
        )
        assert record["outcome"] == "ok"
        churn = record["report"]["churn"]
        assert churn["accepted"] is True and churn["ops"] == 3
        assert record["report"]["certification"]["accepted"] is True

    def test_churn_is_deterministic_and_exact_cached(self):
        spec = {"demo": ["grid", 4, 4], "kind": "churn",
                "config": {"churn_ops": 3, "churn_seed": 2, "incremental": True}}
        a = execute_job(parse_job(spec).payload())
        b = execute_job(parse_job(spec).payload())
        assert a == b
        outcomes = ServiceDriver(workers=0, cache=ResultCache(capacity=8)).run(
            [parse_job(spec, 0), parse_job(spec, 1)]
        )
        assert [o.cache for o in outcomes] == ["miss", "exact"]
        assert outcomes[0].record == outcomes[1].record

    def test_churn_never_hits_canonical_tier(self):
        """A relabeled copy of the same topology must recompute: the op
        plan is repr-ordered, not isomorphism-invariant."""
        base = {"kind": "churn", "config": {"churn_ops": 2}}
        job_a = parse_job({**base, "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 0]]}, 0)
        job_b = parse_job({**base, "edges": [[7, 8], [8, 9], [9, 7], [9, 5], [5, 7]]}, 1)
        outcomes = ServiceDriver(workers=0, cache=ResultCache(capacity=8)).run(
            [job_a, job_b]
        )
        assert [o.cache for o in outcomes] == ["miss", "miss"]
