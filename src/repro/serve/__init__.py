"""repro.serve — embedding-as-a-service: batch driver, workers, cache.

The library's entry points (:func:`~repro.distributed_planar_embedding`,
certification, :func:`~repro.core.self_healing_embedding`) compute one
result for one caller.  This package serves *streams* of such jobs at
production traffic:

* :mod:`.canon`  — a label-invariant whole-graph canonical hash
  (1-WL colour refinement as O(m log n) smaller-half partition
  refinement, digested with process-stable blake2b), lifting the E16
  canonicalized-region memo to whole-job scope;
* :mod:`.cache`  — a bounded LRU + optional persistent JSONL result
  store keyed by ``(canonical_hash, job_kind, config)``, with
  bit-identical exact hits (looked up by fingerprint before any
  canonical form is computed) and verified isomorphism-remap hits;
* :mod:`.jobs`   — the serialized job model (JSONL in, JSONL verdicts
  out; flat picklable payloads across the process boundary);
* :mod:`.driver` — the async batch driver: a bounded asyncio admission
  queue feeding a self-healing ``ProcessPoolExecutor`` of stateless
  workers, single-flight deduplication of identical in-flight jobs,
  typed per-job outcomes (ok / non-planar / degraded / error / timeout
  / quarantined / shed), deterministic result order;
* :mod:`.resilience` — deadlines, seeded retry backoff, pool
  supervision/respawn, quarantine, load shedding, and the seeded
  process-chaos harness (:class:`.resilience.ChaosPool`);
* :mod:`.cli`    — the ``repro serve`` / ``repro batch`` /
  ``repro cache-compact`` subcommands.

Quickstart::

    from repro.serve import Job, ResultCache, ServiceDriver, load_jobs

    jobs = load_jobs("jobs.jsonl")          # or build Job objects directly
    driver = ServiceDriver(workers=4, cache=ResultCache(capacity=512))
    for outcome in driver.run(jobs):        # deterministic submission order
        print(outcome.id, outcome.outcome, outcome.cache)
"""

from .cache import CacheStats, ResultCache, compact_store
from .canon import CanonicalForm, canonical_form, canonical_hash, exact_fingerprint
from .driver import OUTCOME_EXIT, JobOutcome, ServiceDriver, execute_job
from .jobs import JOB_KINDS, Job, JobSpecError, config_key, load_jobs, parse_job
from .resilience import (
    ChaosKilledError,
    ChaosPool,
    PoolSupervisor,
    ResiliencePolicy,
    ResilienceStats,
    retry_delay,
    torn_append,
)

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_hash",
    "exact_fingerprint",
    "ResultCache",
    "CacheStats",
    "compact_store",
    "Job",
    "JobSpecError",
    "JOB_KINDS",
    "parse_job",
    "load_jobs",
    "config_key",
    "ServiceDriver",
    "JobOutcome",
    "execute_job",
    "OUTCOME_EXIT",
    "ChaosKilledError",
    "ChaosPool",
    "PoolSupervisor",
    "ResiliencePolicy",
    "ResilienceStats",
    "retry_delay",
    "torn_append",
]
