"""The canonical-graph result cache behind the embedding service.

Under heavy traffic the common case is the *same topology over and over*
(the same deployment re-verified, the same mesh re-certified after a
config push), so the service answers repeats from cache instead of
recomputing.  Entries are keyed by ``(canonical_hash, job_kind,
config_key)`` — the label-invariant hash from :mod:`.canon` plus the
computation kind and its normalized config — with two hit tiers, looked
up in this order:

**exact** — an index beside the LRU maps ``(exact_fingerprint,
    job_kind, config_key)`` straight to its entry, so an exact repeat is
    found in O(m) (the fingerprint) without computing the canonical
    form at all.  The stored verdict is returned verbatim and is
    **bit-identical** to what a cold run would produce (the whole
    pipeline is deterministic given the adjacency structure; the E16/E15
    differential suites are the standing proof).  Equal fingerprints
    mean identical adjacency and hence an identical canonical key, so
    this tier answers exactly what a canonical-key lookup followed by a
    fingerprint match would.

**canonical** — no exact match, but the query's refinement is
    *discrete* (every vertex alone in its cell) and a stored entry under
    the same canonical key kept its rotation in canonical ranks.  The
    rank-matching bijection is then a genuine isomorphism, so the
    cached rotation is remapped onto the query's vertex labels — and
    defensively re-verified (genus 0 on the query graph) before being
    served; a failed check falls back to a miss rather than ever serving
    a wrong answer.  The ledger fields of a canonical hit describe the
    original isomorphic run.  A verified remap is filed (in memory, not
    in the persistent store) under the query's own fingerprint, so a
    repeat of the same relabeled submission is an exact hit.

The exact index holds one entry per fingerprint triple and stays
coherent with the LRU: evicting a key, dropping the oldest entry past
the per-key cap, and replaying a persisted store all update it.
Records stored under ``wl-graph-v1`` hashes (before the canonical form
moved to partition refinement) still load: their exact tier keeps
answering, while their canonical keys can never equal a ``wl-graph-v2``
hash, so they never serve canonical hits.

Only deterministic, complete outcomes (``ok``, ``non-planar``) are
cached; degraded and errored outcomes always recompute.

The in-memory store is a bounded LRU.  With ``path`` set, every store
also appends one JSONL line, and a fresh cache warm-starts by replaying
the file — the digests are process-stable (:mod:`.canon` uses blake2b,
never Python's randomized ``hash()``), so a persisted cache is valid
across processes, restarts, and machines.

The persistent store is **crash-consistent**: every v2 record carries a
CRC-32 over its canonical body, appends are flushed and ``fsync``'d
(one record = one durable unit), and replay repairs the file — a torn
tail (the partial line a crash mid-append leaves, plus any trailing
garbage after the last valid record) is truncated off, while corrupt
lines *followed by* valid ones (a concurrent writer's damage, a flipped
bit mid-file) are counted and skipped, never fatal.  Legacy v1 lines
(no CRC) still load.  A corrupt cache degrades to cold, it does not
take the service down.  ``repro cache-compact`` (:func:`compact_store`)
rewrites a grown store to its live entries atomically.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

from ..planar.graph import Graph, NodeId
from ..planar.rotation import RotationError, RotationSystem
from .canon import CanonicalForm

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "compact_store",
]

CACHE_SCHEMA_VERSION = 2

#: Isomorphic-but-differently-ordered submissions of one topology under
#: one key; beyond this the oldest entry is dropped (the canonical tier
#: usually answers them all anyway).
_MAX_ENTRIES_PER_KEY = 8

CacheKey = tuple[str, str, str]  # (canonical_hash, job_kind, config_key)
ExactKey = tuple[str, str, str]  # (exact_fingerprint, job_kind, config_key)


@dataclass
class CacheEntry:
    exact: str  # insertion-order fingerprint of the executed graph
    verdict: dict  # normalized JSON verdict, returned verbatim on exact hits
    canonical_rotation: dict[int, list[int]] | None = None  # rank -> neighbor ranks


@dataclass
class CacheStats:
    """Hit/miss counters surfaced in batch reports and benches."""

    hits_exact: int = 0
    hits_canonical: int = 0
    hits_coalesced: int = 0  # duplicate in-flight jobs folded by the driver
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejected_remaps: int = 0  # canonical hits that failed re-verification
    persisted_loads: int = 0
    persisted_skipped: int = 0  # mid-file corrupt lines (skipped, kept on disk)
    torn_truncated: int = 0  # torn-tail records truncated off on replay

    @property
    def hits(self) -> int:
        return self.hits_exact + self.hits_canonical + self.hits_coalesced

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "hits_exact": self.hits_exact,
            "hits_canonical": self.hits_canonical,
            "hits_coalesced": self.hits_coalesced,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "rejected_remaps": self.rejected_remaps,
            "persisted_loads": self.persisted_loads,
            "persisted_skipped": self.persisted_skipped,
            "torn_truncated": self.torn_truncated,
        }


@dataclass
class CacheHit:
    verdict: dict
    tier: str  # "exact" | "canonical"


def _rotation_repr(rotation: dict[NodeId, tuple]) -> dict[str, list[str]]:
    """The verdict wire form of a rotation: repr-keyed, JSON-ready."""
    return {repr(v): [repr(u) for u in order] for v, order in rotation.items()}


@dataclass
class ResultCache:
    """Bounded LRU + optional persistent JSONL store of job verdicts."""

    capacity: int = 512
    path: str | None = None
    fsync: bool = True  # fsync every append (one record = one durable unit)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._store: OrderedDict[CacheKey, list[CacheEntry]] = OrderedDict()
        self._exact: dict[ExactKey, tuple[CacheKey, CacheEntry]] = {}
        if self.path is not None:
            self._replay(self.path)

    def __len__(self) -> int:
        return len(self._store)

    # -- lookup ----------------------------------------------------------

    def lookup(
        self, key: CacheKey, exact: str, form: CanonicalForm | None, graph: Graph
    ) -> CacheHit | None:
        """Return a hit for ``graph`` under ``key``, or ``None``.

        The exact tier is consulted first and reads only ``key[1:]``
        (kind and config).  With ``form=None`` the lookup stops there, so
        ``key[0]`` may be ``None``: the driver calls it that way before it
        pays for the canonical form, and again with the form (and the
        full canonical key) only on an exact miss.

        Misses are *not* counted here: the driver increments
        ``stats.misses`` only when it actually dispatches a computation,
        so ``misses`` stays equal to the number of cold runs even when
        duplicate in-flight jobs are coalesced.
        """
        found = self._exact.get((exact, key[1], key[2]))
        if found is not None:
            self._store.move_to_end(found[0])
            self.stats.hits_exact += 1
            return CacheHit(verdict=found[1].verdict, tier="exact")
        if form is None:
            return None
        entries = self._store.get(key)
        if entries is not None:
            self._store.move_to_end(key)
            if form.discrete:
                for entry in entries:
                    if entry.canonical_rotation is None:
                        continue
                    verdict = self._remap(entry, form, graph)
                    if verdict is not None:
                        self.stats.hits_canonical += 1
                        self._insert(key, exact, verdict, entry.canonical_rotation)
                        return CacheHit(verdict=verdict, tier="canonical")
        return None

    def _remap(
        self, entry: CacheEntry, form: CanonicalForm, graph: Graph
    ) -> dict | None:
        """Materialize a stored canonical rotation onto ``graph``'s labels.

        Discreteness on both sides plus an equal graph hash makes the
        rank-matching bijection an isomorphism (see :mod:`.canon`), but
        the result is still re-verified — genus 0 on the query graph —
        so a WL edge case can cost a recompute, never a wrong answer.
        """
        assert form.labels is not None
        inverse = {rank: v for v, rank in form.labels.items()}
        try:
            rotation = {
                inverse[int(rank)]: tuple(inverse[int(r)] for r in order)
                for rank, order in entry.canonical_rotation.items()
            }
        except KeyError:
            self.stats.rejected_remaps += 1
            return None
        try:
            system = RotationSystem(graph, rotation)
            if system.genus() != 0:
                self.stats.rejected_remaps += 1
                return None
        except RotationError:
            self.stats.rejected_remaps += 1
            return None
        verdict = json.loads(json.dumps(entry.verdict, sort_keys=True))
        verdict["rotation"] = _rotation_repr(rotation)
        verdict["remapped"] = True
        return verdict

    # -- store -----------------------------------------------------------

    def store(
        self,
        key: CacheKey,
        exact: str,
        verdict: dict,
        canonical_rotation: dict[int, list[int]] | None = None,
        _persist: bool = True,
    ) -> None:
        entry = self._insert(key, exact, verdict, canonical_rotation)
        if entry is None:
            return  # already present (e.g. two racing cold runs)
        self.stats.stores += 1
        if _persist and self.path is not None:
            self._append(key, entry)

    def _insert(
        self,
        key: CacheKey,
        exact: str,
        verdict: dict,
        canonical_rotation: dict[int, list[int]] | None,
    ) -> CacheEntry | None:
        """File one entry in the LRU and the exact index, enforcing the
        per-key cap and the capacity; ``None`` if it was already there."""
        exact_key = (exact, key[1], key[2])
        found = self._exact.get(exact_key)
        if found is not None:
            if found[0] == key:
                self._store.move_to_end(key)
                return None
            # The same submission under an older canonical key (a
            # replayed wl-graph-v1 record): the newer record wins.
            self._drop(*found)
        entries = self._store.get(key)
        if entries is None:
            entries = self._store[key] = []
        else:
            self._store.move_to_end(key)
        entry = CacheEntry(exact=exact, verdict=verdict, canonical_rotation=canonical_rotation)
        entries.append(entry)
        self._exact[exact_key] = (key, entry)
        if len(entries) > _MAX_ENTRIES_PER_KEY:
            oldest = entries.pop(0)
            del self._exact[(oldest.exact, key[1], key[2])]
        while len(self._store) > self.capacity:
            evicted, bucket = self._store.popitem(last=False)
            for old in bucket:
                del self._exact[(old.exact, evicted[1], evicted[2])]
            self.stats.evictions += 1
        return entry

    def _drop(self, key: CacheKey, entry: CacheEntry) -> None:
        """Remove one entry (and its exact-index slot) from the LRU."""
        entries = self._store[key]
        entries.remove(entry)
        if not entries:
            del self._store[key]
        del self._exact[(entry.exact, key[1], key[2])]

    # -- persistence -----------------------------------------------------

    def _append(self, key: CacheKey, entry: CacheEntry) -> None:
        data = _record_line(key, entry).encode("utf-8")
        with open(self.path, "ab") as f:
            f.write(data)
            if self.fsync:
                f.flush()
                os.fsync(f.fileno())

    def _replay(self, path: str) -> None:
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError:
            return  # no warm store yet; it will be created on first append
        records, skipped, torn, good_end = _scan_store(raw)
        for key, exact, verdict, canon_rot in records:
            self.store(key, exact, verdict, canon_rot, _persist=False)
            self.stats.persisted_loads += 1
        self.stats.persisted_skipped += skipped
        self.stats.torn_truncated += torn
        if good_end < len(raw):
            # Repair the store in place: drop the torn tail a crash
            # mid-append left, so the next append starts on a record
            # boundary instead of welding onto the fragment.
            try:
                with open(path, "r+b") as f:
                    f.truncate(good_end)
            except OSError:
                pass  # read-only store: serve from memory, skip the repair
        # Replay counted its inserts as stores; those were not fresh work.
        self.stats.stores -= self.stats.persisted_loads


def _crc(body: dict) -> int:
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _record_line(key: CacheKey, entry: CacheEntry) -> str:
    """One durable v2 record: the canonical body JSON plus a CRC-32 of
    that exact serialization, newline-terminated.

    Canonical ranks are written as string keys, as JSON reads them back:
    integer keys sort numerically (2 before 10) when written but as
    strings ("10" before "2") when re-serialized on replay, so a CRC
    over integer keys would not survive its own round trip.
    """
    rotation = entry.canonical_rotation
    body = {
        "v": CACHE_SCHEMA_VERSION,
        "key": list(key),
        "exact": entry.exact,
        "verdict": entry.verdict,
        "canon_rot": None if rotation is None else {str(r): o for r, o in rotation.items()},
    }
    body["crc"] = _crc(body)
    return json.dumps(body, sort_keys=True) + "\n"


def _parse_record(line: str) -> tuple:
    """Decode one store line into ``(key, exact, verdict, canon_rot)``.

    Raises ``ValueError``/``KeyError``/``TypeError`` on any damage: bad
    JSON, wrong schema version, malformed key — or, for v2 records, a
    CRC that does not match the canonical body serialization (a flipped
    bit anywhere in the record changes one side or the other).  Legacy
    v1 lines carry no CRC and are accepted on structure alone.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    version = obj.get("v")
    if version == 2:
        crc = obj.pop("crc", None)
        if crc != _crc(obj) and not (
            # Stores written before ranks were string keys: their CRC
            # covers the integer-keyed (numerically sorted) rotation.
            isinstance(obj.get("canon_rot"), dict)
            and crc == _crc({**obj, "canon_rot": {int(r): o for r, o in obj["canon_rot"].items()}})
        ):
            raise ValueError("CRC mismatch")
    elif version != 1:
        raise ValueError("schema version mismatch")
    key = tuple(obj["key"])
    if len(key) != 3:
        raise ValueError("malformed key")
    exact = obj["exact"]
    verdict = obj["verdict"]
    canon_rot = obj.get("canon_rot")
    if canon_rot is not None:
        canon_rot = {
            int(rank): [int(r) for r in order] for rank, order in canon_rot.items()
        }
    return key, exact, verdict, canon_rot


def _scan_store(raw: bytes) -> tuple[list, int, int, int]:
    """Walk a persisted store byte-for-byte.

    Returns ``(records, skipped, torn, good_end)`` where ``records`` are
    the decoded valid records in file order, ``good_end`` is the byte
    offset just past the last valid record, ``skipped`` counts corrupt
    lines *before* that offset (mid-file damage: skip, keep on disk —
    a concurrent writer may still own those bytes), and ``torn`` counts
    everything after it (trailing corrupt or unterminated lines: the
    torn tail a crash mid-append leaves, safe to truncate).
    """
    records: list = []
    bad_offsets: list[int] = []  # offsets of invalid lines, in file order
    good_end = 0
    offset = 0
    for chunk in raw.split(b"\n"):
        end = offset + len(chunk) + 1  # +1 for the newline split off
        terminated = end <= len(raw)
        if chunk.strip():
            parsed = None
            if terminated:  # an unterminated final line is torn by definition
                try:
                    parsed = _parse_record(chunk.decode("utf-8"))
                except (ValueError, KeyError, TypeError, AttributeError):
                    parsed = None
            if parsed is not None:
                records.append(parsed)
                good_end = end
            else:
                bad_offsets.append(offset)
        elif terminated:
            good_end = end  # blank lines are harmless padding, keep them
        offset = end
    skipped = sum(1 for o in bad_offsets if o < good_end)
    torn = len(bad_offsets) - skipped
    return records, skipped, torn, good_end


def compact_store(
    path: str, capacity: int = 512, output: str | None = None
) -> dict:
    """Rewrite a persisted store to its live entries, atomically.

    An append-only store grows monotonically — superseded duplicates,
    skipped corruption, and entries beyond the LRU capacity all stay on
    disk.  Compaction replays the file through a fresh
    :class:`ResultCache` (same capacity semantics as serving, so what
    survives compaction is exactly what a warm start would load), writes
    the surviving entries as fsync'd v2 records to a temp file, and
    ``os.replace``\\ s it over ``output`` (default: ``path`` itself) —
    a crash mid-compact leaves the original store untouched.

    Returns a JSON-ready summary of what was kept and dropped.
    """
    size_before = os.stat(path).st_size  # missing input is an error
    cache = ResultCache(capacity=capacity, path=path, fsync=False)
    tmp = (output or path) + ".compact.tmp"
    entries = 0
    with open(tmp, "wb") as f:
        for key, bucket in cache._store.items():
            for entry in bucket:
                f.write(_record_line(key, entry).encode("utf-8"))
                entries += 1
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, output or path)
    return {
        "type": "cache-compact",
        "path": path,
        "output": output or path,
        "keys": len(cache),
        "entries": entries,
        "loaded": cache.stats.persisted_loads,
        "skipped": cache.stats.persisted_skipped,
        "torn_truncated": cache.stats.torn_truncated,
        "bytes_before": size_before,
        "bytes_after": os.stat(output or path).st_size,
    }
