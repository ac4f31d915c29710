"""Crash consistency of the persistent cache store (serve/cache.py):
CRC-32 detection, torn-tail truncation and in-place repair, concurrent
appenders, and ``repro cache-compact``."""

import json
import zlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.__main__ import main
from repro.planar.generators import grid_graph
from repro.serve import ResultCache, compact_store, torn_append
from repro.serve.canon import canonical_form, exact_fingerprint


def _entry(graph):
    form = canonical_form(graph)
    return ("h-" + form.hash[:8], "embed", "{}"), exact_fingerprint(graph), form


def _seed_store(path, n=3):
    cache = ResultCache(path=str(path))
    for i in range(n):
        cache.store((f"h{i}", "embed", "{}"), f"fp{i}", {"outcome": "ok", "i": i})
    return cache


def _append_records(args):
    """Worker for the concurrent-appenders test: each process opens the
    same store file and appends its own fsync'd records."""
    path, tag, count = args
    cache = ResultCache(path=path)
    for i in range(count):
        cache.store((f"{tag}-{i}", "embed", "{}"), f"fp-{tag}-{i}",
                    {"outcome": "ok", "writer": tag, "i": i})
    return tag


class TestTornTail:
    def test_torn_tail_is_truncated_and_repaired(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path)
        size = path.stat().st_size
        fragment = torn_append(str(path))
        assert path.stat().st_size == size + len(fragment)
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 3
        assert warm.stats.torn_truncated == 1
        assert warm.stats.persisted_skipped == 0
        assert path.stat().st_size == size  # the fragment is gone from disk
        # A third replay sees a clean store.
        again = ResultCache(path=str(path))
        assert again.stats.torn_truncated == 0

    def test_unterminated_garbage_tail(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path)
        size = path.stat().st_size
        with open(path, "a") as f:
            f.write('{"v": 2, "half":')  # no newline: crash mid-append
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 3
        assert warm.stats.torn_truncated == 1
        assert path.stat().st_size == size

    def test_trailing_corrupt_terminated_lines_are_torn(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=2)
        size = path.stat().st_size
        with open(path, "a") as f:
            f.write("not json at all\n{broken too\n")
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 2
        assert warm.stats.torn_truncated == 2
        assert warm.stats.persisted_skipped == 0
        assert path.stat().st_size == size

    def test_midfile_corruption_skipped_not_truncated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=2)
        raw = path.read_bytes().splitlines(keepends=True)
        raw.insert(1, b"garbage between records\n")
        path.write_bytes(b"".join(raw))
        size = path.stat().st_size
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 2
        assert warm.stats.persisted_skipped == 1
        assert warm.stats.torn_truncated == 0
        # Mid-file damage stays on disk: only the tail is ours to cut.
        assert path.stat().st_size == size


class TestCrc:
    def test_bit_flip_is_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=3)
        raw = path.read_bytes().splitlines(keepends=True)
        raw[0] = raw[0].replace(b'"i": 0', b'"i": 7')  # valid JSON, wrong CRC
        path.write_bytes(b"".join(raw))
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 2
        assert warm.stats.persisted_skipped == 1

    def test_records_carry_crc(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=1)
        obj = json.loads(path.read_text().splitlines()[0])
        assert obj["v"] == 2
        assert isinstance(obj["crc"], int)

    def test_v1_legacy_lines_still_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({
            "v": 1, "key": ["h", "embed", "{}"], "exact": "fp",
            "verdict": {"outcome": "ok"}, "canon_rot": None,
        }) + "\n")
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 1
        assert warm.stats.persisted_skipped == 0


    def test_canonical_rotation_survives_replay(self, tmp_path):
        """Ranks 0..11 sort differently as integers and as strings; the
        record's CRC must still match after a JSON round trip (it did
        not, and the warm start truncated the record as a torn tail)."""
        path = tmp_path / "cache.jsonl"
        rotation = {rank: [(rank + 1) % 12, (rank + 11) % 12] for rank in range(12)}
        ResultCache(path=str(path)).store(("h", "embed", "{}"), "fp", {"outcome": "ok"}, rotation)
        size = path.stat().st_size
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 1
        assert warm.stats.torn_truncated == 0
        assert path.stat().st_size == size
        assert warm._store[("h", "embed", "{}")][0].canonical_rotation == rotation

    def test_integer_rank_crc_records_still_load(self, tmp_path):
        """Records written with the CRC over integer rank keys load."""
        path = tmp_path / "cache.jsonl"
        body = {
            "v": 2, "key": ["h", "embed", "{}"], "exact": "fp",
            "verdict": {"outcome": "ok"},
            "canon_rot": {rank: [(rank + 1) % 12] for rank in range(12)},
        }
        body["crc"] = zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))
        path.write_text(json.dumps(body, sort_keys=True) + "\n")
        warm = ResultCache(path=str(path))
        assert warm.stats.persisted_loads == 1
        assert warm.stats.persisted_skipped + warm.stats.torn_truncated == 0


class TestConcurrentAppenders:
    def test_two_processes_interleave_cleanly(self, tmp_path):
        # Two writers fsync-appending whole lines to one store: the
        # interleaved (non-torn) JSONL must load cleanly and dedupe.
        path = str(tmp_path / "shared.jsonl")
        with ProcessPoolExecutor(max_workers=2) as pool:
            tags = list(pool.map(
                _append_records, [(path, "a", 8), (path, "b", 8)]
            ))
        assert sorted(tags) == ["a", "b"]
        warm = ResultCache(path=path)
        assert warm.stats.persisted_loads == 16
        assert warm.stats.persisted_skipped == 0
        assert warm.stats.torn_truncated == 0
        assert len(warm) == 16

    def test_duplicate_keys_from_two_writers_dedupe(self, tmp_path):
        # Both writers compute the same job: replay keeps one entry per
        # (key, exact) pair, exactly like two racing cold runs in-process.
        path = str(tmp_path / "dup.jsonl")
        writers = [ResultCache(path=path), ResultCache(path=path)]
        for cache in writers:  # neither saw the other's line at warm-start
            cache.store(("h0", "embed", "{}"), "fp0", {"outcome": "ok"})
        warm = ResultCache(path=path)
        assert warm.stats.persisted_loads == 2
        assert len(warm) == 1
        entries = next(iter(warm._store.values()))
        assert len(entries) == 1


class TestCompaction:
    def test_compact_drops_damage_and_duplicates(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=3)
        # duplicate line + mid-file garbage + torn tail
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"junk\n" + b"".join(lines))
        torn_append(str(path))
        summary = compact_store(str(path))
        assert summary["entries"] == 3
        assert summary["skipped"] == 1
        assert summary["torn_truncated"] == 1
        assert summary["bytes_after"] < summary["bytes_before"]
        clean = ResultCache(path=str(path))
        assert clean.stats.persisted_loads == 3
        assert clean.stats.persisted_skipped == 0

    def test_compact_applies_lru_capacity(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=5)
        summary = compact_store(str(path), capacity=2)
        assert summary["keys"] == 2
        assert summary["entries"] == 2

    def test_compact_to_separate_output(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        out = tmp_path / "compacted.jsonl"
        _seed_store(path, n=2)
        before = path.read_bytes()
        summary = compact_store(str(path), output=str(out))
        assert summary["output"] == str(out)
        assert path.read_bytes() == before  # input untouched
        assert ResultCache(path=str(out)).stats.persisted_loads == 2

    def test_cache_compact_cli(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        _seed_store(path, n=2)
        torn_append(str(path))
        assert main(["cache-compact", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["type"] == "cache-compact"
        assert summary["entries"] == 2
        assert summary["torn_truncated"] == 1

    def test_cache_compact_cli_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["cache-compact", str(tmp_path / "nope.jsonl")])
        assert err.value.code == 2

    def test_verdicts_round_trip_through_compacted_store(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        graph = grid_graph(3, 3)
        key, exact, _form = _entry(graph)
        cache = ResultCache(path=str(path))
        verdict = {"outcome": "ok", "report": {"rounds": 11}}
        cache.store(key, exact, verdict)
        compact_store(str(path))
        warm = ResultCache(path=str(path))
        form = canonical_form(graph)
        hit = warm.lookup(key, exact, form, graph)
        assert hit is not None
        assert hit.tier == "exact"
        assert hit.verdict == verdict
