"""Unit tests for the content-addressed result cache."""

import json

from repro.runs.cache import ResultCache, code_fingerprint
from repro.runs.spec import simulation_spec

SPEC = simulation_spec("ccnvm", "lbm", 1000, 1)


def make_cache(tmp_path, fingerprint="f" * 16):
    return ResultCache(tmp_path / "cache", fingerprint=fingerprint)


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get(SPEC) is None
        cache.put(SPEC, {"ipc": 1.25})
        assert cache.get(SPEC) == {"ipc": 1.25}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_entry_is_keyed_by_spec_hash(self, tmp_path):
        cache = make_cache(tmp_path)
        path = cache.put(SPEC, {"x": 1})
        assert path.name == f"{SPEC.spec_hash()}.json"
        envelope = json.loads(path.read_text())
        assert envelope["spec"] == SPEC.to_dict()
        assert envelope["fingerprint"] == cache.fingerprint

    def test_other_fingerprint_is_a_miss(self, tmp_path):
        old = make_cache(tmp_path, fingerprint="a" * 16)
        old.put(SPEC, {"x": 1})
        new = make_cache(tmp_path, fingerprint="b" * 16)
        assert new.get(SPEC) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = make_cache(tmp_path)
        path = cache.put(SPEC, {"x": 1})
        path.write_text("{torn")
        assert cache.get(SPEC) is None
        assert not path.exists()

    def test_real_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestStats:
    def test_flush_accumulates_across_sessions(self, tmp_path):
        first = make_cache(tmp_path)
        first.get(SPEC)  # miss
        first.put(SPEC, {"x": 1})
        first.flush_stats()
        second = make_cache(tmp_path)
        assert second.cumulative["misses"] == 1
        second.get(SPEC)  # hit
        stats = second.flush_stats()
        assert stats["hits"] == 1
        assert stats["stores"] == 1
        assert stats["flushes"] == 2
        # flushing resets the session counters
        assert (second.hits, second.misses, second.stores) == (0, 0, 0)

    def test_status_reports_generations_and_stats(self, tmp_path):
        cache = make_cache(tmp_path, fingerprint="a" * 16)
        cache.put(SPEC, {"x": 1})
        cache.flush_stats()
        status = make_cache(tmp_path, fingerprint="b" * 16).status()
        assert status["generations"]["a" * 16]["entries"] == 1
        assert not status["generations"]["a" * 16]["current"]
        assert status["stats"]["stores"] == 1


class TestGc:
    def test_gc_drops_stale_generations_only(self, tmp_path):
        old = make_cache(tmp_path, fingerprint="a" * 16)
        old.put(SPEC, {"x": 1})
        new = make_cache(tmp_path, fingerprint="b" * 16)
        new.put(SPEC, {"x": 2})
        swept = new.gc()
        assert (swept["removed"], swept["kept"]) == (1, 1)
        assert swept["reclaimed_bytes"] > 0
        assert new.get(SPEC) == {"x": 2}

    def test_gc_everything_also_clears_stats(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(SPEC, {"x": 1})
        cache.flush_stats()
        swept = cache.gc(everything=True)
        assert (swept["removed"], swept["kept"]) == (1, 0)
        assert cache.get(SPEC) is None
        assert cache._read_stats()["stores"] == 0

    def test_gc_reclaimed_bytes_accumulate_in_stats(self, tmp_path):
        cache = make_cache(tmp_path, fingerprint="a" * 16)
        cache.put(SPEC, {"x": 1})
        newer = make_cache(tmp_path, fingerprint="b" * 16)
        swept = newer.gc()
        stats = newer._read_stats()
        assert stats["gc_runs"] == 1
        assert stats["gc_removed"] == 1
        assert stats["gc_reclaimed_bytes"] == swept["reclaimed_bytes"] > 0
        assert newer.status()["stats"]["gc_reclaimed_bytes"] > 0

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = make_cache(tmp_path)
        path = cache.put(SPEC, {"x": 1})
        orphan = path.parent / f"{path.name}abc123.tmp"
        orphan.write_text("torn writer residue")
        swept = cache.gc()
        assert not orphan.exists()
        assert swept["reclaimed_bytes"] > 0
        assert cache.get(SPEC) == {"x": 1}
