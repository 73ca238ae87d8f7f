"""Cache failure semantics under real IO errors: puts fail cleanly (no
partial entry ever visible), orphaned temp files are swept, and a sweep
tolerates put and journal failures because the other store still holds
the result.
"""

import errno
import os

import pytest

import repro.runs.cache as cache_mod
import repro.runs.journal as journal_mod
from repro.runs.cache import ResultCache
from repro.runs.journal import RunJournal
from repro.runs.orchestrate import run_specs, sweep_journal_path
from repro.runs.spec import simulation_spec

FINGERPRINT = "test-fingerprint"


def make_cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FINGERPRINT)


def spec_for(seed=1):
    return simulation_spec("ccnvm", "lbm", 40, seed)


def fail_first(real, code, failures=1):
    """Wrap *real* so its first *failures* calls raise ``OSError(code)``."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        if len(calls) <= failures:
            raise OSError(code, os.strerror(code))
        return real(*args)

    return wrapper


class TestPutFailures:
    @pytest.mark.parametrize(
        "site,code",
        [("cache.put_eio", errno.EIO), ("cache.put_enospc", errno.ENOSPC)],
    )
    def test_put_raises_cleanly_with_no_partial_entry(
        self, tmp_path, monkeypatch, site, code
    ):
        cache = make_cache(tmp_path)
        spec = spec_for()
        # The temp file is written and fsynced, then the rename fails:
        # the writer must unlink its temp file and surface the error.
        monkeypatch.setattr(cache_mod.os, "replace", fail_first(os.replace, code))
        with pytest.raises(OSError) as failure:
            cache.put(spec, {"value": 1})
        assert failure.value.errno == code
        # Nothing visible, nothing half-written.
        assert not cache.path_for(spec).is_file()
        assert cache.get(spec) is None
        gen_dir = cache.results_dir / FINGERPRINT
        assert list(gen_dir.glob("*.json")) == []
        assert list(gen_dir.glob("*.tmp")) == []
        # The failure was transient; the retried put lands normally.
        assert cache.put(spec, {"value": 1}).is_file()
        assert cache.get(spec) == {"value": 1}

    def test_put_torn_orphans_tmp_and_gc_sweeps_it(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = spec_for()
        # A writer killed mid-write leaves a partial temp file behind,
        # named the way _atomic_write_text's mkstemp names them; the
        # entry itself was never made visible.
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        orphan = path.parent / f"{path.name}k3x9q.tmp"
        orphan.write_text('{"torn":')
        assert not path.is_file()
        assert cache.get(spec) is None
        # gc always sweeps writer orphans.
        orphan_bytes = orphan.stat().st_size
        swept = cache.gc()
        assert swept["reclaimed_bytes"] >= orphan_bytes > 0
        assert list(path.parent.glob("*.tmp")) == []
        # A later clean put is unaffected.
        cache.put(spec, {"value": 2})
        assert cache.get(spec) == {"value": 2}


class TestSweepTolerance:
    def test_failed_puts_are_counted_not_fatal(self, tmp_path, monkeypatch):
        # Every put attempt fails at its rename (put_tolerant tries three
        # times per record); the sweep still completes and the journal
        # holds the results, so a rerun resumes from it.
        cache = make_cache(tmp_path)
        specs = [spec_for(1)]
        journal_path = sweep_journal_path(cache, "io-failure-test", specs)
        monkeypatch.setattr(
            cache_mod.os, "replace", fail_first(os.replace, errno.EIO, 3)
        )
        with RunJournal(journal_path, FINGERPRINT) as journal:
            report = run_specs(specs, jobs=1, cache=cache, journal=journal)
        assert report.failed == 0
        assert report.executed == 1
        assert report.cache_put_errors == 1
        assert not cache.path_for(specs[0]).is_file()

        with RunJournal(journal_path, FINGERPRINT) as journal:
            rerun = run_specs(specs, jobs=1, cache=cache, journal=journal)
        assert rerun.executed == 0
        assert rerun.journal_hits == 1
        assert rerun.payload(specs[0]) == report.payload(specs[0])

    def test_failed_journal_appends_leave_the_cache_copy(
        self, tmp_path, monkeypatch
    ):
        cache = make_cache(tmp_path)
        specs = [spec_for(1)]
        journal_path = sweep_journal_path(cache, "io-failure-test", specs)
        with RunJournal(journal_path, FINGERPRINT) as journal:
            # The header append of the fresh journal already landed; the
            # sweep's only record append then fails its fsync.
            with monkeypatch.context() as patched:
                patched.setattr(
                    journal_mod.os, "fsync", fail_first(os.fsync, errno.EIO)
                )
                report = run_specs(specs, jobs=1, cache=cache, journal=journal)
        assert report.failed == 0
        assert report.journal_errors == 1
        assert cache.path_for(specs[0]).is_file()

        with RunJournal(journal_path, FINGERPRINT) as journal:
            rerun = run_specs(specs, jobs=1, cache=cache, journal=journal)
        assert rerun.cache_hits == 1
        assert rerun.payload(specs[0]) == report.payload(specs[0])
