"""Property-style fuzz: a journal torn at *every* byte offset of its
last record still resumes cleanly with all prior records intact.

This is the host-stack analogue of the torn-write discipline the
modeled NVM enforces: the tail of the durable log may be arbitrary
garbage after a crash, and recovery must land on exactly the prefix of
fully-written records — never fewer, never a partial one.
"""

import errno
import json

import pytest

import repro.runs.journal as journal_mod
from repro.runs.journal import RunJournal
from repro.runs.spec import simulation_spec

FINGERPRINT = "test-fingerprint"


def build_journal(path, n=3):
    """A journal of *n* records; returns (specs, full bytes, tail length)."""
    specs = [
        simulation_spec("ccnvm", "lbm", 40, seed) for seed in range(1, n + 1)
    ]
    before_last = None
    with RunJournal(path, FINGERPRINT) as journal:
        for i, spec in enumerate(specs):
            if i == len(specs) - 1:
                before_last = path.stat().st_size
            journal.record(spec, "done", {"seed": spec.seed, "value": i})
    full = path.read_bytes()
    return specs, full, len(full) - before_last


class TestTornTailFuzz:
    def test_every_truncation_point_of_the_last_record(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs, full, tail_len = build_journal(path)
        intact_hashes = [s.spec_hash() for s in specs[:-1]]
        last_hash = specs[-1].spec_hash()

        # Cut the file after every byte of the last record, from "no
        # bytes of it landed" through "all but its newline landed".
        for torn in range(tail_len):
            path.write_bytes(full[: len(full) - tail_len + torn])
            with RunJournal(path, FINGERPRINT) as journal:
                # Prior records survive; the torn one reads as missing.
                assert journal.resumed == len(intact_hashes), torn
                for h in intact_hashes:
                    assert journal.completed(h) is not None, torn
                assert journal.completed(last_hash) is None, torn
                # The torn bytes were truncated away on open; re-append
                # and the record is whole again.
                journal.record(specs[-1], "done", {"seed": specs[-1].seed})
            lines = path.read_bytes().splitlines()
            assert len(lines) == 1 + len(specs), torn  # header + n records
            assert json.loads(lines[-1])["spec_hash"] == last_hash, torn

    def test_garbage_tail_is_dropped_not_parsed(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs, full, _ = build_journal(path)
        path.write_bytes(full + b'{"spec_hash": "zzz", not json')
        with RunJournal(path, FINGERPRINT) as journal:
            assert journal.resumed == len(specs)
            assert "zzz" not in journal.records
        # The next open sees a clean file (the garbage was truncated).
        assert path.read_bytes() == full

    def test_fingerprint_mismatch_restarts_the_file(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        build_journal(path)
        with RunJournal(path, "other-fingerprint") as journal:
            assert journal.resumed == 0 and journal.records == {}
        header = json.loads(path.read_bytes().splitlines()[0])
        assert header["fingerprint"] == "other-fingerprint"


class HalfWriteHandle:
    """A journal file handle whose next write lands half its bytes and
    then fails, as a write cut short by a full disk or an IO error."""

    def __init__(self, handle):
        self._handle = handle
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self._handle.write(data[: len(data) // 2])
            raise OSError(errno.EIO, "write cut short")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestChaosRepair:
    def test_append_torn_truncates_back_and_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs, full, _ = build_journal(path)
        extra = simulation_spec("ccnvm", "lbm", 40, 99)
        with RunJournal(path, FINGERPRINT) as journal:
            journal._handle = HalfWriteHandle(journal._handle)
            with pytest.raises(OSError, match="write cut short"):
                journal.record(extra, "done", {})
            # Disk-first: neither disk nor memory holds the record, and
            # the torn half was truncated back inside the failed append.
            assert extra.spec_hash() not in journal.records
            assert path.read_bytes() == full
            # A clean retry in the same session then lands whole.
            journal.record(extra, "done", {"ok": True})
        data = path.read_bytes()
        assert data.startswith(full)
        assert json.loads(data.splitlines()[-1])["spec_hash"] == extra.spec_hash()

    def test_fsync_fail_discards_the_record(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        specs, full, _ = build_journal(path)
        extra = simulation_spec("ccnvm", "lbm", 40, 99)

        def fsync_fails(fd):
            raise OSError(errno.EIO, "fsync failed")

        with RunJournal(path, FINGERPRINT) as journal:
            with monkeypatch.context() as patched:
                patched.setattr(journal_mod.os, "fsync", fsync_fails)
                with pytest.raises(OSError, match="fsync"):
                    journal.record(extra, "done", {})
            assert extra.spec_hash() not in journal.records
        assert path.read_bytes() == full
        # A fresh session resumes exactly the pre-failure records.
        with RunJournal(path, FINGERPRINT) as journal:
            assert journal.resumed == len(specs)
