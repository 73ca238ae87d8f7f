"""Unit tests for the JSONL run journal (resume-after-interrupt)."""

import pytest

from repro.runs.journal import RunJournal
from repro.runs.spec import simulation_spec

FP = "0123456789abcdef"
SPEC_A = simulation_spec("ccnvm", "lbm", 1000, 1)
SPEC_B = simulation_spec("sc", "lbm", 1000, 1)


class TestJournal:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            journal.record(SPEC_A, "done", {"ipc": 1.0}, duration=0.5)
        with RunJournal(path, FP) as journal:
            assert journal.resumed == 1
            record = journal.completed(SPEC_A.spec_hash())
            assert record["payload"] == {"ipc": 1.0}
            assert journal.completed(SPEC_B.spec_hash()) is None

    def test_failed_records_are_not_resumable(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            journal.record(SPEC_A, "failed", None, error="boom")
        with RunJournal(path, FP) as journal:
            assert journal.completed(SPEC_A.spec_hash()) is None

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            journal.record(SPEC_A, "done", {"ipc": 1.0})
        # a crash mid-append leaves a partial record with no newline
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "deadbeef", "status": "do')
        with RunJournal(path, FP) as journal:
            assert journal.completed(SPEC_A.spec_hash()) is not None
            assert "deadbeef" not in journal.records
            journal.record(SPEC_B, "done", {"ipc": 2.0})
        # the torn bytes were truncated away: the file parses end to end
        with RunJournal(path, FP) as journal:
            assert len(journal.records) == 2

    def test_fingerprint_mismatch_restarts_the_journal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            journal.record(SPEC_A, "done", {"ipc": 1.0})
        with RunJournal(path, "f" * 16) as journal:
            assert journal.records == {}
            assert journal.resumed == 0

    def test_garbage_file_restarts_the_journal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("not json at all\n")
        with RunJournal(path, FP) as journal:
            assert journal.records == {}
            journal.record(SPEC_A, "done", {"ipc": 1.0})
        with RunJournal(path, FP) as journal:
            assert journal.resumed == 1

    @pytest.mark.parametrize(
        "line",
        [b'{"spec_hash": "\xff\xfe"}\n', b"5\n", b"[1]\n", b"null\n"],
        ids=["non-utf8", "int", "list", "null"],
    )
    def test_corrupt_record_line_ends_the_intact_prefix(self, tmp_path, line):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            journal.record(SPEC_A, "done", {"ipc": 1.0})
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(line)
        with RunJournal(path, FP) as journal:
            assert journal.resumed == 1
            assert journal.completed(SPEC_A.spec_hash()) is not None
            assert path.stat().st_size == intact
            journal.record(SPEC_B, "done", {"ipc": 2.0})
        with RunJournal(path, FP) as journal:
            assert journal.resumed == 2

    @pytest.mark.parametrize(
        "header", [b"\xff\xfe\n", b"[1]\n", b"5\n"], ids=["non-utf8", "list", "int"]
    )
    def test_corrupt_header_restarts_the_journal(self, tmp_path, header):
        path = tmp_path / "sweep.jsonl"
        path.write_bytes(header)
        with RunJournal(path, FP) as journal:
            assert journal.records == {}
            assert journal.resumed == 0
            journal.record(SPEC_A, "done", {"ipc": 1.0})
        with RunJournal(path, FP) as journal:
            assert journal.resumed == 1
