"""JSONL run journal: live progress and resume-after-interrupt.

One journal file records one sweep.  The first line is a header naming
the code fingerprint the sweep ran under; every following line is one
completed spec with its full result payload.  Appends are flushed per
record, so a power-cut (or Ctrl-C) mid-sweep loses at most the record
being written — on the next run :meth:`RunJournal.completed` hands the
orchestrator every spec that already finished and only the remainder is
executed.  A half-written trailing line (the crash case) is detected and
ignored on load, then truncated away by the next append.

If the journal on disk was written by a *different* code fingerprint its
records are not resumable — results from old code must not leak into new
figures — so the file is restarted from scratch.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.common.persistence import persistence
from repro.runs.spec import RunSpec

#: Journal file format version.
JOURNAL_FORMAT = 1


@persistence(
    persistent=("records",),
    volatile=("_handle", "_good_bytes"),
    aka=("journal",),
    mutators=("record", "close"),
)
class RunJournal:
    """Append-only JSONL journal of completed run specs.

    ``records`` mirrors the on-disk file (it is rebuilt from disk on
    open, so it survives a crash); the open file ``_handle`` does not.
    ``_good_bytes`` tracks the byte offset of the last fully-fsynced
    record boundary: a failed append (torn write, failed fsync)
    truncates the file back to it before re-raising, so an in-process
    IO failure leaves the journal exactly as resumable as a crash
    would — the write-ordering discipline of the modeled NVM, applied
    to the host's own durable state.
    """

    def __init__(self, path: Path | str, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: spec_hash -> record dict, as recovered from / written to disk.
        self.records: dict[str, dict] = {}
        #: Records loaded from a previous interrupted session.
        self.resumed = 0
        self._handle = None
        self._good_bytes = 0
        self._open()

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        good_bytes = self._load()
        if good_bytes is None:
            # New file, wrong fingerprint or unreadable header: restart.
            self.records = {}
            self._handle = open(self.path, "wb")
            self._good_bytes = 0
            header = {
                "format": JOURNAL_FORMAT,
                "fingerprint": self.fingerprint,
                "created": time.time(),
            }
            self._append_line(header)
        else:
            # Resume: drop any torn trailing line, then append.
            with open(self.path, "rb+") as handle:
                handle.truncate(good_bytes)
            self.resumed = len(self.records)
            self._handle = open(self.path, "ab")
            self._good_bytes = good_bytes

    def _load(self):
        """Read the journal; return the byte length of the intact prefix.

        ``None`` means the file cannot be resumed (missing, unreadable or
        fingerprint mismatch) and must be restarted.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        good = 0
        header_seen = False
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn trailing record from an interrupted append
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if not header_seen:
                if (
                    record.get("format") != JOURNAL_FORMAT
                    or record.get("fingerprint") != self.fingerprint
                ):
                    return None
                header_seen = True
            elif "spec_hash" in record:
                self.records[record["spec_hash"]] = record
            good += len(line)
        return good if header_seen else None

    def _append_line(self, obj: dict) -> None:
        data = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        try:
            self._handle.write(data)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            self._repair()
            raise
        self._good_bytes += len(data)

    def _repair(self) -> None:
        """Truncate a torn/unsynced tail back to the last good record."""
        try:
            self._handle.flush()
        except OSError:
            pass
        os.ftruncate(self._handle.fileno(), self._good_bytes)

    # -- the journaling protocol -------------------------------------------

    def completed(self, spec_hash: str) -> dict | None:
        """The journaled record for *spec_hash* if it finished cleanly."""
        record = self.records.get(spec_hash)
        if record is not None and record.get("status") == "done":
            return record
        return None

    def record(
        self,
        spec: RunSpec,
        status: str,
        payload=None,
        cached: bool = False,
        duration: float = 0.0,
        error: str = "",
    ) -> dict:
        """Append one completed spec (result payload included) and flush."""
        entry = {
            "spec_hash": spec.spec_hash(),
            "label": spec.describe(),
            "kind": spec.kind,
            "scheme": spec.scheme,
            "workload": spec.workload,
            "status": status,
            "cached": cached,
            "duration": round(duration, 6),
            "payload": payload,
        }
        if error:
            entry["error"] = error
        # Disk first: a failed append must not leave an in-memory record
        # the on-disk journal does not hold.
        self._append_line(entry)
        self.records[entry["spec_hash"]] = entry
        return entry

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
