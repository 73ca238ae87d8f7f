"""Content-addressed on-disk result cache.

Results live under ``.repro-cache/results/<fingerprint>/<spec_hash>.json``
where *fingerprint* digests every ``*.py`` file of the installed
``repro`` package: editing any simulator source invalidates every cached
result at once (no stale-figure hazards), while a rerun of an unchanged
tree is served from disk without executing a single simulation.

Entries are written crash-consistently — serialized to a temporary file
in the same directory, then :func:`os.replace`'d into place — so a cache
interrupted mid-``put`` never holds a torn JSON document.  This mirrors
the write-ordering discipline the simulated system itself is built
around, and the class declares its domains to the ``repro lint``
analyzer like every other owner of crash-surviving state.

Cumulative hit/miss/store counters persist in ``stats.json`` (merged at
:meth:`ResultCache.flush_stats`, typically once per orchestrated sweep),
which is what ``repro runs status --json`` reports and CI asserts on.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.common.persistence import persistence
from repro.runs.spec import RunSpec

#: Default cache directory (relative to the working directory unless the
#: ``CCNVM_CACHE_DIR`` environment variable points elsewhere).
DEFAULT_CACHE_DIR = ".repro-cache"

#: On-disk entry format version; bump to orphan every existing entry.
CACHE_FORMAT = 1

_FINGERPRINTS: dict[str, str] = {}


def default_cache_root() -> Path:
    """The cache directory honoring the ``CCNVM_CACHE_DIR`` override."""
    return Path(os.environ.get("CCNVM_CACHE_DIR", DEFAULT_CACHE_DIR))


def code_fingerprint(root: Path | None = None) -> str:
    """Digest of every Python source file under the ``repro`` package.

    The digest covers relative paths *and* contents, so renaming a module
    invalidates just like editing one.  Memoized per process — the tree
    does not change under a running sweep.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    key = str(root)
    if key not in _FINGERPRINTS:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _FINGERPRINTS[key] = digest.hexdigest()[:16]
    return _FINGERPRINTS[key]


def _atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* via a same-directory rename (no torn files).

    Safe under concurrent writers of the *same* path: every writer gets
    its own ``mkstemp`` name (two processes can never interleave into
    one temp file), the bytes are fsynced before the rename, and
    ``os.replace`` is atomic — a reader observes either some writer's
    complete document or the previous one, never a mixture.  On a true
    race the last rename wins, which is correct for a content-addressed
    store: both writers were storing the same content-equivalent entry.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@persistence(
    persistent=("cumulative",),
    volatile=("hits", "misses", "stores"),
    aka=("result_cache",),
    mutators=("get", "put", "flush_stats", "gc"),
)
class ResultCache:
    """Spec-hash-addressed result store, invalidated by code fingerprint.

    ``cumulative`` mirrors ``stats.json`` (it survives the process);
    ``hits``/``misses``/``stores`` count this session only and are lost
    unless :meth:`flush_stats` merges them to disk.
    """

    def __init__(
        self, root: Path | str | None = None, fingerprint: str | None = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.cumulative = self._read_stats()

    # -- paths -------------------------------------------------------------

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def journal_dir(self) -> Path:
        return self.root / "journal"

    @property
    def stats_path(self) -> Path:
        return self.root / "stats.json"

    def path_for(self, spec: RunSpec) -> Path:
        """Where this spec's result lives (for the current fingerprint)."""
        return self.results_dir / self.fingerprint / f"{spec.spec_hash()}.json"

    # -- the store ---------------------------------------------------------

    def get(self, spec: RunSpec):
        """The cached payload for *spec*, or ``None`` on a miss.

        A hit requires the entry to exist, parse, and carry the current
        format version and fingerprint; anything less is a miss (and an
        unreadable entry is removed rather than trusted).
        """
        path = self.path_for(spec)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if (
            envelope.get("format") != CACHE_FORMAT
            or envelope.get("fingerprint") != self.fingerprint
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, spec: RunSpec, payload) -> Path:
        """Store *payload* for *spec* (atomically) and return its path."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": CACHE_FORMAT,
            "fingerprint": self.fingerprint,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "payload": payload,
        }
        text = json.dumps(envelope, sort_keys=True, indent=1)
        try:
            _atomic_write_text(path, text)
        except FileNotFoundError:
            # A concurrent gc removed the generation directory between
            # mkdir and mkstemp; recreate it and retry once.
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(path, text)
        self.stores += 1
        return path

    # -- persistent statistics ---------------------------------------------

    def _read_stats(self) -> dict:
        try:
            data = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            data = {}
        return {
            "hits": int(data.get("hits", 0)),
            "misses": int(data.get("misses", 0)),
            "stores": int(data.get("stores", 0)),
            "flushes": int(data.get("flushes", 0)),
            "gc_runs": int(data.get("gc_runs", 0)),
            "gc_removed": int(data.get("gc_removed", 0)),
            "gc_reclaimed_bytes": int(data.get("gc_reclaimed_bytes", 0)),
        }

    def flush_stats(self) -> dict:
        """Merge this session's counters into ``stats.json`` and reset them.

        Re-reads the file first so concurrent sessions accumulate rather
        than overwrite each other (last-merge-wins on a true race, which
        is acceptable for monitoring counters).
        """
        if not (self.hits or self.misses or self.stores):
            return self.cumulative
        current = self._read_stats()
        current["hits"] += self.hits
        current["misses"] += self.misses
        current["stores"] += self.stores
        current["flushes"] += 1
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(self.stats_path, json.dumps(current, sort_keys=True, indent=1))
        self.cumulative = current
        self.hits = self.misses = self.stores = 0
        return current

    # -- maintenance -------------------------------------------------------

    def status(self) -> dict:
        """Inventory for ``repro runs status``: entries, sizes, counters."""
        generations = {}
        if self.results_dir.is_dir():
            for gen_dir in sorted(self.results_dir.iterdir()):
                if not gen_dir.is_dir():
                    continue
                entries = list(gen_dir.glob("*.json"))
                generations[gen_dir.name] = {
                    "entries": len(entries),
                    "bytes": sum(p.stat().st_size for p in entries),
                    "current": gen_dir.name == self.fingerprint,
                }
        journals = (
            sorted(p.name for p in self.journal_dir.glob("*.jsonl"))
            if self.journal_dir.is_dir()
            else []
        )
        pending = {
            "hits": self.hits, "misses": self.misses, "stores": self.stores
        }
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "generations": generations,
            "journals": journals,
            "stats": self._read_stats(),
            "session": pending,
        }

    def gc(self, everything: bool = False) -> dict:
        """Prune the store; returns ``{removed, kept, reclaimed_bytes}``.

        Drops every stale-fingerprint generation (every generation under
        *everything*) and always sweeps orphaned ``*.tmp`` files left by
        crashed writers.  Journals are removed only under *everything*
        (a stale journal is harmless — its fingerprint header stops it
        from resuming the wrong code).  Reclaimed bytes accumulate in
        ``stats.json`` (``gc_runs`` / ``gc_removed`` /
        ``gc_reclaimed_bytes``), which is what ``repro runs status
        --json`` reports.
        """
        removed = kept = reclaimed = 0

        def unlink(path: Path) -> tuple[int, int]:
            """Remove one file; returns (entries, bytes) it was worth."""
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return 0, 0
            return 1, size

        gen_dirs = (
            [d for d in sorted(self.results_dir.iterdir()) if d.is_dir()]
            if self.results_dir.is_dir()
            else []
        )
        for gen_dir in gen_dirs:
            for tmp in gen_dir.glob("*.tmp"):
                _, size = unlink(tmp)
                reclaimed += size

        for gen_dir in gen_dirs:
            entries = list(gen_dir.glob("*.json"))
            if everything or gen_dir.name != self.fingerprint:
                for path in entries:
                    n, size = unlink(path)
                    removed += n
                    reclaimed += size
                try:
                    gen_dir.rmdir()
                except OSError:
                    pass
            else:
                kept += len(entries)

        if everything:
            if self.journal_dir.is_dir():
                for path in self.journal_dir.glob("*.jsonl"):
                    _, size = unlink(path)
                    reclaimed += size
            try:
                self.stats_path.unlink()
            except OSError:
                pass
            self.cumulative = self._read_stats()
        else:
            stats = self._read_stats()
            stats["gc_runs"] += 1
            stats["gc_removed"] += removed
            stats["gc_reclaimed_bytes"] += reclaimed
            self.root.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(
                self.stats_path, json.dumps(stats, sort_keys=True, indent=1)
            )
            self.cumulative = stats
        return {"removed": removed, "kept": kept, "reclaimed_bytes": reclaimed}
