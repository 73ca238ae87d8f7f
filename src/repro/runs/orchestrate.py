"""The orchestrator: cache -> journal -> worker pool, in that order.

:func:`run_specs` is the single entry point every experiment driver
(Figure 5/6, the crash campaign, the benchmark harness) submits through.
For each requested spec it consults, in order:

1. the content-addressed **result cache** (same spec hash + same code
   fingerprint ⇒ the simulation is provably redundant);
2. the sweep's **journal** (resume after an interrupt, also with the
   cache disabled);
3. the **worker pool**, which actually executes the remainder.

Fresh results are journaled and cached as they arrive, so an interrupt
at any point loses at most the in-flight specs.  Deduplication happens
up front: submitting the same spec twice (e.g. the shared ``no_cc``
baseline of two figures) costs one execution.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runs.cache import ResultCache, code_fingerprint
from repro.runs.journal import RunJournal
from repro.runs.pool import RunOutcome, run_pool
from repro.runs.spec import RunSpec, canonical_json

#: Backoff between a cache put's attempts: *base* doubling per attempt,
#: capped at *cap* seconds, scaled by jitter.
_PUT_BACKOFF_BASE = 0.05
_PUT_BACKOFF_CAP = 2.0


@dataclass
class RunReport:
    """Accounting for one orchestrated batch."""

    #: spec_hash -> outcome, covering every submitted spec.
    outcomes: dict[str, RunOutcome] = field(default_factory=dict)
    executed: int = 0
    cache_hits: int = 0
    journal_hits: int = 0
    failed: int = 0
    #: Cache puts that still failed after their own retry budget; the
    #: result stays durable in the journal, so these are non-fatal.
    cache_put_errors: int = 0
    #: Journal appends that failed (the journal truncates itself back
    #: to the last good record); the cache still holds the result.
    journal_errors: int = 0
    wall_seconds: float = 0.0

    def payload(self, spec: RunSpec):
        """The payload of one submitted spec; raises if that spec failed."""
        outcome = self.outcomes[spec.spec_hash()]
        if not outcome.ok:
            raise RuntimeError(
                f"run {spec.describe()} {outcome.status}: {outcome.error}"
            )
        return outcome.payload

    def errors(self) -> list[str]:
        return [
            f"{o.spec.describe()}: {o.status} ({o.error.strip().splitlines()[-1]})"
            if o.error
            else f"{o.spec.describe()}: {o.status}"
            for o in self.outcomes.values()
            if not o.ok
        ]

    def raise_on_failure(self) -> None:
        """Fail loudly when any spec did not complete."""
        problems = self.errors()
        if problems:
            raise RuntimeError(
                f"{len(problems)} of {len(self.outcomes)} runs failed:\n  "
                + "\n  ".join(problems)
            )

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} specs: {self.executed} executed, "
            f"{self.cache_hits} from cache, {self.journal_hits} from journal, "
            f"{self.failed} failed in {self.wall_seconds:.2f}s"
        )


def sweep_journal_path(cache: ResultCache, name: str, specs: list[RunSpec]) -> Path:
    """A stable journal path for one named sweep.

    The file name folds in a digest of the submitted spec hashes, so the
    same sweep resumes its own journal while a differently-shaped sweep
    (other length, other workload subset) gets a fresh one.
    """
    import hashlib

    digest = hashlib.sha256(
        canonical_json(sorted(s.spec_hash() for s in specs)).encode()
    ).hexdigest()[:12]
    return cache.journal_dir / f"{name}-{digest}.jsonl"


def run_specs(
    specs: list[RunSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    journal: RunJournal | None = None,
    progress=None,
) -> RunReport:
    """Resolve every spec through cache, journal, then the worker pool.

    *progress*, when given, is called as ``progress(outcome, done, total)``
    for every resolved spec (cache and journal hits included).

    Transient IO failures on the durable stores are tolerated and
    counted rather than fatal: a failed cache put leaves the result in
    the journal (``cache_put_errors``), a failed journal append leaves
    it in the cache (``journal_errors``) — losing *both* on the same
    record would take two independent failures.
    """
    started = time.perf_counter()
    report = RunReport()
    # Jitter only — never on any result-producing path.
    rng = random.Random(0xC4A05)

    ordered: list[RunSpec] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.spec_hash() not in seen:
            seen.add(spec.spec_hash())
            ordered.append(spec)

    total = len(ordered)

    def emit(outcome: RunOutcome) -> None:
        report.outcomes[outcome.spec.spec_hash()] = outcome
        if not outcome.ok:
            report.failed += 1
        if progress is not None:
            progress(outcome, len(report.outcomes), total)

    def put_tolerant(spec: RunSpec, payload) -> None:
        """Cache put with its own small retry budget for transient IO."""
        for attempt in range(3):
            try:
                cache.put(spec, payload)
                return
            except OSError:
                if attempt == 2:
                    report.cache_put_errors += 1
                else:
                    time.sleep(
                        min(_PUT_BACKOFF_CAP, _PUT_BACKOFF_BASE * (2 ** attempt))
                        * rng.random()
                    )

    def record_tolerant(spec: RunSpec, *args, **kwargs) -> None:
        try:
            journal.record(spec, *args, **kwargs)
        except OSError:
            report.journal_errors += 1

    pending: list[RunSpec] = []
    for spec in ordered:
        spec_hash = spec.spec_hash()
        if cache is not None:
            payload = cache.get(spec)
            if payload is not None:
                report.cache_hits += 1
                if journal is not None and journal.completed(spec_hash) is None:
                    record_tolerant(spec, "done", payload, cached=True)
                emit(RunOutcome(spec, "done", payload=payload, source="cache"))
                continue
        if journal is not None:
            record = journal.completed(spec_hash)
            if record is not None:
                report.journal_hits += 1
                if cache is not None:
                    put_tolerant(spec, record["payload"])
                emit(
                    RunOutcome(
                        spec,
                        "done",
                        payload=record["payload"],
                        duration=record.get("duration", 0.0),
                        source="journal",
                    )
                )
                continue
        pending.append(spec)

    def finalize(outcome: RunOutcome) -> None:
        report.executed += 1
        if journal is not None:
            record_tolerant(
                outcome.spec,
                outcome.status,
                outcome.payload,
                duration=outcome.duration,
                error=outcome.error,
            )
        if cache is not None and outcome.ok:
            put_tolerant(outcome.spec, outcome.payload)
        emit(outcome)

    run_pool(pending, jobs, on_result=finalize)

    if cache is not None:
        cache.flush_stats()
    report.wall_seconds = time.perf_counter() - started
    return report


def orchestrate(
    name: str,
    specs: list[RunSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_root=None,
    progress=None,
) -> RunReport:
    """The common CLI/driver wrapper around :func:`run_specs`.

    Builds the default cache (unless disabled) and a named, resumable
    journal under it, runs the batch, and closes the journal.  With the
    cache disabled there is nowhere durable to journal, so interrupted
    ``--no-cache`` sweeps restart from scratch — by design: ``--no-cache``
    promises pristine re-execution.
    """
    if not use_cache:
        return run_specs(specs, jobs=jobs, progress=progress)
    cache = ResultCache(cache_root, fingerprint=code_fingerprint())
    with RunJournal(sweep_journal_path(cache, name, specs), cache.fingerprint) as journal:
        return run_specs(
            specs, jobs=jobs, cache=cache, journal=journal, progress=progress
        )
