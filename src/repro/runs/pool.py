"""Spawn-safe worker pool executing :class:`~repro.runs.spec.RunSpec`s.

Workers receive plain spec dicts (picklable under any start method),
rebuild the experiment from scratch — trace generation, scheme
construction, simulation — and return plain JSON-able payloads.  The
``spawn`` start context is used deliberately: it is the only method that
works everywhere, and it guarantees workers never inherit warmed-up
interpreter state from the parent, which is what makes the determinism
test (serial result == pooled result, byte for byte) meaningful.

Failure isolation is layered:

* an exception inside a spec is caught *in the worker* and comes back as
  a ``failed`` outcome carrying the traceback — the sweep continues;
* a worker process that dies outright (OOM kill, segfault, ``os._exit``)
  is noticed within a poll interval, with or without ``timeout``: every
  chunk announces which worker runs it, and a chunk whose worker is
  gone comes back as retryable ``failed`` outcomes;
* a worker that hangs is bounded by the per-chunk deadline derived from
  ``timeout``; the affected specs come back as ``timeout`` outcomes.

Either way the pool is torn down afterwards rather than joined.

Dispatch is chunked (several specs per task) to amortize process startup
and IPC; ``chunk=1`` gives the finest isolation, larger chunks less
overhead.  With ``jobs <= 1`` everything runs inline in the parent —
same code path through :func:`execute_spec`, no processes at all.

When a chunk of several specs is lost to a hung or dead worker, only one
of them is typically at fault; by default the pool re-dispatches the
whole chunk once at ``chunk=1`` in a fresh pool, so the innocent
chunk-mates complete and only the genuinely hung/crashing spec comes
back as ``timeout``/``failed``.  Results additionally carry an integrity
digest taken in the worker before IPC; a payload that does not match its
digest in the parent is demoted to a retryable ``corrupt`` outcome
rather than silently trusted.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field

from repro.runs.spec import RunSpec

#: Grace seconds added on top of a chunk's nominal deadline.
_TIMEOUT_GRACE = 5.0

#: Seconds between worker liveness checks while waiting on a chunk.
_POLL_SECONDS = 0.5


def payload_digest(payload) -> str:
    """Content digest of a result payload (canonical JSON, sha256)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# what a worker actually runs (module level: picklable under spawn)
# ---------------------------------------------------------------------------


def _execute_simulation(spec: RunSpec):
    from repro.analysis.export import result_to_dict
    from repro.sim.runner import run_simulation
    from repro.workloads.spec import spec_trace

    obs_params = spec.params.get("obs")
    session = None
    if obs_params:
        from repro.obs import DEFAULT_CAPACITY, ObsSession

        session = ObsSession(
            capacity=obs_params.get("capacity", DEFAULT_CAPACITY),
            sample_every=obs_params.get("sample_every", 0),
        )

    descriptor = spec.params.get("workload")
    if descriptor is not None:
        from repro.trafficgen.descriptor import build_trace

        trace = build_trace(descriptor, spec.length, spec.seed)
    else:
        trace = spec_trace(spec.workload, spec.length, spec.seed)
    result = run_simulation(
        spec.scheme,
        trace,
        spec.system_config(),
        data_capacity=spec.params.get("data_capacity"),
        seed=spec.scheme_seed,
        warmup_fraction=spec.warmup,
        obs=session,
    )
    payload = result_to_dict(result)
    if session is not None:
        # Folded worker-side: the event stream is large and per-process,
        # the timeline summary is small and JSON-able — only the latter
        # travels back (and into the cache).  Consumers must pop "obs"
        # before result_from_dict.
        payload["obs"] = {"timeline": session.timeline(result).as_dict()}
        if obs_params.get("sample_every"):
            from repro.obs.export import series_to_json

            payload["obs"]["series"] = series_to_json(
                session.samples(), every=obs_params["sample_every"]
            )
    return payload


def _campaign_config(spec: RunSpec):
    from repro.faults.campaign import CampaignConfig

    return CampaignConfig(
        schemes=(spec.scheme,),
        steps=spec.params["steps"],
        seed=spec.seed,
        data_capacity=spec.params["data_capacity"],
        media=False,
    )


def _execute_injection(spec: RunSpec):
    from repro.faults.campaign import _inject

    result = _inject(
        spec.scheme, spec.params["site"], spec.params["hit"], _campaign_config(spec)
    )
    return result.to_dict()


def _execute_media(spec: RunSpec):
    from repro.faults.campaign import _media_phase

    return [m.to_dict() for m in _media_phase(spec.scheme, _campaign_config(spec))]


def _execute_discover(spec: RunSpec):
    from repro.faults.campaign import _discover

    return _discover(spec.scheme, _campaign_config(spec))


def _execute_crash(spec: RunSpec):
    from repro.crashsim.explore import execute_cell

    return execute_cell(spec)


_EXECUTORS = {
    "simulation": _execute_simulation,
    "injection": _execute_injection,
    "media": _execute_media,
    "discover": _execute_discover,
    "crash": _execute_crash,
}


def execute_spec(spec_dict: dict):
    """Execute one spec dict and return its JSON-able result payload."""
    spec = RunSpec.from_dict(spec_dict)
    return _EXECUTORS[spec.kind](spec)


def _run_chunk(spec_dicts: list[dict]) -> list[dict]:
    """Worker task: run a chunk of specs, isolating per-spec failures."""
    out = []
    for spec_dict in spec_dicts:
        started = time.perf_counter()
        try:
            payload = execute_spec(spec_dict)
            out.append(
                {
                    "status": "done",
                    "payload": payload,
                    "digest": payload_digest(payload),
                    "duration": time.perf_counter() - started,
                }
            )
        except Exception:
            out.append(
                {
                    "status": "failed",
                    "payload": None,
                    "duration": time.perf_counter() - started,
                    "error": traceback.format_exc(),
                }
            )
    return out


#: Worker side of the queue on which each pooled chunk announces
#: ``(chunk index, worker pid)`` as it starts (set by :func:`_init_worker`).
_announce = None


def _init_worker(announce) -> None:
    global _announce
    _announce = announce


def _run_announced_chunk(index: int, spec_dicts: list[dict]) -> list[dict]:
    """Pool task: say which worker runs chunk *index*, then run it."""
    _announce.put((index, os.getpid()))
    return _run_chunk(spec_dicts)


def _lost_raws(count: int, status: str, error: str, duration: float = 0.0):
    """Retryable raw results for a chunk that returned no results."""
    raw = {
        "status": status,
        "payload": None,
        "duration": duration,
        "error": error,
        "retryable": True,
    }
    return [raw] * count


class _ChunkOwners:
    """Which worker process started which chunk (parent side)."""

    def __init__(self, announce) -> None:
        self.announce = announce
        #: chunk index -> pid of the worker that started it.
        self.owner: dict[int, int] = {}
        #: worker pid -> highest chunk index it started.
        self.latest: dict[int, int] = {}

    def drain(self) -> None:
        while not self.announce.empty():
            index, pid = self.announce.get()
            self.owner[index] = pid
            self.latest[pid] = max(index, self.latest.get(pid, index))

    def died_holding(self, index: int) -> bool:
        """Whether chunk *index*'s worker exited before finishing it.

        Workers take chunks in submission order, so a worker that went
        on to start a later chunk has already sent this one's result.
        """
        self.drain()
        pid = self.owner.get(index)
        if pid is None or self.latest[pid] != index:
            return False
        return pid not in {p.pid for p in multiprocessing.active_children()}


def _await_chunk(handle, index: int, deadline, owners: _ChunkOwners):
    """Chunk *index*'s raw results, or ``None`` if its worker died.

    Waits in short polls so a dead worker is noticed with no deadline
    at all (``multiprocessing.Pool`` never completes a task whose worker
    died); raises :class:`multiprocessing.TimeoutError` once *deadline*
    seconds (None = unbounded) pass without a result.
    """
    give_up = None if deadline is None else time.monotonic() + deadline
    while True:
        wait = _POLL_SECONDS
        if give_up is not None:
            wait = max(0.0, min(wait, give_up - time.monotonic()))
        try:
            return handle.get(wait)
        except multiprocessing.TimeoutError:
            if give_up is not None and time.monotonic() >= give_up:
                raise
        if owners.died_holding(index):
            # A result sent just before the exit may still be in flight.
            try:
                return handle.get(_POLL_SECONDS)
            except multiprocessing.TimeoutError:
                return None


# ---------------------------------------------------------------------------
# outcomes and the pool
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """One spec's fate after orchestration."""

    spec: RunSpec
    status: str  # 'done' | 'failed' | 'timeout' | 'corrupt'
    payload: object = None
    error: str = ""
    duration: float = 0.0
    #: Where the payload came from: 'run' | 'cache' | 'journal'.
    source: str = "run"
    #: Whether re-running this spec may succeed: True for infrastructure
    #: failures (worker death, hang, torn IPC), False for errors raised
    #: inside the spec itself (deterministic).
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _raw_outcome(spec: RunSpec, raw: dict) -> RunOutcome:
    """Build one outcome from a worker's raw result dict.

    A ``done`` payload whose content no longer matches the integrity
    digest taken in the worker is demoted to a retryable ``corrupt``
    outcome — torn IPC must never masquerade as a result.
    """
    status = raw["status"]
    payload = raw.get("payload")
    error = raw.get("error", "")
    retryable = bool(raw.get("retryable", False))
    if (
        status == "done"
        and "digest" in raw
        and payload_digest(payload) != raw["digest"]
    ):
        status = "corrupt"
        payload = None
        error = "result payload failed its integrity digest (torn in transit)"
        retryable = True
    return RunOutcome(
        spec,
        status,
        payload=payload,
        error=error,
        duration=raw.get("duration", 0.0),
        retryable=retryable,
    )


@dataclass
class WorkerPool:
    """Chunked, timeout-bounded executor over a spawn process pool."""

    jobs: int = 1
    #: Per-spec wall-clock budget in seconds (None = unbounded).
    timeout: float | None = None
    #: Specs per worker task (None = auto: ~4 tasks per worker).
    chunk: int | None = None
    start_method: str = "spawn"
    #: Grace seconds on top of each chunk's nominal deadline.
    grace: float = _TIMEOUT_GRACE
    #: Re-dispatch a multi-spec chunk lost to a hung or dead worker once
    #: at chunk=1, so one bad spec does not condemn its chunk-mates.
    redispatch: bool = True
    #: Outcomes of the last :meth:`run`, in submission order.
    last_outcomes: list[RunOutcome] = field(default_factory=list)
    #: Specs re-dispatched at chunk=1 after a lost chunk (cumulative).
    redispatched: int = 0

    def run(self, specs: list[RunSpec], on_result=None) -> list[RunOutcome]:
        """Execute every spec; one outcome per spec, in submission order."""
        if not specs:
            self.last_outcomes = []
            return []
        if self.jobs <= 1:
            outcomes = self._run_inline(specs, on_result)
        else:
            outcomes = self._run_pooled(specs, on_result)
        self.last_outcomes = outcomes
        return outcomes

    def _run_inline(self, specs, on_result) -> list[RunOutcome]:
        outcomes = []
        for spec in specs:
            raw = _run_chunk([spec.to_dict()])[0]
            outcome = _raw_outcome(spec, raw)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes

    def _chunk_size(self, total: int) -> int:
        if self.chunk is not None:
            return max(1, self.chunk)
        return max(1, -(-total // (self.jobs * 4)))

    def _run_pooled(self, specs, on_result) -> list[RunOutcome]:
        size = self._chunk_size(len(specs))
        chunks = [specs[i:i + size] for i in range(0, len(specs), size)]
        context = multiprocessing.get_context(self.start_method)
        #: (submission index, outcome); sorted back before returning.
        indexed: list[tuple[int, RunOutcome]] = []
        #: (submission index, spec) of members of a lost multi-spec chunk,
        #: held back for the chunk=1 re-dispatch (not yet reported).
        suspects: list[tuple[int, RunSpec]] = []
        any_lost = False
        owners = _ChunkOwners(context.SimpleQueue())
        pool = context.Pool(
            processes=min(self.jobs, len(chunks)),
            initializer=_init_worker,
            initargs=(owners.announce,),
        )
        try:
            pending = [
                pool.apply_async(
                    _run_announced_chunk, (index, [s.to_dict() for s in chunk])
                )
                for index, chunk in enumerate(chunks)
            ]
            base = 0
            for index, (chunk, handle) in enumerate(zip(chunks, pending)):
                deadline = (
                    None
                    if self.timeout is None
                    else self.timeout * len(chunk) + self.grace
                )
                lost = False
                try:
                    raws = _await_chunk(handle, index, deadline, owners)
                except multiprocessing.TimeoutError:
                    lost = True
                    raws = _lost_raws(
                        len(chunk),
                        "timeout",
                        f"no result within {deadline:.0f}s (worker hung)",
                        deadline,
                    )
                except Exception:
                    # The chunk failed outside the per-spec guard (e.g.
                    # its result could not be pickled back).
                    raws = _lost_raws(len(chunk), "failed", traceback.format_exc())
                if raws is None:
                    lost = True
                    raws = _lost_raws(
                        len(chunk),
                        "failed",
                        "worker process died while running this chunk",
                    )
                owners.drain()
                any_lost = any_lost or lost
                if lost and self.redispatch and len(chunk) > 1:
                    suspects.extend(
                        (base + offset, spec) for offset, spec in enumerate(chunk)
                    )
                    base += len(chunk)
                    continue
                for offset, (spec, raw) in enumerate(zip(chunk, raws)):
                    outcome = _raw_outcome(spec, raw)
                    indexed.append((base + offset, outcome))
                    if on_result is not None:
                        on_result(outcome)
                base += len(chunk)
        finally:
            # A lost chunk stays pending forever, so close() + join()
            # would block on it; terminate instead.
            if any_lost:
                pool.terminate()
            else:
                pool.close()
            pool.join()
            owners.announce.close()
        if suspects:
            # Isolate the offender: one spec per task, so only it fails.
            self.redispatched += len(suspects)
            retry_pool = WorkerPool(
                jobs=min(self.jobs, len(suspects)),
                timeout=self.timeout,
                chunk=1,
                start_method=self.start_method,
                grace=self.grace,
                redispatch=False,
            )
            retried = retry_pool.run([spec for _, spec in suspects])
            for (index, _spec), outcome in zip(suspects, retried):
                indexed.append((index, outcome))
                if on_result is not None:
                    on_result(outcome)
        return [outcome for _, outcome in sorted(indexed, key=lambda p: p[0])]
