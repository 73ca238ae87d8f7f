"""The process pool that executes run specs (:class:`~repro.runs.spec.RunSpec`).

:func:`run_pool` is the whole pool.  With ``jobs <= 1`` every spec runs
inline in the parent, through the same :func:`execute_spec`, with no
processes at all.  Otherwise the specs are cut into auto-sized chunks
(about four per worker, so consecutive specs such as one cell's campaign
shards share a worker and its per-process trace reuse) and handed to a
:class:`concurrent.futures.ProcessPoolExecutor`.  Workers receive plain
spec dicts, rebuild the experiment from scratch and return plain
JSON-able payloads.  The ``spawn`` start method is deliberate: workers
never inherit warmed-up interpreter state from the parent, which is what
makes the determinism test (serial result == pooled result, byte for
byte) meaningful.

Failure handling:

* an exception inside a spec is caught *in the worker* and comes back as
  a ``failed`` outcome carrying the traceback; the sweep continues;
* a worker process that dies outright (OOM kill, segfault, ``os._exit``)
  breaks the executor, and every spec still without a result comes back
  ``failed`` at once;
* each payload carries an integrity digest taken in the worker before
  IPC; one that no longer matches in the parent is demoted to a
  ``corrupt`` outcome rather than silently trusted.

A spec that hangs is not bounded: it blocks a pooled sweep just as it
blocks ``jobs=1``.  Outcomes are reported in submission order.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass

from repro.runs.spec import RunSpec

#: Start method of pooled workers (see the module docstring).
START_METHOD = "spawn"


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

    result = run_simulation(
        spec.scheme,
        spec_trace(spec.workload, spec.length, spec.seed),
        spec.system_config(),
        data_capacity=spec.params.get("data_capacity"),
        seed=spec.scheme_seed,
        warmup_fraction=spec.warmup,
    )
    return result_to_dict(result)


def _execute_crash(spec: RunSpec):
    from repro.crashsim.explore import execute_cell

    return execute_cell(spec)


_EXECUTORS = {
    "simulation": _execute_simulation,
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


# ---------------------------------------------------------------------------
# outcomes and the pool (parent side)
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """One spec's fate after orchestration."""

    spec: RunSpec
    status: str  # 'done' | 'failed' | 'corrupt'
    payload: object = None
    error: str = ""
    duration: float = 0.0
    #: Where the payload came from: 'run' | 'cache' | 'journal'.
    source: str = "run"

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _raw_outcome(spec: RunSpec, raw: dict) -> RunOutcome:
    """Build one outcome from a worker's raw result dict.

    A ``done`` payload whose content no longer matches the integrity
    digest taken in the worker is demoted to a ``corrupt`` outcome —
    torn IPC must never masquerade as a result.  Like ``failed`` it is
    never cached, so a re-run executes the spec again.
    """
    status = raw["status"]
    payload = raw.get("payload")
    error = raw.get("error", "")
    if (
        status == "done"
        and "digest" in raw
        and payload_digest(payload) != raw["digest"]
    ):
        status = "corrupt"
        payload = None
        error = "result payload failed its integrity digest (torn in transit)"
    return RunOutcome(
        spec,
        status,
        payload=payload,
        error=error,
        duration=raw.get("duration", 0.0),
    )


def run_pool(specs: list[RunSpec], jobs: int = 1, on_result=None) -> list[RunOutcome]:
    """Execute every spec; one outcome per spec, in submission order.

    *on_result*, when given, is called with each outcome as it is
    collected, also in submission order.
    """
    outcomes: list[RunOutcome] = []

    def collect(chunk: list[RunSpec], raws: list[dict]) -> None:
        for spec, raw in zip(chunk, raws):
            outcome = _raw_outcome(spec, raw)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)

    if jobs <= 1:
        for spec in specs:
            collect([spec], _run_chunk([spec.to_dict()]))
        return outcomes
    size = max(1, -(-len(specs) // (jobs * 4)))
    chunks = [specs[i:i + size] for i in range(0, len(specs), size)]
    if not chunks:
        return outcomes
    # Imported here: it costs about 1.5 MB of RSS that --jobs 1 never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)),
        mp_context=multiprocessing.get_context(START_METHOD),
    ) as executor:
        futures = [
            executor.submit(_run_chunk, [spec.to_dict() for spec in chunk])
            for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            try:
                raws = future.result()
            except Exception:
                # The chunk raised outside the per-spec guard: its worker
                # died (BrokenProcessPool, which every unfinished chunk
                # then raises at once) or its results could not be sent.
                error = traceback.format_exc()
                raws = [{"status": "failed", "payload": None, "error": error}] * len(chunk)
            collect(chunk, raws)
    return outcomes
