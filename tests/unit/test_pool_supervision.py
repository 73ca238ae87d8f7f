"""Supervision tests: the pool and ``run_specs`` survive workers that
die or hang, and torn IPC payloads, without losing or duplicating cells.

Failures are made real in forked workers: ``execute_spec`` is
monkeypatched in the parent before the pool forks, so the workers
inherit the patch.
"""

import functools
import importlib
import os
import threading
import time

import pytest

import repro.runs.pool as pool_mod
from repro.runs.orchestrate import run_specs
from repro.runs.pool import RunOutcome, WorkerPool, _raw_outcome, payload_digest
from repro.runs.spec import simulation_spec

orchestrate_mod = importlib.import_module("repro.runs.orchestrate")

LENGTH = 40

#: Wall-clock bound on a pooled run in these tests; a dead worker must be
#: noticed long before it.
GUARD_SECONDS = 30.0


def specs(n, length=LENGTH):
    return [simulation_spec("ccnvm", "lbm", length, seed) for seed in range(1, n + 1)]


def patch_execute(monkeypatch, bad_seed, action):
    """Make the spec with *bad_seed* run *action* instead of executing."""
    real = pool_mod.execute_spec

    def execute(spec_dict):
        if spec_dict["seed"] == bad_seed:
            action()
        return real(spec_dict)

    monkeypatch.setattr(pool_mod, "execute_spec", execute)


def die():
    os._exit(70)


def run_guarded(call):
    """Run *call* in a thread; fail the test if it outlives the guard."""
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(value=call()), daemon=True
    )
    thread.start()
    thread.join(GUARD_SECONDS)
    assert not thread.is_alive(), f"pooled run still blocked after {GUARD_SECONDS}s"
    assert "value" in result, "pooled run raised"
    return result["value"]


class TestRawOutcome:
    def test_digest_mismatch_demoted_to_retryable_corrupt(self):
        spec = specs(1)[0]
        payload = {"value": 1}
        raw = {
            "status": "done",
            "payload": {"value": 2},  # mutated after the digest was taken
            "digest": payload_digest(payload),
            "duration": 0.1,
        }
        outcome = _raw_outcome(spec, raw)
        assert outcome.status == "corrupt"
        assert outcome.retryable
        assert outcome.payload is None
        assert "integrity digest" in outcome.error

    def test_matching_digest_passes_through(self):
        spec = specs(1)[0]
        payload = {"value": 1}
        raw = {
            "status": "done",
            "payload": payload,
            "digest": payload_digest(payload),
            "duration": 0.1,
        }
        outcome = _raw_outcome(spec, raw)
        assert outcome.ok and outcome.payload == payload


class TestInline:
    def test_result_corrupt_with_no_budget_is_reported(self, monkeypatch):
        # The digest taken in the worker and the one recomputed on
        # receipt disagree, as they would for a payload torn in transit.
        digests = iter(range(100))
        monkeypatch.setattr(
            pool_mod, "payload_digest", lambda payload: str(next(digests))
        )
        report = run_specs(specs(1), jobs=1)
        assert report.failed == 1
        outcome = next(iter(report.outcomes.values()))
        assert outcome.status == "corrupt" and outcome.retryable


class TestPooled:
    def test_chunk_timeout_redispatch_rescues_chunkmates(self, monkeypatch):
        # The second spec of the two-spec chunk hangs; the whole chunk
        # times out, then both specs are re-dispatched at chunk=1, so the
        # innocent chunk-mate completes and only the hung spec times out.
        patch_execute(monkeypatch, 2, lambda: time.sleep(30.0))
        pool = WorkerPool(
            jobs=2, timeout=1.0, chunk=2, grace=1.5, start_method="fork"
        )
        outcomes = run_guarded(lambda: pool.run(specs(2)))
        assert [o.status for o in outcomes] == ["done", "timeout"]
        assert outcomes[1].retryable
        assert pool.redispatched == 2

    def test_run_specs_supervision_recovers_from_worker_crash(
        self, monkeypatch
    ):
        # One three-spec chunk whose middle spec kills its worker, with
        # no timeout set.  The lost chunk is re-dispatched at chunk=1:
        # the chunk-mates complete and only the crashing spec fails.
        patch_execute(monkeypatch, 2, die)
        monkeypatch.setattr(
            orchestrate_mod,
            "WorkerPool",
            functools.partial(WorkerPool, start_method="fork"),
        )
        batch = specs(3)
        report = run_guarded(lambda: run_specs(batch, jobs=2, chunk=3))
        assert report.executed == 3
        assert report.retried == 3
        assert set(report.outcomes) == {s.spec_hash() for s in batch}
        assert all(isinstance(o, RunOutcome) for o in report.outcomes.values())
        statuses = [report.outcomes[s.spec_hash()].status for s in batch]
        assert statuses == ["done", "failed", "done"]
        crashed = report.outcomes[batch[1].spec_hash()]
        assert crashed.retryable and "worker process died" in crashed.error


class TestWorkerDeath:
    @pytest.mark.parametrize("chunk", [None, 2])
    def test_dead_worker_without_timeout_fails_fast(self, monkeypatch, chunk):
        # multiprocessing.Pool never completes a task whose worker died;
        # with no --timeout the pool must still notice, not wait forever.
        patch_execute(monkeypatch, 2, die)
        pool = WorkerPool(jobs=2, chunk=chunk, start_method="fork")
        outcomes = run_guarded(lambda: pool.run(specs(4)))
        assert [o.status for o in outcomes] == ["done", "failed", "done", "done"]
        assert outcomes[1].retryable
