"""Supervision tests: :func:`run_pool` and ``run_specs`` survive a worker
that dies, and torn IPC payloads, without losing or duplicating cells.

A dying worker is made real in a forked pool: the module's start method
is patched to ``fork`` and ``execute_spec`` is monkeypatched in the
parent before the pool forks, so the workers inherit the patch.
"""

import os
import threading

import pytest

import repro.runs.pool as pool_mod
from repro.runs.cache import ResultCache
from repro.runs.orchestrate import run_specs
from repro.runs.pool import RunOutcome, _raw_outcome, payload_digest, run_pool
from repro.runs.spec import simulation_spec

LENGTH = 40

#: Wall-clock bound on a pooled run in these tests; a dead worker must be
#: reported long before it.
GUARD_SECONDS = 30.0


def specs(n, length=LENGTH):
    return [simulation_spec("ccnvm", "lbm", length, seed) for seed in range(1, n + 1)]


def fork_with_dying_spec(monkeypatch, bad_seed):
    """Fork the pool's workers; the spec with *bad_seed* kills its worker."""
    real = pool_mod.execute_spec

    def execute(spec_dict):
        if spec_dict["seed"] == bad_seed:
            os._exit(70)
        return real(spec_dict)

    monkeypatch.setattr(pool_mod, "START_METHOD", "fork")
    monkeypatch.setattr(pool_mod, "execute_spec", execute)


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
        # "Retryable": a corrupt outcome is not ok, so it is never cached
        # and a re-run executes the spec again.
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
        assert not outcome.ok
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
        assert outcome.status == "corrupt"


class TestPooled:
    def test_run_specs_supervision_recovers_from_worker_crash(
        self, monkeypatch, tmp_path
    ):
        fork_with_dying_spec(monkeypatch, 3)
        batch = specs(6)
        cache = ResultCache(tmp_path, fingerprint="pool-test")
        report = run_guarded(lambda: run_specs(batch, jobs=2, cache=cache))
        assert report.executed == len(batch)
        assert set(report.outcomes) == {s.spec_hash() for s in batch}
        assert all(isinstance(o, RunOutcome) for o in report.outcomes.values())
        assert report.outcomes[batch[2].spec_hash()].status == "failed"
        assert report.failed == sum(not o.ok for o in report.outcomes.values())

        # A clean re-run executes exactly the specs that failed and takes
        # every completed one from the cache.
        monkeypatch.undo()
        rerun = run_specs(batch, jobs=1, cache=cache)
        assert rerun.executed == report.failed
        assert rerun.cache_hits == len(batch) - report.failed
        assert rerun.failed == 0


class TestWorkerDeath:
    @pytest.mark.parametrize("chunk", [None, 2])
    def test_dead_worker_without_timeout_fails_fast(self, monkeypatch, chunk):
        # No deadline exists: the broken executor itself reports the
        # death, and every spec still without a result fails at once.
        # chunk=None is a small batch, one spec per chunk; chunk=2 is a
        # batch long enough that run_pool cuts it into two-spec chunks,
        # so the dying spec takes its chunkmate down with it.
        jobs = 2
        batch = specs(4 if chunk is None else jobs * 4 * chunk)
        fork_with_dying_spec(monkeypatch, 2)
        seen = []
        outcomes = run_guarded(lambda: run_pool(batch, jobs, on_result=seen.append))
        assert seen == outcomes
        assert [o.spec for o in outcomes] == batch
        assert outcomes[1].status == "failed"
        assert "BrokenProcessPool" in outcomes[1].error
        if chunk is not None:
            assert outcomes[0].status == "failed"
        assert all(o.ok or o.status == "failed" for o in outcomes)


class TestChunking:
    """A memo group (one campaign cell's shards, one Figure-5 row's
    designs, one Figure-6 workload's values x designs) stays on one chunk
    while it fits in half a worker's share; a larger one is cut into
    quarter-share chunks, so every worker gets work."""

    @staticmethod
    def hotset_specs():
        from repro.crashsim.explore import CrashCampaignConfig, campaign_specs

        return campaign_specs(CrashCampaignConfig(profiles=("hotset",)))

    @staticmethod
    def rekey_specs():
        from repro.crashsim.explore import CrashCampaignConfig, campaign_specs

        return campaign_specs(CrashCampaignConfig(profiles=("rekey",)))

    @staticmethod
    def figure5_specs():
        from repro.analysis.experiments import FIGURE5_DESIGNS
        from repro.workloads.spec import SPEC_ORDER

        return [
            simulation_spec(scheme, name, 600, 1)
            for name in SPEC_ORDER
            for scheme in FIGURE5_DESIGNS
        ]

    @staticmethod
    def figure6a_specs():
        """Figure 6(a)'s grid in ``_sensitivity``'s order: the swept N
        never reaches the L1/L2, so a workload's 20 cells share a stream."""
        from repro.analysis.experiments import FIGURE6_SCHEMES, FIGURE6_WORKLOADS
        from repro.common.config import SystemConfig

        return [
            simulation_spec(
                scheme, name, 3000, 1, config=SystemConfig().with_epoch(update_limit=n)
            )
            for name in FIGURE6_WORKLOADS
            for n in (4, 8, 16, 32, 64)
            for scheme in ("no_cc", *FIGURE6_SCHEMES)
        ]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "grid,groups",
        [("hotset_specs", 6), ("rekey_specs", 6), ("figure5_specs", 8), ("figure6a_specs", 3)],
    )
    def test_chunks_keep_groups_that_fit(self, jobs, grid, groups):
        batch = getattr(self, grid)()
        chunks = pool_mod._chunks(batch, jobs)
        assert [spec for chunk in chunks for spec in chunk] == batch
        size = -(-len(batch) // (4 * jobs))  # a quarter of a worker's share
        owners: dict = {}
        for index, chunk in enumerate(chunks):
            for spec in chunk:
                owners.setdefault(pool_mod._memo_key(spec), []).append(index)
        assert len(owners) == groups
        for indices in owners.values():
            if len(indices) <= 2 * size:
                assert len(set(indices)) == 1
            else:
                assert max(indices.count(i) for i in indices) <= size
        assert len(chunks) >= min(jobs, len(batch))

    @pytest.mark.parametrize("jobs,sizes", [
        (2, [8, 8, 4] * 3),
        (3, [5] * 12),
        (4, [4] * 15),
    ])
    def test_figure6_groups_are_split_to_balance(self, jobs, sizes):
        chunks = pool_mod._chunks(self.figure6a_specs(), jobs)
        assert [len(chunk) for chunk in chunks] == sizes
