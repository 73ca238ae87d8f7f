"""Integration tests for the run-orchestration subsystem.

The determinism contract is the load-bearing one: a spec executed
serially in-process and a spec executed by a spawn worker must produce
byte-identical serialized results, or the cache would make figures
depend on *how* they were computed.
"""

import pytest

from repro.runs import (
    ResultCache,
    RunJournal,
    canonical_json,
    run_specs,
    simulation_spec,
)

FP = "f" * 16

SPECS = [
    simulation_spec(scheme, "hmmer", 300, 2)
    for scheme in ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm")
]


class TestDeterminism:
    @pytest.mark.slow
    def test_serial_and_pooled_results_are_byte_identical(self):
        serial = run_specs(SPECS, jobs=1)
        pooled = run_specs(SPECS, jobs=2)
        assert pooled.executed == len(SPECS)
        for spec in SPECS:
            assert canonical_json(serial.payload(spec)) == canonical_json(
                pooled.payload(spec)
            ), f"pooled result diverged for {spec.describe()}"

    def test_distinct_seeds_give_distinct_hashes_and_results(self):
        a = simulation_spec("ccnvm", "milc", 300, 1)
        b = simulation_spec("ccnvm", "milc", 300, 2)
        assert a.spec_hash() != b.spec_hash()
        report = run_specs([a, b])
        assert canonical_json(report.payload(a)) != canonical_json(report.payload(b))


class TestCacheIntegration:
    def test_second_pass_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint=FP)
        cold = run_specs(SPECS, cache=cache)
        assert (cold.executed, cold.cache_hits) == (len(SPECS), 0)
        warm = run_specs(SPECS, cache=cache)
        assert (warm.executed, warm.cache_hits) == (0, len(SPECS))
        for spec in SPECS:
            assert canonical_json(cold.payload(spec)) == canonical_json(
                warm.payload(spec)
            )

    def test_duplicate_submissions_cost_one_execution(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint=FP)
        report = run_specs([SPECS[0], SPECS[0], SPECS[0]], cache=cache)
        assert report.executed == 1
        assert len(report.outcomes) == 1


class TestJournalResume:
    def test_interrupted_sweep_resumes_without_cache(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        # "interrupt": only the first two specs completed before the crash
        with RunJournal(path, FP) as journal:
            first = run_specs(SPECS[:2], journal=journal)
        assert first.executed == 2
        with RunJournal(path, FP) as journal:
            resumed = run_specs(SPECS, journal=journal)
        assert resumed.journal_hits == 2
        assert resumed.executed == len(SPECS) - 2

    def test_journal_backfills_the_cache(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, FP) as journal:
            run_specs(SPECS[:1], journal=journal)
        cache = ResultCache(tmp_path, fingerprint=FP)
        with RunJournal(path, FP) as journal:
            report = run_specs(SPECS[:1], cache=cache, journal=journal)
        assert report.journal_hits == 1
        assert cache.get(SPECS[0]) is not None


class TestFailureIsolation:
    def test_one_bad_spec_fails_one_spec(self):
        bad = simulation_spec("ccnvm", "no_such_benchmark", 300, 1)
        report = run_specs([SPECS[0], bad, SPECS[1]], jobs=2)
        assert report.failed == 1
        outcome = report.outcomes[bad.spec_hash()]
        assert outcome.status == "failed"
        assert "no_such_benchmark" in outcome.error
        assert report.outcomes[SPECS[0].spec_hash()].ok
        assert report.outcomes[SPECS[1].spec_hash()].ok
        with pytest.raises(RuntimeError, match="1 of 3 runs failed"):
            report.raise_on_failure()

    def test_failures_are_not_cached_or_resumed(self, tmp_path):
        bad = simulation_spec("ccnvm", "no_such_benchmark", 300, 1)
        cache = ResultCache(tmp_path, fingerprint=FP)
        with RunJournal(tmp_path / "j.jsonl", FP) as journal:
            run_specs([bad], cache=cache, journal=journal)
        assert cache.get(bad) is None
        with RunJournal(tmp_path / "j.jsonl", FP) as journal:
            report = run_specs([bad], cache=cache, journal=journal)
        assert report.executed == 1  # re-attempted, not replayed
