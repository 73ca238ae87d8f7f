"""Integration tests for the systematic crash-state explorer.

The acceptance surface of the subsystem, driven through the crash
campaign: the smoke-budget hot-set cell clears 200+ distinct states
with zero cc-NVM violations; a deliberately protocol-violating variant
(torn batches) is caught *and* minimized to a handful of ops; and the
committed minimized reproducer keeps failing.  Determinism across
serial, pooled and warm-cache runs is pinned by
``test_crash_campaign.py``; the campaign's ``closure`` option, which
crashes recovery itself, by ``test_recovery_closure.py``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.export import reproducer_from_json
from repro.crashsim import CrashCampaignConfig, replay, run_campaign

FIXTURE = Path(__file__).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"

SMOKE = CrashCampaignConfig(schemes=("ccnvm",), profiles=("hotset",))


class TestSmokeExploration:
    def test_acceptance_floor(self, tmp_path):
        summary, _ = run_campaign(SMOKE, cache_root=tmp_path)
        cell = summary["grid"]["ccnvm"]["hotset"]
        assert cell["distinct_states"] >= 200
        assert cell["violations"] == []
        assert summary["totals"]["violations"] == 0
        assert set(cell["outcomes"]) == {"RECOVERED"}


class TestTornBatchDetection:
    """The oracle must catch (and minimize) a deliberate ordering bug."""

    @pytest.fixture(scope="class")
    def torn(self, tmp_path_factory):
        cfg = CrashCampaignConfig(
            schemes=("ccnvm",), profiles=("hotset",), steps=48, torn_batches=True
        )
        summary, _ = run_campaign(
            cfg, cache_root=tmp_path_factory.mktemp("torn-cache")
        )
        return summary

    def test_violations_found_and_minimized(self, torn):
        cell = torn["grid"]["ccnvm"]["hotset"]
        assert cell["violations"], "torn batches must violate the contract"
        minimized = [v for v in cell["violations"] if "reproducer" in v]
        assert minimized
        for violation in minimized:
            assert violation["torn"] is not None
            assert len(violation["reproducer"]["ops"]) <= 10

    def test_minimized_reproducer_replays(self, torn):
        cell = torn["grid"]["ccnvm"]["hotset"]
        violation = next(v for v in cell["violations"] if "reproducer" in v)
        artifact = reproducer_from_json(
            json.dumps(violation["reproducer"])
        )
        expected = {p.split(":", 1)[0] for p in artifact.problems}
        verdict = replay(artifact)
        assert expected <= set(verdict.signature())


class TestCommittedFixture:
    """Regression: the committed minimized reproducer must keep failing
    (it encodes a state ADR cannot produce — a partially-applied batch —
    so a future change making it *pass* means the oracle went blind)."""

    def test_fixture_replays_to_the_recorded_failure(self):
        artifact = reproducer_from_json(FIXTURE.read_text())
        assert artifact.scheme == "ccnvm"
        assert len(artifact.ops) <= 10
        verdict = replay(artifact)
        expected = {p.split(":", 1)[0] for p in artifact.problems}
        assert expected <= set(verdict.signature())
        assert verdict.outcome == "FAILED"

    def test_fixture_round_trips_byte_for_byte(self):
        """The artifact format (an empty prefix-length schedule here) is
        unchanged: reading and re-writing the fixture reproduces it."""
        from repro.analysis.export import reproducer_to_json

        text = FIXTURE.read_text()
        assert reproducer_to_json(reproducer_from_json(text)) == text
