"""Integration test for the ACE workload enumeration (repro.trafficgen).

The ACE k=3 enumeration runs **exhaustively** through the crash campaign
on all six schemes with zero violations, at a >= 5x canonical-form dedup
over the brute-force space.
"""

from repro.crashsim.explore import run_campaign
from repro.trafficgen.ace import ace_campaign_config, dedup_ratio


class TestAceCampaign:
    def test_k3_exhaustive_on_all_six_schemes_zero_violations(
        self, tmp_path
    ):
        """The standing-campaign gate the CLI (`repro traffic ace
        --campaign`) and CI enforce, at the acceptance bar: every
        canonical 3-write workload on every scheme, exhaustively
        enumerated, zero violations."""
        summary, report = run_campaign(
            ace_campaign_config(3), cache_root=tmp_path / "cache"
        )
        report.raise_on_failure()
        totals = summary["totals"]
        assert summary["failures"] == []
        assert totals["cells"] == 40 * 6  # Bell(3)*2^3 profiles x schemes
        assert totals["violations"] == 0
        assert totals["class_mismatches"] == 0
        assert totals["sampling_fallbacks"] == 0
        assert dedup_ratio(3) >= 5

