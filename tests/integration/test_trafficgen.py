"""Integration test for the ACE workload enumeration (repro.trafficgen).

The ACE k=3 enumeration runs **exhaustively** through the crash campaign
on all six schemes with zero violations, at a >= 5x canonical-form dedup
over the brute-force space, and its campaign summary does not depend on
the interpreter's hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.crashsim.explore import run_campaign
from repro.trafficgen.ace import ace_campaign_config, dedup_ratio

SRC = Path(__file__).resolve().parents[2] / "src"


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
        assert dedup_ratio(3) >= 5


    def test_summary_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Two processes under different ``PYTHONHASHSEED`` write the same
        k=3 summary bytes.  k=3 is the smallest k whose enumeration
        order a set iteration visibly permutes; k=2's does not."""
        documents = []
        for seed in ("0", "1"):
            out = tmp_path / f"ace-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            subprocess.run(
                [sys.executable, "-m", "repro", "traffic", "ace", "--k", "3",
                 "--campaign", "--schemes", "ccnvm", "--no-cache", "--quiet",
                 "--json", str(out)],
                cwd=tmp_path, env=env, check=True, capture_output=True,
                timeout=120,
            )
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]
