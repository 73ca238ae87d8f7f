"""Golden digests of the hot-set crash campaign's shard payloads.

The campaign runs ``CrashCampaignConfig(profiles=("hotset",), seed=1)``
on all six schemes, cold, and compares the sha256 of every shard's
payload — class table, outcomes, covered states, violations — with the
committed ``tests/fixtures/campaign_digests.json``.  Each shard builds
many schemes in one process, so a host-side cache shared between schemes
that leaked state from one to the next would change a digest here.

A deliberate change to crash-campaign results regenerates the fixture
with::

    PYTHONPATH=src python -c "from tests.integration.test_campaign_digests \\
        import regenerate_fixture; regenerate_fixture()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.crashsim import CrashCampaignConfig, campaign_specs, run_campaign

FIXTURE = Path(__file__).parent.parent / "fixtures" / "campaign_digests.json"

CONFIG = CrashCampaignConfig(profiles=("hotset",), seed=1)


def shard_digests(cfg: CrashCampaignConfig = CONFIG) -> dict[str, str]:
    """sha256 of each shard's canonical payload, keyed ``scheme/profile/shard``."""
    _, report = run_campaign(cfg, cache=False)
    digests = {}
    for spec in campaign_specs(cfg):
        outcome = report.outcomes[spec.spec_hash()]
        assert outcome.ok, outcome.error
        text = json.dumps(outcome.payload, sort_keys=True, separators=(",", ":"))
        key = f"{spec.scheme}/{spec.params.get('profile', 'hotset')}/{spec.params['shard']}"
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def regenerate_fixture(path: Path = FIXTURE) -> None:
    """Rewrite the fixture from the current code."""
    document = {
        "profiles": list(CONFIG.profiles),
        "seed": CONFIG.seed,
        "shards": shard_digests(),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def test_every_campaign_shard_matches_its_golden_digest():
    fixture = json.loads(FIXTURE.read_text())
    assert (fixture["profiles"], fixture["seed"]) == (list(CONFIG.profiles), CONFIG.seed)
    assert len(fixture["shards"]) == 6 * CONFIG.shards
    actual = shard_digests()
    changed = sorted(shard for shard, digest in fixture["shards"].items()
                     if actual.get(shard) != digest)
    assert not changed, f"crash-campaign results changed in {changed}"
    assert set(actual) == set(fixture["shards"])
