"""Unit tests for run specs: canonical hashing and config round trips."""

import pytest

from repro.common.config import SystemConfig
from repro.runs.spec import (
    RunSpec,
    canonical_json,
    config_from_dict,
    config_to_dict,
    simulation_spec,
)


class TestSpecHash:
    def test_identical_specs_hash_identically(self):
        a = simulation_spec("ccnvm", "lbm", 4000, 1)
        b = simulation_spec("ccnvm", "lbm", 4000, 1)
        assert a.spec_hash() == b.spec_hash()

    def test_distinct_seeds_hash_distinctly(self):
        a = simulation_spec("ccnvm", "lbm", 4000, 1)
        b = simulation_spec("ccnvm", "lbm", 4000, 2)
        assert a.spec_hash() != b.spec_hash()

    def test_every_field_feeds_the_hash(self):
        base = simulation_spec("ccnvm", "lbm", 4000, 1)
        variants = [
            simulation_spec("sc", "lbm", 4000, 1),
            simulation_spec("ccnvm", "gcc", 4000, 1),
            simulation_spec("ccnvm", "lbm", 4001, 1),
            simulation_spec("ccnvm", "lbm", 4000, 1, scheme_seed=7),
            simulation_spec("ccnvm", "lbm", 4000, 1, warmup=0.1),
            simulation_spec("ccnvm", "lbm", 4000, 1, data_capacity=1 << 20),
            simulation_spec("ccnvm", "lbm", 4000, 1, config=SystemConfig().with_epoch(update_limit=8)),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_explicit_default_config_hashes_like_none(self):
        # None means "paper defaults", and hashing must not distinguish a
        # spec built from the explicit default object: both run the same
        # system.  (Normalization happens at execution, not hashing —
        # the dict image of the default config *is* distinct content.)
        implicit = simulation_spec("ccnvm", "lbm", 400, 1, config=None)
        explicit = simulation_spec("ccnvm", "lbm", 400, 1, config=SystemConfig())
        assert implicit.spec_hash() != explicit.spec_hash()
        assert implicit.system_config() == explicit.system_config()

    def test_dict_round_trip_preserves_hash(self):
        spec = simulation_spec(
            "osiris_plus", "milc", 2000, 3,
            config=SystemConfig().with_epoch(update_limit=4), warmup=0.25,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_pinned_hashes(self):
        # Computed before the hash was memoized; cache addresses and
        # journal keys depend on these never moving.
        from repro.crashsim import CrashCampaignConfig, campaign_specs

        assert simulation_spec("ccnvm", "lbm", 4000, 1).spec_hash() == (
            "1960d141c16b5503521966a9dd1c6f7002490a8ed103af0f8b2e2fd406e4b6c6"
        )
        campaign = campaign_specs(CrashCampaignConfig(seed=1, profiles=("hotset",)))
        assert campaign[0].spec_hash() == (
            "871a9c1ec8fd9b93fa0bcba53e971331bca8e81a25dbbb1535397d0f18d20668"
        )
        # The same shard as campaign specs wrote it while they still
        # carried the unread "budget" and "reduce" keys.
        legacy = RunSpec(
            kind="crash", scheme="ccnvm", seed=1,
            params=dict(campaign[0].params, budget=1, reduce=True),
        )
        assert legacy.spec_hash() == (
            "4ac5335961a3b5b98c8ecc8fe721d429f3ccf5bf7ba756c7a3a1d7652508fbc9"
        )

    def test_memoized_hash_matches_a_fresh_digest(self):
        import hashlib

        from repro.analysis.experiments import FIGURE5_DESIGNS
        from repro.crashsim import CrashCampaignConfig, campaign_specs
        from repro.workloads.spec import SPEC_ORDER

        fig5 = [
            simulation_spec(scheme, name, 3000, 1)
            for name in SPEC_ORDER
            for scheme in FIGURE5_DESIGNS
        ]
        campaign = campaign_specs(CrashCampaignConfig(seed=1, profiles=("hotset",)))
        assert (len(fig5), len(campaign)) == (40, 24)
        for spec in fig5 + campaign:
            fresh = hashlib.sha256(canonical_json(spec.to_dict()).encode()).hexdigest()
            assert spec.spec_hash() == fresh
            assert RunSpec.from_dict(spec.to_dict()).spec_hash() == fresh

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunSpec(kind="teleport")

    def test_describe_names_the_cell(self):
        label = simulation_spec("ccnvm", "lbm", 4000, 1).describe()
        assert "ccnvm" in label and "lbm@4000#1" in label

    def test_describe_names_the_campaign_profile(self):
        from repro.crashsim import CrashCampaignConfig, campaign_specs

        cfg = CrashCampaignConfig(
            schemes=("ccnvm",), profiles=("hotset", "lbm", "gcc"), shards=2
        )
        labels = [spec.describe() for spec in campaign_specs(cfg)]
        assert len(set(labels)) == len(labels)
        assert "crash/ccnvm/shard0/2" in labels
        assert "crash/ccnvm/lbm/shard0/2" in labels
        assert "crash/ccnvm/gcc/shard1/2" in labels


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        assert config_from_dict(config_to_dict(SystemConfig())) == SystemConfig()

    def test_modified_config_round_trips(self):
        config = SystemConfig().with_epoch(update_limit=4, dirty_queue_entries=40)
        config = config.with_nvm(read_latency_ns=80.0)
        assert config_from_dict(config_to_dict(config)) == config
