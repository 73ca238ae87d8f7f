"""Unit tests for the ACE-style bounded workload enumeration.

The load-bearing claim: :func:`enumerate_ace` hits every equivalence
class of the brute-force (address assignment, fence mask) space exactly
once — verified here by canonicalizing the *entire* raw space for every
k <= 3 and comparing against the closed form Bell(k) * 2^k.
"""

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim.workload import record_workload
from repro.trafficgen.ace import (
    ACE_BASE,
    MAX_K,
    AceWorkload,
    ace_campaign_config,
    ace_profiles,
    bell,
    canonical_count,
    canonical_pattern,
    dedup_ratio,
    enumerate_ace,
    enumeration_stats,
    growth_strings,
    is_ace_profile,
    parse_profile,
    raw_count,
    raw_workloads,
)

from tests.conftest import TINY_CAPACITY

#: B(1)..B(5) — the textbook Bell numbers.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


class TestEnumeration:
    @pytest.mark.parametrize("k", sorted(BELL))
    def test_bell_numbers(self, k):
        assert bell(k) == BELL[k]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_growth_strings_are_canonical_and_complete(self, k):
        strings = growth_strings(k)
        assert len(strings) == bell(k)
        assert len(set(strings)) == len(strings)
        assert strings == sorted(strings)
        for s in strings:
            # Each string is its own canonical form (RGS fixpoint).
            assert canonical_pattern(int(c) for c in s) == s

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dedup_hits_every_class_exactly_once(self, k):
        """Brute force without dedup vs the deduped enumeration.

        Canonicalizing all k^k * 2^k raw workloads must yield exactly
        the enumerated set, each class exactly once, and the count must
        match the closed form Bell(k) * 2^k.
        """
        raw = list(raw_workloads(k))
        assert len(raw) == raw_count(k) == k**k * 2**k

        classes = {
            (canonical_pattern(assignment), fences)
            for assignment, fences in raw
        }
        enumerated = [(w.pattern, w.fences) for w in enumerate_ace(k)]
        # No duplicates in the enumeration; exact coverage of the classes.
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == classes
        assert len(enumerated) == canonical_count(k) == bell(k) * 2**k

    def test_dedup_ratio_at_k3_clears_the_gate(self):
        # 216 raw / 40 canonical = 5.4x — the acceptance floor is 5x.
        assert raw_count(3) == 216
        assert canonical_count(3) == 40
        assert dedup_ratio(3) == pytest.approx(5.4)
        assert dedup_ratio(3) >= 5

    def test_enumeration_order_is_deterministic(self):
        assert enumerate_ace(2) == enumerate_ace(2)
        assert [w.profile() for w in enumerate_ace(1)] == [
            "ace-k1-0-0",
            "ace-k1-0-1",
        ]

    def test_k_bounds_rejected(self):
        for bad in (0, -1, MAX_K + 1):
            with pytest.raises(ValueError, match="ace k must be"):
                enumerate_ace(bad)

    def test_enumeration_stats_shape(self):
        stats = enumeration_stats(3)
        assert stats == {
            "k": 3,
            "raw_workloads": 216,
            "canonical_workloads": 40,
            "overlap_classes": 5,
            "fence_placements": 8,
            "dedup_ratio": 5.4,
        }


class TestCanonicalPattern:
    def test_relabeling_collapses(self):
        # Any relabeling of the same overlap structure canonicalizes
        # identically.
        assert canonical_pattern([7, 3, 7]) == "010"
        assert canonical_pattern([0x2000, 0x9000, 0x2000]) == "010"
        assert canonical_pattern("zzz") == "000"

    def test_distinct_structures_stay_distinct(self):
        assert canonical_pattern([1, 2, 3]) == "012"
        assert canonical_pattern([1, 1, 3]) != canonical_pattern([1, 3, 3])


class TestProfileRoundTrip:
    def test_every_k3_workload_round_trips(self):
        for workload in enumerate_ace(3):
            assert parse_profile(workload.profile()) == workload

    def test_is_ace_profile(self):
        assert is_ace_profile("ace-k2-01-10")
        assert not is_ace_profile("hotset")
        assert not is_ace_profile("lbm")
        assert not is_ace_profile(None)

    @pytest.mark.parametrize(
        "bad",
        [
            "ace-k3-000",  # missing fence part
            "ace-kX-000-000",  # non-numeric k
            "ace-k9-000000000-000000000",  # k beyond MAX_K
            "ace-k3-00-000",  # pattern too short
            "ace-k3-021-000",  # not a restricted growth string
            "ace-k3-110-000",  # does not start at 0
            "ace-k3-000-002",  # non-binary fence mask
            "ace-k3-000-0000",  # fence mask wrong length
        ],
    )
    def test_malformed_profiles_rejected(self, bad):
        with pytest.raises(
            ValueError, match="malformed ace profile|ace k must be"
        ):
            parse_profile(bad)

    def test_addrs_follow_the_pattern(self):
        workload = AceWorkload(3, "010", "001")
        assert workload.addrs() == [ACE_BASE, ACE_BASE + 64, ACE_BASE]
        assert workload.lines() == 2


class TestCrashsimWiring:
    def test_recorded_trace_covers_the_pattern_and_ignores_steps(self):
        scheme_a = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
        scheme_b = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
        profile = "ace-k3-010-000"
        trace_a = record_workload(scheme_a, steps=1, seed=3, profile=profile)
        trace_b = record_workload(scheme_b, steps=99, seed=3, profile=profile)
        # steps is ignored for enumerated workloads: the workload's own
        # length is the whole point.
        assert len(trace_a.units) == len(trace_b.units)
        annotated = {
            op.addr
            for unit in trace_a.units
            for op in unit.ops
            if op.seq in trace_a.annotations
        }
        assert annotated == set(AceWorkload(3, "010", "000").addrs())

    def test_fences_add_persist_work(self):
        unfenced = record_workload(
            create_scheme("ccnvm", data_capacity=TINY_CAPACITY),
            steps=0, seed=3, profile="ace-k3-012-000",
        )
        fenced = record_workload(
            create_scheme("ccnvm", data_capacity=TINY_CAPACITY),
            steps=0, seed=3, profile="ace-k3-012-111",
        )
        # A flush after every write drains metadata that the unfenced
        # variant leaves cached.
        assert len(fenced.units) > len(unfenced.units)


class TestCampaignConfig:
    def test_config_covers_the_full_enumeration(self):
        cfg = ace_campaign_config(2, schemes=("ccnvm", "sc"))
        assert cfg.profiles == tuple(ace_profiles(2))
        assert len(cfg.profiles) == canonical_count(2)
        assert cfg.steps == 2
        assert cfg.window == 4  # max(k, DEFAULT_WINDOW)
        assert cfg.shards == 1
        assert cfg.schemes == ("ccnvm", "sc")

    def test_default_schemes_resolve_to_all_six(self):
        cfg = ace_campaign_config(1)
        assert len(cfg.resolved_schemes()) == 6
