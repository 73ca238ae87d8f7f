"""Integration tests for the standing exhaustive crash campaign.

The acceptance surface: a scheme x workload grid of reduce-mode cells
completes with exhaustive coverage (every materialized state lands in
a class), a real class-level saving, no violations and no class mismatches; the summary
is byte-identical across serial, pooled and warm-cache runs; and a
failing shard is isolated instead of poisoning the rest of the grid.
"""

import json

import pytest

from repro.analysis.export import campaign_summary_to_json
from repro.crashsim import CrashCampaignConfig, campaign_specs, run_campaign

SMOKE = CrashCampaignConfig(
    schemes=("ccnvm", "sc"),
    profiles=("hotset", "lbm"),
    steps=48,
    shards=2,
)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-cache")
    summary, report = run_campaign(SMOKE, cache_root=root)
    return summary, report, root


class TestCampaignSmoke:
    def test_grid_is_complete(self, smoke):
        summary, _, _ = smoke
        assert sorted(summary["grid"]) == ["ccnvm", "sc"]
        for scheme in summary["grid"]:
            assert sorted(summary["grid"][scheme]) == ["hotset", "lbm"]
        assert summary["failures"] == []
        assert summary["totals"]["cells"] == 4

    def test_exhaustive_coverage_no_fallbacks(self, smoke):
        # Enumeration never samples: a crash point too large to expand
        # raises (test_crashsim_enumerate), so no fallback count is kept.
        summary, _, _ = smoke
        for scheme, row in summary["grid"].items():
            for profile, cell in row.items():
                # Every materialized state was attributed to a class.
                assert cell["states_covered"] >= cell["states_materialized"], (
                    scheme, profile,
                )

    def test_classes_reduce_oracle_work(self, smoke):
        summary, _, _ = smoke
        totals = summary["totals"]
        assert totals["classes"] > 0
        assert totals["oracle_calls"] < totals["covered"]
        assert totals["reduction_ratio"] > 1
        for row in summary["grid"].values():
            for cell in row.values():
                assert cell["classes"] == len(cell["class_table"])
                assert sum(
                    c["weight"] for c in cell["class_table"]
                ) == cell["states_covered"]
                for record in cell["class_table"]:
                    assert set(record) == {
                        "fingerprint", "representative", "k", "outcome",
                        "ok", "witnesses", "weight", "evaluated",
                        "spot_checked",
                    }

    def test_no_violations_no_mismatches(self, smoke):
        summary, _, _ = smoke
        assert summary["totals"]["violations"] == 0
        assert summary["totals"]["class_mismatches"] == 0
        for row in summary["grid"].values():
            for cell in row.values():
                assert cell["violations"] == []
                assert cell["class_mismatches"] == []
                assert all(c["ok"] for c in cell["class_table"])

    def test_warm_rerun_is_fully_cached_and_identical(self, smoke):
        summary, report, root = smoke
        assert report.executed == len(campaign_specs(SMOKE))
        warm_summary, warm_report = run_campaign(SMOKE, cache_root=root)
        assert warm_report.executed == 0
        assert warm_report.cache_hits == len(campaign_specs(SMOKE))
        assert campaign_summary_to_json(warm_summary) == campaign_summary_to_json(
            summary
        )

    @pytest.mark.slow
    def test_serial_and_pooled_summaries_byte_identical(self, smoke, tmp_path):
        summary, _, _ = smoke
        pooled, report = run_campaign(SMOKE, jobs=2, cache_root=tmp_path)
        assert report.executed == len(campaign_specs(SMOKE))
        assert campaign_summary_to_json(pooled) == campaign_summary_to_json(
            summary
        )


class TestShardFailureIsolation:
    def test_failed_shard_reported_healthy_cells_merge(self, tmp_path, monkeypatch):
        """One poisoned shard lands in ``failures``; the other cells of
        the grid still merge their results."""
        import repro.crashsim.explore as explore_mod

        real = explore_mod.run_enumerate_cell

        def poisoned(spec):
            if spec.scheme == "sc" and spec.params["shard"] == 0:
                raise RuntimeError("injected shard failure")
            return real(spec)

        monkeypatch.setattr(explore_mod, "run_enumerate_cell", poisoned)
        cfg = CrashCampaignConfig(
            schemes=("ccnvm", "sc"), profiles=("hotset",), steps=24, shards=2
        )
        summary, _ = run_campaign(cfg, cache_root=tmp_path, cache=False)
        assert len(summary["failures"]) == 1
        failure = summary["failures"][0]
        assert (failure["scheme"], failure["profile"], failure["shard"]) == (
            "sc", "hotset", 0,
        )
        assert "injected shard failure" in failure["error"]
        # ccnvm is untouched; sc still carries its surviving shard.
        assert summary["grid"]["ccnvm"]["hotset"]["states_covered"] > 0
        assert summary["grid"]["sc"]["hotset"]["states_covered"] > 0


class TestDefaults:
    def test_default_grid_spans_every_scheme_and_profile(self):
        from repro.core.schemes import SCHEMES
        from repro.crashsim.workload import workload_profiles

        cfg = CrashCampaignConfig()
        assert cfg.resolved_schemes() == tuple(sorted(SCHEMES))
        assert cfg.resolved_profiles() == tuple(workload_profiles())
        specs = campaign_specs(cfg)
        assert len(specs) == (
            len(cfg.resolved_schemes())
            * len(cfg.resolved_profiles())
            * cfg.shards
        )
        assert not any("torn" in s.params for s in specs)

    @pytest.mark.parametrize(
        "field",
        [{"shards": 0}, {"shards": -1}, {"spot": -1}, {"profiles": ("nosuch",)}],
    )
    def test_rejects_shapes_that_would_cover_nothing(self, field):
        with pytest.raises(ValueError):
            CrashCampaignConfig(**field)


class TestDifferentialContract:
    """At 160 hot-set steps every hot block takes 21 updates, past N = 16.

    So each design's whole contract shows, not only its clean half:
    w/o CC strands blocks once staleness passes N, and SC / Osiris Plus
    false-alarm inside their replay window.  (At the default 96 steps
    each block takes 13 updates and w/o CC only ever recovers.)
    """

    def test_hotset_outcomes_per_design(self):
        cfg = CrashCampaignConfig(profiles=("hotset",), steps=160, seed=1)
        summary, _ = run_campaign(cfg, cache=False)
        assert summary["failures"] == []
        assert summary["totals"]["violations"] == 0
        assert summary["totals"]["class_mismatches"] == 0
        outcomes = {
            scheme: row["hotset"]["outcomes"]
            for scheme, row in summary["grid"].items()
        }
        assert outcomes == {
            "ccnvm": {"RECOVERED": 1201},
            "ccnvm_locate": {"RECOVERED": 1201},
            "ccnvm_no_ds": {"RECOVERED": 1081},
            "no_cc": {"DEGRADED": 290, "RECOVERED": 955},
            "osiris_plus": {"FALSE_ALARM": 712, "RECOVERED": 347},
            "sc": {"FALSE_ALARM": 336, "RECOVERED": 673},
        }


class TestTraceSharing:
    """A worker builds one context per cell: its shards share the trace,
    the reducer and the verdict memo, and must not mutate the trace."""

    CFG = CrashCampaignConfig(
        schemes=("ccnvm",), profiles=("hotset",), steps=24, shards=2
    )

    @staticmethod
    def snapshot(trace):
        return (
            [unit.to_dict() for unit in trace.units],
            trace.op_count,
            dict(trace.initial_lines),
            dict(trace.annotations),
            dict(trace.counters),
            repr(trace.initial_registers),
        )

    def test_shards_share_one_unchanged_trace(self, monkeypatch):
        import repro.crashsim.explore as explore_mod
        import repro.crashsim.oracle as oracle_mod

        shared = []

        class Recording(oracle_mod.ClassOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                shared.append((self.reducer, self.verdicts, self.oracle))

        monkeypatch.setattr(oracle_mod, "ClassOracle", Recording)
        specs = campaign_specs(self.CFG)
        spec = specs[0]
        key = (
            spec.scheme,
            spec.params["steps"],
            spec.seed,
            spec.params["data_capacity"],
            "hotset",
        )
        explore_mod._cell_context.cache_clear()
        cell = explore_mod._cell_context(*key)
        before = self.snapshot(cell.trace)
        sizes = []
        for shard_spec in specs:
            explore_mod.run_enumerate_cell(shard_spec)
            sizes.append(len(cell.verdicts))
        assert explore_mod._cell_context(*key) is cell
        assert self.snapshot(cell.trace) == before
        assert len(shared) == len(specs)
        assert all(
            r is cell.reducer and v is cell.verdicts and o is cell.oracle
            for r, v, o in shared
        )
        # Every shard judged states of its own into the one memo.
        assert 0 < sizes[0] < sizes[1]

    @pytest.mark.parametrize("field", range(5))
    def test_any_key_change_records_a_new_trace(self, field):
        import repro.crashsim.explore as explore_mod

        key = ["ccnvm", 24, 7, 1 << 16, "hotset"]
        cell = explore_mod._cell_context(*key)
        key[field] = ["sc", 16, 8, 1 << 17, "lbm"][field]
        other = explore_mod._cell_context(*key)
        assert other.trace is not cell.trace
        assert other.reducer is not cell.reducer
        assert other.verdicts is not cell.verdicts
        assert other.oracle is not cell.oracle
        assert explore_mod._cell_context(*key) is other


class _NeverHits(dict):
    """A verdict memo that stores every verdict and serves none."""

    def get(self, key, default=None):
        return default


class TestVerdictMemo:
    """The cell's verdict and fingerprint memos change no payload byte,
    and each verdict the memo serves, or the cell's shared recovery
    oracle judges after an earlier shard of the cell used it, is what a
    fresh oracle returns for that state."""

    CFG = CrashCampaignConfig(profiles=("hotset",), steps=24, shards=2)

    @pytest.fixture(scope="class")
    def runs(self):
        import repro.crashsim.explore as explore_mod
        import repro.crashsim.oracle as oracle_mod

        specs = campaign_specs(self.CFG)
        served = []
        #: Verdicts a recovery oracle judged after serving an earlier shard.
        shared = []
        used = []

        class Recording(oracle_mod.ClassOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.reused = any(self.oracle is o for o in used)
                used.append(self.oracle)

            def evaluate_raw(self, state, key=None):
                judged = len(self.verdicts)
                verdict = super().evaluate_raw(state, key)
                if len(self.verdicts) == judged:
                    served.append((self.oracle.scheme_name, state, verdict))
                elif self.reused:
                    shared.append((self.oracle.scheme_name, state, verdict))
                return verdict

        class Unmemoized(oracle_mod.ClassOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.verdicts = _NeverHits()
                self.reducer._fingerprints = None

        payloads = {}
        with pytest.MonkeyPatch.context() as mp:
            for name, oracle_cls in (("memo", Recording), ("none", Unmemoized)):
                mp.setattr(oracle_mod, "ClassOracle", oracle_cls)
                explore_mod._cell_context.cache_clear()
                payloads[name] = [
                    json.dumps(explore_mod.run_enumerate_cell(spec), sort_keys=True)
                    for spec in specs
                ]
        explore_mod._cell_context.cache_clear()
        return payloads, served, shared

    def test_payloads_match_a_run_without_the_memo(self, runs):
        payloads, served, _ = runs
        assert len(payloads["memo"]) == 12
        assert payloads["memo"] == payloads["none"]
        # Not vacuous: every design's cell has repeated states.
        assert {scheme for scheme, _, _ in served} == set(
            self.CFG.resolved_schemes()
        )

    def test_served_verdicts_equal_a_fresh_oracle(self, runs):
        from repro.crashsim import RecoveryOracle

        _, served, shared = runs
        cfg = self.CFG
        # Not vacuous: every design's second shard judged new states on
        # the oracle its first shard used.
        assert {scheme for scheme, _, _ in shared} == set(cfg.resolved_schemes())
        for scheme, state, verdict in served + shared:
            fresh = RecoveryOracle(scheme, cfg.data_capacity, cfg.seed)
            assert fresh.evaluate(state).to_dict() == verdict.to_dict(), (
                scheme,
                state.describe(),
            )
