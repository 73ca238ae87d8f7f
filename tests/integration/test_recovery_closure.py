"""Crash during recovery: recovery's own persists as crash points.

Recovery persists through NVM pokes and two TCB register ops, each
durable at once, so every prefix of its recorded stream is a crash
state.  These tests pin:

* that a crash the recorder injects after *p* persists leaves exactly
  the image the recorded prefix of length *p* describes — the model
  the closure is built on;
* slices of the closure, run as a crash-campaign option
  (``CrashCampaignConfig(closure=True)``) on all six designs: one
  re-key state, a hot-set@160 sample and a few ACE k=3 workloads.  The
  full closures run in CI (``repro crash campaign --profiles hotset
  rekey --steps 160 --seed 1 --closure`` and ``repro traffic ace --k 3
  --campaign --seed 1 --closure``);
* that the campaign path closes exactly the full enumeration's states,
  also where the class reducer pins drops, and that its merged shards
  report what :func:`~repro.crashsim.closure.recovery_closure` reports
  over all of them at once;
* the two re-key recovery bugs the closure found: w/o CC laundering a
  written-off block into a wrong plaintext, and a crash between a
  re-encryption's data and HMAC pokes losing the block.
"""

from dataclasses import replace

import pytest

from repro.core.schemes import SCHEMES as SCHEME_CLASSES, create_scheme
from repro.crashsim import (
    CrashCampaignConfig,
    CrashEnumerator,
    PowerFailure,
    RecoveryOracle,
    RecoveryRecorder,
    campaign_specs,
    record_workload,
    run_campaign,
)
from repro.crashsim import closure as closure_mod
from repro.crashsim import explore
from repro.crashsim.closure import prefix_state, recovery_closure
from repro.crashsim.workload import HOTSET, REKEY
from repro.metadata.metacache import IntegrityError
from repro.trafficgen.ace import ace_campaign_config, ace_profiles

SEED = 1
CAPACITY = 1 << 16
SCHEMES = tuple(sorted(SCHEME_CLASSES))

#: Per design, the first run-time crash point of the ``rekey`` trace
#: (window 0) whose recovery re-encrypts the page: the crash landed
#: inside the run-time page re-encryption.
REKEY_POINT = {
    "ccnvm": 154,
    "ccnvm_locate": 154,
    "ccnvm_no_ds": 275,
    "no_cc": 130,
    "osiris_plus": 267,
    "sc": 517,
}
PAGE = 0x2000


def record(scheme: str, profile: str, steps: int):
    return record_workload(
        create_scheme(scheme, data_capacity=CAPACITY, seed=SEED), steps, SEED,
        profile=profile,
    )


def rekey_state(scheme: str):
    k = REKEY_POINT[scheme]
    trace = record(scheme, REKEY, 0)
    return next(CrashEnumerator(trace, window=0).states(points=lambda p: p == k))


def closure_payloads(scheme: str, profile: str, only=None, **fields) -> list[dict]:
    """The shard payloads of a one-cell closure campaign, or of its
    shard *only*; *fields* set the rest of the campaign's config."""
    cfg = CrashCampaignConfig(
        schemes=(scheme,), profiles=(profile,), seed=SEED,
        data_capacity=CAPACITY, closure=True, **fields,
    )
    specs = campaign_specs(cfg)
    if only is not None:
        specs = [specs[only]]
    return [explore.run_enumerate_cell(spec) for spec in specs]


def rewind(scheme, state) -> None:
    scheme.crash()
    scheme.nvm.restore(state.lines)
    scheme.tcb.restore_registers(state.registers)


def is_data_poke(op) -> bool:
    return op.kind == "poke" and op.addr < CAPACITY


class TestRecordedPrefixes:
    def test_live_crash_leaves_the_recorded_prefix(self):
        """Crashing recovery after p persists leaves the image and
        registers the first p recorded ops describe, for every p, on
        every design's re-key recovery."""
        for name in SCHEMES:
            state = rekey_state(name)
            oracle = RecoveryOracle(name, CAPACITY, SEED)
            _, ops = oracle.evaluate_traced(state)
            assert ops[0].mutator == "begin_recovery", name
            assert ops[-1].mutator == "set_roots", name
            assert is_data_poke(ops[1]), name
            scheme = create_scheme(name, data_capacity=CAPACITY, seed=SEED)
            for persists in range(1, len(ops) + 1):
                rewind(scheme, state)
                with RecoveryRecorder(scheme, crash_after=persists):
                    with pytest.raises(PowerFailure):
                        scheme.recover()
                scheme.crash()
                member = prefix_state(state, state, ops, persists)
                assert scheme.nvm.snapshot() == member.lines, (name, persists)
                assert scheme.tcb.registers_snapshot() == member.registers, (
                    name, persists
                )


class TestClosureSlices:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rekey_state_closes_clean(self, scheme):
        """A shard whose one crash point is the re-keying one, window 0:
        its single root is :func:`rekey_state`."""
        (payload,) = closure_payloads(
            scheme, REKEY, window=0, shards=1000, only=REKEY_POINT[scheme]
        )
        closure = payload["closure"]
        assert closure["roots"] == [rekey_state(scheme).image_hash()]
        assert closure["closed"] and not closure["violations"], closure["violations"][:3]
        assert max(closure["members"].values()) == 2
        assert len(closure["members"]) > 100

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hotset_sample_closes_clean(self, scheme):
        (payload,) = closure_payloads(scheme, HOTSET, steps=160, shards=60, only=30)
        closure = payload["closure"]
        assert closure["closed"] and not closure["violations"], closure["violations"][:3]
        assert len(closure["members"]) > len(closure["roots"])

    def test_ace_sample_closes_clean(self):
        cfg = replace(
            ace_campaign_config(3, seed=SEED, closure=True),
            profiles=tuple(ace_profiles(3)[::8]),
        )
        summary, _ = run_campaign(cfg, cache=False)
        totals = summary["totals"]
        assert totals["cells"] == len(SCHEMES) * len(cfg.profiles)
        assert totals["closure_violations"] == 0
        assert totals["closure_unclosed"] == 0
        for row in summary["grid"].values():
            for cell in row.values():
                assert cell["closure"]["members"] > cell["closure"]["roots"]


class TestBudgets:
    def test_walk_stops_past_its_depth(self, monkeypatch):
        """A member deeper than ``MAX_DEPTH`` ends the walk unclosed; the
        re-key state's closure needs depth 2, so a cap of 1 stops it."""
        state = rekey_state("ccnvm")
        oracle = RecoveryOracle("ccnvm", CAPACITY, SEED)
        memo: dict = {}
        full = recovery_closure(oracle, [state], memo)
        assert full.closed and full.depth == 2
        monkeypatch.setattr(closure_mod, "MAX_DEPTH", 1)
        capped = recovery_closure(oracle, [state], memo)
        assert not capped.closed
        assert capped.depth == 1
        assert set(capped.members) < set(full.members)


class TestCampaignPath:
    def test_option_off_leaves_spec_params_unchanged(self):
        """Off, the specs (and so their hashes and cached payloads) are
        the parent's; ``test_campaign_digests`` pins the payloads."""
        cfg = CrashCampaignConfig(profiles=(HOTSET, REKEY))
        off = campaign_specs(cfg)
        on = campaign_specs(replace(cfg, closure=True))
        assert len(off) == len(on)
        for plain, closing in zip(off, on):
            assert "closure" not in plain.params
            assert closing.params == {**plain.params, "closure": True}

    def test_roots_are_the_full_enumeration_where_the_reducer_pins(self):
        """On this fenced w/o CC workload the run-time pass materializes
        fewer images than the enumerator yields; the closure still roots
        every one."""
        profile = "ace-k3-000-100"
        (payload,) = closure_payloads("no_cc", profile, steps=3, shards=1)
        trace = record("no_cc", profile, 3)
        full = {s.image_hash() for s in CrashEnumerator(trace).states()}
        assert len(payload["states"]) < len(full)
        assert payload["closure"]["roots"] == sorted(full)

    def test_rekey_shard_roots_are_its_points_states(self):
        (payload,) = closure_payloads("ccnvm", REKEY, shards=60, only=30)
        trace = record("ccnvm", REKEY, 0)
        states = CrashEnumerator(trace).states(points=lambda k: k % 60 == 30)
        assert payload["closure"]["roots"] == sorted({s.image_hash() for s in states})

    @pytest.mark.parametrize("scheme", ["ccnvm", "sc"])
    def test_merged_shards_match_the_closure_of_the_full_roots(self, scheme):
        """Four shards close their own points' states; merged, the
        campaign's cell is the closure of every enumerated state at
        once, root for root, member for member and depth for depth.

        The shards' closures overlap, and on SC a shard reaches some
        members at depth 2 that the whole closure reaches at depth 1.
        The reference closure keeps its own memo, so none of its
        verdicts or recoveries reaches the campaign's shards.
        """
        steps = 16
        cfg = CrashCampaignConfig(
            schemes=(scheme,), profiles=(HOTSET,), steps=steps, seed=SEED,
            data_capacity=CAPACITY, closure=True,
        )
        summary, report = run_campaign(cfg, cache=False)
        payloads = [o.payload["closure"] for o in report.outcomes.values()]
        direct = recovery_closure(
            RecoveryOracle(scheme, CAPACITY, SEED),
            CrashEnumerator(record(scheme, HOTSET, steps)).states(),
        )
        assert direct.closed and not direct.violations
        members: dict[str, int] = {}
        for payload in payloads:
            for digest, depth in payload["members"].items():
                members[digest] = min(depth, members.get(digest, depth))
        assert sum(len(p["members"]) for p in payloads) > len(members)
        assert set().union(*(p["roots"] for p in payloads)) == direct.roots
        assert members == direct.members
        cell = summary["grid"][scheme][HOTSET]["closure"]
        assert (cell["roots"], cell["members"], cell["depth"]) == (
            len(direct.roots), len(direct.members), direct.depth,
        )
        assert cell["closed"] and not cell["violations"]


class TestRekeyRecoveryBugs:
    def test_written_off_block_stays_unreadable(self):
        """w/o CC writes 0x2000 off; normalizing the page must not
        re-encrypt it under its stale pair into a wrong plaintext."""
        state = rekey_state("no_cc")
        scheme = create_scheme("no_cc", data_capacity=CAPACITY, seed=SEED)
        rewind(scheme, state)
        report = scheme.recover()
        assert PAGE in report.unrecoverable_blocks
        assert report.majors_rolled
        with pytest.raises(IntegrityError):
            scheme.read(10_000_000, PAGE)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_between_reencryption_pokes_recovers(self, scheme):
        """Power fails after the first re-encryption's data poke, before
        its HMAC poke; the resumed recovery must finish the block."""
        state = rekey_state(scheme)
        oracle = RecoveryOracle(scheme, CAPACITY, SEED)
        plain, ops = oracle.evaluate_traced(state)
        assert is_data_poke(ops[1]) and not is_data_poke(ops[2])
        nested = oracle.evaluate(state, schedule=[2])
        assert nested.ok, nested.problems
        # Resuming skips the freshness checks, so SC's and Osiris Plus's
        # false alarm may turn into RECOVERED; no block may be lost.
        assert nested.unrecoverable == plain.unrecoverable
        assert any("resumed" in note for note in nested.notes)
