"""Named-site fault injection, cross-checked against crash-state enumeration.

The core is instrumented with named crash sites (``faults/plan.py``).
For every design, this module arms a :class:`FaultInjector` at the
first, middle and last visit of each site outside recovery that the
hot-set workload (160 steps, seed 1) reaches.  It crashes the machine
there and requires three things:

* the post-crash NVM image and TCB registers equal a state that
  ``CrashEnumerator(window=4, budget=16)`` yields from the unarmed
  trace — crashsim's enumeration reaches every named-site crash;
* :class:`RecoveryOracle` on that state finds no problem, and its
  outcome equals :func:`classify` of the injected machine's own
  recovery;
* the outcomes form each design's differential contract: cc-NVM
  always ``RECOVERED``; SC and Osiris Plus ``FALSE_ALARM`` exactly at
  ``writeback.after_data`` (data intact, replay reported); w/o CC
  ``DEGRADED`` at the last visit, once per-block staleness passed N.

The three ``recovery.*`` sites are crashed as crashsim's nested cells:
a second power failure inside recovery, then a resumed recovery.
"""

from collections import Counter

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim.enumerate import CrashEnumerator, CrashState
from repro.crashsim.explore import run_nested_cell
from repro.crashsim.oracle import ALLOWED_OUTCOMES, RecoveryOracle, classify
from repro.crashsim.workload import hot_addrs, record_workload
from repro.faults.injector import FaultInjector
from repro.faults.plan import RECOVERY_SITES, SITES, PowerFailure, sites_for_scheme

SEED = 1
CAPACITY = 1 << 16
STEPS = 160
SCHEMES = tuple(sorted(ALLOWED_OUTCOMES))


def _state_hash(lines, registers) -> str:
    """:meth:`CrashState.image_hash` of an NVM image and register file."""
    return CrashState(0, (), None, lines, registers, {}).image_hash()


def expected_outcome(scheme: str, site: str, visit: str) -> str:
    if scheme in ("sc", "osiris_plus") and site == "writeback.after_data":
        return "FALSE_ALARM"
    if scheme == "no_cc" and visit == "last":
        return "DEGRADED"
    return "RECOVERED"


def crash_at(scheme_name: str, site: str, hit: int):
    """Run the workload with a crash armed at *site*'s *hit*-th visit."""
    scheme = create_scheme(scheme_name, data_capacity=CAPACITY, seed=SEED)
    injector = FaultInjector()
    injector.attach(scheme)
    injector.arm(site, hit)
    fired = False
    try:
        record_workload(scheme, STEPS, SEED)
    except PowerFailure:
        fired = True
    scheme.crash()
    return scheme, fired


@pytest.fixture(scope="module")
def sweep():
    """One record per (scheme, site, visit), plus each scheme's state set."""
    records = []
    state_sets = {}
    for name in SCHEMES:
        scheme = create_scheme(name, data_capacity=CAPACITY, seed=SEED)
        counter = FaultInjector()
        counter.attach(scheme)
        trace = record_workload(scheme, STEPS, SEED)
        states = {
            state.image_hash(): state
            for state in CrashEnumerator(
                trace, window=4, budget=16, seed=SEED
            ).states()
        }
        state_sets[name] = states
        oracle = RecoveryOracle(name, CAPACITY, SEED)
        for site in sites_for_scheme(name):
            if site in RECOVERY_SITES:
                continue
            visits = counter.hits[site]
            for visit, hit in (
                ("first", 1), ("middle", max(1, visits // 2)), ("last", visits)
            ):
                crashed, fired = crash_at(name, site, hit)
                lines = crashed.nvm.snapshot()
                registers = crashed.tcb.registers_snapshot()
                state = states.get(_state_hash(lines, registers))
                records.append(
                    {
                        "scheme": name,
                        "site": site,
                        "visit": visit,
                        "fired": fired,
                        "lines": lines,
                        "registers": registers,
                        "injected": classify(crashed.recover()),
                        "verdict": None if state is None else oracle.evaluate(state),
                    }
                )
    return records, state_sets


class TestSmokeCampaign:
    def test_every_crash_image_is_an_enumerated_state(self, sweep):
        records, _ = sweep
        # 2 (w/o CC) + 6 (SC) + 3 (Osiris Plus) + 3 x 12 (cc-NVM) sites.
        assert len(records) == 3 * 47
        missing = [
            (r["scheme"], r["site"], r["visit"])
            for r in records
            if r["verdict"] is None
        ]
        assert missing == []

    def test_every_outcome_matches_its_contract(self, sweep):
        records, _ = sweep
        for r in records:
            verdict = r["verdict"]
            where = (r["scheme"], r["site"], r["visit"])
            assert verdict.problems == [], where
            assert verdict.outcome == r["injected"], where
            assert r["injected"] == expected_outcome(*where), where

    def test_sweeps_enough_distinct_sites(self, sweep):
        records, _ = sweep
        assert all(r["fired"] for r in records)
        named = {s.name for s in SITES} - RECOVERY_SITES
        assert {r["site"] for r in records} == named

    def test_ccnvm_recovers_everywhere(self, sweep):
        records, _ = sweep
        for name in ("ccnvm", "ccnvm_no_ds", "ccnvm_locate"):
            mine = [r for r in records if r["scheme"] == name]
            assert len({r["site"] for r in mine}) == 12
            assert {r["injected"] for r in mine} == {"RECOVERED"}

    def test_retries_stay_bounded(self, sweep):
        records, _ = sweep
        limit = 16  # the default update-times limit N
        for r in records:
            assert r["verdict"].total_retries <= limit * len(hot_addrs())

    def test_sc_false_alarms_only_in_the_replay_window(self, sweep):
        records, _ = sweep
        for name in ("sc", "osiris_plus"):
            alarms = Counter(
                r["site"]
                for r in records
                if r["scheme"] == name and r["injected"] == "FALSE_ALARM"
            )
            assert alarms == {"writeback.after_data": 3}

    def test_perturbed_image_matches_no_state(self, sweep):
        records, state_sets = sweep
        for name in SCHEMES:
            last = [r for r in records if r["scheme"] == name][-1]
            lines = dict(last["lines"])
            addr = hot_addrs()[0]
            flipped = bytearray(lines[addr])
            flipped[0] ^= 1
            lines[addr] = bytes(flipped)
            assert _state_hash(last["lines"], last["registers"]) in state_sets[name]
            assert _state_hash(lines, last["registers"]) not in state_sets[name]

    def test_double_crash_runs_are_marked(self):
        for name in SCHEMES:
            for site in sorted(RECOVERY_SITES):
                for depth in (1, 2):
                    label = f"{name}/{site}/depth{depth}"
                    payload = run_nested_cell(name, site, depth, STEPS, SEED, CAPACITY)
                    verdict = payload["verdict"]
                    scheduled = [s for s, _ in payload["schedule"]]
                    assert len(scheduled) == depth, label
                    assert verdict["problems"] == [], label
                    assert verdict["fired_sites"] == scheduled, label
                    assert verdict["outcome"] in ALLOWED_OUTCOMES[name]
                    assert any("resumed" in note for note in verdict["notes"])
