"""Unit tests for the recovery-invariant oracle."""

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim import (
    CrashEnumerator,
    RecoveryOracle,
    record_workload,
)
from repro.crashsim.workload import payload

from tests.conftest import TINY_CAPACITY

SEED = 3


@pytest.fixture(scope="module")
def trace():
    scheme = create_scheme("ccnvm", data_capacity=TINY_CAPACITY, seed=SEED)
    return record_workload(scheme, 24, seed=SEED)


@pytest.fixture(scope="module")
def oracle():
    return RecoveryOracle("ccnvm", data_capacity=TINY_CAPACITY, seed=SEED)


def state_at(trace, k):
    return next(CrashEnumerator(trace).states(points=lambda p: p == k))


class TestContractTable:
    def test_every_scheme_has_a_contract(self):
        from repro.core.schemes import SCHEME_LABELS, SCHEMES

        assert set(SCHEMES) == set(SCHEME_LABELS)
        for cls in SCHEMES.values():
            assert "RECOVERED" in cls.crash_outcomes
            assert cls.recovery_policy.freshness_check in ("nwb", "root_new", None)
        for scheme in ("ccnvm", "ccnvm_no_ds", "ccnvm_locate"):
            assert SCHEMES[scheme].crash_outcomes == {"RECOVERED"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            RecoveryOracle("magic", data_capacity=TINY_CAPACITY, seed=0)


class TestVerdicts:
    def test_clean_state_passes(self, trace, oracle):
        verdict = oracle.evaluate(state_at(trace, len(trace.units)))
        assert verdict.ok
        assert verdict.outcome == "RECOVERED"
        assert verdict.signature() == frozenset()

    def test_oracle_instance_is_reusable(self, trace, oracle):
        """One scheme instance, rewound per state — order must not matter."""
        first = oracle.evaluate(state_at(trace, 5))
        macs = oracle.scheme.hmac.data_hmac_count
        again = oracle.evaluate(state_at(trace, 5))
        assert first.to_dict() == again.to_dict()
        # A real second recovery: verdicts are memoized only in ClassOracle.
        assert oracle.scheme.hmac.data_hmac_count > macs

    def test_wrong_expected_contents_flagged(self, trace, oracle):
        state = state_at(trace, len(trace.units))
        addr = sorted(state.expected)[0]
        state.expected[addr] = payload(SEED, 999_999)
        verdict = oracle.evaluate(state)
        assert not verdict.ok
        assert "data" in verdict.signature()
        assert verdict.outcome == "FAILED"

    def test_tampered_tree_flagged(self, trace, oracle):
        """Flipping a durable line the roots cover must not pass."""
        state = state_at(trace, len(trace.units))
        addr = sorted(state.expected)[0]
        line = bytearray(state.lines[addr])
        line[0] ^= 0xFF
        state.lines[addr] = bytes(line)
        verdict = oracle.evaluate(state)
        assert not verdict.ok


class TestNestedSchedules:
    """Schedules list how many recovery persists land before each crash."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_single_nested_crash_fires_and_recovers(self, trace, oracle, where):
        state = state_at(trace, len(trace.units))
        _, ops = oracle.evaluate_traced(state)
        persists = {"first": 1, "middle": len(ops) // 2, "last": len(ops)}[where]
        verdict = oracle.evaluate(state, schedule=[persists])
        assert verdict.ok, verdict.problems
        assert verdict.outcome == "RECOVERED"

    def test_depth_two_schedule_fires_in_sequence(self, trace, oracle):
        state = state_at(trace, len(trace.units))
        _, ops = oracle.evaluate_traced(state)
        verdict = oracle.evaluate(state, schedule=[len(ops) // 2, 1])
        assert verdict.ok, verdict.problems
        assert any("resumed" in note for note in verdict.notes)

    def test_crash_past_the_last_persist_is_reported(self, trace, oracle):
        state = state_at(trace, len(trace.units))
        _, ops = oracle.evaluate_traced(state)
        verdict = oracle.evaluate(state, schedule=[1, len(ops) + 5])
        assert verdict.outcome == "FAILED"
        assert verdict.signature() == {"nested"}

    def test_traced_and_plain_verdicts_agree(self, trace, oracle):
        state = state_at(trace, len(trace.units) // 2)
        verdict, ops = oracle.evaluate_traced(state)
        assert verdict.to_dict() == oracle.evaluate(state).to_dict()
        assert [op.mutator for op in ops if op.kind == "tcb"] == [
            "begin_recovery", "set_root_new", "set_roots",
        ]
        assert all(op.kind == "poke" for op in ops[1:-2])


class TestRecoveryMemo:
    def test_repeat_evaluations_count_every_hmac(self, trace):
        """Memo hits still count: each evaluation of one state raises the
        HMAC counters exactly as much as a fresh oracle's first one."""
        from repro.crypto.hmac_engine import RECOVERY_MEMO_ENTRIES

        state = state_at(trace, len(trace.units) // 2)

        def deltas(oracle):
            engine = oracle.scheme.hmac
            before = (engine.data_hmac_count, engine.counter_hmac_count)
            verdict = oracle.evaluate(state)
            assert len(engine.recovery_memo) <= RECOVERY_MEMO_ENTRIES
            return (
                engine.data_hmac_count - before[0],
                engine.counter_hmac_count - before[1],
                verdict.to_dict(),
            )

        fresh = deltas(RecoveryOracle("ccnvm", data_capacity=TINY_CAPACITY, seed=SEED))
        reused = RecoveryOracle("ccnvm", data_capacity=TINY_CAPACITY, seed=SEED)
        assert deltas(reused) == fresh
        assert reused.scheme.hmac.recovery_memo  # the second run can hit
        assert deltas(reused) == fresh
        assert fresh[0] > 0 and fresh[1] > 0
