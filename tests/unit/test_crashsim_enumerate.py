"""Unit tests for ADR crash-state enumeration.

What must hold: every prefix of the recorded trace reproduces the live
machine exactly, at the moment its last unit was recorded, on every
design (so no persist escapes the trace); drop-sets never cross a fence
and never break per-address program order, torn batches appear only
when explicitly requested, and a crash point too wide to expand
exhaustively fails loudly instead of sampling.
"""

import pytest

import repro.crashsim.enumerate as enumerate_mod
from repro.core.schemes import SCHEMES, create_scheme
from repro.crashsim import (
    CrashEnumerator,
    PersistTraceRecorder,
    applied_ops,
    build_state,
    record_workload,
)
from repro.crashsim.enumerate import (
    DEFAULT_WINDOW,
    MAX_ACTIVE_CANDIDATES,
    _copy_registers,
    apply_op,
)

from tests.conftest import TINY_CAPACITY

#: The hot set at 400 steps, seed 7: long enough that every design
#: reaches each of its persist sites (drains, stop-loss writes, re-rooting).
SMOKE_STEPS = 400
SMOKE_SEED = 7

#: Every ``(owner, micro-op)`` the six designs persist through at run time.
PERSIST_SITES = {
    ("TCB", "commit_root"),
    ("TCB", "count_writeback"),
    ("TCB", "log_counter_update"),
    ("TCB", "update_root_new"),
    ("WritePendingQueue", "write"),
    ("WritePendingQueue", "write_atomic"),
    ("WritePendingQueue", "write_partial"),
}

#: Register bumps that must share a unit with the data write they
#: describe, or a crash could separate the two.
GROUPED = ("count_writeback", "log_counter_update")


def record_checking_every_unit(name: str, monkeypatch):
    """Record the smoke workload on *name*, comparing the live NVM image
    and TCB registers with the replayed prefix each time a unit is
    recorded.  Returns ``(scheme, trace, first mismatch or None)``."""
    scheme = create_scheme(name, data_capacity=TINY_CAPACITY, seed=SMOKE_SEED)
    emit = PersistTraceRecorder._emit_unit
    replayed: dict = {}
    mismatch: list = []

    def emit_and_compare(recorder, kind, ops):
        emit(recorder, kind, ops)
        if not replayed:
            replayed["lines"] = dict(recorder._trace.initial_lines)
            replayed["registers"] = _copy_registers(recorder._trace.initial_registers)
        for op in ops:
            apply_op(replayed["lines"], replayed["registers"], {}, op, {})
        if mismatch:
            return
        live_lines = scheme.nvm.snapshot()
        live_registers = scheme.tcb.registers_snapshot()
        if replayed["lines"] != live_lines or replayed["registers"] != live_registers:
            lines = sorted(
                addr for addr in set(live_lines) | set(replayed["lines"])
                if live_lines.get(addr) != replayed["lines"].get(addr)
            )
            registers = sorted(
                key for key in live_registers
                if live_registers[key] != replayed["registers"][key]
            )
            mismatch.append(
                f"{name}: after unit {len(recorder._units) - 1} ({kind}), "
                f"lines {[hex(a) for a in lines]} and registers {registers} "
                "changed outside the trace"
            )

    monkeypatch.setattr(PersistTraceRecorder, "_emit_unit", emit_and_compare)
    trace = record_workload(scheme, SMOKE_STEPS, SMOKE_SEED)
    monkeypatch.setattr(PersistTraceRecorder, "_emit_unit", emit)
    return scheme, trace, mismatch[0] if mismatch else None


@pytest.fixture(scope="module")
def recorded():
    scheme = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
    trace = record_workload(scheme, 24, seed=3)
    return scheme, trace


class TestParameters:
    def test_defaults_are_exhaustive(self):
        # A window's droppable units are its candidates, so the default
        # window can never reach the expansion cap.
        assert DEFAULT_WINDOW <= MAX_ACTIVE_CANDIDATES

    def test_invalid_parameters_rejected(self, recorded):
        _, trace = recorded
        with pytest.raises(ValueError):
            CrashEnumerator(trace, window=-1)

    def test_crash_point_over_the_cap_raises(self, recorded, monkeypatch):
        _, trace = recorded
        monkeypatch.setattr(enumerate_mod, "MAX_ACTIVE_CANDIDATES", 1)
        with pytest.raises(RuntimeError, match="expansion cap"):
            list(CrashEnumerator(trace).states())


class TestPrefixStates:
    def test_full_prefix_equals_live_machine(self, monkeypatch):
        """Trace completeness: after every recorded unit, on every design,
        the live image and registers are the replayed prefix, so a
        persist the trace does not see fails at the unit where it lands.
        The smoke workload reaches every persist site, and the per-write-
        back register bumps always share a unit with a data write."""
        sites = set()
        for name in sorted(SCHEMES):
            scheme, trace, mismatch = record_checking_every_unit(name, monkeypatch)
            assert mismatch is None, mismatch
            full = next(
                CrashEnumerator(trace).states(points=lambda k: k == len(trace.units))
            )
            assert full.lines == scheme.nvm.snapshot(), name
            assert full.registers == scheme.tcb.registers_snapshot(), name
            everything = build_state(trace, applied_ops(trace, full))
            assert (everything.lines, everything.registers) == (
                full.lines, full.registers
            ), name
            for unit in trace.units:
                for op in unit.ops:
                    sites.add((op.owner, op.mutator if op.kind == "tcb" else op.kind))
                    if op.mutator in GROUPED:
                        assert unit.kind == "group" and any(
                            other.kind == "write" for other in unit.ops
                        ), f"{name}: {op.mutator} outside its write's group (unit {unit.index})"
        assert sites == PERSIST_SITES

    def test_empty_prefix_is_the_initial_image(self, recorded):
        _, trace = recorded
        first = next(CrashEnumerator(trace).states(points=lambda k: k == 0))
        assert first.lines == trace.initial_lines
        assert first.registers == trace.initial_registers
        assert first.expected == {}

    def test_window_zero_yields_prefixes_only(self, recorded):
        _, trace = recorded
        states = list(CrashEnumerator(trace, window=0).states())
        assert len(states) == len(trace.units) + 1
        assert all(not s.dropped and s.torn is None for s in states)


class TestDropSets:
    def test_drops_respect_fences_and_droppability(self, recorded):
        _, trace = recorded
        for state in CrashEnumerator(trace).states():
            for i in state.dropped:
                unit = trace.units[i]
                assert unit.droppable
                # No fence may sit between a dropped unit and the crash.
                assert not any(
                    trace.units[j].is_fence for j in range(i + 1, state.k)
                )
                assert state.k - i <= DEFAULT_WINDOW

    def test_drops_preserve_per_address_order(self, recorded):
        """A surviving write implies every earlier same-line write survived."""
        _, trace = recorded
        for state in CrashEnumerator(trace).states():
            for i in state.dropped:
                for j in range(i + 1, state.k):
                    if j in state.dropped:
                        continue
                    assert not (trace.units[j].addrs & trace.units[i].addrs), (
                        f"{state.describe()}: kept unit {j} overwrites "
                        f"dropped unit {i}"
                    )

    def test_states_match_flat_op_replay(self, recorded):
        """Incremental expansion == applying the flat op list from scratch."""
        _, trace = recorded
        enumerator = CrashEnumerator(trace, torn_batches=True)
        for state in enumerator.states(points=lambda k: k % 7 == 0):
            rebuilt = build_state(trace, applied_ops(trace, state))
            assert rebuilt.lines == state.lines, state.describe()
            assert rebuilt.registers == state.registers, state.describe()
            assert rebuilt.expected == state.expected, state.describe()


class TestTornBatches:
    def test_torn_states_only_on_request(self, recorded):
        _, trace = recorded
        assert all(s.torn is None for s in CrashEnumerator(trace).states())
        torn = [
            s for s in CrashEnumerator(trace, torn_batches=True).states()
            if s.torn is not None
        ]
        assert torn
        for state in torn:
            batch = trace.units[state.k - 1]
            assert batch.kind == "batch"
            assert 1 <= state.torn < len(batch.ops)


class TestIdentity:
    def test_image_hash_separates_distinct_states(self, recorded):
        _, trace = recorded
        states = list(CrashEnumerator(trace).states())
        by_hash: dict[str, object] = {}
        for state in states:
            prior = by_hash.setdefault(state.image_hash(), state)
            assert prior.lines == state.lines
            assert prior.registers == state.registers
        assert 1 < len(by_hash) <= len(states)
