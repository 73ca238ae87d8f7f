"""Unit tests for persist-trace recording.

The recorder's contract: every durable micro-op appears exactly once, in
order, at the right grain — combined groups as one unit, atomic batches
as one all-or-nothing unit, TCB register updates interleaved at their
true position — and the recorded data is the *post-write* full line, so
replay is plain assignment.
"""

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim import PersistOp, PersistTraceRecorder, TraceUnit, record_workload
from repro.crashsim.trace import registers_from_dict, registers_to_dict

from tests.conftest import TINY_CAPACITY


@pytest.fixture
def scheme():
    return create_scheme("ccnvm", data_capacity=TINY_CAPACITY)


def recorded(scheme, steps=24, seed=3):
    return record_workload(scheme, steps, seed)


class TestRecorderWiring:
    def test_attach_twice_rejected(self, scheme):
        recorder = PersistTraceRecorder(scheme)
        recorder.attach()
        with pytest.raises(RuntimeError, match="already attached"):
            recorder.attach()

    def test_detach_without_attach_rejected(self, scheme):
        with pytest.raises(RuntimeError, match="not attached"):
            PersistTraceRecorder(scheme).detach()

    def test_detach_removes_hooks(self, scheme):
        recorder = PersistTraceRecorder(scheme)
        recorder.attach()
        assert scheme.wpq.trace_hook is not None
        assert scheme.tcb.trace_hook is not None
        recorder.detach()
        assert scheme.wpq.trace_hook is None
        assert scheme.tcb.trace_hook is None

    def test_annotate_unknown_addr_rejected(self, scheme):
        recorder = PersistTraceRecorder(scheme)
        recorder.attach()
        with pytest.raises(ValueError, match="no recorded write"):
            recorder.annotate(0x9999, b"x" * 64)


class TestTraceStructure:
    def test_initial_state_snapshotted(self, scheme):
        before_lines = scheme.nvm.snapshot()
        before_regs = scheme.tcb.registers_snapshot()
        trace = recorded(scheme)
        assert trace.initial_lines == before_lines
        assert trace.initial_registers == before_regs

    def test_unit_kinds_and_indices(self, scheme):
        trace = recorded(scheme)
        kinds = {u.kind for u in trace.units}
        # A cc-NVM workload long enough to close epochs produces all three.
        assert kinds == {"group", "tcb", "batch"}
        assert [u.index for u in trace.units] == list(range(len(trace.units)))

    def test_writeback_group_is_one_unit(self, scheme):
        """Data + its HMAC sub-line + the Nwb bump share one fate."""
        trace = recorded(scheme)
        group = next(u for u in trace.units if u.kind == "group")
        kinds = [op.kind for op in group.ops]
        assert "write" in kinds and "write_partial" in kinds
        assert any(op.mutator == "count_writeback" for op in group.ops)

    def test_batches_are_fences_and_not_droppable(self, scheme):
        trace = recorded(scheme)
        for unit in trace.units:
            if unit.kind == "batch":
                assert unit.is_fence and not unit.droppable
            elif unit.kind == "group":
                assert unit.droppable
            else:
                assert not unit.droppable

    def test_epoch_commit_is_a_fence(self, scheme):
        trace = recorded(scheme)
        commits = [
            u for u in trace.units
            if any(op.mutator == "commit_root" for op in u.ops)
        ]
        assert commits, "the workload must close at least one epoch"
        assert all(u.is_fence for u in commits)

    def test_ops_record_post_write_lines(self, scheme):
        """Replaying every op must land exactly on the final device image."""
        trace = recorded(scheme)
        lines = dict(trace.initial_lines)
        for unit in trace.units:
            for op in unit.ops:
                if op.kind != "tcb":
                    lines[op.addr] = op.data
        assert lines == scheme.nvm.snapshot()

    def test_annotations_point_at_data_writes(self, scheme):
        trace = recorded(scheme, steps=12, seed=5)
        assert trace.annotations
        by_seq = {op.seq: op for u in trace.units for op in u.ops}
        from repro.crashsim.workload import payload as wl_payload

        known = {wl_payload(5, step) for step in range(-8, 12)}
        for seq, plaintext in trace.annotations.items():
            assert by_seq[seq].kind == "write"
            assert plaintext in known


class TestSerialization:
    def test_op_and_unit_round_trip(self, scheme):
        trace = recorded(scheme, steps=8)
        for unit in trace.units[:20]:
            clone = TraceUnit.from_dict(unit.to_dict())
            assert clone == unit
            for op in unit.ops:
                assert PersistOp.from_dict(op.to_dict()) == op

    def test_register_snapshot_round_trip(self, scheme):
        snapshot = scheme.tcb.registers_snapshot()
        assert registers_from_dict(registers_to_dict(snapshot)) == snapshot
