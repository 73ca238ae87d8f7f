"""Unit tests for trace records and serialization."""

import pytest

from repro.sim.trace import READ, WRITE, Trace, TraceRecord


class TestTraceRecord:
    def test_valid_record(self):
        r = TraceRecord(READ, 0x1000, 5)
        assert r.op == "R"
        assert r.addr == 0x1000
        assert r.icount == 5

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            TraceRecord("X", 0, 0)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            TraceRecord(READ, -1, 0)

    def test_rejects_negative_icount(self):
        with pytest.raises(ValueError):
            TraceRecord(WRITE, 0, -1)


class TestTrace:
    def make(self):
        return Trace(
            "t",
            [
                TraceRecord(READ, 0, 10),
                TraceRecord(WRITE, 64, 5),
                TraceRecord(READ, 0, 0),
                TraceRecord(WRITE, 4096, 2),
            ],
        )

    def test_len_and_iteration(self):
        trace = self.make()
        assert len(trace) == 4
        assert [r.op for r in trace] == ["R", "W", "R", "W"]
        assert trace[1].addr == 64

    def test_instructions_counts_memory_ops(self):
        # icount sum (17) + one instruction per memory reference (4).
        assert self.make().instructions == 21

    def test_write_fraction(self):
        assert self.make().write_fraction == 0.5

    def test_write_fraction_empty(self):
        assert Trace("e", []).write_fraction == 0.0

    def test_footprint_in_lines(self):
        assert self.make().footprint() == 3  # lines 0, 64 and 4096


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = Trace(
            "roundtrip",
            [TraceRecord(READ, 0x40, 3), TraceRecord(WRITE, 0x1000, 0)],
        )
        path = str(tmp_path / "trace.txt")
        trace.dump(path)
        loaded = Trace.load(path)
        assert loaded.name == "roundtrip"
        assert loaded.records == trace.records

    def test_load_with_explicit_name(self, tmp_path):
        path = str(tmp_path / "t.txt")
        Trace("orig", [TraceRecord(READ, 0, 0)]).dump(path)
        assert Trace.load(path, name="renamed").name == "renamed"

    def test_load_skips_blank_and_comment_lines(self, tmp_path):
        path = str(tmp_path / "t.txt")
        with open(path, "w") as f:
            f.write("# a comment\n\nR 0x40 3\n\nW 0x80 1\n")
        loaded = Trace.load(path)
        assert len(loaded) == 2
        assert loaded[0].addr == 0x40
