"""Trace-domain declarations shared by the true-negative package.

Identical to ``ordering_tp/decl.py`` except every declared mutator
calls the trace hook — the declaration layer itself is clean.
"""


@persistence(
    volatile=("_batch",),
    aka=("wpq",),
    mutators=(
        "write",
        "write_partial",
        "begin_atomic",
        "write_atomic",
        "commit_atomic",
        "begin_combined",
        "end_combined",
    ),
    stores=("write", "write_partial"),
)
class FakeWPQ:
    def write(self, addr, data):
        self._trace("write")

    def write_partial(self, addr, offset, data):
        self._trace("write_partial")

    def begin_atomic(self):
        self._trace("begin_atomic")

    def write_atomic(self, addr, data):
        self._trace("write_atomic")

    def commit_atomic(self):
        self._trace("commit_atomic")

    def begin_combined(self):
        self._trace("begin_combined")

    def end_combined(self):
        self._trace("end_combined")

    def _trace(self, kind):
        pass


@persistence(
    persistent=("root_old", "nwb"),
    aka=("tcb",),
    mutators=("commit_root", "count_writeback"),
    grouped=("count_writeback",),
)
class FakeTCB:
    def commit_root(self):
        self.root_old = b""
        self.nwb = 0
        self._trace("commit_root")

    def count_writeback(self):
        self.nwb = self.nwb + 1
        self._trace("count_writeback")

    def _trace(self, kind):
        pass
