"""True negatives: the corrected twin of every ``ordering_tp`` pattern.

The analyzer must stay silent here.  ``OrderedScheme`` also serves the
cross-check tests as a miniature scheme root whose seams reach a WPQ
store, an atomic-batch write and a register commit.
"""


@persistence(
    volatile=("_dirty",),
    aka=("scheme",),
)
class OrderedScheme:
    def _post_writeback(self, counter_addr, line):
        self.wpq.begin_atomic()
        self.wpq.write_atomic(counter_addr, line)
        self.wpq.commit_atomic()
        return 0

    def _update_tree(self, now, counter_addr):
        self._persist_counter(counter_addr)
        self._commit()
        return 0

    def _persist_counter(self, counter_addr):
        self.wpq.write(counter_addr, b"counter")

    def _commit(self):
        self.tcb.commit_root()


class BracketedCounting:
    # The grouped register bump shares the write's combined bracket —
    # directly and through a helper whose every caller is bracketed.
    def writeback(self, addr, data):
        self.wpq.begin_combined()
        self.wpq.write(addr, data)
        self.tcb.count_writeback()
        self._extras()
        self.wpq.end_combined()
        self.tcb.commit_root()

    def _extras(self):
        self.tcb.count_writeback()
