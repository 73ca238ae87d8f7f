"""True positives for the trace-seam coherence rule (P7).

A grouped register op outside its combined bracket, and an unbalanced
bracket; ``decl.py`` adds an untraced mutator.
"""


class UnbracketedCounting:
    # P7: the grouped register bump runs at bracket depth zero and its
    # only caller is also unbracketed.
    def writeback(self, addr, data):
        self.wpq.write(addr, data)
        self._bump()
        self.tcb.commit_root()

    def _bump(self):
        self.tcb.count_writeback()


class UnbalancedGroup:
    # P7: the combined group never closes inside the function.
    def writeback(self, addr, data):
        self.wpq.begin_combined()
        self.wpq.write(addr, data)
        self.tcb.commit_root()
