"""w/o CC's graceful flush writes dirty metadata in the reference order.

The reference rule re-sorts the dirty meta-cache lines by tree level
before every write and takes the first: the first line of the lowest
dirty level, in cache iteration order.  The flush must pick exactly that
victim at every step — the order decides which parents are loaded and
evicted on the way, so it shows in NVM traffic and in the final image.
"""

import pytest

from repro.common.config import SystemConfig
from repro.core.schemes import create_scheme
from repro.sim.cpu import TraceCPU
from repro.sim.runner import DEFAULT_SIM_CAPACITY
from repro.sim.system import MemoryHierarchy
from repro.workloads.spec import SPEC_ORDER, spec_trace

LENGTH = 700


def reference_victim(scheme):
    dirty = sorted(
        scheme.meta.cache.dirty_lines(),
        key=lambda line: scheme.layout.node_of_addr(line.addr).level,
    )
    return dirty[0] if dirty else None


@pytest.mark.parametrize("workload", SPEC_ORDER)
def test_no_cc_flush_victims_follow_the_reference_order(workload):
    config = SystemConfig()
    scheme = create_scheme("no_cc", config, DEFAULT_SIM_CAPACITY, seed=1)
    memory = MemoryHierarchy(config, scheme)
    TraceCPU(config, memory).run(spec_trace(workload, LENGTH, seed=1))
    # Write the data caches back first, leaving the scheme's own flush.
    scheme.flush = lambda: None
    memory.flush()
    del scheme.flush

    propagate = scheme._lazy_propagate_and_write
    victims = []
    depth = 0

    def checked(victim):
        nonlocal depth
        if depth == 0:  # the flush's pick, not an eviction it caused
            expected = reference_victim(scheme)
            assert victim is expected, (
                f"victim {len(victims)}: {victim.addr:#x}, reference {expected.addr:#x}"
            )
            victims.append(victim.addr)
        depth += 1
        try:
            propagate(victim)
        finally:
            depth -= 1

    scheme._lazy_propagate_and_write = checked
    scheme.flush()
    assert victims, "nothing was dirty: the test exercised no flush"
    assert reference_victim(scheme) is None
