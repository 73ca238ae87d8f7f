"""Property-based end-to-end tests: SecureMemory against a plain dict.

The strongest invariant the system offers: through arbitrary interleavings
of stores, loads, persists, flushes, crashes and recoveries, persisted
data always reads back exactly, and unpersisted data is only ever lost at
a crash — never corrupted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SecureMemory
from repro.metadata.merkle import MerkleTree
from tests.conftest import small_config


CAPACITY = 1 << 18  # 256 KB: 64 pages, fast whole-image recovery


@st.composite
def workloads(draw):
    """A program: a list of (op, args) steps."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("store"),
                    st.integers(min_value=0, max_value=CAPACITY - 65),
                    st.binary(min_size=1, max_size=80),
                ),
                st.tuples(
                    st.just("load"),
                    st.integers(min_value=0, max_value=CAPACITY - 65),
                    st.integers(min_value=1, max_value=64),
                ),
                st.tuples(st.just("flush")),
                st.tuples(st.just("crash_recover")),
            ),
            max_size=30,
        )
    )
    return steps


@given(workloads(), st.sampled_from(["ccnvm", "ccnvm_no_ds", "sc", "osiris_plus"]))
@settings(max_examples=120, deadline=None)
def test_memory_behaves_like_a_dict_with_crash_semantics(steps, scheme):
    mem = SecureMemory(scheme, small_config(update_limit=8), CAPACITY, seed=1)
    shadow = bytearray(CAPACITY)  # what memory should hold
    durable = bytearray(CAPACITY)  # what a crash may roll back to

    for step in steps:
        if step[0] == "store":
            _, addr, data = step
            data = data[: CAPACITY - addr]
            mem.store(addr, data)
            shadow[addr:addr + len(data)] = data
        elif step[0] == "load":
            _, addr, size = step
            assert mem.load(addr, size) == bytes(shadow[addr:addr + size])
        elif step[0] == "flush":
            mem.flush()
            durable[:] = shadow
        else:  # crash_recover
            mem.crash()
            report = mem.recover()
            assert report.success, report
            assert report.clean
            # Cached-but-unpersisted stores may be lost: the surviving
            # state is whatever actually reached NVM — between `durable`
            # (last flush) and `shadow` (everything).  Re-sync the model
            # from the machine, but verify no third value ever appears.
            for line_start in range(0, CAPACITY, 64):
                actual = mem.load(line_start, 64)
                expected_new = bytes(shadow[line_start:line_start + 64])
                expected_old = bytes(durable[line_start:line_start + 64])
                assert actual in (expected_new, expected_old), (
                    f"line {line_start:#x} is neither the durable nor the "
                    "newest value: corruption"
                )
                shadow[line_start:line_start + 64] = actual
            durable[:] = shadow

    # Final sanity: a full flush makes everything durable and consistent.
    mem.flush()
    for line_start in range(0, CAPACITY, 64):
        assert mem.load(line_start, 64) == bytes(shadow[line_start:line_start + 64])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY // 4096 - 1),
            st.integers(min_value=0, max_value=63),
            st.binary(min_size=64, max_size=64),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_tree_invariant_and_recovery_after_arbitrary_writeback_streams(writes):
    """Direct scheme-level variant: any write-back stream, then crash."""
    from repro.core.schemes import create_scheme

    scheme = create_scheme("ccnvm", small_config(update_limit=8), CAPACITY, seed=2)
    t = 0
    expected = {}
    for page, block, data in writes:
        addr = page * 4096 + block * 64
        scheme.writeback(t, addr, data)
        expected[addr] = data
        t += 400
    scheme.crash()
    report = scheme.recover()
    assert report.success
    # Post-recovery the stored tree matches both roots.
    tree = MerkleTree(scheme.nvm, scheme.hmac, scheme.genesis)
    assert tree.verify_consistent(scheme.tcb.root_old)
    assert tree.verify_consistent(scheme.tcb.root_new)
    # Every written-back block survives (write-backs are durable).
    for addr, data in expected.items():
        assert scheme.read(t, addr)[0] == data
        t += 400
