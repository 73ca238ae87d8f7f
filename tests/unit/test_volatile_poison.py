"""The volatile poison: lost state cannot be read before recovery completes.

``crash()`` clears every attribute a ``volatile=`` declaration names, on
the scheme and on the components it holds, and replaces it with a
:class:`~repro.common.persistence.LostState`.  What must hold, on every
design:

* any read of a poisoned attribute between ``crash()`` and a completed
  ``recover()`` raises, and so does the runtime read and write path;
* recovery itself completes under the poison (it reads only the NVM
  image and the persistent TCB registers), and afterwards the same
  component objects are back, cleared, and the machine runs again;
* a power failure during recovery leaves the poison in place.
"""

import operator

import pytest

from repro.common.persistence import (
    LostState,
    VolatileStateLost,
    is_declared,
    volatile_attrs,
)
from repro.core.schemes import SCHEMES, create_scheme
from repro.crashsim import PowerFailure, RecoveryRecorder

from tests.conftest import TINY_CAPACITY, payload

DESIGNS = sorted(SCHEMES)
ADDRS = (0x2000, 0x2040, 0x3000)


def busy(name: str):
    """A scheme with dirty metadata, in-flight epoch state and a
    read-back history, about to lose power."""
    scheme = create_scheme(name, data_capacity=TINY_CAPACITY, seed=4)
    for i in range(12):
        scheme.writeback(i * 1000, ADDRS[i % len(ADDRS)], payload(i))
    return scheme


def declared_volatile(scheme) -> list[tuple[object, str]]:
    """``(owner, name)`` for every volatile attribute the poison covers."""
    owners = [scheme] + [
        value for value in vars(scheme).values()
        if is_declared(type(value)) and not isinstance(value, LostState)
    ]
    return [
        (owner, name)
        for owner in owners
        for name in sorted(volatile_attrs(type(owner)))
    ]


class TestLostState:
    @pytest.mark.parametrize(
        "use",
        [
            lambda x: x.anything,
            len,
            iter,
            bool,
            lambda x: x + 1,
            lambda x: 1 + x,
            lambda x: x < 0,
            lambda x: x == 0,
            lambda x: 3 in x,
            lambda x: x[0],
            hash,
            operator.index,
        ],
        ids=["attr", "len", "iter", "bool", "add", "radd", "lt", "eq",
             "contains", "getitem", "hash", "index"],
    )
    def test_every_read_raises(self, use):
        with pytest.raises(VolatileStateLost, match="Thing.field"):
            use(LostState("Thing.field"))

    def test_repr_names_the_attribute(self):
        assert "Thing.field" in repr(LostState("Thing.field"))


@pytest.mark.parametrize("name", DESIGNS)
class TestPoisonPerDesign:
    def test_covers_the_meta_cache_queue_and_wpq_batch(self, name):
        names = {
            f"{type(owner).__name__}.{attr}"
            for owner, attr in declared_volatile(busy(name))
        }
        assert {"MetadataStore.overlay", "MetadataStore.cache",
                "WritePendingQueue._batch"} <= names
        assert ("DirtyAddressQueue._queue" in names) == name.startswith("ccnvm")

    def test_read_between_crash_and_recover_raises(self, name):
        scheme = busy(name)
        covered = declared_volatile(scheme)
        scheme.crash()
        for owner, attr in covered:
            lost = vars(owner)[attr]
            assert isinstance(lost, LostState), (type(owner).__name__, attr)
            with pytest.raises(VolatileStateLost):
                bool(lost)
        with pytest.raises(VolatileStateLost):
            scheme.meta.overlay
        with pytest.raises(VolatileStateLost):
            scheme.writeback(10**6, ADDRS[0], payload(99))
        with pytest.raises(VolatileStateLost):
            scheme.read(10**6, ADDRS[0])

    def test_recovery_completes_and_hands_back_the_cleared_objects(self, name):
        scheme = busy(name)
        before = {
            (id(owner), attr): vars(owner)[attr]
            for owner, attr in declared_volatile(scheme)
            if not isinstance(vars(owner)[attr], (int, bool))
        }
        scheme.crash()
        report = scheme.recover()
        # w/o CC's recovery after a real crash is best effort.
        assert report.success or name == "no_cc", report.notes
        for owner, attr in declared_volatile(scheme):
            value = vars(owner)[attr]
            assert not isinstance(value, LostState)
            if (id(owner), attr) in before:
                assert value is before[id(owner), attr], attr
        assert scheme.meta.overlay == {}
        assert scheme.meta.dirty_addresses() == []
        assert not scheme.wpq.in_atomic_batch
        if name.startswith("ccnvm"):
            assert len(scheme.queue) == 0

    def test_runtime_path_works_after_recover(self, name):
        scheme = busy(name)
        scheme.flush()
        scheme.crash()
        assert scheme.recover().success
        for i, addr in enumerate(ADDRS):
            assert scheme.read(10**7, addr)[0] == payload(9 + i)
        t = 2 * 10**7
        last = {}
        for i in range(40):
            addr = ADDRS[i % len(ADDRS)]
            scheme.writeback(t, addr, payload(100 + i))
            last[addr] = payload(100 + i)
            t += 1000
        for addr, want in last.items():
            assert scheme.read(t, addr)[0] == want
        scheme.flush()
        scheme.crash()
        assert scheme.recover().success
        for addr, want in last.items():
            assert scheme.read(t + 10**6, addr)[0] == want

    def test_power_failure_during_recovery_keeps_the_poison(self, name):
        scheme = busy(name)
        scheme.crash()
        with RecoveryRecorder(scheme, crash_after=1):
            with pytest.raises(PowerFailure):
                scheme.recover()
        with pytest.raises(VolatileStateLost):
            scheme.meta.overlay
        scheme.crash()  # the interrupted run's power failure: nothing more to lose
        with pytest.raises(VolatileStateLost):
            scheme.busy_until + 0
        assert scheme.recover().success or name == "no_cc"
        assert scheme.meta.overlay == {}
        scheme.writeback(10**7, ADDRS[0], payload(500))
        assert scheme.read(10**7 + 10**6, ADDRS[0])[0] == payload(500)
