"""Address checks on the per-access paths raise their documented errors.

`NVMDevice`, `MemoryLayout` and `WritePendingQueue` test alignment and
range inline on the paths every modeled access takes, and call their
checking helper only to raise.  Each case pins the exact message, and
that the rejected access left no statistic or queued line behind.
"""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.layout import MemoryLayout

LAYOUT = MemoryLayout(1 << 20)
DATA_END = LAYOUT.data_capacity
DEVICE_END = LAYOUT.total_capacity
LINE = bytes(CACHE_LINE_SIZE)


def nvm_read(nvm, wpq, addr):
    nvm.read_line(addr)


def nvm_write(nvm, wpq, addr):
    nvm.write_line(addr, LINE)


def nvm_write_partial(nvm, wpq, addr):
    nvm.write_partial(addr, 0, bytes(16))


def wpq_write(nvm, wpq, addr):
    wpq.write(addr, LINE)


def wpq_write_partial(nvm, wpq, addr):
    wpq.write_partial(addr, 0, bytes(16))


def wpq_write_atomic(nvm, wpq, addr):
    wpq.begin_atomic()
    wpq.write_atomic(addr, LINE)


def counter_line_addr(nvm, wpq, addr):
    LAYOUT.counter_line_addr(addr)


def data_hmac_location(nvm, wpq, addr):
    LAYOUT.data_hmac_location(addr)


CASES = [
    (nvm_read, 0x41, "NVM access not line-aligned: 0x41"),
    (nvm_read, DEVICE_END + 0x41, f"NVM access not line-aligned: {DEVICE_END + 0x41:#x}"),
    (nvm_read, DEVICE_END, f"NVM address out of range: {DEVICE_END:#x}"),
    (nvm_read, -CACHE_LINE_SIZE, "NVM address out of range: -0x40"),
    (nvm_write, 0x7, "NVM access not line-aligned: 0x7"),
    (nvm_write, DEVICE_END, f"NVM address out of range: {DEVICE_END:#x}"),
    (nvm_write, -CACHE_LINE_SIZE, "NVM address out of range: -0x40"),
    (nvm_write_partial, 0x48, "NVM access not line-aligned: 0x48"),
    (nvm_write_partial, DEVICE_END, f"NVM address out of range: {DEVICE_END:#x}"),
    (wpq_write, 0x41, "WPQ write not line-aligned: 0x41"),
    (wpq_write, DEVICE_END, f"WPQ write out of range: {DEVICE_END:#x}"),
    (wpq_write, -CACHE_LINE_SIZE, "WPQ write out of range: -0x40"),
    (wpq_write_partial, 0x41, "WPQ write not line-aligned: 0x41"),
    (wpq_write_partial, DEVICE_END, f"WPQ write out of range: {DEVICE_END:#x}"),
    (wpq_write_atomic, 0x20, "WPQ write not line-aligned: 0x20"),
    (wpq_write_atomic, DEVICE_END, f"WPQ write out of range: {DEVICE_END:#x}"),
    (wpq_write_atomic, -CACHE_LINE_SIZE, "WPQ write out of range: -0x40"),
    (counter_line_addr, DATA_END, f"address {DATA_END:#x} outside the data region"),
    (counter_line_addr, -1, "address -0x1 outside the data region"),
    (data_hmac_location, DATA_END, f"address {DATA_END:#x} outside the data region"),
    (data_hmac_location, DEVICE_END, f"address {DEVICE_END:#x} outside the data region"),
    (data_hmac_location, -CACHE_LINE_SIZE, "address -0x40 outside the data region"),
]


@pytest.mark.parametrize(
    "access,addr,message", CASES,
    ids=[f"{access.__name__}-{addr:#x}" for access, addr, _ in CASES],
)
def test_rejected_access_raises_its_message_and_changes_nothing(access, addr, message):
    nvm = NVMDevice(LAYOUT)
    wpq = WritePendingQueue(nvm, entries=8)
    with pytest.raises(ValueError) as caught:
        access(nvm, wpq, addr)
    assert str(caught.value) == message
    assert nvm.total_reads == nvm.total_writes == 0
    assert nvm.touched_lines() == []
    assert wpq.stats.counter("normal_writes").value == 0
    assert wpq.batch_size == 0
