"""Deterministic synthetic trace generators.

Building blocks for workload construction: streams, strides, uniform
random, hotspot (a cheap Zipf stand-in) and pointer-chasing.  Every
generator takes an explicit seed and produces the same trace for the same
arguments, so benchmark runs are exactly reproducible.

Addresses are line-aligned and confined to ``[base, base + footprint)``;
``icount`` gaps are drawn around ``mem_gap`` (instructions per memory
reference — the compute/memory balance knob that, together with the
footprint, determines how memory-bound a workload is).
"""

from __future__ import annotations

import random

from repro.common.constants import CACHE_LINE_SIZE
from repro.sim.trace import READ, WRITE, Trace, TraceRecord


def _gap(rng: random.Random, mem_gap: int) -> int:
    """Instruction gap around *mem_gap* (±50%, at least 0)."""
    if mem_gap <= 0:
        return 0
    return max(0, int(rng.uniform(0.5, 1.5) * mem_gap))


def _op(rng: random.Random, write_ratio: float) -> str:
    return WRITE if rng.random() < write_ratio else READ


def _check(footprint: int, length: int) -> None:
    if footprint < CACHE_LINE_SIZE:
        raise ValueError("footprint must cover at least one line")
    if length <= 0:
        raise ValueError("trace length must be positive")


def sequential_stream(
    length: int,
    footprint: int,
    write_ratio: float = 0.0,
    mem_gap: int = 4,
    base: int = 0,
    seed: int = 0,
    name: str = "stream",
) -> Trace:
    """Linear sweep through the footprint, wrapping around.

    Models streaming kernels (lbm, libquantum): no temporal reuse beyond
    the wrap, perfect spatial locality.
    """
    _check(footprint, length)
    rng = random.Random(f"stream-{seed}")
    lines = footprint // CACHE_LINE_SIZE
    records = [
        TraceRecord(
            _op(rng, write_ratio),
            base + (i % lines) * CACHE_LINE_SIZE,
            _gap(rng, mem_gap),
        )
        for i in range(length)
    ]
    return Trace(name, records)


def strided(
    length: int,
    footprint: int,
    stride: int = 4 * CACHE_LINE_SIZE,
    write_ratio: float = 0.0,
    mem_gap: int = 4,
    base: int = 0,
    seed: int = 0,
    name: str = "strided",
) -> Trace:
    """Constant-stride sweep (scientific array kernels, leslie3d-like)."""
    _check(footprint, length)
    if stride < CACHE_LINE_SIZE or stride % CACHE_LINE_SIZE:
        raise ValueError("stride must be a positive multiple of the line size")
    rng = random.Random(f"strided-{seed}")
    records = []
    addr = base
    for _ in range(length):
        records.append(TraceRecord(_op(rng, write_ratio), addr, _gap(rng, mem_gap)))
        addr += stride
        if addr >= base + footprint:
            addr = base + (addr - base) % CACHE_LINE_SIZE
    return Trace(name, records)


def random_uniform(
    length: int,
    footprint: int,
    write_ratio: float = 0.0,
    mem_gap: int = 4,
    base: int = 0,
    seed: int = 0,
    name: str = "uniform",
) -> Trace:
    """Uniform random references — worst-case locality (milc-like)."""
    _check(footprint, length)
    rng = random.Random(f"uniform-{seed}")
    lines = footprint // CACHE_LINE_SIZE
    records = [
        TraceRecord(
            _op(rng, write_ratio),
            base + rng.randrange(lines) * CACHE_LINE_SIZE,
            _gap(rng, mem_gap),
        )
        for _ in range(length)
    ]
    return Trace(name, records)


def hotspot(
    length: int,
    footprint: int,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.9,
    write_ratio: float = 0.0,
    mem_gap: int = 4,
    base: int = 0,
    seed: int = 0,
    name: str = "hotspot",
) -> Trace:
    """Skewed references: *hot_probability* of accesses hit the hot set.

    A cheap Zipf surrogate for pointer-rich integer codes (gcc, hmmer):
    strong temporal locality on a small working set plus a cold tail.
    """
    _check(footprint, length)
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")
    rng = random.Random(f"hotspot-{seed}")
    lines = footprint // CACHE_LINE_SIZE
    hot_lines = max(1, int(lines * hot_fraction))
    records = []
    for _ in range(length):
        if rng.random() < hot_probability:
            line = rng.randrange(hot_lines)
        else:
            line = hot_lines + rng.randrange(max(1, lines - hot_lines))
            line = min(line, lines - 1)
        records.append(
            TraceRecord(
                _op(rng, write_ratio),
                base + line * CACHE_LINE_SIZE,
                _gap(rng, mem_gap),
            )
        )
    return Trace(name, records)


def pointer_chase(
    length: int,
    footprint: int,
    write_ratio: float = 0.0,
    mem_gap: int = 8,
    base: int = 0,
    seed: int = 0,
    name: str = "chase",
) -> Trace:
    """Walk a random permutation of the footprint's lines.

    Serialized, cache-hostile dependent loads — the memory-latency-bound
    extreme.
    """
    _check(footprint, length)
    rng = random.Random(f"chase-{seed}")
    lines = list(range(footprint // CACHE_LINE_SIZE))
    rng.shuffle(lines)
    records = []
    position = 0
    for _ in range(length):
        addr = base + lines[position] * CACHE_LINE_SIZE
        records.append(TraceRecord(_op(rng, write_ratio), addr, _gap(rng, mem_gap)))
        position = (position + 1) % len(lines)
    return Trace(name, records)

