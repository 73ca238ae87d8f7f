"""SPEC CPU2006-inspired workload profiles.

The paper evaluates eight SPEC CPU2006 benchmarks (Figure 5): leslie3d,
libquantum, gcc, lbm, soplex, hmmer, milc and namd.  The binaries and
their 500M-instruction gem5 checkpoints are not reproducible here, so
each benchmark is replaced by a deterministic synthetic profile tuned to
its published memory behaviour — the properties that actually drive the
figures:

* **memory intensity** (instructions per memory reference + footprint →
  LLC MPKI): decides how much any secure-NVM overhead can matter at all;
* **write share of the reference stream** → LLC write-back rate, the
  multiplier on every per-write-back cost;
* **access pattern** (streaming / strided / random / hot-set): decides
  metadata locality — how often counter lines and tree nodes are shared
  between consecutive write-backs, which is exactly what epoch-based
  caching and deferred spreading exploit.

The qualitative bar positions the paper shows (lbm/libquantum/milc
memory-bound and overhead-sensitive; hmmer/namd cache-resident and nearly
overhead-free) are reproduced; per-benchmark absolute IPC is not a target
(see DESIGN.md, "Known fidelity limits").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import Trace
from repro.workloads import synthetic

MB = 1 << 20
KB = 1 << 10


@dataclass(frozen=True)
class SpecProfile:
    """Generator recipe for one benchmark surrogate."""

    name: str
    pattern: str  # 'stream' | 'strided' | 'uniform' | 'hotspot' | 'chase'
    footprint: int
    write_ratio: float
    mem_gap: int
    #: Extra pattern parameters.
    stride: int = 4 * 64
    hot_fraction: float = 0.1
    hot_probability: float = 0.9
    description: str = ""

    def generate(self, length: int, seed: int = 0) -> Trace:
        """Build a *length*-reference trace for this profile."""
        common = dict(
            length=length,
            footprint=self.footprint,
            write_ratio=self.write_ratio,
            mem_gap=self.mem_gap,
            seed=seed,
            name=self.name,
        )
        if self.pattern == "stream":
            return synthetic.sequential_stream(**common)
        if self.pattern == "strided":
            return synthetic.strided(stride=self.stride, **common)
        if self.pattern == "uniform":
            return synthetic.random_uniform(**common)
        if self.pattern == "hotspot":
            return synthetic.hotspot(
                hot_fraction=self.hot_fraction,
                hot_probability=self.hot_probability,
                **common,
            )
        if self.pattern == "chase":
            return synthetic.pointer_chase(**common)
        raise ValueError(f"unknown pattern {self.pattern!r}")


#: The eight profiles of Figure 5, in the paper's x-axis order.
SPEC_PROFILES: dict[str, SpecProfile] = {
    "leslie3d": SpecProfile(
        name="leslie3d",
        pattern="strided",
        footprint=8 * MB,
        write_ratio=0.30,
        mem_gap=14,
        stride=2 * 64,
        description="fluid dynamics: strided sweeps over large grids, "
        "memory-bound with a strong write stream",
    ),
    "libquantum": SpecProfile(
        name="libquantum",
        pattern="stream",
        footprint=16 * MB,
        write_ratio=0.15,
        mem_gap=16,
        description="quantum simulation: pure streaming reads over a "
        "gate vector far larger than any cache",
    ),
    "gcc": SpecProfile(
        name="gcc",
        pattern="hotspot",
        footprint=4 * MB,
        write_ratio=0.30,
        mem_gap=22,
        hot_fraction=0.05,
        hot_probability=0.75,
        description="compiler: pointer-rich IR walking, skewed reuse with "
        "a long cold tail",
    ),
    "lbm": SpecProfile(
        name="lbm",
        pattern="stream",
        footprint=16 * MB,
        write_ratio=0.50,
        mem_gap=12,
        description="lattice Boltzmann: the canonical write-intensive "
        "streaming kernel — the worst case for write amplification",
    ),
    "soplex": SpecProfile(
        name="soplex",
        pattern="strided",
        footprint=2 * MB,
        write_ratio=0.25,
        mem_gap=26,
        stride=8 * 64,
        description="LP solver: sparse-matrix strides over a moderate "
        "working set",
    ),
    "hmmer": SpecProfile(
        name="hmmer",
        pattern="hotspot",
        footprint=512 * KB,
        write_ratio=0.40,
        mem_gap=40,
        hot_fraction=0.25,
        hot_probability=0.95,
        description="profile HMM search: compute-heavy, small hot tables, "
        "low MPKI",
    ),
    "milc": SpecProfile(
        name="milc",
        pattern="uniform",
        footprint=12 * MB,
        write_ratio=0.35,
        mem_gap=15,
        description="lattice QCD: scattered su3-matrix accesses, high "
        "MPKI with poor locality",
    ),
    "namd": SpecProfile(
        name="namd",
        pattern="hotspot",
        footprint=256 * KB,
        write_ratio=0.20,
        mem_gap=50,
        hot_fraction=0.5,
        hot_probability=0.95,
        description="molecular dynamics: cache-resident neighbour lists, "
        "the least memory-bound of the suite",
    ),
}

#: Paper x-axis order for the figures.
SPEC_ORDER = [
    "leslie3d",
    "libquantum",
    "gcc",
    "lbm",
    "soplex",
    "hmmer",
    "milc",
    "namd",
]


def spec_trace(name: str, length: int, seed: int = 0) -> Trace:
    """Generate the surrogate trace for one SPEC benchmark."""
    if name not in SPEC_PROFILES:
        raise ValueError(f"unknown benchmark {name!r}; choose from {SPEC_ORDER}")
    return SPEC_PROFILES[name].generate(length, seed)


def all_spec_traces(length: int, seed: int = 0) -> dict[str, Trace]:
    """Generate every benchmark surrogate at the same length."""
    return {name: spec_trace(name, length, seed) for name in SPEC_ORDER}
