"""Full-system simulation driver.

:func:`run_simulation` builds a complete machine — scheme, caches, CPU —
runs one trace on it, and condenses everything the benches need into a
:class:`SimulationResult`: IPC, NVM traffic split by region, epoch and
HMAC-computation counts.  The caches are filtered once per trace
(:mod:`repro.sim.stream`): the recorded LLC stream is replayed to the
design, and callers that run one trace on several designs pass the same
stream to each.  :func:`run_design_comparison` repeats a trace across
several designs and adds the baseline-normalized views the paper's
figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import SystemConfig
from repro.core.schemes import SCHEME_LABELS, create_scheme
from repro.sim.cpu import TraceCPU
from repro.sim.stream import LLCStream, ReplayHierarchy, record_stream
from repro.sim.trace import Trace

#: Data capacity used for simulation layouts.  The *address map* still has
#: the paper's 16 GB geometry knobs where they matter (12-level tree) when
#: the full capacity is used; runs default to the full device since the
#: image is sparse.
DEFAULT_SIM_CAPACITY = 16 << 30


@dataclass
class SimulationResult:
    """Everything one (scheme, trace) run produced."""

    scheme: str
    workload: str
    instructions: int
    cycles: int
    ipc: float
    nvm_writes: int
    nvm_reads: int
    writes_by_region: dict[str, int] = field(default_factory=dict)
    #: Data-path write-backs the LLC produced (denominator for traffic).
    llc_writebacks: int = 0
    epochs: int = 0
    drains_by_trigger: dict[str, int] = field(default_factory=dict)
    counter_hmacs: int = 0
    data_hmacs: int = 0
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Paper-style display label of the scheme."""
        return SCHEME_LABELS.get(self.scheme, self.scheme)


def run_simulation(
    scheme_name: str,
    trace: Trace,
    config: SystemConfig | None = None,
    data_capacity: int | None = None,
    seed: int | str = 0,
    warmup_fraction: float = 0.0,
    stream: LLCStream | None = None,
) -> SimulationResult:
    """Run one trace on one design and collect the result.

    *warmup_fraction* replays the leading part of the trace to warm the
    caches and metadata structures, then resets every statistic before
    the measured region — the trace-driven analogue of the paper's
    "fast-forwarding to representative regions".

    *stream* is the trace's :func:`~repro.sim.stream.record_stream`
    under *config*'s L1/L2; it is recorded here when not given.
    """
    config = config or SystemConfig()
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if stream is None:
        stream = record_stream(trace, config)
    scheme = create_scheme(
        scheme_name, config, data_capacity or DEFAULT_SIM_CAPACITY, seed
    )
    memory = ReplayHierarchy(config, scheme, stream)
    cpu = TraceCPU(config, memory)

    records = trace.records
    split = int(len(records) * warmup_fraction)
    if split:
        cpu.run(Trace(f"{trace.name}:warmup", records[:split]))
        scheme.stats.reset()
        memory.stats.reset()
        measured = Trace(trace.name, records[split:])
    else:
        measured = trace

    outcome = cpu.run(measured)
    memory.flush()

    drains: dict[str, int] = {}
    epochs = 0
    queue = getattr(scheme, "queue", None)
    if queue is not None:
        drains = queue.drains_by_trigger()
        epochs = queue.total_drains

    return SimulationResult(
        scheme=scheme_name,
        workload=trace.name,
        instructions=outcome.instructions,
        cycles=outcome.cycles,
        ipc=outcome.ipc,
        nvm_writes=scheme.nvm.total_writes,
        nvm_reads=scheme.nvm.total_reads,
        writes_by_region=scheme.nvm.writes_by_region(),
        llc_writebacks=memory.stats.counter("llc_writebacks").value,
        epochs=epochs,
        drains_by_trigger=drains,
        counter_hmacs=scheme.hmac.counter_hmac_count,
        data_hmacs=scheme.hmac.data_hmac_count,
        stats=scheme.stats.as_dict(),
    )


@dataclass
class DesignComparison:
    """One trace run across several designs, normalized to a baseline."""

    workload: str
    results: dict[str, SimulationResult]
    baseline: str = "no_cc"

    def normalized_ipc(self, scheme: str) -> float:
        """IPC relative to the baseline design (Figure 5(a) units)."""
        return self.results[scheme].ipc / self.results[self.baseline].ipc

    def normalized_writes(self, scheme: str) -> float:
        """NVM write traffic relative to the baseline (Figure 5(b) units)."""
        return (
            self.results[scheme].nvm_writes / self.results[self.baseline].nvm_writes
        )


def run_design_comparison(
    trace: Trace,
    schemes: list[str] | None = None,
    config: SystemConfig | None = None,
    data_capacity: int | None = None,
    seed: int | str = 0,
    baseline: str = "no_cc",
    warmup_fraction: float = 0.0,
) -> DesignComparison:
    """Run *trace* on every design in *schemes* (baseline included)."""
    schemes = schemes or ["no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm"]
    if baseline not in schemes:
        schemes = [baseline] + schemes
    config = config or SystemConfig()
    stream = record_stream(trace, config)
    results = {
        name: run_simulation(
            name, trace, config, data_capacity, seed,
            warmup_fraction=warmup_fraction, stream=stream,
        )
        for name in schemes
    }
    return DesignComparison(workload=trace.name, results=results, baseline=baseline)
