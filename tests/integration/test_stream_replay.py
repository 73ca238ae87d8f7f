"""The recorded LLC stream replayed to each design equals the live hierarchy.

:func:`run_simulation` filters the L1/L2 once per trace and replays the
recorded stream (:mod:`repro.sim.stream`).  The oracle here is the
hierarchy run live under the design, exactly as the simulator ran every
cell before the stream existed: ``MemoryHierarchy(config, scheme)``,
``TraceCPU.run`` and ``flush()``.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import FIGURE5_DESIGNS, figure6a
from repro.analysis.export import result_to_dict
from repro.common.config import SystemConfig
from repro.core.schemes import SCHEMES, create_scheme
from repro.runs import pool
from repro.runs.spec import simulation_spec
from repro.sim.cpu import TraceCPU
from repro.sim.runner import DEFAULT_SIM_CAPACITY, SimulationResult, run_simulation
from repro.sim.stream import ReplayMismatch, record_stream
from repro.sim.system import MemoryHierarchy
from repro.sim.trace import Trace
from repro.workloads.spec import spec_trace
from tests.conftest import small_config


def _live_simulation(
    scheme_name: str, trace: Trace, config: SystemConfig, warmup_fraction: float
) -> SimulationResult:
    """One cell through the live cache hierarchy (the replay's oracle)."""
    scheme = create_scheme(scheme_name, config, DEFAULT_SIM_CAPACITY, 0)
    memory = MemoryHierarchy(config, scheme)
    cpu = TraceCPU(config, memory)
    split = int(len(trace) * warmup_fraction)
    if split:
        cpu.run(Trace(f"{trace.name}:warmup", trace.records[:split]))
        scheme.stats.reset()
        memory.stats.reset()
    outcome = cpu.run(Trace(trace.name, trace.records[split:]))
    memory.flush()
    queue = getattr(scheme, "queue", None)
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
        epochs=queue.total_drains if queue is not None else 0,
        drains_by_trigger=queue.drains_by_trigger() if queue is not None else {},
        counter_hmacs=scheme.hmac.counter_hmac_count,
        data_hmacs=scheme.hmac.data_hmac_count,
        stats=scheme.stats.as_dict(),
    )


def _in_run_writebacks(stream) -> int:
    return sum(not is_read for *_, events in stream.steps for is_read, _, _ in events)


# At 400 references the paper's 256 KB L2 writes back only in the
# shutdown flush; the down-scaled caches also evict during the run, which
# exercises the overlap split and a flush issued at a non-zero busy_until.
@pytest.mark.parametrize(
    "config", [SystemConfig(), small_config()], ids=["paper-caches", "small-caches"]
)
@pytest.mark.parametrize("warmup", [0.0, 0.25])
@pytest.mark.parametrize("workload", ["lbm", "gcc"])
def test_replay_equals_the_live_hierarchy(workload, warmup, config):
    trace = spec_trace(workload, 400, 1)
    stream = record_stream(trace, config)
    assert any(events for *_, events in stream.steps), "the trace never misses"
    assert stream.flush, "nothing left dirty for the shutdown flush"
    if config.l2.size_bytes < SystemConfig().l2.size_bytes:
        assert _in_run_writebacks(stream), "the small caches never evict in-run"
    for scheme in FIGURE5_DESIGNS:
        replayed = run_simulation(
            scheme, trace, config, warmup_fraction=warmup, stream=stream
        )
        live = _live_simulation(scheme, trace, config, warmup)
        assert result_to_dict(replayed) == result_to_dict(live), scheme


def test_a_wrong_plaintext_names_the_design_and_the_line(monkeypatch):
    trace = spec_trace("gcc", 200, 1)
    stream = record_stream(trace, SystemConfig())
    first_read = next(
        addr
        for *_, events in stream.steps
        for is_read, addr, _ in events
        if is_read
    )
    scheme_class = SCHEMES["osiris_plus"]
    honest_read = scheme_class.read

    def flipped_read(self, now, addr):
        data, done = honest_read(self, now, addr)
        return bytes([data[0] ^ 1]) + data[1:], done

    monkeypatch.setattr(scheme_class, "read", flipped_read)
    with pytest.raises(ReplayMismatch, match=rf"osiris_plus .* {first_read:#x}$"):
        run_simulation("osiris_plus", trace, stream=stream)


def test_a_stream_serves_only_its_own_trace_and_caches():
    trace = spec_trace("gcc", 100, 1)
    stream = record_stream(trace, SystemConfig())
    other = spec_trace("gcc", 100, 2)
    with pytest.raises(ValueError, match="record 0"):
        run_simulation("no_cc", other, stream=stream)
    config = SystemConfig(l2=SystemConfig().l1)
    with pytest.raises(ValueError, match="L1/L2"):
        run_simulation("no_cc", trace, config, stream=stream)


def _payload(workload: str, scheme: str) -> dict:
    return pool.execute_spec(simulation_spec(scheme, workload, 300, 1).to_dict())


def test_a_cell_is_the_same_on_a_memo_hit_and_a_miss():
    pool._recorded_stream.cache_clear()
    _payload("gcc", "no_cc")
    on_hit = _payload("gcc", "ccnvm")
    assert pool._recorded_stream.cache_info().hits == 1

    _payload("lbm", "ccnvm")  # another workload takes the one entry
    on_miss = _payload("gcc", "ccnvm")
    info = pool._recorded_stream.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    assert on_hit == on_miss
    assert on_miss == result_to_dict(run_simulation("ccnvm", spec_trace("gcc", 300, 1)))


def test_figure6_records_each_workload_once():
    pool._recorded_stream.cache_clear()
    figure6a(values=[4, 64], length=150, workloads=["lbm", "gcc"], schemes=["ccnvm"])
    assert pool._recorded_stream.cache_info().misses == 2
