"""Experiment drivers for every figure in the paper's evaluation.

Each function regenerates one figure's data end to end — workload
generation, parameter sweep, baseline, normalization — and returns the
table/series objects from :mod:`repro.analysis.report`.  The benchmark
harness under ``benchmarks/`` is a thin timing/assertion wrapper around
these; the example scripts call them directly.

Every driver expresses its grid as :class:`~repro.runs.spec.RunSpec`s
and submits through :func:`repro.runs.run_specs`, so the same call can
run serially (``jobs=1``, the default), fan out across a worker pool
(``jobs=N``), and/or reuse the content-addressed on-disk cache
(``cache=True``) — results are identical in all cases because a spec's
content hash *is* its identity.

Scale note: the paper simulates 500 M instructions per benchmark in gem5.
These drivers default to tens of thousands of memory references per
workload — enough for the cache, epoch and traffic statistics to
stabilize — and accept a ``length`` parameter to trade fidelity for time.
"""

from __future__ import annotations

from repro.analysis.report import (
    FigureTable,
    HeadlineNumbers,
    SensitivitySeries,
    headline_numbers,
    ipc_table,
    write_traffic_table,
)
from repro.common.config import SystemConfig
from repro.runs import RunReport, orchestrate, simulation_spec
from repro.sim.runner import DesignComparison
from repro.workloads.spec import SPEC_ORDER

#: Default memory references per workload surrogate.
DEFAULT_LENGTH = 12_000

#: The five designs of the Figure 5 matrix (baseline first).
FIGURE5_DESIGNS = ["no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm"]

#: The three designs Figure 6 sweeps.
FIGURE6_SCHEMES = ["osiris_plus", "ccnvm_no_ds", "ccnvm"]

#: Representative subset for the sensitivity sweeps (one workload per
#: behaviour class keeps the sweep tractable; pass ``workloads=SPEC_ORDER``
#: for the full suite).
FIGURE6_WORKLOADS = ["lbm", "gcc", "milc"]


def _result_from_payload(payload) -> "SimulationResult":  # noqa: F821
    from repro.analysis.export import result_from_dict

    return result_from_dict(payload)


def figure5_comparisons(
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    config: SystemConfig | None = None,
    workloads: list[str] | None = None,
    jobs: int = 1,
    cache: bool = False,
    cache_root=None,
    progress=None,
    report_out: list | None = None,
) -> dict[str, DesignComparison]:
    """Run every Figure 5 (workload x design) cell once.

    *report_out*, when given a list, receives the orchestration
    :class:`~repro.runs.RunReport` (wall time, cache accounting) so
    callers like ``repro evaluate`` can surface it.
    """
    names = workloads or SPEC_ORDER
    grid = [
        (name, scheme, simulation_spec(scheme, name, length, seed, config=config))
        for name in names
        for scheme in FIGURE5_DESIGNS
    ]
    report = orchestrate(
        "fig5",
        [spec for _, _, spec in grid],
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
        progress=progress,
    )
    report.raise_on_failure()
    if report_out is not None:
        report_out.append(report)
    comparisons: dict[str, DesignComparison] = {}
    for name in names:
        results = {
            scheme: _result_from_payload(report.payload(spec))
            for wl, scheme, spec in grid
            if wl == name
        }
        comparisons[name] = DesignComparison(workload=name, results=results)
    return comparisons


def figure5a(
    comparisons: dict[str, DesignComparison] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
) -> FigureTable:
    """Figure 5(a): normalized IPC per benchmark and design."""
    comparisons = comparisons or figure5_comparisons(length, seed)
    return ipc_table(comparisons)


def figure5b(
    comparisons: dict[str, DesignComparison] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
) -> FigureTable:
    """Figure 5(b): normalized NVM write traffic per benchmark and design."""
    comparisons = comparisons or figure5_comparisons(length, seed)
    return write_traffic_table(comparisons)


def headline(
    comparisons: dict[str, DesignComparison] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
) -> HeadlineNumbers:
    """The abstract's scalars, measured."""
    comparisons = comparisons or figure5_comparisons(length, seed)
    return headline_numbers(comparisons)


def motivation(
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    config: SystemConfig | None = None,
    jobs: int = 1,
    cache: bool = False,
) -> tuple[float, float]:
    """Section 2.3's naive-approach numbers.

    Returns ``(sc_performance_loss, sc_write_amplification)`` — the paper
    reports 41.4 % and 5.5x.
    """
    comparisons = figure5_comparisons(length, seed, config, jobs=jobs, cache=cache)
    table_ipc = ipc_table(comparisons)
    table_writes = write_traffic_table(comparisons)
    return 1.0 - table_ipc.average("sc"), table_writes.average("sc")


def _sensitivity(
    parameter: str,
    values: list[int],
    make_config,
    title: str,
    length: int,
    seed: int,
    workloads: list[str],
    schemes: list[str],
    jobs: int = 1,
    cache: bool = False,
    cache_root=None,
    progress=None,
    report_out: list | None = None,
) -> SensitivitySeries:
    """One Figure 6 panel as a single orchestrated grid.

    The whole (workload x value x scheme) grid — baselines included — is
    submitted at once, so the pool keeps every worker busy across swept
    values instead of synchronizing per point.  Workload-outer order
    keeps each workload's cells adjacent, so they share one recorded
    LLC stream (the swept knobs never reach the L1/L2).  When they
    outnumber half a worker's share (the default panels at any ``jobs``
    above 1), the pool cuts them into several chunks, each recording
    the stream once.
    """
    run_schemes = (["no_cc"] if "no_cc" not in schemes else []) + list(schemes)
    configs = {value: make_config(value) for value in values}
    grid = {}
    for name in workloads:
        for value in values:
            for scheme in run_schemes:
                grid[(value, scheme, name)] = simulation_spec(
                    scheme, name, length, seed, config=configs[value]
                )
    report = orchestrate(
        f"fig6-{parameter}",
        list(grid.values()),
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
        progress=progress,
    )
    report.raise_on_failure()
    if report_out is not None:
        report_out.append(report)

    def result(value, scheme, name):
        return _result_from_payload(report.payload(grid[(value, scheme, name)]))

    series = SensitivitySeries(title=title, parameter=parameter)
    for value in values:
        baselines = {name: result(value, "no_cc", name) for name in workloads}
        for scheme in schemes:
            ipc_ratios = []
            write_ratios = []
            for name in workloads:
                cell = result(value, scheme, name)
                ipc_ratios.append(cell.ipc / baselines[name].ipc)
                write_ratios.append(cell.nvm_writes / baselines[name].nvm_writes)
            series.add_point(
                value,
                scheme,
                ipc=sum(ipc_ratios) / len(ipc_ratios),
                writes=sum(write_ratios) / len(write_ratios),
            )
    return series


def figure6a(
    values: list[int] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    workloads: list[str] | None = None,
    schemes: list[str] | None = None,
    **run_kwargs,
) -> SensitivitySeries:
    """Figure 6(a): sweep the update-times limit N (M fixed at 64)."""
    return _sensitivity(
        parameter="N",
        values=values or [4, 8, 16, 32, 64],
        make_config=lambda n: SystemConfig().with_epoch(update_limit=n),
        title="Figure 6(a): impact of the update-times limit N (M=64)",
        length=length,
        seed=seed,
        workloads=workloads or FIGURE6_WORKLOADS,
        schemes=schemes or FIGURE6_SCHEMES,
        **run_kwargs,
    )


def figure6b(
    values: list[int] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    workloads: list[str] | None = None,
    schemes: list[str] | None = None,
    **run_kwargs,
) -> SensitivitySeries:
    """Figure 6(b): sweep the dirty-address-queue entries M (N fixed at 16).

    M is bounded by the 64-entry WPQ ("it must be less than 64"), hence
    the paper's 32..64 sweep.
    """
    return _sensitivity(
        parameter="M",
        values=values or [32, 40, 48, 56, 64],
        make_config=lambda m: SystemConfig().with_epoch(dirty_queue_entries=m),
        title="Figure 6(b): impact of the dirty-address-queue entries M (N=16)",
        length=length,
        seed=seed,
        workloads=workloads or FIGURE6_WORKLOADS,
        schemes=schemes or ["ccnvm_no_ds", "ccnvm"],
        **run_kwargs,
    )


def meta_cache_sweep(
    sizes_kb: list[int] | None = None,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    workloads: list[str] | None = None,
    **run_kwargs,
) -> SensitivitySeries:
    """Ablation: how much the paper's premise — metadata caching — buys.

    Sweeps the shared counter/Merkle meta cache (the paper fixes 128 KB)
    for cc-NVM, normalized per point against w/o CC at the *same* size so
    the series isolates the consistency overhead rather than raw caching.
    """
    from dataclasses import replace

    from repro.common.config import CacheConfig

    def make_config(size_kb: int) -> SystemConfig:
        base = SystemConfig()
        meta = CacheConfig(
            size_bytes=size_kb * 1024,
            associativity=8,
            hit_latency=32,
            name="meta",
            hashed_sets=True,
        )
        return replace(base, security=replace(base.security, meta_cache=meta))

    return _sensitivity(
        parameter="meta_kb",
        values=sizes_kb or [16, 32, 64, 128, 256],
        make_config=make_config,
        title="Ablation: meta cache size (cc-NVM, normalized to w/o CC)",
        length=length,
        seed=seed,
        workloads=workloads or FIGURE6_WORKLOADS,
        schemes=["ccnvm"],
        **run_kwargs,
    )


def deferred_spreading_ablation(
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    config: SystemConfig | None = None,
    workloads: list[str] | None = None,
    jobs: int = 1,
    cache: bool = False,
    cache_root=None,
) -> dict[str, dict[str, float]]:
    """DESIGN.md's ablation: what deferred spreading actually saves.

    Returns, per workload, the counter-HMAC computation counts of cc-NVM
    with and without DS, their ratio, and the IPC ratio between the two.
    """
    names = workloads or FIGURE6_WORKLOADS
    grid = {
        (scheme, name): simulation_spec(scheme, name, length, seed, config=config)
        for scheme in ("ccnvm", "ccnvm_no_ds")
        for name in names
    }
    report = orchestrate(
        "ablation-ds",
        list(grid.values()),
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
    )
    report.raise_on_failure()
    results: dict[str, dict[str, float]] = {}
    for name in names:
        with_ds = _result_from_payload(report.payload(grid[("ccnvm", name)]))
        without = _result_from_payload(report.payload(grid[("ccnvm_no_ds", name)]))
        results[name] = {
            "hmacs_with_ds": with_ds.counter_hmacs,
            "hmacs_without_ds": without.counter_hmacs,
            "hmac_savings": 1.0 - with_ds.counter_hmacs / max(1, without.counter_hmacs),
            "ipc_gain": with_ds.ipc / without.ipc - 1.0,
        }
    return results


# Re-exported for callers that previously imported the orchestration-free
# report type from here.
__all__ = [
    "DEFAULT_LENGTH",
    "FIGURE5_DESIGNS",
    "FIGURE6_SCHEMES",
    "FIGURE6_WORKLOADS",
    "RunReport",
    "deferred_spreading_ablation",
    "figure5_comparisons",
    "figure5a",
    "figure5b",
    "figure6a",
    "figure6b",
    "headline",
    "meta_cache_sweep",
    "motivation",
]
