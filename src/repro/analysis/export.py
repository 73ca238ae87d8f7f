"""Export figure data for external plotting.

The in-repo rendering is ASCII (no plotting dependency); real papers get
re-plotted, so every figure table exports to CSV and JSON with stable
column names.  ``ascii_bars`` additionally renders a Figure-5-style
grouped bar chart directly in the terminal.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields

from repro.analysis.report import FigureTable
from repro.common.jsondoc import dumps_sorted
from repro.core.schemes import SCHEME_LABELS
from repro.sim.runner import SimulationResult


#: Field names of :class:`SimulationResult`, in declaration order.
_RESULT_FIELDS = tuple(f.name for f in fields(SimulationResult))


def result_to_dict(result: SimulationResult) -> dict:
    """Flatten a :class:`SimulationResult` into a JSON-able dict.

    This is the serialization shared by the run cache, the run journal
    and the ``BENCH_fig5.json`` artifact, so it must (and does) survive
    an exact round-trip through :func:`result_from_dict`.

    Equal to ``dataclasses.asdict(result)``, built from the known field
    shapes instead of asdict's generic recursive deep copy:
    ``writes_by_region`` and ``drains_by_trigger`` map names to ints, and
    ``stats`` maps names to numbers or one-level distribution summaries
    (``StatGroup.as_dict``).  Every dict is copied, so mutating the
    returned dict never reaches *result*.
    """
    data = {name: getattr(result, name) for name in _RESULT_FIELDS}
    data["writes_by_region"] = dict(result.writes_by_region)
    data["drains_by_trigger"] = dict(result.drains_by_trigger)
    data["stats"] = {
        key: dict(value) if type(value) is dict else value
        for key, value in result.stats.items()
    }
    return data


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    unknown = set(data).difference(_RESULT_FIELDS)
    if unknown:
        raise ValueError(f"unknown SimulationResult fields: {sorted(unknown)}")
    return SimulationResult(**data)


def result_to_json(result: SimulationResult) -> str:
    """Canonical JSON document for one simulation result."""
    return dumps_sorted(result_to_dict(result), 2)


def result_from_json(text: str) -> SimulationResult:
    """Inverse of :func:`result_to_json`."""
    return result_from_dict(json.loads(text))


def fig5_bench_document(comparisons, run_meta: dict | None = None) -> dict:
    """The ``BENCH_fig5.json`` document as a plain dict.

    Carries the full per-cell results (round-trippable), both normalized
    figure tables, the headline scalars, and whatever orchestration
    metadata (wall time, cache accounting, fingerprint) the caller adds.
    Everything except ``run`` must be a pure function of the matrix —
    byte-identical whether computed serially, by ``--jobs N`` workers,
    or by a warm cache replay.
    """
    from repro.analysis.report import headline_numbers, ipc_table, write_traffic_table

    ipc = ipc_table(comparisons)
    writes = write_traffic_table(comparisons)
    return {
        "benchmark": "fig5",
        "workloads": list(comparisons),
        "results": {
            workload: {
                scheme: result_to_dict(result)
                for scheme, result in cmp.results.items()
            }
            for workload, cmp in comparisons.items()
        },
        "fig5a_ipc": {"rows": ipc.rows, "averages": ipc.averages()},
        "fig5b_writes": {"rows": writes.rows, "averages": writes.averages()},
        "headline": asdict(headline_numbers(comparisons)),
        "run": dict(run_meta or {}),
    }


def fig5_bench_to_json(comparisons, run_meta: dict | None = None) -> str:
    """Serialized :func:`fig5_bench_document` (the committed artifact)."""
    return dumps_sorted(fig5_bench_document(comparisons, run_meta), 2)


def fig5_bench_from_json(text: str) -> dict:
    """Validated inverse of :func:`fig5_bench_to_json`.

    Rebuilds every per-cell :class:`SimulationResult` (schema check) and
    recomputes the figure tables and headline from them, verifying the
    document's derived sections match its raw cells — the round trip the
    committed artifact and CI rely on.  Returns ``workload -> scheme ->
    SimulationResult``.
    """
    from repro.analysis.report import headline_numbers, ipc_table, write_traffic_table
    from repro.sim.runner import DesignComparison

    document = json.loads(text)
    if document.get("benchmark") != "fig5":
        raise ValueError(f"not a fig5 document: {document.get('benchmark')!r}")
    # Rebuild in the document's recorded workload order, not JSON's
    # sorted key order: the table averages sum floats across workloads,
    # and float addition is order-sensitive in the last bits.
    workloads = document.get("workloads") or []
    if sorted(workloads) != sorted(document["results"]):
        raise ValueError("fig5 document workloads disagree with its results")
    results = {
        workload: {
            scheme: result_from_dict(cell)
            for scheme, cell in document["results"][workload].items()
        }
        for workload in workloads
    }
    comparisons = {
        workload: DesignComparison(workload=workload, results=cells)
        for workload, cells in results.items()
    }
    ipc = ipc_table(comparisons)
    writes = write_traffic_table(comparisons)
    derived = {
        "fig5a_ipc": {"rows": ipc.rows, "averages": ipc.averages()},
        "fig5b_writes": {"rows": writes.rows, "averages": writes.averages()},
        "headline": asdict(headline_numbers(comparisons)),
    }
    for key, expect in derived.items():
        got = document.get(key)
        if json.dumps(got, sort_keys=True) != json.dumps(expect, sort_keys=True):
            raise ValueError(f"fig5 document section {key!r} does not match "
                             "its own raw cells")
    return results


def table_to_csv(table: FigureTable) -> str:
    """CSV with a ``workload`` column plus one column per design."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["workload"] + list(table.schemes))
    for workload, row in table.rows.items():
        writer.writerow([workload] + [f"{row[s]:.6f}" for s in table.schemes])
    writer.writerow(["average"] + [
        f"{table.average(s):.6f}" for s in table.schemes
    ])
    return buffer.getvalue()


def table_to_json(table: FigureTable) -> str:
    """JSON document with rows, averages and display labels."""
    return dumps_sorted(
        {
            "title": table.title,
            "schemes": list(table.schemes),
            "labels": {s: SCHEME_LABELS.get(s, s) for s in table.schemes},
            "rows": table.rows,
            "averages": table.averages(),
        },
        2,
    )


def campaign_summary_to_json(summary: dict) -> str:
    """JSON document for a crash campaign (``run_campaign`` summary).

    Carries the scheme x workload grid with per-cell class tables
    (fingerprint, representative, witness count, verdict), shard
    failures, and the campaign totals.  The summary is pure content (no
    timings, no cache counters), so serial, pooled and warm-cache runs
    of the same campaign serialize byte-identically.
    """
    return dumps_sorted(summary, 2)


def reproducer_to_json(repro) -> str:
    """JSON artifact for one minimized crash reproducer (``Reproducer``)."""
    return dumps_sorted(repro.to_dict(), 2)


def reproducer_from_json(text: str):
    """Inverse of :func:`reproducer_to_json`."""
    from repro.crashsim import Reproducer

    return Reproducer.from_dict(json.loads(text))


def ascii_bars(table: FigureTable, width: int = 40, ceiling: float | None = None) -> str:
    """A grouped horizontal bar chart, one group per workload.

    *ceiling* fixes the full-scale value (defaults to the table maximum),
    so IPC tables naturally scale to 1.0 and traffic tables to the SC
    amplification.
    """
    top = ceiling or max(max(row.values()) for row in table.rows.values())
    label_width = max(len(SCHEME_LABELS.get(s, s)) for s in table.schemes)
    lines = [table.title]
    for workload, row in table.rows.items():
        lines.append(f"{workload}:")
        for scheme in table.schemes:
            value = row[scheme]
            filled = max(0, min(width, round(value / top * width)))
            bar = "#" * filled + "." * (width - filled)
            label = SCHEME_LABELS.get(scheme, scheme)
            lines.append(f"  {label:<{label_width}} |{bar}| {value:.2f}")
    return "\n".join(lines)
