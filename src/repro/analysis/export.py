"""Export figure data for external plotting.

The in-repo rendering is ASCII (no plotting dependency); real papers get
re-plotted, so every table/series exports to CSV and JSON with stable
column names.  ``ascii_bars`` additionally renders a Figure-5-style
grouped bar chart directly in the terminal.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields

from repro.analysis.report import FigureTable, SensitivitySeries
from repro.core.schemes import SCHEME_LABELS
from repro.sim.runner import SimulationResult


def result_to_dict(result: SimulationResult) -> dict:
    """Flatten a :class:`SimulationResult` into a JSON-able dict.

    This is the serialization shared by the run cache, the run journal
    and the ``BENCH_fig5.json`` artifact, so it must (and does) survive
    an exact round-trip through :func:`result_from_dict`.
    """
    return asdict(result)


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    known = {f.name for f in fields(SimulationResult)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown SimulationResult fields: {sorted(unknown)}")
    return SimulationResult(**data)


def result_to_json(result: SimulationResult) -> str:
    """Canonical JSON document for one simulation result."""
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True)


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
    return json.dumps(
        fig5_bench_document(comparisons, run_meta), indent=2, sort_keys=True
    )


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
    derived = {
        "fig5a_ipc": {
            "rows": ipc_table(comparisons).rows,
            "averages": ipc_table(comparisons).averages(),
        },
        "fig5b_writes": {
            "rows": write_traffic_table(comparisons).rows,
            "averages": write_traffic_table(comparisons).averages(),
        },
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
    return json.dumps(
        {
            "title": table.title,
            "schemes": list(table.schemes),
            "labels": {s: SCHEME_LABELS.get(s, s) for s in table.schemes},
            "rows": table.rows,
            "averages": table.averages(),
        },
        indent=2,
        sort_keys=True,
    )


def series_to_csv(series: SensitivitySeries) -> str:
    """CSV with parameter value, design, and both metrics per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([series.parameter, "scheme", "normalized_ipc",
                     "normalized_writes"])
    for value in sorted(series.points):
        for scheme, metrics in sorted(series.points[value].items()):
            writer.writerow(
                [value, scheme, f"{metrics['ipc']:.6f}",
                 f"{metrics['writes']:.6f}"]
            )
    return buffer.getvalue()


def series_to_json(series: SensitivitySeries) -> str:
    """JSON document with the swept points per design."""
    return json.dumps(
        {
            "title": series.title,
            "parameter": series.parameter,
            "points": {str(v): m for v, m in sorted(series.points.items())},
        },
        indent=2,
        sort_keys=True,
    )


def campaign_to_json(result) -> str:
    """JSON document for a fault-campaign result (``CampaignResult``)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def campaign_to_csv(result) -> str:
    """CSV with one row per injection, then one per media experiment.

    Media rows reuse the site/hit columns for the fault kind and address,
    so a single flat file carries the whole campaign.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["phase", "scheme", "site", "hit", "fired", "outcome", "expected",
         "ok", "total_retries", "nwb", "unrecoverable"]
    )
    for r in result.injections:
        writer.writerow(
            ["injection", r.scheme, r.site, r.hit, int(r.fired), r.outcome,
             r.expected, int(r.ok), r.total_retries, r.nwb, r.unrecoverable]
        )
    for m in result.media:
        writer.writerow(
            ["media", m.scheme, m.kind, f"{m.addr:#x}", 1, m.outcome,
             m.expected, int(m.ok), "", "", ""]
        )
    return buffer.getvalue()


def crash_summary_to_json(summary: dict) -> str:
    """JSON document for a crash exploration (``run_explore`` summary).

    The summary is already pure content — no timings, no cache counters —
    so this serialization is byte-identical across serial, parallel and
    fully-cached runs of the same exploration.
    """
    return json.dumps(summary, indent=2, sort_keys=True)


def campaign_summary_to_json(summary: dict) -> str:
    """JSON document for a crash campaign (``run_campaign`` summary).

    Carries the scheme x workload grid with per-cell class tables
    (fingerprint, representative, witness count, verdict), shard
    failures, and the campaign totals.  Pure content like the
    exploration summary: serial, pooled and warm-cache runs of the same
    campaign serialize byte-identically.
    """
    return json.dumps(summary, indent=2, sort_keys=True)


def reproducer_to_json(repro) -> str:
    """JSON artifact for one minimized crash reproducer (``Reproducer``)."""
    return json.dumps(repro.to_dict(), indent=2, sort_keys=True)


def reproducer_from_json(text: str):
    """Inverse of :func:`reproducer_to_json`."""
    from repro.crashsim import Reproducer

    return Reproducer.from_dict(json.loads(text))


def lint_to_json(report) -> str:
    """JSON document for a persist-order lint run (``LintReport``).

    Same shape as ``repro lint --json``: schema version, run metadata,
    per-rule charters, unbaselined findings, baselined findings and
    stale baseline keys.  Byte-stable for identical trees: findings are
    sorted, keys are sorted, and wall-clock runtime is excluded.
    """
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def lint_from_json(text: str):
    """Inverse of :func:`lint_to_json` (schema-checked).

    Rebuilds a ``LintReport`` whose :func:`lint_to_json` rendering is
    byte-identical to *text* — the round trip CI and tooling rely on.
    Rejects documents from a different schema version rather than
    guessing at field meanings.
    """
    from repro.lint.findings import Finding, sort_findings
    from repro.lint.runner import SCHEMA_VERSION, LintReport

    document = json.loads(text)
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"lint report schema {version!r} is not the supported "
            f"{SCHEMA_VERSION!r}"
        )
    new = [Finding.from_dict(d) for d in document["findings"]]
    baselined = [Finding.from_dict(d) for d in document["baselined_findings"]]
    counts = document["counts"]
    if counts["new"] != len(new) or counts["baselined"] != len(baselined):
        raise ValueError("lint report counts disagree with its findings")
    return LintReport(
        root=document["root"],
        findings=sort_findings(new + baselined),
        new=new,
        baselined=baselined,
        stale_baseline=list(document["stale_baseline"]),
        baseline_path=document["baseline"],
        files_analyzed=document["files_analyzed"],
    )


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
