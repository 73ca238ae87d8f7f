"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — the modeled configuration (the paper's Section 5 setup);
* ``evaluate`` — regenerate the Figure 5 tables and headline numbers;
* ``sweep`` — the Figure 6 sensitivity panels;
* ``demo`` — a one-minute crash/attack/recovery walk-through;
* ``simulate`` — run one workload on one design and dump statistics;
* ``crash campaign`` — enumerate every crash state ADR semantics permit
  for each scheme x workload cell of a grid, judge each equivalence
  class's recovery once, and gate on exhaustive coverage (``--closure``
  also crashes each recovery at every persist, to a fixed point); ``crash
  replay`` / ``crash minimize`` — re-run and delta-debug the replayable
  reproducer artifacts the campaign emits for violations;
* ``traffic ace`` — bounded exhaustive workload enumeration
  (k writes x address-overlap patterns x fence placements, canonical-form
  deduped) with ``--campaign`` running the whole set through the crash
  campaign;
* ``runs status`` / ``runs gc`` — inspect and prune the content-addressed
  result cache the orchestrated commands share.

``evaluate``, ``sweep``, ``crash campaign`` and ``traffic ace --campaign``
all submit through the run orchestrator: ``--jobs N`` fans the grid out
over N worker processes, results are reused from ``.repro-cache/`` when
the simulator sources are unchanged (``--no-cache`` forces
re-execution), and interrupted sweeps resume from their journal.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments
from repro.analysis.report import headline_numbers, ipc_table, write_traffic_table
from repro.common.config import SystemConfig
from repro.core.schemes import SCHEME_LABELS, SCHEMES
from repro.sim.runner import run_simulation
from repro.workloads.spec import SPEC_ORDER, spec_trace


def cmd_info(_args: argparse.Namespace) -> int:
    config = SystemConfig()
    print("cc-NVM reproduction — modeled system (paper Section 5)")
    print(f"  core               3 GHz, peak IPC {config.cpu.peak_ipc}")
    print(f"  L1                 {config.l1.size_bytes >> 10} KB, "
          f"{config.l1.associativity}-way, {config.l1.hit_latency} cycles")
    print(f"  L2                 {config.l2.size_bytes >> 10} KB, "
          f"{config.l2.associativity}-way, {config.l2.hit_latency} cycles")
    meta = config.security.meta_cache
    print(f"  meta cache         {meta.size_bytes >> 10} KB, "
          f"{meta.associativity}-way, {meta.hit_latency} cycles")
    print(f"  NVM                {config.nvm.capacity_bytes >> 30} GB PCM, "
          f"{config.nvm.read_latency_ns:.0f}/{config.nvm.write_latency_ns:.0f} ns, "
          f"{config.nvm.banks} banks")
    print(f"  AES / HMAC         {config.security.aes_latency_ns:.0f} ns / "
          f"{config.security.hmac_latency_cycles} cycles")
    print(f"  WPQ                {config.controller.wpq_entries} entries (ADR)")
    print(f"  epoch triggers     M={config.epoch.dirty_queue_entries}, "
          f"N={config.epoch.update_limit}, "
          f"lookup {config.epoch.dirty_queue_lookup_cycles} cycles")
    print(f"  designs            {', '.join(SCHEME_LABELS.values())}")
    print(f"  workloads          {', '.join(SPEC_ORDER)}")
    return 0


def _progress_printer(args: argparse.Namespace):
    """A live per-spec progress line (suppressed under --quiet)."""
    if getattr(args, "quiet", False):
        return None

    def progress(outcome, done, total):
        tag = outcome.source if outcome.ok else outcome.status.upper()
        print(f"  [{done:>3}/{total}] {outcome.spec.describe():<42} "
              f"{outcome.duration:6.2f}s  {tag}")

    return progress


def _run_kwargs(args: argparse.Namespace) -> dict:
    """Orchestration knobs shared by evaluate/sweep/crash."""
    return {
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "progress": _progress_printer(args),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    print(f"Figure 5 matrix: 8 workloads x 5 designs, {args.length} refs each "
          f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})")
    reports: list = []
    comparisons = experiments.figure5_comparisons(
        args.length, args.seed, report_out=reports, **_run_kwargs(args)
    )
    report = reports[0]
    ipc = ipc_table(comparisons)
    writes = write_traffic_table(comparisons)
    print()
    print(ipc.render())
    print()
    print(writes.render())
    print()
    print(headline_numbers(comparisons).render())
    print()
    print(f"orchestration: {report.summary()}")
    if args.json:
        from repro.runs import code_fingerprint

        from repro.analysis.export import fig5_bench_to_json

        meta = {
            "length": args.length,
            "seed": args.seed,
            "jobs": args.jobs,
            "fingerprint": code_fingerprint(),
            "wall_seconds": report.wall_seconds,
            "executed": report.executed,
            "cache_hits": report.cache_hits,
            "journal_hits": report.journal_hits,
        }
        with open(args.json, "w") as f:
            f.write(fig5_bench_to_json(comparisons, meta))
        print(f"wrote benchmark artifact to {args.json}")
    if args.export:
        import os

        from repro.analysis.export import table_to_csv, table_to_json

        os.makedirs(args.export, exist_ok=True)
        for name, table in (("fig5a_ipc", ipc), ("fig5b_writes", writes)):
            with open(os.path.join(args.export, f"{name}.csv"), "w") as f:
                f.write(table_to_csv(table))
            with open(os.path.join(args.export, f"{name}.json"), "w") as f:
                f.write(table_to_json(table))
        print(f"\nexported CSV/JSON to {args.export}/")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    kwargs = _run_kwargs(args)
    print(experiments.figure6a(length=args.length, seed=args.seed, **kwargs).render())
    print()
    print(experiments.figure6b(length=args.length, seed=args.seed, **kwargs).render())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = spec_trace(args.workload, args.length, args.seed)
    result = run_simulation(args.scheme, trace)
    print(f"{result.label} on {result.workload}: "
          f"{result.instructions} instructions, {result.cycles} cycles, "
          f"IPC {result.ipc:.4f}")
    print(f"  NVM writes {result.nvm_writes} {result.writes_by_region}, "
          f"reads {result.nvm_reads}")
    print(f"  LLC write-backs {result.llc_writebacks}, epochs {result.epochs} "
          f"{result.drains_by_trigger}")
    print(f"  HMAC computations: {result.counter_hmacs} counter, "
          f"{result.data_hmacs} data")
    if args.report:
        from repro.common.stats import render_report

        print()
        print(render_report(result.stats))
    if args.stats_json:
        from repro.common.jsondoc import dumps_sorted

        with open(args.stats_json, "w") as f:
            f.write(dumps_sorted(result.stats, 2))
            f.write("\n")
        print(f"wrote statistics JSON to {args.stats_json}")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    from repro import SecureMemory

    mem = SecureMemory(data_capacity=1 << 22)
    mem.store(0x1000, b"the data that must survive")
    mem.persist(0x1000, 64)
    print("stored + persisted; crashing...")
    mem.crash()
    report = mem.recover()
    print(f"recovered: success={report.success}, retries={report.total_retries}")
    print(f"data: {mem.load(0x1000, 26)!r}")
    mem.attacker().spoof_data(0x1000)
    mem.crash()
    report = mem.recover()
    located = [hex(f.address) for f in report.findings if f.address is not None]
    print(f"after spoofing: success={report.success}, located={located}")
    return 0


def _validated(command: str, build, **fields):
    """``build(**fields)``, or report its rejection and return None."""
    try:
        return build(**fields)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return None


def _campaign_gate(summary: dict) -> list[str]:
    """Why a crash campaign summary fails its gates (empty: it passes)."""
    totals = summary["totals"]
    problems = []
    if not totals["cells"]:
        problems.append("no grid cell ran")
    if totals["violations"]:
        problems.append(f"{totals['violations']} violation(s)")
    if totals["class_mismatches"]:
        problems.append(f"{totals['class_mismatches']} class mismatch(es)")
    if totals.get("closure_violations"):
        problems.append(f"{totals['closure_violations']} closure violation(s)")
    if totals.get("closure_unclosed"):
        problems.append(
            f"{totals['closure_unclosed']} closure(s) stopped at the depth or member budget"
        )
    if summary["failures"]:
        problems.append(f"{len(summary['failures'])} failed shard(s)")
    return problems


def _print_campaign_row(scheme: str, label: str, cells: dict) -> None:
    """One report line for *cells* (profile -> summary cell), summed."""
    rows = sorted(cells.items())
    covered = sum(c["states_covered"] for _, c in rows)
    calls = sum(c["oracle_calls"] for _, c in rows)
    violations = [(p, v) for p, c in rows for v in c["violations"]]
    bad = any(c["violations"] or c["class_mismatches"] for _, c in rows)
    print(f"  {scheme:14s} {label:12s} {covered:6d} states covered by "
          f"{calls:5d} oracle calls "
          f"({sum(c['classes'] for _, c in rows):4d} classes, "
          f"{round(covered / calls, 3) if calls else '-':>7}x)  "
          f"{len(violations)} violation(s){'  <- CHECK' if bad else ''}")
    closures = [c["closure"] for _, c in rows if "closure" in c]
    if closures:
        failed = [(p, v) for p, c in rows for v in c["closure"]["violations"]]
        bad = failed or not all(c["closed"] for c in closures)
        print(f"  {'':27s} closure: {sum(c['roots'] for c in closures)} roots -> "
              f"{sum(c['members'] for c in closures)} members (depth "
              f"{max(c['depth'] for c in closures)}), {len(failed)} violation(s)"
              f"{'  <- CHECK' if bad else ''}")
        violations += failed
    for profile, v in violations[:3]:
        where = f" schedule {v['schedule']}" if "schedule" in v else ""
        print(f"      {profile} {v['state']}{where}: "
              f"{'; '.join(v['verdict']['problems'][:2])}")


def _run_campaign_command(
    args: argparse.Namespace,
    cfg,
    name: str,
    per_cell: bool,
    min_classes: int = 0,
    reproducers: str | None = None,
) -> int:
    """Run *cfg*, print its report, write ``--json`` and gate on it.

    One row per grid cell when *per_cell*, else one per scheme.
    """
    from repro.crashsim import run_campaign

    print(f"{name}: {len(cfg.resolved_schemes())} scheme(s) x "
          f"{len(cfg.resolved_profiles())} profile(s) @ {cfg.steps} steps, "
          f"window {cfg.window}, seed {cfg.seed}, spot {cfg.spot}"
          f"{', closure' if cfg.closure else ''} "
          f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})")
    summary, report = run_campaign(cfg, **_run_kwargs(args))
    print()
    for scheme, cells in sorted(summary["grid"].items()):
        if per_cell:
            for profile, cell in sorted(cells.items()):
                _print_campaign_row(scheme, profile, {profile: cell})
        else:
            _print_campaign_row(scheme, f"{len(cells)} profiles", cells)
    totals = summary["totals"]
    failures = summary["failures"]
    ratio = totals["reduction_ratio"]
    print(f"\n  totals: {totals['cells']} cells, {totals['covered']} states "
          f"covered, {totals['oracle_calls']} oracle calls "
          f"({ratio if ratio is not None else '-'}x), {totals['classes']} classes, "
          f"{totals['violations']} violation(s), "
          f"{totals['class_mismatches']} class mismatch(es), "
          f"{len(failures)} failed shard(s)")
    for failure in failures[:5]:
        print(f"      FAILED {failure['scheme']}/{failure['profile']} "
              f"shard {failure['shard']}: {failure['error']}")
    print(f"orchestration: {report.summary()}")
    if args.json:
        from repro.analysis.export import campaign_summary_to_json

        with open(args.json, "w") as f:
            f.write(campaign_summary_to_json(summary))
        print(f"wrote {name} summary to {args.json}")
    if reproducers:
        import os

        from repro.common.jsondoc import dumps_sorted

        os.makedirs(reproducers, exist_ok=True)
        written = 0
        for scheme in summary["grid"]:
            for profile, cell in summary["grid"][scheme].items():
                for v in cell["violations"]:
                    if "reproducer" not in v:
                        continue
                    stem = v["state"].replace("=", "").replace(",", "_")
                    path = os.path.join(
                        reproducers, f"{scheme}_{profile}_{stem}.json"
                    )
                    with open(path, "w") as f:
                        f.write(dumps_sorted(v["reproducer"], 2))
                    written += 1
        print(f"wrote {written} minimized reproducer(s) to {reproducers}/")
    problems = _campaign_gate(summary)
    if min_classes and totals["classes"] < min_classes:
        problems.append(
            f"only {totals['classes']} classes (< --min-classes {min_classes})"
        )
    if problems:
        print(f"{name} FAILED: {', '.join(problems)}")
        return 1
    print(f"{name} ok: exhaustive coverage, no violations"
          f"{', every closure closed' if cfg.closure else ''}")
    return 0


def cmd_crash_campaign(args: argparse.Namespace) -> int:
    from repro.crashsim import CrashCampaignConfig
    from repro.crashsim.explore import DEFAULT_SHARDS, DEFAULT_STEPS

    cfg = _validated(
        "crash campaign",
        CrashCampaignConfig,
        schemes=tuple(args.schemes or ()),
        profiles=tuple(args.profiles or ()),
        steps=DEFAULT_STEPS if args.steps is None else args.steps,
        window=args.window,
        seed=args.seed,
        shards=DEFAULT_SHARDS if args.shards is None else args.shards,
        spot=args.spot,
        closure=args.closure,
    )
    if cfg is None:
        return 2
    return _run_campaign_command(
        args, cfg, "crash campaign", per_cell=True,
        min_classes=args.min_classes, reproducers=args.reproducers,
    )


def _load_reproducer(command: str, path: str):
    """The artifact at *path*, or report why it is unusable and return None."""
    from repro.analysis.export import reproducer_from_json

    with open(path) as f:
        return _validated(command, reproducer_from_json, text=f.read())


def cmd_crash_replay(args: argparse.Namespace) -> int:
    from repro.crashsim import replay

    repro_artifact = _load_reproducer("crash replay", args.file)
    if repro_artifact is None:
        return 2
    print(f"replaying: {repro_artifact.description}")
    print(f"  scheme {repro_artifact.scheme}, {len(repro_artifact.ops)} persist "
          f"micro-op(s), schedule {repro_artifact.schedule or 'none'}")
    verdict = replay(repro_artifact)
    expected = {p.split(":", 1)[0] for p in repro_artifact.problems}
    reproduced = expected <= set(verdict.signature())
    print(f"  outcome {verdict.outcome} (recorded {repro_artifact.outcome})")
    for problem in verdict.problems:
        print(f"    {problem}")
    print("failure reproduced" if reproduced else "failure did NOT reproduce")
    return 0 if reproduced else 1


def cmd_crash_minimize(args: argparse.Namespace) -> int:
    from repro.analysis.export import reproducer_to_json
    from repro.crashsim import (
        RecoveryOracle,
        build_state,
        from_state,
        minimize,
        rebuild_trace,
    )

    repro_artifact = _load_reproducer("crash minimize", args.file)
    if repro_artifact is None:
        return 2
    trace = rebuild_trace(repro_artifact)
    oracle = RecoveryOracle(
        repro_artifact.scheme,
        data_capacity=repro_artifact.data_capacity,
        seed=repro_artifact.seed,
    )
    schedule = repro_artifact.schedule or None
    signature = frozenset(p.split(":", 1)[0] for p in repro_artifact.problems)
    minimal = minimize(
        trace, repro_artifact.ops, oracle, signature, schedule=schedule
    )
    final = oracle.evaluate(build_state(trace, minimal), schedule)
    result = from_state(
        trace,
        minimal,
        final,
        description=(f"{repro_artifact.description} (re-minimized from "
                     f"{len(repro_artifact.ops)} to {len(minimal)} ops)"),
        data_capacity=repro_artifact.data_capacity,
        schedule=schedule,
    )
    print(f"minimized {len(repro_artifact.ops)} -> {len(minimal)} persist micro-op(s)")
    if args.out:
        with open(args.out, "w") as f:
            f.write(reproducer_to_json(result))
        print(f"wrote minimized reproducer to {args.out}")
    else:
        print(reproducer_to_json(result))
    return 0


def cmd_traffic_ace(args: argparse.Namespace) -> int:
    from repro.trafficgen.ace import (
        ace_campaign_config,
        enumeration_stats,
        enumerate_ace,
    )

    stats = _validated("traffic ace", enumeration_stats, k=args.k)
    if stats is None:
        return 2
    print(f"ace enumeration @ k={args.k}: "
          f"{stats['canonical_workloads']} canonical workload(s) "
          f"({stats['overlap_classes']} overlap classes x "
          f"{stats['fence_placements']} fence placements), "
          f"{stats['raw_workloads']} raw -> {stats['dedup_ratio']}x dedup")
    if args.list:
        for w in enumerate_ace(args.k):
            print(f"  {w.profile()}  lines={w.lines()}")
    if not args.campaign:
        return 0
    cfg = _validated(
        "traffic ace", ace_campaign_config, k=args.k,
        schemes=tuple(args.schemes or ()), seed=args.seed, spot=args.spot,
        closure=args.closure,
    )
    if cfg is None:
        return 2
    return _run_campaign_command(args, cfg, "ace campaign", per_cell=False)


def cmd_runs_status(args: argparse.Namespace) -> int:
    from repro.common.jsondoc import dumps_sorted
    from repro.runs import ResultCache

    cache = ResultCache(args.root)
    status = cache.status()
    if args.json:
        print(dumps_sorted(status, 2))
        return 0
    print(f"result cache at {status['root']} "
          f"(current code fingerprint {status['fingerprint']})")
    if not status["generations"]:
        print("  no cached results")
    for fingerprint, info in status["generations"].items():
        marker = "current" if info["current"] else "stale"
        print(f"  {fingerprint}  {info['entries']:5d} entries  "
              f"{info['bytes'] / 1024:8.1f} KB  [{marker}]")
    stats = status["stats"]
    print(f"  lifetime: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['stores']} stores over {stats['flushes']} sweep(s)")
    if status["journals"]:
        print(f"  journals: {', '.join(status['journals'])}")
    return 0


def cmd_runs_gc(args: argparse.Namespace) -> int:
    from repro.runs import ResultCache

    cache = ResultCache(args.root)
    swept = cache.gc(everything=args.all)
    scope = "all generations" if args.all else "stale generations"
    print(f"gc ({scope}): removed {swept['removed']} entr(y/ies), "
          f"kept {swept['kept']}, reclaimed {swept['reclaimed_bytes']} bytes")
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit 2 otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="cc-NVM (DAC 2019) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the modeled configuration").set_defaults(
        func=cmd_info
    )

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                       help="worker processes for the sweep (default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="always re-execute; skip the on-disk result cache")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-spec progress lines")

    def add_campaign_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--schemes", nargs="+", metavar="SCHEME",
                       choices=sorted(SCHEMES), default=None,
                       help="grid rows (default: every scheme)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--spot", type=int, default=1,
                       help="passing-class witnesses spot-checked per class")
        p.add_argument("--closure", action="store_true",
                       help="also crash every recovery after each of its "
                            "persists and recover again, to a fixed point")
        p.add_argument("--json", metavar="FILE", default=None,
                       help="write the JSON campaign summary (grid, class "
                            "tables, totals) to FILE")
        add_run_options(p)

    evaluate = sub.add_parser("evaluate", help="regenerate Figure 5")
    evaluate.add_argument("--length", type=positive_int, default=4000)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--export", metavar="DIR", default=None,
                          help="also write CSV/JSON figure data into DIR")
    evaluate.add_argument("--json", metavar="FILE", default=None,
                          help="write the BENCH_fig5.json benchmark artifact")
    add_run_options(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = sub.add_parser("sweep", help="regenerate Figure 6")
    sweep.add_argument("--length", type=positive_int, default=3000)
    sweep.add_argument("--seed", type=int, default=1)
    add_run_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser("simulate", help="run one workload on one design")
    simulate.add_argument("workload", choices=SPEC_ORDER)
    simulate.add_argument("--scheme", default="ccnvm", choices=sorted(SCHEME_LABELS))
    simulate.add_argument("--length", type=positive_int, default=4000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--report", action="store_true",
                          help="print the full nested statistics report")
    simulate.add_argument("--stats-json", metavar="FILE", default=None,
                          help="write the statistics tree as JSON to FILE")
    simulate.set_defaults(func=cmd_simulate)

    sub.add_parser("demo", help="crash/attack/recovery walk-through").set_defaults(
        func=cmd_demo
    )

    crash = sub.add_parser(
        "crash", help="systematic crash-state exploration (ADR semantics)"
    )
    csub = crash.add_subparsers(dest="crash_command", required=True)
    ccampaign = csub.add_parser(
        "campaign",
        help="the standing exhaustive campaign: scheme x workload grid of "
             "reduced (class-covered) explorations",
    )
    ccampaign.add_argument("--profiles", nargs="+", metavar="PROFILE",
                           default=None,
                           help="grid columns (default: hotset plus every "
                                "Figure-5 surrogate; rekey and ace-k<k>-... "
                                "names on request)")
    ccampaign.add_argument("--steps", type=int, default=None,
                           help="write-backs per recorded workload "
                                "(default: the smoke budget)")
    ccampaign.add_argument("--window", type=int, default=4,
                           help="in-flight reordering window (units)")
    ccampaign.add_argument("--shards", type=int, default=None,
                           help="enumerate cells per grid cell (default 4)")
    ccampaign.add_argument("--min-classes", type=int, default=0,
                           help="fail unless the campaign distinguishes at "
                                "least this many classes in total")
    ccampaign.add_argument("--reproducers", metavar="DIR", default=None,
                           help="write minimized reproducer JSON artifacts "
                                "into DIR")
    add_campaign_options(ccampaign)
    ccampaign.set_defaults(func=cmd_crash_campaign)
    creplay = csub.add_parser(
        "replay", help="re-run a reproducer artifact on a fresh oracle"
    )
    creplay.add_argument("file", help="reproducer JSON artifact")
    creplay.set_defaults(func=cmd_crash_replay)
    cminimize = csub.add_parser(
        "minimize", help="delta-debug a reproducer's op list to 1-minimal"
    )
    cminimize.add_argument("file", help="reproducer JSON artifact")
    cminimize.add_argument("--out", metavar="FILE", default=None,
                           help="write the minimized artifact (default stdout)")
    cminimize.set_defaults(func=cmd_crash_minimize)

    runs = sub.add_parser("runs", help="inspect/prune the run result cache")
    rsub = runs.add_subparsers(dest="runs_command", required=True)
    rstatus = rsub.add_parser("status", help="cache inventory and hit/miss stats")
    rstatus.add_argument("--root", default=None, metavar="DIR",
                         help="cache directory (default .repro-cache or "
                              "$CCNVM_CACHE_DIR)")
    rstatus.add_argument("--json", action="store_true",
                         help="emit the machine-readable inventory")
    rstatus.set_defaults(func=cmd_runs_status)
    rgc = rsub.add_parser("gc", help="drop results from stale code fingerprints")
    rgc.add_argument("--root", default=None, metavar="DIR",
                     help="cache directory (default .repro-cache or "
                          "$CCNVM_CACHE_DIR)")
    rgc.add_argument("--all", action="store_true",
                     help="drop everything, journals and stats included")
    rgc.set_defaults(func=cmd_runs_gc)

    traffic = sub.add_parser(
        "traffic",
        help="bounded exhaustive workloads for the crash campaign",
    )
    tsub = traffic.add_subparsers(dest="traffic_command", required=True)

    tace = tsub.add_parser(
        "ace",
        help="bounded exhaustive workload enumeration for the crash campaign",
    )
    tace.add_argument("--k", type=int, default=3,
                      help="writes per workload (default 3)")
    tace.add_argument("--list", action="store_true",
                      help="print every canonical workload profile name")
    tace.add_argument("--campaign", action="store_true",
                      help="run the full enumeration through the crash "
                           "campaign with exhaustive-coverage gates")
    add_campaign_options(tace)
    tace.set_defaults(func=cmd_traffic_ace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
