"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — the modeled configuration (the paper's Section 5 setup);
* ``evaluate`` — regenerate the Figure 5 tables and headline numbers;
* ``sweep`` — the Figure 6 sensitivity panels;
* ``demo`` — a one-minute crash/attack/recovery walk-through;
* ``simulate`` — run one workload on one design and dump statistics;
* ``faults run`` — the fault-injection campaign (crash sites x schemes x
  media faults) judged by the differential recovery oracle;
* ``faults sites`` — the catalogue of instrumented crash sites;
* ``crash explore`` — enumerate every crash state ADR semantics permit
  for a recorded persist trace and judge each one's recovery
  (``--classes`` routes the states through the equivalence-class
  reducer); ``crash campaign`` — the standing scheme x workload grid of
  reduced explorations with exhaustive-coverage gates; ``crash
  replay`` / ``crash minimize`` — re-run and delta-debug the replayable
  reproducer artifacts the explorer emits for violations;
* ``traffic ace`` — bounded exhaustive workload enumeration
  (k writes x address-overlap patterns x fence placements, canonical-form
  deduped) with ``--campaign`` running the whole set through the crash
  explorer; ``traffic ingest`` — validate/normalize an external trace
  (CSV/JSONL/Lackey) into the content-addressed trace store; ``traffic
  interleave`` — merge N tenant streams over one memory system with
  per-tenant attribution; ``traffic catalog`` — descriptor schema, ace
  bounds and stored traces;
* ``lint`` — the persistence-domain static analyzer (persist-order
  rules P0-P5, crash-site coverage, scheme contract);
* ``runs status`` / ``runs gc`` — inspect and prune the content-addressed
  result cache the orchestrated commands share.

``evaluate``, ``sweep``, ``faults run`` and ``crash explore`` all submit
through the run orchestrator: ``--jobs N`` fans the grid out over N worker processes,
results are reused from ``.repro-cache/`` when the simulator sources are
unchanged (``--no-cache`` forces re-execution), and interrupted sweeps
resume from their journal.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments
from repro.analysis.report import headline_numbers, ipc_table, write_traffic_table
from repro.common.config import SystemConfig
from repro.core.schemes import SCHEME_LABELS, SCHEMES
from repro.faults.plan import ALL_SITE_NAMES
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
    """Orchestration knobs shared by evaluate/sweep/faults run."""
    return {
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "timeout": args.timeout,
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
    session = None
    if args.report or args.stats_json:
        # The session keeps a handle on the built system, which is how
        # the live stat tree stays reachable after the run.
        from repro.obs import ObsSession

        session = ObsSession()
    trace = spec_trace(args.workload, args.length, args.seed)
    result = run_simulation(args.scheme, trace, obs=session)
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
        print()
        print(session.system.scheme.stats.report())
    if args.stats_json:
        import json

        with open(args.stats_json, "w") as f:
            json.dump(session.system.scheme.stats.as_dict(), f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote statistics JSON to {args.stats_json}")
    return 0


def _obs_session(args: argparse.Namespace, sample_every: int = 0):
    from repro.obs import DEFAULT_CAPACITY, ObsSession

    return ObsSession(
        capacity=args.capacity or DEFAULT_CAPACITY, sample_every=sample_every
    )


def cmd_obs_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import events_to_trace, validate_trace, write_chrome_trace

    session = _obs_session(args)
    trace = spec_trace(args.workload, args.length, args.seed)
    result = run_simulation(args.scheme, trace, obs=session)
    chrome = events_to_trace(
        session.bus.events(),
        process_name=f"repro:{args.scheme}",
        thread_name=args.workload,
    )
    problems = validate_trace(chrome)
    print(f"{result.label} on {result.workload}: {len(session.bus)} event(s), "
          f"{session.bus.dropped} dropped, "
          f"{'valid' if not problems else 'INVALID'} trace")
    for problem in problems[:10]:
        print(f"  {problem}")
    if args.out:
        write_chrome_trace(args.out, chrome)
        print(f"wrote Chrome trace_event JSON to {args.out} "
              f"(open in ui.perfetto.dev or chrome://tracing)")
    else:
        print(json.dumps(chrome, indent=None, separators=(",", ":")))
    return 0 if not problems else 1


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.export import result_from_dict
    from repro.obs import DEFAULT_CAPACITY
    from repro.obs.export import obs_headline_to_json, write_json
    from repro.obs.timeline import TimelineSummary, render_table
    from repro.runs import orchestrate
    from repro.runs.spec import simulation_spec

    obs_params = {"capacity": args.capacity or DEFAULT_CAPACITY, "timeline": True}
    specs = [
        simulation_spec(
            scheme, args.workload, args.length, args.seed, obs=obs_params
        )
        for scheme in args.schemes
    ]
    print(f"obs timeline: {args.workload} x {len(specs)} design(s), "
          f"{args.length} refs (jobs={args.jobs}, "
          f"cache={'off' if args.no_cache else 'on'})")
    report = orchestrate(
        "obs-timeline",
        specs,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        progress=_progress_printer(args),
    )
    report.raise_on_failure()
    summaries = []
    for spec in specs:
        payload = dict(report.payload(spec))
        obs_payload = payload.pop("obs")
        result_from_dict(payload)  # round-trip check: payload stays rebuildable
        summaries.append(TimelineSummary.from_dict(obs_payload["timeline"]))
    print()
    print(render_table(summaries))
    print()
    print(f"orchestration: {report.summary()}")
    if args.json:
        write_json(
            args.json,
            obs_headline_to_json(
                [s.as_dict() for s in summaries], args.workload, args.length
            ),
        )
        print(f"wrote obs headline artifact to {args.json}")
    low = [
        s.scheme
        for s in summaries
        if s.cycle_coverage < 0.95 or s.write_coverage < 0.95
    ]
    if low:
        print(f"attribution below 95% for: {', '.join(low)}")
        return 1
    return 0


def cmd_obs_sample(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import series_to_csv, series_to_json

    session = _obs_session(args, sample_every=args.every)
    trace = spec_trace(args.workload, args.length, args.seed)
    result = run_simulation(args.scheme, trace, obs=session)
    samples = session.samples()
    print(f"{result.label} on {result.workload}: {len(samples)} sample(s) "
          f"every {args.every} cycles "
          f"({session.sampler.dropped} dropped)")
    if args.json:
        text = json.dumps(
            series_to_json(samples, every=args.every), indent=2, sort_keys=True
        ) + "\n"
    else:
        text = series_to_csv(samples)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote time-series to {args.out}")
    else:
        print(text, end="")
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


def cmd_faults_run(args: argparse.Namespace) -> int:
    from repro.faults import CampaignConfig, run_campaign

    cfg = CampaignConfig.smoke() if args.smoke else CampaignConfig()
    overrides = {}
    if args.schemes:
        overrides["schemes"] = tuple(args.schemes)
    if args.sites:
        overrides["sites"] = tuple(args.sites)
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        import dataclasses

        cfg = dataclasses.replace(cfg, **overrides)
    result = run_campaign(
        cfg,
        jobs=args.jobs,
        cache=not args.no_cache,
        timeout=args.timeout,
        progress=_progress_printer(args),
    )
    print(result.summary())
    if args.export:
        import os

        from repro.analysis.export import campaign_to_csv, campaign_to_json

        os.makedirs(args.export, exist_ok=True)
        with open(os.path.join(args.export, "fault_campaign.csv"), "w") as f:
            f.write(campaign_to_csv(result))
        with open(os.path.join(args.export, "fault_campaign.json"), "w") as f:
            f.write(campaign_to_json(result))
        print(f"exported CSV/JSON to {args.export}/")
    return 0 if result.passed else 1


def cmd_faults_sites(args: argparse.Namespace) -> int:
    from repro.faults import SITES, sites_for_scheme

    sites = SITES
    if args.scheme:
        reachable = set(sites_for_scheme(args.scheme))
        sites = tuple(s for s in SITES if s.name in reachable)
    if args.json:
        import json

        print(json.dumps(
            [
                {
                    "name": s.name,
                    "component": s.component,
                    "description": s.description,
                    "schemes": list(s.schemes),
                }
                for s in sites
            ],
            indent=2,
        ))
        return 0
    scope = f" reachable by {args.scheme}" if args.scheme else ""
    print(f"instrumented crash sites (component.step){scope}:")
    for s in sites:
        print(f"  {s.name:26s} [{s.component:8s}] {s.description}")
        print(f"  {'':26s} reached by: {', '.join(s.schemes)}")
    return 0


def cmd_crash_explore(args: argparse.Namespace) -> int:
    from repro.crashsim import ExploreConfig, run_explore
    from repro.crashsim.explore import DEFAULT_SHARDS, DEFAULT_STEPS

    cfg = ExploreConfig(
        schemes=tuple(args.schemes),
        steps=DEFAULT_STEPS if args.steps is None else args.steps,
        window=args.window,
        budget=args.budget,
        seed=args.seed,
        shards=DEFAULT_SHARDS if args.shards is None else args.shards,
        torn_batches=args.torn_batches,
        nested_depth=args.nested_depth,
        profile=args.profile,
        reduce=args.classes,
        spot=args.spot,
    )
    mode = "classes (reduced, exhaustive)" if cfg.reduce else f"budget {cfg.budget}"
    print(f"crash exploration: {', '.join(cfg.schemes)} @ {cfg.steps} steps, "
          f"profile {cfg.profile}, window {cfg.window}, {mode}, seed {cfg.seed} "
          f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})")
    summary, report = run_explore(cfg, **_run_kwargs(args))
    print()
    ok = True
    for scheme, entry in summary["schemes"].items():
        violations = entry["violations"]
        mismatches = entry.get("class_mismatches", [])
        status = (
            "ok"
            if not violations and entry["nested_ok"] and not mismatches
            else "VIOLATED"
        )
        ok = ok and status == "ok"
        outcomes = ", ".join(f"{k}={v}" for k, v in entry["outcomes"].items())
        print(f"  {scheme:14s} {entry['states_evaluated']:5d} states "
              f"({entry['distinct_states']} distinct)  [{outcomes}]  "
              f"{len(violations)} violation(s), "
              f"nested {'ok' if entry['nested_ok'] else 'FAILED'}  -> {status}")
        if cfg.reduce:
            ratio = entry["reduction_ratio"]
            print(f"  {'':14s} {entry['classes']} classes cover "
                  f"{entry['states_covered']} states with "
                  f"{entry['oracle_calls']} oracle calls "
                  f"({ratio if ratio is not None else '-'}x reduction), "
                  f"{len(mismatches)} spot mismatch(es)")
        for v in violations[:5]:
            print(f"      {v['state']}: {'; '.join(v['verdict']['problems'][:2])}")
    print(f"\norchestration: {report.summary()}")
    if args.export:
        from repro.analysis.export import crash_summary_to_json

        with open(args.export, "w") as f:
            f.write(crash_summary_to_json(summary))
        print(f"wrote exploration summary to {args.export}")
    if args.reproducers:
        import json
        import os

        os.makedirs(args.reproducers, exist_ok=True)
        written = 0
        for scheme, entry in summary["schemes"].items():
            for v in entry["violations"]:
                if "reproducer" not in v:
                    continue
                name = v["state"].replace("=", "").replace(",", "_")
                path = os.path.join(args.reproducers, f"{scheme}_{name}.json")
                with open(path, "w") as f:
                    json.dump(v["reproducer"], f, indent=2, sort_keys=True)
                written += 1
        print(f"wrote {written} minimized reproducer(s) to {args.reproducers}/")
    return 0 if ok else 1


def cmd_crash_campaign(args: argparse.Namespace) -> int:
    from repro.crashsim import CrashCampaignConfig, run_campaign
    from repro.crashsim.explore import DEFAULT_SHARDS, DEFAULT_STEPS

    cfg = CrashCampaignConfig(
        schemes=tuple(args.schemes or ()),
        profiles=tuple(args.profiles or ()),
        steps=DEFAULT_STEPS if args.steps is None else args.steps,
        window=args.window,
        seed=args.seed,
        shards=DEFAULT_SHARDS if args.shards is None else args.shards,
        spot=args.spot,
    )
    schemes = cfg.resolved_schemes()
    profiles = cfg.resolved_profiles()
    print(f"crash campaign: {len(schemes)} scheme(s) x {len(profiles)} "
          f"profile(s) @ {cfg.steps} steps, window {cfg.window}, seed "
          f"{cfg.seed}, spot {cfg.spot} "
          f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})")
    summary, report = run_campaign(cfg, **_run_kwargs(args))
    print()
    for scheme in sorted(summary["grid"]):
        for profile, cell in sorted(summary["grid"][scheme].items()):
            bad = (cell["violations"] or cell["class_mismatches"]
                   or cell["sampling_fallbacks"])
            ratio = cell["reduction_ratio"]
            print(f"  {scheme:14s} {profile:12s} "
                  f"{cell['states_covered']:6d} states covered by "
                  f"{cell['oracle_calls']:5d} oracle calls "
                  f"({cell['classes']:4d} classes, "
                  f"{ratio if ratio is not None else '-':>7}x)  "
                  f"{len(cell['violations'])} violation(s)"
                  f"{'  <- CHECK' if bad else ''}")
            for v in cell["violations"][:3]:
                print(f"      {v['state']}: "
                      f"{'; '.join(v['verdict']['problems'][:2])}")
    totals = summary["totals"]
    failures = summary["failures"]
    print(f"\n  totals: {totals['cells']} cells, {totals['covered']} states "
          f"covered, {totals['oracle_calls']} oracle calls "
          f"({totals['reduction_ratio']}x), {totals['classes']} classes, "
          f"{totals['violations']} violation(s), "
          f"{totals['class_mismatches']} class mismatch(es), "
          f"{totals['sampling_fallbacks']} sampling fallback(s), "
          f"{len(failures)} failed shard(s)")
    for failure in failures[:5]:
        print(f"      FAILED {failure['scheme']}/{failure['profile']} "
              f"shard {failure['shard']}: {failure['error']}")
    print(f"orchestration: {report.summary()}")
    if args.json:
        from repro.analysis.export import campaign_summary_to_json

        with open(args.json, "w") as f:
            f.write(campaign_summary_to_json(summary))
        print(f"wrote campaign summary to {args.json}")
    if args.reproducers:
        import json
        import os

        os.makedirs(args.reproducers, exist_ok=True)
        written = 0
        for scheme in summary["grid"]:
            for profile, cell in summary["grid"][scheme].items():
                for v in cell["violations"]:
                    if "reproducer" not in v:
                        continue
                    name = v["state"].replace("=", "").replace(",", "_")
                    path = os.path.join(
                        args.reproducers, f"{scheme}_{profile}_{name}.json"
                    )
                    with open(path, "w") as f:
                        json.dump(v["reproducer"], f, indent=2, sort_keys=True)
                    written += 1
        print(f"wrote {written} minimized reproducer(s) to {args.reproducers}/")
    problems = []
    if totals["violations"]:
        problems.append(f"{totals['violations']} violation(s)")
    if totals["class_mismatches"]:
        problems.append(f"{totals['class_mismatches']} class mismatch(es)")
    if totals["sampling_fallbacks"]:
        problems.append(
            f"{totals['sampling_fallbacks']} sampling fallback(s) "
            "(coverage not exhaustive)"
        )
    if failures:
        problems.append(f"{len(failures)} failed shard(s)")
    if args.min_classes and totals["classes"] < args.min_classes:
        problems.append(
            f"only {totals['classes']} classes (< --min-classes "
            f"{args.min_classes})"
        )
    if problems:
        print(f"campaign FAILED: {', '.join(problems)}")
        return 1
    print("campaign ok: exhaustive coverage, no violations")
    return 0


def _load_reproducer(path: str):
    from repro.analysis.export import reproducer_from_json

    with open(path) as f:
        return reproducer_from_json(f.read())


def cmd_crash_replay(args: argparse.Namespace) -> int:
    from repro.crashsim import replay

    repro_artifact = _load_reproducer(args.file)
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

    repro_artifact = _load_reproducer(args.file)
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


def _traffic_gate(summary: dict) -> list[str]:
    """The ace-campaign pass/fail gates (same bar as ``crash campaign``)."""
    totals = summary["totals"]
    problems = []
    if totals["violations"]:
        problems.append(f"{totals['violations']} violation(s)")
    if totals["class_mismatches"]:
        problems.append(f"{totals['class_mismatches']} class mismatch(es)")
    if totals["sampling_fallbacks"]:
        problems.append(
            f"{totals['sampling_fallbacks']} sampling fallback(s) "
            "(coverage not exhaustive)"
        )
    if summary["failures"]:
        problems.append(f"{len(summary['failures'])} failed shard(s)")
    return problems


def cmd_traffic_ace(args: argparse.Namespace) -> int:
    from repro.trafficgen.ace import (
        ace_campaign_config,
        enumeration_stats,
        enumerate_ace,
    )

    stats = enumeration_stats(args.k)
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
    from repro.crashsim import run_campaign

    cfg = ace_campaign_config(
        args.k, schemes=tuple(args.schemes or ()), seed=args.seed,
        spot=args.spot,
    )
    schemes = cfg.resolved_schemes()
    print(f"ace crash campaign: {len(schemes)} scheme(s) x "
          f"{len(cfg.profiles)} workload(s), seed {cfg.seed} "
          f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})")
    summary, report = run_campaign(cfg, **_run_kwargs(args))
    totals = summary["totals"]
    print(f"\n  totals: {totals['cells']} cells, {totals['covered']} states "
          f"covered, {totals['oracle_calls']} oracle calls, "
          f"{totals['violations']} violation(s), "
          f"{totals['sampling_fallbacks']} sampling fallback(s)")
    for scheme in sorted(summary["grid"]):
        cells = summary["grid"][scheme]
        violations = sum(len(c["violations"]) for c in cells.values())
        covered = sum(c["states_covered"] for c in cells.values())
        print(f"  {scheme:14s} {len(cells):4d} workloads, "
              f"{covered:6d} states covered, {violations} violation(s)")
        for profile, cell in sorted(cells.items()):
            for v in cell["violations"][:2]:
                print(f"      {profile} {v['state']}: "
                      f"{'; '.join(v['verdict']['problems'][:2])}")
    print(f"orchestration: {report.summary()}")
    if args.json:
        from repro.analysis.export import campaign_summary_to_json

        with open(args.json, "w") as f:
            f.write(campaign_summary_to_json(summary))
        print(f"wrote ace campaign summary to {args.json}")
    problems = _traffic_gate(summary)
    if problems:
        print(f"ace campaign FAILED: {', '.join(problems)}")
        return 1
    print(f"ace campaign ok: every bounded workload recovered on every "
          f"scheme ({stats['dedup_ratio']}x canonical-form dedup)")
    return 0


def _traffic_bench(args: argparse.Namespace, descriptors: list) -> int:
    """Shared --run/--json tail of ingest and interleave."""
    from repro.analysis.traffic import traffic_document, traffic_document_to_json

    if not args.run:
        return 0
    document, report = traffic_document(
        descriptors, schemes=tuple(args.schemes), length=args.length,
        seed=args.seed, **_run_kwargs(args),
    )
    print()
    for label in sorted(document["results"]):
        for scheme, row in document["results"][label].items():
            print(f"  {label:28s} {scheme:14s} ipc={row['ipc']:.3f} "
                  f"nvm_writes={row['nvm_writes']}")
    print(f"orchestration: {report.summary()}")
    if args.json:
        with open(args.json, "w") as f:
            f.write(traffic_document_to_json(document))
        print(f"wrote traffic bench document to {args.json}")
    return 0


def cmd_traffic_ingest(args: argparse.Namespace) -> int:
    import os

    from repro.trafficgen.ingest import STORE_ENV, TraceFormatError, TraceStore

    store = TraceStore(args.store)
    if args.store:
        # Pool workers resolve trace digests through the environment;
        # an explicit --store must reach them too.
        os.environ[STORE_ENV] = str(store.root)
    try:
        descriptor = store.ingest(
            args.file, fmt=args.format, name=args.name,
            footprint=args.footprint, base=0,
        )
    except TraceFormatError as exc:
        print(f"trace rejected: {exc}", file=sys.stderr)
        return 1
    print(f"ingested {args.file} ({args.format}): "
          f"{descriptor['records']} reference(s) -> "
          f"{store.trace_path(descriptor['digest'])}")
    return _traffic_bench(args, [descriptor])


def _parse_tenant(text: str) -> dict:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise SystemExit(
            f"bad --tenant {text!r} (want name:profile[:weight])"
        )
    tenant = {"name": parts[0], "profile": parts[1]}
    if len(parts) == 3:
        try:
            tenant["weight"] = float(parts[2])
        except ValueError:
            raise SystemExit(f"bad --tenant weight in {text!r}") from None
    return tenant


def cmd_traffic_interleave(args: argparse.Namespace) -> int:
    from repro.trafficgen.descriptor import (
        descriptor_label,
        interleave_descriptor,
    )
    from repro.trafficgen.interleave import interleave_attribution

    try:
        descriptor = interleave_descriptor(
            [_parse_tenant(t) for t in args.tenant],
            policy=args.policy, burst=args.burst,
        )
    except ValueError as exc:
        print(f"bad interleave: {exc}", file=sys.stderr)
        return 1
    attribution = interleave_attribution(descriptor, args.length, args.seed)
    print(f"interleave {descriptor_label(descriptor)}: "
          f"{len(descriptor['tenants'])} tenant(s), policy {args.policy}")
    for name, row in attribution["tenants"].items():
        low, high = row["range"]
        print(f"  {name:12s} weight={row['weight']:<5g} "
              f"share={row['share']:<7g} refs={row['references']:<7d} "
              f"writes={row['writes']:<6d} lines={row['distinct_lines']:<6d} "
              f"range=[{low:#x},{high:#x})")
    return _traffic_bench(args, [descriptor])


def cmd_traffic_catalog(args: argparse.Namespace) -> int:
    import json

    from repro.trafficgen.ace import MAX_K, enumeration_stats
    from repro.trafficgen.descriptor import DESCRIPTOR_KINDS, SCHEMA_VERSION
    from repro.trafficgen.ingest import TraceStore

    store = TraceStore(args.store)
    entries = store.catalog()
    if args.json:
        print(json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "descriptor_kinds": list(DESCRIPTOR_KINDS),
                "ace": [enumeration_stats(k) for k in range(1, MAX_K + 1)],
                "store": {"root": str(store.root), "traces": entries},
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"workload descriptor schema v{SCHEMA_VERSION}; "
          f"kinds: {', '.join(DESCRIPTOR_KINDS)}")
    print("\nace enumeration bounds:")
    print(f"  {'k':>2} {'raw':>10} {'canonical':>10} {'dedup':>7}")
    for k in range(1, MAX_K + 1):
        stats = enumeration_stats(k)
        print(f"  {k:>2} {stats['raw_workloads']:>10} "
              f"{stats['canonical_workloads']:>10} "
              f"{stats['dedup_ratio']:>6}x")
    print(f"\ntrace store at {store.root}: {len(entries)} trace(s)")
    for meta in entries:
        print(f"  {meta['digest'][:12]}  {meta['name']:24s} "
              f"{meta['records']:>9d} refs  ({meta['source']})")
    return 0


def cmd_runs_status(args: argparse.Namespace) -> int:
    import json

    from repro.runs import ResultCache

    cache = ResultCache(args.root)
    status = cache.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
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


def cmd_lint(args: argparse.Namespace) -> int:
    import sys
    from pathlib import Path

    import repro
    from repro.lint import LintConfig, run_lint, write_baseline

    root = Path(args.root) if args.root else Path(repro.__file__).resolve().parent
    base_dir = root.parent
    if args.baseline:
        baseline = Path(args.baseline)
    else:
        candidates = (
            Path.cwd() / "lint-baseline.txt",
            base_dir.parent / "lint-baseline.txt",
        )
        baseline = next((c for c in candidates if c.exists()), None)
    if args.design:
        design = Path(args.design)
    else:
        # Anchor validation (B0) wants the DESIGN.md that travels with
        # the baseline; skip it when linting a bare tree without one.
        candidate = baseline.parent / "DESIGN.md" if baseline else None
        design = candidate if candidate is not None and candidate.exists() else None
    config = LintConfig(
        root=root, base_dir=base_dir, baseline_path=baseline, design_path=design
    )
    report = run_lint(config)
    if args.update_baseline:
        target = Path(args.baseline) if args.baseline else Path.cwd() / "lint-baseline.txt"
        count = write_baseline(report, target)
        print(f"wrote {count} baseline entr(y/ies) to {target}")
        return 0
    if args.json:
        from repro.analysis.export import lint_to_json

        print(lint_to_json(report))
    else:
        print(report.render_text())
    print(f"analyzer runtime: {report.duration_seconds:.2f}s", file=sys.stderr)
    exit_code = 0 if report.ok(strict=args.strict) else 1

    if args.cross_check:
        import json

        from repro.lint.crosscheck import cross_check
        from repro.lint.model import build_model

        model = build_model(config.root, config.base_dir)
        xcheck = cross_check(model, config)
        print(xcheck.render_text())
        if args.cross_check_out:
            out = Path(args.cross_check_out)
            out.write_text(
                json.dumps(xcheck.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"cross-check site diff written to {out}", file=sys.stderr)
        if not xcheck.ok:
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="cc-NVM (DAC 2019) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the modeled configuration").set_defaults(
        func=cmd_info
    )

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="always re-execute; skip the on-disk result cache")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-spec wall-clock budget (parallel runs only)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-spec progress lines")

    evaluate = sub.add_parser("evaluate", help="regenerate Figure 5")
    evaluate.add_argument("--length", type=int, default=4000)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--export", metavar="DIR", default=None,
                          help="also write CSV/JSON figure data into DIR")
    evaluate.add_argument("--json", metavar="FILE", default=None,
                          help="write the BENCH_fig5.json benchmark artifact")
    add_run_options(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = sub.add_parser("sweep", help="regenerate Figure 6")
    sweep.add_argument("--length", type=int, default=3000)
    sweep.add_argument("--seed", type=int, default=1)
    add_run_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser("simulate", help="run one workload on one design")
    simulate.add_argument("workload", choices=SPEC_ORDER)
    simulate.add_argument("--scheme", default="ccnvm", choices=sorted(SCHEME_LABELS))
    simulate.add_argument("--length", type=int, default=4000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--report", action="store_true",
                          help="print the full nested statistics report")
    simulate.add_argument("--stats-json", metavar="FILE", default=None,
                          help="write the statistics tree as JSON to FILE")
    simulate.set_defaults(func=cmd_simulate)

    obs = sub.add_parser(
        "obs", help="observability: event traces, timelines, time-series"
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)

    def add_obs_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--length", type=int, default=4000)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--capacity", type=int, default=None, metavar="N",
                       help="event ring-buffer budget (default 1M events); "
                            "oldest events are dropped beyond it")

    otrace = osub.add_parser(
        "trace", help="capture one run's event stream as a Chrome/Perfetto trace"
    )
    otrace.add_argument("workload", choices=SPEC_ORDER)
    otrace.add_argument("--scheme", default="ccnvm", choices=sorted(SCHEME_LABELS))
    add_obs_options(otrace)
    otrace.add_argument("--out", metavar="FILE", default=None,
                        help="write trace_event JSON to FILE (default stdout)")
    otrace.set_defaults(func=cmd_obs_trace)

    otimeline = osub.add_parser(
        "timeline", help="per-phase cycle/NVM-write attribution across designs"
    )
    otimeline.add_argument("workload", choices=SPEC_ORDER)
    otimeline.add_argument("--schemes", nargs="+", metavar="SCHEME",
                           choices=sorted(SCHEME_LABELS),
                           default=list(SCHEME_LABELS))
    add_obs_options(otimeline)
    otimeline.add_argument("--json", metavar="FILE", default=None,
                           help="write the BENCH_obs_headline.json artifact")
    add_run_options(otimeline)
    otimeline.set_defaults(func=cmd_obs_timeline)

    osample = osub.add_parser(
        "sample", help="interval-sampled stat deltas as a time-series"
    )
    osample.add_argument("workload", choices=SPEC_ORDER)
    osample.add_argument("--scheme", default="ccnvm", choices=sorted(SCHEME_LABELS))
    osample.add_argument("--every", type=int, default=1000, metavar="K",
                         help="sampling interval in cycles (default 1000)")
    add_obs_options(osample)
    osample.add_argument("--out", metavar="FILE", default=None,
                         help="write the series to FILE (default stdout)")
    osample.add_argument("--json", action="store_true",
                         help="emit the JSON series instead of CSV")
    osample.set_defaults(func=cmd_obs_sample)

    sub.add_parser("demo", help="crash/attack/recovery walk-through").set_defaults(
        func=cmd_demo
    )

    faults = sub.add_parser("faults", help="fault-injection campaigns")
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    frun = fsub.add_parser(
        "run", help="sweep crash sites x schemes under the recovery oracle"
    )
    frun.add_argument("--smoke", action="store_true",
                      help="CI-sized campaign (two schemes, short workload)")
    frun.add_argument("--schemes", nargs="+", metavar="SCHEME",
                      choices=sorted(SCHEME_LABELS), default=None)
    frun.add_argument("--sites", nargs="+", metavar="SITE", default=None,
                      choices=ALL_SITE_NAMES,
                      help="restrict the sweep to these crash sites")
    frun.add_argument("--steps", type=int, default=None,
                      help="write-backs in the main workload loop")
    frun.add_argument("--seed", type=int, default=None)
    frun.add_argument("--export", metavar="DIR", default=None,
                      help="also write campaign CSV/JSON into DIR")
    add_run_options(frun)
    frun.set_defaults(func=cmd_faults_run)
    fsites = fsub.add_parser("sites", help="list the instrumented crash sites")
    fsites.add_argument("--scheme", default=None, choices=sorted(SCHEME_LABELS),
                        help="only the sites this design's execution can reach")
    fsites.add_argument("--json", action="store_true",
                        help="emit the machine-readable catalogue")
    fsites.set_defaults(func=cmd_faults_sites)

    crash = sub.add_parser(
        "crash", help="systematic crash-state exploration (ADR semantics)"
    )
    csub = crash.add_subparsers(dest="crash_command", required=True)
    cexplore = csub.add_parser(
        "explore",
        help="enumerate every ADR-permitted crash state and judge recovery",
    )
    cexplore.add_argument("--schemes", nargs="+", metavar="SCHEME",
                          choices=sorted(SCHEME_LABELS), default=["ccnvm"])
    cexplore.add_argument("--steps", type=int, default=None,
                          help="write-backs in the recorded workload "
                               "(default: the smoke budget)")
    cexplore.add_argument("--window", type=int, default=4,
                          help="in-flight reordering window (units)")
    cexplore.add_argument("--budget", type=int, default=16,
                          help="drop-set budget per crash point; exhaustive "
                               "below it, seeded sampling above")
    cexplore.add_argument("--seed", type=int, default=7)
    cexplore.add_argument("--shards", type=int, default=None,
                          help="enumerate cells per scheme (default 4)")
    cexplore.add_argument("--torn-batches", action="store_true",
                          help="also emit protocol-violating partially-applied "
                               "batches (demonstrates oracle sensitivity)")
    cexplore.add_argument("--nested-depth", type=int, default=2, choices=(1, 2),
                          help="crash-during-recovery schedule depth")
    cexplore.add_argument("--profile", default="hotset",
                          help="recording workload: 'hotset' or a Figure-5 "
                               "SPEC surrogate name")
    cexplore.add_argument("--classes", action="store_true",
                          help="route states through the equivalence-class "
                               "reducer: exhaustive drop-sets (budget "
                               "ignored), one oracle run per class")
    cexplore.add_argument("--spot", type=int, default=1,
                          help="passing-class witnesses spot-checked against "
                               "the representative (reduce mode)")
    cexplore.add_argument("--export", metavar="FILE", default=None,
                          help="write the JSON exploration summary to FILE")
    cexplore.add_argument("--reproducers", metavar="DIR", default=None,
                          help="write minimized reproducer JSON artifacts "
                               "into DIR")
    add_run_options(cexplore)
    cexplore.set_defaults(func=cmd_crash_explore)
    ccampaign = csub.add_parser(
        "campaign",
        help="the standing exhaustive campaign: scheme x workload grid of "
             "reduced (class-covered) explorations",
    )
    ccampaign.add_argument("--schemes", nargs="+", metavar="SCHEME",
                           choices=sorted(SCHEME_LABELS), default=None,
                           help="grid rows (default: every scheme)")
    ccampaign.add_argument("--profiles", nargs="+", metavar="PROFILE",
                           default=None,
                           help="grid columns (default: hotset plus every "
                                "Figure-5 surrogate)")
    ccampaign.add_argument("--steps", type=int, default=None,
                           help="write-backs per recorded workload "
                                "(default: the smoke budget)")
    ccampaign.add_argument("--window", type=int, default=4,
                           help="in-flight reordering window (units)")
    ccampaign.add_argument("--seed", type=int, default=7)
    ccampaign.add_argument("--shards", type=int, default=None,
                           help="enumerate cells per grid cell (default 4)")
    ccampaign.add_argument("--spot", type=int, default=1,
                           help="passing-class witnesses spot-checked per "
                                "class")
    ccampaign.add_argument("--min-classes", type=int, default=0,
                           help="fail unless the campaign distinguishes at "
                                "least this many classes in total")
    ccampaign.add_argument("--json", metavar="FILE", default=None,
                           help="write the JSON campaign summary (grid, "
                                "class tables, totals) to FILE")
    ccampaign.add_argument("--reproducers", metavar="DIR", default=None,
                           help="write minimized reproducer JSON artifacts "
                                "into DIR")
    add_run_options(ccampaign)
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
        help="the workload frontier: ace enumeration, trace ingestion, "
             "multi-tenant interleaving",
    )
    tsub = traffic.add_subparsers(dest="traffic_command", required=True)

    def add_bench_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--run", action="store_true",
                       help="run the workload on --schemes and print the "
                            "traffic bench results")
        p.add_argument("--schemes", nargs="+", metavar="S",
                       choices=sorted(SCHEMES),
                       default=["no_cc", "sc", "osiris_plus", "ccnvm_no_ds",
                                "ccnvm"],
                       help="designs for --run (default: the Figure-5 five)")
        p.add_argument("--length", type=int, default=20000,
                       help="references per run (default 20000)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--json", metavar="FILE", default=None,
                       help="write the traffic bench document to FILE")
        add_run_options(p)

    tace = tsub.add_parser(
        "ace",
        help="bounded exhaustive workload enumeration for the crash explorer",
    )
    tace.add_argument("--k", type=int, default=3,
                      help="writes per workload (default 3)")
    tace.add_argument("--list", action="store_true",
                      help="print every canonical workload profile name")
    tace.add_argument("--campaign", action="store_true",
                      help="run the full enumeration through the crash "
                           "explorer with exhaustive-coverage gates")
    tace.add_argument("--schemes", nargs="+", metavar="S", default=None,
                      choices=sorted(SCHEMES),
                      help="restrict the campaign (default: all schemes)")
    tace.add_argument("--seed", type=int, default=7)
    tace.add_argument("--spot", type=int, default=1,
                      help="witness spot checks per passing class")
    tace.add_argument("--json", metavar="FILE", default=None,
                      help="write the campaign summary document to FILE")
    add_run_options(tace)
    tace.set_defaults(func=cmd_traffic_ace)

    tingest = tsub.add_parser(
        "ingest", help="validate + normalize an external trace into the store"
    )
    tingest.add_argument("file", help="trace file (CSV/JSONL/Lackey)")
    tingest.add_argument("--format", choices=["csv", "jsonl", "lackey"],
                         default="csv")
    tingest.add_argument("--name", default=None,
                         help="workload name (default: the file stem)")
    tingest.add_argument("--store", default=None, metavar="DIR",
                         help="trace store root (default .repro-traffic or "
                              "$CCNVM_TRAFFIC_STORE)")
    tingest.add_argument("--footprint", type=int, default=16 << 20,
                         help="footprint addresses are folded into "
                              "(default 16 MiB)")
    add_bench_options(tingest)
    tingest.set_defaults(func=cmd_traffic_ingest)

    tinterleave = tsub.add_parser(
        "interleave", help="merge N tenant streams over one memory system"
    )
    tinterleave.add_argument("--tenant", action="append", required=True,
                             metavar="NAME:PROFILE[:WEIGHT]",
                             help="one tenant (repeat; at least 2)")
    tinterleave.add_argument("--policy",
                             choices=["round_robin", "weighted", "bursty"],
                             default="round_robin")
    tinterleave.add_argument("--burst", type=int, default=8,
                             help="max burst length for --policy bursty")
    add_bench_options(tinterleave)
    tinterleave.set_defaults(func=cmd_traffic_interleave)

    tcatalog = tsub.add_parser(
        "catalog", help="descriptor schema, ace bounds and stored traces"
    )
    tcatalog.add_argument("--store", default=None, metavar="DIR")
    tcatalog.add_argument("--json", action="store_true",
                          help="emit the machine-readable catalog")
    tcatalog.set_defaults(func=cmd_traffic_catalog)

    lint = sub.add_parser("lint", help="persistence-domain static analysis")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="tree to analyze (default: the installed repro package)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="accepted-findings file "
                           "(default: ./lint-baseline.txt when present)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")
    lint.add_argument("--strict", action="store_true",
                      help="also fail on stale baseline entries")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings "
                           "(existing justification anchors are preserved)")
    lint.add_argument("--design", default=None, metavar="FILE",
                      help="DESIGN.md holding {#anchor} baseline "
                           "justifications (default: next to the baseline)")
    lint.add_argument("--cross-check", action="store_true",
                      help="replay a smoke persist trace and diff dynamic "
                           "persist sites against the static set")
    lint.add_argument("--cross-check-out", default=None, metavar="FILE",
                      help="write the static/dynamic site diff as JSON")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
