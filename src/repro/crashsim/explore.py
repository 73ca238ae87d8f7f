"""The explorer driver: fan crash-state enumeration through the orchestrator.

A full exploration of one scheme is embarrassingly parallel but far too
big for one cacheable unit, so it is cut into **cells**, each a
:class:`~repro.runs.spec.RunSpec` of the new ``crash`` kind:

* ``enumerate`` cells shard the trace's crash points by residue class
  (``k % shards == shard``).  Every worker regenerates the identical
  deterministic trace — specs stay tiny, exactly like the simulation
  specs that ship workload recipes instead of traces — expands its own
  points, runs the oracle on each state, and returns distinct
  image hashes, an outcome histogram and (minimized) violations;
* ``nested`` cells take the full-trace state and crash *recovery
  itself* at one scheduled recovery site (depth 1) or two in sequence
  (depth 2), exercising the restartable ``recovery_pending`` path.

Because cells run through :func:`repro.runs.orchestrate`, explorations
are content-cached (a warm re-run executes nothing), journaled,
resumable and parallel.  The merged summary is deliberately free of
timings and orchestration counts, so a serial run and a ``--jobs 2``
run of the same exploration produce byte-identical JSON.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.faults.plan import RECOVERY_SITES

#: Smoke-budget defaults: small enough for CI, large enough that every
#: scheme clears over 200 distinct states (measured floor at 96 steps:
#: 255, for the schemes whose epochs dedupe most aggressively).
DEFAULT_STEPS = 96
DEFAULT_SHARDS = 4
#: Violations minimized per cell; the rest ship unminimized (a cell
#: drowning in violations is already actionable from the first few).
MAX_MINIMIZE = 3


def _check_shape(shards: int, spot: int) -> None:
    """Reject shapes that would enumerate nothing (or spot-check < 0)."""
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if spot < 0:
        raise ValueError(f"spot must be at least 0, got {spot}")


@dataclass(frozen=True)
class ExploreConfig:
    """Shape of one exploration."""

    schemes: tuple[str, ...] = ("ccnvm",)
    steps: int = DEFAULT_STEPS
    window: int = 4
    budget: int = 16
    seed: int = 7
    shards: int = DEFAULT_SHARDS
    data_capacity: int = 1 << 16
    #: Emit partially-applied batch states (protocol-violating; used to
    #: demonstrate the oracle catches ordering bugs).
    torn_batches: bool = False
    #: Nested crash-during-recovery schedules per recovery site (1..2).
    nested_depth: int = 2
    #: Recording workload profile ('hotset' or a Figure-5 SPEC surrogate).
    profile: str = "hotset"
    #: Route enumeration through the equivalence-class reducer
    #: (``crashsim.reduce``): exhaustive drop-sets, one oracle run per
    #: class, witness verdict attribution.
    reduce: bool = False
    #: Passing-class witnesses spot-checked against the representative.
    spot: int = 1

    def __post_init__(self) -> None:
        _check_shape(self.shards, self.spot)


def record_trace(scheme_name: str, cfg: ExploreConfig):
    """Deterministically rebuild the persist trace for one scheme."""
    from repro.core.schemes import create_scheme
    from repro.crashsim.workload import record_workload

    scheme = create_scheme(
        scheme_name, data_capacity=cfg.data_capacity, seed=cfg.seed
    )
    return scheme, record_workload(
        scheme, cfg.steps, cfg.seed, profile=cfg.profile
    )


def _cell_config(spec) -> ExploreConfig:
    p = spec.params
    return ExploreConfig(
        schemes=(spec.scheme,),
        steps=p["steps"],
        window=p.get("window", 4),
        budget=p.get("budget", 16),
        seed=spec.seed,
        shards=p.get("shards", 1),
        data_capacity=p["data_capacity"],
        torn_batches=p.get("torn", False),
        profile=p.get("profile", "hotset"),
        reduce=p.get("reduce", False),
        spot=p.get("spot", 1),
    )


def _violation_entry(state, verdict, reproducer=None) -> dict:
    entry = {
        "state": state.describe(),
        "k": state.k,
        "dropped": list(state.dropped),
        "torn": state.torn,
        "verdict": verdict.to_dict(),
    }
    if reproducer is not None:
        entry["reproducer"] = reproducer.to_dict()
    return entry


def _minimize_violation(spec, cfg, trace, oracle, state, verdict):
    from repro.crashsim.enumerate import applied_ops, build_state
    from repro.crashsim.minimize import from_state, minimize

    ops = applied_ops(trace, state)
    minimal = minimize(trace, ops, oracle, verdict.signature())
    final = oracle.evaluate(build_state(trace, minimal))
    return from_state(
        trace,
        minimal,
        final,
        description=(
            f"{spec.scheme} crash state {state.describe()} minimized "
            f"from {len(ops)} to {len(minimal)} persist micro-ops"
        ),
        data_capacity=cfg.data_capacity,
    )


def run_enumerate_cell(spec) -> dict:
    """Execute one ``enumerate`` shard; returns a JSON-able payload.

    In *reduce* mode the shard routes every state through the
    equivalence-class machinery: drop-sets are expanded exhaustively
    (never sampled), one oracle run covers each class, violating classes
    fall back to per-witness evaluation and pinned-drop variants of
    violating states are materialized — violation findings stay
    byte-identical to a brute-force run's, verdict for verdict.
    """
    from repro.crashsim.enumerate import CrashEnumerator
    from repro.crashsim.oracle import ClassOracle, RecoveryOracle
    from repro.crashsim.reduce import (
        CrashStateReducer,
        ReducedEnumerator,
        materialize,
        pin_variants,
    )

    cfg = _cell_config(spec)
    shard = spec.params["shard"]
    shards = spec.params["shards"]
    _, trace = record_trace(spec.scheme, cfg)
    oracle = RecoveryOracle(
        spec.scheme, data_capacity=cfg.data_capacity, seed=cfg.seed
    )
    if cfg.reduce:
        reducer = CrashStateReducer(
            trace, spec.scheme, cfg.data_capacity, cfg.seed
        )
        enumerator = ReducedEnumerator(
            trace,
            reducer,
            window=cfg.window,
            seed=cfg.seed,
            torn_batches=cfg.torn_batches,
        )
        class_oracle = ClassOracle(oracle, reducer, spot=cfg.spot)
    else:
        enumerator = CrashEnumerator(
            trace,
            window=cfg.window,
            budget=cfg.budget,
            seed=cfg.seed,
            torn_batches=cfg.torn_batches,
        )
        class_oracle = None
    hashes: set[str] = set()
    outcomes: Counter[str] = Counter()
    violations: list[dict] = []
    evaluated = 0
    minimized = 0
    for state in enumerator.states(points=lambda k: k % shards == shard):
        evaluated += 1
        hashes.add(state.image_hash())
        if class_oracle is None:
            weight = 1
            verdict = oracle.evaluate(state)
        else:
            weight = 1 if state.torn is not None else enumerator.weight(state.k)
            verdict, _role = class_oracle.submit(state, weight=weight)
        if verdict.ok:
            outcomes[verdict.outcome] += weight
            continue
        outcomes[verdict.outcome] += 1
        reproducer = None
        if minimized < MAX_MINIMIZE:
            minimized += 1
            reproducer = _minimize_violation(
                spec, cfg, trace, oracle, state, verdict
            )
        violations.append(_violation_entry(state, verdict, reproducer))
        if class_oracle is not None and state.torn is None:
            # A violating state forfeits its pin weight: every pinned
            # variant it stood for is materialized and judged for real.
            for vdrop in pin_variants(state, enumerator.pins.get(state.k, ())):
                vstate = materialize(trace, state.k, vdrop)
                hashes.add(vstate.image_hash())
                vverdict = class_oracle.evaluate_raw(vstate)
                outcomes[vverdict.outcome] += 1
                if not vverdict.ok:
                    violations.append(_violation_entry(vstate, vverdict))
    payload = {
        "mode": "enumerate",
        "scheme": spec.scheme,
        "profile": cfg.profile,
        "shard": shard,
        "shards": shards,
        "trace_units": len(trace.units),
        "trace_ops": trace.op_count,
        "evaluated": evaluated,
        "states": sorted(hashes),
        "outcomes": dict(sorted(outcomes.items())),
        "violations": violations,
        "sampling": dict(enumerator.sample_stats),
    }
    if class_oracle is not None:
        payload["reduce"] = True
        payload["covered"] = sum(outcomes.values())
        payload["oracle_calls"] = class_oracle.calls
        payload["classes"] = class_oracle.class_table()
        payload["class_mismatches"] = list(class_oracle.mismatches)
    return payload


def _nested_schedule(site: str, depth: int) -> list[tuple[str, int]]:
    """Depth-1 crashes once at *site*; depth-2 adds a second crash at
    the next recovery site (cyclic), landing inside the *restarted* run."""
    sites = sorted(RECOVERY_SITES)
    schedule = [(site, 1)]
    if depth >= 2:
        schedule.append((sites[(sites.index(site) + 1) % len(sites)], 1))
    return schedule


def run_nested_cell(spec) -> dict:
    """Execute one nested crash-during-recovery schedule."""
    from repro.crashsim.enumerate import applied_ops, build_state
    from repro.crashsim.oracle import RecoveryOracle

    cfg = _cell_config(spec)
    site = spec.params["site"]
    depth = spec.params["depth"]
    _, trace = record_trace(spec.scheme, cfg)
    state = build_state(trace, applied_ops(trace, (len(trace.units), (), None)))
    oracle = RecoveryOracle(
        spec.scheme, data_capacity=cfg.data_capacity, seed=cfg.seed
    )
    schedule = _nested_schedule(site, depth)
    verdict = oracle.evaluate(state, schedule)
    return {
        "mode": "nested",
        "scheme": spec.scheme,
        "site": site,
        "depth": depth,
        "schedule": [[s, h] for s, h in schedule],
        "verdict": verdict.to_dict(),
    }


def execute_cell(spec) -> dict:
    """Worker entry point for ``crash``-kind specs (see ``runs.pool``)."""
    mode = spec.params.get("mode")
    if mode == "enumerate":
        return run_enumerate_cell(spec)
    if mode == "nested":
        return run_nested_cell(spec)
    raise ValueError(f"unknown crash cell mode {mode!r}")


def explore_specs(cfg: ExploreConfig) -> list:
    """The cell decomposition of one exploration, as run specs."""
    from repro.runs import RunSpec

    base = {
        "steps": cfg.steps,
        "window": cfg.window,
        "budget": cfg.budget,
        "data_capacity": cfg.data_capacity,
    }
    if cfg.profile != "hotset":
        base["profile"] = cfg.profile
    specs = []
    for scheme in cfg.schemes:
        for shard in range(cfg.shards):
            params = dict(
                base, mode="enumerate", shard=shard, shards=cfg.shards
            )
            if cfg.torn_batches:
                params["torn"] = True
            if cfg.reduce:
                params["reduce"] = True
                params["spot"] = cfg.spot
            specs.append(
                RunSpec(kind="crash", scheme=scheme, seed=cfg.seed, params=params)
            )
        for site in sorted(RECOVERY_SITES):
            for depth in range(1, cfg.nested_depth + 1):
                specs.append(
                    RunSpec(
                        kind="crash",
                        scheme=scheme,
                        seed=cfg.seed,
                        params=dict(base, mode="nested", site=site, depth=depth),
                    )
                )
    return specs


def run_explore(
    cfg: ExploreConfig | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_root=None,
    timeout: float | None = None,
    progress=None,
):
    """Run one exploration; returns ``(summary, RunReport)``.

    The summary dict is pure content (no timings, no cache counters):
    the same exploration summarizes byte-identically whether it ran
    serially, pooled, or entirely from cache.  Orchestration accounting
    lives in the returned :class:`~repro.runs.orchestrate.RunReport`.
    """
    from repro.runs import orchestrate

    cfg = cfg or ExploreConfig()
    specs = explore_specs(cfg)
    report = orchestrate(
        "crash-explore",
        specs,
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
        timeout=timeout,
        progress=progress,
    )
    report.raise_on_failure()

    schemes: dict[str, dict] = {}
    for spec in specs:
        payload = report.payload(spec)
        entry = schemes.setdefault(
            spec.scheme,
            {
                "distinct_states": set(),
                "evaluated": 0,
                "trace_units": 0,
                "outcomes": Counter(),
                "violations": [],
                "nested": {},
                "sampling": Counter(),
                "covered": 0,
                "oracle_calls": 0,
                "class_tables": [],
                "class_mismatches": [],
            },
        )
        if payload["mode"] == "enumerate":
            entry["distinct_states"].update(payload["states"])
            entry["evaluated"] += payload["evaluated"]
            entry["trace_units"] = payload["trace_units"]
            entry["outcomes"].update(payload["outcomes"])
            entry["violations"].extend(payload["violations"])
            entry["sampling"].update(payload.get("sampling", {}))
            if payload.get("reduce"):
                entry["covered"] += payload["covered"]
                entry["oracle_calls"] += payload["oracle_calls"]
                entry["class_tables"].append(payload["classes"])
                entry["class_mismatches"].extend(payload["class_mismatches"])
        else:
            entry["nested"].setdefault(payload["site"], []).append(
                {
                    "depth": payload["depth"],
                    "schedule": payload["schedule"],
                    "outcome": payload["verdict"]["outcome"],
                    "fired_sites": payload["verdict"]["fired_sites"],
                    "problems": payload["verdict"]["problems"],
                }
            )

    summary = {"config": _config_dict(cfg), "schemes": {}}
    total_violations = 0
    for scheme in sorted(schemes):
        entry = schemes[scheme]
        violations = sorted(entry["violations"], key=lambda v: (v["k"], v["state"]))
        total_violations += len(violations)
        nested = {
            site: sorted(runs, key=lambda r: r["depth"])
            for site, runs in sorted(entry["nested"].items())
        }
        sampling = {
            key: int(entry["sampling"].get(key, 0))
            for key in ("points", "requested", "sampled")
        }
        summary["schemes"][scheme] = {
            "trace_units": entry["trace_units"],
            "states_evaluated": entry["evaluated"],
            "distinct_states": len(entry["distinct_states"]),
            "outcomes": dict(sorted(entry["outcomes"].items())),
            "violations": violations,
            "nested": nested,
            "nested_ok": all(
                not r["problems"] for runs in nested.values() for r in runs
            ),
            "sampling": sampling,
            # Exhaustive means no crash point ever fell back to sampled
            # drop-sets; when False the run is a spot check, not a proof.
            "coverage_exhaustive": sampling["points"] == 0,
        }
        if cfg.reduce:
            table, merge_mismatches = _merge_class_tables(entry["class_tables"])
            mismatches = entry["class_mismatches"] + merge_mismatches
            summary["schemes"][scheme].update(
                {
                    "states_covered": entry["covered"],
                    "oracle_calls": entry["oracle_calls"],
                    "classes": len(table),
                    "reduction_ratio": (
                        round(entry["covered"] / entry["oracle_calls"], 3)
                        if entry["oracle_calls"]
                        else None
                    ),
                    "class_table": table,
                    "class_mismatches": mismatches,
                }
            )
    summary["total_violations"] = total_violations
    return summary, report


def _config_dict(cfg: ExploreConfig) -> dict:
    return {
        "schemes": sorted(cfg.schemes),
        "steps": cfg.steps,
        "window": cfg.window,
        "budget": cfg.budget,
        "seed": cfg.seed,
        "shards": cfg.shards,
        "data_capacity": cfg.data_capacity,
        "torn_batches": cfg.torn_batches,
        "nested_depth": cfg.nested_depth,
        "profile": cfg.profile,
        "reduce": cfg.reduce,
        "spot": cfg.spot,
    }


# ---------------------------------------------------------------------------
# The standing campaign: scheme x workload exhaustive exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashCampaignConfig:
    """One exhaustive crash campaign: every scheme x every workload.

    Each grid cell runs the *reduced* enumerator (exhaustive drop-sets,
    class-representative verification), sharded per crash point through
    the orchestrator — so a campaign is content-cached by spec hash,
    journal-resumable, and one failing shard never poisons the rest of
    the grid.
    """

    schemes: tuple[str, ...] = ()
    #: Workload profiles; empty = the hot set plus every Figure-5
    #: surrogate (see :func:`repro.crashsim.workload.workload_profiles`).
    profiles: tuple[str, ...] = ()
    steps: int = DEFAULT_STEPS
    window: int = 4
    seed: int = 7
    shards: int = DEFAULT_SHARDS
    data_capacity: int = 1 << 16
    spot: int = 1

    def __post_init__(self) -> None:
        _check_shape(self.shards, self.spot)

    def resolved_schemes(self) -> tuple[str, ...]:
        from repro.crashsim.oracle import ALLOWED_OUTCOMES

        return self.schemes or tuple(sorted(ALLOWED_OUTCOMES))

    def resolved_profiles(self) -> tuple[str, ...]:
        from repro.crashsim.workload import workload_profiles

        return self.profiles or tuple(workload_profiles())


def campaign_specs(cfg: CrashCampaignConfig) -> list:
    """The campaign's cell decomposition: reduce-mode enumerate shards."""
    from repro.runs import RunSpec

    specs = []
    for scheme in cfg.resolved_schemes():
        for profile in cfg.resolved_profiles():
            for shard in range(cfg.shards):
                params = {
                    "steps": cfg.steps,
                    "window": cfg.window,
                    "budget": 1,
                    "data_capacity": cfg.data_capacity,
                    "mode": "enumerate",
                    "shard": shard,
                    "shards": cfg.shards,
                    "reduce": True,
                    "spot": cfg.spot,
                }
                if profile != "hotset":
                    params["profile"] = profile
                specs.append(
                    RunSpec(
                        kind="crash", scheme=scheme, seed=cfg.seed, params=params
                    )
                )
    return specs


def _merge_class_tables(tables: list[list[dict]]) -> tuple[list[dict], list[dict]]:
    """Merge per-shard class tables by fingerprint.

    Witness/weight/evaluation counts sum; the representative with the
    smallest ``(k, describe)`` wins, deterministically.  Shards that
    disagree on a fingerprint's outcome expose a reducer bug and are
    returned as mismatches rather than silently merged.
    """
    merged: dict[str, dict] = {}
    mismatches: list[dict] = []
    for table in tables:
        for record in table:
            fp = record["fingerprint"]
            seen = merged.get(fp)
            if seen is None:
                merged[fp] = dict(record)
                continue
            if (record["outcome"], record["ok"]) != (seen["outcome"], seen["ok"]):
                mismatches.append(
                    {
                        "fingerprint": fp,
                        "outcomes": sorted({record["outcome"], seen["outcome"]}),
                    }
                )
            for key in ("witnesses", "weight", "evaluated", "spot_checked"):
                seen[key] += record[key]
            if (record["k"], record["representative"]) < (
                seen["k"],
                seen["representative"],
            ):
                seen["k"] = record["k"]
                seen["representative"] = record["representative"]
    table = [merged[fp] for fp in sorted(merged)]
    return table, mismatches


def run_campaign(
    cfg: CrashCampaignConfig | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_root=None,
    timeout: float | None = None,
    progress=None,
):
    """Run one campaign; returns ``(summary, RunReport)``.

    Like :func:`run_explore` the summary is pure content — a serial run,
    a pooled run and a warm-cache run of the same campaign summarize
    byte-identically.  Failed shards are isolated: their grid cells are
    reported under ``failures`` while every healthy cell still merges.
    """
    from repro.runs import orchestrate

    cfg = cfg or CrashCampaignConfig()
    specs = campaign_specs(cfg)
    report = orchestrate(
        "crash-campaign",
        specs,
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
        timeout=timeout,
        progress=progress,
    )

    grid: dict[str, dict[str, dict]] = {}
    failures: list[dict] = []
    for spec in specs:
        profile = spec.params.get("profile", "hotset")
        outcome = report.outcomes[spec.spec_hash()]
        if not outcome.ok:
            failures.append(
                {
                    "scheme": spec.scheme,
                    "profile": profile,
                    "shard": spec.params["shard"],
                    "error": outcome.error or outcome.status,
                }
            )
            continue
        payload = outcome.payload
        cell = grid.setdefault(spec.scheme, {}).setdefault(
            profile,
            {
                "trace_units": 0,
                "evaluated": 0,
                "covered": 0,
                "oracle_calls": 0,
                "distinct_states": set(),
                "outcomes": Counter(),
                "violations": [],
                "class_tables": [],
                "mismatches": [],
                "sampling_points": 0,
            },
        )
        cell["trace_units"] = payload["trace_units"]
        cell["evaluated"] += payload["evaluated"]
        cell["covered"] += payload["covered"]
        cell["oracle_calls"] += payload["oracle_calls"]
        cell["distinct_states"].update(payload["states"])
        cell["outcomes"].update(payload["outcomes"])
        cell["violations"].extend(payload["violations"])
        cell["class_tables"].append(payload["classes"])
        cell["mismatches"].extend(payload["class_mismatches"])
        cell["sampling_points"] += payload["sampling"]["points"]

    summary = {
        "config": {
            "schemes": list(cfg.resolved_schemes()),
            "profiles": list(cfg.resolved_profiles()),
            "steps": cfg.steps,
            "window": cfg.window,
            "seed": cfg.seed,
            "shards": cfg.shards,
            "data_capacity": cfg.data_capacity,
            "spot": cfg.spot,
        },
        "grid": {},
        "failures": sorted(
            failures, key=lambda f: (f["scheme"], f["profile"], f["shard"])
        ),
    }
    totals = {
        "cells": 0,
        "evaluated": 0,
        "covered": 0,
        "oracle_calls": 0,
        "classes": 0,
        "violations": 0,
        "class_mismatches": 0,
        "sampling_fallbacks": 0,
    }
    for scheme in sorted(grid):
        for profile in sorted(grid[scheme]):
            cell = grid[scheme][profile]
            table, merge_mismatches = _merge_class_tables(cell["class_tables"])
            mismatches = cell["mismatches"] + merge_mismatches
            violations = sorted(
                cell["violations"], key=lambda v: (v["k"], v["state"])
            )
            totals["cells"] += 1
            totals["evaluated"] += cell["evaluated"]
            totals["covered"] += cell["covered"]
            totals["oracle_calls"] += cell["oracle_calls"]
            totals["classes"] += len(table)
            totals["violations"] += len(violations)
            totals["class_mismatches"] += len(mismatches)
            totals["sampling_fallbacks"] += cell["sampling_points"]
            summary["grid"].setdefault(scheme, {})[profile] = {
                "trace_units": cell["trace_units"],
                "states_materialized": cell["evaluated"],
                "states_covered": cell["covered"],
                "distinct_states": len(cell["distinct_states"]),
                "oracle_calls": cell["oracle_calls"],
                "classes": len(table),
                "reduction_ratio": (
                    round(cell["covered"] / cell["oracle_calls"], 3)
                    if cell["oracle_calls"]
                    else None
                ),
                "outcomes": dict(sorted(cell["outcomes"].items())),
                "violations": violations,
                "class_table": table,
                "class_mismatches": mismatches,
                "sampling_fallbacks": cell["sampling_points"],
            }
    totals["reduction_ratio"] = (
        round(totals["covered"] / totals["oracle_calls"], 3)
        if totals["oracle_calls"]
        else None
    )
    summary["totals"] = totals
    return summary, report
