"""The crash campaign driver: fan crash-state enumeration through the orchestrator.

A campaign covers a scheme x workload grid, and each grid cell is far
too big for one cacheable unit, so it is cut into ``enumerate`` shards,
each a :class:`~repro.runs.spec.RunSpec` of the ``crash`` kind.  A shard
takes the trace's crash points of one residue class (``k % shards ==
shard``).  Every worker regenerates the identical deterministic trace —
specs stay tiny, exactly like the simulation specs that ship workload
recipes instead of traces; a worker keeps its last trace, so a cell's
consecutive shards record it once — expands its own points through the
equivalence-class reducer, runs the oracle once per class, and returns
distinct image hashes, an outcome histogram, the class table and
(minimized) violations.

Because shards run through :func:`repro.runs.orchestrate`, campaigns
are content-cached (a warm re-run executes nothing), journaled,
resumable and parallel.  The merged summary is deliberately free of
timings and orchestration counts, so a serial run and a ``--jobs 2``
run of the same campaign produce byte-identical JSON.  Crashes during
recovery itself are :mod:`repro.crashsim.closure`'s job.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from repro.crashsim.workload import HOTSET, REKEY, workload_profiles

#: Smoke-budget defaults: small enough for CI, large enough that every
#: scheme clears over 200 distinct states (measured floor at 96 steps:
#: 255, for the schemes whose epochs dedupe most aggressively).
DEFAULT_STEPS = 96
DEFAULT_SHARDS = 4
#: Violations minimized per cell; the rest ship unminimized (a cell
#: drowning in violations is already actionable from the first few).
MAX_MINIMIZE = 3


# Keeps the last trace: ``campaign_specs`` emits a cell's shards
# consecutively, so a worker records each cell once.  Callers share the
# trace, which nothing mutates after recording.
@functools.lru_cache(maxsize=1)
def _record_trace(
    scheme_name: str, steps: int, seed: int, data_capacity: int, profile: str = HOTSET
):
    """Deterministically rebuild the persist trace of one grid cell."""
    from repro.core.schemes import create_scheme
    from repro.crashsim.workload import record_workload

    scheme = create_scheme(scheme_name, data_capacity=data_capacity, seed=seed)
    return record_workload(scheme, steps, seed, profile=profile)


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


def _minimize_violation(scheme, data_capacity, trace, oracle, state, verdict):
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
            f"{scheme} crash state {state.describe()} minimized "
            f"from {len(ops)} to {len(minimal)} persist micro-ops"
        ),
        data_capacity=data_capacity,
    )


def run_enumerate_cell(spec) -> dict:
    """Execute one ``enumerate`` shard; returns a JSON-able payload.

    The shard routes every state through the equivalence-class
    machinery: drop-sets are expanded exhaustively (never sampled), one
    oracle run covers each class, violating classes fall back to
    per-witness evaluation and pinned-drop variants of violating states
    are materialized — violation findings stay byte-identical to a
    brute-force run's, verdict for verdict.
    """
    from repro.crashsim.oracle import ClassOracle, RecoveryOracle
    from repro.crashsim.reduce import (
        CrashStateReducer,
        ReducedEnumerator,
        materialize,
        pin_variants,
    )

    p = spec.params
    shard, shards = p["shard"], p["shards"]
    data_capacity = p["data_capacity"]
    profile = p.get("profile", HOTSET)
    trace = _record_trace(spec.scheme, p["steps"], spec.seed, data_capacity, profile)
    oracle = RecoveryOracle(spec.scheme, data_capacity=data_capacity, seed=spec.seed)
    reducer = CrashStateReducer(trace, spec.scheme, data_capacity, spec.seed)
    enumerator = ReducedEnumerator(
        trace,
        reducer,
        window=p["window"],
        torn_batches=p.get("torn", False),
    )
    class_oracle = ClassOracle(oracle, reducer, spot=p["spot"])
    hashes: set[str] = set()
    outcomes: Counter[str] = Counter()
    violations: list[dict] = []
    evaluated = 0
    minimized = 0
    for state in enumerator.states(points=lambda k: k % shards == shard):
        evaluated += 1
        hashes.add(state.image_hash())
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
                spec.scheme, data_capacity, trace, oracle, state, verdict
            )
        violations.append(_violation_entry(state, verdict, reproducer))
        if state.torn is None:
            # A violating state forfeits its pin weight: every pinned
            # variant it stood for is materialized and judged for real.
            for vdrop in pin_variants(state, enumerator.pins.get(state.k, ())):
                vstate = materialize(trace, state.k, vdrop)
                hashes.add(vstate.image_hash())
                vverdict = class_oracle.evaluate_raw(vstate)
                outcomes[vverdict.outcome] += 1
                if not vverdict.ok:
                    violations.append(_violation_entry(vstate, vverdict))
    # Constant keys ("mode", "sampling", "reduce") stay: the golden shard
    # digests (tests/integration/test_campaign_digests.py) hash the whole
    # payload.  Enumeration never samples, so "sampling" is all zeros.
    return {
        "mode": "enumerate",
        "scheme": spec.scheme,
        "profile": profile,
        "shard": shard,
        "shards": shards,
        "trace_units": len(trace.units),
        "trace_ops": trace.op_count,
        "evaluated": evaluated,
        "states": sorted(hashes),
        "outcomes": dict(sorted(outcomes.items())),
        "violations": violations,
        "sampling": {"points": 0, "requested": 0, "sampled": 0},
        "reduce": True,
        "covered": sum(outcomes.values()),
        "oracle_calls": class_oracle.calls,
        "classes": class_oracle.class_table(),
        "class_mismatches": list(class_oracle.mismatches),
    }


def execute_cell(spec) -> dict:
    """Worker entry point for ``crash``-kind specs (see ``runs.pool``)."""
    mode = spec.params.get("mode")
    if mode != "enumerate":
        raise ValueError(f"unknown crash cell mode {mode!r}")
    return run_enumerate_cell(spec)


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
    #: surrogate (see :func:`repro.crashsim.workload.workload_profiles`);
    #: ``rekey`` and ACE names are accepted on request.
    profiles: tuple[str, ...] = ()
    steps: int = DEFAULT_STEPS
    window: int = 4
    seed: int = 7
    shards: int = DEFAULT_SHARDS
    data_capacity: int = 1 << 16
    #: Passing-class witnesses spot-checked against the representative.
    spot: int = 1
    #: Emit partially-applied batch states (protocol-violating; used to
    #: demonstrate the oracle catches ordering bugs).
    torn_batches: bool = False

    def __post_init__(self) -> None:
        from repro.trafficgen.ace import is_ace_profile, parse_profile

        for name, floor in (("steps", 1), ("window", 0), ("shards", 1), ("spot", 0)):
            value = getattr(self, name)
            if value < floor:
                raise ValueError(f"{name} must be at least {floor}, got {value}")
        known = {*workload_profiles(), REKEY}
        for profile in self.profiles:
            if is_ace_profile(profile):
                parse_profile(profile)
            elif profile not in known:
                raise ValueError(
                    f"unknown profile {profile!r} (want one of "
                    f"{', '.join(sorted(known))} or an ace-k<k>-... name)"
                )

    def resolved_schemes(self) -> tuple[str, ...]:
        from repro.crashsim.oracle import ALLOWED_OUTCOMES

        return self.schemes or tuple(sorted(ALLOWED_OUTCOMES))

    def resolved_profiles(self) -> tuple[str, ...]:
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
                    "data_capacity": cfg.data_capacity,
                    "mode": "enumerate",
                    "shard": shard,
                    "shards": cfg.shards,
                    "spot": cfg.spot,
                }
                if profile != HOTSET:
                    params["profile"] = profile
                if cfg.torn_batches:
                    params["torn"] = True
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
    progress=None,
):
    """Run one campaign; returns ``(summary, RunReport)``.

    The summary is pure content (no timings, no cache counters) — a
    serial run, a pooled run and a warm-cache run of the same campaign
    summarize byte-identically; orchestration accounting lives in the
    returned :class:`~repro.runs.orchestrate.RunReport`.  Failed shards are isolated: their grid cells are
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
        progress=progress,
    )

    grid: dict[str, dict[str, dict]] = {}
    failures: list[dict] = []
    for spec in specs:
        profile = spec.params.get("profile", HOTSET)
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
    if cfg.torn_batches:
        summary["config"]["torn_batches"] = True
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
