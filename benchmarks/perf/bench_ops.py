"""One pass of one workload, in process: set-up, timed ops, output checks.

Every pass calls the repository's public entry points serially with
``jobs=1`` — one closed-loop client:

* ``cold-fig5``: one :func:`figure5_comparisons` call over the
  workload's surrogates with ``cache=False``; an op is one
  (surrogate, design) cell;
* ``campaign``: one :func:`run_campaign` call with ``cache=False``; an
  op is one crash-enumeration shard;
* ``warm-fig5``: set-up runs the matrix once into a private
  ``cache_root``; an op then replays ``figure5_comparisons(...,
  cache=True)`` and serializes the ``BENCH_fig5.json`` document.

Each op carries the sha256 of its canonical output and the problems
found in it (an error, a violation, a cache miss on a warm replay).
Golden and cross-pass digest checks happen in the parent.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from bench_workloads import CAMPAIGN, COLD_FIG5, WARM_FIG5, Workload

# Entry points are called through their modules, never imported by name,
# so the tracer's wrappers on them are the ones that run.
from repro.analysis import experiments, export, report
from repro.crashsim import explore


def digest(output) -> str:
    """sha256 of an op's output: canonical JSON, or the text itself."""
    if not isinstance(output, str):
        output = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(output.encode()).hexdigest()


@dataclass
class Op:
    name: str
    seconds: float
    digest: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    ops: list[Op]
    #: Ops a complete pass produces (cold kinds); missing ones failed.
    expected: int
    #: Host seconds from the first op's start to the last op's end.
    wall_s: float
    #: Deterministic counts read off the outputs (simulated statistics,
    #: crash states covered); they must repeat exactly run to run.
    counters: dict
    error: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def fig5_counters(payloads: list[dict], length: int) -> dict:
    """Simulated statistics summed over Figure-5 cell payloads."""
    totals = {
        "refs": length * len(payloads),
        "cycles": 0,
        "nvm_writes": 0,
        "nvm_reads": 0,
        "counter_hmacs": 0,
        "data_hmacs": 0,
        "epochs": 0,
        "metacache_hits": 0,
        "metacache_misses": 0,
    }
    for payload in payloads:
        for key in ("cycles", "nvm_writes", "nvm_reads", "counter_hmacs", "data_hmacs", "epochs"):
            totals[key] += payload[key]
        scheme = payload["scheme"]
        totals["metacache_hits"] += payload["stats"].get(f"{scheme}.metacache.hits", 0)
        totals["metacache_misses"] += payload["stats"].get(f"{scheme}.metacache.misses", 0)
    return totals


def headline_counters(comparisons) -> dict:
    numbers = report.headline_numbers(comparisons)
    return {
        "ipc_gain_ccnvm_over_osiris": numbers.ccnvm_ipc_gain_over_osiris,
        "extra_writes_ccnvm": numbers.ccnvm_extra_write_traffic,
    }


def shard_problems(payload: dict) -> list[str]:
    """Why a campaign shard counts as failed, or ``[]``."""
    problems = []
    if payload["violations"]:
        problems.append(f"{len(payload['violations'])} violations")
    if payload.get("class_mismatches"):
        problems.append(f"{len(payload['class_mismatches'])} class mismatches")
    if payload["sampling"].get("points", 0):
        problems.append(f"{payload['sampling']['points']} sampling fallbacks")
    return problems


def _error_line(outcome) -> str:
    lines = (outcome.error or "").strip().splitlines()
    return f"{outcome.status}: {lines[-1] if lines else 'no detail'}"


def _orchestrated(call, op_name, on_op):
    """Run ``call(progress)``, one entry-point call; every spec it resolves
    is an op.

    Returns ``(ops, completed, result, wall_s, error)`` where *completed*
    pairs each op that produced a payload with it (its digest set).  A
    call that raises — a failed cell makes it raise, after the matrix ran —
    leaves *result* ``None`` and its message in *error*.
    """
    ops: list[Op] = []
    payloads: list = []

    def progress(outcome, done, total):
        name = op_name(outcome.spec)
        ops.append(Op(name, outcome.duration, problems=[] if outcome.ok else [_error_line(outcome)]))
        payloads.append(outcome.payload)
        if on_op is not None:
            on_op(name)

    result, error = None, ""
    start = time.perf_counter()
    try:
        result = call(progress)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    completed = []
    for op, payload in zip(ops, payloads):
        if payload is not None:
            op.digest = digest(payload)
            completed.append((op, payload))
    return ops, completed, result, wall, error


class ColdFig5:
    """A cold Figure-5 sub-matrix: every cell simulated from scratch."""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        self.benchmarks = list(params["benchmarks"])
        self.length = params["length"]
        self.seed = seed
        self.expected = len(self.benchmarks) * len(experiments.FIGURE5_DESIGNS)

    def run(self, on_op=None, budget_s=None, count=None) -> PassResult:
        ops, completed, comparisons, wall, error = _orchestrated(
            lambda progress: experiments.figure5_comparisons(
                self.length, self.seed, workloads=self.benchmarks,
                jobs=1, cache=False, progress=progress,
            ),
            lambda spec: f"{spec.workload}/{spec.scheme}",
            on_op,
        )
        counters = fig5_counters([payload for _, payload in completed], self.length)
        if comparisons is not None:
            counters.update(headline_counters(comparisons))
        return PassResult(ops, self.expected, wall, counters, error)


class Campaign:
    """The standing crash campaign on a subset of profiles."""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        self.cfg = explore.CrashCampaignConfig(seed=seed, **fields)
        self.expected = len(explore.campaign_specs(self.cfg))

    def run(self, on_op=None, budget_s=None, count=None) -> PassResult:
        ops, completed, _, wall, error = _orchestrated(
            lambda progress: explore.run_campaign(
                self.cfg, jobs=1, cache=False, progress=progress
            ),
            lambda spec: (
                f"{spec.scheme}/{spec.params.get('profile', 'hotset')}/{spec.params['shard']}"
            ),
            on_op,
        )
        counters = {"states_covered": 0, "oracle_calls": 0}
        for op, payload in completed:
            op.problems.extend(shard_problems(payload))
            counters["states_covered"] += payload["covered"]
            counters["oracle_calls"] += payload["oracle_calls"]
        return PassResult(ops, self.expected, wall, counters, error)


class WarmFig5:
    """Replays of a Figure-5 matrix that set-up put in a private cache."""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        self.benchmarks = list(params["benchmarks"])
        self.length = params["length"]
        self.seed = seed
        self.cache_root = Path(workdir) / "cache"
        self.cells = len(self.benchmarks) * len(experiments.FIGURE5_DESIGNS)
        comparisons = self._evaluate([])
        self.reference = digest(export.fig5_bench_to_json(comparisons))
        payloads = [
            export.result_to_dict(result)
            for cmp in comparisons.values()
            for result in cmp.results.values()
        ]
        self.counters = fig5_counters(payloads, self.length)
        self.counters.update(headline_counters(comparisons))

    def _evaluate(self, reports: list):
        return experiments.figure5_comparisons(
            self.length,
            self.seed,
            workloads=self.benchmarks,
            jobs=1,
            cache=True,
            cache_root=self.cache_root,
            report_out=reports,
        )

    def run(self, on_op=None, budget_s=None, count=None) -> PassResult:
        """Replay until *count* replays are done or *budget_s* has passed."""
        ops: list[Op] = []
        error = ""
        start = time.perf_counter()
        while True:
            reports: list = []
            began = time.perf_counter()
            try:
                text = export.fig5_bench_to_json(self._evaluate(reports))
            except Exception as exc:
                ops.append(Op("replay", time.perf_counter() - began, problems=[repr(exc)]))
                error = f"{type(exc).__name__}: {exc}"
                break
            ended = time.perf_counter()
            op = Op("replay", ended - began, digest(text))
            if op.digest != self.reference:
                op.problems.append("replayed document differs from the cold one")
            if reports[0].executed or reports[0].cache_hits != self.cells:
                op.problems.append(
                    f"warm replay executed {reports[0].executed} and hit "
                    f"{reports[0].cache_hits} of {self.cells} cells"
                )
            ops.append(op)
            if on_op is not None:
                on_op("replay")
            if count is not None and len(ops) >= count:
                break
            if count is None and ended - start >= budget_s:
                break
        wall = time.perf_counter() - start
        return PassResult(ops, len(ops), wall, dict(self.counters), error)


RUNNERS = {COLD_FIG5: ColdFig5, CAMPAIGN: Campaign, WARM_FIG5: WarmFig5}


def prepare(workload: Workload, seed: int, workdir: Path):
    """Set the workload up for one pass; returns an object with ``run``."""
    return RUNNERS[workload.kind](workload.params, seed, Path(workdir))
