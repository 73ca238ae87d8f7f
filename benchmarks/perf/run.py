"""Host-time benchmark of the cc-NVM reproduction, end to end and per layer.

Run from the repository root (no install, no build step)::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT]
    python3 benchmarks/perf/run.py bless [--workload NAME]...
    python3 benchmarks/perf/run.py compare A.jsonl B.jsonl

``python3 -m benchmarks.perf`` takes the same arguments.

A run of one workload spawns measured passes one at a time, each a fresh
``python3`` child (``bench_child.py``): at least three, and until the
passes have measured ``--seconds`` between them.  It checks every op's
output, prints each end-to-end metric of ``BENCHMARK.json`` with its unit
and sample count, and ends with one JSON line.  ``--trace 1`` instead runs
one untraced and one traced pass and prints the per-layer metrics; the
traced pass's op spans go to ``.perf-work/trace.json``.  ``--json OUT``
appends the run's report as one line of ``OUT``; ``compare`` applies
``BENCHMARK.json``'s bounds to two such files.  ``bless`` rewrites
``golden.json`` from the current code.

Everything a run writes stays under ``.perf-work/`` in the checkout; the
per-run scratch directory (the warm workload's result cache) is removed
before the run returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_trace import LAYERS
from bench_workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEEDS = (1, 2, 3)

MIN_PASSES = 3
#: Replays in each pass of a traced warm run: a fixed count, so its
#: per-layer call counts repeat exactly.
TRACED_REPLAYS = 200
#: No further pass starts once the run is this old and a pass of the
#: last one's length would still fit under the 180 s run limit.
RUN_LIMIT_S = 150.0
PASS_TIMEOUT_S = 170.0

#: Units of host-measured metrics; every other unit is a count or a
#: simulated statistic that must repeat exactly.
HOST_UNITS = frozenset({"s", "ms", "1/s", "%", "x", "MB"})
#: The paper's headline numbers, printed beside the simulated ones.
PAPER = {"ipc_gain_ccnvm_over_osiris": 0.204, "extra_writes_ccnvm": 0.296}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_golden() -> dict:
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text())
    return {"seeds": list(GOLDEN_SEEDS), "workloads": {}}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class PassError(RuntimeError):
    pass


def spawn_pass(workload: Workload, seed: int, workdir: Path, trace: bool,
               budget_s: float | None = None, count: int | None = None) -> dict:
    """Run one pass in a fresh child process and wait for it to end."""
    workdir.mkdir(parents=True, exist_ok=True)
    request = {
        "workload": workload.to_dict(),
        "seed": seed,
        "workdir": str(workdir),
        "src": str(ROOT / "src"),
        "trace": trace,
        "budget_s": budget_s,
        "count": count,
    }
    env = dict(os.environ, TMPDIR=str(workdir))
    request["spawned_at"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_child.py"), json.dumps(request)],
        capture_output=True, text=True, cwd=workdir, env=env, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassError(
            f"{workload.name} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: Workload, seed: int, seconds: float, trace: bool,
               scratch: Path) -> tuple[list[dict], dict | None]:
    """The untraced passes of a run, and its traced pass (``--trace``)."""

    def spawn(index: int, **kwargs) -> dict:
        return spawn_pass(workload, seed, scratch / f"pass{index}", **kwargs)

    if trace:
        count = TRACED_REPLAYS if workload.time_bounded else None
        return [spawn(0, trace=False, count=count)], spawn(1, trace=True, count=count)
    budget = seconds / MIN_PASSES if workload.time_bounded else None
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(len(passes), trace=False, budget_s=budget))
        now = time.monotonic()
        measured = sum(p["result"]["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and (
            measured >= seconds or now - started + (now - began) > RUN_LIMIT_S
        ):
            return passes, None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def golden_ops(golden: dict, workload: Workload, seed: int) -> dict | None:
    """The committed digests for this workload and seed, if any apply."""
    entry = golden.get("workloads", {}).get(workload.name)
    if entry is None or entry["params"] != workload.params:
        return None
    return entry["ops"].get(str(seed))


def check(passes: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` over every op of every pass.

    An op fails if its pass reported a problem with it (it raised, a
    shard found a violation, a warm replay missed the cache), if its
    digest differs from the golden one, or if it differs from the same
    op in an earlier pass.  Ops a pass should have run but did not
    count as failed too.
    """
    attempted = failed = 0
    notes: list[str] = []
    first: dict[str, str] = {}
    for index, item in enumerate(passes):
        result = item["result"]
        seen = set()
        for op in result["ops"]:
            problems = list(op["problems"])
            if op["digest"]:
                if golden is not None and golden.get(op["name"]) != op["digest"]:
                    problems.append("output differs from golden.json")
                if first.setdefault(op["name"], op["digest"]) != op["digest"]:
                    problems.append("output differs from an earlier pass")
            elif not problems:
                problems.append("no output")
            seen.add(op["name"])
            attempted += 1
            if problems:
                failed += 1
                notes.append(f"pass {index} {op['name']}: {'; '.join(problems)}")
        missing = max(result["expected"] - len(result["ops"]),
                      len(set(golden or ()) - seen))
        attempted += missing
        failed += missing
        if missing:
            notes.append(f"pass {index}: {missing} ops missing")
        if result["error"]:
            notes.append(f"pass {index} raised {result['error']}")
            if not missing:
                attempted += 1
                failed += 1
    return attempted, failed, notes


def combined_digest(item: dict) -> str:
    """One sha256 over a pass's (op, digest) pairs, for seeds without goldens."""
    pairs = sorted({(op["name"], op["digest"]) for op in item["result"]["ops"]})
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def busy_s(item: dict, scaled: bool = True) -> float:
    """Host seconds a pass spent inside its ops (calibration excluded),
    each op scaled to the reference host speed unless *scaled* is off."""
    ops = item["result"]["ops"]
    if not scaled:
        return sum(op["seconds"] for op in ops)
    return sum(op["seconds"] / f for op, f in zip(ops, item["op_factors"]))


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)``: medians over the untraced passes.

    Host times are scaled to the reference host speed (see
    ``bench_calibrate``).
    """
    ops = sum(len(p["result"]["ops"]) for p in passes)
    if not ops:
        raise PassError("no op completed")
    return {
        "setup_s": (statistics.median(p["setup_s"] / p["setup_factor"] for p in passes),
                    len(passes)),
        "ops_per_s": (statistics.median(len(p["result"]["ops"]) / busy_s(p) for p in passes),
                      ops),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
    }


def per_layer(base: dict, traced: dict) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` from one traced pass and its untraced twin."""
    trace = traced["trace"]
    wall = trace["wall_s"]
    groups, layers = trace["groups"], trace["layers"]
    counters = traced["result"]["counters"]
    cpu = groups["sim.cpu"]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_pct"] = pct(layers[layer]["self_s"])
    for name in ("metadata.genesis", "metadata.load_counter", "metadata.load_node",
                 "crypto.otp", "crypto.hmac", "core.flush", "core.recover", "crashsim.oracle"):
        metrics[f"{name}.calls"] = groups[name]["calls"]
        metrics[f"{name}.self_pct"] = pct(groups[name]["self_s"])
    genesis = groups["metadata.genesis"]
    metrics["metadata.genesis.incl_pct"] = pct(genesis["inclusive_s"])
    metrics["metadata.genesis.distinct_frac"] = _ratio(genesis["distinct"], genesis["calls"])
    metrics["mem.virgin_read_frac"] = _ratio(genesis["calls"], groups["mem.nvm_read"]["calls"])
    otp = groups["crypto.otp"]
    metrics["crypto.otp.distinct_frac"] = _ratio(otp["distinct"], otp["calls"])
    metrics["runs.spec_hash_per_spec"] = _ratio(
        groups["runs.spec_hash"]["calls"], groups["runs.run_specs"].get("specs", 0)
    )
    cache_get = groups["runs.cache_get"]
    metrics["runs.cache_hit_frac"] = _ratio(cache_get.get("hits", 0), cache_get["calls"])
    metrics["crashsim.reduction_ratio"] = _ratio(
        counters.get("states_covered", 0), counters.get("oracle_calls", 0)
    )
    metrics["sim.cycles"] = counters.get("cycles", 0)
    metrics["sim.read_stall_cycles"] = cpu.get("read_stall_cycles", 0)
    metrics["sim.write_stall_cycles"] = cpu.get("write_stall_cycles", 0)
    for key, name in (("nvm_writes", "mem.nvm_writes"), ("nvm_reads", "mem.nvm_reads"),
                      ("counter_hmacs", "crypto.counter_hmacs"),
                      ("data_hmacs", "crypto.data_hmacs"), ("epochs", "core.epochs")):
        metrics[name] = counters.get(key, 0)
    hits = counters.get("metacache_hits", 0)
    metrics["metadata.metacache_hit_frac"] = _ratio(hits, hits + counters.get("metacache_misses", 0))
    for key in PAPER:
        metrics[f"analysis.{key}"] = counters.get(key, 0.0)
    metrics["trace_overhead"] = busy_s(traced) / busy_s(base)
    metrics["trace.wall_s"] = wall
    return {name: (value, 1) for name, value in metrics.items()}


def info_lines(workload: Workload, passes: list[dict], attempted: int, failed: int) -> list[str]:
    """The workload-specific numbers people quote, beside BENCHMARK.json's."""
    lines = [f"ops_failed_frac {_ratio(failed, attempted):.6g} of {attempted} ops"]
    counters = passes[0]["result"]["counters"]
    n = len(passes)
    factors = [f for p in passes for f in p["op_factors"]]
    unscaled = statistics.median(len(p["result"]["ops"]) / busy_s(p, False) for p in passes)
    lines.append(f"host factor {statistics.median(factors):.4g} (median over ops), "
                 f"unscaled ops_per_s {unscaled:.6g} (n={n})")
    for kind, key, label in (("cold-fig5", "refs", "sim_refs_per_s"),
                             ("campaign", "states_covered", "crash_states_per_s")):
        if workload.kind == kind:
            rate = statistics.median(p["result"]["counters"][key] / busy_s(p) for p in passes)
            lines.append(f"{label} {rate:.6g} (n={n})")
    latencies = sorted(op["seconds"] * 1e3 for p in passes for op in p["result"]["ops"])
    lines.append(
        f"unscaled op latency: ms_p50 {statistics.median(latencies):.6g} "
        f"ms_p90 {percentile(latencies, 90):.6g} ms_p99 {percentile(latencies, 99):.6g} "
        f"(n={len(latencies)})"
    )
    for key, paper in PAPER.items():
        if key in counters:
            lines.append(
                f"{key} {counters[key]:.6g} (paper {paper}; simulated, model "
                "unvalidated at this scale)"
            )
    return lines


def write_trace(path: Path, workload: Workload, seed: int, traced: dict) -> None:
    """Op-level spans in Chrome trace-event format (opens in Perfetto)."""
    trace = traced["trace"]
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": span["start_s"] * 1e6,
            "dur": span["dur_s"] * 1e6,
            "args": {f"{layer}.self_ms": s * 1e3 for layer, s in span["self_s"].items()},
        }
        for span in trace["spans"]
    ]
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload.name, "seed": seed, "groups": trace["groups"]},
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, golden: dict, spec: dict, emit=print) -> dict:
    """Measure one workload; prints the report and returns it."""
    workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    try:
        passes, traced = run_passes(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = golden_ops(golden, workload, seed)
    checked = passes + ([traced] if traced else [])
    attempted, failed, notes = check(checked, reference)
    if trace:
        values = per_layer(passes[0], traced)
        names = spec["per_layer"]
        write_trace(workdir / "trace.json", workload, seed, traced)
    else:
        values = end_to_end(passes)
        names = spec["end_to_end"]
    emit(f"{workload.name} seed={seed} trace={int(trace)}: {len(checked)} passes, "
         f"{attempted} ops, {failed} failed")
    metrics = {}
    for metric in names:
        value, samples = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        emit(f"  {metric['name']:<34} {value:>16.6f} {metric['unit']:<7} n={samples}")
    for line in info_lines(workload, passes, attempted, failed):
        emit(f"  info {line}")
    if reference is None:
        emit(f"  info no golden for this seed; outputs digest {combined_digest(checked[0])}")
    for note in notes[:20]:
        emit(f"  FAILED {note}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    emit(json.dumps(report))
    return {
        **report,
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "samples": {name: values[name][1] for name in metrics},
        "digests": {op["name"]: op["digest"] for op in checked[0]["result"]["ops"]},
        "passes": [
            {
                "traced": item is traced,
                "setup_s": item["setup_s"],
                "setup_factor": item["setup_factor"],
                "op_factors": item["op_factors"],
                "peak_rss_mb": item["peak_rss_mb"],
                "op_seconds": [[op["name"], op["seconds"]] for op in item["result"]["ops"]],
            }
            for item in checked
        ],
    }


# ---------------------------------------------------------------------------
# bless and compare
# ---------------------------------------------------------------------------


def bless(names: list[str], workdir: Path, emit=print) -> int:
    """Rewrite ``golden.json`` for *names* from one pass per golden seed."""
    golden = load_golden()
    golden["seeds"] = list(GOLDEN_SEEDS)
    for name in names:
        workload = WORKLOADS[name]
        entry = {"params": workload.params, "ops": {}}
        for seed in GOLDEN_SEEDS:
            scratch = Path(tempfile.mkdtemp(prefix=f"bless-{name}-", dir=workdir))
            try:
                item = spawn_pass(workload, seed, scratch, trace=False, count=1)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            attempted, failed, notes = check([item], None)
            if failed:
                emit(f"refusing to bless {name} seed {seed}: " + "; ".join(notes))
                return 1
            entry["ops"][str(seed)] = {op["name"]: op["digest"] for op in item["result"]["ops"]}
            emit(f"blessed {name} seed {seed}: {attempted} ops")
        golden["workloads"][name] = entry
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (inf below 2 runs)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = abs(statistics.median(values))
    if not median:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / median


def host_verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_base = statistics.median(base)
    worse_by = sign * (statistics.median(new) - median_base) / abs(median_base)
    if all(sign * (n - b) < 0 for b in base for n in new):
        return "better in every run"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "REGRESSED"
    return "within bound"


def compare(path_a: Path, path_b: Path, spec: dict, emit=print) -> int:
    """One row per (workload, metric): host metrics against their bound,
    counts and simulated statistics for exact equality at each seed."""

    def load(path: Path) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        for line in path.read_text().splitlines():
            if line.strip():
                report = json.loads(line)
                runs.setdefault(report["workload"], []).append(report)
        return runs

    a, b = load(path_a), load(path_b)
    metrics = spec["end_to_end"] + spec["per_layer"]
    bad = 0
    emit(f"{'workload':<15} {'metric':<34} {'A median':>14} {'B median':>14} "
         f"{'change':>8} {'spread':>7}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in metrics:
            name = metric["name"]
            runs_a = [r for r in a[workload] if name in r["metrics"]]
            runs_b = [r for r in b[workload] if name in r["metrics"]]
            if not runs_a or not runs_b:
                continue
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            if metric["unit"] not in HOST_UNITS:
                by_seed: dict[int, set] = {}
                for r in runs_a + runs_b:
                    by_seed.setdefault(r["seed"], set()).add(r["metrics"][name]["value"])
                verdict = "exact" if all(len(v) == 1 for v in by_seed.values()) else "MISMATCH"
            elif "bound" in metric:
                verdict = host_verdict(va, vb, metric["bound"], metric["better"])
            else:
                verdict = "no bound"
            bad += verdict in ("MISMATCH", "REGRESSED")
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "-"
            worst = max(spread(va), spread(vb))
            shown = f"{worst:.1%}" if worst != float("inf") else "-"
            emit(f"{workload:<15} {name:<34} {ma:>14.6g} {mb:>14.6g} {change:>8} "
                 f"{shown:>7}  {verdict}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    blessing = argv[:1] == ["bless"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    if not blessing:
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
        parser.add_argument("--json", type=Path, help="append the run's report to this file")
    args = parser.parse_args(argv[1:] if blessing else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    workdir = ROOT / ".perf-work"
    workdir.mkdir(exist_ok=True)
    if blessing:
        return bless(names, workdir)
    golden = load_golden()
    correct = True
    for name in names:
        report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              workdir, golden, spec)
        correct &= report["correct"]
        if args.json is not None:
            with args.json.open("a") as handle:
                handle.write(json.dumps(report) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
