"""Smoke test of the host-time benchmark, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest benchmarks/perf/test_perf_smoke.py -q

It drives the same code as ``run.py`` through its Python API — real
child passes, checks and printing — with every workload shrunk to a few
cells, so it takes seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench_ops  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

from repro.analysis import experiments, export  # noqa: E402

TINY = {
    "fig5-stream": {"benchmarks": ["lbm"], "length": 80},
    "fig5-resident": {"benchmarks": ["namd"], "length": 80},
    "crash-campaign": {"schemes": ["ccnvm"], "profiles": ["hotset"], "steps": 12, "shards": 1},
    "fig5-warm": {"benchmarks": ["namd"], "length": 60},
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], params=TINY[name])


def repo_files() -> set[Path]:
    return {
        path.relative_to(ROOT)
        for path in ROOT.rglob("*")
        if ".git" not in path.parts and "__pycache__" not in path.parts
    }


def repro_attributes() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


def test_benchmark_json_matches_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, tmp_path):
    spec = run.load_spec()
    before = repo_files()
    for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        lines: list[str] = []
        report = run.run_workload(tiny(name), 5, 0.3, trace, tmp_path, {}, spec, lines.append)
        assert report["correct"], lines
        assert report["attempted"] >= 1 and report["failed"] == 0
        printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines}
        for metric in metrics:
            assert (metric["name"], metric["unit"]) in printed, metric["name"]
            assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert lines[-1].startswith('{"correct": true')
    assert (tmp_path / "trace.json").is_file()
    # No result cache, journal or trace lands in the repository tree.
    assert repo_files() == before


def test_perturbed_payload_counts_as_a_failed_op(tmp_path):
    result = bench_ops.prepare(tiny("fig5-stream"), 1, tmp_path).run()
    golden = {op.name: op.digest for op in result.ops}
    assert run.check([{"result": result.to_dict()}], golden)[:2] == (5, 0)

    comparisons = experiments.figure5_comparisons(80, 1, workloads=["lbm"])
    payload = export.result_to_dict(comparisons["lbm"].results["ccnvm"])
    op = next(op for op in result.ops if op.name == "lbm/ccnvm")
    assert bench_ops.digest(payload) == op.digest
    payload["nvm_writes"] += 1
    op.digest = bench_ops.digest(payload)
    attempted, failed, notes = run.check([{"result": result.to_dict()}], golden)
    assert (attempted, failed) == (5, 1)
    assert "lbm/ccnvm" in notes[0] and "golden" in notes[0]


def test_a_shard_with_a_violation_fails():
    clean = {"violations": [], "class_mismatches": [], "sampling": {"points": 0}}
    assert bench_ops.shard_problems(clean) == []
    assert bench_ops.shard_problems(dict(clean, violations=[{"k": 3}])) == ["1 violations"]


@pytest.mark.parametrize("name", ["fig5-stream", "crash-campaign", "fig5-warm"])
def test_tracer_leaves_nothing_patched(name, tmp_path):
    runner = bench_ops.prepare(tiny(name), 1, tmp_path)
    before = repro_attributes()
    with Tracer() as tracer:
        runner.run(on_op=tracer.op_done, count=2)
    after = repro_attributes()
    assert all(after[key] is value for key, value in before.items())
    wrappers = {id(wrapper) for wrapper, _ in tracer.wrappers.values()}
    assert not any(id(value) in wrappers for value in after.values())

    summary = tracer.summary()
    total_self = sum(layer["self_s"] for layer in summary["layers"].values())
    assert 0 < total_self <= summary["wall_s"]
    assert summary["spans"]
