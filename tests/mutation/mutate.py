"""Apply the mutation corpus to a scratch copy and check who catches each mutant.

Usage (from the repository root)::

    python tests/mutation/mutate.py check           # every hunk still applies
    python tests/mutation/mutate.py verify          # every hunk applies and its
                                                    #   recorded catcher tests fail
    python tests/mutation/mutate.py audit --out audit.json
                                                    # full measurement: the whole
                                                    #   tier-1 per mutant

Each mutant is applied to a copy of the tree (``--workdir``, a fresh
temporary directory by default), measured, and reverted before the
next one, so the source tree is never edited.  ``--source`` points the
copy at another checkout (for example the parent commit, to compare a
row before and after a change).  ``verify`` runs only the recorded
catcher node ids and finishes in a few minutes; ``audit`` runs tier-1
once per mutant and hash seed (about two minutes each on a 2-vCPU VM).
Exit status 1 means some mutant no longer matches its record, or has no
recorded catcher at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

from corpus import MUTANTS, Mutant

REPO = Path(__file__).resolve().parents[2]

#: Build and cache debris never copied into the scratch tree.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", "*.egg-info", ".pytest_cache",
    ".hypothesis", ".benchmarks", ".repro-cache", ".perf-work",
)

TIER1_TIMEOUT_S = 1800


def _env(tree: Path, hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Applied:
    """Context manager: *mutant* applied to *tree*, reverted on exit."""

    def __init__(self, tree: Path, mutant: Mutant) -> None:
        self.path = tree / mutant.path
        self.mutant = mutant
        self.original = ""

    def __enter__(self) -> "Applied":
        self.original = self.path.read_text(encoding="utf-8")
        hits = self.original.count(self.mutant.before)
        if hits != 1:
            raise HunkError(
                f"{self.mutant.id}: hunk matches {hits} times in {self.mutant.path}"
            )
        self.path.write_text(
            self.original.replace(self.mutant.before, self.mutant.after),
            encoding="utf-8",
        )
        return self

    def __exit__(self, *exc) -> None:
        if self.original:
            self.path.write_text(self.original, encoding="utf-8")


class HunkError(RuntimeError):
    pass


def _node_id(tree: Path, classname: str, name: str) -> str:
    """Rebuild a pytest node id from a junit ``classname`` and ``name``."""
    parts = classname.split(".")
    for cut in range(len(parts), 0, -1):
        module = Path(*parts[:cut]).with_suffix(".py")
        if (tree / module).exists():
            return "::".join([module.as_posix(), *parts[cut:], name])
    return f"{classname}::{name}"


def run_pytest(tree: Path, scratch: Path, args: list[str], hashseed: int):
    """``(failed node id -> seconds, timed_out)`` for one pytest run."""
    junit = scratch / "junit.xml"
    junit.unlink(missing_ok=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={junit}", *args],
            cwd=tree, env=_env(tree, hashseed), capture_output=True,
            text=True, timeout=TIER1_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {}, True
    failed: dict[str, float] = {}
    if junit.exists():
        for case in ET.parse(junit).getroot().iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                node = _node_id(tree, case.get("classname", ""), case.get("name", ""))
                failed[node] = float(case.get("time", "0"))
    return failed, False


def copy_tree(source: Path, workdir: Path | None) -> Path:
    root = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="mutants-"))
    tree = root / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(source, tree, ignore=IGNORED)
    return tree


def selected(only: list[str] | None) -> list[Mutant]:
    if not only:
        return list(MUTANTS)
    unknown = set(only) - {m.id for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutant id(s): {sorted(unknown)}")
    return [m for m in MUTANTS if m.id in only]


def cmd_check(args) -> int:
    bad = 0
    for mutant in selected(args.only):
        text = (Path(args.source) / mutant.path).read_text(encoding="utf-8")
        hits = text.count(mutant.before)
        status = "ok" if hits == 1 else f"MATCHES {hits} TIMES"
        bad += hits != 1
        print(f"{mutant.id} {mutant.path}: {status}")
    return 1 if bad else 0


def cmd_verify(args) -> int:
    tree = copy_tree(Path(args.source), args.workdir)
    scratch = tree.parent
    problems: list[str] = []
    for mutant in selected(args.only):
        started = time.perf_counter()
        if not mutant.catchers:
            problems.append(f"{mutant.id}: no recorded catcher")
        try:
            with Applied(tree, mutant):
                missed: list[str] = []
                for seed in mutant.hashseeds if mutant.catchers else ():
                    failed, timed_out = run_pytest(
                        tree, scratch, list(mutant.catchers), seed
                    )
                    missed += [
                        f"{node} (PYTHONHASHSEED={seed})"
                        for node in mutant.catchers
                        if timed_out or node not in failed
                    ]
        except HunkError as err:
            problems.append(str(err))
            print(f"{mutant.id}: HUNK DOES NOT APPLY")
            continue
        problems += [f"{mutant.id}: catcher did not fail: {m}" for m in missed]
        verdict = "ok" if mutant.catchers and not missed else "MISMATCH"
        print(
            f"{mutant.id} [{mutant.charter}] catchers={len(mutant.catchers)} "
            f"{verdict} ({time.perf_counter() - started:.1f}s)",
            flush=True,
        )
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def cmd_audit(args) -> int:
    tree = copy_tree(Path(args.source), args.workdir)
    scratch = tree.parent
    out = Path(args.out)
    results = json.loads(out.read_text()) if out.exists() else {}
    for mutant in selected(args.only):
        started = time.perf_counter()
        with Applied(tree, mutant):
            row = {"charter": mutant.charter}
            for seed in mutant.hashseeds:
                failed, timed_out = run_pytest(tree, scratch, [], seed)
                row[f"tier1_seed{seed}"] = {
                    "timed_out": timed_out,
                    "failed": dict(sorted(failed.items())),
                }
        row["seconds"] = round(time.perf_counter() - started, 1)
        results[mutant.id] = row
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        counts = [len(row[f"tier1_seed{s}"]["failed"]) for s in mutant.hashseeds]
        print(f"{mutant.id} tier1_failures={counts} ({row['seconds']}s)", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "verify", "audit"))
    parser.add_argument("--source", default=str(REPO),
                        help="tree to mutate (default: this repository)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory for the copy (default: a temp dir)")
    parser.add_argument("--only", nargs="*", metavar="ID",
                        help="restrict to these mutant ids")
    parser.add_argument("--out", default="mutation-audit.json",
                        help="audit results file (audit mode; extended in place)")
    args = parser.parse_args(argv)
    return {"check": cmd_check, "verify": cmd_verify, "audit": cmd_audit}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
