"""Apply the mutation corpus to a scratch copy and check who catches each mutant.

Usage (from the repository root)::

    python tests/mutation/mutate.py check           # every hunk still applies
    python tests/mutation/mutate.py verify          # recorded lint rules fire and
                                                    #   recorded catcher tests fail
    python tests/mutation/mutate.py audit --out audit.json
                                                    # full measurement: lint plus the
                                                    #   whole tier-1 minus lint tests

Each mutant is applied to a copy of the tree (``--workdir``, a fresh
temporary directory by default), measured, and reverted before the
next one, so the source tree is never edited.  ``--source`` points the
copy at another checkout (for example the parent commit, to audit rules
a change deletes).  ``verify`` runs only the recorded catcher node ids
and finishes in a few minutes; ``audit`` runs tier-1 once per mutant
and hash seed (about two minutes each on a 2-vCPU VM).  Exit status 1
means some mutant no longer matches its record.
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

LINT_TIMEOUT_S = 300
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


def lint_rules(tree: Path, scratch: Path) -> list[str]:
    """Rules ``repro lint --strict --cross-check`` reports on *tree*.

    ``XC`` stands for a failed (or crashed) cross-check and ``stale``
    for a baseline entry the tree no longer produces.
    """
    xc_out = scratch / "cross-check.json"
    xc_out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--strict", "--json",
         "--cross-check", "--cross-check-out", str(xc_out)],
        cwd=tree, env=_env(tree, 0), capture_output=True, text=True,
        timeout=LINT_TIMEOUT_S,
    )
    rules: set[str] = set()
    try:
        report, _ = json.JSONDecoder().raw_decode(proc.stdout)
    except ValueError:
        return ["lint-crashed"]
    rules.update(f["rule"] for f in report["findings"])
    if report["stale_baseline"]:
        rules.add("stale")
    if not xc_out.exists() or not json.loads(xc_out.read_text())["ok"]:
        rules.add("XC")
    return sorted(rules)


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
        try:
            with Applied(tree, mutant):
                rules = lint_rules(tree, scratch)
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
        if rules != sorted(mutant.lint):
            problems.append(
                f"{mutant.id}: lint fired {rules}, corpus records {sorted(mutant.lint)}"
            )
        problems += [f"{mutant.id}: catcher did not fail: {m}" for m in missed]
        verdict = "ok" if rules == sorted(mutant.lint) and not missed else "MISMATCH"
        print(
            f"{mutant.id} [{mutant.charter}] lint={','.join(rules) or '-'} "
            f"catchers={len(mutant.catchers)} {verdict} "
            f"({time.perf_counter() - started:.1f}s)",
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
            row = {"charter": mutant.charter, "lint": lint_rules(tree, scratch)}
            for seed in mutant.hashseeds:
                failed, timed_out = run_pytest(
                    tree, scratch, ["-k", "not lint"], seed
                )
                row[f"tier1_seed{seed}"] = {
                    "timed_out": timed_out,
                    "failed": dict(sorted(failed.items())),
                }
        row["seconds"] = round(time.perf_counter() - started, 1)
        results[mutant.id] = row
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        counts = [len(row[f"tier1_seed{s}"]["failed"]) for s in mutant.hashseeds]
        print(f"{mutant.id} lint={row['lint']} tier1_failures={counts} "
              f"({row['seconds']}s)", flush=True)
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
