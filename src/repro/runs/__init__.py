"""Run orchestration: declarative specs, content-addressed caching,
parallel execution and resumable journals.

The subsystem turns every experiment in the repo — a Figure 5 cell, a
sensitivity point, a crash-exploration cell — into data (:class:`RunSpec`),
which makes three things cheap at once:

* **parallelism** — specs are picklable, so :func:`run_pool` fans a
  sweep out across spawned worker processes (a
  :class:`concurrent.futures.ProcessPoolExecutor`);
* **reuse** — a spec's content hash plus a fingerprint of the simulator
  sources addresses an on-disk result store (:class:`ResultCache`), so
  unchanged experiments are never executed twice, across processes and
  sessions;
* **resumability** — completed specs land in a JSONL :class:`RunJournal`
  as they finish, so an interrupted sweep continues where it stopped.

:func:`run_specs` / :func:`orchestrate` chain the three together.
"""

from repro.runs.cache import ResultCache, code_fingerprint, default_cache_root
from repro.runs.journal import RunJournal
from repro.runs.orchestrate import (
    RunReport,
    orchestrate,
    run_specs,
    sweep_journal_path,
)
from repro.runs.pool import RunOutcome, execute_spec, run_pool
from repro.runs.spec import (
    RunSpec,
    canonical_json,
    config_from_dict,
    config_to_dict,
    simulation_spec,
)

__all__ = [
    "ResultCache",
    "RunJournal",
    "RunOutcome",
    "RunReport",
    "RunSpec",
    "canonical_json",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "default_cache_root",
    "execute_spec",
    "orchestrate",
    "run_pool",
    "run_specs",
    "simulation_spec",
    "sweep_journal_path",
]
