"""Systematic crash-state exploration for the secure-NVM designs.

This package enumerates every crash state ADR semantics permit and
judges recovery on each one — the repo's single crash-correctness
pipeline and its only source of crash points:

1. :mod:`~repro.crashsim.trace` records the ordered stream of persist
   micro-ops a workload produces (WPQ writes, atomic batches, TCB
   register updates) through plain ``trace_hook`` callbacks, and the
   stream recovery itself persists (NVM pokes, TCB register ops);
2. :mod:`~repro.crashsim.enumerate` expands the trace into every
   durable state ADR semantics permit — prefixes, bounded in-flight
   window drops, batches all-or-nothing;
3. :mod:`~repro.crashsim.oracle` runs the design's own recovery on each
   state and checks the documented contract, optionally crashing
   recovery after given numbers of its own persists;
4. :mod:`~repro.crashsim.closure` closes a set of crash states under
   crash-during-recovery: every prefix of every recovery's persist
   stream, recovered again, to a fixed point;
5. :mod:`~repro.crashsim.reduce` partitions the states into
   recovery-relevant equivalence classes so one oracle run covers a
   whole class (and exhaustive coverage needs no sampling);
6. :mod:`~repro.crashsim.minimize` delta-debugs any violation to a
   minimal replayable reproducer;
7. :mod:`~repro.crashsim.explore` fans the whole thing out through the
   run orchestrator (cached, journaled, parallel) as the standing
   scheme x workload crash campaign, with the closure as a per-shard
   option.
"""

from repro.crashsim.enumerate import (
    CrashEnumerator,
    CrashState,
    applied_ops,
    build_state,
)
from repro.crashsim.explore import (
    CrashCampaignConfig,
    campaign_specs,
    run_campaign,
)
from repro.crashsim.minimize import (
    Reproducer,
    from_state,
    minimize,
    rebuild_trace,
    replay,
)
from repro.crashsim.oracle import (
    ClassOracle,
    CrashClass,
    RecoveryOracle,
    Verdict,
)
from repro.crashsim.reduce import (
    CrashStateReducer,
    ReducedEnumerator,
)
from repro.crashsim.trace import (
    PersistOp,
    PersistTrace,
    PersistTraceRecorder,
    PowerFailure,
    RecoveryRecorder,
    TraceUnit,
)
from repro.crashsim.workload import record_workload

__all__ = [
    "CrashCampaignConfig",
    "ClassOracle",
    "CrashClass",
    "CrashEnumerator",
    "CrashState",
    "CrashStateReducer",
    "PersistOp",
    "PersistTrace",
    "PersistTraceRecorder",
    "PowerFailure",
    "RecoveryOracle",
    "RecoveryRecorder",
    "ReducedEnumerator",
    "Reproducer",
    "TraceUnit",
    "Verdict",
    "applied_ops",
    "build_state",
    "campaign_specs",
    "from_state",
    "minimize",
    "rebuild_trace",
    "record_workload",
    "replay",
    "run_campaign",
]
