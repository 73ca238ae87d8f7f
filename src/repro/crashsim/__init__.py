"""Systematic crash-state exploration for the secure-NVM designs.

The core carries 16 hand-named crash sites (:mod:`repro.faults`); this
package instead enumerates every crash state ADR semantics permit and
judges recovery on each one — the repo's single crash-correctness
pipeline:

1. :mod:`~repro.crashsim.trace` records the ordered stream of persist
   micro-ops a workload produces (WPQ writes, atomic batches, TCB
   register updates) through plain ``trace_hook`` callbacks;
2. :mod:`~repro.crashsim.enumerate` expands the trace into every
   durable state ADR semantics permit — prefixes, bounded in-flight
   window drops, batches all-or-nothing;
3. :mod:`~repro.crashsim.oracle` runs the design's own recovery on each
   state and checks the documented contract, including nested
   crash-during-recovery schedules;
4. :mod:`~repro.crashsim.reduce` partitions the states into
   recovery-relevant equivalence classes so one oracle run covers a
   whole class (and exhaustive coverage needs no sampling);
5. :mod:`~repro.crashsim.minimize` delta-debugs any violation to a
   minimal replayable reproducer;
6. :mod:`~repro.crashsim.explore` fans the whole thing out through the
   run orchestrator (cached, journaled, parallel) as the standing
   scheme x workload crash campaign.
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
    ALLOWED_OUTCOMES,
    ClassOracle,
    CrashClass,
    RecoveryOracle,
    Verdict,
)
from repro.crashsim.reduce import (
    RECOVERY_VIEWS,
    CrashStateReducer,
    RecoveryView,
    ReducedEnumerator,
    recovery_view,
)
from repro.crashsim.trace import (
    PersistOp,
    PersistTrace,
    PersistTraceRecorder,
    TraceUnit,
)
from repro.crashsim.workload import record_workload

__all__ = [
    "ALLOWED_OUTCOMES",
    "CrashCampaignConfig",
    "ClassOracle",
    "CrashClass",
    "CrashEnumerator",
    "CrashState",
    "CrashStateReducer",
    "PersistOp",
    "PersistTrace",
    "PersistTraceRecorder",
    "RECOVERY_VIEWS",
    "RecoveryOracle",
    "RecoveryView",
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
    "recovery_view",
    "replay",
    "run_campaign",
]
