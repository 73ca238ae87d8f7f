"""The crash-site registry and the power-failure signal.

Every instrumented micro-step in the core carries a dotted site name
(``component.step``).  The registry below is the single source of truth
for what exists, where it sits in the protocol, and which designs can
reach it — the injector validates armed sites against it, lint rule P2
checks it against the instrumented code, and the CLI prints it.

Site semantics (what is durable when the lights go out there):

=============================  ====================================================
site                           moment
=============================  ====================================================
``writeback.before_data``      counter incremented on-chip; data block not yet
                               accepted into the WPQ
``writeback.after_data``       data + data HMAC durable (ADR) and ``Nwb`` bumped —
                               one atomic micro-op; tree update still pending
``daq.after_reserve``          the write-back's metadata path reserved in the
                               (volatile) dirty address queue
``daq.before_commit``          a drain trigger fired; the queue is about to close
                               the epoch
``drain.before_recompute``     epoch addresses captured; deferred spreading not
                               yet recomputed
``drain.after_recompute``      cache-resident tree fully recomputed; nothing
                               flushed yet
``wpq.after_start``            the drainer's ``start`` signal issued — lines
                               blocked in the WPQ from here on
``wpq.mid_batch``              a metadata line appended to the (un-ended) batch
``wpq.before_end``             full batch buffered; ``end`` signal not yet given —
                               a crash drops the whole batch
``wpq.after_end``              ``end`` signal given; ADR guarantees the batch
                               reaches NVM, but ``root_old`` has not caught up
``drain.before_root_commit``   batch durable; the TCB root commit is next
``drain.after_root_commit``    epoch fully committed (``root_old`` = ``root_new``)
``recovery.after_counters``    recovery rolled counters forward (and possibly
                               re-encrypted pages) but applied nothing to leaves
``recovery.mid_rebuild``       recovered counter leaves poked into NVM; the tree
                               rebuild is in flight
``recovery.before_root_set``   tree rebuilt; the final root-register update (which
                               also clears ``recovery_pending``) is next
=============================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass


class PowerFailure(Exception):
    """The injector's crash signal: power was lost at *site*.

    Raised out of the instrumented micro-step; the driver must call the
    scheme's ``crash()`` (which resolves the WPQ per ADR and drops all
    volatile state) before touching the machine again.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected power failure at {site}")
        self.site = site


#: Scheme groups used in the registry.
_ALL = ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm", "ccnvm_locate")
_ATOMIC = ("sc", "ccnvm_no_ds", "ccnvm", "ccnvm_locate")
_EPOCH = ("ccnvm_no_ds", "ccnvm", "ccnvm_locate")


@dataclass(frozen=True)
class FaultSite:
    """One instrumented micro-step."""

    name: str
    component: str
    description: str
    #: Scheme names whose execution can reach this site.
    schemes: tuple[str, ...]


SITES: tuple[FaultSite, ...] = (
    FaultSite(
        "writeback.before_data",
        "scheme",
        "counter incremented on-chip, data block not yet in the WPQ",
        _ALL,
    ),
    FaultSite(
        "writeback.after_data",
        "scheme",
        "data + data HMAC durable and Nwb bumped; tree update pending",
        _ALL,
    ),
    FaultSite(
        "writeback.after_stoploss",
        "scheme",
        "Osiris Plus's Nth-update counter persist committed (ordered)",
        ("osiris_plus",),
    ),
    FaultSite(
        "daq.after_reserve",
        "drainer",
        "metadata path reserved in the volatile dirty address queue",
        _EPOCH,
    ),
    FaultSite(
        "daq.before_commit",
        "drainer",
        "a drain trigger fired; the epoch is about to close",
        _EPOCH,
    ),
    FaultSite(
        "drain.before_recompute",
        "scheme",
        "epoch addresses captured; deferred spreading not yet recomputed",
        _EPOCH,
    ),
    FaultSite(
        "drain.after_recompute",
        "scheme",
        "cached tree fully recomputed; nothing flushed yet",
        _EPOCH,
    ),
    FaultSite(
        "wpq.after_start",
        "wpq",
        "start signal issued: metadata lines blocked in the WPQ",
        _ATOMIC,
    ),
    FaultSite(
        "wpq.mid_batch",
        "wpq",
        "a metadata line appended to the un-ended atomic batch",
        _ATOMIC,
    ),
    FaultSite(
        "wpq.before_end",
        "wpq",
        "full batch buffered; a crash here drops it wholesale",
        _ATOMIC,
    ),
    FaultSite(
        "wpq.after_end",
        "wpq",
        "end signal given: ADR completes the batch, root commit pending",
        _ATOMIC,
    ),
    FaultSite(
        "drain.before_root_commit",
        "scheme",
        "batch durable in NVM; the TCB root commit is next",
        _EPOCH,
    ),
    FaultSite(
        "drain.after_root_commit",
        "scheme",
        "epoch fully committed (root_old caught up, Nwb reset)",
        _EPOCH,
    ),
    FaultSite(
        "recovery.after_counters",
        "recovery",
        "counters rolled forward; nothing applied to the NVM leaves yet",
        _ALL,
    ),
    FaultSite(
        "recovery.mid_rebuild",
        "recovery",
        "recovered leaves poked into NVM; tree rebuild in flight",
        _ALL,
    ),
    FaultSite(
        "recovery.before_root_set",
        "recovery",
        "tree rebuilt; final root-register update pending",
        _ALL,
    ),
)

ALL_SITE_NAMES: tuple[str, ...] = tuple(s.name for s in SITES)

#: Sites reached only while a recovery run is itself executing — arming
#: one of these exercises the crash-during-recovery (restartable) path.
RECOVERY_SITES: frozenset[str] = frozenset(
    s.name for s in SITES if s.component == "recovery"
)


def sites_for_scheme(scheme_name: str) -> tuple[str, ...]:
    """The site names *scheme_name*'s execution can reach, in registry order."""
    return tuple(s.name for s in SITES if scheme_name in s.schemes)
