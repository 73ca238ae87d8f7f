"""Fault injection: micro-step crash points and media faults.

This package drives the system model through the failures the paper's
guarantees are supposed to survive:

* :mod:`repro.faults.plan` — the registry of named crash sites the core
  is instrumented with, plus :class:`PowerFailure`;
* :mod:`repro.faults.injector` — arms a deterministic crash at the k-th
  visit of a site (or records site hit counts in discovery mode);
* :mod:`repro.faults.media` — NVM media-fault model: ECC-detectable
  transient read faults, permanent (stuck) faults, and silent bit flips
  only the HMAC layer can catch.

The recovery contract itself is judged by :mod:`repro.crashsim`, whose
oracle arms this package's injector for nested crash-during-recovery
schedules.

Layering: core modules never import this package — they expose plain
``fault_hook`` attributes the injector attaches to, and the media model
plugs into :class:`~repro.mem.nvm.NVMDevice` through ``set_media_model``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.media import MediaFaultModel
from repro.faults.plan import (
    ALL_SITE_NAMES,
    RECOVERY_SITES,
    SITES,
    FaultSite,
    PowerFailure,
    sites_for_scheme,
)

__all__ = [
    "ALL_SITE_NAMES",
    "FaultInjector",
    "FaultSite",
    "MediaFaultModel",
    "PowerFailure",
    "RECOVERY_SITES",
    "SITES",
    "sites_for_scheme",
]
