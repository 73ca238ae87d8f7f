"""repro.trafficgen: the systematic workload frontier.

Three frontends, one contract: every workload the system can run is
described by a small, deterministic, JSON-able **descriptor** that is
folded into the :class:`~repro.runs.spec.RunSpec` hash — so generated
workloads cache, journal and shard exactly like the built-in
Figure-5 profiles do.

* :mod:`repro.trafficgen.ace` — ACE-style bounded enumeration: every
  k-write workload over every address-overlap pattern and every
  flush/fence placement, canonical-form deduped, feeding the crash
  explorer as a standing "every tiny workload x every scheme" campaign.
* :mod:`repro.trafficgen.ingest` — validated, versioned external-trace
  ingestion (CSV/JSONL plus a Valgrind-Lackey adapter), streamed in
  chunks and normalized into a content-addressed trace store.
* :mod:`repro.trafficgen.interleave` — deterministic seeded merging of
  N tenant streams over one shared memory system, with per-tenant
  attribution.
"""

from repro.trafficgen.descriptor import (
    SCHEMA_VERSION,
    build_trace,
    canonical_descriptor,
    descriptor_digest,
    descriptor_label,
    interleave_descriptor,
    profile_descriptor,
    trace_descriptor,
    validate_descriptor,
)
from repro.trafficgen.ingest import TraceFormatError, TraceStore

__all__ = [
    "SCHEMA_VERSION",
    "TraceFormatError",
    "TraceStore",
    "build_trace",
    "canonical_descriptor",
    "descriptor_digest",
    "descriptor_label",
    "interleave_descriptor",
    "profile_descriptor",
    "trace_descriptor",
    "validate_descriptor",
]
