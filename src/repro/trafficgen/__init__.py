"""repro.trafficgen: bounded exhaustive workloads for the crash campaign.

:mod:`repro.trafficgen.ace` enumerates every k-write workload over every
address-overlap pattern and every flush/fence placement, canonical-form
deduped, and feeds the set to the crash campaign as ordinary ``ace-k…``
profiles (``repro traffic ace --campaign``).
"""
