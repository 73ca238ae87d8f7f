"""Crash during recovery, to a fixed point, on every design.

For each design and workload this runs :func:`repro.crashsim.profile_closure`:
every run-time crash state the enumerator yields (window 4, exhaustive)
is recovered while recording recovery's own persists; recovery is
crashed after every prefix of that stream and the new image recovered
again, until no unseen image appears.  Every member must satisfy the
design's recovery contract (``RecoveryOracle``), and the walk must
close within its member budget.

Workloads: the hot set at 160 steps, every canonical ACE k=3 workload
and the ``rekey`` profile, whose minor-counter overflow puts page
re-encryptions into both run-time and recovery-time crash states.
Tier-1 runs slices of the same closures
(``tests/integration/test_recovery_closure.py``); this module is the
full sweep, about a minute on one core::

    PYTHONPATH=src python -m pytest benchmarks/test_recovery_closure.py -q -s
"""

import pytest

from repro.crashsim import ALLOWED_OUTCOMES, profile_closure
from repro.crashsim.workload import HOTSET, REKEY
from repro.trafficgen.ace import ace_profiles

from benchmarks.common import banner

SCHEMES = tuple(sorted(ALLOWED_OUTCOMES))


def _check(scheme: str, label: str, reports) -> None:
    reports = list(reports)
    members = sum(r.members for r in reports)
    roots = sum(r.roots for r in reports)
    depth = max(r.depth for r in reports)
    violations = [v for r in reports for v in r.violations]
    banner(
        f"{scheme:13s} {label:8s} closure: {members} members from {roots} "
        f"run-time states, deepest nesting {depth}, "
        f"{len(violations)} violation(s)"
    )
    assert all(r.closed for r in reports), f"{scheme}/{label}: budget exhausted"
    assert not violations, violations[:3]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_hotset_closure(scheme):
    _check(scheme, HOTSET, [profile_closure(scheme, HOTSET, 160)])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ace_k3_closure(scheme):
    _check(
        scheme,
        "ace-k3",
        (profile_closure(scheme, p, 0) for p in ace_profiles(3)),
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rekey_closure(scheme):
    _check(scheme, REKEY, [profile_closure(scheme, REKEY, 0)])
