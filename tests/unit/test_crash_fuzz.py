"""Seeded randomized fuzz: random workloads, random crash points.

The systematic explorer sweeps one deterministic workload; this suite
varies the workload shape itself (length, seed) and crashes at randomly
chosen recorded persist steps — every cc-NVM variant must come back
consistent from all of them.  The RNG is seeded, so a failure here is a
deterministic reproducer, not flake.
"""

import random

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim import CrashEnumerator, RecoveryOracle, record_workload

from tests.conftest import TINY_CAPACITY

CCNVM_VARIANTS = ("ccnvm", "ccnvm_no_ds", "ccnvm_locate")


@pytest.mark.parametrize("scheme_name", CCNVM_VARIANTS)
def test_random_workload_random_crash_points_all_consistent(scheme_name):
    rng = random.Random(f"crash-fuzz:{scheme_name}")
    for case in range(3):
        steps = rng.randrange(16, 40)
        seed = rng.randrange(1_000_000)
        scheme = create_scheme(
            scheme_name, data_capacity=TINY_CAPACITY, seed=seed
        )
        trace = record_workload(scheme, steps, seed)
        chosen = set(
            rng.sample(range(len(trace.units) + 1), k=8)
        )
        oracle = RecoveryOracle(
            scheme_name, data_capacity=TINY_CAPACITY, seed=seed
        )
        enumerator = CrashEnumerator(trace)
        checked = 0
        for state in enumerator.states(points=lambda k: k in chosen):
            verdict = oracle.evaluate(state)
            assert verdict.ok, (
                f"{scheme_name} case {case} (steps={steps}, seed={seed}) "
                f"state {state.describe()}: {verdict.problems}"
            )
            checked += 1
        assert checked >= len(chosen)


def test_fuzz_is_reproducible():
    """The same seed string must choose the same cases run to run."""
    a = random.Random("crash-fuzz:ccnvm").randrange(1_000_000)
    b = random.Random("crash-fuzz:ccnvm").randrange(1_000_000)
    assert a == b
