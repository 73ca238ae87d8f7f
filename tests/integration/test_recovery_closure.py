"""Crash during recovery: recovery's own persists as crash points.

Recovery persists through NVM pokes and two TCB register ops, each
durable at once, so every prefix of its recorded stream is a crash
state.  These tests pin:

* that a crash the recorder injects after *p* persists leaves exactly
  the image the recorded prefix of length *p* describes — the model
  the closure is built on;
* slices of the closure (``repro.crashsim.closure``) on all six
  designs: one re-key state, a hot-set@160 sample and a few ACE k=3
  workloads.  The full closures run outside tier-1
  (``benchmarks/test_recovery_closure.py``);
* the two re-key recovery bugs the closure found: w/o CC laundering a
  written-off block into a wrong plaintext, and a crash between a
  re-encryption's data and HMAC pokes losing the block.
"""

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim import (
    ALLOWED_OUTCOMES,
    CrashEnumerator,
    PowerFailure,
    RecoveryOracle,
    RecoveryRecorder,
    profile_closure,
    record_workload,
    recovery_closure,
)
from repro.crashsim.closure import prefix_state
from repro.crashsim.workload import REKEY
from repro.metadata.metacache import IntegrityError
from repro.trafficgen.ace import ace_profiles

SEED = 1
CAPACITY = 1 << 16
SCHEMES = tuple(sorted(ALLOWED_OUTCOMES))

#: Per design, the first run-time crash point of the ``rekey`` trace
#: (window 0) whose recovery re-encrypts the page: the crash landed
#: inside the run-time page re-encryption.
REKEY_POINT = {
    "ccnvm": 154,
    "ccnvm_locate": 154,
    "ccnvm_no_ds": 275,
    "no_cc": 130,
    "osiris_plus": 267,
    "sc": 517,
}
PAGE = 0x2000


def rekey_state(scheme: str):
    trace = record_workload(
        create_scheme(scheme, data_capacity=CAPACITY, seed=SEED), 0, SEED,
        profile=REKEY,
    )
    k = REKEY_POINT[scheme]
    return next(CrashEnumerator(trace, window=0).states(points=lambda p: p == k))


def rewind(scheme, state) -> None:
    scheme.crash()
    scheme.nvm.restore(state.lines)
    scheme.tcb.restore_registers(state.registers)


def is_data_poke(op) -> bool:
    return op.kind == "poke" and op.addr < CAPACITY


class TestRecordedPrefixes:
    def test_live_crash_leaves_the_recorded_prefix(self):
        """Crashing recovery after p persists leaves the image and
        registers the first p recorded ops describe, for every p."""
        state = rekey_state("ccnvm")
        oracle = RecoveryOracle("ccnvm", CAPACITY, SEED)
        _, ops = oracle.evaluate_traced(state)
        assert ops[0].mutator == "begin_recovery"
        assert ops[-1].mutator == "set_roots"
        assert is_data_poke(ops[1])
        scheme = create_scheme("ccnvm", data_capacity=CAPACITY, seed=SEED)
        for persists in range(1, len(ops) + 1):
            rewind(scheme, state)
            with RecoveryRecorder(scheme, crash_after=persists):
                with pytest.raises(PowerFailure):
                    scheme.recover()
            scheme.crash()
            member = prefix_state(state, state, ops, persists)
            assert scheme.nvm.snapshot() == member.lines, persists
            assert scheme.tcb.registers_snapshot() == member.registers, persists


class TestClosureSlices:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rekey_state_closes_clean(self, scheme):
        oracle = RecoveryOracle(scheme, CAPACITY, SEED)
        report = recovery_closure(oracle, [rekey_state(scheme)])
        assert report.ok, report.violations[:3]
        assert report.depth == 2
        assert report.members > 100

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hotset_sample_closes_clean(self, scheme):
        trace = record_workload(
            create_scheme(scheme, data_capacity=CAPACITY, seed=SEED), 160, SEED
        )
        roots = CrashEnumerator(trace, seed=SEED).states(points=lambda k: k % 60 == 30)
        report = recovery_closure(RecoveryOracle(scheme, CAPACITY, SEED), roots)
        assert report.ok, report.violations[:3]
        assert report.members > report.roots

    def test_ace_sample_closes_clean(self):
        for scheme in SCHEMES:
            for profile in ace_profiles(3)[::8]:
                report = profile_closure(scheme, profile, 0)
                assert report.ok, (scheme, profile, report.violations[:3])


class TestRekeyRecoveryBugs:
    def test_written_off_block_stays_unreadable(self):
        """w/o CC writes 0x2000 off; normalizing the page must not
        re-encrypt it under its stale pair into a wrong plaintext."""
        state = rekey_state("no_cc")
        scheme = create_scheme("no_cc", data_capacity=CAPACITY, seed=SEED)
        rewind(scheme, state)
        report = scheme.recover()
        assert PAGE in report.unrecoverable_blocks
        assert report.majors_rolled
        with pytest.raises(IntegrityError):
            scheme.read(10_000_000, PAGE)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_between_reencryption_pokes_recovers(self, scheme):
        """Power fails after the first re-encryption's data poke, before
        its HMAC poke; the resumed recovery must finish the block."""
        state = rekey_state(scheme)
        oracle = RecoveryOracle(scheme, CAPACITY, SEED)
        plain, ops = oracle.evaluate_traced(state)
        assert is_data_poke(ops[1]) and not is_data_poke(ops[2])
        nested = oracle.evaluate(state, schedule=[2])
        assert nested.ok, nested.problems
        # Resuming skips the freshness checks, so SC's and Osiris Plus's
        # false alarm may turn into RECOVERED; no block may be lost.
        assert nested.unrecoverable == plain.unrecoverable
        assert any("resumed" in note for note in nested.notes)
