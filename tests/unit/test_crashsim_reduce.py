"""Unit tests for equivalence-class crash-state reduction.

What must hold: the recovery views never drift from the schemes' actual
``RecoveryPolicy``; the reduced enumerator covers exactly the brute
force's states with the same outcome histogram and byte-identical
violation findings at a >=5x oracle saving; evaluating *every* witness
(metamorphic spot=everything) never contradicts a representative; the
pinning analysis is exercised on a synthetic merkle-only drop candidate
(real traces never produce one — see DESIGN.md); and the nested-register
image-hash canonicalization fix stays fixed.
"""

from collections import Counter

import pytest

from repro.core.schemes import create_scheme
from repro.crashsim import CrashEnumerator, record_workload
from repro.crashsim.enumerate import CrashState, canonical_value
from repro.crashsim.oracle import ALLOWED_OUTCOMES, ClassOracle, RecoveryOracle
from repro.crashsim.reduce import (
    RECOVERY_VIEWS,
    CrashStateReducer,
    ReducedEnumerator,
    materialize,
    pin_variants,
    recovery_view,
)
from repro.crashsim.trace import PersistOp, PersistTrace, TraceUnit

from tests.conftest import TINY_CAPACITY

SEED = 7
STEPS = 48
WINDOW = 4


def _record(scheme_name: str, steps: int = STEPS, torn: bool = False):
    scheme = create_scheme(scheme_name, data_capacity=TINY_CAPACITY, seed=SEED)
    trace = record_workload(scheme, steps, seed=SEED)
    return trace


def _brute(trace, torn: bool = False):
    return CrashEnumerator(trace, window=WINDOW, torn_batches=torn)


def _reduced(trace, scheme_name: str, spot: int, torn: bool = False):
    reducer = CrashStateReducer(trace, scheme_name, TINY_CAPACITY, SEED)
    enumerator = ReducedEnumerator(trace, reducer, window=WINDOW, torn_batches=torn)
    oracle = ClassOracle(
        RecoveryOracle(scheme_name, TINY_CAPACITY, SEED), reducer, spot=spot
    )
    return reducer, enumerator, oracle


def _run_reduced(trace, scheme_name, spot, torn=False):
    """Drive the reduce-mode loop; returns (enumerator, oracle, stats)."""
    reducer, enumerator, oracle = _reduced(trace, scheme_name, spot, torn)
    outcomes: Counter[str] = Counter()
    violations = []
    covered = 0
    for state in enumerator.states():
        weight = 1 if state.torn is not None else enumerator.weight(state.k)
        verdict, _role = oracle.submit(state, weight=weight)
        if verdict.ok:
            outcomes[verdict.outcome] += weight
            covered += weight
            continue
        outcomes[verdict.outcome] += 1
        covered += 1
        violations.append((state.describe(), verdict.to_dict()))
        if state.torn is None:
            for vdrop in pin_variants(state, enumerator.pins.get(state.k, ())):
                vstate = materialize(trace, state.k, vdrop)
                vverdict = oracle.evaluate_raw(vstate)
                outcomes[vverdict.outcome] += 1
                covered += 1
                if not vverdict.ok:
                    violations.append((vstate.describe(), vverdict.to_dict()))
    return enumerator, oracle, {
        "outcomes": outcomes,
        "violations": sorted(violations),
        "covered": covered,
    }


def _run_brute(trace, scheme_name, torn=False):
    oracle = RecoveryOracle(scheme_name, TINY_CAPACITY, SEED)
    enumerator = _brute(trace, torn)
    outcomes: Counter[str] = Counter()
    violations = []
    count = 0
    for state in enumerator.states():
        count += 1
        verdict = oracle.evaluate(state)
        outcomes[verdict.outcome] += 1
        if not verdict.ok:
            violations.append((state.describe(), verdict.to_dict()))
    return {
        "outcomes": outcomes,
        "violations": sorted(violations),
        "covered": count,
    }


class TestCanonicalValue:
    def test_dict_order_independent(self):
        a = {"x": {1: "a", 2: "b"}, "y": 3}
        b = {"y": 3, "x": {2: "b", 1: "a"}}
        assert canonical_value(a) == canonical_value(b)

    def test_distinct_values_stay_distinct(self):
        assert canonical_value({1: 2}) != canonical_value({1: 3})

    def test_sequences_normalize_to_tuples(self):
        assert canonical_value([1, [2, 3]]) == (1, (2, 3))


class TestImageHashCanonicalization:
    """Regression (satellite): two structurally equal register files must
    hash identically regardless of ``counter_log`` insertion order."""

    @staticmethod
    def _state(counter_log: dict) -> CrashState:
        registers = {
            "root_new": b"\x01" * 32,
            "root_old": b"\x01" * 32,
            "nwb": 2,
            "counter_log": counter_log,
            "recovery_pending": False,
        }
        return CrashState(1, (), None, {0x40: b"\x02" * 64}, registers, {})

    def test_counter_log_order_does_not_change_identity(self):
        forward = self._state({0x1000: 1, 0x2000: 2})
        backward = self._state({0x2000: 2, 0x1000: 1})
        assert forward.image_hash() == backward.image_hash()

    def test_counter_log_contents_do_change_identity(self):
        assert (
            self._state({0x1000: 1}).image_hash()
            != self._state({0x1000: 2}).image_hash()
        )

    def test_one_flipped_bit_changes_identity(self):
        """The recovery closure dedupes members by this hash."""
        state = self._state({})
        flipped = self._state({})
        flipped.lines = {0x40: b"\x03" + b"\x02" * 63}
        assert state.image_hash() != flipped.image_hash()


class _CapturedPolicy(Exception):
    def __init__(self, policy):
        self.policy = policy


class TestRecoveryViewGuard:
    """The reducer's views mirror each scheme's RecoveryPolicy; this
    guard fails the moment a scheme's recovery wiring drifts."""

    @pytest.mark.parametrize("name", sorted(RECOVERY_VIEWS))
    def test_view_matches_scheme_policy(self, name, monkeypatch):
        from repro.core.recovery import RecoveryManager

        scheme = create_scheme(name, data_capacity=TINY_CAPACITY, seed=SEED)

        def capture(self):
            raise _CapturedPolicy(self.policy)

        monkeypatch.setattr(RecoveryManager, "run", capture)
        with pytest.raises(_CapturedPolicy) as caught:
            scheme.recover()
        policy = caught.value.policy
        view = recovery_view(name)
        assert view.check_roots == policy.check_tree_against
        assert view.freshness == policy.freshness_check
        assert view.counter_log == policy.use_counter_log
        effective = (
            view.retry_limit
            if view.retry_limit is not None
            else scheme.config.epoch.update_limit
        )
        assert effective == policy.retry_limit

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            recovery_view("nope")


class TestReductionSoundness:
    """The acceptance surface: byte-identical findings, >=5x savings."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {name: _record(name) for name in sorted(ALLOWED_OUTCOMES)}

    @pytest.mark.parametrize("name", sorted(ALLOWED_OUTCOMES))
    def test_reduced_matches_brute_force_exactly(self, name, traces):
        brute = _run_brute(traces[name], name)
        enumerator, oracle, reduced = _run_reduced(traces[name], name, spot=1)
        assert reduced["covered"] == brute["covered"]
        assert reduced["outcomes"] == brute["outcomes"]
        assert reduced["violations"] == brute["violations"]
        assert oracle.mismatches == []

    @pytest.mark.parametrize("name", sorted(ALLOWED_OUTCOMES))
    def test_reduction_ratio_at_least_five(self, name, traces):
        _, oracle, reduced = _run_reduced(traces[name], name, spot=0)
        assert oracle.calls > 0
        ratio = reduced["covered"] / oracle.calls
        assert ratio >= 5.0, (
            f"{name}: {reduced['covered']} states / {oracle.calls} calls "
            f"= {ratio:.2f}x"
        )

    @pytest.mark.parametrize("name", sorted(ALLOWED_OUTCOMES))
    def test_metamorphic_every_witness_agrees(self, name, traces):
        """spot=everything evaluates every witness for real; any
        (outcome, signature) disagreement with its representative is a
        fingerprint soundness bug."""
        _, oracle, _ = _run_reduced(traces[name], name, spot=1 << 30)
        assert oracle.mismatches == []
        # Everything was actually evaluated, so the check had teeth.
        total = sum(c.witnesses for c in oracle.classes.values())
        evaluated = sum(c.evaluated for c in oracle.classes.values())
        assert evaluated == total

    def test_torn_violations_byte_identical(self):
        """Violating (torn) states take the concrete-fingerprint path
        and must reproduce the brute force's findings verbatim."""
        trace = _record("ccnvm", steps=32)
        brute = _run_brute(trace, "ccnvm", torn=True)
        _, oracle, reduced = _run_reduced(trace, "ccnvm", spot=1, torn=True)
        assert brute["violations"], "torn batches must violate the contract"
        assert reduced["violations"] == brute["violations"]
        assert reduced["outcomes"] == brute["outcomes"]
        assert oracle.mismatches == []


def _first_line_in_region(layout, region: str, capacity: int) -> int:
    addr = 0
    while addr < capacity * 8:
        if layout.region_of(addr) == region:
            return addr
        addr += 64
    raise AssertionError(f"no {region} line found")


class TestPinning:
    """The invisibility analysis, on a synthetic trace.

    Real traces never produce a pinnable unit (metadata drains only via
    fenced batches), so the machinery is exercised here with a
    handcrafted merkle-only drop candidate.
    """

    @pytest.fixture(scope="class")
    def synthetic(self):
        scheme = create_scheme("no_cc", data_capacity=TINY_CAPACITY, seed=SEED)
        layout = scheme.nvm.layout
        merkle_addr = _first_line_in_region(layout, "merkle", TINY_CAPACITY)
        data_addr = _first_line_in_region(layout, "data", TINY_CAPACITY)
        trace = PersistTrace(
            scheme="no_cc",
            seed=SEED,
            initial_lines=scheme.nvm.snapshot(),
            initial_registers=scheme.tcb.registers_snapshot(),
        )
        trace.units = [
            TraceUnit(0, "group", (
                PersistOp(0, "write", "WritePendingQueue", merkle_addr,
                          b"\x11" * 64),
            )),
            TraceUnit(1, "group", (
                PersistOp(1, "write", "WritePendingQueue", data_addr,
                          b"\x22" * 64),
            )),
        ]
        reducer = CrashStateReducer(trace, "no_cc", TINY_CAPACITY, SEED)
        return trace, reducer, merkle_addr

    def test_merkle_only_unit_is_pinned(self, synthetic):
        _, reducer, _ = synthetic
        assert reducer.pinned_candidates([0, 1]) == (0,)

    def test_observable_view_pins_nothing(self, synthetic):
        trace, _, _ = synthetic
        reducer = CrashStateReducer(trace, "ccnvm", TINY_CAPACITY, SEED)
        assert reducer.pinned_candidates([0, 1]) == ()

    def test_pinned_weight_covers_the_brute_states(self, synthetic):
        trace, reducer, _ = synthetic
        enumerator = ReducedEnumerator(trace, reducer, window=WINDOW)
        states = [s for s in enumerator.states() if s.k == 2]
        brute = [s for s in _brute(trace).states() if s.k == 2]
        assert enumerator.pins[2] == (0,)
        assert enumerator.weight(2) == 2
        # 2 materialized states x weight 2 == 4 brute states.
        assert len(states) * enumerator.weight(2) == len(brute)
        dropped = {s.dropped for s in states}
        assert dropped == {(), (1,)}

    def test_pin_variants_materialize_the_missing_states(self, synthetic):
        trace, _, _ = synthetic
        brute_by_drop = {s.dropped: s for s in _brute(trace).states() if s.k == 2}
        state = materialize(trace, 2, (1,))
        variants = pin_variants(state, (0,))
        assert variants == [(0, 1)]
        rebuilt = materialize(trace, 2, variants[0])
        twin = brute_by_drop[(0, 1)]
        assert rebuilt.lines == twin.lines
        assert rebuilt.registers == twin.registers

    def test_pinned_drop_is_invisible_to_the_fingerprint(self, synthetic):
        trace, reducer, _ = synthetic
        with_merkle = materialize(trace, 2, ())
        without_merkle = materialize(trace, 2, (0,))
        assert (
            reducer.fingerprint(with_merkle)
            == reducer.fingerprint(without_merkle)
        )
