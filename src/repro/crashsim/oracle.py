"""The invariant oracle: recovery must hold its contract on every state.

For each crash state the oracle rewinds one long-lived scheme instance
(crash → restore NVM image → restore TCB registers), runs the design's
own :class:`~repro.core.recovery.RecoveryManager`, classifies the
outcome (:func:`classify`), and checks the scheme-aware invariants:

* the outcome lies in the design's *allowed* set (its class's
  ``crash_outcomes``) — cc-NVM variants must
  come back ``RECOVERED`` from every reachable state (the paper's
  claim); SC / Osiris Plus may honestly ``FALSE_ALARM`` (their
  freshness check cannot tell a crash window from a replay); w/o CC may
  ``DEGRADED`` (no staleness bound) — anything else is a violation;
* both TCB roots agree and the rebuilt tree matches them;
* ``recovery_pending`` is cleared — recovery is restartable, never
  stuck;
* retry totals stay within N × the data blocks the workload wrote;
* **exact data contents**: the enumerator knows precisely which
  annotated write-backs survived, so every hot block must read back the
  plaintext the surviving stream implies — byte for byte, with
  ``IntegrityError`` accepted only for blocks recovery itself reported
  unrecoverable;
* the machine stays usable (a fresh write-back on an untouched page
  round-trips).

With a *schedule* of prefix lengths the oracle also drives nested
crashes: recovery is crashed once that many of its own persists are
durable (a :class:`~repro.crashsim.trace.RecoveryRecorder` raises the
power failure) and restarted, once per entry, exercising the persistent
``recovery_pending`` resume path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schemes import create_scheme
from repro.crashsim.enumerate import CrashState, lines_digest
from repro.crashsim.trace import PersistOp, PowerFailure, RecoveryRecorder
from repro.crashsim.workload import PROBE_ADDR, payload
from repro.metadata.metacache import IntegrityError


def classify(report) -> str:
    """One recovery report's outcome class.

    ``FAILED`` for tampering findings or a failed recovery,
    ``DEGRADED`` when blocks were written off (and located),
    ``FALSE_ALARM`` when a pure crash was reported as a possible replay
    (no attacker exists here), otherwise ``RECOVERED``.
    """
    if any(f.kind == "tree_tampering" for f in report.findings):
        return "FAILED"
    if report.unrecoverable_blocks:
        return "DEGRADED"
    if report.potential_replay_detected:
        return "FALSE_ALARM"
    return "RECOVERED" if report.success else "FAILED"


@dataclass
class Verdict:
    """One oracle evaluation: outcome, problems, recovery accounting."""

    outcome: str
    allowed: tuple[str, ...]
    #: ``category: detail`` strings; empty means the state passed.
    problems: list[str] = field(default_factory=list)
    total_retries: int = 0
    unrecoverable: int = 0
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def signature(self) -> frozenset[str]:
        """The failure's stable identity: the set of problem categories.

        A minimized reproducer must preserve (at least) this set.
        """
        return frozenset(p.split(":", 1)[0] for p in self.problems)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "allowed": sorted(self.allowed),
            "problems": list(self.problems),
            "total_retries": self.total_retries,
            "unrecoverable": self.unrecoverable,
            "notes": list(self.notes),
        }


def content_key(state: CrashState, image_hash: str | None = None) -> tuple[str, str]:
    """*state*'s content identity: ``(image_hash(), lines_digest(expected))``.

    It covers everything the recovery oracle reads of a state, and keys
    the reducer's fingerprint memo; *image_hash*, when the caller
    already has it, is used as is.
    """
    return (image_hash or state.image_hash(), lines_digest(state.expected))


@dataclass
class CrashClass:
    """One equivalence class of crash states (see ``crashsim.reduce``)."""

    fingerprint: str
    #: ``describe()`` of the first member seen — the evaluated one.
    representative: str
    k: int
    verdict: "Verdict"
    #: Materialized states that mapped to this class.
    witnesses: int = 0
    #: Brute-force states covered (witnesses plus their pinned variants).
    weight: int = 0
    #: Oracle invocations attributed to this class.
    evaluated: int = 0
    spot_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "representative": self.representative,
            "k": self.k,
            "outcome": self.verdict.outcome,
            "ok": self.verdict.ok,
            "witnesses": self.witnesses,
            "weight": self.weight,
            "evaluated": self.evaluated,
            "spot_checked": self.spot_checked,
        }


class ClassOracle:
    """Class-aware front end to a :class:`RecoveryOracle`.

    The first state of each fingerprint is evaluated for real and
    becomes the class *representative*; later witnesses inherit its
    verdict.  Two guard rails keep the reduction honest:

    * a **violating** class is never trusted — every witness is
      evaluated individually (role ``expanded``), so violation findings
      are byte-identical to a brute-force run;
    * the first ``spot`` witnesses of each *passing* class are evaluated
      anyway (role ``spot``); an (outcome, signature) mismatch against
      the representative is a reducer bug and is recorded loudly in
      :attr:`mismatches`.

    Every evaluation goes through a verdict memo keyed on the state's
    content (:meth:`evaluate_raw`), so a state byte-identical to one
    already judged costs a lookup.  The memo lives here, not in the
    :class:`RecoveryOracle`: the minimizer, the recovery closure and the
    replay tools call the recovery oracle directly and still run
    recovery on every call.
    """

    def __init__(
        self,
        oracle: "RecoveryOracle",
        reducer,
        spot: int = 1,
        verdicts: "dict[tuple[str, str], Verdict] | None" = None,
    ) -> None:
        self.oracle = oracle
        self.reducer = reducer
        self.spot = spot
        #: Verdicts by state content; may be shared with other
        #: ClassOracles over the same (scheme, capacity, seed).
        self.verdicts = {} if verdicts is None else verdicts
        self.calls = 0
        self.classes: dict[str, CrashClass] = {}
        self.mismatches: list[dict] = []

    def evaluate_raw(
        self, state: CrashState, key: tuple[str, str] | None = None
    ) -> Verdict:
        """One counted evaluation, served from :attr:`verdicts` when a
        state of identical content was judged before.

        :meth:`RecoveryOracle.evaluate` reads nothing of a state but its
        lines, registers and expected plaintexts, and is deterministic
        for one (scheme, capacity, seed); the content key
        (:func:`content_key`) hashes all three.  So a served verdict
        equals a fresh run's.  *key*, when the caller already has it,
        saves rehashing the state.  :attr:`calls` counts every request,
        served or not.
        """
        self.calls += 1
        if key is None:
            key = content_key(state)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = self.oracle.evaluate(state)
        return verdict

    def submit(
        self, state: CrashState, weight: int = 1, image_hash: str | None = None
    ) -> tuple[Verdict, str]:
        """Attribute *state* to its class; returns ``(verdict, role)``.

        *weight* is the number of brute-force states this materialized
        state stands for (1 plus its pinned-drop variants); *image_hash*,
        when the caller already has it, saves rehashing the image.  The
        state's content key is computed once and keys both the reducer's
        fingerprint memo and the verdict memo.
        """
        key = content_key(state, image_hash)
        fingerprint = self.reducer.fingerprint(state, key)
        cls = self.classes.get(fingerprint)
        if cls is None:
            verdict = self.evaluate_raw(state, key)
            cls = CrashClass(
                fingerprint,
                state.describe(),
                state.k,
                verdict,
                witnesses=1,
                weight=weight,
                evaluated=1,
            )
            self.classes[fingerprint] = cls
            return verdict, "representative"
        cls.witnesses += 1
        cls.weight += weight
        if not cls.verdict.ok:
            verdict = self.evaluate_raw(state, key)
            cls.evaluated += 1
            return verdict, "expanded"
        if cls.spot_checked < self.spot:
            verdict = self.evaluate_raw(state, key)
            cls.evaluated += 1
            cls.spot_checked += 1
            if (verdict.outcome, verdict.signature()) != (
                cls.verdict.outcome,
                cls.verdict.signature(),
            ):
                self.mismatches.append(
                    {
                        "fingerprint": fingerprint,
                        "representative": cls.representative,
                        "witness": state.describe(),
                        "representative_outcome": cls.verdict.outcome,
                        "witness_outcome": verdict.outcome,
                    }
                )
            return verdict, "spot"
        return cls.verdict, "witness"

    def class_table(self) -> list[dict]:
        """JSON-able class records, sorted by fingerprint."""
        return [
            self.classes[fp].to_dict() for fp in sorted(self.classes)
        ]


class RecoveryOracle:
    """Evaluates crash states against one scheme's recovery contract.

    One scheme instance is built per oracle and rewound per state
    (``crash()`` + image/register restore) — construction dominates the
    cost of a single recovery by an order of magnitude.
    """

    def __init__(self, scheme_name: str, data_capacity: int, seed: int) -> None:
        self.scheme_name = scheme_name
        self.seed = seed
        self.scheme = create_scheme(scheme_name, data_capacity=data_capacity, seed=seed)
        self._now = 10_000_000

    # -- one state -------------------------------------------------------------

    def evaluate(self, state: CrashState, schedule=None) -> Verdict:
        """Rewind to *state*, run recovery and judge the result.

        Each *schedule* entry ``p`` first crashes a recovery run once
        ``p`` of its persists are durable; the run after the last entry
        completes and is judged.
        """
        return self._evaluate(state, schedule, None)

    def evaluate_traced(
        self, state: CrashState, schedule=None
    ) -> tuple[Verdict, list[PersistOp]]:
        """:meth:`evaluate`, plus the judged recovery run's persist stream."""
        ops: list[PersistOp] = []
        return self._evaluate(state, schedule, ops), ops

    def _evaluate(self, state: CrashState, schedule, ops) -> Verdict:
        scheme = self.scheme
        scheme.crash()
        scheme.nvm.restore(state.lines)
        scheme.tcb.restore_registers(state.registers)
        allowed = scheme.crash_outcomes
        for persists in schedule or ():
            with RecoveryRecorder(scheme, crash_after=persists) as recorder:
                try:
                    scheme.recover()
                except PowerFailure:
                    scheme.crash()
                    continue
            return Verdict(
                "FAILED",
                tuple(sorted(allowed)),
                [
                    f"nested: recovery completed after {len(recorder.ops)} "
                    f"persist(s), before the scheduled crash at {persists}"
                ],
            )
        if ops is None:
            report = scheme.recover()
        else:
            with RecoveryRecorder(scheme) as recorder:
                report = scheme.recover()
            ops.extend(recorder.ops)

        problems: list[str] = []
        outcome = classify(report)
        if outcome not in allowed:
            problems.append(
                f"outcome: {outcome} not allowed for {self.scheme_name} "
                f"(allowed: {sorted(allowed)})"
            )
        self._structural_checks(state, report, problems)
        self._data_checks(state, report, problems)
        self._probe_check(problems)
        if problems and outcome in allowed:
            outcome = "FAILED"
        return Verdict(
            outcome,
            tuple(sorted(allowed)),
            problems,
            total_retries=report.total_retries,
            unrecoverable=len(report.unrecoverable_blocks),
            notes=tuple(report.notes),
        )

    # -- invariant layers ----------------------------------------------------------

    def _structural_checks(
        self, state: CrashState, report, problems: list[str]
    ) -> None:
        scheme = self.scheme
        if scheme.tcb.root_old != scheme.tcb.root_new:
            problems.append("roots: TCB roots disagree after recovery")
        if not scheme.merkle.verify_consistent(scheme.tcb.root_old):
            problems.append("tree: rebuilt tree does not match the TCB root")
        if scheme.tcb.recovery_pending:
            problems.append("restart: recovery_pending still set after recovery")
        limit = scheme.config.epoch.update_limit
        blocks = max(1, len(state.expected))
        if report.total_retries > limit * blocks:
            problems.append(
                f"retries: total {report.total_retries} exceeds "
                f"N x blocks = {limit * blocks}"
            )

    def _data_checks(self, state: CrashState, report, problems: list[str]) -> None:
        scheme = self.scheme
        unrecoverable = set(report.unrecoverable_blocks)
        now = self._advance()
        for addr in sorted(state.expected):
            want = state.expected[addr]
            try:
                got, _ = scheme.read(now, addr)
            except IntegrityError:
                if addr not in unrecoverable:
                    problems.append(
                        f"data: block {addr:#x} unreadable but not reported "
                        "unrecoverable"
                    )
                continue
            if addr in unrecoverable:
                problems.append(
                    f"data: unrecoverable block {addr:#x} read back cleanly"
                )
            elif got != want:
                problems.append(
                    f"data: block {addr:#x} read back a value the surviving "
                    "write stream never implied"
                )

    def _probe_check(self, problems: list[str]) -> None:
        scheme = self.scheme
        now = self._advance()
        probe = payload(self.seed, 1_000_000)
        try:
            scheme.writeback(now, PROBE_ADDR, probe)
            got, _ = scheme.read(self._advance(), PROBE_ADDR)
        except Exception as exc:  # any crash here is itself the finding
            problems.append(f"probe: post-recovery write-back raised {exc!r}")
            return
        if got != probe:
            problems.append("probe: post-recovery write-back did not round-trip")

    def _advance(self) -> int:
        self._now += 1_000_000
        return self._now
