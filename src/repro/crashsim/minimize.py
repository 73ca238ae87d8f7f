"""Failing-trace minimization: delta-debug to a minimal reproducer.

A violating crash state is, to a human, a pile of hundreds of persist
micro-ops.  :func:`minimize` runs the classic ddmin algorithm over the
state's *applied op sequence*: repeatedly drop chunks (halving the
granularity on failure to reduce) while the oracle keeps reporting the
same failure **signature** — the set of problem categories of the
original verdict must stay a subset of the candidate's.  The result is
a 1-minimal op list (removing any single remaining op loses the
failure), which for real ordering bugs lands at a handful of ops.

The minimized list ships as a replayable :class:`Reproducer` JSON
artifact: initial image + registers + ops + schedule, self-contained
enough that :func:`replay` reproduces the verdict on a fresh oracle —
the regression-fixture format committed under ``tests/fixtures/``.  The
schedule lists the prefix lengths at which recovery itself is crashed
(see :mod:`repro.crashsim.closure`); empty for a plain crash state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crashsim.enumerate import build_state
from repro.crashsim.oracle import RecoveryOracle, Verdict
from repro.crashsim.trace import (
    PersistOp,
    PersistTrace,
    registers_from_dict,
    registers_to_dict,
)

FORMAT = "ccnvm-crash-reproducer-v1"


def minimize(
    trace: PersistTrace,
    ops: list[PersistOp],
    oracle: RecoveryOracle,
    signature: frozenset,
    schedule=None,
    max_evals: int = 2000,
) -> list[PersistOp]:
    """ddmin *ops* down to a 1-minimal list preserving *signature*."""

    evals = 0

    def fails(candidate: list[PersistOp]) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        verdict = oracle.evaluate(build_state(trace, candidate), schedule)
        return signature <= verdict.signature()

    if not fails(ops):
        raise ValueError("the original op list does not reproduce the failure")

    n = 2
    while len(ops) >= 2:
        size = max(1, len(ops) // n)
        chunks = [ops[i:i + size] for i in range(0, len(ops), size)]
        reduced = False
        for i in range(len(chunks)):
            complement = [op for j, c in enumerate(chunks) if j != i for op in c]
            if complement and fails(complement):
                ops = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(ops):
                break
            n = min(len(ops), n * 2)
    return ops


@dataclass
class Reproducer:
    """A self-contained, replayable minimal failing trace."""

    scheme: str
    seed: int
    data_capacity: int
    description: str
    ops: list[PersistOp]
    initial_lines: dict[int, bytes]
    initial_registers: dict
    #: op seq -> expected plaintext (only seqs present in ``ops``).
    annotations: dict[int, bytes]
    #: Recovery persists after which each nested crash lands, in order.
    schedule: list[int] = field(default_factory=list)
    #: The original verdict this artifact reproduces.
    outcome: str = "FAILED"
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "scheme": self.scheme,
            "seed": self.seed,
            "data_capacity": self.data_capacity,
            "description": self.description,
            "ops": [op.to_dict() for op in self.ops],
            "initial_lines": {
                f"{addr:#x}": data.hex()
                for addr, data in sorted(self.initial_lines.items())
            },
            "initial_registers": registers_to_dict(self.initial_registers),
            "annotations": {
                str(seq): data.hex() for seq, data in sorted(self.annotations.items())
            },
            "schedule": list(self.schedule),
            "outcome": self.outcome,
            "problems": list(self.problems),
        }

    @staticmethod
    def from_dict(d: dict) -> "Reproducer":
        if d.get("format") != FORMAT:
            raise ValueError(f"not a {FORMAT} artifact: {d.get('format')!r}")
        return Reproducer(
            scheme=d["scheme"],
            seed=d["seed"],
            data_capacity=d["data_capacity"],
            description=d["description"],
            ops=[PersistOp.from_dict(o) for o in d["ops"]],
            initial_lines={
                int(addr, 16): bytes.fromhex(data)
                for addr, data in d["initial_lines"].items()
            },
            initial_registers=registers_from_dict(d["initial_registers"]),
            annotations={
                int(seq): bytes.fromhex(data)
                for seq, data in d["annotations"].items()
            },
            schedule=_schedule_from_json(d["schedule"]),
            outcome=d["outcome"],
            problems=list(d["problems"]),
        )


def _schedule_from_json(entries) -> list[int]:
    """A reproducer's schedule: positive prefix lengths, nothing else."""
    for entry in entries:
        if isinstance(entry, list):
            raise ValueError(
                f"schedule entry {entry!r} is a retired [site, hit] pair; "
                "a schedule lists recovery prefix lengths (positive integers)"
            )
        if type(entry) is not int or entry < 1:
            raise ValueError(
                f"schedule entry {entry!r} is not a recovery prefix length "
                "(a positive integer)"
            )
    return list(entries)


def from_state(
    trace: PersistTrace,
    ops: list[PersistOp],
    verdict: Verdict,
    description: str,
    data_capacity: int,
    schedule=None,
) -> Reproducer:
    """Package a (possibly minimized) op list as a reproducer."""
    seqs = {op.seq for op in ops}
    return Reproducer(
        scheme=trace.scheme,
        seed=trace.seed,
        data_capacity=data_capacity,
        description=description,
        ops=list(ops),
        initial_lines=dict(trace.initial_lines),
        initial_registers=dict(
            trace.initial_registers,
            counter_log=dict(trace.initial_registers["counter_log"]),
        ),
        annotations={
            seq: data for seq, data in trace.annotations.items() if seq in seqs
        },
        schedule=list(schedule or ()),
        outcome=verdict.outcome,
        problems=list(verdict.problems),
    )


def rebuild_trace(repro: Reproducer) -> PersistTrace:
    """The (unit-less) trace context a reproducer's ops replay against."""
    return PersistTrace(
        scheme=repro.scheme,
        seed=repro.seed,
        initial_lines=dict(repro.initial_lines),
        initial_registers=repro.initial_registers,
        annotations=dict(repro.annotations),
    )


def replay(repro: Reproducer, oracle: RecoveryOracle | None = None) -> Verdict:
    """Re-run a reproducer on a fresh oracle; returns the new verdict."""
    trace = rebuild_trace(repro)
    oracle = oracle or RecoveryOracle(
        repro.scheme, data_capacity=repro.data_capacity, seed=repro.seed
    )
    state = build_state(trace, repro.ops)
    return oracle.evaluate(state, repro.schedule or None)
