"""Equivalence-class reduction of ADR crash states.

Brute-force enumeration treats every (prefix, drop-set) pair as its own
state, but recovery cannot tell most of them apart: it observes only the
durable lines its steps actually read, the TCB registers its policy
consults, and *relative* counter positions (how far a stored counter
lags the write it authenticates — never the absolute epoch).  Following
Silhouette's crash-plan pruning idea, this module partitions candidate
crash states by a **recovery-relevant fingerprint** and verifies one
representative per class, attributing the verdict to every witness.

Two fingerprint layers, chosen per state:

* the **mechanism fingerprint** — a canonical tuple of everything the
  scheme's 4-step recovery and the oracle's checks can observe:
  per-touched-leaf *relative* counter features (stored-vs-survivor minor
  distance, major rolls, recoverability under the retry bound), which
  TCB root the stored tree matches (evaluated concretely on a scratch
  scheme, cached), the rebuilt-root freshness bit for ``root_new``
  designs (via an emulation of ``_recover_counters``'s counter
  adjustment), the ``Nwb``/retry balance for ``nwb`` designs, per-page
  extension-register deltas for the locate design, ``recovery_pending``
  and the touched-address shape.  States differing only in payload
  bytes, absolute epochs or unobservable registers collapse.
* the **concrete fingerprint** — a hash of the durable image restricted
  to observable regions plus canonicalized observable registers; the
  sound fallback for torn-batch states and traces without recorded
  counter pairs.

On top of fingerprinting, a **mechanism analysis** marks drop-candidates
whose loss is invisible to every recovery path — units that write only
unobservable regions (the Merkle interior, for designs whose recovery
never reads the stored tree: recovery's rebuild recomputes every
affected node from the counters, so a stale or missing interior line
cannot be seen), carry no register deltas and share no line with any
other candidate.  Such units are *pinned applied* and never expanded:
each pinned candidate doubles the witness weight of every state at its
crash point instead of doubling the number of materialized states.
(The intuitive "data line superseded within the window" rule is vacuous
here: any superseding unit inside the window is itself a drop candidate
— fences bound the window — so supersession is conditional on the drop
set and cannot pin; the mechanism fingerprint collapses those states
instead.)

Soundness policy: a class whose representative *violates* the contract
is never trusted — every witness (including pin-expanded variants) is
evaluated individually, so violation findings are byte-identical to the
brute force's.  Passing classes carry the savings; spot-checked
witnesses guard the equivalence argument in-run, and the metamorphic
tests guard it exhaustively on brute-forceable traces.
"""

from __future__ import annotations

import hashlib

from repro.common.address import block_in_page, page_index
from repro.common.constants import BLOCKS_PER_PAGE, MINOR_COUNTER_MAX
from repro.core.recovery import RecoveryPolicy
from repro.crashsim.enumerate import (
    CrashEnumerator,
    CrashState,
    apply_op,
    canonical_value,
    lines_digest,
    _copy_registers,
)
from repro.crashsim.trace import PersistTrace, registers_to_dict
from repro.metadata.counters import CounterLine

def _merkle_observable(policy: RecoveryPolicy) -> bool:
    """Stored interior tree nodes are read by some recovery step (step 1)."""
    return bool(policy.check_tree_against)


def _observed_registers(policy: RecoveryPolicy) -> frozenset[str]:
    """The TCB registers recovery under *policy* (and the oracle) reads."""
    regs = {"recovery_pending"}
    if "old" in policy.check_tree_against:
        regs.add("root_old")
    if "new" in policy.check_tree_against or policy.freshness_check == "root_new":
        regs.add("root_new")
    if policy.freshness_check == "nwb":
        regs.add("nwb")
    if policy.use_counter_log:
        regs.add("counter_log")
    return frozenset(regs)


class TreeOracle:
    """Concrete, cached evaluation of tree-shaped predicates.

    A scratch scheme instance (same seed ⇒ same keys as the recovery
    oracle's) hosts the state's counter/Merkle lines so ``does the
    stored tree match this root`` and ``what root would recovery
    rebuild`` are answered exactly, without running recovery.  Both are
    functions of a small line subset, so memoization makes them nearly
    free across an equivalence class.
    """

    def __init__(self, scheme_name: str, data_capacity: int, seed: int) -> None:
        from repro.core.schemes import create_scheme

        self.scheme = create_scheme(
            scheme_name, data_capacity=data_capacity, seed=seed
        )
        self.layout = self.scheme.nvm.layout
        self._match_cache: dict[tuple, bool] = {}
        self._root_cache: dict[str, bytes] = {}

    def tree_lines(self, lines: dict[int, bytes]) -> dict[int, bytes]:
        """The counter- and Merkle-region subset of a durable image."""
        counter, hmac, merkle = self.layout.region_bounds
        return {
            addr: data
            for addr, data in lines.items()
            if counter <= addr < hmac or addr >= merkle
        }

    def matches(self, tree_lines: dict[int, bytes], root: bytes) -> bool:
        """Would recovery step 1 accept *root* over this stored tree?"""
        key = (lines_digest(tree_lines), bytes(root))
        hit = self._match_cache.get(key)
        if hit is None:
            self.scheme.nvm.restore(tree_lines)
            hit = self.scheme.merkle.verify_consistent(root)
            self._match_cache[key] = hit
        return hit

    def rebuilt_root(self, counter_lines: dict[int, bytes]) -> bytes:
        """The root recovery's rebuild would compute over these counters.

        Only counter leaves feed the rebuilt root: interior nodes are
        recomputed bottom-up from the leaves (stale interiors merely
        join the recompute set without contributing stored values).
        """
        key = lines_digest(counter_lines)
        root = self._root_cache.get(key)
        if root is None:
            self.scheme.nvm.restore(counter_lines)
            root = self.scheme.merkle.compute_root()
            self._root_cache[key] = root
        return root


class CrashStateReducer:
    """Fingerprints crash states and pins invisible drop-candidates."""

    def __init__(
        self,
        trace: PersistTrace,
        scheme_name: str,
        data_capacity: int,
        seed: int,
    ) -> None:
        self.trace = trace
        self.scheme_name = scheme_name
        self.tree = TreeOracle(scheme_name, data_capacity, seed)
        self.layout = self.tree.layout
        #: The design's recovery contract, resolved as its recovery does.
        self.policy = self.tree.scheme.resolved_policy()
        self.retry_limit = self.policy.retry_limit
        self._merkle_observable = _merkle_observable(self.policy)
        self._observed_registers = _observed_registers(self.policy)
        #: data addr -> [(unit index, op seq)] of every write to it —
        #: including unannotated ones (page re-encryptions), whose
        #: counter pairs are unknown: a state whose survivor is such a
        #: write falls back to the concrete fingerprint.
        self._writes: dict[int, list[tuple[int, int]]] = {}
        written: dict[int, set[bytes]] = {}
        repeats = 0
        for unit in trace.units:
            for op in unit.ops:
                if (
                    op.kind != "tcb"
                    and op.addr is not None
                    and self.layout.region_of(op.addr) == "data"
                ):
                    self._writes.setdefault(op.addr, []).append(
                        (unit.index, op.seq)
                    )
                    seen = written.setdefault(op.addr, set())
                    repeats += op.data in seen
                    seen.add(op.data)
        #: Fingerprints by state content (see :meth:`fingerprint`), kept
        #: only when no data address is written twice with the same
        #: bytes: then the bytes at each address name the write that
        #: survived, so the image fixes every survivor counter pair and,
        #: with it, the fingerprint.
        self._fingerprints: dict[tuple[str, str], str] | None = (
            {} if repeats == 0 else None
        )
        #: Initial data lines have no recorded write events, so their
        #: survivor pairs are unknowable; such traces (none of ours)
        #: degrade to the concrete fingerprint throughout.
        self._mechanism_ok = bool(trace.counters) and not any(
            self.layout.region_of(addr) == "data"
            for addr in trace.initial_lines
        )
        #: Stored counter line bytes -> decoded line; read-only, shared by
        #: every state that holds the same stored line.
        self._decoded: dict[bytes, CounterLine] = {}

    # -- fingerprints ------------------------------------------------------------

    def fingerprint(
        self, state: CrashState, key: tuple[str, str] | None = None
    ) -> str:
        """The class identity of one crash state, as ``kind:hexdigest``.

        *key*, the state's content key (``(image_hash(),
        lines_digest(expected))``, as :meth:`ClassOracle.evaluate_raw`
        keys verdicts), serves a state whose content was fingerprinted
        before from the memo.  Torn states are always fingerprinted
        afresh: their concrete fingerprint names their crash point.
        """
        memo = self._fingerprints
        if key is None or memo is None or state.torn is not None:
            return self._fingerprint(state)
        fingerprint = memo.get(key)
        if fingerprint is None:
            fingerprint = memo[key] = self._fingerprint(state)
        return fingerprint

    def _fingerprint(self, state: CrashState) -> str:
        if state.torn is not None or not self._mechanism_ok:
            return "concrete:" + self._concrete(state)
        mech = self._mechanism(state)
        if mech is None:
            return "concrete:" + self._concrete(state)
        return "mechanism:" + mech

    def _concrete(self, state: CrashState) -> str:
        """Hash of the observable image + observable canonical registers."""
        skip_merkle = not self._merkle_observable
        merkle_base = self.layout.merkle_base
        h = hashlib.sha256()
        for addr in sorted(state.lines):
            if skip_merkle and addr >= merkle_base:
                continue
            h.update(addr.to_bytes(8, "little"))
            h.update(state.lines[addr])
        regs = registers_to_dict(state.registers)
        observed = {
            name: value
            for name, value in regs.items()
            if name in self._observed_registers
        }
        h.update(repr(canonical_value(observed)).encode())
        for addr in sorted(state.expected):
            h.update(addr.to_bytes(8, "little"))
            h.update(state.expected[addr])
        if state.torn is not None:
            h.update(f"torn:{state.k}:{state.torn}".encode())
        return h.hexdigest()

    def _survivor_pair(self, k: int, dropped: set[int], addr: int):
        """(major, minor) of the last write to *addr* that survives a
        crash at point *k* with units *dropped* lost, or None."""
        for unit_index, seq in reversed(self._writes.get(addr, ())):
            if unit_index < k and unit_index not in dropped:
                return self.trace.counters.get(seq)
        return None

    def _mechanism(self, state: CrashState) -> str | None:
        """The recovery-relevant canonical tuple, hashed; None = fall back."""
        policy = self.policy
        layout = self.layout
        registers = state.registers

        data_end, counter_end, _ = layout.region_bounds
        touched: dict[int, list[int]] = {}
        for addr in state.lines:
            if addr < data_end:
                touched.setdefault(page_index(addr), []).append(addr)

        # Per-leaf features are *anonymized* (no leaf or slot identity):
        # a passing verdict exposes only totals — Nretry, the
        # unrecoverable-block count — plus the per-page coupling between
        # an unrecoverable block and its page's major roll (normalization
        # re-authenticates such a block, flipping its post-recovery read
        # from IntegrityError to success).  Leaf identity re-enters only
        # through the locate design's extension registers, whose skip
        # notes and compare bits name pages (``log_feats`` below).
        leaf_feats = []
        leaf_retries: dict[int, int] = {}
        rolled_leaves: set[int] = set()
        total_retries = 0
        unrecoverable = 0
        # Only the rebuilt-root freshness check (``root_new`` designs)
        # reads the recovery-adjusted counter image.
        adjusted: dict[int, bytes] | None = None
        if policy.freshness_check == "root_new":
            adjusted = {
                addr: data
                for addr, data in state.lines.items()
                if data_end <= addr < counter_end
            }
        decoded = self._decoded
        k = state.k
        dropped = set(state.dropped)
        for leaf, addrs in sorted(touched.items()):
            counter_addr = layout.counter_line_addr(addrs[0])
            stored_raw = state.lines.get(counter_addr)
            if stored_raw is None:
                stored_raw = self.tree.scheme.nvm.virgin(counter_addr)
            stored = decoded.get(stored_raw)
            if stored is None:
                stored = decoded[stored_raw] = CounterLine.decode(stored_raw)
            blocks = []
            pairs: dict[int, tuple[int, int]] = {}
            retries_here = 0
            rolled = False
            for addr in sorted(addrs):
                survivor = self._survivor_pair(k, dropped, addr)
                if survivor is None:
                    return None
                slot = block_in_page(addr)
                smaj, smin = stored.counter_pair(slot)
                maj, minor = survivor
                # Mirror RecoveryManager._recover_block: roll the minor
                # forward within the bound, then try one major bump.
                if (
                    maj == smaj
                    and smin <= minor <= min(smin + self.retry_limit,
                                             MINOR_COUNTER_MAX)
                ):
                    delta = minor - smin
                    blocks.append(("ok", delta))
                    pairs[slot] = survivor
                    retries_here += delta
                elif maj == smaj + 1 and minor <= self.retry_limit:
                    blocks.append(("rolled", minor))
                    pairs[slot] = survivor
                    retries_here += minor
                    rolled = True
                else:
                    blocks.append(("unrecoverable",))
                    unrecoverable += 1
            target = max([stored.major] + [p[0] for p in pairs.values()])
            if target > stored.major:
                rolled = True
            if adjusted is not None:
                adjusted[counter_addr] = self._adjusted_line(
                    stored, pairs, target
                )
            leaf_retries[leaf] = retries_here
            total_retries += retries_here
            if rolled:
                rolled_leaves.add(leaf)
            unrec_here = sum(1 for b in blocks if b[0] == "unrecoverable")
            if unrec_here:
                # Only pages with an unrecoverable block are featurized:
                # a fully-recovered page's identity, roll state and
                # retry split are invisible to every check (rolls reach
                # the verdict solely through ``fresh_feat``/``log_feats``
                # below, and retries only through their global sum).
                leaf_feats.append((unrec_here, rolled))

        matched = None
        if policy.check_tree_against:
            tree_lines = self.tree.tree_lines(state.lines)
            for name in policy.check_tree_against:
                root = registers["root_old" if name == "old" else "root_new"]
                if self.tree.matches(tree_lines, root):
                    matched = name
                    break

        log_feats = None
        located = False
        if policy.use_counter_log:
            if matched == "new":
                log_feats = "skip_new"
            else:
                feats = []
                for counter_addr, expected in sorted(
                    registers["counter_log"].items()
                ):
                    leaf = layout.leaf_index_of_counter_addr(counter_addr)
                    if leaf in rolled_leaves:
                        feats.append((leaf, "skip_roll"))
                    else:
                        hit = expected == leaf_retries.get(leaf, 0)
                        located = located or not hit
                        feats.append((leaf, "cmp", hit))
                log_feats = tuple(feats)

        fresh_feat = None
        if policy.freshness_check == "nwb":
            if located:
                fresh_feat = "located"
            elif matched == "new":
                fresh_feat = "skip_new"
            elif rolled_leaves:
                fresh_feat = "skip_roll"
            else:
                fresh_feat = ("cmp", registers["nwb"] == total_retries)
        elif policy.freshness_check == "root_new":
            fresh_feat = (
                "cmp",
                self.tree.rebuilt_root(adjusted) == registers["root_new"],
            )

        record = (
            self.scheme_name,
            bool(registers["recovery_pending"]),
            tuple(sorted(leaf_feats)),
            matched,
            log_feats,
            fresh_feat,
            total_retries,
            unrecoverable,
        )
        return hashlib.sha256(repr(record).encode()).hexdigest()

    @staticmethod
    def _adjusted_line(
        stored: CounterLine, pairs: dict[int, tuple[int, int]], target: int
    ) -> bytes:
        """The counter line recovery writes back for one page (encoded)."""
        if target > stored.major:
            full = {}
            for block in range(BLOCKS_PER_PAGE):
                pair = pairs.get(block, stored.counter_pair(block))
                full[block] = pair if pair[0] >= target else (target, 0)
            line = CounterLine(target, [full[b][1] for b in range(BLOCKS_PER_PAGE)])
        else:
            line = CounterLine(stored.major, list(stored.minors))
            for block, (_, minor) in pairs.items():
                line.minors[block] = minor
        return line.encode()

    # -- invisibility analysis -----------------------------------------------------

    def pinned_candidates(
        self, candidates: list[int]
    ) -> tuple[int, ...]:
        """Drop-candidates whose loss no recovery path can observe.

        A unit qualifies when it writes only unobservable regions (for
        this design's recovery), carries no TCB register op, and is
        line-disjoint from every other candidate (so pinning it applied
        neither forces nor forbids any other drop).  Dropping such a unit
        changes only stored interior tree nodes that recovery's rebuild
        recomputes from the counters before anything reads them.
        """
        if self._merkle_observable:
            return ()
        units = self.trace.units
        pinned = []
        for u in candidates:
            unit = units[u]
            addrs = unit.addrs
            if not addrs or any(op.kind == "tcb" for op in unit.ops):
                continue
            if any(self.layout.region_of(a) != "merkle" for a in addrs):
                continue
            if any(
                addrs & units[v].addrs for v in candidates if v != u
            ):
                continue
            pinned.append(u)
        return tuple(pinned)


class ReducedEnumerator(CrashEnumerator):
    """A :class:`CrashEnumerator` that expands drop-sets exhaustively
    over the reducer's non-pinned candidates only.

    ``pins[k]`` records the pinned candidates of each expanded crash
    point; every state yielded at ``k`` stands for ``2**len(pins[k])``
    brute-force states (itself plus every pinned-drop variant).
    """

    def __init__(
        self,
        trace: PersistTrace,
        reducer: CrashStateReducer,
        window: int = 4,
        torn_batches: bool = False,
    ) -> None:
        super().__init__(trace, window=window, torn_batches=torn_batches)
        self.reducer = reducer
        self.pins: dict[int, tuple[int, ...]] = {}

    def weight(self, k: int) -> int:
        """Brute-force states one materialized state at point *k* covers."""
        return 2 ** len(self.pins.get(k, ()))

    def _drop_sets(self, k, candidates):
        pins = self.reducer.pinned_candidates(candidates)
        self.pins[k] = pins
        return super()._drop_sets(k, [c for c in candidates if c not in pins])


def materialize(trace: PersistTrace, k: int, dropped) -> CrashState:
    """Build the crash state (*k*, *dropped*) by direct replay.

    Used when a violating class forces pin-expanded variants to be
    evaluated individually: the variants were deliberately never
    generated, so they are rebuilt here.
    """
    dropped = tuple(sorted(dropped))
    drop_set = set(dropped)
    lines = dict(trace.initial_lines)
    registers = _copy_registers(trace.initial_registers)
    expected: dict[int, bytes] = {}
    for j in range(k):
        if j in drop_set:
            continue
        for op in trace.units[j].ops:
            apply_op(lines, registers, expected, op, trace.annotations)
    return CrashState(k, dropped, None, lines, registers, expected)


def pin_variants(state: CrashState, pins) -> list[tuple[int, ...]]:
    """Every pinned-drop variant of *state*'s drop-set (excluding it).

    Pinned candidates are line-disjoint from all other candidates, so
    any subset may be added to the drop-set without breaking per-address
    consistency.
    """
    import itertools

    base = set(state.dropped)
    out = []
    for r in range(1, len(pins) + 1):
        for combo in itertools.combinations(pins, r):
            out.append(tuple(sorted(base | set(combo))))
    return out
