"""ACE-style bounded workload enumeration for the crash campaign.

Following the ACE idea behind CrashMonkey/Silhouette — crash-consistency
bugs are overwhelmingly exposed by *tiny* workloads, so enumerate the
small space exhaustively instead of sampling the large one — this module
generates **every** bounded write workload over three axes:

* ``k`` writes (the workload length);
* the **address-overlap pattern**: which writes touch the same cache
  line.  Concrete addresses are irrelevant to crash consistency; only
  the overlap structure matters, so patterns are equivalence classes of
  surjections ``write -> line`` under line relabeling.  The canonical
  representative is the *restricted growth string* (RGS): position 0 is
  line 0, and each later write either revisits an already-used line or
  introduces the next fresh one.  There are exactly Bell(k) such
  strings, versus k^k raw address assignments — the canonical-form
  dedup collapses every symmetric relabeling to one representative;
* the **flush/fence placement**: after each write the workload either
  does nothing or forces a full epoch drain (``scheme.flush()``), the
  strongest persist barrier every scheme implements — 2^k masks.

Each enumerated workload is named ``ace-k<k>-<rgs>-<fences>`` — a
self-describing crashsim profile string parsed by
:func:`repro.crashsim.workload.record_workload` — and the whole set
feeds the standing crash campaign
(:func:`repro.crashsim.explore.run_campaign`) as an ordinary profile
grid: content-cached, journaled, sharded, gated on zero violations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

#: Where ACE write streams land (same small page range the SPEC-folded
#: crash workloads use, clear of the oracle's probe page).
ACE_BASE = 0x2000

#: Prefix marking a crashsim profile as an enumerated ACE workload.
PROFILE_PREFIX = "ace-"

#: Largest k the enumerators accept.  Bell(6) * 2^6 = 12,928 workloads
#: is already far beyond what a campaign run wants; the cap exists to
#: catch accidental unbounded requests, not as a meaningful limit.
MAX_K = 6


@dataclass(frozen=True)
class AceWorkload:
    """One canonical bounded workload: k writes, overlap pattern, fences.

    ``pattern`` is the restricted growth string as a digit string
    (``"010"`` = writes 0 and 2 hit one line, write 1 another);
    ``fences`` is a bit string (``fences[i] == "1"`` = full flush after
    write i).
    """

    k: int
    pattern: str
    fences: str

    def addrs(self) -> list[int]:
        """Concrete line addresses of the canonical representative."""
        return [ACE_BASE + int(d) * 64 for d in self.pattern]

    def profile(self) -> str:
        """The self-describing crashsim profile name."""
        return f"ace-k{self.k}-{self.pattern}-{self.fences}"

    def lines(self) -> int:
        """Distinct lines the workload touches."""
        return len(set(self.pattern))


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"ace k must be in 1..{MAX_K}, got {k}")


def bell(k: int) -> int:
    """Bell number B(k): set partitions of k items (Bell-triangle row)."""
    _check_k(k)
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def growth_strings(k: int) -> list[str]:
    """All restricted growth strings of length k, lexicographic.

    ``a[0] == 0`` and ``a[i] <= max(a[:i]) + 1`` — the canonical
    labelings of the Bell(k) address-overlap classes.
    """
    _check_k(k)
    strings: list[str] = []

    def extend(prefix: list[int], peak: int) -> None:
        if len(prefix) == k:
            strings.append("".join(map(str, prefix)))
            return
        for digit in range(peak + 2):
            extend(prefix + [digit], max(peak, digit))

    extend([0], 0)
    return strings


def canonical_pattern(pattern) -> str:
    """Canonicalize an address assignment by first-occurrence relabeling.

    Any sequence of hashable "addresses" maps to the RGS of its overlap
    structure: the first distinct address becomes 0, the next 1, ...
    Two assignments canonicalize identically iff one is an address
    relabeling of the other.
    """
    labels: dict = {}
    out = []
    for addr in pattern:
        if addr not in labels:
            labels[addr] = len(labels)
        out.append(labels[addr])
    return "".join(map(str, out))


def raw_workloads(k: int):
    """Every (assignment, fence-mask) pair WITHOUT dedup: k^k * 2^k.

    The brute-force space the canonical enumeration collapses; used by
    the dedup test, not by campaigns.
    """
    _check_k(k)
    for assignment in itertools.product(range(k), repeat=k):
        for mask in range(1 << k):
            fences = format(mask, f"0{k}b")
            yield assignment, fences


def enumerate_ace(k: int) -> list[AceWorkload]:
    """Every canonical bounded workload at k writes: Bell(k) * 2^k.

    Deterministic order: patterns lexicographic, fence masks ascending.
    """
    _check_k(k)
    out = []
    for pattern in growth_strings(k):
        for mask in range(1 << k):
            out.append(AceWorkload(k, pattern, format(mask, f"0{k}b")))
    return out


def raw_count(k: int) -> int:
    """Size of the brute-force space: k^k address maps x 2^k fences."""
    _check_k(k)
    return k**k * (1 << k)


def canonical_count(k: int) -> int:
    """Closed-form size of the deduped space: Bell(k) * 2^k."""
    return bell(k) * (1 << k)


def dedup_ratio(k: int) -> float:
    """Brute-force/canonical ratio (= k^k / Bell(k); 5.4x at k=3)."""
    return raw_count(k) / canonical_count(k)


# ---------------------------------------------------------------------------
# Profile-name round trip (the crashsim wire format)
# ---------------------------------------------------------------------------


def is_ace_profile(name: str) -> bool:
    """True if *name* is an enumerated-workload profile string."""
    return isinstance(name, str) and name.startswith(PROFILE_PREFIX)


def parse_profile(name: str) -> AceWorkload:
    """Parse ``ace-k<k>-<rgs>-<fences>`` back into its workload."""
    parts = name.split("-")
    if len(parts) != 4 or parts[0] != "ace" or not parts[1].startswith("k"):
        raise ValueError(
            f"malformed ace profile {name!r} (want ace-k<k>-<rgs>-<fences>)"
        )
    try:
        k = int(parts[1][1:])
    except ValueError:
        raise ValueError(f"malformed ace profile {name!r}: bad k") from None
    _check_k(k)
    pattern, fences = parts[2], parts[3]
    if len(pattern) != k or not all(c.isdigit() for c in pattern):
        raise ValueError(f"malformed ace profile {name!r}: bad pattern")
    if canonical_pattern(int(c) for c in pattern) != pattern:
        raise ValueError(
            f"malformed ace profile {name!r}: pattern is not a canonical "
            "restricted growth string"
        )
    if len(fences) != k or not all(c in "01" for c in fences):
        raise ValueError(f"malformed ace profile {name!r}: bad fence mask")
    return AceWorkload(k, pattern, fences)


# ---------------------------------------------------------------------------
# The standing campaign driver
# ---------------------------------------------------------------------------


def ace_profiles(k: int) -> list[str]:
    """The profile names of the full k-write enumeration, in order."""
    return [w.profile() for w in enumerate_ace(k)]


def ace_campaign_config(
    k: int,
    schemes: tuple[str, ...] = (),
    seed: int = 7,
    data_capacity: int = 1 << 16,
    spot: int = 1,
    closure: bool = False,
):
    """A :class:`~repro.crashsim.explore.CrashCampaignConfig` covering
    every canonical k-write workload on *schemes* (empty = all six).

    Traces are k writes long, so shards=1: the crash-state space of one
    cell is tiny and the grid itself (Bell(k)*2^k profiles x schemes)
    provides the parallelism.  The window is at least the enumerator's
    default, as in the standing campaign: a window of k < 4 leaves out
    drop-sets that window 4 enumerates.
    """
    from repro.crashsim.enumerate import DEFAULT_WINDOW
    from repro.crashsim.explore import CrashCampaignConfig

    return CrashCampaignConfig(
        schemes=tuple(schemes),
        profiles=tuple(ace_profiles(k)),
        steps=k,
        window=max(k, DEFAULT_WINDOW),
        seed=seed,
        shards=1,
        data_capacity=data_capacity,
        spot=spot,
        closure=closure,
    )


def enumeration_stats(k: int) -> dict:
    """Headline numbers for one k: raw/canonical counts and the ratio."""
    return {
        "k": k,
        "raw_workloads": raw_count(k),
        "canonical_workloads": canonical_count(k),
        "overlap_classes": bell(k),
        "fence_placements": 1 << k,
        "dedup_ratio": round(dedup_ratio(k), 3),
    }
