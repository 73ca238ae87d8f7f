"""The benchmark's workloads, as plain data.

This module imports nothing from ``repro`` so the parent process (which
only spawns passes, checks digests and prints metrics) starts fast and
fails cleanly when the simulator sources are missing.

Each workload is a *kind* (which public entry point one pass calls) plus
JSON-able *params* (its size).  The pass child receives the whole
definition, so tests run any workload at a tiny size through the same
code path.  Why each workload exists is in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

COLD_FIG5 = "cold-fig5"
CAMPAIGN = "campaign"
WARM_FIG5 = "warm-fig5"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what a pass runs."""

    name: str
    kind: str
    params: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Workload":
        return Workload(**data)

    @property
    def time_bounded(self) -> bool:
        """Warm replays loop until a budget; cold passes run a fixed op set."""
        return self.kind == WARM_FIG5


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig5-stream",
            kind=COLD_FIG5,
            params={"benchmarks": ["leslie3d", "libquantum", "lbm", "milc"], "length": 700},
        ),
        Workload(
            name="fig5-resident",
            kind=COLD_FIG5,
            params={"benchmarks": ["gcc", "soplex", "hmmer", "namd"], "length": 1000},
        ),
        Workload(
            name="crash-campaign",
            kind=CAMPAIGN,
            params={"profiles": ["hotset"]},
        ),
        Workload(
            name="fig5-warm",
            kind=WARM_FIG5,
            params={
                "benchmarks": [
                    "leslie3d", "libquantum", "gcc", "lbm",
                    "soplex", "hmmer", "milc", "namd",
                ],
                "length": 100,
            },
        ),
    )
}
