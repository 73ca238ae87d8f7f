"""Declarative run specifications with deterministic content hashes.

A :class:`RunSpec` names everything that determines one experiment's
outcome — the kind of run, the design, the workload recipe, the system
configuration and every seed — as plain JSON-able data.  Two specs that
would produce the same result serialize to the same canonical JSON and
therefore hash to the same :meth:`RunSpec.spec_hash`, which is the key
the on-disk result cache and the run journal are addressed by.

The spec deliberately stores the workload *recipe* (name, length, seed),
never the generated trace: traces are megabytes, regenerating them is
deterministic and cheap, and keeping specs tiny lets a worker process
rebuild its entire job from one small dict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.common.config import (
    CacheConfig,
    ControllerConfig,
    CpuConfig,
    EpochConfig,
    NVMConfig,
    SecurityConfig,
    SystemConfig,
)

#: Run kinds the worker pool knows how to execute (see ``runs.pool``).
RUN_KINDS = ("simulation", "crash")


def canonical_json(obj: Any) -> str:
    """The one serialization used for hashing: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# SystemConfig <-> plain dict
# ---------------------------------------------------------------------------


def config_to_dict(config: SystemConfig) -> dict:
    """Flatten a :class:`SystemConfig` into a JSON-able nested dict."""
    return asdict(config)


def config_from_dict(data: Mapping) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    security = dict(data["security"])
    security["meta_cache"] = CacheConfig(**security["meta_cache"])
    return SystemConfig(
        cpu=CpuConfig(**data["cpu"]),
        l1=CacheConfig(**data["l1"]),
        l2=CacheConfig(**data["l2"]),
        nvm=NVMConfig(**data["nvm"]),
        controller=ControllerConfig(**data["controller"]),
        security=SecurityConfig(**security),
        epoch=EpochConfig(**data["epoch"]),
    )


def _normalize_config(config: SystemConfig | Mapping | None) -> dict | None:
    if config is None:
        return None
    if isinstance(config, SystemConfig):
        return config_to_dict(config)
    return dict(config)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one experiment's result, as data.

    * ``kind`` — what the worker executes: a full-system ``simulation``
      or a ``crash`` shard of the crash campaign
      (:mod:`repro.crashsim.explore`).
    * ``scheme`` / ``workload`` / ``length`` / ``seed`` — the design and
      the workload recipe (SPEC surrogate name + generator parameters).
    * ``scheme_seed`` — the key-derivation seed handed to
      :func:`repro.core.schemes.create_scheme` (independent of the
      workload seed, exactly as in :func:`repro.sim.runner.run_simulation`).
    * ``warmup`` — warmup fraction replayed before measurement.
    * ``config`` — full :func:`config_to_dict` image, or ``None`` for the
      paper-default :class:`SystemConfig`.
    * ``params`` — kind-specific knobs (cell mode, shard, recovery site,
      steps, data capacity ...); folded into the hash like everything else.

    The spec hash is computed once, in ``__post_init__``, and memoized:
    the dataclass is frozen, ``__post_init__`` replaces ``config`` and
    ``params`` with normalized copies, and nothing mutates them (or
    their nested dicts) afterwards, so the hash cannot go stale.  Code
    that wants a different spec builds a new one.
    """

    kind: str = "simulation"
    scheme: str = "ccnvm"
    workload: str = ""
    length: int = 0
    seed: int = 0
    scheme_seed: int = 0
    warmup: float = 0.0
    config: Mapping | None = None
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise ValueError(f"unknown run kind {self.kind!r}; choose from {RUN_KINDS}")
        object.__setattr__(self, "config", _normalize_config(self.config))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(
            self,
            "_spec_hash",
            hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest(),
        )

    def to_dict(self) -> dict:
        """Plain-dict image — the canonical JSON of this is what is hashed."""
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "length": self.length,
            "seed": self.seed,
            "scheme_seed": self.scheme_seed,
            "warmup": self.warmup,
            "config": self.config,
            "params": dict(self.params),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "RunSpec":
        return RunSpec(**dict(data))

    def spec_hash(self) -> str:
        """Deterministic content hash of the spec (sha256 of canonical JSON)."""
        return self._spec_hash

    def describe(self) -> str:
        """A short human label for progress lines and journals."""
        parts = [self.kind, self.scheme]
        if self.workload:
            parts.append(f"{self.workload}@{self.length}#{self.seed}")
        if "profile" in self.params:
            parts.append(str(self.params["profile"]))
        if self.params.get("mode") == "enumerate":
            parts.append(f"shard{self.params['shard']}/{self.params['shards']}")
        return "/".join(parts)

    def system_config(self) -> SystemConfig:
        """The live :class:`SystemConfig` this spec runs under."""
        return SystemConfig() if self.config is None else config_from_dict(self.config)


def simulation_spec(
    scheme: str,
    workload: str,
    length: int,
    seed: int,
    config: SystemConfig | Mapping | None = None,
    scheme_seed: int = 0,
    warmup: float = 0.0,
    data_capacity: int | None = None,
) -> RunSpec:
    """Spec for one :func:`repro.sim.runner.run_simulation` cell.

    The worker builds the trace with :func:`repro.workloads.spec.spec_trace`
    from *workload* (a Figure-5 surrogate name), *length* and *seed*.
    """
    params = {} if data_capacity is None else {"data_capacity": data_capacity}
    return RunSpec(
        kind="simulation",
        scheme=scheme,
        workload=workload,
        length=length,
        seed=seed,
        scheme_seed=scheme_seed,
        warmup=warmup,
        config=config,
        params=params,
    )


