"""Outside-in per-layer timing: wrappers on each layer's public boundaries.

:class:`Tracer` is a context manager.  On entry it replaces every
boundary in :data:`BOUNDARIES` with a timing wrapper; on exit it puts
the original attributes back.  Nothing under ``src/`` is edited.

* A ``module:Class.method`` target is wrapped on the class *and on every
  subclass that defines the method itself* — e.g. all
  ``SecureNVMScheme`` designs for ``flush`` and ``recover``.
* A ``module:function`` target is wrapped in its defining module and in
  every loaded ``repro`` module that imported it by name.  On exit every
  loaded ``repro`` module is scanned again, so a module first imported
  while tracing (and so holding a wrapper) is restored too.

Each call pushes a frame on one span stack.  A boundary's *self* time is
its duration minus the time of the wrapped calls it made, so self times
of all boundaries never sum to more than the traced wall time.  Counts,
inclusive and self time are aggregated per *group* (``<layer>.<name>``)
on the fly; the only spans kept are op-level ones, one per op marked
with :meth:`Tracer.op_done`, carrying each layer's self time inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: This repository's packages, innermost first.
LAYERS = (
    "workloads", "sim", "mem", "metadata", "crypto",
    "core", "crashsim", "runs", "analysis",
)


def _line_address(args):
    # GenesisImage.line(self, addr)
    return args[1]


def _pad_inputs(args):
    # CounterModeCipher.encrypt/decrypt(self, text, address, major, minor):
    # the one-time pad depends on (address, major, minor) only.
    return args[2:5]


def _cpu_result(values: dict, args, result) -> None:
    values["read_stall_cycles"] = values.get("read_stall_cycles", 0) + result.read_stall_cycles
    values["write_stall_cycles"] = values.get("write_stall_cycles", 0) + result.write_stall_cycles


def _submitted(values: dict, args, result) -> None:
    # run_specs(specs, ...): every spec submitted, duplicates included.
    values["specs"] = values.get("specs", 0) + len(args[0])


def _cache_get(values: dict, args, result) -> None:
    values["hits"] = values.get("hits", 0) + (result is not None)


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point of a layer."""

    #: ``<layer>.<name>``; several targets may share a group.
    group: str
    #: ``module:Class.method`` or ``module:function``.
    target: str
    #: Maps call args to a key; the group reports how many distinct keys
    #: the traced pass saw (every cell of a pass derives its keys from
    #: the same seed, so equal keys mean equal work).
    key: Callable | None = None
    #: ``(values, args, result)`` hook folding the return value into the
    #: group's ``values`` dict.
    observe: Callable | None = None


_SCHEME = "repro.core.schemes.base:SecureNVMScheme"

BOUNDARIES = (
    Boundary("workloads.trace", "repro.workloads.spec:spec_trace"),
    Boundary("workloads.trace", "repro.workloads.spec:SpecProfile.generate"),
    Boundary("sim.run", "repro.sim.runner:run_simulation"),
    Boundary("sim.cpu", "repro.sim.cpu:TraceCPU.run", observe=_cpu_result),
    Boundary("sim.hierarchy", "repro.sim.system:MemoryHierarchy.read"),
    Boundary("sim.hierarchy", "repro.sim.system:MemoryHierarchy.write"),
    Boundary("sim.hierarchy", "repro.sim.system:MemoryHierarchy.flush"),
    Boundary("mem.cache", "repro.mem.cache:Cache.access"),
    Boundary("mem.cache", "repro.mem.cache:Cache.fill"),
    Boundary("mem.nvm_read", "repro.mem.nvm:NVMDevice.read_line"),
    Boundary("mem.nvm_write", "repro.mem.nvm:NVMDevice.write_line"),
    Boundary("mem.controller", "repro.mem.controller:MemoryController.read_line"),
    Boundary("mem.controller", "repro.mem.controller:MemoryController.post_writes"),
    Boundary("mem.wpq", "repro.mem.wpq:WritePendingQueue.write"),
    Boundary("mem.wpq", "repro.mem.wpq:WritePendingQueue.commit_atomic"),
    Boundary("mem.wpq", "repro.mem.wpq:WritePendingQueue.power_failure"),
    Boundary("metadata.genesis", "repro.metadata.genesis:GenesisImage.line", key=_line_address),
    Boundary("metadata.load_counter", "repro.metadata.metacache:MetadataStore.load_counter"),
    Boundary("metadata.load_node", "repro.metadata.metacache:MetadataStore.load_node"),
    Boundary("metadata.merkle", "repro.metadata.merkle:MerkleTree.compute_root"),
    Boundary("metadata.merkle", "repro.metadata.merkle:MerkleTree.find_mismatches"),
    Boundary("metadata.merkle", "repro.metadata.merkle:MerkleTree.build"),
    Boundary("crypto.otp", "repro.crypto.cme:CounterModeCipher.encrypt", key=_pad_inputs),
    Boundary("crypto.otp", "repro.crypto.cme:CounterModeCipher.decrypt", key=_pad_inputs),
    Boundary("crypto.hmac", "repro.crypto.hmac_engine:HmacEngine.data_hmac"),
    Boundary("crypto.hmac", "repro.crypto.hmac_engine:HmacEngine.counter_hmac"),
    Boundary("core.create", "repro.core.schemes:create_scheme"),
    Boundary("core.writeback", f"{_SCHEME}.writeback"),
    Boundary("core.read", f"{_SCHEME}.read"),
    Boundary("core.flush", f"{_SCHEME}.flush"),
    Boundary("core.recover", f"{_SCHEME}.recover"),
    Boundary("core.engine", "repro.core.engine:EncryptionEngine.write_data_block"),
    Boundary("core.engine", "repro.core.engine:EncryptionEngine.read_data_block"),
    Boundary("core.engine", "repro.core.engine:EncryptionEngine.reencrypt_page"),
    Boundary("core.recovery", "repro.core.recovery:RecoveryManager.run"),
    Boundary("crashsim.campaign", "repro.crashsim.explore:run_campaign"),
    Boundary("crashsim.cell", "repro.crashsim.explore:execute_cell"),
    Boundary("crashsim.record", "repro.crashsim.workload:record_workload"),
    Boundary("crashsim.oracle", "repro.crashsim.oracle:RecoveryOracle.evaluate"),
    Boundary("crashsim.classes", "repro.crashsim.oracle:ClassOracle.submit"),
    Boundary("crashsim.reduce", "repro.crashsim.reduce:CrashStateReducer.fingerprint"),
    Boundary("runs.run_specs", "repro.runs.orchestrate:run_specs", observe=_submitted),
    Boundary("runs.execute", "repro.runs.pool:execute_spec"),
    Boundary("runs.spec_hash", "repro.runs.spec:RunSpec.spec_hash"),
    Boundary("runs.cache_get", "repro.runs.cache:ResultCache.get", observe=_cache_get),
    Boundary("runs.cache", "repro.runs.cache:ResultCache.put"),
    Boundary("runs.cache", "repro.runs.cache:ResultCache.flush_stats"),
    Boundary("runs.journal", "repro.runs.journal:RunJournal.__init__"),
    Boundary("runs.journal", "repro.runs.journal:RunJournal.record"),
    Boundary("analysis.fig5", "repro.analysis.experiments:figure5_comparisons"),
    Boundary("analysis.export", "repro.analysis.export:result_from_dict"),
    Boundary("analysis.export", "repro.analysis.export:fig5_bench_to_json"),
    Boundary("analysis.report", "repro.analysis.report:headline_numbers"),
    Boundary("analysis.report", "repro.analysis.report:ipc_table"),
    Boundary("analysis.report", "repro.analysis.report:write_traffic_table"),
)


class _Group:
    """Running totals of one boundary group."""

    __slots__ = ("calls", "inclusive", "self_time", "depth", "keys", "values")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        #: Open calls of this group; inclusive time counts the outermost only.
        self.depth = 0
        self.keys: set = set()
        self.values: dict = {}


def _resolve(target: str):
    """``(owner, attribute name, original object, is_method)`` of a target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr), bool(outer)


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Context manager timing every boundary in :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        self.groups: dict[str, _Group] = {b.group: _Group() for b in BOUNDARIES}
        self.spans: list[dict] = []
        self.wall_s = 0.0
        self._stack: list[list[float]] = []
        #: (owner, attribute, original) in installation order.
        self._patched: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) for every wrapper made; the
        #: exit-time module scan looks wrappers up here, and holding them
        #: keeps their ids from being reused.
        self.wrappers: dict[int, tuple[object, object]] = {}

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, boundary: Boundary):
        group = self.groups[boundary.group]
        stack = self._stack
        clock = time.perf_counter
        key = boundary.key
        observe = boundary.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                group.keys.add(key(args))
            frame = [0.0]
            stack.append(frame)
            group.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                group.depth -= 1
                group.calls += 1
                group.self_time += elapsed - frame[0]
                if not group.depth:
                    group.inclusive += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(group.values, args, result)
            return result

        self.wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _install(self, boundary: Boundary) -> None:
        owner, attr, original, is_method = _resolve(boundary.target)
        if is_method:
            for cls in _subclasses(owner):
                fn = cls.__dict__.get(attr)
                if callable(fn):
                    self._patch(cls, attr, fn, self._wrap(fn, boundary))
            return
        wrapper = self._wrap(original, boundary)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                pair = self.wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, name, pair[1])

    def __enter__(self) -> "Tracer":
        try:
            for boundary in BOUNDARIES:
                self._install(boundary)
        except BaseException:
            self._restore()
            raise
        self._started = self._op_started = time.perf_counter()
        self._op_self = self._layer_self()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        self._restore()

    # -- ops and results -----------------------------------------------------

    def _layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, group in self.groups.items():
            totals[name.split(".", 1)[0]] += group.self_time
        return totals

    def op_done(self, name: str) -> None:
        """Close the op that ran since the previous mark, as one span."""
        now = time.perf_counter()
        current = self._layer_self()
        self.spans.append(
            {
                "name": name,
                "start_s": self._op_started - self._started,
                "dur_s": now - self._op_started,
                "self_s": {
                    layer: current[layer] - self._op_self[layer]
                    for layer in LAYERS
                    if current[layer] != self._op_self[layer]
                },
            }
        )
        self._op_started, self._op_self = now, current

    def summary(self) -> dict:
        """JSON-able totals per group and per layer, plus the op spans."""
        groups = {}
        for name, group in self.groups.items():
            groups[name] = {
                "calls": group.calls,
                "self_s": group.self_time,
                "inclusive_s": group.inclusive,
                "distinct": len(group.keys),
                **group.values,
            }
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, stats in groups.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += stats["calls"]
            layer["self_s"] += stats["self_s"]
        return {"wall_s": self.wall_s, "groups": groups, "layers": layers, "spans": self.spans}
