"""The mutation corpus behind DESIGN.md's mutation audit table.

Each :class:`Mutant` is one contiguous edit (``before`` -> ``after``,
``before`` occurring exactly once in ``path``) that plants a bug of the
kind one persist-order or determinism charter describes.  ``mutate.py``
applies them one at a time to a scratch copy of the repository; nothing
here is collected by pytest (no ``test_`` prefix).

Per mutant the corpus records what the audit measured:

* ``catchers`` — tier-1 node ids that fail on it (the fastest few of
  all the failures; DESIGN.md gives the full counts).  Every mutant has
  at least one;
* ``hashseeds`` — the ``PYTHONHASHSEED`` values every catch must hold
  under (set-order mutants list two).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    id: str
    #: The charter the planted bug belongs to, named by the rule of the
    #: former static analyzer that covered it (``XC`` = its trace
    #: cross-check): P1 persistent state assigned outside its owner, P3/P6
    #: persist ordering, P4 volatile reads in recovery, P5 scheme seams,
    #: P7/XC persists the trace misses, D0-D2 determinism.
    charter: str
    title: str
    #: File to edit, relative to the repository root.
    path: str
    before: str
    after: str
    catchers: tuple[str, ...] = ()
    hashseeds: tuple[int, ...] = (0,)


OSIRIS = "src/repro/core/schemes/osiris.py"
CCNVM = "src/repro/core/schemes/ccnvm.py"
STRICT = "src/repro/core/schemes/strict.py"
BASE = "src/repro/core/schemes/base.py"
TCB = "src/repro/core/tcb.py"
RECOVERY = "src/repro/core/recovery.py"
WPQ = "src/repro/mem/wpq.py"
SPEC = "src/repro/runs/spec.py"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "M01", "P6", "Osiris Plus stop-loss counter persist unfenced",
        OSIRIS,
        "            self.wpq.begin_atomic()\n"
        "            self.wpq.write_atomic(counter_addr, self.meta.encoded(line))\n"
        "            self.wpq.commit_atomic()\n",
        "            self.wpq.write(counter_addr, self.meta.encoded(line))\n",
        catchers=(
            "tests/integration/test_crash_campaign.py::TestDifferentialContract::test_hotset_outcomes_per_design",
        ),
    ),
    Mutant(
        "M02", "P6", "Osiris Plus flush unfenced",
        OSIRIS,
        "            self.wpq.begin_atomic()\n"
        "            self.wpq.write_atomic(line.addr, self.meta.encoded(line))\n"
        "            self.wpq.commit_atomic()\n",
        "            self.wpq.write(line.addr, self.meta.encoded(line))\n",
        catchers=(
            "tests/integration/test_trafficgen.py::TestAceCampaign::test_k3_exhaustive_on_all_six_schemes_zero_violations",
        ),
    ),
    Mutant(
        "M03", "D2", "canonical_json without sort_keys",
        SPEC,
        'return json.dumps(obj, sort_keys=True, separators=(",", ":"))',
        'return json.dumps(obj, separators=(",", ":"))',
        catchers=(
            "tests/unit/test_runs_spec.py::TestSpecHash::test_canonical_json_is_order_insensitive",
        ),
    ),
    Mutant(
        "M04", "P6", "cc-NVM drain: write instead of write_atomic",
        CCNVM,
        "            self.wpq.write_atomic(addr, value)\n",
        "            self.wpq.write(addr, value)\n",
        catchers=(
            "tests/integration/test_crash_campaign.py::TestCampaignSmoke::test_no_violations_no_mismatches",
        ),
    ),
    Mutant(
        "M05", "P6", "cc-NVM commit_root moved ahead of the batch",
        CCNVM,
        "        # start signal: metadata cachelines are blocked inside the WPQ.\n"
        "        self.wpq.begin_atomic()\n",
        "        self.tcb.commit_root()\n"
        "        # start signal: metadata cachelines are blocked inside the WPQ.\n"
        "        self.wpq.begin_atomic()\n",
        catchers=(
            "tests/integration/test_crash_campaign.py::TestCampaignSmoke::test_no_violations_no_mismatches",
        ),
    ),
    Mutant(
        "M06", "P6", "SC path flush: write instead of write_atomic",
        STRICT,
        "            self.wpq.write_atomic(addr, value)\n",
        "            self.wpq.write(addr, value)\n",
        catchers=(
            "tests/integration/test_crash_campaign.py::TestCampaignSmoke::test_no_violations_no_mismatches",
        ),
    ),
    Mutant(
        "M07", "P7", "count_writeback moved after end_combined",
        BASE,
        "        self.tcb.count_writeback()\n"
        "        self._count_writeback_extras(counter_addr)\n"
        "        self.wpq.end_combined()\n",
        "        self._count_writeback_extras(counter_addr)\n"
        "        self.wpq.end_combined()\n"
        "        self.tcb.count_writeback()\n",
        catchers=(
            "tests/unit/test_crashsim_enumerate.py::TestPrefixStates::test_full_prefix_equals_live_machine",
            "tests/integration/test_crash_campaign.py::TestCampaignSmoke::test_no_violations_no_mismatches",
        ),
    ),
    Mutant(
        "M08", "P7", "TCB.count_writeback skips _trace",
        TCB,
        "        self.nwb += 1\n"
        '        self._trace("count_writeback")\n',
        "        self.nwb += 1\n",
        catchers=(
            "tests/unit/test_crashsim_enumerate.py::TestPrefixStates::test_full_prefix_equals_live_machine",
        ),
    ),
    Mutant(
        "M09", "P7", "begin_combined dropped",
        BASE,
        "        self.wpq.begin_combined()\n",
        "",
        catchers=(
            "tests/unit/test_crashsim_enumerate.py::TestPrefixStates::test_full_prefix_equals_live_machine",
            "tests/integration/test_crash_campaign.py::TestDifferentialContract::test_hotset_outcomes_per_design",
        ),
    ),
    Mutant(
        "M10", "P1", "recovery sets tcb.recovery_pending directly",
        RECOVERY,
        "        self.tcb.begin_recovery()\n",
        "        self.tcb.recovery_pending = True\n",
        catchers=(
            "tests/integration/test_recovery_closure.py::TestClosureSlices::test_rekey_state_closes_clean[ccnvm]",
        ),
    ),
    Mutant(
        "M11", "P4", "recovery's policy resolution reads len(self.meta.overlay)",
        BASE,
        "            policy = replace(policy, retry_limit=self.config.epoch.update_limit)\n",
        "            policy = replace(\n"
        "                policy,\n"
        "                retry_limit=self.config.epoch.update_limit + len(self.meta.overlay),\n"
        "            )\n",
        catchers=(
            "tests/unit/test_volatile_poison.py::TestPoisonPerDesign::test_recovery_completes_and_hands_back_the_cleared_objects[ccnvm]",
        ),
    ),
    Mutant(
        "M12", "P5", "Osiris Plus _on_dirty_meta_evict renamed away",
        OSIRIS,
        "    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:\n",
        "    def _on_dirty_meta_evicted(self, victim: CacheLine) -> None:\n",
        catchers=(
            "tests/integration/test_attack_detection.py::TestOsirisDetectsButCannotLocate::test_replay_detected_not_located",
        ),
    ),
    Mutant(
        "M13", "D0", "time.time() into simulation_spec params",
        SPEC,
        '    params = {} if data_capacity is None else {"data_capacity": data_capacity}\n',
        "    import time\n"
        "\n"
        '    params = {} if data_capacity is None else {"data_capacity": data_capacity}\n'
        '    params["created"] = time.time()\n',
        catchers=(
            "tests/unit/test_runs_spec.py::TestSpecHash::test_pinned_hashes",
        ),
    ),
    Mutant(
        "M14", "D1", "canonical_registers iterates counter_log as a set",
        "src/repro/crashsim/enumerate.py",
        '    log = tuple(sorted([(str(a), c) for a, c in registers["counter_log"].items()]))\n',
        '    log = tuple((str(a), registers["counter_log"][a]) for a in set(registers["counter_log"]))\n',
        hashseeds=(0, 1),
        catchers=(
            "tests/integration/test_campaign_digests.py::test_every_campaign_shard_matches_its_golden_digest",
            "tests/unit/test_crashsim_reduce.py::TestImageHashCanonicalization::test_counter_log_order_does_not_change_identity",
        ),
    ),
    Mutant(
        "M15", "P3", "Osiris Plus flush leaves its atomic batch open",
        OSIRIS,
        "            self.wpq.write_atomic(line.addr, self.meta.encoded(line))\n"
        "            self.wpq.commit_atomic()\n",
        "            self.wpq.write_atomic(line.addr, self.meta.encoded(line))\n",
        catchers=(
            "tests/integration/test_cross_scheme.py::TestImageEquivalence::test_reads_agree_everywhere",
        ),
    ),
    Mutant(
        "M16", "P6", "recovery re-key pokes the HMAC before the data",
        RECOVERY,
        "            self.nvm.poke(addr, ciphertext)\n"
        "            self._poke_data_hmac(\n"
        "                addr, self.hmac.data_hmac(ciphertext, addr, target_major, 0)\n"
        "            )\n",
        "            self._poke_data_hmac(\n"
        "                addr, self.hmac.data_hmac(ciphertext, addr, target_major, 0)\n"
        "            )\n"
        "            self.nvm.poke(addr, ciphertext)\n",
        catchers=(
            "tests/integration/test_recovery_closure.py::TestRekeyRecoveryBugs::test_crash_between_reencryption_pokes_recovers[ccnvm]",
        ),
    ),
    Mutant(
        "M17", "D2", "image_hash serializes registers with json.dumps",
        "src/repro/crashsim/enumerate.py",
        "        parts.append(canonical_registers(self.registers))\n",
        "        import json\n"
        "\n"
        "        from repro.crashsim.trace import registers_to_dict\n"
        "\n"
        "        parts.append(json.dumps(registers_to_dict(self.registers)).encode())\n",
        catchers=(
            "tests/unit/test_crashsim_reduce.py::TestImageHashCanonicalization::test_counter_log_order_does_not_change_identity",
        ),
    ),
    Mutant(
        "M18", "P1", "recovery writes the root registers directly",
        RECOVERY,
        "        self.tcb.set_roots(root)\n",
        "        self.tcb.root_new = self.tcb.root_old = root\n"
        "        self.tcb.nwb = 0\n",
        catchers=(
            "tests/unit/test_faults_injector.py::TestDoubleCrash::test_crash_during_recovery_is_restartable",
        ),
    ),
    Mutant(
        "M19", "P4", "recovery's policy resolution consults the volatile dirty queue",
        BASE,
        "        policy = self.recovery_policy\n",
        "        policy = self.recovery_policy\n"
        "        if policy.use_counter_log and not len(self.queue):\n"
        "            policy = replace(policy, use_counter_log=False)\n",
        catchers=(
            "tests/unit/test_volatile_poison.py::TestPoisonPerDesign::test_recovery_completes_and_hands_back_the_cleared_objects[ccnvm_locate]",
            "tests/unit/test_extension_locate.py::TestReplayLocation::test_in_epoch_replay_located_at_page",
        ),
    ),
    Mutant(
        "M20", "P5", "w/o CC flush renamed away",
        "src/repro/core/schemes/no_cc.py",
        "    def flush(self) -> None:\n",
        "    def flush_all(self) -> None:\n",
        catchers=(
            "tests/integration/test_end_to_end.py::TestRoundTrips::test_flush_then_graceful_restart[no_cc]",
        ),
    ),
    Mutant(
        "M21", "P3", "cc-NVM drain drops begin_atomic",
        CCNVM,
        "        self.wpq.begin_atomic()\n"
        "        flushed = 0\n",
        "        flushed = 0\n",
        catchers=(
            "tests/integration/test_attack_detection.py::TestConfidentiality::test_observed_nvm_carries_no_plaintext",
        ),
    ),
    Mutant(
        "M22", "D0", "wall-clock time in the simulation result payload",
        "src/repro/runs/pool.py",
        "    return result_to_dict(result)\n",
        "    payload = result_to_dict(result)\n"
        '    payload["host_seconds"] = time.perf_counter()\n'
        "    return payload\n",
        catchers=(
            "tests/integration/test_orchestrator.py::TestDeterminism::test_serial_and_pooled_results_are_byte_identical",
        ),
    ),
    Mutant(
        "M23", "D1", "ACE enumeration iterates growth strings as a set",
        "src/repro/trafficgen/ace.py",
        "    for pattern in growth_strings(k):\n",
        "    for pattern in set(growth_strings(k)):\n",
        hashseeds=(0, 1),
        catchers=(
            "tests/integration/test_trafficgen.py::TestAceCampaign::test_summary_does_not_depend_on_the_hash_seed",
        ),
    ),
    Mutant(
        "M25", "XC", "WPQ write_partial traced under the write kind",
        WPQ,
        '            self.trace_hook("write_partial", addr, None)\n',
        '            self.trace_hook("write", addr, None)\n',
        catchers=(
            "tests/unit/test_crashsim_enumerate.py::TestPrefixStates::test_full_prefix_equals_live_machine",
            "tests/unit/test_crashsim_trace.py::TestTraceStructure::test_writeback_group_is_one_unit",
        ),
    ),
    Mutant(
        "M26", "D2", "fingerprint memo kept on a trace that repeats a data line's bytes",
        "src/repro/crashsim/reduce.py",
        "            {} if repeats == 0 else None\n",
        "            {}\n",
        catchers=(
            "tests/unit/test_crashsim_reduce.py::TestFingerprintMemo::test_repeated_data_bytes_turn_the_memo_off",
        ),
    ),
)
