"""Integration tests for the workload frontier (repro.trafficgen).

The acceptance surface:

* the ACE k=3 enumeration runs **exhaustively** through the crash
  campaign on all six schemes with zero violations, at a >= 5x
  canonical-form dedup over the brute-force space;
* an ingested external trace and a 3-tenant interleave produce a
  traffic headline document that is **byte-identical** across serial,
  pooled (``--jobs 2``) and warm-cache runs.
"""

from pathlib import Path

import pytest

from repro.analysis.traffic import (
    traffic_document,
    traffic_document_from_json,
    traffic_document_to_json,
)
from repro.crashsim.explore import run_campaign
from repro.trafficgen.ace import ace_campaign_config, dedup_ratio
from repro.trafficgen.descriptor import interleave_descriptor
from repro.trafficgen.ingest import STORE_ENV, TraceStore

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "traces"

KB = 1 << 10
SCHEMES = ("sc", "ccnvm")
LENGTH = 2000
SEED = 3


def tenant(name, footprint=8 * KB, write_ratio=0.6, weight=1.0):
    return {
        "name": name,
        "weight": weight,
        "profile": {
            "name": name,
            "pattern": "stream",
            "footprint": footprint,
            "write_ratio": write_ratio,
            "mem_gap": 4,
        },
    }


def three_tenant_descriptor():
    return interleave_descriptor(
        [
            tenant("alice"),
            tenant("bob", write_ratio=0.3, weight=2.0),
            tenant("carol", footprint=4 * KB),
        ],
        policy="weighted",
    )


@pytest.fixture
def workload_set(tmp_path, monkeypatch):
    """The bench's descriptors: the committed 10k trace + 3 tenants.

    The trace store root travels to pool workers through the
    environment, exactly as ``repro traffic ingest --run --jobs N``
    ships it.
    """
    store_root = tmp_path / "traffic-store"
    monkeypatch.setenv(STORE_ENV, str(store_root))
    trace_desc = TraceStore(store_root).ingest(
        FIXTURES / "llc_10k.csv", footprint=1 << 20
    )
    return [trace_desc, three_tenant_descriptor()]


class TestByteIdentity:
    def test_serial_pooled_and_warm_documents_are_byte_identical(
        self, tmp_path, workload_set
    ):
        kw = dict(schemes=SCHEMES, length=LENGTH, seed=SEED)
        serial_doc, serial_report = traffic_document(
            workload_set, cache_root=tmp_path / "cold-serial", **kw
        )
        pooled_doc, _ = traffic_document(
            workload_set, jobs=2, cache_root=tmp_path / "cold-pooled", **kw
        )
        warm_doc, warm_report = traffic_document(
            workload_set, cache_root=tmp_path / "cold-serial", **kw
        )
        serial = traffic_document_to_json(serial_doc)
        assert traffic_document_to_json(pooled_doc) == serial
        assert traffic_document_to_json(warm_doc) == serial
        # The warm run really was served from the cache, and the cold
        # one really executed.
        assert serial_report.executed == len(workload_set) * len(SCHEMES)
        assert warm_report.executed == 0
        assert warm_report.cache_hits == len(workload_set) * len(SCHEMES)

    def test_document_is_self_describing(self, tmp_path, workload_set):
        doc, _ = traffic_document(
            workload_set,
            schemes=SCHEMES,
            length=LENGTH,
            seed=SEED,
            cache_root=tmp_path / "cache",
        )
        parsed = traffic_document_from_json(traffic_document_to_json(doc))
        assert len(parsed["workloads"]) == 2
        for label, entry in parsed["workloads"].items():
            assert label.startswith("traffic:")
            assert entry["digest"].startswith(label.split(":")[2])
            assert sorted(parsed["results"][label]) == sorted(SCHEMES)
        [interleave] = [
            w for w in parsed["workloads"].values()
            if w["descriptor"]["kind"] == "interleave"
        ]
        attribution = interleave["attribution"]
        assert sorted(attribution["tenants"]) == ["alice", "bob", "carol"]
        assert sum(
            t["references"] for t in attribution["tenants"].values()
        ) == LENGTH
        for results in parsed["results"].values():
            for cell in results.values():
                assert cell["instructions"] > 0
                assert cell["nvm_writes"] > 0


class TestAceCampaign:
    def test_k3_exhaustive_on_all_six_schemes_zero_violations(
        self, tmp_path
    ):
        """The standing-campaign gate the CLI (`repro traffic ace
        --campaign`) and CI enforce, at the acceptance bar: every
        canonical 3-write workload on every scheme, exhaustively
        enumerated, zero violations."""
        summary, report = run_campaign(
            ace_campaign_config(3), cache_root=tmp_path / "cache"
        )
        report.raise_on_failure()
        totals = summary["totals"]
        assert summary["failures"] == []
        assert totals["cells"] == 40 * 6  # Bell(3)*2^3 profiles x schemes
        assert totals["violations"] == 0
        assert totals["class_mismatches"] == 0
        assert totals["sampling_fallbacks"] == 0
        assert dedup_ratio(3) >= 5

