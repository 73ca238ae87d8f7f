"""Unit tests for CSV/JSON export and ASCII bar rendering."""

import csv
import io
import json
from pathlib import Path

from repro.analysis.export import (
    ascii_bars,
    table_to_csv,
    table_to_json,
)
from repro.analysis.report import FigureTable

#: The committed Figure 5 artifact at the repository root.
BENCH_FIG5 = Path(__file__).resolve().parents[2] / "BENCH_fig5.json"

def sample_table():
    table = FigureTable("Figure X", ["sc", "ccnvm"])
    table.add_row("alpha", {"sc": 0.6, "ccnvm": 0.8})
    table.add_row("beta", {"sc": 0.5, "ccnvm": 0.9})
    return table


class TestCsv:
    def test_table_csv_round_trips(self):
        rows = list(csv.reader(io.StringIO(table_to_csv(sample_table()))))
        assert rows[0] == ["workload", "sc", "ccnvm"]
        assert rows[1][0] == "alpha"
        assert float(rows[1][1]) == 0.6
        assert rows[-1][0] == "average"


class TestJson:
    def test_table_json_structure(self):
        doc = json.loads(table_to_json(sample_table()))
        assert doc["title"] == "Figure X"
        assert doc["rows"]["beta"]["ccnvm"] == 0.9
        assert doc["labels"]["ccnvm"] == "cc-NVM"
        assert "averages" in doc


class TestAsciiBars:
    def test_bars_scale_to_ceiling(self):
        text = ascii_bars(sample_table(), width=10, ceiling=1.0)
        lines = text.splitlines()
        ccnvm_beta = [l for l in lines if "cc-NVM" in l][-1]
        assert "#########." in ccnvm_beta  # 0.9 of 10 chars
        assert "0.90" in ccnvm_beta

    def test_bars_default_ceiling_is_max(self):
        text = ascii_bars(sample_table(), width=10)
        ccnvm_beta = [l for l in text.splitlines() if "cc-NVM" in l][-1]
        assert "##########" in ccnvm_beta  # the max fills the bar

    def test_every_workload_rendered(self):
        text = ascii_bars(sample_table())
        assert "alpha:" in text
        assert "beta:" in text


def sample_result(scheme="ccnvm", ipc=0.9):
    from repro.sim.runner import SimulationResult

    return SimulationResult(
        scheme=scheme,
        workload="lbm",
        instructions=1000,
        cycles=2000,
        ipc=ipc,
        nvm_writes=300,
        nvm_reads=120,
        writes_by_region={"data": 200, "counter": 100},
        llc_writebacks=180,
        epochs=7,
        drains_by_trigger={"update_limit": 5, "queue_full": 2},
        counter_hmacs=42,
        data_hmacs=17,
        stats={"meta.hits": 12.0},
    )


class TestResultRoundTrip:
    def test_dict_round_trip_is_exact(self):
        from repro.analysis.export import result_from_dict, result_to_dict

        result = sample_result()
        clone = result_from_dict(result_to_dict(result))
        assert clone == result

    def test_dict_equals_asdict_of_a_real_cell_and_is_a_copy(self):
        import dataclasses

        from repro.analysis.export import result_to_dict
        from repro.sim.runner import run_simulation
        from repro.workloads.spec import spec_trace

        result = run_simulation("ccnvm", spec_trace("gcc", 300, 1))
        pristine = dataclasses.asdict(result)
        data = result_to_dict(result)
        assert data == pristine
        assert any(isinstance(v, dict) for v in data["stats"].values())
        data["stats"]["injected"] = 1
        next(v for v in data["stats"].values() if isinstance(v, dict))["n"] = -1
        data["writes_by_region"]["data"] = -1
        data["drains_by_trigger"]["flush"] = -1
        assert dataclasses.asdict(result) == pristine

    def test_json_round_trip_is_exact_and_stable(self):
        from repro.analysis.export import result_from_json, result_to_json

        result = sample_result()
        text = result_to_json(result)
        assert result_from_json(text) == result
        # canonical: serializing again yields identical bytes
        assert result_to_json(result_from_json(text)) == text

    def test_unknown_fields_are_rejected(self):
        import pytest

        from repro.analysis.export import result_from_dict, result_to_dict

        data = result_to_dict(sample_result())
        data["quantum_flux"] = 1
        with pytest.raises(ValueError, match="quantum_flux"):
            result_from_dict(data)


class TestFig5BenchArtifact:
    def test_artifact_structure(self):
        from repro.analysis.export import fig5_bench_to_json, result_from_dict
        from repro.sim.runner import DesignComparison

        results = {
            "no_cc": sample_result("no_cc", ipc=1.0),
            "sc": sample_result("sc", ipc=0.5),
            "osiris_plus": sample_result("osiris_plus", ipc=0.7),
            "ccnvm_no_ds": sample_result("ccnvm_no_ds", ipc=0.75),
            "ccnvm": sample_result("ccnvm", ipc=0.9),
        }
        comparisons = {"lbm": DesignComparison("lbm", results)}
        doc = json.loads(
            fig5_bench_to_json(comparisons, {"length": 4000, "jobs": 2})
        )
        assert doc["benchmark"] == "fig5"
        assert doc["workloads"] == ["lbm"]
        assert doc["run"] == {"length": 4000, "jobs": 2}
        assert doc["fig5a_ipc"]["rows"]["lbm"]["ccnvm"] == 0.9
        assert "ccnvm_ipc_gain_over_osiris" in doc["headline"]
        # per-cell payloads round-trip back into live results
        rebuilt = result_from_dict(doc["results"]["lbm"]["ccnvm"])
        assert rebuilt == results["ccnvm"]

    def test_from_json_round_trips_and_validates(self):
        import pytest

        from repro.analysis.export import fig5_bench_from_json, fig5_bench_to_json
        from repro.sim.runner import DesignComparison

        results = {
            "no_cc": sample_result("no_cc", ipc=1.0),
            "sc": sample_result("sc", ipc=0.5),
            "osiris_plus": sample_result("osiris_plus", ipc=0.7),
            "ccnvm_no_ds": sample_result("ccnvm_no_ds", ipc=0.75),
            "ccnvm": sample_result("ccnvm", ipc=0.9),
        }
        comparisons = {"lbm": DesignComparison("lbm", results)}
        text = fig5_bench_to_json(comparisons, {"length": 4000})
        rebuilt = fig5_bench_from_json(text)
        assert rebuilt["lbm"]["ccnvm"] == results["ccnvm"]
        # A document whose derived sections disagree with its raw cells
        # is rejected rather than trusted.
        doc = json.loads(text)
        doc["headline"]["ccnvm_ipc_gain_over_osiris"] += 0.5
        with pytest.raises(ValueError, match="headline"):
            fig5_bench_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="not a fig5"):
            fig5_bench_from_json(json.dumps({"benchmark": "fig6"}))

    def test_from_json_is_insensitive_to_json_key_sorting(self):
        # The document's table averages sum floats in workload order;
        # the serializer sorts keys alphabetically.  Values are chosen
        # so that summing in document order (0.193 + 0.358 + 0.668) and
        # in sorted gcc/lbm/soplex order (0.358 + 0.668 + 0.193) differ
        # in the last bits — the round trip must follow the recorded
        # workload order, not JSON key order.
        import pytest

        from repro.analysis.export import fig5_bench_from_json, fig5_bench_to_json
        from repro.sim.runner import DesignComparison

        ipcs = {"soplex": 0.193, "gcc": 0.358, "lbm": 0.668}
        assert 0.193 + 0.358 + 0.668 != 0.358 + 0.668 + 0.193
        comparisons = {
            workload: DesignComparison(workload, {
                scheme: sample_result(
                    scheme, ipc=1.0 if scheme == "no_cc" else ipc
                )
                for scheme in ("no_cc", "sc", "osiris_plus",
                               "ccnvm_no_ds", "ccnvm")
            })
            for workload, ipc in ipcs.items()
        }
        text = fig5_bench_to_json(comparisons, {})
        rebuilt = fig5_bench_from_json(text)
        assert list(rebuilt) == ["soplex", "gcc", "lbm"]

        # A document whose workload list disagrees with its cells is
        # rejected (it would make the order reconstruction meaningless).
        doc = json.loads(text)
        doc["workloads"] = ["soplex", "gcc"]
        with pytest.raises(ValueError, match="workloads"):
            fig5_bench_from_json(json.dumps(doc))


    def test_committed_artifact_rerenders_byte_for_byte(self):
        # No simulation: parse the committed document, rebuild its
        # comparisons in the recorded workload order and render it again.
        # Any drift in the writer or the document builder shows here.
        from repro.analysis.export import fig5_bench_from_json, fig5_bench_to_json
        from repro.sim.runner import DesignComparison

        text = BENCH_FIG5.read_text(encoding="utf-8")
        document = json.loads(text)
        results = fig5_bench_from_json(text)
        comparisons = {
            workload: DesignComparison(workload=workload, results=results[workload])
            for workload in document["workloads"]
        }
        assert fig5_bench_to_json(comparisons, document["run"]) == text
