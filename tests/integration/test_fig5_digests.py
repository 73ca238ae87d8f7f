"""Golden digests of the Figure-5 matrix at a short length.

Every one of the 40 (workload, design) cells is simulated cold and the
sha256 of its ``result_to_dict`` payload is compared with the committed
``tests/fixtures/fig5_digests.json``.  Any change to simulated results —
cycles, NVM traffic, HMAC counts, epoch statistics — changes a digest,
so host-side optimisations are checked for byte identity on every run.

A deliberate change to simulated results regenerates the fixture with::

    PYTHONPATH=src python -c "from tests.integration.test_fig5_digests \\
        import regenerate_fixture; regenerate_fixture()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.experiments import figure5_comparisons
from repro.analysis.export import result_to_dict

FIXTURE = Path(__file__).parent.parent / "fixtures" / "fig5_digests.json"

#: References per cell and trace seed of the golden matrix.
LENGTH = 300
SEED = 1


def cell_digests(length: int = LENGTH, seed: int = SEED) -> dict[str, str]:
    """sha256 of each cell's canonical payload, keyed ``workload/design``."""
    comparisons = figure5_comparisons(length, seed)
    digests = {}
    for workload, comparison in comparisons.items():
        for scheme, result in comparison.results.items():
            text = json.dumps(
                result_to_dict(result), sort_keys=True, separators=(",", ":")
            )
            digests[f"{workload}/{scheme}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def regenerate_fixture(path: Path = FIXTURE) -> None:
    """Rewrite the fixture from the current code."""
    document = {"length": LENGTH, "seed": SEED, "cells": cell_digests()}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def test_every_figure5_cell_matches_its_golden_digest():
    fixture = json.loads(FIXTURE.read_text())
    assert (fixture["length"], fixture["seed"]) == (LENGTH, SEED)
    assert len(fixture["cells"]) == 40
    actual = cell_digests()
    changed = sorted(cell for cell, digest in fixture["cells"].items()
                     if actual.get(cell) != digest)
    assert not changed, f"simulated results changed in {changed}"
    assert set(actual) == set(fixture["cells"])
