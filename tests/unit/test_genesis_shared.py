"""The process-wide pristine image: sharing without aliasing.

Schemes built with equal keys and capacity share one
:class:`GenesisImage` and one memo of pristine lines.  These tests pin
down that the sharing is invisible: a simulated cell's result does not
depend on what ran before it in the process, and images with different
keys or capacities never see each other's lines.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import figure5_comparisons
from repro.analysis.export import result_to_dict
from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.core.schemes import create_scheme
from repro.crypto.cme import CounterModeCipher
from repro.crypto.prf import SecretKey
from repro.metadata import genesis
from repro.metadata.counters import zero_counter_line
from repro.metadata.genesis import SHARED_IMAGES, GenesisImage
from repro.metadata.layout import MemoryLayout
from repro.sim.runner import run_simulation
from repro.workloads.spec import spec_trace

FIG5_FIXTURE = Path(__file__).parent.parent / "fixtures" / "fig5_digests.json"


def _cell_digests(workload: str, length: int = 300, seed: int = 1) -> dict[str, str]:
    comparison = figure5_comparisons(length, seed, workloads=[workload])[workload]
    digests = {}
    for scheme, result in comparison.results.items():
        text = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
        digests[f"{workload}/{scheme}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_figure5_cell_is_independent_of_what_ran_before():
    golden = json.loads(FIG5_FIXTURE.read_text())["cells"]
    genesis._memo.clear()
    genesis._images.clear()
    first = _cell_digests("gcc")

    # Other workloads, another trace seed, other keys and another
    # capacity fill the memo and the image registry.
    figure5_comparisons(300, 2, workloads=["lbm", "milc"])
    run_simulation("ccnvm", spec_trace("soplex", 200, seed=3), seed=5)
    run_simulation("sc", spec_trace("gcc", 200, seed=1), data_capacity=1 << 22)
    assert genesis._memo.size
    after_others = _cell_digests("gcc")

    genesis._memo.clear()
    after_emptying = _cell_digests("gcc")

    assert first == after_others == after_emptying
    assert first == {cell: golden[cell] for cell in first}


class TestNoAliasing:
    ENC = SecretKey.from_seed("alias-enc")
    MAC = SecretKey.from_seed("alias-mac")
    OTHER = SecretKey.from_seed("alias-other")

    def _images(self):
        small, large = MemoryLayout(1 << 20), MemoryLayout(1 << 22)
        return [
            GenesisImage.for_keys(small, self.ENC, self.MAC),
            GenesisImage.for_keys(small, self.OTHER, self.MAC),
            GenesisImage.for_keys(small, self.ENC, self.OTHER),
            GenesisImage.for_keys(large, self.ENC, self.MAC),
        ]

    @staticmethod
    def _direct(image: GenesisImage, addr: int) -> bytes:
        """The pristine line computed without the memo."""
        region = image.layout.region_of(addr)
        if region == "data":
            return image.data_line(addr)
        if region == "data_hmac":
            return image.hmac_line(addr)
        assert region == "counter"
        return zero_counter_line()

    def test_lines_match_a_memo_free_computation(self):
        images = self._images()
        assert len({id(image) for image in images}) == len(images)
        # Addresses that are data in one layout and metadata in the other.
        small = images[0].layout
        addrs = [0, 64, 4096, small.counter_base, small.hmac_base,
                 small.hmac_base + 64, (1 << 22) - 64]
        addrs += [images[3].layout.hmac_base]
        for _ in range(2):  # the second round reads through the memo
            for image in images:
                for addr in addrs:
                    if addr >= image.layout.merkle_base:
                        continue
                    assert image.line(addr) == self._direct(image, addr)

    def test_data_lines_differ_by_key_not_by_capacity(self):
        a, b, _, large = self._images()
        assert a.line(64) == large.line(64)
        assert a.line(64) != b.line(64)
        expected = CounterModeCipher(self.ENC).encrypt(bytes(CACHE_LINE_SIZE), 64, 0, 0)
        assert a.line(64) == expected

    def test_equal_keys_share_one_image(self):
        layout = MemoryLayout(1 << 20)
        image = GenesisImage.for_keys(
            layout, SecretKey.from_seed("k1"), SecretKey.from_seed("k2")
        )
        again = GenesisImage.for_keys(
            MemoryLayout(1 << 20), SecretKey.from_seed("k1"), SecretKey.from_seed("k2")
        )
        assert again is image

    def test_registry_stays_small(self):
        layout = MemoryLayout(1 << 20)
        for i in range(SHARED_IMAGES + 3):
            GenesisImage.for_keys(layout, SecretKey.from_seed(("enc", i)), self.MAC)
            assert len(genesis._images) <= SHARED_IMAGES

    @pytest.mark.parametrize("seeds", [(0, 0), (0, 1)])
    def test_schemes_share_an_image_only_under_equal_keys(self, seeds):
        config = SystemConfig()
        a = create_scheme("ccnvm", config, 1 << 20, seeds[0])
        b = create_scheme("sc", config, 1 << 20, seeds[1])
        assert (a.genesis is b.genesis) == (seeds[0] == seeds[1])
        assert a.tcb.root_new == a.genesis.root_register()
