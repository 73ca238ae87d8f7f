"""Unit tests for the synthetic generators and SPEC profiles."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.workloads import synthetic
from repro.workloads.spec import SPEC_ORDER, SPEC_PROFILES, all_spec_traces, spec_trace


class TestGeneratorContracts:
    GENERATORS = [
        lambda **kw: synthetic.sequential_stream(**kw),
        lambda **kw: synthetic.strided(**kw),
        lambda **kw: synthetic.random_uniform(**kw),
        lambda **kw: synthetic.hotspot(**kw),
        lambda **kw: synthetic.pointer_chase(**kw),
    ]

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_length_and_bounds(self, gen):
        trace = gen(length=500, footprint=1 << 16, seed=3)
        assert len(trace) == 500
        for r in trace:
            assert 0 <= r.addr < 1 << 16
            assert r.addr % CACHE_LINE_SIZE == 0
            assert r.icount >= 0

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic_for_same_seed(self, gen):
        a = gen(length=200, footprint=1 << 16, seed=5)
        b = gen(length=200, footprint=1 << 16, seed=5)
        assert a.records == b.records

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_seed_changes_trace(self, gen):
        a = gen(length=200, footprint=1 << 16, write_ratio=0.5, seed=1)
        b = gen(length=200, footprint=1 << 16, write_ratio=0.5, seed=2)
        assert a.records != b.records

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_write_ratio_respected(self, gen):
        trace = gen(length=3000, footprint=1 << 16, write_ratio=0.4, seed=0)
        assert 0.3 < trace.write_fraction < 0.5

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_base_offsets_addresses(self, gen):
        trace = gen(length=100, footprint=1 << 14, base=1 << 20, seed=0)
        assert all(r.addr >= 1 << 20 for r in trace)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_rejects_bad_arguments(self, gen):
        with pytest.raises(ValueError):
            gen(length=0, footprint=1 << 16)
        with pytest.raises(ValueError):
            gen(length=10, footprint=16)


class TestPatternShapes:
    def test_stream_is_sequential(self):
        trace = synthetic.sequential_stream(length=10, footprint=1 << 16)
        addrs = [r.addr for r in trace]
        assert addrs == [i * 64 for i in range(10)]

    def test_stream_wraps(self):
        trace = synthetic.sequential_stream(length=5, footprint=3 * 64)
        assert [r.addr for r in trace] == [0, 64, 128, 0, 64]

    def test_strided_stride(self):
        trace = synthetic.strided(length=4, footprint=1 << 16, stride=256)
        assert [r.addr for r in trace] == [0, 256, 512, 768]

    def test_strided_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            synthetic.strided(length=4, footprint=1 << 16, stride=100)

    def test_hotspot_concentrates(self):
        trace = synthetic.hotspot(
            length=4000,
            footprint=1 << 18,
            hot_fraction=0.1,
            hot_probability=0.9,
            seed=0,
        )
        hot_limit = (1 << 18) // 10
        hot_hits = sum(1 for r in trace if r.addr < hot_limit)
        assert hot_hits / len(trace) > 0.8

    def test_hotspot_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            synthetic.hotspot(length=10, footprint=1 << 16, hot_fraction=0.0)

    def test_pointer_chase_covers_permutation(self):
        lines = 32
        trace = synthetic.pointer_chase(length=lines, footprint=lines * 64)
        assert len({r.addr for r in trace}) == lines


class TestSpecProfiles:
    def test_all_eight_benchmarks_present(self):
        assert set(SPEC_ORDER) == set(SPEC_PROFILES)
        assert len(SPEC_ORDER) == 8

    @pytest.mark.parametrize("name", SPEC_ORDER)
    def test_profiles_generate(self, name):
        trace = spec_trace(name, 300, seed=2)
        assert len(trace) == 300
        assert trace.name == name
        profile = SPEC_PROFILES[name]
        assert all(r.addr < profile.footprint for r in trace)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            spec_trace("dhrystone", 100)

    def test_write_intensity_ordering(self):
        # lbm is the most write-intensive, namd among the least.
        lbm = spec_trace("lbm", 4000).write_fraction
        namd = spec_trace("namd", 4000).write_fraction
        libquantum = spec_trace("libquantum", 4000).write_fraction
        assert lbm > namd
        assert lbm > libquantum

    def test_memory_intensity_ordering(self):
        # Streaming profiles touch far more lines than cache-resident ones.
        assert spec_trace("lbm", 4000).footprint() > spec_trace(
            "namd", 4000
        ).footprint()

    def test_all_spec_traces_shape(self):
        traces = all_spec_traces(100, seed=1)
        assert list(traces) == SPEC_ORDER
        assert all(len(t) == 100 for t in traces.values())

    def test_unknown_pattern_rejected(self):
        from repro.workloads.spec import SpecProfile

        bad = SpecProfile(
            name="bad", pattern="mystery", footprint=1 << 16,
            write_ratio=0.1, mem_gap=5,
        )
        with pytest.raises(ValueError):
            bad.generate(10)
