"""Unit tests for the statistics registry."""

from repro.common.stats import (
    HISTOGRAM_BUCKETS,
    Counter,
    Distribution,
    StatGroup,
    _bucket_index,
    render_report,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_default(self):
        c = Counter("c")
        c.inc()
        c.inc()
        assert c.value == 2

    def test_inc_amount(self):
        c = Counter("c")
        c.inc(10)
        c.inc(5)
        assert c.value == 15

    def test_reset(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestDistribution:
    def test_empty_mean_is_zero(self):
        assert Distribution("d").mean == 0.0

    def test_empty_percentile_is_zero(self):
        assert Distribution("d").percentile(50) == 0.0

    def test_empty_as_dict_is_just_n(self):
        assert Distribution("d").as_dict() == {"n": 0}

    def test_single_sample_percentiles_collapse(self):
        d = Distribution("d")
        d.sample(7)
        assert d.percentile(50) == 7
        assert d.percentile(99) == 7

    def test_percentiles_clamped_to_observed_range(self):
        d = Distribution("d")
        for v in (5, 5, 5, 5):
            d.sample(v)
        # All samples share one [4, 8) bucket; interpolation must not
        # report a value outside [min, max].
        assert d.percentile(50) == 5
        assert d.percentile(95) == 5

    def test_percentile_ordering_and_bounds(self):
        d = Distribution("d")
        for v in range(1, 101):
            d.sample(v)
        p50, p95, p99 = d.percentile(50), d.percentile(95), d.percentile(99)
        assert d.min <= p50 <= p95 <= p99 <= d.max
        # Bucketed percentiles are approximate, but p50 of 1..100 must
        # land in the bucket holding rank 50 ([32, 64)).
        assert 32 <= p50 < 64
        assert p99 > 64

    def test_percentile_zero_bucket(self):
        d = Distribution("d")
        for v in (0, 0, 0, 10):
            d.sample(v)
        assert d.percentile(50) < 1
        assert d.percentile(99) == 10

    def test_as_dict_exports_summary(self):
        d = Distribution("d")
        for v in (1, 2, 3, 4):
            d.sample(v)
        summary = d.as_dict()
        assert summary["n"] == 4
        assert summary["min"] == 1
        assert summary["max"] == 4
        assert summary["mean"] == 2.5
        assert set(summary) == {"n", "min", "max", "mean", "p50", "p95", "p99"}

    def test_reset_clears_histogram(self):
        d = Distribution("d")
        d.sample(100)
        d.reset()
        assert sum(d.buckets) == 0
        assert d.percentile(50) == 0.0

    def test_single_sample(self):
        d = Distribution("d")
        d.sample(5.0)
        assert d.count == 1
        assert d.mean == 5.0
        assert d.min == 5.0
        assert d.max == 5.0

    def test_aggregates(self):
        d = Distribution("d")
        for v in (1, 2, 3, 4):
            d.sample(v)
        assert d.count == 4
        assert d.mean == 2.5
        assert d.min == 1
        assert d.max == 4

    def test_reset(self):
        d = Distribution("d")
        d.sample(10)
        d.reset()
        assert d.count == 0
        assert d.mean == 0.0


#: Bucket edges and their neighbours, fractions, and a value past the
#: last bucket's lower bound.
BUCKET_PROBES = [0, 0.5, 0.999, 1, 1.5, 2.75, 1e-9, -3, 7.25, 2**40, 2.0**40 + 0.5] + [
    v for k in range(1, HISTOGRAM_BUCKETS + 2) for v in (2**k - 1, 2**k, 2**k + 1)
]


class TestSampleBucket:
    def test_sample_fills_the_bucket_index_bucket(self):
        for value in BUCKET_PROBES:
            dist = Distribution("d")
            dist.sample(value)
            expected = [0] * HISTOGRAM_BUCKETS
            expected[_bucket_index(value)] = 1
            assert dist.buckets == expected, value


class TestStatGroup:
    def test_counter_created_once(self):
        g = StatGroup("g")
        assert g.counter("x") is g.counter("x")

    def test_distribution_created_once(self):
        g = StatGroup("g")
        assert g.distribution("x") is g.distribution("x")

    def test_child_group_created_once(self):
        g = StatGroup("g")
        assert g.group("child") is g.group("child")

    def test_walk_produces_dotted_paths(self):
        g = StatGroup("system")
        g.counter("cycles").inc(7)
        g.group("llc").counter("misses").inc(3)
        flat = g.as_dict()
        assert flat["system.cycles"] == 7
        assert flat["system.llc.misses"] == 3

    def test_nested_reset(self):
        g = StatGroup("sys")
        g.counter("a").inc(1)
        child = g.group("sub")
        child.counter("b").inc(2)
        child.distribution("d").sample(9)
        g.reset()
        assert g.counter("a").value == 0
        assert child.counter("b").value == 0
        assert child.distribution("d").count == 0

    def test_walk_three_level_nesting(self):
        g = StatGroup("system")
        g.group("mem").group("nvm").counter("writes").inc(11)
        g.group("mem").distribution("lat").sample(4)
        paths = dict(g.walk())
        assert paths["system.mem.nvm.writes"].value == 11
        assert paths["system.mem.lat"].count == 1

    def test_report_contains_values(self):
        g = StatGroup("top")
        g.counter("hits").inc(42)
        g.distribution("lat").sample(3)
        text = render_report(g.as_dict())
        assert "top.hits" in text
        assert "42" in text
        assert "top.lat" in text
        assert "p50=" in text

    def test_report_empty_distribution_renders_n0_only(self):
        g = StatGroup("top")
        g.distribution("never_sampled")
        (line,) = render_report(g.as_dict()).splitlines()
        assert "top.never_sampled" in line
        assert line.rstrip().endswith("n=0")
        assert "inf" not in line
        assert "min=" not in line
        assert "max=" not in line

    def test_as_dict_distribution_exports_summary(self):
        g = StatGroup("g")
        d = g.distribution("lat")
        d.sample(2)
        d.sample(4)
        flat = g.as_dict()
        assert flat["g.lat"]["n"] == 2
        assert flat["g.lat"]["mean"] == 3.0
        assert flat["g.lat"]["min"] == 2
        assert flat["g.lat"]["max"] == 4

    def test_as_dict_empty_distribution(self):
        g = StatGroup("g")
        g.distribution("lat")
        assert g.as_dict()["g.lat"] == {"n": 0}
