"""Hierarchical statistics registry.

Every hardware component in the model (caches, NVM device, drainer,
encryption engine, ...) owns a :class:`StatGroup` and registers named
counters and distributions on it.  Groups nest, so the full-system report
reads like gem5's ``stats.txt``::

    system.llc.misses                4211
    system.nvm.writes.data           10234
    system.nvm.writes.merkle         1201

The registry is intentionally dependency-free and cheap: counters are plain
ints bumped through :meth:`Counter.inc`, and nothing is computed until a
report is requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


class Counter:
    """A monotonically growing integer statistic."""

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


#: Fixed histogram geometry shared by every :class:`Distribution`: bucket 0
#: holds values below 1, bucket ``i`` holds ``[2**(i-1), 2**i)``, and the
#: last bucket absorbs everything from ``2**(HISTOGRAM_BUCKETS-2)`` up.
#: 34 buckets cover cycle counts beyond 2**32 — more than any modeled run.
HISTOGRAM_BUCKETS = 34

#: The percentiles every distribution reports.
PERCENTILES = (50, 95, 99)


def _bucket_index(value: float) -> int:
    """Histogram bucket of *value*; :meth:`Distribution.sample` inlines it."""
    if value < 1:
        return 0
    return min(HISTOGRAM_BUCKETS - 1, 1 + int(value).bit_length() - 1)


def _bucket_bounds(index: int) -> tuple[float, float]:
    """``[lo, hi)`` value range of one histogram bucket."""
    if index == 0:
        return 0.0, 1.0
    return float(1 << (index - 1)), float(1 << index)


class Distribution:
    """Streaming aggregate of observed samples.

    Besides min/mean/max/count, a fixed-bucket (power-of-two) histogram
    is maintained so approximate percentiles survive with O(1) memory:
    :meth:`percentile` locates the bucket holding the requested rank and
    interpolates linearly inside it, clamped to the observed [min, max].
    """

    __slots__ = ("name", "desc", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.reset()

    def sample(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # _bucket_index(value), inline: sample runs on every modeled event.
        if value < 1:
            self.buckets[0] += 1
        else:
            index = int(value).bit_length()
            self.buckets[index if index < HISTOGRAM_BUCKETS else HISTOGRAM_BUCKETS - 1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate *q*-th percentile (``0 < q <= 100``); 0.0 when empty.

        Exact for the extremes (p0 = min, p100 = max); in between the
        value is interpolated inside the histogram bucket containing the
        requested rank, so the error is bounded by the bucket width.
        """
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo, hi = _bucket_bounds(index)
                fraction = (target - cumulative) / bucket_count
                value = lo + fraction * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The standard ``{"p50": ..., "p95": ..., "p99": ...}`` summary."""
        return {f"p{q}": self.percentile(q) for q in PERCENTILES}

    def reset(self) -> None:
        """Forget all samples."""
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * HISTOGRAM_BUCKETS

    def as_dict(self) -> dict[str, float]:
        """JSON-able summary: ``n`` always, the aggregates when non-empty."""
        if self.count == 0:
            return {"n": 0}
        summary = {
            "n": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        summary.update(self.percentiles())
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Distribution({self.name}: n={self.count}, mean={self.mean:.3f})"


@dataclass
class StatGroup:
    """A named collection of statistics and child groups."""

    name: str
    counters: dict[str, Counter] = field(default_factory=dict)
    distributions: dict[str, Distribution] = field(default_factory=dict)
    children: dict[str, "StatGroup"] = field(default_factory=dict)

    def counter(self, name: str, desc: str = "") -> Counter:
        """Return the counter *name*, creating it on first use."""
        stat = self.counters.get(name)
        if stat is None:
            stat = Counter(name, desc)
            self.counters[name] = stat
        return stat

    def distribution(self, name: str, desc: str = "") -> Distribution:
        """Return the distribution *name*, creating it on first use."""
        stat = self.distributions.get(name)
        if stat is None:
            stat = Distribution(name, desc)
            self.distributions[name] = stat
        return stat

    def group(self, name: str) -> "StatGroup":
        """Return the child group *name*, creating it on first use."""
        child = self.children.get(name)
        if child is None:
            child = StatGroup(name)
            self.children[name] = child
        return child

    def reset(self) -> None:
        """Recursively reset every statistic in this subtree."""
        for stat in self.counters.values():
            stat.reset()
        for dist in self.distributions.values():
            dist.reset()
        for child in self.children.values():
            child.reset()

    def walk(self, prefix: str = "") -> Iterator[tuple[str, Counter | Distribution]]:
        """Yield ``(dotted_path, stat)`` for every stat in this subtree."""
        base = f"{prefix}{self.name}" if prefix or self.name else self.name
        for stat in self.counters.values():
            yield f"{base}.{stat.name}", stat
        for dist in self.distributions.values():
            yield f"{base}.{dist.name}", dist
        for child in self.children.values():
            yield from child.walk(f"{base}." if base else "")

    def as_dict(self) -> dict[str, float | dict[str, float]]:
        """Flatten to ``{dotted_path: value}``.

        Counters flatten to their integer value; distributions export the
        full ``{"n", "min", "max", "mean", "p50", "p95", "p99"}`` summary
        (just ``{"n": 0}`` when empty) instead of collapsing to the mean.
        """
        result: dict[str, float | dict[str, float]] = {}
        for path, stat in self.walk():
            if isinstance(stat, Counter):
                result[path] = stat.value
            else:
                result[path] = stat.as_dict()
        return result


def render_report(stats: Mapping[str, float | Mapping[str, float]]) -> str:
    """Human-readable, gem5-style dump of a flat :meth:`StatGroup.as_dict`."""
    lines = []
    for path, value in sorted(stats.items()):
        if not isinstance(value, Mapping):
            lines.append(f"{path:<60} {value}")
        elif value["n"] == 0:
            lines.append(f"{path:<60} n=0")
        else:
            lines.append(
                f"{path:<60} n={value['n']} mean={value['mean']:.4f}"
                f" min={value['min']:g} max={value['max']:g}"
                f" p50={value['p50']:g}"
                f" p95={value['p95']:g}"
                f" p99={value['p99']:g}"
            )
    return "\n".join(lines)
