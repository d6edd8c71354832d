"""Deterministic scan metrics: counters, gauges, histograms, a registry.

The paper's headline claims are *rate and counter* claims (Table 2
echo-reply rates, the Echo-vs-error rate-limiting asymmetry, Fig. 5
re-scan stability), so the simulator's observability layer is built on
plain, reproducible aggregates rather than wall-clock samplers:

* every metric lives on the scan's **virtual clock** — two runs of the
  same seed produce byte-identical exports,
* histograms use **fixed bucket edges** chosen at creation, so two
  histograms merge by summing counts without re-bucketing, and keep
  their sum exactly, so it does not depend on observation or merge order,
* :meth:`MetricsRegistry.merge` is the deterministic combination rule:
  counters and histogram buckets add, gauges keep the maximum.  A scan
  folds its metrics into a registry of its own and merges that into the
  campaign's once it has finished (a failed scan's is discarded); shards
  carry no registries.

The Prometheus text exporter (:meth:`MetricsRegistry.to_prometheus`)
emits metric families sorted by name with a stable number format, making
the output suitable for golden-file regression tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


# Histogram sums are ints in units of 2**-1074: the spacing of the
# subnormal doubles, so every finite double is a whole number of them.
_SUM_SCALE = 1 << 1074


def format_number(value: float) -> str:
    """Stable Prometheus-text rendering: integral floats print as ints."""
    if isinstance(value, bool):  # bools are ints; refuse the footgun
        raise TypeError("metric values must be numbers, not bool")
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN never belongs in a deterministic export
        raise ValueError("metric value is NaN")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing count (probes sent, replies matched)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last scan duration, configured pps)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-edge histogram with cumulative Prometheus semantics.

    ``edges`` are the inclusive upper bounds of the finite buckets, in
    strictly increasing order; one implicit ``+Inf`` bucket catches the
    rest.  Edges are fixed at creation so shard histograms are mergeable
    and exports are deterministic.
    """

    __slots__ = ("name", "help", "edges", "counts", "total", "_sum")

    def __init__(self, name: str, edges: Iterable[float], help: str = "") -> None:
        self.name = name
        self.help = help
        self.edges = tuple(float(edge) for edge in edges)
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        # Exact accumulator (an int, see _SUM_SCALE): float addition is
        # order-dependent, and a streamed scan adds its observations in
        # a different grouping than a buffered one.  Exact, the sum is a
        # function of the observed multiset only, so exports stay
        # byte-identical either way — at one shift and add per
        # observation.
        self._sum = 0

    @property
    def sum(self) -> float:
        """The observation sum, correctly rounded to a float."""
        return self._sum / _SUM_SCALE  # int true division rounds correctly

    def observe(self, value: float) -> None:
        """Record one observation.  NaN and infinities raise."""
        numerator, denominator = float(value).as_integer_ratio()
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        # denominator is 2**k, k <= 1074: scaled, the value is an int.
        self._sum += numerator << (1075 - denominator.bit_length())

    def cumulative(self) -> list[int]:
        """Cumulative ``le`` counts, one per finite edge plus ``+Inf``."""
        running = 0
        out = []
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.total})"


class MetricsRegistry:
    """A named collection of metrics with deterministic merge + export.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, and asking with a
    conflicting kind (or histogram edges) is an error — the registry is
    the schema.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, edges: Iterable[float], help: str = ""
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            if existing.edges != tuple(float(e) for e in edges):
                raise ValueError(f"histogram {name!r} edges differ")
            return existing
        metric = Histogram(name, edges, help)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, kind, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        metric = kind(name, help)
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, object]:
        """Plain-data snapshot (stable key order) for tests and JSON."""
        out: dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
            else:
                out[name] = {
                    "edges": list(metric.edges),
                    "counts": list(metric.counts),
                    "total": metric.total,
                    "sum": metric.sum,
                }
        return out

    # ------------------------------------------------------------------ #
    # merge
    # ------------------------------------------------------------------ #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place and return self.

        Counters and histogram buckets add; gauges keep the maximum.
        Metrics present only in ``other`` are adopted with their values.
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name, metric.help).inc(metric.value)
            elif isinstance(metric, Gauge):
                mine = self.gauge(name, metric.help)
                mine.set(max(mine.value, metric.value))
            else:
                mine = self.histogram(name, metric.edges, metric.help)
                for index, count in enumerate(metric.counts):
                    mine.counts[index] += count
                mine.total += metric.total
                mine._sum += metric._sum
        return self

    # ------------------------------------------------------------------ #
    # Prometheus text exposition
    # ------------------------------------------------------------------ #

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format.

        Families are sorted by metric name and values use a fixed number
        format, so equal registries render byte-identically.
        """
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {format_number(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {format_number(metric.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                cumulative = metric.cumulative()
                for edge, count in zip(metric.edges, cumulative):
                    lines.append(
                        f'{name}_bucket{{le="{format_number(edge)}"}} '
                        f"{format_number(count)}"
                    )
                lines.append(
                    f'{name}_bucket{{le="+Inf"}} '
                    f"{format_number(cumulative[-1])}"
                )
                lines.append(f"{name}_sum {format_number(metric.sum)}")
                lines.append(f"{name}_count {format_number(metric.total)}")
        return "\n".join(lines) + "\n" if lines else ""
