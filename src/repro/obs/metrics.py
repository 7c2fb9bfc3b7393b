"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` holds named instrument *families*; a family
with label names hands out one child instrument per label combination
(memoised, so hot paths resolve a child once and call ``inc``/``observe``
on the held reference — no per-call dict churn). Everything is
thread-safe: instruments take a small per-instrument lock, and snapshots
are consistent per instrument.

Histograms use fixed bucket bounds (latency buckets by default) and
report p50/p95/p99 estimates by linear interpolation inside the bucket —
the standard Prometheus ``histogram_quantile`` estimate, computed at
snapshot time so the observe path stays two integer adds.

Snapshots are plain dicts (JSON-ready) and *mergeable*: folding one
process's snapshot into another registry sums counters and bucket counts,
mirroring ``EngineStats.merge``. Collectors registered with
:meth:`MetricsRegistry.register_collector` contribute derived families
(cache sizes, warm-engine counters) at snapshot time only, keeping the
sources of truth where they live.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default histogram bounds for latency-in-seconds observations; spans
#: 500 us .. 5 s, which covers a microbatched NumPy serving stack from
#: cache-hit matmuls to cold mitigation runs.
DEFAULT_LATENCY_BUCKETS_S = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
                             0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
                             float("inf"))


def _normalize_buckets(buckets) -> tuple:
    bounds = tuple(sorted(float(b) for b in buckets))
    if not bounds:
        raise ValueError("histogram needs at least one bucket bound")
    if bounds[-1] != float("inf"):
        bounds = bounds + (float("inf"),)
    return bounds


def bucket_percentile(bounds, cumulative, q: float) -> float:
    """Quantile estimate from cumulative bucket counts.

    Linear interpolation within the containing bucket (the Prometheus
    ``histogram_quantile`` estimate); the open-ended ``+Inf`` bucket
    reports its lower bound, the best point estimate available.
    """
    total = cumulative[-1] if cumulative else 0
    if total <= 0:
        return 0.0
    rank = q * total
    prev_bound, prev_cum = 0.0, 0
    for bound, cum in zip(bounds, cumulative):
        if cum >= rank:
            if bound == float("inf"):
                return prev_bound
            width = bound - prev_bound
            frac = (rank - prev_cum) / max(cum - prev_cum, 1)
            return prev_bound + frac * width
        prev_bound, prev_cum = bound, cum
    return prev_bound


class Counter:
    """Monotonic counter child. ``inc`` only; rendered as a float."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Set-or-adjust gauge child (queue depths, cache sizes)."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram child; two adds per observation."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple):
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def _merge_raw(self, counts, total_sum, total_count) -> None:
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.sum += total_sum
            self.count += total_count

    def state(self) -> tuple:
        """Consistent ``(counts, sum, count)`` copy."""
        with self._lock:
            return list(self.counts), self.sum, self.count


def _summary(bounds, counts, total_sum, total_count) -> dict:
    cumulative = []
    running = 0
    for c in counts:
        running += c
        cumulative.append(running)
    return {
        "count": total_count,
        "sum": total_sum,
        "buckets": [["+Inf" if b == float("inf") else b, cum]
                    for b, cum in zip(bounds, cumulative)],
        "p50": bucket_percentile(bounds, cumulative, 0.50),
        "p95": bucket_percentile(bounds, cumulative, 0.95),
        "p99": bucket_percentile(bounds, cumulative, 0.99),
    }


class Family:
    """One named instrument family; children are memoised per label set."""

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: tuple = (), buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.bounds = _normalize_buckets(buckets) \
            if kind == "histogram" else None
        self._lock = threading.Lock()
        self._children: dict = {}
        if not self.labelnames:
            self._default = self._make()
            self._children[()] = self._default
        else:
            self._default = None

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.bounds)

    def labels(self, **labels):
        """The child instrument for one label combination (memoised)."""
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make()
        return child

    # Unlabelled convenience: family-level inc/set/observe hit the
    # default child directly.
    def inc(self, amount=1) -> None:
        self._default.inc(amount)

    def set(self, value) -> None:
        self._default.set(value)

    def observe(self, value) -> None:
        self._default.observe(value)

    def aggregate(self) -> dict:
        """Histogram summary merged across every child (p50/p95/p99)."""
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        counts = [0] * len(self.bounds)
        total_sum, total_count = 0.0, 0
        with self._lock:
            children = list(self._children.values())
        for child in children:
            c, s, n = child.state()
            for i, v in enumerate(c):
                counts[i] += v
            total_sum += s
            total_count += n
        return _summary(self.bounds, counts, total_sum, total_count)

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._children.items())
        values = []
        for key, child in items:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                counts, s, n = child.state()
                entry = {"labels": labels}
                entry.update(_summary(self.bounds, counts, s, n))
            else:
                entry = {"labels": labels, "value": child.value}
            values.append(entry)
        return {"type": self.kind, "help": self.help, "values": values}


def counter_family(help: str, values) -> dict:
    """Snapshot-format counter family for collectors.

    ``values`` is an iterable of ``(labels_dict, value)`` pairs.
    """
    return {"type": "counter", "help": help,
            "values": [{"labels": dict(labels), "value": value}
                       for labels, value in values]}


def gauge_family(help: str, values) -> dict:
    """Snapshot-format gauge family for collectors."""
    return {"type": "gauge", "help": help,
            "values": [{"labels": dict(labels), "value": value}
                       for labels, value in values]}


class MetricsRegistry:
    """Named instrument families plus snapshot-time collectors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict = {}
        self._collectors: list = []

    def _get_or_create(self, name: str, kind: str, help: str,
                       labelnames: tuple, buckets=None) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = Family(
                    name, kind, help, labelnames, buckets=buckets)
            elif family.kind != kind:
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{family.kind}, requested {kind}")
            return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple = ()) -> Family:
        return self._get_or_create(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple = ()) -> Family:
        return self._get_or_create(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets=DEFAULT_LATENCY_BUCKETS_S) -> Family:
        return self._get_or_create(name, "histogram", help, labelnames,
                                   buckets=buckets)

    def register_collector(self, collect) -> None:
        """Register ``collect() -> {name: family_snapshot}``.

        Collectors federate externally-owned counters (registry LRU
        tiers, warm-engine ``EngineStats``, zoo training counts) into
        this registry's namespace at snapshot time; they never add
        per-event overhead to the collected subsystem.
        """
        with self._lock:
            self._collectors.append(collect)

    def snapshot(self) -> dict:
        """All families (instruments + collectors) as one JSON-ready dict."""
        with self._lock:
            families = list(self._families.items())
            collectors = list(self._collectors)
        out = {name: family.snapshot() for name, family in families}
        for collect in collectors:
            for name, family in collect().items():
                out[name] = family
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. from another process) into this registry.

        Counters and histograms sum, like ``EngineStats.merge``; gauges
        overwrite (last writer wins — a merged gauge is a point sample,
        not an accumulation).
        """
        for name, family_snap in snapshot.items():
            kind = family_snap.get("type", "counter")
            help = family_snap.get("help", "")
            for entry in family_snap.get("values", []):
                labels = entry.get("labels", {})
                labelnames = tuple(labels)
                if kind == "histogram":
                    bounds = tuple(
                        float("inf") if b == "+Inf" else float(b)
                        for b, _ in entry["buckets"])
                    family = self._get_or_create(name, kind, help,
                                                 labelnames, buckets=bounds)
                    child = family.labels(**labels)
                    if child.bounds != bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket bounds mismatch")
                    cumulative = [c for _, c in entry["buckets"]]
                    counts = [cumulative[0]] + [
                        cumulative[i] - cumulative[i - 1]
                        for i in range(1, len(cumulative))]
                    child._merge_raw(counts, entry["sum"], entry["count"])
                else:
                    family = self._get_or_create(name, kind, help,
                                                 labelnames)
                    child = family.labels(**labels)
                    if kind == "counter":
                        child.inc(entry["value"])
                    else:
                        child.set(entry["value"])


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry.

    Library code that wants ambient instrumentation without plumbing a
    registry through every constructor records here; servers own their
    own registry per instance (so tests booting several servers in one
    process never cross-pollute) and federate the rest via collectors.
    """
    return _DEFAULT
