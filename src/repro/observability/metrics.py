"""A dependency-free counter registry.

The registry answers *how many* (the :mod:`repro.observability.tracing`
spans answer *how long*, the flight recorder *what happened*).  It
mirrors the shape of the Prometheus client — named counters with
labelled children — without any exporter machinery: everything the
pipeline records is answered from process memory via :meth:`snapshot`
and rendered with :meth:`render_table`.

Counters are keyed by ``(name, sorted label items)``; asking for the
same counter twice returns the same object, so hot paths can hoist the
lookup out of their loops and pay one attribute increment per
observation.  Time is not recorded here: spans are the only timer, and
:meth:`render_table` prints their per-name summaries
(:meth:`~repro.observability.tracing.Tracer.timings`) beside the
counters.
"""

from __future__ import annotations

from typing import Mapping

#: A label key: the metric name plus its sorted ``(key, value)`` pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, object]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def render_key(key: MetricKey) -> str:
    """``name{k=v,...}`` — the canonical flat spelling of a metric key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("key", "value")

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class MetricsRegistry:
    """A process- or session-scoped family of named counters.

    ``registry.counter("compliance.explored_states")`` returns the same
    :class:`Counter` on every call; label keywords create independent
    children (``counter("planner.plans", verdict="valid")``).
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(key)
        return metric

    def snapshot(self) -> dict:
        """Every counter recorded so far, as a plain JSON-serialisable
        dict keyed by the flat ``name{labels}`` spelling."""
        return {"counters": {render_key(key): metric.value
                             for key, metric in
                             sorted(self._counters.items())}}

    def reset(self) -> None:
        """Drop every counter (a fresh registry without re-registering)."""
        self._counters.clear()

    def render_table(self, timings: Mapping[str, dict] | None = None
                     ) -> str:
        """A fixed-width human-readable table (what the CLI prints under
        ``--stats``): every counter, then one row per span name of
        *timings* with its count and its total, mean and p50/p95/p99
        durations in seconds."""
        rows: list[tuple[str, str]] = []
        for key, counter in sorted(self._counters.items()):
            rows.append((render_key(key), str(counter.value)))
        for name, summary in sorted((timings or {}).items()):
            rows.append((name,
                         f"n={summary['count']} total={summary['total']:.6f}"
                         f" mean={summary['mean']:.6f}"
                         f" p50={summary['p50']:.6f}"
                         f" p95={summary['p95']:.6f}"
                         f" p99={summary['p99']:.6f}"))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}"
                         for name, value in rows)

    def __len__(self) -> int:
        return len(self._counters)
