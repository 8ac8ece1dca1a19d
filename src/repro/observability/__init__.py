"""Unified instrumentation: counters, tracing spans, the flight recorder
and the memo-table registry.

The pipeline's stages — projection, on-the-fly product emptiness, plan
synthesis, security model checking, simulation, the reference monitor —
all report into one process-wide telemetry scope, one writer per fact:

* :class:`MetricsRegistry` — counters with labelled children (*how
  many*) and a JSON-friendly :meth:`~MetricsRegistry.snapshot`;
* :class:`Tracer` — nested spans with attributes and point events (*how
  long*: spans are the only timer), JSONL export and a human-readable
  tree (``repro trace`` prints one);
* :class:`EventLog` — the flight recorder's causally linked events
  (*what happened, and why*);
* :mod:`~repro.observability.cache_stats` — every ``lru_cache`` memo
  table, declared with :func:`memo_table`, cleared by
  :func:`clear_contract_caches` and surveyed by :func:`cache_stats`.

Telemetry is **off by default** and the disabled fast path costs one
``runtime.active()`` check per instrumented region — no spans, no
counters, no allocations.  Enable it with ``REPRO_TELEMETRY=1`` or the
scoped :func:`telemetry_session`.
"""

from repro.observability.metrics import (Counter, MetricsRegistry,
                                         render_key)
from repro.observability.tracing import (TRACE_SCHEMA, Span, Tracer,
                                         summarize)
from repro.observability.events import Event, EventLog
from repro.observability.cache_stats import (cache_stats,
                                             clear_contract_caches,
                                             memo_table)
from repro.observability.runtime import (Telemetry, active,
                                         metrics_snapshot,
                                         telemetry_session)

__all__ = [
    "Counter", "MetricsRegistry", "render_key",
    "Span", "Tracer", "TRACE_SCHEMA", "summarize",
    "Event", "EventLog",
    "cache_stats", "clear_contract_caches", "memo_table",
    "Telemetry", "active", "metrics_snapshot", "telemetry_session",
]
