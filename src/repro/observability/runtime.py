"""The process-wide telemetry switch.

Instrumented hot paths are gated on one cheap call::

    tel = runtime.active()
    if tel is not None:
        tel.metrics.counter("...").inc()

``active()`` returns ``None`` while telemetry is disabled (the default),
so a disabled pipeline pays one function call and one comparison per
instrumented *region* — never per inner-loop iteration, and it allocates
no spans at all (asserted by the fast-path tests via
``Span.constructed``).

Telemetry is switched on in two ways: the ``REPRO_TELEMETRY``
environment variable (any value except ``0``/``false``/``off``/``no``/
empty) activates one scope for the whole process, and the
:func:`telemetry_session` context manager swaps in a fresh scope and
restores the previous state on exit — the CLI's ``--stats``/``trace``/
``report`` and the benchmark harness use the latter so runs never see
each other's numbers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.observability.events import Event, EventLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer


class Telemetry:
    """One enabled telemetry scope: a metrics registry, a tracer, and
    the flight-recorder event log."""

    __slots__ = ("metrics", "tracer", "events")

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventLog()

    def emit(self, kind: str, /, *, cause: int | None = None,
             **attrs: object) -> Event:
        """Append a flight-recorder event correlated to the innermost
        open nested span (the session id comes from the event log's
        enclosing :meth:`EventLog.session` context)."""
        current = self.tracer.current()
        return self.events.emit(
            kind, span=current.span_id if current is not None else None,
            cause=cause, **attrs)

    def reset(self) -> None:
        self.metrics.reset()
        self.tracer.reset()
        self.events.reset()


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "").lower() not in (
        "", "0", "false", "off", "no")


#: The active scope, or None while telemetry is disabled.  Module-level so
#: ``active()`` is a single global load.
_ACTIVE: Telemetry | None = Telemetry() if _env_enabled() else None


def active() -> Telemetry | None:
    """The active telemetry scope, or ``None`` when disabled — the only
    check instrumented code performs on its fast path."""
    return _ACTIVE


@contextmanager
def telemetry_session(scope: Telemetry | None = None
                      ) -> Iterator[Telemetry]:
    """Enable a fresh telemetry scope for the duration of the block.

    The previous active scope (possibly none) is restored on exit, so
    nested sessions and interleaved benchmark runs stay isolated.
    """
    global _ACTIVE
    previous = _ACTIVE
    session = scope if scope is not None else Telemetry()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def metrics_snapshot() -> dict:
    """What the active scope recorded (an empty scope's record when
    telemetry is off): its counters, its span timings under
    ``histograms`` (see :meth:`Tracer.timings`), the flight recorder's
    per-kind event counts, and the statistics of every memo table."""
    from repro.observability.cache_stats import cache_stats
    tel = _ACTIVE if _ACTIVE is not None else Telemetry()
    snapshot = tel.metrics.snapshot()
    snapshot["histograms"] = tel.tracer.timings()
    snapshot["caches"] = cache_stats()
    snapshot["events"] = tel.events.counters()
    return snapshot
