"""Nested tracing spans: the pipeline's only timer.

A :class:`Span` records one named, timed region of the pipeline —
``compliance.search_product``, ``planner.find_valid_plans``, one network
session — with attributes, point events, and parent links.  The
:class:`Tracer` hands them out either as context managers (the common,
strictly nested case) or via :meth:`Tracer.start_span` /
:meth:`Tracer.end_span` for regions whose lifetimes interleave (the
simulator's concurrent sessions).

No other module reads a clock: where the pipeline wants to know how
long something took, it opens a span, and :meth:`Tracer.timings`
summarises the durations per span name, exactly (the ``--stats`` and
``trace`` timing rows, ``report --wall``'s ``metrics.histograms``).

Span construction is counted in ``Span.constructed`` — a process-global
class attribute the no-op fast-path tests use to assert that a disabled
pipeline allocates *zero* spans.

Point events carry a per-tracer monotone ``seq``, so the global event
order across interleaved spans (two simulator sessions taking turns)
survives in the export.  Exports (``repro trace --out``) start with a
``{"schema": "repro-trace.v1"}`` header line.
"""

from __future__ import annotations

import json
import math
from itertools import count
from time import perf_counter
from typing import Callable, Iterable, Iterator

from contextlib import contextmanager

#: Schema tag on the header line of every JSONL export.
TRACE_SCHEMA = "repro-trace.v1"


class Span:
    """One timed region: name, attributes, point events, children."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "events",
                 "start", "end", "children", "_seq_source")

    #: Total Span constructions in this process (no-op fast-path tests).
    constructed = 0

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 attrs: dict, start: float,
                 seq_source: Callable[[], int]) -> None:
        Span.constructed += 1
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.events: list[dict] = []
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self._seq_source = seq_source

    @property
    def duration(self) -> float:
        """Wall seconds; 0.0 while the span is still open."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes."""
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs: object) -> None:
        """Record a point event inside the span (communications, framing
        opens/closes, monitor aborts…), stamped with a tracer-wide
        monotone ``seq`` so interleaved spans' events keep their global
        order in the export."""
        event = {"name": name, "seq": self._seq_source()}
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def to_record(self) -> dict:
        """The JSON-serialisable export record of this span."""
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.name, "attrs": self.attrs,
                "events": self.events, "start": self.start,
                "duration": self.duration}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id})"


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Count, total, min, max and mean of *values*, and their p50, p95
    and p99 by nearest-rank selection (the ``ceil(q * count)``-th
    smallest value), all exact; zeros when there are none."""
    ordered = sorted(values)
    size = len(ordered)
    if not size:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    total = sum(ordered)

    def rank(quantile: float) -> float:
        return ordered[max(1, math.ceil(quantile * size)) - 1]

    return {"count": size, "total": total, "min": ordered[0],
            "max": ordered[-1], "mean": total / size,
            "p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99)}


class Tracer:
    """A factory and store of spans.

    Strictly nested spans push onto one stack, whose top is the parent
    of the next span opened without an explicit one.  The pipeline
    starts no threads, so one stack serves the whole tracer.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._event_seq = count(1)

    # -- span lifecycle -----------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open nested span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, parent: Span | None = None,
                   **attrs: object) -> Span:
        """Open a span explicitly (caller must :meth:`end_span` it).

        With ``parent=None`` the span nests under the current span; pass
        an explicit parent for interleaved lifetimes.
        """
        if parent is None:
            parent = self.current()
        span_id = self._next_id
        self._next_id += 1
        span = Span(span_id,
                    parent.span_id if parent is not None else None,
                    name, attrs, perf_counter(), self._event_seq.__next__)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close an explicitly opened span."""
        if span.end is None:
            span.end = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a strictly nested span for the duration of the block."""
        opened = self.start_span(name, **attrs)
        stack = self._stack
        stack.append(opened)
        try:
            yield opened
        finally:
            stack.pop()
            self.end_span(opened)

    # -- inspection ---------------------------------------------------------

    def roots(self) -> list[Span]:
        """Spans with no parent, in creation order."""
        return [span for span in self.spans if span.parent_id is None]

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in creation order."""
        return [span for span in self.spans if span.name == name]

    def timings(self) -> dict[str, dict[str, float]]:
        """:func:`summarize` over the durations of the closed spans of
        each name, sorted by name."""
        durations: dict[str, list[float]] = {}
        for span in self.spans:
            if span.end is not None:
                durations.setdefault(span.name, []).append(span.duration)
        return {name: summarize(values)
                for name, values in sorted(durations.items())}

    def reset(self) -> None:
        """Drop every recorded span (open ones are abandoned)."""
        self.spans.clear()
        self._stack = []
        self._event_seq = count(1)

    def __len__(self) -> int:
        return len(self.spans)

    # -- export -------------------------------------------------------------

    def export_jsonl(self) -> str:
        """A ``{"schema": ...}`` header line followed by one JSON object
        per span, in creation order (parents precede their children, so
        a stream consumer can rebuild the tree)."""
        lines = [json.dumps({"schema": TRACE_SCHEMA}, sort_keys=True)]
        lines.extend(json.dumps(span.to_record(), sort_keys=True,
                                default=str)
                     for span in self.spans)
        return "\n".join(lines)

    def render_tree(self, unit: str = "ms") -> str:
        """The forest of spans as an indented, durations-annotated tree."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            indent = "  " * depth
            attrs = ""
            if span.attrs:
                attrs = " " + " ".join(f"{k}={v}"
                                       for k, v in sorted(span.attrs.items()))
            lines.append(f"{indent}{span.name} "
                         f"[{span.duration * scale:.3f}{unit}]{attrs}")
            for event in span.events:
                extra = " ".join(f"{k}={v}" for k, v in event.items()
                                 if k not in ("name", "seq"))
                lines.append(f"{indent}  · {event['name']}"
                             + (f" {extra}" if extra else ""))
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"
