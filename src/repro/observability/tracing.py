"""Nested tracing spans with JSONL export and a human-readable tree.

A :class:`Span` records one named, timed region of the pipeline —
``compliance.search_product``, ``planner.find_valid_plans``, one network
session — with attributes, point events, and parent links.  The
:class:`Tracer` hands them out either as context managers (the common,
strictly nested case) or via :meth:`Tracer.start_span` /
:meth:`Tracer.end_span` for regions whose lifetimes interleave (the
simulator's concurrent sessions).

Span construction is counted in ``Span.constructed`` — a process-global
class attribute the no-op fast-path tests use to assert that a disabled
pipeline allocates *zero* spans.

Point events carry a per-tracer monotone ``seq`` so the *global* event
order across interleaved spans (two simulator sessions taking turns)
survives the JSONL round trip: :func:`merged_events` re-sorts by it.
Exports start with a ``{"schema": "repro-trace.v1"}`` header line and
:func:`load_jsonl` rejects unknown schema versions.
"""

from __future__ import annotations

import json
import threading
from itertools import count
from time import perf_counter
from typing import Callable, Iterator

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
                 attrs: dict | None = None, start: float = 0.0,
                 seq_source: Callable[[], int] | None = None) -> None:
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
        opens/closes, monitor aborts…).  Tracer-created spans stamp the
        event with a tracer-wide monotone ``seq`` so interleaved spans'
        events keep their global order through export/load."""
        event = {"name": name}
        if self._seq_source is not None:
            event["seq"] = self._seq_source()
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


class Tracer:
    """A factory and store of spans.

    The *current parent* is tracked per thread, so spans opened by
    concurrent threads become independent roots instead of corrupting
    each other's nesting.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._event_seq = count(1)

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(self, name: str, parent: Span | None = None,
                   **attrs: object) -> Span:
        """Open a span explicitly (caller must :meth:`end_span` it).

        With ``parent=None`` the span nests under this thread's current
        span; pass an explicit parent for interleaved lifetimes.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id,
                    parent.span_id if parent is not None else None,
                    name, attrs, start=perf_counter(),
                    seq_source=self._event_seq.__next__)
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
        stack = self._stack()
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

    def reset(self) -> None:
        """Drop every recorded span (open ones are abandoned)."""
        self.spans.clear()
        self._local = threading.local()
        self._event_seq = count(1)

    def merged_events(self) -> list[tuple[Span, dict]]:
        """Every point event across all spans, in global emission order
        (by ``seq``; events without one sort first, in span order)."""
        return merged_events(self.spans)

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


def merged_events(spans: list[Span]) -> list[tuple[Span, dict]]:
    """Flatten ``(span, event)`` pairs across spans into global emission
    order.  Events carry a tracer-assigned monotone ``seq``; legacy
    events without one keep their per-span position and sort first."""
    pairs: list[tuple[int, int, Span, dict]] = []
    for span_index, span in enumerate(spans):
        for event in span.events:
            pairs.append((event.get("seq", 0), span_index, span, event))
    pairs.sort(key=lambda item: (item[0], item[1]))
    return [(span, event) for _, _, span, event in pairs]


def iter_spans(roots: list[Span]) -> Iterator[Span]:
    """Depth-first traversal of a span forest (for loaded trees, whose
    flat creation-order list is not otherwise available)."""
    for root in roots:
        yield root
        yield from iter_spans(root.children)


def load_jsonl(text: str) -> list[Span]:
    """Rebuild a span forest from :meth:`Tracer.export_jsonl` output.

    Returns the root spans with parent/child links restored; durations,
    attributes and event ``seq`` stamps round-trip exactly (timestamps
    stay as exported).  The leading schema header is validated: an
    unknown version raises :class:`ValueError`; a headerless stream is
    accepted as the legacy (pre-versioning) format.
    """
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    first = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if first:
            first = False
            schema = record.get("schema")
            if schema is not None:
                if schema != TRACE_SCHEMA:
                    raise ValueError(
                        f"unsupported trace schema {schema!r} "
                        f"(expected {TRACE_SCHEMA!r})")
                continue
        span = Span(record["span_id"], record["parent_id"],
                    record["name"], record["attrs"],
                    start=record["start"])
        span.end = span.start + record["duration"]
        span.events = list(record.get("events", ()))
        by_id[span.span_id] = span
        parent = (by_id.get(record["parent_id"])
                  if record["parent_id"] is not None else None)
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots
