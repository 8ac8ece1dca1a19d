"""The flight recorder: a bounded, deterministic structured event log.

Where :mod:`repro.observability.metrics` answers *how many* and
:mod:`repro.observability.tracing` answers *how long*, the flight
recorder answers *what happened, in what order, and because of what*.
Every instrumented layer appends :class:`Event` records — fault
injections, session aborts, compensations, replans, compile misses,
verdicts — each carrying three correlation fields:

``session``
    The logical work unit the event belongs to (a chaos trial, a verify
    pass), set by the enclosing :meth:`EventLog.session` context.
``span``
    The ``span_id`` of the innermost open nested tracing span, linking
    the event into the span tree.
``cause``
    The ``seq`` of the event that *caused* this one, forming explicit
    causal chains (fault → abort → compensate → replan → verdict) that
    :func:`EventLog.causal_chain` walks back.

Determinism: events never record wall-clock time.  Emitters pass the
*simulated* clock (``tick=...``) where a notion of time exists, so a
seeded run produces a byte-identical log.  The log is bounded — a ring
buffer of ``maxlen`` events with a drop counter — so a long chaos
campaign cannot grow memory without bound; sequence numbers keep
increasing monotonically across drops.

``Event.appended`` is a process-global construction counter, mirroring
``Span.constructed``: the no-op fast-path tests assert that a disabled
pipeline appends *zero* events.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from typing import Iterator

#: Default ring-buffer capacity (events, not bytes).
DEFAULT_CAPACITY = 65536


class Event:
    """One structured log record with causal correlation fields."""

    __slots__ = ("seq", "kind", "session", "span", "cause", "attrs")

    #: Total Event constructions in this process (fast-path tests).
    appended = 0

    def __init__(self, seq: int, kind: str, session: str | None,
                 span: int | None, cause: int | None,
                 attrs: dict) -> None:
        Event.appended += 1
        self.seq = seq
        self.kind = kind
        self.session = session
        self.span = span
        self.cause = cause
        self.attrs = attrs

    def to_record(self) -> dict:
        """The JSON-serialisable record of this event (the report's
        causal-chain links)."""
        return {"seq": self.seq, "kind": self.kind,
                "session": self.session, "span": self.span,
                "cause": self.cause, "attrs": self.attrs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.seq} {self.kind!r})"


class EventLog:
    """A bounded append-only log of :class:`Event` records.

    Per-kind counters are kept beside the ring buffer and survive
    eviction; :meth:`rebaseline` zeroes their *visible* value without
    touching the buffer, which is how ``clear_contract_caches()``
    restarts counting after a cache flush (as the flush zeroes the memo
    tables' own hit/miss counts).
    """

    def __init__(self, maxlen: int = DEFAULT_CAPACITY) -> None:
        self.events: deque[Event] = deque(maxlen=maxlen)
        self.maxlen = maxlen
        self.dropped = 0
        self._next_seq = 1
        self._counts: Counter[str] = Counter()
        self._baseline: Counter[str] = Counter()
        self._session: str | None = None

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, /, *, session: str | None = None,
             span: int | None = None, cause: int | None = None,
             **attrs: object) -> Event:
        """Append an event and return it (its ``seq`` seeds later
        ``cause`` links).  ``session`` defaults to the enclosing
        :meth:`session` context's id."""
        if session is None:
            session = self._session
        if len(self.events) == self.maxlen:
            self.dropped += 1
        event = Event(self._next_seq, kind, session, span, cause, attrs)
        self._next_seq += 1
        self.events.append(event)
        self._counts[kind] += 1
        return event

    @contextmanager
    def session(self, session_id: str) -> Iterator[str]:
        """Stamp every event emitted in the block with ``session_id``."""
        previous = self._session
        self._session = session_id
        try:
            yield session_id
        finally:
            self._session = previous

    # -- inspection ---------------------------------------------------------

    def find(self, kind: str) -> list[Event]:
        """All retained events of the given kind, in seq order."""
        return [event for event in self.events if event.kind == kind]

    def causal_chain(self, seq: int) -> list[Event]:
        """The chain of retained events ending at ``seq``, oldest first.

        Walks ``cause`` links backwards; stops at the first missing
        (evicted) link, so a truncated buffer yields a truncated — never
        wrong — chain.
        """
        by_seq = {event.seq: event for event in self.events}
        chain: list[Event] = []
        cursor = by_seq.get(seq)
        while cursor is not None and cursor.seq not in {
                e.seq for e in chain}:
            chain.append(cursor)
            cursor = (by_seq.get(cursor.cause)
                      if cursor.cause is not None else None)
        chain.reverse()
        return chain

    def counters(self) -> dict[str, int]:
        """Per-kind event counts since the last :meth:`rebaseline`,
        zero-count kinds omitted, sorted by kind."""
        visible = {kind: count - self._baseline[kind]
                   for kind, count in sorted(self._counts.items())
                   if count - self._baseline[kind] > 0}
        return visible

    def rebaseline(self) -> None:
        """Zero the visible per-kind counters (the buffer is kept)."""
        self._baseline = Counter(self._counts)

    def reset(self) -> None:
        """Drop everything: events, counters, baselines, drop count.
        Sequence numbers restart at 1 (a fresh recorder)."""
        self.events.clear()
        self.dropped = 0
        self._next_seq = 1
        self._counts.clear()
        self._baseline.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)
