"""One merged observability report: metrics + trace + flight recorder.

:func:`build_report` folds everything one telemetry scope recorded — the
metrics snapshot, the span forest, and the flight-recorder event log —
into a single :class:`Report` with

* **per-layer time attribution**: every span is classified into one of
  the pipeline layers (``parse`` / ``compile`` / ``search`` / ``monitor``
  / ``recover``) by its name prefix, and the layer totals use *self*
  time (a span's duration minus its children's), so the layers partition
  the traced wall clock instead of double-counting nested regions;
* **causal chains**: for every ``run.verdict`` event the recorder's
  cause links are walked back, reconstructing the full
  fault → abort → recovery → verdict story of each supervised session.

The JSON rendering (``repro-report.v1``) is deterministic by default for
a seeded run: it carries span and event *counts*, simulated-clock ticks,
and chains — never wall seconds.  Wall-clock timings (layer seconds, and
under ``metrics.histograms`` one exact duration summary per span name,
:meth:`~repro.observability.tracing.Tracer.timings`) appear only when
the report is built with ``wall=True`` (the CLI's ``--wall``), which is
also the only non-reproducible part of the text rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.observability.events import EventLog
from repro.observability.tracing import Span

#: Identifier of the JSON report layout below.
REPORT_SCHEMA = "repro-report.v1"

#: Span-name prefix → pipeline layer.  First match wins; unmatched spans
#: land in ``other`` (which stays empty in a stock pipeline).
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("parse.", "parse"),
    ("compile.", "compile"),
    ("compliance.", "search"),
    ("planner.", "search"),
    ("staticcheck.", "search"),
    ("simulator.", "monitor"),
    ("monitor.", "monitor"),
    ("supervisor.", "recover"),
)

#: Layer display order.
LAYERS: tuple[str, ...] = ("parse", "compile", "search", "monitor",
                           "recover", "other")


def layer_of(span_name: str) -> str:
    """The pipeline layer a span name belongs to."""
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "other"


@dataclass
class LayerStats:
    """Aggregate attribution of one pipeline layer."""

    spans: int = 0
    events: int = 0
    self_seconds: float = 0.0

    def to_dict(self, wall: bool) -> dict:
        record: dict = {"spans": self.spans, "events": self.events}
        if wall:
            record["self_seconds"] = self.self_seconds
        return record


@dataclass
class Report:
    """The merged report of one telemetry scope (see module docstring)."""

    module: str
    wall: bool
    layers: dict[str, LayerStats]
    chains: list[list[dict]]
    counters: dict[str, int]
    histograms: dict[str, dict]
    event_counters: dict[str, int]
    events_recorded: int
    events_dropped: int
    span_count: int
    root_count: int
    chaos: dict | None = None
    tree: str | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        record: dict = {
            "schema": REPORT_SCHEMA,
            "module": self.module,
            "layers": {layer: stats.to_dict(self.wall)
                       for layer, stats in self.layers.items()},
            "chains": self.chains,
            # repro-report.v1 keeps its gauges map; nothing sets one.
            "metrics": {"counters": self.counters, "gauges": {}},
            "events": {"recorded": self.events_recorded,
                       "dropped": self.events_dropped,
                       "counters": self.event_counters},
            "trace": {"spans": self.span_count, "roots": self.root_count},
        }
        if self.wall:
            record["metrics"]["histograms"] = self.histograms
        if self.chaos is not None:
            record["chaos"] = self.chaos
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=str)

    def render_text(self) -> str:
        lines = [f"observability report for {self.module} "
                 f"({REPORT_SCHEMA})", ""]
        if self.chaos is not None:
            outcomes = ", ".join(f"{status}={count}" for status, count
                                 in self.chaos["outcomes"].items())
            verdict = ("HOLDS" if self.chaos["invariant_holds"]
                       else "VIOLATED")
            lines.append(f"chaos: {self.chaos['trials']} trial(s), "
                         f"seed {self.chaos['seed']}, "
                         f"outcomes {outcomes or '-'}, "
                         f"invariant {verdict}")
            lines.append("")
        lines.append("layers:")
        for layer in LAYERS:
            stats = self.layers.get(layer)
            if stats is None or (not stats.spans and not stats.events):
                continue
            timing = (f"  self={stats.self_seconds:.6f}s"
                      if self.wall else "")
            lines.append(f"  {layer:<8} spans={stats.spans:<6} "
                         f"events={stats.events:<6}{timing}")
        lines.append("")
        if self.chains:
            lines.append(f"causal chains ({len(self.chains)}):")
            for chain in self.chains:
                session = chain[-1].get("session") or "-"
                lines.append(f"  session {session}:")
                for link in chain:
                    attrs = " ".join(
                        f"{key}={value}" for key, value
                        in sorted(link.get("attrs", {}).items()))
                    cause = link.get("cause")
                    arrow = f" <- #{cause}" if cause is not None else ""
                    lines.append(f"    #{link['seq']} {link['kind']}"
                                 + (f" {attrs}" if attrs else "")
                                 + arrow)
            lines.append("")
        lines.append(f"flight recorder: {self.events_recorded} event(s), "
                     f"{self.events_dropped} dropped")
        for kind, count in sorted(self.event_counters.items()):
            lines.append(f"  {kind:<24} {count}")
        lines.append("")
        lines.append(f"trace: {self.span_count} span(s), "
                     f"{self.root_count} root(s)")
        if self.counters:
            lines.append("")
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines)


def _self_seconds(span: Span) -> float:
    """The span's duration minus its direct children's durations (never
    negative: abandoned children can outlast a parent on paper)."""
    nested = sum(child.duration for child in span.children)
    return max(0.0, span.duration - nested)


def causal_chains(events: EventLog) -> list[list[dict]]:
    """One cause-link chain per ``run.verdict`` event, oldest link
    first, each link as its export record."""
    chains: list[list[dict]] = []
    for verdict in events.find("run.verdict"):
        chain = events.causal_chain(verdict.seq)
        chains.append([event.to_record() for event in chain])
    return chains


def build_report(tel, *, module: str = "<module>",
                 chaos: dict | None = None,
                 wall: bool = False,
                 include_tree: bool = False) -> Report:
    """Fold the scope *tel* recorded into one :class:`Report`.

    *chaos* is the ``repro-chaos.v1`` dict of the run the scope observed
    (optional — a report over e.g. a bare ``analyze`` has none).  With
    ``wall=False`` (the default) the result is byte-for-byte reproducible
    for a fixed module and seed.
    """
    layers = {layer: LayerStats() for layer in LAYERS}
    span_layers: dict[int, str] = {}
    for span in tel.tracer.spans:
        layer = layer_of(span.name)
        span_layers[span.span_id] = layer
        stats = layers[layer]
        stats.spans += 1
        stats.self_seconds += _self_seconds(span)
    for event in tel.events:
        layer = (span_layers.get(event.span, "other")
                 if event.span is not None else "other")
        layers[layer].events += 1

    log = tel.events
    return Report(
        module=module,
        wall=wall,
        layers=layers,
        chains=causal_chains(log),
        counters=tel.metrics.snapshot()["counters"],
        histograms=tel.tracer.timings() if wall else {},
        event_counters=log.counters(),
        events_recorded=len(log),
        events_dropped=log.dropped,
        span_count=len(tel.tracer),
        root_count=len(tel.tracer.roots()),
        chaos=chaos,
        tree=tel.tracer.render_tree() if include_tree else None,
    )
