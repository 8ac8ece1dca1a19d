"""Tests for tracing spans: nesting, timings and the JSONL export."""

import json

from repro.observability.tracing import TRACE_SCHEMA, Span, Tracer, summarize


def exported(tracer: Tracer) -> list[dict]:
    """The span records of ``tracer.export_jsonl()``, header checked."""
    header, *lines = tracer.export_jsonl().splitlines()
    assert json.loads(header) == {"schema": TRACE_SCHEMA}
    return [json.loads(line) for line in lines]


class TestNesting:
    def test_context_manager_nests_under_current(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.children == [inner]
        assert tracer.roots() == [outer]

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert [child.name for child in parent.children] == ["a", "b"]

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("other"):
            child = tracer.start_span("child", parent=root)
        assert child.parent_id == root.span_id
        tracer.end_span(child)
        tracer.end_span(root)
        assert root.duration >= child.duration >= 0.0

    def test_durations_are_measured(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.end is not None
        assert span.duration >= 0.0

    def test_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("s", engine="onthefly") as span:
            span.set(explored=12)
            span.add_event("communication", channel="Req")
        assert span.attrs == {"engine": "onthefly", "explored": 12}
        assert span.events == [{"name": "communication", "seq": 1,
                                "channel": "Req"}]

    def test_find_by_name(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        assert [span.name for span in tracer.find("x")] == ["x"]

    def test_reset_drops_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert len(tracer) == 0 and tracer.roots() == []


class TestTimings:
    def test_one_exact_summary_per_span_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("b"):
                with tracer.span("a"):
                    pass
        tracer.start_span("open")  # never ended: nothing to time
        timings = tracer.timings()
        assert list(timings) == ["a", "b"]
        for name in ("a", "b"):
            assert timings[name] == summarize(
                [span.duration for span in tracer.find(name)])
            assert timings[name]["count"] == 3


class TestConstructionCounter:
    def test_every_span_is_counted(self):
        before = Span.constructed
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert Span.constructed == before + 2


class TestJsonlRoundTrip:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("planner.find_valid_plans", location="c1") as top:
            top.set(plans_analyzed=4)
            with tracer.span("compliance.check", engine="onthefly") as c:
                c.set(compliant=True, explored_states=17)
            with tracer.span("simulator.session", request="r3") as s:
                s.add_event("communication", step=3, channel="Req")
                s.add_event("framing_open", step=4, policy="phi")
        return tracer

    def test_round_trip_preserves_structure(self):
        # Parents precede their children, so the records rebuild the tree.
        records = exported(self._sample_tracer())
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1
        top = roots[0]
        assert top["name"] == "planner.find_valid_plans"
        assert top["attrs"]["plans_analyzed"] == 4
        assert [r["name"] for r in records
                if r["parent_id"] == top["span_id"]] == [
            "compliance.check", "simulator.session"]
        position = {r["span_id"]: index for index, r in enumerate(records)}
        assert all(position[r["parent_id"]] < index
                   for index, r in enumerate(records)
                   if r["parent_id"] is not None)

    def test_round_trip_preserves_attrs_events_durations(self):
        tracer = self._sample_tracer()
        originals = {span.span_id: span for span in tracer.spans}
        records = exported(tracer)
        assert len(records) == len(originals)
        for record in records:
            original = originals[record["span_id"]]
            assert record["name"] == original.name
            assert record["attrs"] == original.attrs
            assert record["events"] == original.events
            assert record["duration"] == original.duration

    def test_export_is_schema_header_plus_one_object_per_line(self):
        tracer = self._sample_tracer()
        lines = tracer.export_jsonl().splitlines()
        assert len(lines) == len(tracer) + 1
        assert json.loads(lines[0]) == {"schema": TRACE_SCHEMA}
        for line in lines[1:]:
            record = json.loads(line)
            assert {"span_id", "parent_id", "name", "attrs", "events",
                    "start", "duration"} <= set(record)

    def test_empty_tracer_renders_placeholder(self):
        tracer = Tracer()
        assert json.loads(tracer.export_jsonl()) == {
            "schema": TRACE_SCHEMA}
        assert "no spans" in tracer.render_tree()

    def test_interleaved_event_order_survives_round_trip(self):
        tracer = Tracer()
        a = tracer.start_span("session.a")
        b = tracer.start_span("session.b")
        a.add_event("communication", step=1)
        b.add_event("communication", step=2)
        a.add_event("framing_open", step=3)
        b.add_event("framing_close", step=4)
        tracer.end_span(b)
        tracer.end_span(a)

        # The tracer-wide seq stamps restore the global emission order.
        loaded = sorted((event["seq"], record["name"], event["step"])
                        for record in exported(tracer)
                        for event in record["events"])
        assert [(name, step) for _, name, step in loaded] == [
            ("session.a", 1), ("session.b", 2), ("session.a", 3),
            ("session.b", 4)]


class TestRenderTree:
    def test_tree_shows_names_events_and_indentation(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child") as child:
                child.add_event("access", event="@boom(1)")
        text = tracer.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "· access" in text and "@boom(1)" in text
