"""The no-op fast path and the runtime switch.

The satellite guarantee of the instrumentation layer: with telemetry
disabled (the default), the pipeline allocates **zero** spans — asserted
through ``Span.constructed``, the process-global construction counter —
and records no metrics; enabling it lights everything up without
touching behaviour.
"""

import pathlib

import pytest

from repro.cli import main
from repro.compiled.search import compiled_search
from repro.compiled.tables import compile_contract
from repro.core.syntax import external, internal, receive, send
from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.contracts.product import search_product
from repro.core.compliance import check_compliance
from repro.observability import runtime
from repro.observability.events import Event
from repro.observability.tracing import Span


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture()
def contracts():
    client = internal(("a", receive("x")), ("b", receive("x")))
    server = external(("a", send("x")), ("b", send("x")))
    return Contract(client), Contract(server)


@pytest.fixture(autouse=True)
def disabled_telemetry(monkeypatch):
    """Each test starts with telemetry off (even under
    ``REPRO_TELEMETRY``) and restores the scope it found."""
    monkeypatch.setattr(runtime, "_ACTIVE", None)


class TestDisabledFastPath:
    def test_search_product_constructs_zero_spans(self, contracts):
        client, server = contracts
        search_product(client, server)  # warm the LTS caches
        before = Span.constructed
        for _ in range(5):
            result = search_product(client, server)
        assert result.empty
        assert Span.constructed == before, \
            "disabled telemetry must not allocate spans in the search"

    def test_check_compliance_constructs_zero_spans(self, contracts):
        client, server = contracts
        before = Span.constructed
        assert check_compliance(client, server).compliant
        assert Span.constructed == before

    def test_search_product_appends_zero_events(self, contracts):
        client, server = contracts
        search_product(client, server)  # warm the caches
        before = Event.appended
        for _ in range(5):
            search_product(client, server)
        assert Event.appended == before, \
            "disabled telemetry must not append flight-recorder events"

    def test_compiled_s1_hot_path_allocates_nothing(self, contracts):
        """The compiled S1 hot path (the registry's decider): with
        telemetry off, the compile + search pipeline constructs zero
        spans and appends zero flight-recorder events."""
        client, server = contracts
        compile_contract(client)  # warm tables
        compile_contract(server)
        spans_before = Span.constructed
        events_before = Event.appended
        for _ in range(5):
            result = compiled_search(compile_contract(client),
                                     compile_contract(server),
                                     DEFAULT_STATE_LIMIT)
        assert result.empty
        assert Span.constructed == spans_before
        assert Event.appended == events_before

    def test_active_is_none_when_disabled(self):
        assert runtime.active() is None


class TestDisabledCommands:
    """Whole commands, in-process, with telemetry off: not one span or
    event.  The benchmark workloads run the CLI and the registry with
    telemetry off, so this keeps every instrumented call site's enabled
    branch off their measured path."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "resilient_booking.sus", "--seed", "7", "--trials", "8"],
        ["analyze", "hotel_booking.sus"],
        ["simulate", "hotel_booking.sus", "--seed", "1"],
        ["registry", "hotel_booking.sus", "--query-compliant", "lc1"],
        ["lint", "hotel_booking.sus"],
    ], ids=lambda argv: argv[0])
    def test_command_constructs_no_span_and_appends_no_event(self, argv,
                                                             capsys):
        argv = [str(EXAMPLES / arg) if arg.endswith(".sus") else arg
                for arg in argv]
        spans, events = Span.constructed, Event.appended
        assert main(argv) == 0
        capsys.readouterr()
        assert Span.constructed == spans
        assert Event.appended == events


class TestEnabled:
    def test_search_product_records_span_and_counters(self, contracts):
        client, server = contracts
        with runtime.telemetry_session() as tel:
            result = search_product(client, server)
            spans = tel.tracer.find("compliance.search_product")
            assert len(spans) == 1
            assert spans[0].attrs["explored"] == result.explored
            snapshot = tel.metrics.snapshot()
            assert (snapshot["counters"]["compliance.explored_states"]
                    == result.explored)
            assert (snapshot["counters"]["compliance.enqueued_states"]
                    == result.explored)

    def test_noncompliant_search_records_early_exit_depth(self):
        client = send("go", send("go2", receive("never")))
        server = receive("go", receive("go2"))
        with runtime.telemetry_session() as tel:
            result = search_product(Contract(client), Contract(server))
            assert not result.empty
            [span] = tel.tracer.find("compliance.search_product")
            assert span.attrs["counterexample_depth"] == \
                len(result.trace) - 1
            counters = tel.metrics.snapshot()["counters"]
            assert (counters["compliance.enqueued_states"]
                    == result.explored - 1)

    def test_check_compliance_span_nests_search(self, contracts):
        client, server = contracts
        with runtime.telemetry_session() as tel:
            check_compliance(client, server)
            check_span = tel.tracer.find("compliance.check")[0]
            assert [c.name for c in check_span.children] == [
                "compliance.search_product"]
            counters = tel.metrics.snapshot()["counters"]
            key = "compliance.checks{engine=onthefly,verdict=compliant}"
            assert counters[key] == 1


class TestSessionScoping:
    def test_sessions_are_isolated_and_restore_previous(self, contracts):
        client, server = contracts
        with runtime.telemetry_session() as outer:
            search_product(client, server)
            outer_count = len(outer.tracer)
            with runtime.telemetry_session() as inner:
                assert runtime.active() is inner
                search_product(client, server)
                assert len(inner.tracer) == 1
            assert runtime.active() is outer
            assert len(outer.tracer) == outer_count
        assert runtime.active() is None

    def test_metrics_snapshot_includes_cache_stats(self, contracts):
        client, server = contracts
        with runtime.telemetry_session():
            check_compliance(client, server)
            snapshot = runtime.metrics_snapshot()
        assert "caches" in snapshot
        assert "contracts.projection" in snapshot["caches"]
        assert "contracts.lts" in snapshot["caches"]
        for stats in snapshot["caches"].values():
            assert {"hits", "misses", "currsize"} <= set(stats)
