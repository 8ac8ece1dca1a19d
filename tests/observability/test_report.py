"""The merged observability report (:mod:`repro.observability.report`).

Layer classification, self-time attribution, causal-chain extraction,
and the determinism contract: without ``wall`` the JSON rendering must
be byte-for-byte stable and carry no wall-clock seconds.
"""

import json

from repro.core.syntax import external, internal, receive, send
from repro.contracts.contract import Contract
from repro.contracts.product import search_product
from repro.observability import runtime
from repro.observability.report import (REPORT_SCHEMA, LayerStats,
                                        build_report, causal_chains,
                                        layer_of)
from repro.observability.runtime import Telemetry


class TestLayerOf:
    def test_prefix_classification(self):
        assert layer_of("parse.load_module") == "parse"
        assert layer_of("compile.contract") == "compile"
        assert layer_of("compliance.search_product") == "search"
        assert layer_of("planner.find_valid_plans") == "search"
        assert layer_of("staticcheck.analyze_module") == "search"
        assert layer_of("simulator.run") == "monitor"
        assert layer_of("supervisor.recovery") == "recover"

    def test_unknown_names_go_to_other(self):
        assert layer_of("benchmark.warmup") == "other"
        assert layer_of("parse") == "other"  # no dot — not the prefix


class TestBuildReport:
    def _scope_with_story(self) -> Telemetry:
        tel = Telemetry()
        with tel.tracer.span("compile.contract"):
            tel.emit("compile.contract", states=3)
        with tel.tracer.span("supervisor.run"):
            with tel.events.session("trial-0"):
                fault = tel.emit("fault.injected", kind="crash",
                                 location="lbr1", tick=0)
                abort = tel.emit("session.abort", component=0,
                                 cause=fault.seq)
                replan = tel.emit("recovery.replan", component=0,
                                  cause=abort.seq)
                tel.emit("run.verdict", status="completed",
                         cause=replan.seq)
        tel.metrics.counter("chaos.trials", status="completed").inc()
        return tel

    def test_layers_count_spans_and_events(self):
        report = build_report(self._scope_with_story())
        assert report.layers["compile"].spans == 1
        assert report.layers["compile"].events == 1
        assert report.layers["recover"].spans == 1
        assert report.layers["recover"].events == 4
        assert report.layers["parse"].spans == 0

    def test_chains_walk_back_from_each_verdict(self):
        report = build_report(self._scope_with_story())
        assert len(report.chains) == 1
        kinds = [link["kind"] for link in report.chains[0]]
        assert kinds == ["fault.injected", "session.abort",
                         "recovery.replan", "run.verdict"]
        assert all(link["session"] == "trial-0"
                   for link in report.chains[0])

    def test_json_is_deterministic_and_wall_free_by_default(self):
        tel = self._scope_with_story()
        report = build_report(tel, module="m.sus")
        payload = report.to_json()
        assert payload == build_report(tel, module="m.sus").to_json()
        data = json.loads(payload)
        assert data["schema"] == REPORT_SCHEMA
        assert "self_seconds" not in data["layers"]["recover"]
        assert "histograms" not in data["metrics"]

    def test_wall_opt_in_adds_timings(self):
        tel = self._scope_with_story()
        data = json.loads(build_report(tel, wall=True).to_json())
        assert "self_seconds" in data["layers"]["compile"]
        # One exact duration summary per span name.
        assert data["metrics"]["histograms"] == json.loads(
            json.dumps(tel.tracer.timings()))
        assert set(data["metrics"]["histograms"]) == {"compile.contract",
                                                      "supervisor.run"}
        assert data["metrics"]["gauges"] == {}

    def test_self_time_partitions_nested_spans(self):
        tel = Telemetry()
        with tel.tracer.span("supervisor.run") as outer:
            with tel.tracer.span("compliance.search_product"):
                pass
        report = build_report(tel, wall=True)
        total = sum(stats.self_seconds
                    for stats in report.layers.values())
        assert abs(total - outer.duration) < 1e-6

    def test_chaos_dict_is_embedded_verbatim(self):
        chaos = {"trials": 3, "seed": 7, "outcomes": {"completed": 3},
                 "invariant_holds": True}
        report = build_report(Telemetry(), chaos=chaos)
        assert json.loads(report.to_json())["chaos"] == chaos
        assert "invariant HOLDS" in report.render_text()

    def test_render_text_shows_chain_links(self):
        text = build_report(self._scope_with_story()).render_text()
        assert "causal chains (1):" in text
        assert "session trial-0:" in text
        assert "<- #2" in text  # the abort points at the fault

    def test_empty_scope_renders(self):
        report = build_report(Telemetry(), module="empty.sus")
        assert report.chains == []
        assert "0 event(s)" in report.render_text()
        assert json.loads(report.to_json())["trace"]["spans"] == 0


class TestRealPipeline:
    def test_search_events_attribute_to_the_search_layer(self):
        client = Contract(internal(("a", receive("x"))))
        server = Contract(external(("a", send("x"))))
        with runtime.telemetry_session() as tel:
            search_product(client, server)
            report = build_report(tel)
        assert report.layers["search"].spans == 1
        assert report.layers["search"].events == 1
        assert report.event_counters == {"search.product": 1}


class TestCausalChainsHelper:
    def test_one_chain_per_verdict(self):
        tel = Telemetry()
        first = tel.events.emit("run.verdict", status="completed")
        tel.events.emit("run.verdict", status="aborted",
                        cause=first.seq)
        chains = causal_chains(tel.events)
        assert [len(chain) for chain in chains] == [1, 2]


class TestLayerStats:
    def test_to_dict_gates_wall(self):
        stats = LayerStats(spans=2, events=3, self_seconds=0.5)
        assert stats.to_dict(False) == {"spans": 2, "events": 3}
        assert stats.to_dict(True)["self_seconds"] == 0.5
