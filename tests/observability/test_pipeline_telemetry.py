"""End-to-end telemetry through the pipeline: planner metrics, simulator
session spans, monitor counters, and the diagnostics narratives."""

import pytest

from repro.analysis.diagnostics import explain_compliance, explain_plan
from repro.analysis.planner import find_valid_plans
from repro.core.actions import Event, FrameOpen
from repro.core.compliance import check_compliance
from repro.core.errors import SecurityViolationError
from repro.core.plans import Plan
from repro.core.syntax import receive, request, send, seq
from repro.network.config import Component, Configuration
from repro.network.monitor import ReferenceMonitor
from repro.network.repository import Repository
from repro.network.simulator import Simulator
from repro.observability import runtime
from repro.paper import figure2
from repro.policies.library import forbid


@pytest.fixture(autouse=True)
def fresh_session():
    with runtime.telemetry_session() as tel:
        yield tel


class TestPlanner:
    def test_metrics_filled_with_and_without_telemetry(self, repo, c1,
                                                       monkeypatch):
        monkeypatch.setattr(runtime, "_ACTIVE", None)
        cold = find_valid_plans(c1, repo, location=figure2.LOC_CLIENT_1)
        with runtime.telemetry_session():
            warm = find_valid_plans(c1, repo,
                                    location=figure2.LOC_CLIENT_1)
        assert cold.metrics == warm.metrics
        assert cold.metrics["plans_analyzed"] == 9
        assert cold.metrics["plans_valid"] == len(cold.valid_plans)
        assert cold.metrics["memo_hits"] + cold.metrics["memo_misses"] > 0

    def test_span_and_counters_recorded(self, fresh_session, repo, c1):
        result = find_valid_plans(c1, repo, location=figure2.LOC_CLIENT_1)
        tel = fresh_session
        spans = tel.tracer.find("planner.find_valid_plans")
        assert len(spans) == 1
        assert spans[0].attrs["plans_analyzed"] == 9
        counters = tel.metrics.snapshot()["counters"]
        assert (counters["planner.plans{verdict=valid}"]
                == len(result.valid_plans))
        assert (counters["planner.plans{verdict=invalid}"]
                == len(result.invalid_plans))
        memo_total = (counters.get("planner.memo{outcome=hit}", 0)
                      + counters.get("planner.memo{outcome=miss}", 0))
        assert memo_total == (result.metrics["memo_hits"]
                              + result.metrics["memo_misses"])

    def test_pruning_is_counted(self, fresh_session, repo, c2):
        result = find_valid_plans(c2, repo, location=figure2.LOC_CLIENT_2)
        counters = fresh_session.metrics.snapshot()["counters"]
        assert (counters.get("planner.plans_pruned", 0)
                == result.metrics["plans_pruned"])


class TestSimulator:
    def make(self):
        client = request("r", None, seq(send("a"), receive("b")))
        repo = Repository({"srv": seq(receive("a"), send("b"))})
        config = Configuration.of(Component.client("me", client))
        return Simulator(config, Plan.single("r", "srv"), repo, seed=0)

    def test_run_produces_session_span_tree(self, fresh_session):
        simulator = self.make()
        simulator.run()
        tel = fresh_session
        run_spans = tel.tracer.find("simulator.run")
        assert len(run_spans) == 1
        assert run_spans[0].attrs["terminated"] is True
        components = tel.tracer.find("simulator.component")
        assert len(components) == 1
        assert components[0].parent_id == run_spans[0].span_id
        sessions = tel.tracer.find("simulator.session")
        assert len(sessions) == 1
        session = sessions[0]
        assert session.attrs["request"] == "r"
        assert "left_open" not in session.attrs
        communications = [e for e in session.events
                         if e["name"] == "communication"]
        assert {e["channel"] for e in communications} == {"a", "b"}

    def test_counters_match_the_log(self, fresh_session):
        simulator = self.make()
        log = simulator.run()
        counters = fresh_session.metrics.snapshot()["counters"]
        from collections import Counter as TallyCounter
        tally = TallyCounter(log.rules())
        for rule, count in tally.items():
            assert counters[f"simulator.steps{{rule={rule}}}"] == count
        assert counters["simulator.sessions_opened"] == tally["open"]
        assert counters["simulator.sessions_closed"] == tally["close"]
        assert counters["simulator.communications"] == tally["synch"]

    def test_disabled_run_matches_enabled_run(self, repo, c1,
                                              monkeypatch):
        def run(seed):
            plans = find_valid_plans(c1, repo,
                                     location=figure2.LOC_CLIENT_1)
            analysis = plans.best()
            config = Configuration.of(
                Component.client(figure2.LOC_CLIENT_1, c1))
            simulator = Simulator(config, analysis.plan, repo, seed=seed)
            simulator.run()
            return simulator.log.rules()

        with runtime.telemetry_session():
            enabled_rules = run(7)
        monkeypatch.setattr(runtime, "_ACTIVE", None)
        assert run(7) == enabled_rules


class TestMonitor:
    def test_labels_and_aborts_are_counted(self, fresh_session):
        policy = forbid("boom")
        monitor = ReferenceMonitor()
        monitor.observe(FrameOpen(policy))
        monitor.observe(Event("alpha"))
        with pytest.raises(SecurityViolationError):
            monitor.observe(Event("boom"))
        counters = fresh_session.metrics.snapshot()["counters"]
        assert counters["monitor.labels{kind=framing_open}"] == 1
        assert counters["monitor.labels{kind=event}"] == 2
        assert counters["monitor.aborts"] == 1
        spans = fresh_session.tracer.find("monitor.session")
        assert len(spans) == 1
        span = spans[0]
        assert span.end is not None  # closed by the abort
        assert span.events[-1]["name"] == "abort"

    def test_finish_closes_the_span(self, fresh_session):
        monitor = ReferenceMonitor()
        monitor.observe(Event("ok"))
        monitor.finish()
        span = fresh_session.tracer.find("monitor.session")[0]
        assert span.end is not None
        assert span.attrs["labels_observed"] == 1


class TestDiagnostics:
    def test_explain_compliance_mentions_explored_states(self):
        result = check_compliance(send("a"), receive("a"))
        text = explain_compliance(result)
        assert "product state(s) explored" in text
        assert str(result.explored_states) in text

    def test_noncompliant_narrative_mentions_explored_states(self):
        result = check_compliance(send("a"), receive("b"))
        assert not result.compliant
        text = explain_compliance(result)
        assert "explored before the verdict" in text

    def test_explain_plan_includes_planner_effort(self, repo, c1):
        result = find_valid_plans(c1, repo, location=figure2.LOC_CLIENT_1)
        text = explain_plan(result.best(), result.metrics)
        assert "compliance explored" in text
        assert "memo hit(s)" in text

    def test_explain_plan_marks_pruned_security(self, repo, c2):
        result = find_valid_plans(c2, repo, location=figure2.LOC_CLIENT_2)
        pruned = [analysis for analysis in result.invalid_plans
                  if analysis.security.skipped]
        if not pruned:  # pruning depends on enumeration order
            pytest.skip("no plan was pruned for this client")
        text = explain_plan(pruned[0])
        assert "security check skipped" in text
