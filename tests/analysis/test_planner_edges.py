"""Edge-case coverage for the planner and the explanation pipeline."""

import pytest

from repro.analysis.diagnostics import explain_plan, explain_security
from repro.analysis.planner import (analyze_plan, enumerate_plans,
                                    find_valid_plans)
from repro.core.plans import Plan
from repro.core.syntax import (EPSILON, event, external, internal,
                               receive, request, send, seq)
from repro.network.repository import Repository
from repro.policies.library import forbid


class TestPlanEnumerationEdges:
    def test_empty_repository(self):
        client = request("r", None, send("a"))
        assert list(enumerate_plans(client, Repository())) == []

    def test_candidates_with_unknown_location_skipped(self):
        client = request("r", None, send("a"))
        repo = Repository({"w": receive("a")})
        plans = list(enumerate_plans(client, repo,
                                     candidates={"r": ["ghost", "w"]}))
        assert plans == [Plan.single("r", "w")]

    def test_client_with_no_communication_is_trivially_verified(self):
        client = seq(event("solo"))
        result = find_valid_plans(client, Repository())
        assert result.has_valid_plan
        assert result.best().plan == Plan.empty()

    def test_framed_pure_client(self):
        phi = forbid("boom")
        from repro.core.syntax import Framing
        ok = Framing(phi, event("fine"))
        bad = Framing(phi, event("boom"))
        assert find_valid_plans(ok, Repository()).has_valid_plan
        assert not find_valid_plans(bad, Repository()).has_valid_plan


class TestChoiceDependentRequests:
    def test_request_inside_one_branch_only(self):
        # The nested session is only opened on the 'deep' branch; plans
        # must still bind it, and the analysis explores both branches.
        inner = request("r2", None, seq(send("ping"),
                                        external(("pong", EPSILON))))
        client = request("r1", None, seq(
            send("q"),
            external(("shallow", EPSILON), ("deep", inner))))
        front = receive("q", internal(
            ("shallow", EPSILON), ("deep", EPSILON)))
        echo = receive("ping", send("pong"))
        repo = Repository({"front": front, "echo": echo})
        plan = Plan.of({"r1": "front", "r2": "echo"})
        analysis = analyze_plan(client, plan, repo)
        assert analysis.valid

    def test_branch_request_failure_detected(self):
        inner = request("r2", None, seq(send("ping"),
                                        external(("pong", EPSILON))))
        client = request("r1", None, seq(
            send("q"),
            external(("shallow", EPSILON), ("deep", inner))))
        front = receive("q", internal(
            ("shallow", EPSILON), ("deep", EPSILON)))
        mute = receive("ping")  # never answers pong
        repo = Repository({"front": front, "mute": mute})
        plan = Plan.of({"r1": "front", "r2": "mute"})
        analysis = analyze_plan(client, plan, repo)
        assert not analysis.valid
        assert "r2" in explain_plan(analysis)


class TestExplainEdges:
    def test_explain_secure_report_counts_states(self):
        from repro.analysis.security import check_security
        report = check_security(event("e"), Plan.empty(), Repository(),
                                "me")
        text = explain_security(report)
        assert "states checked" in text

    def test_explain_valid_and_incomplete_together(self):
        client = seq(request("a", None, send("x")),
                     request("b", None, send("y")))
        repo = Repository({"w": external(("x", EPSILON),
                                         ("y", EPSILON))})
        analysis = analyze_plan(client, Plan.single("a", "w"), repo)
        text = explain_plan(analysis)
        assert "incomplete" in text and "b" in text
