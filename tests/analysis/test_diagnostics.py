"""Tests for the verdict-explanation module."""

from repro.analysis.diagnostics import (explain_compliance, explain_pair,
                                        explain_plan, explain_security)
from repro.analysis.planner import analyze_plan
from repro.analysis.security import check_security
from repro.core.compliance import check_compliance
from repro.core.plans import Plan
from repro.core.syntax import (EPSILON, external, internal, receive,
                               request, send, seq)
from repro.network.repository import Repository
from repro.paper import figure2


class TestExplainCompliance:
    def test_compliant_narrative(self):
        result = check_compliance(send("a"), receive("a"))
        assert "compliant" in explain_compliance(result)

    def test_unmatched_output_blames_the_sender(self):
        text = explain_pair(send("a"), receive("b"))
        assert "NOT compliant" in text
        assert "client output !a" in text
        assert "condition (ii)" in text

    def test_deadlock_blames_condition_i(self):
        text = explain_pair(receive("a"), receive("a"))
        assert "both participants wait" in text
        assert "condition (i)" in text

    def test_terminated_server_called_out(self):
        text = explain_pair(receive("a"), EPSILON)
        assert "server has terminated" in text

    def test_path_is_shown_for_deep_failures(self):
        client = send("go", external(("fine", EPSILON)))
        server = receive("go", internal(("fine", EPSILON),
                                        ("boom", EPSILON)))
        text = explain_pair(client, server)
        assert "path to the stuck configuration" in text
        assert "server output !boom" in text

    def test_paper_del_example(self, repo):
        from repro.analysis.requests import extract_requests
        (broker_request,) = extract_requests(figure2.broker())
        text = explain_pair(broker_request.body, repo["ls2"])
        assert "!Del" in text  # the message the paper blames


class TestExplainSecurity:
    def test_secure_narrative(self):
        report = check_security(seq(), Plan.empty(), Repository(), "me")
        assert "secure" in explain_security(report)

    def test_violation_shows_policy_and_history(self, repo, c2):
        report = check_security(c2, figure2.plan_pi2_bad_security(), repo,
                                figure2.LOC_CLIENT_2)
        text = explain_security(report)
        assert "INSECURE" in text
        assert str(figure2.policy_c2()) in text
        assert "@sgn(3)" in text  # the event that trips the black list


class TestExplainPlan:
    def test_valid_plan_mentions_the_monitor(self, repo, c1):
        analysis = analyze_plan(c1, figure2.plan_pi1(), repo,
                                figure2.LOC_CLIENT_1)
        text = explain_plan(analysis)
        assert "VALID" in text and "monitor" in text

    def test_incomplete_plan(self, repo, c1):
        analysis = analyze_plan(c1, Plan.single("1", figure2.LOC_BROKER),
                                repo)
        assert "incomplete" in explain_plan(analysis)

    def test_invalid_plan_aggregates_reasons(self, repo, c2):
        analysis = analyze_plan(c2, figure2.plan_pi2_bad_compliance(),
                                repo, figure2.LOC_CLIENT_2)
        text = explain_plan(analysis)
        assert "request 3 -> ls2" in text
        assert "NOT compliant" in text
