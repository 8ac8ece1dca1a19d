"""Tests for plan enumeration and the static plan analysis."""

import pytest

from repro.analysis.planner import (analyze_plan, enumerate_plans,
                                    find_valid_plans, unfailing_in_product)
from repro.analysis.verification import verify_client, verify_network
from repro.core.plans import Plan
from repro.core.syntax import (EPSILON, external, receive, request, send,
                               seq)
from repro.network.repository import Repository
from repro.paper import figure2


class TestEnumeration:
    def test_no_requests_yields_empty_plan(self):
        plans = list(enumerate_plans(send("a"), Repository()))
        assert plans == [Plan.empty()]

    def test_one_request_yields_one_plan_per_location(self):
        client = request("r", None, send("a"))
        repo = Repository({"x": receive("a"), "y": receive("a")})
        plans = list(enumerate_plans(client, repo))
        assert {plan["r"] for plan in plans} == {"x", "y"}

    def test_transitive_requests_resolved(self):
        client = request("outer", None, send("go"))
        middle = receive("go", request("inner", None, send("deep")))
        bottom = receive("deep")
        repo = Repository({"mid": middle, "bot": bottom})
        plans = list(enumerate_plans(client, repo))
        # outer ∈ {mid, bot}; when outer→mid, inner ∈ {mid, bot} too.
        with_inner = [p for p in plans if "inner" in p]
        assert all(p["outer"] == "mid" for p in with_inner)
        assert len(with_inner) == 2
        assert len([p for p in plans if p["outer"] == "bot"]) == 1

    def test_candidates_restrict_locations(self):
        client = request("r", None, send("a"))
        repo = Repository({"x": receive("a"), "y": receive("a")})
        plans = list(enumerate_plans(client, repo,
                                     candidates={"r": ["y"]}))
        assert [plan["r"] for plan in plans] == ["y"]

    def test_mutually_requesting_services_terminate(self):
        # a requests b; b requests a (same request id is bound once).
        a = receive("start", request("rb", None, send("ping")))
        b = receive("ping", request("ra", None, send("start")))
        client = request("ra", None, send("start"))
        repo = Repository({"a": a, "b": b})
        plans = list(enumerate_plans(client, repo))
        assert plans  # terminates and produces something

    def test_paper_plan_count(self, repo, c1):
        # Request 1 has 5 candidate locations; only the broker introduces
        # request 3 (5 more): 4 + 5 plans.
        plans = list(enumerate_plans(c1, repo))
        assert len(plans) == 9


class TestAnalysis:
    def test_paper_pi1_valid(self, repo, c1):
        analysis = analyze_plan(c1, figure2.plan_pi1(), repo,
                                figure2.LOC_CLIENT_1)
        assert analysis.valid
        assert analysis.compliant and analysis.secure
        assert "VALID" in analysis.explain()

    def test_incomplete_plan_reports_unserved(self, repo, c1):
        analysis = analyze_plan(c1, Plan.single("1", figure2.LOC_BROKER),
                                repo)
        assert not analysis.valid
        assert analysis.unserved_requests == ("3",)
        assert "unserved" in analysis.explain()

    def test_noncompliant_plan_explains_pair(self, repo, c2):
        analysis = analyze_plan(c2, figure2.plan_pi2_bad_compliance(),
                                repo)
        assert not analysis.compliant
        failing = [c for c in analysis.compliance if not c.compliant]
        assert [(c.request, c.location) for c in failing] == [("3", "ls2")]

    def test_insecure_plan_explains_policy(self, repo, c2):
        analysis = analyze_plan(c2, figure2.plan_pi2_bad_security(), repo,
                                figure2.LOC_CLIENT_2)
        assert analysis.compliant and not analysis.secure
        assert analysis.security.violated_policy == figure2.policy_c2()

    def test_unknown_location_counts_as_unserved(self, repo, c1):
        plan = Plan.of({"1": "nowhere", "3": "ls3"})
        analysis = analyze_plan(c1, plan, repo)
        assert "1" in analysis.unserved_requests


class TestFindValidPlans:
    def test_paper_client1(self, repo, c1):
        result = find_valid_plans(c1, repo, location=figure2.LOC_CLIENT_1)
        assert result.has_valid_plan
        assert [str(a.plan) for a in result.valid_plans] == \
            ["1[lbr] ∪ 3[ls3]"]
        assert result.best() is result.valid_plans[0]

    def test_paper_client2(self, repo, c2):
        result = find_valid_plans(c2, repo, location=figure2.LOC_CLIENT_2)
        assert [str(a.plan) for a in result.valid_plans] == \
            ["2[lbr] ∪ 3[ls4]"]

    def test_max_plans_bounds_work(self, repo, c1):
        result = find_valid_plans(c1, repo, max_plans=2)
        assert (len(result.valid_plans) + len(result.invalid_plans)) == 2

    def test_no_valid_plan_result(self):
        client = request("r", None, seq(send("a"), receive("never")))
        repo = Repository({"srv": receive("a")})
        result = find_valid_plans(client, repo)
        assert not result.has_valid_plan
        assert result.best() is None

    def test_memoisation_and_pruning_are_not_options(self, repo, c1):
        """The shared compliance cache and the pruning always run; the
        unmemoised pass is the test oracle ``tests/oracles/planner.py``."""
        calls = (
            lambda: find_valid_plans(c1, repo, memoize=False),
            lambda: find_valid_plans(c1, repo, prune=False),
            lambda: verify_client(c1, repo, memoize=False),
            lambda: verify_network({"c1": c1}, repo, memoize=False),
        )
        for call in calls:
            with pytest.raises(TypeError, match="memoize|prune"):
                call()


class TestWholeProductProgress:
    def test_agrees_with_compliance_on_paper_plans(self, repo, c1, c2):
        cases = [
            (c1, figure2.plan_pi1(), True),
            (c2, figure2.plan_pi2_bad_compliance(), False),
            (c2, figure2.plan_pi2_valid(), True),
        ]
        for client, plan, expected in cases:
            assert unfailing_in_product(client, plan, repo) is expected
