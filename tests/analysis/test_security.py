"""Tests for the static security model checker."""

from repro.analysis.security import check_security
from repro.core.plans import Plan
from repro.core.syntax import (Framing, Var, event, external, mu, receive,
                               request, send, seq)
from repro.network.repository import Repository
from repro.paper import figure2
from repro.policies.library import at_most, forbid, never_after


def secure(client, plan=Plan.empty(), repo=None, location="me"):
    return check_security(client, plan, repo or Repository(), location)


class TestBasics:
    def test_no_policies_is_secure(self):
        report = secure(seq(event("a"), event("b")))
        assert report.secure and bool(report)

    def test_framed_violation_detected(self):
        report = secure(Framing(forbid("boom"), event("boom")))
        assert not report.secure
        assert report.violated_policy == forbid("boom")

    def test_event_outside_framing_is_allowed(self):
        report = secure(seq(event("boom"),
                            Framing(forbid("boom"), event("ok"))))
        # History dependence: the earlier boom violates φ when it opens.
        assert not report.secure

    def test_event_after_framing_closes_is_allowed(self):
        report = secure(seq(Framing(forbid("boom"), event("ok")),
                            event("boom")))
        assert report.secure

    def test_counterexample_is_shortest(self):
        term = Framing(forbid("boom"),
                       seq(event("fine"), event("boom")))
        report = secure(term)
        assert report.counterexample is not None
        # Lφ, fine, boom — three product labels.
        assert len(report.counterexample) == 3


class TestBranching:
    def test_one_bad_branch_suffices(self):
        # The server picks internally; only one branch misbehaves, but
        # the checker quantifies over every trace.
        from repro.core.syntax import internal
        client = request("r", forbid("boom"),
                         seq(send("q"), external(("ok", seq()),
                                                 ("ko", seq()))))
        server = receive("q", internal(("ok", seq()),
                                       ("ko", event("boom"))))
        report = secure(client, Plan.single("r", "srv"),
                        Repository({"srv": server}))
        assert not report.secure

    def test_all_branches_clean_is_secure(self):
        from repro.core.syntax import internal
        client = request("r", forbid("boom"),
                         seq(send("q"), external(("ok", seq()),
                                                 ("ko", seq()))))
        server = receive("q", internal(("ok", event("fine")),
                                       ("ko", seq())))
        report = secure(client, Plan.single("r", "srv"),
                        Repository({"srv": server}))
        assert report.secure


class TestSessions:
    def test_service_events_checked_under_client_policy(self, repo):
        report = secure(figure2.client_2(),
                        figure2.plan_pi2_bad_security(), repo,
                        figure2.LOC_CLIENT_2)
        assert not report.secure
        assert report.violated_policy == figure2.policy_c2()

    def test_valid_paper_plan_is_secure(self, repo):
        report = secure(figure2.client_1(), figure2.plan_pi1(), repo,
                        figure2.LOC_CLIENT_1)
        assert report.secure

    def test_nested_session_policy_propagates(self):
        phi = forbid("boom")
        client = request("outer", phi, send("go"))
        middle = receive("go", request("inner", None, send("deep")))
        bottom = receive("deep", event("boom"))
        repo = Repository({"mid": middle, "bot": bottom})
        plan = Plan.of({"outer": "mid", "inner": "bot"})
        report = secure(client, plan, repo)
        assert not report.secure


class TestRecursion:
    def test_recursive_service_with_bounded_policy(self):
        phi = at_most("tick", 2)
        client = request("r", phi,
                         send("go", send("go", send("stop"))))
        server = mu("k", external(("go", seq(event("tick"), Var("k"))),
                                  ("stop", seq())))
        repo = Repository({"srv": server})
        report = secure(client, Plan.single("r", "srv"), repo)
        assert report.secure  # exactly 2 ticks

    def test_recursive_service_exceeding_bound(self):
        phi = at_most("tick", 1)
        client = request("r", phi,
                         send("go", send("go", send("stop"))))
        server = mu("k", external(("go", seq(event("tick"), Var("k"))),
                                  ("stop", seq())))
        repo = Repository({"srv": server})
        report = secure(client, Plan.single("r", "srv"), repo)
        assert not report.secure
