"""Request ids opened with more than one session body.

In ``request_id_reuse.sus`` a client reuses the id of the broker's
nested request.  The plan has one binding per request id, so binding 9
to the broker must also serve the broker's own ``open 9`` session, which
only a hotel can.  Every occurrence of a request id is checked against
the binding, and the explanation blames the request, not security.

In ``request_id_two_bodies.sus`` a binding of the reused id fails in the
plans that reach its second body and holds in the one plan that does
not; the planner's pruning must not carry the failure across plans.
"""

import json
import pathlib

import pytest

from repro.analysis.planner import analyze_plan, find_valid_plans
from repro.cli import load_module, main
from repro.core.plans import Plan

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
FIXTURE = str(FIXTURES / "request_id_reuse.sus")
TWO_BODIES = str(FIXTURES / "request_id_two_bodies.sus")


@pytest.fixture(scope="module")
def module():
    return load_module(FIXTURE)


class TestPlanner:
    def test_no_plan_is_valid(self, module):
        result = find_valid_plans(module.clients["lc1"], module.repository)
        assert not result.has_valid_plan

    def test_the_nested_session_is_checked_against_the_binding(self,
                                                               module):
        plan = Plan.empty().bind("9", "lbr")
        analysis = analyze_plan(module.clients["lc1"], plan,
                                module.repository)
        verdicts = [(check.request, check.location, check.compliant)
                    for check in analysis.compliance]
        assert verdicts == [("9", "lbr", True), ("9", "lbr", False)]
        assert not analysis.valid


class TestCli:
    def test_verify_rejects(self, capsys):
        assert main(["verify", FIXTURE]) == 1
        assert "NO valid plan" in capsys.readouterr().out

    def test_analyze_rejects_and_blames_the_request(self, capsys):
        assert main(["analyze", "--format", "json", FIXTURE]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        (plans,) = report["plans"]
        assert plans["valid"] is False and plans["plan"] is None
        core = plans["explanation"]["core"]
        assert [(c["kind"], c["request"]) for c in core] == [
            ("compliance", "9")]
        assert core[0]["compliant"] == []
        assert [r["location"] for r in core[0]["refusals"]] == [
            "lbr", "ls1", "ls2"]


def partition(result):
    return (frozenset(a.plan for a in result.valid_plans),
            frozenset(a.plan for a in result.invalid_plans))


class TestTwoBodies:
    def test_pruning_keeps_the_valid_plan(self):
        module = load_module(TWO_BODIES)
        client = module.clients["lc"]
        baseline = find_valid_plans(client, module.repository,
                                    location="lc", memoize=False,
                                    prune=False)
        pruned = find_valid_plans(client, module.repository, location="lc")
        assert partition(pruned) == partition(baseline)
        assert [str(a.plan) for a in pruned.valid_plans] == [
            "1[sB] ∪ 2[sX]"]

    def test_verify_accepts_with_that_plan(self, capsys):
        assert main(["verify", TWO_BODIES]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "lc: plan 1[sB] ∪ 2[sX] is VALID")
