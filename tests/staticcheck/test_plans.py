"""Unit tests for the plan explainer (minimal unsatisfiable cores) and
the whole-module analysis engine."""

import itertools
from pathlib import Path

import pytest

from repro.analysis.planner import (analyze_plan, enumerate_plans,
                                    find_valid_plans)
from repro.cli import main
from repro.lang.module import parse_module
from repro.network.repository import Repository
from repro.staticcheck import analyze_module, explain_no_valid_plan

EXAMPLES = Path(__file__).parents[2] / "examples"


@pytest.fixture(scope="module")
def broken():
    source = (EXAMPLES / "broken_booking.sus").read_text()
    return parse_module(source, path="broken_booking.sus")


@pytest.fixture(scope="module")
def hotel():
    source = (EXAMPLES / "hotel_booking.sus").read_text()
    return parse_module(source, path="hotel_booking.sus")


class TestExplainNoValidPlan:
    def test_clients_with_valid_plans_need_no_explanation(self, hotel):
        for name, term in hotel.clients.items():
            assert explain_no_valid_plan(term, hotel.repository,
                                         location=name) is None

    def test_doomed_request_core(self, broken):
        explanation = explain_no_valid_plan(
            broken.clients["lc2"], broken.repository, location="lc2")
        assert explanation is not None
        (constraint,) = explanation.core
        assert constraint.kind == "compliance"
        assert constraint.request == "9"
        assert constraint.compliant == ()  # doomed: nobody complies
        assert {refusal.location for refusal in constraint.refusals} \
            == {"lbr", "ls1"}
        for refusal in constraint.refusals:
            assert refusal.witness is not None
            assert refusal.witness.replays()

    def test_security_core_with_replayable_witness(self, broken):
        explanation = explain_no_valid_plan(
            broken.clients["lc3"], broken.repository, location="lc3")
        assert explanation is not None
        kinds = sorted(constraint.kind for constraint in explanation.core)
        assert kinds == ["compliance", "security"]
        (compliance,) = [c for c in explanation.core
                         if c.kind == "compliance"]
        # Request 7 *can* be served (by ls1) — the core records the
        # conflict, not a doom.
        assert compliance.compliant == ("ls1",)
        witness = explanation.security_witness
        assert witness is not None
        assert witness.replays()
        assert any("sgn" in str(label) for label in witness.labels)

    def test_core_is_subset_minimal(self, broken):
        # lc3's two constraints are individually satisfiable (plan
        # 7[ls1] meets compliance; an lbr-binding meets security by
        # never reaching @sgn(1)'s framing... it refuses compliance) —
        # dropping either member makes the rest satisfiable, which is
        # exactly what deletion-based MUS guarantees.
        explanation = explain_no_valid_plan(
            broken.clients["lc3"], broken.repository, location="lc3")
        assert len(explanation.core) == 2

    def test_completeness_core_when_no_candidates(self, broken):
        empty = Repository({}, validate=False)
        explanation = explain_no_valid_plan(
            broken.clients["lc2"], empty, location="lc2")
        (constraint,) = explanation.core
        assert constraint.kind == "completeness"

    def test_agrees_with_the_planner(self, broken, hotel):
        for module in (broken, hotel):
            for name, term in module.clients.items():
                planner = find_valid_plans(term, module.repository,
                                           location=name)
                explanation = explain_no_valid_plan(
                    term, module.repository, location=name)
                assert planner.has_valid_plan == (explanation is None), name

    def test_render_text_mentions_every_core_member(self, broken):
        explanation = explain_no_valid_plan(
            broken.clients["lc3"], broken.repository, location="lc3")
        text = explanation.render_text()
        assert "request 7" in text
        assert "security" in text
        assert "ls1" in text

    def test_to_json_is_deterministic(self, broken):
        explanation = explain_no_valid_plan(
            broken.clients["lc2"], broken.repository, location="lc2")
        assert explanation.to_json() == explanation.to_json()
        assert explanation.to_json()["satisfiable"] is False


def meets(analysis, constraint) -> bool:
    """Does the fully walked plan *analysis* satisfy one core member?"""
    if constraint.kind == "security":
        return analysis.secure
    assert constraint.kind == "compliance"
    return all(check.compliant for check in analysis.compliance
               if check.request == constraint.request)


class TestPlansConsidered:
    """``--max-plans n`` bounds the plans the planner analyses, and the
    explanation reasons over exactly those.  In enumeration order lc1's
    valid plan 1[lbr] ∪ 3[ls3] is the 4th of 9 candidates and lc2's
    2[lbr] ∪ 3[ls4] the 5th."""

    VALID_FROM = {"lc1": (4, "1[lbr] ∪ 3[ls3]"),
                  "lc2": (5, "2[lbr] ∪ 3[ls4]")}

    @pytest.mark.parametrize("max_plans", range(1, 10))
    def test_the_core_is_unsatisfiable_over_the_plans_considered(
            self, hotel, max_plans):
        analysis = analyze_module(hotel, max_plans=max_plans)
        for report in analysis.plans:
            first, plan = self.VALID_FROM[report.client]
            if max_plans >= first:
                assert report.valid and report.plan == plan
                continue
            term = hotel.clients[report.client]
            considered = [
                analyze_plan(term, candidate, hotel.repository,
                             location=report.client)
                for candidate in itertools.islice(
                    enumerate_plans(term, hotel.repository), max_plans)]
            explanation = report.explanation
            assert explanation.plans_considered == len(considered) \
                == max_plans
            for candidate in considered:
                assert not all(meets(candidate, constraint)
                               for constraint in explanation.core)
            if any(c.kind == "security" for c in explanation.core):
                assert any(candidate.compliant and not candidate.secure
                           for candidate in considered)
                assert explanation.security_witness.replays()

    @pytest.mark.parametrize("max_plans", range(1, 10))
    def test_analyze_prints_the_valid_plan_once_considered(
            self, capsys, max_plans):
        status = main(["analyze", "--max-plans", str(max_plans),
                       str(EXAMPLES / "hotel_booking.sus")])
        out = capsys.readouterr().out
        for client, (first, plan) in self.VALID_FROM.items():
            line = f"  client {client}: valid plan {plan}"
            assert (line in out.splitlines()) == (max_plans >= first)
        assert status == (0 if max_plans >= 5 else 1)


class TestAnalyzeModule:
    def test_hotel_is_accepted(self, hotel):
        analysis = analyze_module(hotel)
        assert analysis.ok
        assert all(report.validity.valid for report in analysis.terms)
        assert all(report.valid for report in analysis.plans)
        assert analysis.to_json()["ok"] is True

    def test_broken_is_rejected_with_reports(self, broken):
        analysis = analyze_module(broken)
        assert not analysis.ok
        by_client = {report.client: report for report in analysis.plans}
        assert by_client["lc1"].valid
        assert not by_client["lc2"].valid
        assert not by_client["lc3"].valid
        assert "rejected" in analysis.render_text()

    def test_pairs_cover_every_request_location_combination(self, hotel):
        analysis = analyze_module(hotel)
        locations = set(hotel.repository.locations())
        for report in analysis.pairs:
            assert report.service in locations
