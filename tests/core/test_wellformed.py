"""Tests for the well-formedness checks (closedness, guarded tail
recursion, unique requests)."""

import pytest

from repro.core.errors import WellFormednessError
from repro.core.syntax import (EPSILON, Framing, Mu, Var, event, external,
                               internal, mu, receive, request, send, seq)
from repro.core.wellformed import check_well_formed, is_well_formed
from repro.paper import figure2
from repro.policies.library import forbid

PHI = forbid("boom")


class TestClosedness:
    def test_free_variable_rejected(self):
        with pytest.raises(WellFormednessError, match="free"):
            check_well_formed(Var("h"))

    def test_free_variable_allowed_when_opted_out(self):
        # Guardedness still applies, but openness may be tolerated (used
        # when checking μ-bodies in isolation).
        check_well_formed(receive("a", Var("h")), require_closed=False)

    def test_closed_terms_pass(self):
        check_well_formed(mu("h", receive("a", Var("h"))))


class TestGuardedness:
    def test_unguarded_variable_rejected(self):
        with pytest.raises(WellFormednessError, match="unguarded"):
            check_well_formed(Mu("h", Var("h")))

    def test_event_guard_is_not_enough(self):
        # Guards must be communication actions, not events.
        with pytest.raises(WellFormednessError, match="unguarded"):
            check_well_formed(Mu("h", seq(event("e"), Var("h"))))

    def test_input_guard_accepted(self):
        check_well_formed(mu("h", receive("a", Var("h"))))

    def test_output_guard_accepted(self):
        check_well_formed(mu("h", send("a", Var("h"))))

    def test_guard_deep_in_sequence_prefix(self):
        term = mu("h", seq(receive("a"), internal(("b", Var("h")),
                                                  ("c", EPSILON))))
        check_well_formed(term)


class TestTailPosition:
    def test_variable_followed_by_work_rejected(self):
        term = Mu("h", receive("a", seq(Var("h"), event("e"))))
        with pytest.raises(WellFormednessError, match="non-tail"):
            check_well_formed(term)

    def test_variable_inside_framing_rejected(self):
        # φ[… h] puts h before the closing Mφ: not a tail position.
        term = Mu("h", receive("a", Framing(PHI, Var("h"))))
        with pytest.raises(WellFormednessError, match="non-tail"):
            check_well_formed(term)

    def test_variable_inside_request_rejected(self):
        term = Mu("h", receive("a", request("r", None, Var("h"))))
        with pytest.raises(WellFormednessError, match="non-tail"):
            check_well_formed(term)

    def test_tail_after_sequence_accepted(self):
        term = mu("h", receive("a", seq(event("e"), send("b", Var("h")))))
        check_well_formed(term)

    def test_shadowed_variable_checked_against_inner_binder(self):
        inner = Mu("h", receive("b", Var("h")))
        outer = mu("h", receive("a", seq(inner, send("c", Var("h")))))
        check_well_formed(outer)


class TestUniqueRequests:
    def test_duplicate_request_ids_rejected(self):
        term = seq(request("r", None, EPSILON),
                   request("r", None, EPSILON))
        with pytest.raises(WellFormednessError, match="not unique"):
            check_well_formed(term)

    def test_distinct_request_ids_accepted(self):
        term = seq(request("r1", None, EPSILON),
                   request("r2", None, EPSILON))
        check_well_formed(term)

    def test_nested_requests_counted(self):
        term = request("r", None, request("r", None, EPSILON))
        assert not is_well_formed(term)

    def test_request_shared_by_two_branches_is_not_unique(self):
        # Hash-consing gives both branches one `open 1 {…}` node: the
        # check visits it once, yet the term opens request 1 twice.
        shared = request("1", None, send("x"))
        term = external(("a", shared), ("b", seq(event("e"), shared)))
        assert term.branches[0][1] is term.branches[1][1].second
        with pytest.raises(WellFormednessError,
                           match="request identifier '1' is not unique"):
            check_well_formed(term)


class TestPaperTerms:
    @pytest.mark.parametrize("factory", [
        figure2.client_1, figure2.client_2, figure2.broker,
        figure2.hotel_1, figure2.hotel_2, figure2.hotel_3, figure2.hotel_4])
    def test_all_figure2_terms_are_well_formed(self, factory):
        check_well_formed(factory())


class TestBooleanWrapper:
    def test_is_well_formed(self):
        assert is_well_formed(EPSILON)
        assert not is_well_formed(Var("h"))
        assert not is_well_formed(Mu("h", Var("h")))
        assert is_well_formed(external(("a", EPSILON), ("b", event("e"))))
