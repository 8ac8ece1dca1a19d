"""Tests for the exception hierarchy and failure-path behaviours."""

import pytest

from repro.core.errors import (OpenTermError, ParseError, PlanError,
                               PolicyDefinitionError, ReproError,
                               SecurityViolationError,
                               StateSpaceLimitError, StuckSessionError,
                               WellFormednessError)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        WellFormednessError("x"), OpenTermError("h"),
        StateSpaceLimitError(10), SecurityViolationError("p", "h", "e"),
        StuckSessionError("x"), PlanError("x"),
        ParseError("bad", 1, 2), PolicyDefinitionError("x")])
    def test_everything_is_a_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_open_term_error_is_well_formedness(self):
        assert isinstance(OpenTermError("h"), WellFormednessError)

    def test_parse_error_carries_position(self):
        error = ParseError("unexpected thing", 3, 14)
        assert (error.line, error.column) == (3, 14)
        assert "3:14" in str(error)
        assert error.message == "unexpected thing"

    def test_state_space_limit_mentions_bound(self):
        error = StateSpaceLimitError(1234, "product")
        assert "1234" in str(error)
        assert "product" in str(error)
        assert error.limit == 1234

    def test_security_violation_carries_context(self):
        error = SecurityViolationError("policy", "history", "event")
        assert error.policy == "policy"
        assert error.history == "history"
        assert error.event == "event"

    def test_open_term_error_names_the_variable(self):
        error = OpenTermError("loop")
        assert error.variable == "loop"
        assert "loop" in str(error)


class TestFailurePaths:
    def test_lts_limit_enforced_on_history_expressions(self):
        # A wide expression explored with a tiny bound.
        from repro.core.semantics import step
        from repro.core.syntax import event, seq
        from repro.contracts.lts import build_lts
        term = seq(*(event(f"e{i}") for i in range(10)))
        with pytest.raises(StateSpaceLimitError):
            build_lts(term, step, max_states=3)

    def test_security_checker_limit(self):
        from repro.analysis.security import check_security
        from repro.core.plans import Plan
        from repro.core.syntax import Framing, event, seq
        from repro.network.repository import Repository
        from repro.policies.library import forbid
        term = Framing(forbid("x"), seq(*(event(f"e{i}")
                                          for i in range(20))))
        with pytest.raises(StateSpaceLimitError):
            check_security(term, Plan.empty(), Repository(), "me",
                           max_states=2)

    def test_bpa_limit(self):
        from repro.bpa.modelcheck import check_validity_bpa
        from repro.core.syntax import Framing, event, seq
        from repro.policies.library import forbid
        term = Framing(forbid("x"), seq(*(event(f"e{i}")
                                          for i in range(20))))
        with pytest.raises(StateSpaceLimitError):
            check_validity_bpa(term, max_states=2)
