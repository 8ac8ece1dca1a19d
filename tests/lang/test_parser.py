"""Tests for the surface-syntax parser."""

import pytest

from repro.core.actions import Receive, Send
from repro.core.errors import ParseError
from repro.core.syntax import (EPSILON, ExternalChoice, Framing,
                               InternalChoice, Mu, Request, Var, event,
                               external, internal, mu, receive, request,
                               send, seq)
from repro.lang.parser import parse
from repro.policies.library import forbid

PHI = forbid("x")
ENV = {"phi": PHI}


class TestAtoms:
    def test_eps(self):
        assert parse("eps") == EPSILON

    def test_variable(self):
        assert parse("h") == Var("h")

    def test_event_without_params(self):
        assert parse("@ping") == event("ping")

    def test_event_with_params(self):
        assert parse('@sgn(1, 4.5, "two words", bare)') == \
            event("sgn", 1, 4.5, "two words", "bare")

    def test_prefixes(self):
        assert parse("!a") == send("a")
        assert parse("?a") == receive("a")
        assert parse("!a . @e") == send("a", event("e"))


class TestCompositions:
    def test_sequence(self):
        assert parse("@a ; @b ; @c") == seq(event("a"), event("b"),
                                            event("c"))

    def test_braces_group(self):
        term = parse("?a . { @e ; @f }")
        assert term == receive("a", seq(event("e"), event("f")))

    def test_external_choice(self):
        assert parse("(?a . @x + ?b)") == external(
            ("a", event("x")), ("b", EPSILON))

    def test_internal_choice(self):
        assert parse("(!a ++ !b . @y)") == internal(
            ("a", EPSILON), ("b", event("y")))

    def test_single_branch_choice_in_parens(self):
        assert parse("(!a)") == send("a")
        assert parse("(?a)") == receive("a")

    def test_mu(self):
        assert parse("mu h { ?ping . h }") == mu(
            "h", receive("ping", Var("h")))

    def test_open_with_policy(self, ):
        term = parse("open r with phi { !a }", policies=ENV)
        assert term == request("r", PHI, send("a"))

    def test_open_without_policy(self):
        term = parse("open r { !a }")
        assert term == request("r", None, send("a"))

    def test_frame(self):
        term = parse("frame phi { @e }", policies=ENV)
        assert term == Framing(PHI, event("e"))

    def test_deep_nesting(self):
        source = """
        open outer with phi {
            !go . mu h { (?more . h + ?done) }
        }
        """
        term = parse(source, policies=ENV)
        assert isinstance(term, Request)
        assert term.request == "outer"


class TestErrors:
    def test_mixed_choice_operators(self):
        with pytest.raises(ParseError, match="cannot mix"):
            parse("(?a + !b ++ ?c)")

    def test_external_with_output_prefix(self):
        with pytest.raises(ParseError, match="external"):
            parse("(!a + !b)")

    def test_internal_with_input_prefix(self):
        with pytest.raises(ParseError, match="internal"):
            parse("(?a ++ ?b)")

    def test_choice_must_start_with_prefix(self):
        with pytest.raises(ParseError, match="'!' or '?'"):
            parse("(@e + ?a)")

    @pytest.mark.parametrize("source, column, found", [
        ("(?a + @b)", 7, "@"),
        ("(?a + (b)", 7, "("),
        ("(?a + {b)", 7, "{"),
        ("(?a + )", 7, ")"),
        ("(!a ++ @b)", 8, "@"),
    ], ids=["event", "paren", "brace", "close", "internal-event"])
    def test_every_branch_starts_with_a_sigil(self, source, column, found):
        with pytest.raises(ParseError) as caught:
            parse(source)
        error = caught.value
        assert (error.line, error.column) == (1, column)
        assert error.message == (f"expected a '!' or '?' prefix, found "
                                 f"{found} ({found!r})")

    def test_unknown_policy(self):
        with pytest.raises(ParseError, match="unknown policy"):
            parse("frame ghost { eps }")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="expected EOF"):
            parse("eps eps")

    def test_missing_brace(self):
        with pytest.raises(ParseError):
            parse("mu h { ?a . h")

    def test_error_positions(self):
        try:
            parse("@a ;\n  $")
        except ParseError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")


class TestWholePaperTerms:
    def test_client(self):
        from repro.paper import figure2
        source = "open 1 with phi1 { !Req . (?CoBo . !Pay + ?NoAv) }"
        term = parse(source, policies={"phi1": figure2.policy_c1()})
        # Same behaviour as the programmatic definition (the programmatic
        # one uses seq where the parsed one uses prefixing).
        from repro.core.projection import project
        from repro.contracts.contract import Contract
        from repro.contracts.lts import bisimilar
        assert bisimilar(Contract(term.body).lts,
                         Contract(figure2.client_1().body).lts)

    def test_hotel(self):
        source = "@sgn(2) ; @p(70) ; @ta(100) ; ?IdC . (!Bok ++ !UnA ++ !Del)"
        term = parse(source)
        from repro.paper import figure2
        assert term == figure2.hotel_2()
