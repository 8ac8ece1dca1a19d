"""Tests for the module (whole-network) surface syntax."""

import pytest

from repro.core.errors import ParseError, ReproError, WellFormednessError
from repro.core.syntax import receive, request, send, seq
from repro.lang.module import Module, default_schemas, parse_module


class TestDeclarations:
    def test_empty_module(self):
        module = parse_module("")
        assert not module.policies and not module.clients
        assert not module.services

    def test_client_and_service(self):
        module = parse_module("""
            client c = open r { !go . ?done }
            service w = ?go . !done
        """)
        assert module.clients["c"] == request(
            "r", None, send("go", receive("done")))
        assert module.services["w"] == receive("go", send("done"))

    def test_multiline_bodies_run_to_next_declaration(self):
        module = parse_module("""
            service a =
                ?one ;
                !two ;
                @fired(1)
            service b = ?three
        """)
        assert set(module.services) == {"a", "b"}

    def test_comments_allowed(self):
        module = parse_module("""
            # leading comment
            service a = ?go   # trailing comment
        """)
        assert module.services["a"] == receive("go")

    def test_keyword_like_channels_do_not_cut_declarations(self):
        # 'service' as a channel name must not start a new declaration
        # (the header shape 'service NAME =' disambiguates).
        module = parse_module("service a = ?service . !client")
        assert set(module.services) == {"a"}

    def test_repository_property(self):
        module = parse_module("service w = ?go")
        assert module.repository["w"] == receive("go")

    def test_term_lookup(self):
        module = parse_module("""
            client c = open r { !a }
            service w = ?a
        """)
        assert module.term("c") == module.clients["c"]
        assert module.term("w") == module.services["w"]
        with pytest.raises(ReproError):
            module.term("ghost")


class TestPolicyDeclarations:
    def test_named_arguments(self):
        module = parse_module(
            "policy phi = hotel(bl = {1, 3}, p = 40, t = 70)")
        policy = module.policies["phi"]
        assert policy.environment() == {"bl": frozenset({1, 3}),
                                        "p": 40, "t": 70}

    def test_positional_schema_arguments(self):
        module = parse_module(
            "policy nw = never_after(archive, modify)")
        from repro.core.actions import Event
        assert module.policies["nw"].accepts(
            [Event("archive"), Event("modify")])

    def test_budget_schema(self):
        module = parse_module('policy cap = budget("cap", {}, 0)')
        assert module.policies["cap"].respects([])

    def test_policy_usable_in_later_declarations(self):
        module = parse_module("""
            policy phi = forbid(boom)
            client c = open r with phi { !go }
        """)
        assert module.clients["c"].policy == module.policies["phi"]

    def test_unknown_schema(self):
        with pytest.raises(ParseError, match="unknown policy schema"):
            parse_module("policy phi = made_up()")

    def test_instantiation_error_is_at_the_schema_name(self):
        with pytest.raises(ParseError) as caught:
            parse_module("policy p = hotel(bl = {1}, phi1 = 45, t = 100)")
        error = caught.value
        assert (error.line, error.column) == (1, 12)
        assert error.message == ("instantiation of phi: missing ['p'], "
                                 "unexpected ['phi1']")

    def test_custom_registry(self):
        from repro.policies.library import forbid_automaton
        module = parse_module("policy x = nope(boom)",
                              schemas={"nope": forbid_automaton})
        from repro.core.actions import Event
        assert module.policies["x"].accepts([Event("boom")])


class TestErrors:
    def test_missing_equals(self):
        with pytest.raises(ParseError, match="expected a declaration"):
            parse_module("client c !go")

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError, match="expected a declaration"):
            parse_module("!go . ?done")

    def test_ill_formed_terms_rejected(self):
        with pytest.raises(WellFormednessError):
            parse_module("service s = mu h { h }")

    def test_trailing_garbage_in_policy(self):
        with pytest.raises(ParseError):
            parse_module("policy phi = forbid(boom) extra tokens")


class TestEndToEnd:
    def test_paper_module_verifies(self):
        import pathlib
        path = (pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "hotel_booking.sus")
        module = parse_module(path.read_text())
        from repro.analysis.verification import verify_network
        verdict = verify_network(module.clients, module.repository)
        assert verdict.verified

    def test_budget_arguments_with_dict_weights(self):
        from repro.core.actions import Event
        module = parse_module(
            'policy cap = budget("cap", {io = 1, crypto = 5}, 6)')
        cap = module.policies["cap"]
        assert cap.respects([Event("io")] * 6)
        assert cap.accepts([Event("crypto"), Event("io"), Event("io")])


class TestProgramDeclarations:
    SOURCE = """
policy nw = never_after(archive, modify)

program client me =
    open r with nw {
        !job ;
        offer { done -> () | failed -> () }
    }

program service worker =
    fun serve(u: unit): unit =
        offer { job -> @modify(1) ; @archive(1) ; !done ; serve ()
              | quit -> () }
    in serve ()
"""

    def test_lambda_declarations_extract_effects(self):
        from repro.core.syntax import Mu, Request
        module = parse_module(self.SOURCE)
        assert isinstance(module.clients["me"], Request)
        assert isinstance(module.services["worker"], Mu)

    def test_extracted_network_verifies(self):
        from repro.analysis.verification import verify_network
        module = parse_module(self.SOURCE)
        verdict = verify_network(module.clients, module.repository)
        assert verdict.verified

    def test_program_and_plain_declarations_mix(self):
        module = parse_module(self.SOURCE + """
service plain = ?job . !done
""")
        assert set(module.services) == {"worker", "plain"}

    def test_type_errors_surface(self):
        from repro.lam.infer import TypeEffectError
        with pytest.raises(TypeEffectError):
            parse_module("program service bad = f ()")

    def test_program_needs_client_or_service(self):
        with pytest.raises(ParseError, match="expected a declaration"):
            parse_module("program policy x = ()")
