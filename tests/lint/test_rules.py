"""Unit tests for the individual SUS0xx lint rules."""

from pathlib import Path

import pytest

from repro.core.syntax import ClosePending, FrameClosePending
from repro.lang.module import Module, parse_module
from repro.lang.parser import parse
from repro.lint import Severity, lint_module
from repro.lint.rules_policies import (guard_truth, reachable_states,
                                       viable_edges)
from repro.policies import library
from repro.policies.builder import AutomatonBuilder
from repro.policies.guards import TRUE, member, not_member

FIXTURES = Path(__file__).parent / "fixtures"


def lint_source(source: str, **kwargs):
    return lint_module(parse_module(source), **kwargs)


def lint_file(path: Path, **kwargs):
    return lint_module(parse_module(path.read_text(), path=str(path)),
                       **kwargs)


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestFixtures:
    """Every known-bad fixture trips its dedicated rule code."""

    EXPECTED = {
        "unused_policy.sus": "SUS001",
        "duplicate_decl.sus": "SUS002",
        "unservable_service.sus": "SUS003",
        "vacuous_policy.sus": "SUS011",
        "dead_branch.sus": "SUS020",
        "doomed_request.sus": "SUS030",
        "duplicate_contract.sus": "SUS050",
        "non_minimal_contract.sus": "SUS051",
    }

    #: Codes diagnosing the same root defect from another layer (the
    #: SUS04x certification rules re-derive a doomed request with a
    #: stuck witness and an unsat core) — allowed alongside the
    #: dedicated code.
    COMPANIONS = {
        "doomed_request.sus": {"SUS041", "SUS042"},
    }

    @pytest.mark.parametrize("fixture,code", sorted(EXPECTED.items()))
    def test_fixture_trips_its_rule(self, fixture, code):
        assert code in codes(lint_file(FIXTURES / fixture))

    def test_fixtures_trip_nothing_unexpected(self):
        # Beyond its dedicated code (and declared companions) a fixture
        # may at most add an INFO (e.g. an incidentally unservable
        # service) — never another warning or error.
        for fixture, code in self.EXPECTED.items():
            allowed = {code} | self.COMPANIONS.get(fixture, set())
            extra = [d for d in lint_file(FIXTURES / fixture)
                     if d.code not in allowed
                     and d.severity > Severity.INFO]
            assert not extra, (fixture, extra)


class TestLangRules:
    def test_unused_policy_fires_with_span(self):
        diagnostics = lint_file(FIXTURES / "unused_policy.sus",
                                select=["SUS001"])
        (diagnostic,) = diagnostics
        assert diagnostic.declaration == "ghost"
        assert diagnostic.span.line == 2       # the `ghost` token
        assert diagnostic.span.column == 8
        assert diagnostic.severity is Severity.WARNING

    def test_attached_policy_is_used(self):
        source = """
        policy phi = blacklist(sgn, bl = {1})
        client c = open 1 with phi { !Ping }
        service s = ?Ping
        """
        assert "SUS001" not in codes(lint_source(source))

    def test_duplicate_reports_the_later_declaration(self):
        diagnostics = lint_file(FIXTURES / "duplicate_decl.sus",
                                select=["SUS002"])
        (diagnostic,) = diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.span.line == 3       # the *second* `client c`
        assert "first declared at 2:8" in diagnostic.message

    def test_policies_and_terms_are_separate_namespaces(self):
        source = """
        policy same = blacklist(sgn, bl = {1})
        client same = open 1 with same { !Ping }
        service s = ?Ping
        """
        assert "SUS002" not in codes(lint_source(source))

    def test_unservable_service_is_info(self):
        diagnostics = lint_file(FIXTURES / "unservable_service.sus",
                                select=["SUS003"])
        (diagnostic,) = diagnostics
        assert diagnostic.severity is Severity.INFO
        assert diagnostic.declaration == "lonely"


class TestPolicyRules:
    def test_guard_truth_is_three_valued(self):
        env = {"bl": frozenset(), "nonempty": frozenset({1})}
        assert guard_truth(TRUE, env) is True
        assert guard_truth(member("x", "bl"), env) is False
        assert guard_truth(not_member("x", "bl"), env) is True
        assert guard_truth(member("x", "nonempty"), env) is None
        assert guard_truth(member("x", "unknown"), env) is None

    def test_reachable_states_respects_dead_guards(self):
        policy = library.blacklist("sgn", frozenset())
        assert reachable_states(policy) == {"q0"}
        assert len(viable_edges(policy.automaton,
                                policy.environment())) == 0
        armed = library.blacklist("sgn", {1})
        assert reachable_states(armed) == {"q0", "bad"}

    def test_unreachable_state_sus010(self):
        automaton = (AutomatonBuilder("orphan", parameters=("bl",))
                     .state("q0", initial=True)
                     .state("limbo")
                     .state("bad", offending=True)
                     .edge("q0", "limbo", "ev", binders=("x",),
                           guard=member("x", "bl"))
                     .edge("limbo", "bad", "ev")
                     .build())
        module = Module(policies={"phi": automaton.instantiate(
            bl=frozenset())})
        diagnostics = lint_module(module, select=["SUS010"])
        (diagnostic,) = diagnostics
        assert "limbo" in diagnostic.message
        # Offending states are SUS011's business, not SUS010's.
        assert "bad" not in diagnostic.message

    def test_vacuous_policy_sus011(self):
        module = Module(policies={
            "empty": library.blacklist("sgn", frozenset())})
        (diagnostic,) = lint_module(module, select=["SUS011"])
        assert diagnostic.declaration == "empty"

    def test_policy_without_offending_states_is_vacuous(self):
        automaton = (AutomatonBuilder("noop")
                     .state("q0", initial=True)
                     .build())
        module = Module(policies={"noop": automaton.instantiate()})
        (diagnostic,) = lint_module(module, select=["SUS011"])
        assert "declares no offending state" in diagnostic.message

    def test_armed_policy_is_not_vacuous(self):
        module = Module(policies={"phi": library.forbid("rm")})
        assert lint_module(module, select=["SUS011"]) == []

    def test_overlapping_edges_sus012(self):
        automaton = (AutomatonBuilder("fork")
                     .state("q0", initial=True)
                     .edge("q0", "left", "ev")
                     .edge("q0", "right", "ev")
                     .build())
        module = Module(policies={"fork": automaton.instantiate()})
        (diagnostic,) = lint_module(module, select=["SUS012"])
        assert diagnostic.severity is Severity.INFO
        assert "'left'" in diagnostic.message
        assert "'right'" in diagnostic.message

    def test_guarded_edges_do_not_overlap(self):
        # The hotel automaton branches on guards; no certain overlap.
        module = Module(policies={"phi": library.hotel_policy(
            {1}, 45, 100)})
        assert lint_module(module, select=["SUS012"]) == []


class TestContractRules:
    def test_dead_branch_sus020(self):
        diagnostics = lint_file(FIXTURES / "dead_branch.sus",
                                select=["SUS020"])
        (diagnostic,) = diagnostics
        assert "?Never" in diagnostic.message
        # The span points at the `Never` token inside the body.
        assert diagnostic.span.line == 3
        assert diagnostic.span.column == 36

    def test_service_side_extra_inputs_are_not_flagged(self):
        # The repository is open-ended: a service accepting more inputs
        # than today's clients send is idiomatic.
        source = """
        client c = open 1 { !Ping }
        service s = (?Ping + ?Unused . !Reply)
        """
        assert "SUS020" not in codes(lint_source(source))

    def test_live_branches_stay_silent(self):
        source = """
        client c = open 1 { !Req . (?Ok + ?No) }
        service s = ?Req ; (!Ok ++ !No)
        """
        assert "SUS020" not in codes(lint_source(source))


class TestCanonRules:
    def test_duplicate_contract_sus050(self):
        diagnostics = lint_file(FIXTURES / "duplicate_contract.sus",
                                select=["SUS050"])
        (diagnostic,) = diagnostics
        assert diagnostic.severity is Severity.INFO
        # The later declaration is reported; the hint names the twin.
        assert diagnostic.declaration == "twin"
        assert "'s1'" in diagnostic.message
        assert "'s1'" in diagnostic.hint

    def test_no_reuse_hint_when_projection_erases_a_request(self):
        # sA and sB both project to ?Go, but sA also opens request 2,
        # which no service serves: swapping sA in for sB would invalidate
        # the module's only valid plan, 1[sB] ∪ 2[sX].
        path = (Path(__file__).parents[1] / "analysis" / "fixtures"
                / "request_id_two_bodies.sus")
        (diagnostic,) = lint_file(path, select=["SUS050"])
        assert diagnostic.declaration == "sB"
        assert "'sA'" in diagnostic.message
        assert "reuse" not in diagnostic.hint
        assert "'sA' has request 2; 'sB' has none" in diagnostic.hint

    def test_no_reuse_hint_when_projection_erases_events_or_framings(self):
        source = """
        policy phi = hotel(bl = {1}, p = 45, t = 100)
        client c = open 1 { !Ping . ?Pong }
        service s1 = @sgn(1) ; ?Ping . !Pong
        service s2 = frame phi { ?Ping . !Pong }
        """
        (diagnostic,) = lint_source(source, select=["SUS050"])
        assert "reuse" not in diagnostic.hint
        assert "'s1' has event @sgn(1)" in diagnostic.hint
        assert "'s2' has framing phi" in diagnostic.hint

    def test_distinct_contracts_stay_silent(self):
        source = """
        client c = open 1 { !Ping }
        service s1 = ?Ping . !Pong
        service s2 = ?Ping . (!Pong ++ !Nack)
        """
        assert "SUS050" not in codes(lint_source(source))

    def test_duplicate_clients_are_not_flagged(self):
        # SUS050 is about the published repository; identical clients
        # are unremarkable.
        source = """
        client c1 = open 1 { !Ping }
        client c2 = open 2 { !Ping }
        service s = ?Ping
        """
        assert "SUS050" not in codes(lint_source(source))

    def test_non_minimal_contract_sus051(self):
        diagnostics = lint_file(FIXTURES / "non_minimal_contract.sus",
                                select=["SUS051"])
        (diagnostic,) = diagnostics
        assert diagnostic.severity is Severity.INFO
        assert diagnostic.declaration == "fat"
        assert "3 reachable state(s) collapse to 2" in diagnostic.message

    def test_minimal_contract_stays_silent(self):
        source = """
        client c = open 1 { mu k { !Ping . ?Pong . k } }
        service s = mu h { ?Ping . !Pong . h }
        """
        assert "SUS051" not in codes(lint_source(source))

    def test_canon_rules_on_hotel_example(self):
        # The Figure-2 repository publishes ls1/ls3/ls4 with identical
        # projections; the two later ones are flagged as duplicates and
        # every contract is already minimal.
        diagnostics = lint_file(
            Path(__file__).parents[2] / "examples" / "hotel_booking.sus",
            select=["SUS050", "SUS051"])
        assert [(d.code, d.declaration) for d in diagnostics] == [
            ("SUS050", "ls3"), ("SUS050", "ls4")]


class TestNetworkRules:
    def test_doomed_request_sus030(self):
        diagnostics = lint_file(FIXTURES / "doomed_request.sus",
                                select=["SUS030"])
        (diagnostic,) = diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.declaration == "c"
        assert diagnostic.span.line == 3       # the `1` after `open`
        assert diagnostic.span.column == 17

    def test_module_without_services_dooms_every_request(self):
        module = Module(clients={"c": parse("open 1 { !Ping }")})
        (diagnostic,) = lint_module(module, select=["SUS030"])
        assert "declares no services" in diagnostic.message

    def test_servable_request_is_silent(self):
        module = Module(clients={"c": parse("open 1 { !Ping }")},
                        services={"s": parse("?Ping")})
        assert lint_module(module, select=["SUS030"]) == []

    def test_unclosed_residual_sus031(self):
        module = Module(clients={"stuck": ClosePending("9", None)},
                        services={"frame": FrameClosePending(
                            library.forbid("rm"))})
        diagnostics = lint_module(module, select=["SUS031"])
        assert len(diagnostics) == 2
        assert all(d.severity is Severity.ERROR for d in diagnostics)

    def test_parsed_terms_never_contain_residuals(self):
        assert lint_file(FIXTURES / "dead_branch.sus",
                         select=["SUS031"]) == []


class TestEngine:
    def test_diagnostics_come_back_in_source_order(self):
        diagnostics = lint_file(
            Path(__file__).parents[2] / "examples" / "broken_booking.sus")
        positions = [(d.span.line, d.span.column) for d in diagnostics]
        assert positions == sorted(positions)

    def test_min_severity_keeps_only_error_rules(self):
        diagnostics = lint_file(FIXTURES / "vacuous_policy.sus",
                                min_severity=Severity.ERROR)
        assert diagnostics == []

    def test_ignore_drops_a_rule(self):
        diagnostics = lint_file(FIXTURES / "vacuous_policy.sus",
                                ignore=["SUS011"])
        assert "SUS011" not in codes(diagnostics)

    def test_unknown_code_is_an_error(self):
        from repro.core.errors import ReproError
        with pytest.raises(ReproError, match="SUS999"):
            lint_file(FIXTURES / "vacuous_policy.sus", select=["SUS999"])

    def test_fire_counts_reach_the_metrics_registry(self):
        from repro.observability.runtime import telemetry_session
        with telemetry_session() as tel:
            lint_file(FIXTURES / "vacuous_policy.sus")
            counters = tel.metrics.snapshot()["counters"]
        assert counters["lint.fired{rule=SUS011}"] == 1
        assert counters["lint.fired{rule=SUS030}"] == 0
        assert counters["lint.modules"] == 1
