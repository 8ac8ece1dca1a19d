"""Tests for the projection on communication actions (Section 4)."""

import gc
import weakref

from hypothesis import given, settings

import repro.core.projection as projection
from benchmarks.workloads import wide_client
from repro.core.projection import project
from repro.core.syntax import (EPSILON, ExternalChoice, Framing,
                               InternalChoice, Mu, Var, event, external,
                               internal, is_closed, mu, receive, request,
                               send, seq)
from repro.paper import figure2
from repro.policies.library import forbid

from tests.oracles.projection import project as oracle_project
from tests.strategies import contracts, history_expressions

PHI = forbid("boom")


class TestErasure:
    def test_epsilon_projects_to_epsilon(self):
        assert project(EPSILON) == EPSILON

    def test_events_erase(self):
        assert project(event("sgn", 1)) == EPSILON

    def test_event_sequences_erase(self):
        assert project(seq(event("a"), event("b"))) == EPSILON

    def test_whole_requests_erase(self):
        term = request("r", PHI, seq(send("a"), receive("b")))
        assert project(term) == EPSILON

    def test_framing_projects_to_body(self):
        term = Framing(PHI, send("a"))
        assert project(term) == send("a")

    def test_nested_framing_and_events(self):
        term = Framing(PHI, seq(event("e"), receive("a"), event("f")))
        assert project(term) == receive("a")


class TestHomomorphism:
    def test_seq_distributes(self):
        term = seq(event("e"), send("a"), event("f"), receive("b"))
        assert project(term) == seq(send("a"), receive("b"))

    def test_external_choice_projects_branchwise(self):
        term = external(("a", event("e")), ("b", send("x")))
        expected = external(("a", EPSILON), ("b", send("x")))
        assert project(term) == expected

    def test_internal_choice_projects_branchwise(self):
        term = internal(("a", request("r", None, send("z"))),
                        ("b", EPSILON))
        expected = internal(("a", EPSILON), ("b", EPSILON))
        assert project(term) == expected

    def test_mu_projects_body(self):
        term = mu("h", receive("a", seq(event("e"), Var("h"))))
        assert project(term) == mu("h", receive("a", Var("h")))

    def test_var_projects_to_itself(self):
        assert project(Var("h")) == Var("h")


class TestDegenerateRecursion:
    def test_mu_without_var_after_projection_drops_binder(self):
        # μh.(a.ε) never reuses h — the binder is useless after projection.
        term = Mu("h", receive("a", EPSILON))
        assert project(term) == receive("a", EPSILON)

    def test_trivial_loop_simplifies_to_epsilon(self):
        # μh.(α·h) projects to μh.h, which denotes no communication.
        term = Mu("h", seq(event("e"), Var("h")))
        assert project(term) == EPSILON


class TestClosednessPreservation:
    def test_projection_preserves_closedness(self):
        term = figure2.client_1()
        assert is_closed(term)
        assert is_closed(project(term))


class TestPaperContracts:
    def test_client_projects_to_its_protocol(self):
        from repro.lang.pretty import pretty
        body = figure2.client_1().body
        # !Req ; (?CoBo . !Pay + ?NoAv) — events and framings are gone.
        assert pretty(project(body)) == "!Req ; (?CoBo . !Pay + ?NoAv)"

    def test_whole_client_projects_to_epsilon(self):
        # The client is a single request, so its own contract is empty.
        assert project(figure2.client_1()) == EPSILON

    def test_hotel_projects_to_id_then_answers(self):
        projected = project(figure2.hotel_3())
        assert isinstance(projected, ExternalChoice)
        ((label, continuation),) = projected.branches
        assert label.channel == "IdC"
        assert isinstance(continuation, InternalChoice)
        assert {l.channel for l, _ in continuation.branches} == \
            {"Bok", "UnA"}

    def test_broker_contract_keeps_outer_communications_only(self):
        from repro.lang.pretty import pretty
        # ?Req ; (!CoBo . ?Pay ++ !NoAv): the inner session r3 is erased.
        assert pretty(project(figure2.broker())) == \
            "?Req ; (!CoBo . ?Pay ++ !NoAv)"


# -- the projection follows the term's DAG -----------------------------------

def _dag_edges(term):
    """Child references of the distinct nodes of *term*."""
    seen, stack, edges = set(), [term], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        edges += len(node.children())
        stack.extend(node.children())
    return edges


def _tree_size(term):
    return sum(1 for _ in term.walk())


class TestProjectionFollowsTheDag:
    def test_calls_are_bounded_by_the_dag_not_the_tree(self, monkeypatch):
        term = seq(event("log"), Framing(PHI, wide_client(3, 3)))
        original = projection.project
        calls = []

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(projection, "project", counting)
        result = projection.project(term)
        monkeypatch.undo()
        assert result is oracle_project(term)
        assert len(calls) <= _dag_edges(term) + 1
        assert _dag_edges(term) + 1 < _tree_size(term) // 10

    def test_no_memo_outlives_its_call(self):
        term = seq(event("gone"), send("gone_a"),
                   Framing(PHI, receive("gone_b")))
        assert project(term) is seq(send("gone_a"), receive("gone_b"))
        probe = weakref.ref(term)
        del term
        gc.collect()
        assert probe() is None

    @settings(max_examples=150, deadline=None)
    @given(term=history_expressions())
    def test_matches_the_recursive_oracle(self, term):
        assert project(term) is oracle_project(term)

    @settings(max_examples=100, deadline=None)
    @given(term=contracts())
    def test_matches_the_recursive_oracle_on_contracts(self, term):
        assert project(term) is oracle_project(term)
