"""Unit tests for the may/must label analysis."""

from repro.core.actions import Send, SessionClose, SessionOpen
from repro.core.syntax import (EPSILON, Request, Var, event, internal, mu,
                               receive, seq, send)
from repro.staticcheck.labels import (analyse_labels, may_diverge,
                                      syntactic_alphabet)


LOOP = mu("h", internal(("a", Var("h")), ("b", EPSILON)))


class TestMayMust:
    def test_must_is_below_may(self, c1, c2, broker_term, repo):
        terms = [c1, c2, broker_term, LOOP,
                 *(repo[loc] for loc in repo.locations())]
        for term in terms:
            analysis = analyse_labels(term)
            assert analysis.must <= analysis.may <= analysis.universe, term

    def test_internal_choice_intersects_must(self):
        term = internal(("a", event("log")), ("b", event("log")))
        analysis = analyse_labels(term)
        assert Send("a") in analysis.may and Send("b") in analysis.may
        # Neither branch label is guaranteed, but the shared event is.
        assert Send("a") not in analysis.must
        assert event("log").event in analysis.must

    def test_sequence_joins_may(self):
        term = seq(event("read"), event("write"))
        analysis = analyse_labels(term)
        assert {event("read").event, event("write").event} <= analysis.may
        assert analysis.must == analysis.may  # no branching: every run

    def test_request_opens_and_closes(self):
        term = Request("7", None, send("a"))
        analysis = analyse_labels(term)
        assert SessionOpen("7", None) in analysis.must
        assert SessionClose("7", None) in analysis.must

    def test_diverging_request_may_never_close(self):
        term = Request("7", None, LOOP)
        analysis = analyse_labels(term)
        assert SessionClose("7", None) in analysis.may
        assert SessionClose("7", None) not in analysis.must

    def test_recursion_reaches_a_fixpoint(self):
        analysis = analyse_labels(LOOP)
        assert analysis.may == frozenset({Send("a"), Send("b")})
        # The must set stays an under-approximation: the loop may exit
        # immediately through !b, so only !b... no — the first iteration
        # already offers both branches; the intersection is empty.
        assert analysis.must == frozenset()
        assert analysis.diverging

    def test_covers_refutes_impossible_labels(self):
        analysis = analyse_labels(seq(send("a"), receive("b")))
        assert analysis.covers(Send("a"))
        assert not analysis.covers(Send("zzz"))


class TestAlphabetAndDivergence:
    def test_alphabet_is_syntactic_superset(self, c1):
        assert analyse_labels(c1).may <= syntactic_alphabet(c1)

    def test_may_diverge_is_syntactic(self):
        assert may_diverge(LOOP)
        assert not may_diverge(mu("h", send("a")))  # h unused: no loop
        assert not may_diverge(seq(send("a"), send("b")))
        assert may_diverge(Request("1", None, LOOP))
