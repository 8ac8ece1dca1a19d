"""Stored transitions: ``step`` computes a node's moves once.

A term's transitions depend on the term alone, and terms are
hash-consed, so :func:`step` stores the tuple it computes on the node
and returns that very tuple on every later call.  The stored moves are
checked here against the recursive generator they replace, kept below
as the oracle.
"""

import gc
from typing import get_args

import pytest
from hypothesis import given, settings

from repro.contracts.lts import build_lts
from repro.core.actions import (FrameClose, FrameOpen, Receive, Send,
                                SessionClose, SessionOpen)
from repro.core.errors import OpenTermError, WellFormednessError
from repro.core.semantics import (can_step, enabled_labels, step,
                                  successors)
from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               InternalChoice, Mu, Node, Request, Seq, Var,
                               event, receive, send, seq, unfold)
from repro.lang.parser import parse
from repro.policies.library import forbid

from tests.strategies import contracts, history_expressions

NODE_CLASSES = get_args(Node)

PHI = forbid("write")

MAX_UNFOLDINGS = 64


def oracle_step(term, depth=0):
    """The recursive ``step`` as first written: a generator that
    re-derives every move on every call."""
    if isinstance(term, Epsilon):
        return
    if isinstance(term, Var):
        raise OpenTermError(term.name)
    if isinstance(term, EventNode):
        yield term.event, Epsilon()
        return
    if isinstance(term, (InternalChoice, ExternalChoice)):
        for label, continuation in term.branches:
            yield label, continuation
        return
    if isinstance(term, Request):
        yield (SessionOpen(term.request, term.policy),
               seq(term.body, ClosePending(term.request, term.policy)))
        return
    if isinstance(term, ClosePending):
        yield SessionClose(term.request, term.policy), Epsilon()
        return
    if isinstance(term, Framing):
        yield (FrameOpen(term.policy),
               seq(term.body, FrameClosePending(term.policy)))
        return
    if isinstance(term, FrameClosePending):
        yield FrameClose(term.policy), Epsilon()
        return
    if isinstance(term, Seq):
        for label, rest in oracle_step(term.first, depth):
            yield label, seq(rest, term.second)
        return
    if isinstance(term, Mu):
        if depth >= MAX_UNFOLDINGS:
            raise WellFormednessError("unguarded")
        yield from oracle_step(unfold(term), depth + 1)
        return
    raise TypeError(term)


def _check_against_oracle(term):
    """*term* and every state reachable from it step as the oracle
    does, in the same order, and a second call returns the stored
    tuple."""
    lts = build_lts(term, step)
    for state, moves in lts.transitions.items():
        assert list(moves) == list(oracle_step(state))
        assert step(state) is moves
        assert state._moves is moves


# -- the stored moves are the oracle's ------------------------------------

class TestAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(term=history_expressions())
    def test_history_expressions(self, term):
        _check_against_oracle(term)

    @settings(max_examples=150, deadline=None)
    @given(term=contracts())
    def test_contracts(self, term):
        _check_against_oracle(term)

    def test_hand_built_sequences_that_are_not_normal(self):
        a, b, c = send("a"), receive("b"), event("c")
        for term in (Seq(EPSILON, EPSILON), Seq(a, EPSILON), Seq(EPSILON, a),
                     Seq(Seq(a, b), c), Seq(a, Seq(b, EPSILON)),
                     Seq(Seq(Seq(a, b), c), Seq(Seq(b, c), a))):
            assert not term._normal
            _check_against_oracle(term)

    def test_recursive_terms(self):
        loop = Mu("h", InternalChoice(((Send("a"), Var("h")),
                                       (Send("b"), EPSILON))))
        nested = Mu("h", receive("x", Mu("k", InternalChoice((
            (Send("y"), Var("k")), (Send("z"), Var("h")))))))
        binders = Mu("h", Mu("k", InternalChoice((
            (Send("a"), Var("k")), (Send("b"), Var("h"))))))
        framed = Mu("h", receive("go", seq(Framing(PHI, event("e")),
                                           Var("h"))))
        for term in (loop, nested, binders, framed,
                     seq(loop, event("after")),
                     Request("1", PHI, seq(nested, send("done")))):
            _check_against_oracle(term)

    def test_derived_observations_read_the_stored_moves(self):
        term = seq(Request("2", None, send("a")), receive("b"))
        moves = step(term)
        assert successors(term) is moves
        assert can_step(term) and not can_step(EPSILON)
        assert enabled_labels(term) == {SessionOpen("2", None)}


# -- filled lazily, once --------------------------------------------------

class TestLazyFill:
    def test_a_fresh_node_has_no_stored_moves(self):
        term = seq(send("lazy_a"), receive("lazy_b"))
        assert term._moves is None
        assert term.second._moves is None

    def test_the_parser_builds_unguarded_recursion_without_stepping(self):
        term = parse("mu h { mu k { h } }")
        assert isinstance(term, Mu) and term._moves is None

    def test_a_second_step_returns_the_same_tuple(self):
        term = seq(event("twice"), send("a"))
        first = step(term)
        assert step(term) is first
        assert term._moves is first

    def test_choices_store_their_branches(self):
        term = ExternalChoice(((Receive("a"), EPSILON),
                               (Receive("b"), send("c"))))
        assert step(term) is term.branches

    def test_stepping_fills_only_what_it_visits(self):
        tail = receive("visit_tail")
        term = seq(send("visit_head"), tail)
        step(term)
        assert term.first._moves is not None
        assert tail._moves is None


# -- failures are never stored ---------------------------------------------

class TestFailuresAreNotStored:
    def test_open_variable_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(OpenTermError):
                step(Var("h"))
        assert Var("h")._moves is None

    def test_open_term_under_seq_raises_every_time(self):
        term = seq(Var("open_k"), event("a"))
        for _ in range(2):
            with pytest.raises(OpenTermError):
                step(term)
        assert term._moves is None

    def test_unguarded_recursion_raises_every_time(self):
        term = Mu("h", Mu("k", Var("h")))
        for _ in range(2):
            with pytest.raises(WellFormednessError):
                step(term)
        assert term._moves is None
        assert unfold(term)._moves is None

    def test_the_unfolding_bound_counts_across_nested_calls(self):
        def nest(count):
            term = send("nested_a", Var("h0"))
            for index in range(count - 1, -1, -1):
                term = Mu(f"h{index}", term)
            return term

        assert step(nest(MAX_UNFOLDINGS))
        with pytest.raises(WellFormednessError):
            step(nest(MAX_UNFOLDINGS + 1))
        with pytest.raises(WellFormednessError):
            list(oracle_step(nest(MAX_UNFOLDINGS + 1)))


# -- lifetime ----------------------------------------------------------------

def _table_sizes():
    return {cls: len(cls._table) for cls in NODE_CLASSES}


class TestLifetime:
    def test_stored_moves_can_lead_back_to_their_node(self):
        loop = Mu("h", send("cycle", Var("h")))
        ((_, successor),) = step(loop)
        assert successor is loop

    def test_table_drains_after_stepping_recursive_terms(self):
        gc.collect()
        before = _table_sizes()
        terms = [Mu("h", InternalChoice(((Send("drain"), seq(
            event("drain", index), Var("h"))), (Send("stop"), EPSILON))))
            for index in range(10 ** 4)]
        for term in terms:
            assert len(build_lts(term, step)) == 3
        grown = _table_sizes()
        assert grown[Mu] >= before[Mu] + 10 ** 4
        del terms, term
        gc.collect()
        after = _table_sizes()
        for cls in NODE_CLASSES:
            assert after[cls] <= before[cls], cls.__name__
