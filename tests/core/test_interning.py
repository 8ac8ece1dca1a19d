"""Hash-consed history expressions: sharing, stored facts, lifetime.

Every node is built through one interning constructor, so equal terms are
one object, and each node stores its hash, its free variables and (for
``Seq``) whether it is in :func:`seq`'s normal form.  The stored facts are
checked here against the recursive definitions they replace.
"""

import gc
import sys
import threading

from hypothesis import given, settings

from repro.contracts.lts import build_lts
from repro.core.actions import Receive, Send
from repro.core.projection import project
from repro.core.semantics import step
from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, event, free_variables, is_closed,
                               receive, send, seq, substitute)
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.policies.library import forbid

from tests.strategies import contracts, history_expressions

NODE_CLASSES = (Epsilon, Var, Mu, EventNode, Seq, ExternalChoice,
                InternalChoice, Request, ClosePending, Framing,
                FrameClosePending)

PHI = forbid("write")


# -- recursive oracles (the definitions the stored facts replace) ----------

def oracle_free_variables(term):
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Mu):
        return oracle_free_variables(term.body) - {term.var}
    result = frozenset()
    for child in term.children():
        result |= oracle_free_variables(child)
    return result


def oracle_fields(term):
    return tuple(getattr(term, name) for name in term.__match_args__)


def oracle_repr(value):
    """The text the dataclass-generated ``repr`` printed."""
    if isinstance(value, HistoryExpression):
        inner = ", ".join(f"{name}={oracle_repr(getattr(value, name))}"
                          for name in value.__match_args__)
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, tuple):
        items = [oracle_repr(item) for item in value]
        if len(items) == 1:
            return f"({items[0]},)"
        return f"({', '.join(items)})"
    return repr(value)


def oracle_seq(*parts):
    """``seq`` as first written: flatten everything, rebuild to the right."""
    flat = []

    def flatten(term):
        if isinstance(term, Epsilon):
            return
        if isinstance(term, Seq):
            flatten(term.first)
            flatten(term.second)
            return
        flat.append(term)

    for part in parts:
        flatten(part)
    if not flat:
        return EPSILON
    result = flat[-1]
    for part in reversed(flat[:-1]):
        result = Seq(part, result)
    return result


def oracle_normal(term):
    """Is *term* exactly what :func:`seq` makes of it?"""
    spine = term
    while isinstance(spine, Seq):
        if isinstance(spine.first, (Seq, Epsilon)):
            return False
        spine = spine.second
    return not isinstance(spine, Epsilon)


def all_nodes(term):
    return list(term.walk())


# -- sharing ----------------------------------------------------------------

class TestOneObjectPerTerm:
    def test_every_class_interns_direct_constructions(self):
        body = send("a", Var("h"))
        pairs = [
            (Epsilon(), Epsilon()),
            (Var("h"), Var("h")),
            (Mu("h", body), Mu("h", send("a", Var("h")))),
            (EventNode(event("e", 1).event), event("e", 1)),
            (Seq(event("e"), send("b")), Seq(event("e"), send("b"))),
            (ExternalChoice(((Receive("a"), EPSILON),)), receive("a")),
            (InternalChoice(((Send("a"), EPSILON),)), send("a")),
            (Request("1", PHI, send("a")), Request("1", PHI, send("a"))),
            (ClosePending("1", PHI), ClosePending("1", PHI)),
            (Framing(PHI, send("a")), Framing(PHI, send("a"))),
            (FrameClosePending(PHI), FrameClosePending(PHI)),
        ]
        assert {type(first) for first, _ in pairs} == set(NODE_CLASSES)
        for first, second in pairs:
            assert first is second, type(first).__name__

    def test_parser_seq_and_constructors_agree(self):
        source = ("open 1 with phi { !req . (?ok . @pay(45) + ?no) } ; "
                  "frame phi { mu h { (!ping . h ++ !stop) } }")
        parsed = parse(source, {"phi": PHI})
        built = seq(
            Request("1", PHI, InternalChoice(((Send("req"), ExternalChoice((
                (Receive("ok"), event("pay", 45)),
                (Receive("no"), EPSILON)))),))),
            Framing(PHI, Mu("h", InternalChoice((
                (Send("ping"), Var("h")), (Send("stop"), EPSILON))))))
        assert parsed is built
        assert parse(pretty(parsed, {PHI: "phi"}), {"phi": PHI}) is parsed

    def test_substitute_and_project_return_shared_nodes(self):
        loop = Mu("h", InternalChoice(((Send("a"), Var("h")),
                                       (Send("b"), EPSILON))))
        unfolded = substitute(loop.body, "h", loop)
        assert unfolded is InternalChoice(((Send("a"), loop),
                                           (Send("b"), EPSILON)))
        term = seq(event("e"), Framing(PHI, send("x")), receive("y"))
        assert project(term) is seq(send("x"), receive("y"))

    def test_run_time_residuals_are_shared(self):
        session = Request("7", PHI, send("a"))
        (_, after_open), = step(session)
        assert after_open is Seq(send("a"), ClosePending("7", PHI))
        framed = Framing(PHI, send("a"))
        (_, after_frame), = step(framed)
        assert after_frame is Seq(send("a"), FrameClosePending(PHI))

    def test_equal_events_keep_their_written_parameters(self):
        as_int = parse("@p(45)")
        as_float = parse("@p(45.0)")
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert as_int is not as_float
        assert pretty(as_int) == "@p(45)"
        assert pretty(as_float) == "@p(45.0)"
        assert pretty(seq(as_float, send("a"))) == "@p(45.0) ; !a"

    def test_copies_are_the_shared_node(self):
        import copy
        import pickle
        term = seq(event("e", 1), Framing(PHI, receive("a")))
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term


# -- stored facts -------------------------------------------------------------

def _check_stored_facts(term):
    for node in all_nodes(term):
        assert hash(node) == hash(oracle_fields(node))
        assert free_variables(node) == oracle_free_variables(node)
        assert is_closed(node) == (not oracle_free_variables(node))
        if isinstance(node, Seq):
            assert node._normal == oracle_normal(node)
    assert repr(term) == oracle_repr(term)


class TestStoredFacts:
    @settings(max_examples=150, deadline=None)
    @given(term=history_expressions())
    def test_facts_match_oracles_on_history_expressions(self, term):
        _check_stored_facts(term)

    @settings(max_examples=150, deadline=None)
    @given(term=contracts())
    def test_facts_match_oracles_on_contracts(self, term):
        _check_stored_facts(term)
        for state in build_lts(term, step).states:
            _check_stored_facts(state)

    @settings(max_examples=150, deadline=None)
    @given(a=history_expressions(), b=history_expressions(),
           c=history_expressions())
    def test_seq_matches_the_flattening_oracle(self, a, b, c):
        assert seq(a, b, c) is oracle_seq(a, b, c)
        assert seq(Seq(a, b), c) is oracle_seq(a, b, c)
        assert seq(a, Seq(b, c)) is oracle_seq(a, b, c)

    def test_open_terms(self):
        term = Mu("h", seq(send("a", Var("h")), Framing(PHI, Var("k"))))
        _check_stored_facts(term)
        assert free_variables(term) == {"k"}
        assert substitute(term, "k", EPSILON) is Mu(
            "h", seq(send("a", Var("h")), Framing(PHI, EPSILON)))

    def test_closed_terms_share_one_empty_set(self):
        closed = [EPSILON, send("a"), Mu("h", send("a", Var("h"))),
                  seq(event("e"), receive("b"))]
        assert len({id(free_variables(term)) for term in closed}) == 1

    def test_hand_built_sequences_that_are_not_normal(self):
        a, b, c = send("a"), receive("b"), event("c")
        cases = [Seq(EPSILON, EPSILON), Seq(a, EPSILON), Seq(EPSILON, a),
                 Seq(Seq(a, b), c), Seq(a, Seq(b, EPSILON)),
                 Seq(a, Seq(Seq(b, c), a))]
        for term in cases:
            assert not term._normal
            _check_stored_facts(term)
            assert seq(term) is oracle_seq(term)
            assert seq(a, term) is oracle_seq(a, term)
            assert seq(term, b) is oracle_seq(term, b)
        assert seq(a, b, c)._normal

    def test_direct_seq_of_epsilons_stays_stuck(self):
        stuck = Seq(EPSILON, EPSILON)
        assert stuck is not EPSILON
        assert list(step(stuck)) == []
        assert seq(stuck) is EPSILON

    def test_deep_terms_hash_and_print_without_recursion(self):
        depth = 5 * sys.getrecursionlimit()
        term = seq(*(send(f"m{i}") for i in range(depth)))
        assert isinstance(hash(term), int)
        assert is_closed(term)
        assert repr(term).count("InternalChoice(") == depth
        (_, rest), = step(term)
        assert rest is term.second


# -- lifetime -----------------------------------------------------------------

def _table_sizes():
    return {cls: len(cls._table) for cls in NODE_CLASSES}


class TestWeakTable:
    def test_table_drains_after_terms_are_dropped(self):
        tail = send("drain")
        gc.collect()
        before = _table_sizes()
        terms = [seq(event("drain", index), tail)
                 for index in range(10 ** 5)]
        grown = _table_sizes()
        assert grown[Seq] >= before[Seq] + 10 ** 5
        assert grown[EventNode] >= before[EventNode] + 10 ** 5
        del terms
        gc.collect()
        after = _table_sizes()
        for cls in NODE_CLASSES:
            assert after[cls] <= before[cls], cls.__name__

    def test_a_live_node_stays_shared(self):
        node = seq(event("kept", 1), send("kept"))
        gc.collect()
        assert seq(event("kept", 1), send("kept")) is node


# -- threads ------------------------------------------------------------------

THREADS = 8


def _build(salt: int):
    """A batch of terms, fresh for each *salt*: parsed, sequenced,
    substituted and stepped through an LTS, then the moves each state
    has stored."""
    source = " ; ".join(
        f"open r{salt}x{i} {{ !req{salt} . (?ok{i} . @pay({i}) + ?no) }}"
        for i in range(6))
    parsed = parse(source)
    loop = Mu("h", InternalChoice(((Send(f"tick{salt}"), Var("h")),
                                   (Send("done"), EPSILON))))
    states = sorted(build_lts(parsed, step).states, key=repr)
    chain = seq(*(receive(f"x{salt}_{i}") for i in range(40)))
    return [parsed, loop, substitute(loop.body, "h", loop), chain,
            *states, step(loop), step(chain),
            *(step(state) for state in states)]


class TestThreads:
    def test_concurrent_builds_agree_with_a_single_threaded_build(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for salt in range(3):
                results = [None] * THREADS

                def work(slot, salt=salt):
                    results[slot] = _build(10_000 + salt)

                threads = [threading.Thread(target=work, args=(slot,))
                           for slot in range(THREADS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                reference = _build(10_000 + salt)
                for result in results:
                    assert result is not None
                    assert len(result) == len(reference)
                    for built, expected in zip(result, reference):
                        assert built == expected
                        assert hash(built) == hash(expected)
                        assert repr(built) == repr(expected)
        finally:
            sys.setswitchinterval(interval)
