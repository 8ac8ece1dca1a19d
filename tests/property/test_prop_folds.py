"""The passes that fold a term's DAG agree exactly with their recursive
oracles (:mod:`tests.oracles`).

Compared on every pass: the label analysis (``may``, ``must``,
``diverging`` and the universe), well-formedness (the same exception
type and message on the first violation, or none), the projection (the
identical node) and the pretty printer (the identical string, also when
one renderer is shared by many terms).  The terms are the strategies'
closed ones, their step successors (for the run-time residuals), every
shipped module, hand-written shadowed, nested and open ``μ`` cases, and
unconstrained terms full of sharing, open variables and repeated
request ids.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import load_module
from repro.core.actions import Receive, Send
from repro.core.projection import project
from repro.core.semantics import successors
from repro.core.syntax import (EPSILON, ClosePending, ExternalChoice,
                               FrameClosePending, Framing, InternalChoice,
                               Mu, Request, Seq, Var, event, seq)
from repro.core.wellformed import check_well_formed
from repro.lang.parser import parse
from repro.lang.pretty import pretty, printer
from repro.policies.library import forbid
from repro.staticcheck.labels import analyse_labels

from tests.oracles import labels as oracle_labels
from tests.oracles import pretty as oracle_pretty
from tests.oracles import projection as oracle_projection
from tests.oracles import wellformed as oracle_wellformed
from tests.strategies import contracts, history_expressions

ROOT = Path(__file__).resolve().parents[2]

#: Every module the repository ships: examples and the analysis and lint
#: fixtures (the parser's crash fixtures never load).
MODULES = sorted([*ROOT.glob("examples/*.sus"), *ROOT.glob("examples/*.toml"),
                  *ROOT.glob("tests/analysis/fixtures/*.sus"),
                  *ROOT.glob("tests/lint/fixtures/*.sus")])

PHI = forbid("boom")

#: Hand-written recursion: shadowed, nested and open binders, unguarded
#: and non-tail variables, and request ids repeated directly or through
#: a shared node.
MU_CASES = (
    "mu h { ?a . h }",
    "mu h { !a . { mu h { ?b . h } ; !c . h } }",
    "mu h { ?a . mu k { (!b . k ++ !c . h) } }",
    "mu h { ?a . mu h { (!b . h ++ !c) } }",
    "mu h { (?a . mu k { (!b . h ++ !c . k) } + ?d) } ; !e",
    "mu h { ?a . { mu k { !b . k } ; h } }",
    "!a . h",
    "mu h { ?a . k }",
    "mu h { h }",
    "mu h { @e ; h }",
    "mu h { ?a . { h ; @e } }",
    "mu h { ?a . open r { h } }",
    "mu h { ?a . frame phi { !b . h } }",
    "mu h { ?a . mu h { h } }",
    "mu h { ?a . { k ; h } }",
    "mu h { (?a . h + ?b . { h ; !c }) }",
    "mu h { (?a . h + ?b) ; h }",
    "mu h { h } ; mu k { ?a . { k ; @e } }",
    "(?a . mu h { ?b . { h ; @e } } + ?c . mu k { k })",
    "mu h { h } ; open 1 { !a } ; open 1 { !b }",
    "open 1 { !a } ; open 1 { !b }",
    "open 1 { !a } ; open 2 { !b } ; open 1 { !c } ; open 2 { !d }",
    "(?a . { open 2 { !y } ; open 1 { !x } } + ?b . open 1 { !x })"
    " ; open 2 { !y }",
    "(?a . { open 3 { !p } ; open 4 { !q } }"
    " + ?b . { open 3 { !p } ; open 4 { !q } })",
    "(?a . open 1 { !x } + ?b . open 1 { !x })",
    "open 1 { !a } ; (?b . open 2 { !y } + ?c . open 2 { !y })",
    "open 1 { open 2 { !a } ; open 2 { !a } }",
    "frame phi { @e ; open 1 with phi { mu h { !a . h } } } ; @f",
    "mu h { (!a . h ++ !b) } ; mu h { (?c . h + ?d) }",
)


def _outcome(check, term, **kwargs):
    try:
        check(term, **kwargs)
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        return type(error), str(error)
    return None


def assert_folds_agree(term, policy_names=None):
    """Every fold matches its oracle on *term*."""
    labels = analyse_labels(term)
    expected = oracle_labels.analyse_labels(term)
    assert labels.may == expected.may, term
    assert labels.must == expected.must, term
    assert labels.diverging == expected.diverging, term
    assert labels.universe == expected.universe, term

    for closed in (True, False):
        assert _outcome(check_well_formed, term, require_closed=closed) \
            == _outcome(oracle_wellformed.check_well_formed, term,
                        require_closed=closed), term

    assert project(term) is oracle_projection.project(term)
    assert pretty(term, policy_names) \
        == oracle_pretty.pretty(term, policy_names)


def residuals(term, steps=3):
    """*term* and every residual reached in at most *steps* moves."""
    found = [term]
    frontier = [term]
    for _ in range(steps):
        frontier = [successor for node in frontier
                    for _, successor in successors(node)]
        found.extend(frontier)
    return found


def assert_on_residuals(term, policy_names=None):
    terms = residuals(term)
    for residual in terms:
        assert_folds_agree(residual, policy_names)
    # One renderer for all of them, as a witness trace uses it.
    render = printer(policy_names)
    assert [render(residual) for residual in terms] \
        == [oracle_pretty.pretty(residual, policy_names)
            for residual in terms]


@settings(max_examples=150, deadline=None)
@given(term=history_expressions())
def test_history_expressions_and_successors(term):
    assert_on_residuals(term)


@settings(max_examples=150, deadline=None)
@given(term=contracts())
def test_contracts_and_successors(term):
    assert_on_residuals(term)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_shipped_modules(path):
    module = load_module(path)
    names = {policy: name for name, policy in module.policies.items()}
    for term in (*module.clients.values(), *module.services.values()):
        assert_on_residuals(term, names)
        assert_on_residuals(project(term))


@pytest.mark.parametrize("source", MU_CASES)
def test_hand_written_recursion(source):
    term = parse(source, policies={"phi": PHI})
    assert_folds_agree(term, {PHI: "phi"})
    if _outcome(check_well_formed, term) is None:
        assert_on_residuals(term, {PHI: "phi"})


def _unconstrained_terms():
    """Terms with no well-formedness guarantee: open and unguarded
    variables, shadowing binders, repeated request ids, residuals,
    un-normalised sequences and sub-terms shared between branches."""
    leaves = st.sampled_from([
        EPSILON, Var("h"), Var("k"), event("e"), event("f", 1),
        ClosePending("r1", None), ClosePending("r2", PHI),
        FrameClosePending(PHI)])

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            st.tuples(st.sampled_from("hk"), children).map(
                lambda pair: Mu(*pair)),
            pairs.map(lambda pair: seq(*pair)),
            pairs.map(lambda pair: Seq(*pair)),
            pairs.map(lambda pair: InternalChoice(
                ((Send("a"), pair[0]), (Send("b"), pair[1])))),
            children.map(lambda child: ExternalChoice(
                ((Receive("a"), child), (Receive("b"), child)))),
            children.map(lambda child: seq(child, child)),
            st.tuples(st.sampled_from(["r1", "r2"]),
                      st.sampled_from([None, PHI]), children).map(
                lambda triple: Request(*triple)),
            children.map(lambda child: Framing(PHI, child)))

    def bind(term):
        return st.sampled_from([term, Mu("h", term), Mu("k", Mu("h", term))])

    return st.recursive(leaves, extend, max_leaves=12).flatmap(bind)


@settings(max_examples=300, deadline=None)
@given(term=_unconstrained_terms())
def test_unconstrained_terms(term):
    assert_folds_agree(term, {PHI: "phi"})
