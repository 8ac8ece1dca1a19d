"""May/must label analysis of history expressions.

An abstract interpretation over the powerset of the term's syntactic
label alphabet:

* ``may(H)`` over-approximates the labels occurring on *some* run of
  ``H`` — sound for the prefix-closed trace semantics of
  :func:`repro.core.semantics.step`, so any label a concrete run ever
  produces is in the may set;
* ``must(H)`` under-approximates the labels occurring on *every*
  maximal run — choices intersect, and the tail of a sequence only
  contributes when its head cannot diverge.

Guarded tail recursion needs no fixpoint iteration: the whole analysis
is one :func:`~repro.core.syntax.fold` over the term's distinct nodes.
A recursion variable re-enters its binder, whose labels are already
counted, so ``may`` is the union of each node's own labels.  A variable
contributes nothing to ``must`` (the least fixpoint from ``⊥``), so
``μh.H`` has the must set of ``H``.  Divergence is a memoised fold too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import (FrameClose, FrameOpen, Label, SessionClose,
                                SessionOpen)
from repro.core.syntax import (ClosePending, EventNode, ExternalChoice,
                               FrameClosePending, Framing, HistoryExpression,
                               InternalChoice, Mu, Request, Seq,
                               chain_children, fold)

_NOTHING: frozenset = frozenset()


@dataclass(frozen=True)
class LabelAnalysis:
    """Result of the may/must analysis of one history expression."""

    may: frozenset
    must: frozenset
    universe: frozenset
    diverging: bool

    def covers(self, label: Label) -> bool:
        """Is *label* abstractly possible?  (Soundness: a ``False`` answer
        proves no concrete run ever produces it.)"""
        return label in self.may


def analyse_labels(term: HistoryExpression) -> LabelAnalysis:
    """Run the may and must label analyses on *term*.

    One fold computes each distinct node's must set and whether it may
    diverge, and collects every node's own labels; a sequence is left
    once for all its operands, so a long one costs no unions of its
    suffixes."""
    may: set = set()
    opens: set = set()  # the open labels of pending closes (universe only)

    def leave(node, memo):
        cls = node.__class__
        if cls is Seq:
            must: set = set()
            diverges = False
            for part in chain_children(node):
                part_must, part_diverges = memo[part]
                if not diverges:  # else what follows may never run
                    must.update(part_must)
                diverges = diverges or part_diverges
            return frozenset(must), diverges
        if cls is ExternalChoice or cls is InternalChoice:
            must = None
            diverges = False
            for label, cont in node.branches:
                cont_must, cont_diverges = memo[cont]
                branch = cont_must | {label}
                must = branch if must is None else must & branch
                diverges = diverges or cont_diverges
                may.add(label)
            return (_NOTHING if must is None else must), diverges
        if cls is EventNode:
            may.add(node.event)
            return frozenset((node.event,)), False
        if cls is Mu:
            body_must, body_diverges = memo[node.body]
            return body_must, body_diverges or node.var in node.body._free
        if cls is Request or cls is Framing:
            body_must, diverges = memo[node.body]
            if cls is Request:
                opened = SessionOpen(node.request, node.policy)
                closed = SessionClose(node.request, node.policy)
            else:
                opened = FrameOpen(node.policy)
                closed = FrameClose(node.policy)
            may.update((opened, closed))
            must = body_must | {opened}
            return (must if diverges else must | {closed}), diverges
        if cls is ClosePending or cls is FrameClosePending:
            if cls is ClosePending:
                opens.add(SessionOpen(node.request, node.policy))
                closed = SessionClose(node.request, node.policy)
            else:
                opens.add(FrameOpen(node.policy))
                closed = FrameClose(node.policy)
            may.add(closed)
            return frozenset((closed,)), False
        return _NOTHING, False  # ε and recursion variables

    must, diverging = fold(term, leave, children=chain_children)
    may_labels = frozenset(may)
    return LabelAnalysis(may=may_labels, must=must,
                         universe=may_labels | opens, diverging=diverging)


def syntactic_alphabet(term: HistoryExpression) -> frozenset:
    """Every label the transition semantics can possibly emit from any
    residual of *term*: the universe the may and must sets are drawn
    from."""
    return analyse_labels(term).universe


def may_diverge(term: HistoryExpression) -> bool:
    """Syntactic divergence check: may some run of *term* be infinite?

    Over-approximate (a ``μ`` whose variable occurs in its body counts as
    diverging even if the recursive branch is unreachable) — the safe
    direction for the *must* analysis, which drops the tail of a sequence
    whose head may never finish.
    """
    return analyse_labels(term).diverging
