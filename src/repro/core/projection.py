"""Projection of history expressions on communication actions (Section 4).

The projection ``H!`` removes access events, policy framings and whole
inner service requests, keeping only the communication skeleton::

    (H·H')!   = H!·H'!          h!            = h
    φ[H]!     = H!              (μh.H)!       = μh.(H!)
    (Σ a_i.H_i)! = Σ a_i.(H_i!) (⊕ ā_i.H_i)!  = ⊕ ā_i.(H_i!)
    (open_{r,φ}·H·close_{r,φ})! = ε! = α! = ε

The result is a *behavioural contract* in the sense of Castagna, Gesbert
and Padovani [12]: internal choices guarded by outputs, external choices
guarded by inputs, guarded tail recursion only — hence finite state.
"""

from __future__ import annotations

from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, fold, seq)


def project(term: HistoryExpression) -> HistoryExpression:
    """The projection ``term!`` on communication actions.

    Closed terms project to closed terms.  Recursions whose body becomes
    trivial (no reachable communication guard) are simplified to ``ε`` so
    that the projected contract stays well formed.

    A node's projection depends on the node alone, so one
    :func:`~repro.core.syntax.fold` projects each distinct (shared)
    sub-term once, without recursion: the work follows the term's DAG,
    not its tree.  A request's body is erased, so it is never visited.
    """
    return fold(term, _project_node, children=_projected_children)


def _projected_children(node: HistoryExpression):
    return () if node.__class__ is Request else node.children()


def _project_node(node: HistoryExpression, memo: dict) -> HistoryExpression:
    cls = node.__class__
    if cls is Seq:
        return seq(memo[node.first], memo[node.second])
    if cls is ExternalChoice or cls is InternalChoice:
        return cls(tuple((label, memo[cont])
                         for label, cont in node.branches))
    if cls is Framing:
        return memo[node.body]
    if cls is Var:
        return node
    if cls is Mu:
        body = memo[node.body]
        if node.var not in body._free:
            return body
        if _is_trivial_loop(body, node.var):
            return EPSILON
        return Mu(node.var, body)
    if cls in _ERASED:
        return EPSILON
    raise TypeError(f"unknown history expression node {node!r}")


#: ε, events, whole requests and run-time residuals all project to ε.
_ERASED = frozenset({Epsilon, EventNode, ClosePending, Request,
                     FrameClosePending})


def _is_trivial_loop(body: HistoryExpression, var: str) -> bool:
    """True iff ``μvar.body`` has no action before re-entering ``var``.

    Such degenerate loops (e.g. the projection of ``μh.(α·h)``) denote no
    communication behaviour at all and are simplified to ``ε``.  Guarded
    recursion in the source calculus — recursion guarded by communication
    actions, which survive projection — never produces them, but the
    simplification keeps :func:`project` total on all syntactically valid
    terms.
    """
    while True:
        if isinstance(body, Var):
            return body.name == var
        if isinstance(body, Seq):
            body = body.first
            continue
        if isinstance(body, Mu):
            body = body.body
            continue
        return False
