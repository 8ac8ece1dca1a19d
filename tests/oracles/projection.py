"""The recursive projection on communication actions: the differential
oracle of :mod:`repro.core.projection`, which folds the term's DAG
instead.

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
                               Seq, Var, free_variables, seq)


def project(term: HistoryExpression,
            _memo: dict | None = None) -> HistoryExpression:
    """The projection ``term!`` on communication actions.

    Closed terms project to closed terms.  Recursions whose body becomes
    trivial (no reachable communication guard) are simplified to ``ε`` so
    that the projected contract stays well formed.

    A node's projection depends on the node alone, so one call projects
    each distinct (shared) sub-term once: the work follows the term's
    DAG, not its tree.  The memo is checked here, not in a helper, so
    the recursion costs one frame per nesting level.
    """
    if _memo is None:
        _memo = {}
    else:
        known = _memo.get(term)
        if known is not None:
            return known
    if isinstance(term, Framing):
        result = project(term.body, _memo)
    elif isinstance(term, (Epsilon, EventNode, ClosePending, Request,
                           FrameClosePending)):
        # ε, events, whole requests and run-time residuals all erase.
        result = EPSILON
    elif isinstance(term, Var):
        result = term
    elif isinstance(term, Seq):
        result = seq(project(term.first, _memo),
                     project(term.second, _memo))
    elif isinstance(term, ExternalChoice):
        result = ExternalChoice(tuple((label, project(cont, _memo))
                                      for label, cont in term.branches))
    elif isinstance(term, InternalChoice):
        result = InternalChoice(tuple((label, project(cont, _memo))
                                      for label, cont in term.branches))
    elif isinstance(term, Mu):
        body = project(term.body, _memo)
        if term.var not in free_variables(body):
            result = body
        elif _is_trivial_loop(body, term.var):
            result = EPSILON
        else:
            result = Mu(term.var, body)
    else:
        raise TypeError(f"unknown history expression node {term!r}")
    _memo[term] = result
    return result


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
