"""The recursive well-formedness check: the differential oracle of
:mod:`repro.core.wellformed`, which folds the term's DAG instead.

The calculus (Definition 1 and the surrounding prose) restricts history
expressions in three ways, all checked here:

* **closedness** — every recursion variable is bound by a ``μ``;
* **guarded tail recursion** — "infinite behaviour is denoted by ``μh.H``,
  restricted to be tail-recursive and guarded by communication actions
  ``ā`` or ``a``": every occurrence of the recursion variable must be in
  tail position (nothing sequentially follows it) and strictly under at
  least one choice prefix;
* **unique requests** — request identifiers ``r`` are unique within a
  term, so a plan binding is unambiguous.

:func:`check_well_formed` raises :class:`WellFormednessError` with a
precise description on the first violation.
"""

from __future__ import annotations

from repro.core.errors import WellFormednessError
from repro.core.syntax import (ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, free_variables)


def check_well_formed(term: HistoryExpression,
                      require_closed: bool = True) -> None:
    """Validate *term*, raising :class:`WellFormednessError` on failure."""
    if require_closed:
        free = free_variables(term)
        if free:
            raise WellFormednessError(
                f"term has free recursion variables {sorted(free)}")
    _check_recursion(term, bound=frozenset())
    _check_unique_requests(term)


def _check_recursion(term: HistoryExpression, bound: frozenset[str]) -> None:
    """Check guardedness and tail position of every ``μ``-bound variable."""
    if isinstance(term, Mu):
        _check_body(term.body, term.var, guarded=False, tail=True)
        _check_recursion(term.body, bound | {term.var})
        return
    for child in term.children():
        _check_recursion(child, bound)


def _check_body(term: HistoryExpression, var: str, guarded: bool,
                tail: bool) -> None:
    """Walk the body of ``μvar.…`` tracking whether the current position is
    under a communication guard and in tail position."""
    if isinstance(term, Var):
        if term.name != var:
            return
        if not guarded:
            raise WellFormednessError(
                f"recursion variable {var!r} occurs unguarded (no "
                "communication prefix before it)")
        if not tail:
            raise WellFormednessError(
                f"recursion variable {var!r} occurs in non-tail position")
        return
    if isinstance(term, Mu):
        if term.var == var:
            return  # shadowed: inner occurrences belong to the inner μ
        _check_body(term.body, var, guarded, tail)
        return
    if isinstance(term, Seq):
        _check_body(term.first, var, guarded, tail=False)
        _check_body(term.second, var, guarded, tail)
        return
    if isinstance(term, (ExternalChoice, InternalChoice)):
        for _, continuation in term.branches:
            _check_body(continuation, var, guarded=True, tail=tail)
        return
    if isinstance(term, Request):
        # A request body runs before close_{r,φ}: not a tail position.
        _check_body(term.body, var, guarded, tail=False)
        return
    if isinstance(term, Framing):
        # A framing body runs before Mφ: not a tail position.
        _check_body(term.body, var, guarded, tail=False)
        return
    if isinstance(term, (Epsilon, EventNode, ClosePending,
                         FrameClosePending)):
        return
    raise TypeError(f"unknown history expression node {term!r}")


def _check_unique_requests(term: HistoryExpression) -> None:
    seen: set[str] = set()
    for node in term.walk():
        if isinstance(node, Request):
            if node.request in seen:
                raise WellFormednessError(
                    f"request identifier {node.request!r} is not unique")
            seen.add(node.request)
