"""Well-formedness of history expressions.

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
precise description on the first violation; :func:`is_well_formed` is the
boolean convenience wrapper.
"""

from __future__ import annotations

from repro.core.errors import WellFormednessError
from repro.core.syntax import (ExternalChoice, HistoryExpression,
                               InternalChoice, Mu, Request, Seq, Var, fold)


def check_well_formed(term: HistoryExpression,
                      require_closed: bool = True) -> None:
    """Validate *term*, raising :class:`WellFormednessError` on failure."""
    if require_closed and term._free:
        raise WellFormednessError(
            f"term has free recursion variables {sorted(term._free)}")
    memo, ids = _check_recursion(term)
    if memo[term][1] > len(ids):
        raise WellFormednessError(
            f"request identifier {_first_repeat(term, memo)!r} is not "
            "unique")


def check_guarded_tail_recursion(term: HistoryExpression) -> None:
    """Check only the guarded-tail-recursion restriction (openness and
    request uniqueness are the caller's concern — used by the λ effect
    system, which checks a recursion's latent effect in isolation)."""
    _check_recursion(term)


def is_well_formed(term: HistoryExpression,
                   require_closed: bool = True) -> bool:
    """Boolean form of :func:`check_well_formed`."""
    try:
        check_well_formed(term, require_closed)
    except WellFormednessError:
        return False
    return True


_UNGUARDED = "occurs unguarded (no communication prefix before it)"
_NON_TAIL = "occurs in non-tail position"


def _check_recursion(term: HistoryExpression) -> tuple[dict, set[str]]:
    """Raise on the first (pre-order) ``μ`` whose variable occurs
    unguarded or in non-tail position.

    One :func:`~repro.core.syntax.fold` gives each distinct node the
    first violation below it and how many request occurrences its tree
    holds.  Returns the fold's memo of these and the request identifiers
    of the term."""
    ids: set[str] = set()

    def leave(node, memo):
        violation = None
        requests = 0
        if node.__class__ is Request:
            ids.add(node.request)
            requests = 1
        for kid in node.children():
            kid_violation, kid_requests = memo[kid]
            violation = violation or kid_violation
            requests += kid_requests
        if node.__class__ is Mu:
            offence = _first_offence(node.body, node.var)
            if offence:
                violation = f"recursion variable {node.var!r} {offence}"
        return violation, requests

    memo: dict = {}
    violation = fold(term, leave, memo)[0]
    if violation:
        raise WellFormednessError(violation)
    return memo, ids


def _first_offence(body: HistoryExpression, var: str) -> str | None:
    """How the first (pre-order) occurrence of *var* in the body of
    ``μvar`` that is unguarded or not in tail position offends, if one
    does.

    An occurrence is *guarded* if a choice prefix lies above it in the
    body, and in *tail* position if no sequence head, request or framing
    does.  The walk enters only sub-terms where *var* is free (so it
    stops at a binder that shadows it), each at most once per context."""
    stack = [(body, False, True)]
    entered: set = set()
    while stack:
        item = stack.pop()
        node, guarded, tail = item
        if var not in node._free or item in entered:
            continue
        entered.add(item)
        cls = node.__class__
        if cls is Var:
            if not guarded:
                return _UNGUARDED
            if not tail:
                return _NON_TAIL
        elif cls is Seq:
            stack.append((node.second, guarded, tail))
            stack.append((node.first, guarded, False))
        elif cls is ExternalChoice or cls is InternalChoice:
            stack.extend((cont, True, tail)
                         for _, cont in reversed(node.branches))
        elif cls is Mu:
            stack.append((node.body, guarded, tail))
        else:  # a request or framing body runs before its close
            stack.append((node.body, guarded, False))
    return None


def _first_repeat(term: HistoryExpression, memo: dict) -> str:
    """The request identifier a pre-order walk of *term*'s tree meets a
    second time first.

    Each distinct node is entered once: meeting a node again repeats
    every request below it, so the first of them in pre-order is the
    answer (found by following the first child that holds one)."""
    seen: set[str] = set()
    entered: set = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if not memo[node][1]:
            continue
        if node in entered:
            while node.__class__ is not Request:
                node = next(kid for kid in node.children() if memo[kid][1])
            return node.request
        entered.add(node)
        if node.__class__ is Request:
            if node.request in seen:
                return node.request
            seen.add(node.request)
        stack.extend(reversed(node.children()))
    raise AssertionError("no request identifier repeats")
