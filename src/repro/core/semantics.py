"""Operational semantics of stand-alone history expressions.

Implements the transition relation ``H --λ--> H'`` of the paper
(Section 3)::

    (I-Choice)  ⊕ ā_i.H_i --ā_i--> H_i
    (E-Choice)  Σ a_i.H_i --a_i--> H_i
    (α Acc)     α --α--> ε
    (S-Open)    open_{r,φ}·H·close_{r,φ} --open_{r,φ}--> H·close_{r,φ}
    (P-Open)    φ[H] --Lφ--> H·Mφ
    (Conc)      H --λ--> H'  ⟹  H·H'' --λ--> H'·H''
    (Rec)       H{μh.H/h} --λ--> H'  ⟹  μh.H --λ--> H'

plus the two run-time residuals: ``close_{r,φ} --close_{r,φ}--> ε`` and
``Mφ --Mφ--> ε``.

The single entry point is :func:`step`; everything else in the library
(finite LTS construction, projections, products, the network semantics) is
derived from it.  A term's transitions depend on the term alone, and terms
are hash-consed, so :func:`step` computes them once per node and stores
them on it.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.actions import (FrameClose, FrameOpen, Label, SessionClose,
                                SessionOpen)
from repro.core.errors import OpenTermError, WellFormednessError
from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, seq, unfold)

#: Safety bound on consecutive μ-unfoldings while computing one step.  A
#: well-formed (guarded) term needs at most a handful; unguarded recursion
#: like ``μh.μk.h`` would otherwise loop forever.
_MAX_UNFOLDINGS = 64

#: The transitions of one term, in rule order.
Moves = tuple[tuple[Label, HistoryExpression], ...]


def step(term: HistoryExpression, _depth: int = 0) -> Moves:
    """Every transition ``(λ, H')`` with ``term --λ--> H'``.

    The tuple is computed on the first call and stored on the node, so
    every later call returns the very same tuple.  A failure is never
    stored: each call on an open or unguarded term raises again.

    Raises :class:`OpenTermError` on free variables and
    :class:`WellFormednessError` on unguarded recursion.
    """
    moves = term._moves
    if moves is None:
        moves = _transitions(term, _depth)
        # Two threads may both get here; they store equal tuples.
        object.__setattr__(term, "_moves", moves)
    return moves


def _transitions(term: HistoryExpression, depth: int) -> Moves:
    """The rules of the module docstring, applied to *term*'s head.
    *depth* counts the μ-unfoldings made so far for this step; a
    sub-term whose moves are already stored costs no further ones."""
    if isinstance(term, Epsilon):
        return ()
    if isinstance(term, Var):
        raise OpenTermError(term.name)
    if isinstance(term, EventNode):
        return ((term.event, EPSILON),)
    if isinstance(term, (InternalChoice, ExternalChoice)):
        return term.branches
    if isinstance(term, Request):
        return ((SessionOpen(term.request, term.policy),
                 seq(term.body, ClosePending(term.request, term.policy))),)
    if isinstance(term, ClosePending):
        return ((SessionClose(term.request, term.policy), EPSILON),)
    if isinstance(term, Framing):
        return ((FrameOpen(term.policy),
                 seq(term.body, FrameClosePending(term.policy))),)
    if isinstance(term, FrameClosePending):
        return ((FrameClose(term.policy), EPSILON),)
    if isinstance(term, Seq):
        second = term.second
        return tuple((label, seq(rest, second))
                     for label, rest in step(term.first, depth))
    if isinstance(term, Mu):
        if depth >= _MAX_UNFOLDINGS:
            raise WellFormednessError(
                f"recursion μ{term.var} is not guarded: stepping it needs "
                f"more than {_MAX_UNFOLDINGS} unfoldings")
        return step(unfold(term), depth + 1)
    raise TypeError(f"unknown history expression node {term!r}")


def successors(term: HistoryExpression) -> Moves:
    """The transitions of *term* as a tuple (the stored tuple of
    :func:`step`)."""
    return step(term)


def is_terminated(term: HistoryExpression) -> bool:
    """True iff *term* is (congruent to) ``ε``, i.e. successfully done."""
    return isinstance(term, Epsilon)


def can_step(term: HistoryExpression) -> bool:
    """True iff *term* has at least one transition."""
    return bool(step(term))


def enabled_labels(term: HistoryExpression) -> frozenset[Label]:
    """The set of labels *term* can fire right now."""
    return frozenset(label for label, _ in step(term))


def traces(term: HistoryExpression, max_length: int,
           ) -> Iterator[tuple[Label, ...]]:
    """Yield the (maximal or length-capped) traces of *term*.

    A trace ends either at ``ε`` or when *max_length* labels have been
    produced.  Intended for tests and examples; exhaustive exploration of
    large terms should go through :mod:`repro.contracts.lts`.
    """
    stack: list[tuple[HistoryExpression, tuple[Label, ...]]] = [(term, ())]
    while stack:
        current, prefix = stack.pop()
        moves = successors(current)
        if not moves or len(prefix) >= max_length:
            yield prefix
            continue
        for label, successor in moves:
            stack.append((successor, prefix + (label,)))
