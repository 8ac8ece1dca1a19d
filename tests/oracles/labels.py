"""The recursive may/must label analysis: the differential oracle of
:mod:`repro.staticcheck.labels`, which folds the term's DAG instead.

An abstract interpretation over the powerset of the term's syntactic
label alphabet:

* ``may(H)`` over-approximates the labels occurring on *some* run of
  ``H`` — sound for the prefix-closed trace semantics of
  :func:`repro.core.semantics.step`, so any label a concrete run ever
  produces is in the may set;
* ``must(H)`` under-approximates the labels occurring on *every*
  maximal run — choices intersect, and the tail of a sequence only
  contributes when its head cannot diverge.

Recursion is handled by alpha-renaming the term so that every ``μ``
binder is globally unique, phrasing one equation per binder and solving
the system with the worklist engine (Kleene iteration; the optional
set-height widening of :class:`~tests.oracles.solver.PowersetLattice`
bounds iteration on pathologically deep alphabets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.actions import (FrameClose, FrameOpen, Label, SessionClose,
                                SessionOpen)
from repro.core.syntax import (ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, free_variables)
from tests.oracles.solver import Equation, PowersetLattice, solve


@dataclass(frozen=True)
class LabelAnalysis:
    """Result of the may/must analysis of one history expression."""

    may: frozenset
    must: frozenset
    universe: frozenset
    diverging: bool
    iterations: int
    widened: bool

    def covers(self, label: Label) -> bool:
        """Is *label* abstractly possible?  (Soundness: a ``False`` answer
        proves no concrete run ever produces it.)"""
        return label in self.may


def analyse_labels(term: HistoryExpression, *,
                   widen_height: int | None = None,
                   widen_after: int | None = None) -> LabelAnalysis:
    """Run the may and must label analyses on *term*."""
    renamed = _unique_binders(term)
    universe = syntactic_alphabet(renamed)
    lattice = PowersetLattice(universe, widen_height)
    binders = _binder_bodies(renamed)

    def system(transfer):
        return {name: Equation(name,
                               tuple(sorted(free_variables(body))),
                               (lambda env, b=body: transfer(b, env)))
                for name, body in binders.items()}

    may_solution = solve(system(_may), lattice, widen_after=widen_after)
    must_solution = solve(system(_must), lattice, widen_after=widen_after)
    return LabelAnalysis(
        may=_may(renamed, may_solution.values),
        must=_must(renamed, must_solution.values),
        universe=universe,
        diverging=may_diverge(renamed),
        iterations=may_solution.iterations + must_solution.iterations,
        widened=bool(may_solution.widened or must_solution.widened))


def syntactic_alphabet(term: HistoryExpression) -> frozenset:
    """Every label the transition semantics can possibly emit from any
    residual of *term* — the universe of the powerset lattice."""
    labels: set = set()
    for node in term.walk():
        if isinstance(node, EventNode):
            labels.add(node.event)
        elif isinstance(node, (ExternalChoice, InternalChoice)):
            labels.update(label for label, _ in node.branches)
        elif isinstance(node, (Request, ClosePending)):
            labels.add(SessionOpen(node.request, node.policy))
            labels.add(SessionClose(node.request, node.policy))
        elif isinstance(node, (Framing, FrameClosePending)):
            labels.add(FrameOpen(node.policy))
            labels.add(FrameClose(node.policy))
    return frozenset(labels)


def may_diverge(term: HistoryExpression) -> bool:
    """Syntactic divergence check: may some run of *term* be infinite?

    Over-approximate (a ``μ`` whose variable occurs in its body counts as
    diverging even if the recursive branch is unreachable) — the safe
    direction for the *must* analysis, which drops the tail of a sequence
    whose head may never finish.
    """
    if isinstance(term, Mu):
        return term.var in free_variables(term.body) or may_diverge(term.body)
    if isinstance(term, Seq):
        return may_diverge(term.first) or may_diverge(term.second)
    if isinstance(term, (ExternalChoice, InternalChoice)):
        return any(may_diverge(body) for _, body in term.branches)
    if isinstance(term, (Request, Framing)):
        return may_diverge(term.body)
    return False


# -- transfer functions -----------------------------------------------------

def _may(term: HistoryExpression,
         env: Mapping[str, frozenset]) -> frozenset:
    """Labels on *some* run of *term* (environment maps μ-binders)."""
    if isinstance(term, Epsilon):
        return frozenset()
    if isinstance(term, Var):
        return env.get(term.name, frozenset())
    if isinstance(term, EventNode):
        return frozenset({term.event})
    if isinstance(term, Seq):
        return _may(term.first, env) | _may(term.second, env)
    if isinstance(term, (ExternalChoice, InternalChoice)):
        result: frozenset = frozenset()
        for label, body in term.branches:
            result |= frozenset({label}) | _may(body, env)
        return result
    if isinstance(term, Mu):
        return env.get(term.var, frozenset()) | _may(term.body, env)
    if isinstance(term, Request):
        return (frozenset({SessionOpen(term.request, term.policy),
                           SessionClose(term.request, term.policy)})
                | _may(term.body, env))
    if isinstance(term, ClosePending):
        return frozenset({SessionClose(term.request, term.policy)})
    if isinstance(term, Framing):
        return (frozenset({FrameOpen(term.policy), FrameClose(term.policy)})
                | _may(term.body, env))
    if isinstance(term, FrameClosePending):
        return frozenset({FrameClose(term.policy)})
    raise TypeError(f"not a history expression: {term!r}")


def _must(term: HistoryExpression,
          env: Mapping[str, frozenset]) -> frozenset:
    """Labels on *every* maximal run of *term*."""
    if isinstance(term, (Epsilon, Var)):
        # A recursion variable contributes nothing: the lfp from ⊥ keeps
        # `must` an under-approximation (unrolling can only shrink the
        # intersection over runs, never grow it).
        return frozenset()
    if isinstance(term, EventNode):
        return frozenset({term.event})
    if isinstance(term, Seq):
        head = _must(term.first, env)
        if may_diverge(term.first):
            return head
        return head | _must(term.second, env)
    if isinstance(term, (ExternalChoice, InternalChoice)):
        result: frozenset | None = None
        for label, body in term.branches:
            branch = frozenset({label}) | _must(body, env)
            result = branch if result is None else (result & branch)
        return result if result is not None else frozenset()
    if isinstance(term, Mu):
        return env.get(term.var, frozenset()) | _must(term.body, env)
    if isinstance(term, Request):
        open_label = SessionOpen(term.request, term.policy)
        close_label = SessionClose(term.request, term.policy)
        guaranteed = frozenset({open_label}) | _must(term.body, env)
        if not may_diverge(term.body):
            guaranteed |= frozenset({close_label})
        return guaranteed
    if isinstance(term, ClosePending):
        return frozenset({SessionClose(term.request, term.policy)})
    if isinstance(term, Framing):
        guaranteed = frozenset({FrameOpen(term.policy)}) | _must(term.body,
                                                                 env)
        if not may_diverge(term.body):
            guaranteed |= frozenset({FrameClose(term.policy)})
        return guaranteed
    if isinstance(term, FrameClosePending):
        return frozenset({FrameClose(term.policy)})
    raise TypeError(f"not a history expression: {term!r}")


# -- alpha renaming ---------------------------------------------------------

def _unique_binders(term: HistoryExpression) -> HistoryExpression:
    """Rename every ``μ`` binder to a globally unique name, so one flat
    environment (binder name → lattice value) is well defined."""
    used: set[str] = set()
    for node in term.walk():
        if isinstance(node, (Mu, Var)):
            used.add(node.var if isinstance(node, Mu) else node.name)
    counter = [0]

    def fresh(base: str) -> str:
        candidate = base
        while candidate in used:
            counter[0] += 1
            candidate = f"{base}#{counter[0]}"
        used.add(candidate)
        return candidate

    def rename(node: HistoryExpression,
               scope: dict[str, str]) -> HistoryExpression:
        if isinstance(node, (Epsilon, EventNode, ClosePending,
                             FrameClosePending)):
            return node
        if isinstance(node, Var):
            return Var(scope.get(node.name, node.name))
        if isinstance(node, Mu):
            name = fresh(node.var)
            inner = dict(scope)
            inner[node.var] = name
            return Mu(name, rename(node.body, inner))
        if isinstance(node, Seq):
            return Seq(rename(node.first, scope), rename(node.second, scope))
        if isinstance(node, ExternalChoice):
            return ExternalChoice(tuple(
                (label, rename(body, scope)) for label, body in node.branches))
        if isinstance(node, InternalChoice):
            return InternalChoice(tuple(
                (label, rename(body, scope)) for label, body in node.branches))
        if isinstance(node, Request):
            return Request(node.request, node.policy,
                           rename(node.body, scope))
        if isinstance(node, Framing):
            return Framing(node.policy, rename(node.body, scope))
        raise TypeError(f"not a history expression: {node!r}")

    return rename(term, {})


def _binder_bodies(term: HistoryExpression) -> dict[str, HistoryExpression]:
    """The body of each (unique) ``μ`` binder in *term*."""
    bodies: dict[str, HistoryExpression] = {}
    for node in term.walk():
        if isinstance(node, Mu):
            bodies[node.var] = node.body
    return bodies
