"""The assembled behaviour of one client under a plan.

Section 3.1 of the paper: "the idea is to suitably assemble the history
expressions H, H', H'', … recording in a plan for H which service to
invoke for each request, so obtaining the pair ⟨Ĥ, π⟩".

Rather than assembling a syntactic history expression (whose interleaving
of client and service activity would have to be encoded with an auxiliary
shuffle operator), we assemble the *transition system* of the composition
directly, by running the network semantics of a single component with the
validity filter off.  States are session trees; labels carry the rule,
the underlying action and the history labels the move appends.  This is
exact: the component's reachable histories are precisely the label
sequences of this LTS.

The assembled LTS is what both halves of the static analysis consume:

* the security checker of :mod:`repro.analysis.security` verifies that
  every trace yields a valid history;
* deadlocked states (non-terminated trees without moves) witness missing
  communications — the whole-system counterpart of non-compliance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import HistoryLabel, Label
from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression
from repro.network.config import (Leaf, SessionTree,
                                  is_successfully_terminated)
from repro.network.repository import Repository
from repro.network.semantics import tree_moves
from repro.contracts.lts import DEFAULT_STATE_LIMIT, LTS, build_lts


@dataclass(frozen=True, slots=True)
class ProductLabel:
    """A label of the assembled LTS: the network rule that fired, the
    underlying action, and the history labels appended by the move."""

    rule: str
    action: Label
    appends: tuple[HistoryLabel, ...] = ()

    def __str__(self) -> str:
        if self.appends:
            inner = "·".join(str(label) for label in self.appends)
            return f"{self.rule}:{inner}"
        return f"{self.rule}:{self.action}"


#: The LTS type of assembled client behaviours.
SessionLTS = LTS[SessionTree, ProductLabel]


def assemble(client: HistoryExpression, plan: Plan,
             repository: Repository, location: str = "client",
             max_states: int = DEFAULT_STATE_LIMIT,
             commit_outputs: bool = True) -> SessionLTS:
    """The assembled LTS of *client* running at *location* under *plan*.

    Unserved requests (no plan binding / unknown location) simply produce
    no ``open`` move, which leaves the tree deadlocked there — the
    deadlock detection then reports the incomplete plan.

    *commit_outputs* (default on) includes the demonic
    output-commitment steps, so :func:`deadlocked_trees` sees the stuck
    states caused by unhandleable internal choices; the commitment steps
    append no history labels, so the security check is unaffected either
    way.

    One memo serves the whole exploration, so each state shares the
    moves of the sub-trees it has in common with the states explored
    before it.
    """

    memo: dict = {}

    def successors(tree: SessionTree):
        for move in tree_moves(tree, plan, repository, commit_outputs, memo):
            if not move.is_internal():
                continue
            yield ProductLabel(move.kind, move.label, move.appends), move.tree

    return build_lts(Leaf(location, client), successors,
                     max_states=max_states)


def deadlocked_trees(lts: SessionLTS) -> frozenset[SessionTree]:
    """Reachable trees with no move that are not successfully terminated.

    Each such tree is a reachable configuration in which the client (or a
    service acting for it) waits forever: an output nobody accepts, an
    input nobody sends, or a request the plan does not serve.
    """
    return frozenset(tree for tree in lts.deadlocks()
                     if not is_successfully_terminated(tree))


def is_unfailing(lts: SessionLTS) -> bool:
    """True iff no reachable deadlocked (non-terminated) tree exists."""
    return not deadlocked_trees(lts)
