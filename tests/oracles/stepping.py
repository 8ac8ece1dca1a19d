"""Memo-less network stepping and the tree-diff participant oracle: the
references for :func:`repro.network.semantics.network_transitions` and
for the ``participants`` its transitions carry.

:func:`tree_moves` recomputes the moves of every sub-tree of every tree
it is asked about, as ``tree_moves`` did before it kept a memo.
:func:`network_transitions` steps a configuration with it and decides
the validity filter on the whole extended history with
:func:`~repro.core.validity.is_valid`, not with the monitor a component
carries.  :mod:`tests.network.test_incremental_stepping` requires the
same transitions, in the same order and with equal successors, from the
simulator's memoised stepping on every tick of seeded supervised runs.

:func:`involved_locations` is how the fault layer named a transition's
participants before transitions carried them: the multiset difference of
the moved component's leaves before and after the move.  It misses a
participant whose term the move leaves unchanged (terms are interned,
so a one-action loop steps to itself), and names every other one.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.core.plans import Plan
from repro.core.validity import is_valid
from repro.network.config import (Component, Configuration, Leaf,
                                  SessionNode, SessionTree, leaves)
from repro.network.repository import Repository
from repro.network.semantics import (NetworkTransition, TreeMove,
                                     _leaf_moves, _session_closes,
                                     _synchronisations)


def tree_moves(tree: SessionTree, plan: Plan, repository: Repository,
               commit_outputs: bool = False) -> Iterator[TreeMove]:
    """Every move of *tree*, offers included, recomputing the moves of
    each sub-tree on every call."""
    if isinstance(tree, Leaf):
        yield from _leaf_moves(tree, plan, repository, commit_outputs)
        return
    left_moves = tuple(tree_moves(tree.left, plan, repository,
                                  commit_outputs))
    right_moves = tuple(tree_moves(tree.right, plan, repository,
                                   commit_outputs))
    for move in left_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(move.tree, tree.right),
                           move.appends, move.location, move.channel,
                           move.participants)
    for move in right_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(tree.left, move.tree),
                           move.appends, move.location, move.channel,
                           move.participants)
    if isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf):
        yield from _synchronisations(tree, left_moves, right_moves)
        yield from _session_closes(tree, left_moves)


def network_transitions(configuration: Configuration, plans,
                        repository: Repository,
                        enforce_validity: bool = True,
                        commit_outputs: bool = False
                        ) -> Iterator[NetworkTransition]:
    """All transitions of *configuration*, stepped without a memo."""
    for index, component in enumerate(configuration.components):
        plan = plans if isinstance(plans, Plan) else plans[index]
        for move in tree_moves(component.tree, plan, repository,
                               commit_outputs):
            if not move.is_internal():
                continue
            history = component.history.extend(move.appends)
            if enforce_validity and move.appends and not is_valid(history):
                continue
            successor = configuration.replace(
                index, Component(history, move.tree))
            yield NetworkTransition(index, move.kind, move.label, successor,
                                    move.appends, move.location,
                                    move.channel, move.participants)


def involved_locations(before: SessionTree,
                       after: SessionTree) -> frozenset[str]:
    """The locations whose ``(location, term)`` leaves differ between the
    moved component's session tree *before* and *after* a move (their
    symmetric multiset difference)."""
    before_leaves = Counter((leaf.location, leaf.term)
                            for leaf in leaves(before))
    after_leaves = Counter((leaf.location, leaf.term)
                           for leaf in leaves(after))
    changed = (before_leaves - after_leaves) + (after_leaves - before_leaves)
    return frozenset(location for location, _term in changed)
