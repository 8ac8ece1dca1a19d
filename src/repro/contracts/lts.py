"""A generic finite labelled transition system (LTS) substrate.

The paper's constructions (projection, ready sets, the product automaton
of Definition 5) operate on the *finite* transition systems generated by
well-formed history expressions.  This module provides an explicit-state
LTS value type plus :func:`build_lts`, which materialises the reachable
fragment of any implicit transition relation given as a successor
function.  Validity is decided without one: the monitored search of
:mod:`repro.analysis.security` generates its moves on the fly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generic, Hashable, Iterable, KeysView, TypeVar

from repro.core.errors import StateSpaceLimitError

State = TypeVar("State", bound=Hashable)
LabelT = TypeVar("LabelT", bound=Hashable)

#: Default bound on explored states; far above anything the examples need,
#: but finite so that a non-well-formed input fails fast instead of hanging.
#: Every LTS, product and certifier search defaults to it.
DEFAULT_STATE_LIMIT = 200_000

#: Default bound on the states of the policy-monitoring products (session
#: tree × monitor in :mod:`repro.analysis.security`, BPA × framed
#: automaton in :mod:`repro.bpa.modelcheck`).
DEFAULT_PRODUCT_LIMIT = 500_000


@dataclass(frozen=True)
class LTS(Generic[State, LabelT]):
    """An explicit finite labelled transition system.

    ``transitions`` maps each reachable state to its outgoing
    ``(label, successor)`` pairs; every successor is itself a key of
    ``transitions`` (possibly with an empty tuple of moves).
    """

    initial: State
    transitions: dict[State, tuple[tuple[LabelT, State], ...]] = field(
        default_factory=dict)

    # -- basic observations -------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        """All reachable states."""
        return frozenset(self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)

    def moves(self, state: State) -> tuple[tuple[LabelT, State], ...]:
        """Outgoing transitions of *state*."""
        return self.transitions[state]

    @cached_property
    def _adjacency(self) -> dict[State, dict[LabelT, KeysView[State]]]:
        """Label-indexed adjacency: state → label → successors.

        Built once on first use.  Labels and successors keep the order
        of the move list (first occurrence, no duplicates), so every
        search over them visits states in the same order whatever the
        hash seed.
        """
        index: dict[State, dict[LabelT, KeysView[State]]] = {}
        for state, moves in self.transitions.items():
            by_label: dict[LabelT, dict[State, None]] = {}
            for label, target in moves:
                by_label.setdefault(label, {})[target] = None
            index[state] = {label: targets.keys()
                            for label, targets in by_label.items()}
        return index

    def labels_from(self, state: State) -> KeysView[LabelT]:
        """Labels enabled in *state*, in move order (a set-like view)."""
        return self._adjacency[state].keys()

    def alphabet(self) -> frozenset[LabelT]:
        """All labels occurring on any transition."""
        return frozenset(label
                         for moves in self.transitions.values()
                         for label, _ in moves)

    def deadlocks(self) -> frozenset[State]:
        """States with no outgoing transition."""
        return frozenset(state for state, moves in self.transitions.items()
                         if not moves)

    _NO_SUCCESSORS = {}.keys()  # ClassVar; unannotated so not a field

    def successors(self, state: State, label: LabelT) -> KeysView[State]:
        """States reachable from *state* by one *label* transition, in
        move order (a set-like view)."""
        return self._adjacency[state].get(label, self._NO_SUCCESSORS)

    # -- reachability -------------------------------------------------------

    def reachable_from(self, origin: State) -> frozenset[State]:
        """All states reachable from *origin* (inclusive)."""
        seen: set[State] = {origin}
        frontier = deque([origin])
        while frontier:
            state = frontier.popleft()
            for _, target in self.transitions[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def path_to(self, goal: Callable[[State], bool]
                ) -> tuple[tuple[LabelT, State], ...] | None:
        """A shortest labelled path from the initial state to a state
        satisfying *goal*, or ``None`` if unreachable.

        The initial state itself satisfying *goal* yields the empty path.
        """
        if goal(self.initial):
            return ()
        parents: dict[State, tuple[State, LabelT]] = {}
        seen: set[State] = {self.initial}
        frontier = deque([self.initial])
        while frontier:
            state = frontier.popleft()
            for label, target in self.transitions[state]:
                if target in seen:
                    continue
                seen.add(target)
                parents[target] = (state, label)
                if goal(target):
                    path: list[tuple[LabelT, State]] = []
                    node = target
                    while node != self.initial:
                        parent, lab = parents[node]
                        path.append((lab, node))
                        node = parent
                    path.reverse()
                    return tuple(path)
                frontier.append(target)
        return None

    # -- transformations ----------------------------------------------------

    def renumber(self) -> "LTS[int, LabelT]":
        """An isomorphic LTS over dense integer states (BFS numbering).

        Useful to compare transition systems of different syntactic origins
        and to keep benchmark state hashing cheap.
        """
        order: dict[State, int] = {self.initial: 0}
        frontier = deque([self.initial])
        while frontier:
            state = frontier.popleft()
            for _, target in self.transitions[state]:
                if target not in order:
                    order[target] = len(order)
                    frontier.append(target)
        return LTS(0, {
            order[state]: tuple((label, order[target])
                                for label, target in self.transitions[state])
            for state in order})

    def to_dot(self, name: str = "lts",
               label_str: Callable[[LabelT], str] = str) -> str:
        """A Graphviz ``dot`` rendering (states numbered in BFS order)."""
        numbered = self.renumber()
        lines = [f"digraph {name} {{", "  rankdir=LR;",
                 "  node [shape=circle];", "  0 [shape=doublecircle];"]
        for state in sorted(numbered.transitions):
            for label, target in numbered.transitions[state]:
                text = label_str(label).replace('"', '\\"')
                lines.append(f'  {state} -> {target} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)


def build_lts(initial: State,
              successor_fn: Callable[[State],
                                     Iterable[tuple[LabelT, State]]],
              max_states: int = DEFAULT_STATE_LIMIT) -> LTS[State, LabelT]:
    """Materialise the fragment of an implicit LTS reachable from *initial*.

    *successor_fn* maps a state to its ``(label, successor)`` pairs; the
    exploration is a BFS bounded by *max_states*
    (:class:`StateSpaceLimitError` beyond that).
    """
    transitions: dict[State, tuple[tuple[LabelT, State], ...]] = {}
    frontier = deque([initial])
    seen: set[State] = {initial}
    while frontier:
        state = frontier.popleft()
        moves = tuple(successor_fn(state))
        transitions[state] = moves
        for _, target in moves:
            if target not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states)
                seen.add(target)
                frontier.append(target)
    return LTS(initial, transitions)


def bisimilar(a: LTS, b: LTS) -> bool:
    """Strong bisimilarity of two finite LTSs (partition refinement).

    Used by the test suite to validate semantics-preserving
    transformations (e.g. the BPA translation and the framing
    regularisation of Section 3.1).
    """
    a = a.renumber()
    b = b.renumber()
    # Work over the disjoint union; states of `b` are shifted.
    shift = len(a) + 1
    union: dict[int, tuple[tuple[object, int], ...]] = {}
    for state, moves in a.transitions.items():
        union[state] = tuple((label, target) for label, target in moves)
    for state, moves in b.transitions.items():
        union[state + shift] = tuple((label, target + shift)
                                     for label, target in moves)

    # Initial partition: all states together.
    block_of = {state: 0 for state in union}
    changed = True
    while changed:
        changed = False
        signatures: dict[int, dict[tuple, int]] = {}
        new_blocks: dict[int, int] = {}
        next_id = 0
        for state in union:
            signature = tuple(sorted(
                (repr(label), block_of[target])
                for label, target in union[state]))
            bucket = signatures.setdefault(block_of[state], {})
            if signature not in bucket:
                bucket[signature] = next_id
                next_id += 1
            new_blocks[state] = bucket[signature]
        if new_blocks != block_of:
            block_of = new_blocks
            changed = True
    return block_of[a.initial] == block_of[b.initial + shift]
