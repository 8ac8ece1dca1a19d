"""Network configurations: located services and (nested) sessions (Def. 2).

The grammar of networks is::

    N ::= N ∥ N | S          S ::= ℓ:H | [S, S]

A :class:`Leaf` is a located service ``ℓ:H``; a :class:`SessionNode` is a
session ``[S, S']`` whose *left* element is the participant that opened
the session (and therefore holds the ``close_{r,φ}`` residual).  Sessions
nest: a service engaged in a session may open a new one, which must be
closed before the enclosing session can be.

A :class:`Component` pairs a session tree with the execution history
``η`` it has produced; a :class:`Configuration` is the parallel
composition ``∥_i η_i, S_i`` of components.  All values are immutable and
hashable, so configurations serve directly as states for exhaustive
exploration.  Session trees store their hash at construction, as terms
do, so keying a set or dict on a tree never re-walks it.  A component
likewise stores, outside equality, hash and repr, the validity monitor
that has consumed its history, so the angelic filter of
:mod:`repro.network.semantics` checks only the labels a move appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.core.semantics import is_terminated
from repro.core.syntax import (FrameClosePending, HistoryExpression, Seq)
from repro.core.validity import History, ValidityMonitor


@dataclass(frozen=True, slots=True)
class Leaf:
    """A located service ``ℓ:H``."""

    location: str
    term: HistoryExpression
    #: ``hash((location, term))``, the hash the dataclass would compute.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.location, self.term)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.location}:{self.term}"


@dataclass(frozen=True, slots=True)
class SessionNode:
    """A session ``[S, S']``; ``left`` opened the session."""

    left: "SessionTree"
    right: "SessionTree"
    #: ``hash((left, right))``, the hash the dataclass would compute.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"[{self.left}, {self.right}]"


#: A session tree ``S``.
SessionTree = Union[Leaf, SessionNode]


def leaves(tree: SessionTree) -> Iterator[Leaf]:
    """All leaves of *tree*, left to right."""
    if isinstance(tree, Leaf):
        yield tree
        return
    yield from leaves(tree.left)
    yield from leaves(tree.right)


def locations(tree: SessionTree) -> tuple[str, ...]:
    """The locations occurring in *tree*, left to right."""
    return tuple(leaf.location for leaf in leaves(tree))


def session_depth(tree: SessionTree) -> int:
    """Nesting depth of sessions (0 for a bare located service)."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(session_depth(tree.left), session_depth(tree.right))


def is_successfully_terminated(tree: SessionTree) -> bool:
    """True iff *tree* is a single located ``ε`` — all work done and all
    sessions closed."""
    return isinstance(tree, Leaf) and is_terminated(tree.term)


def pending_frame_closes(term: HistoryExpression) -> tuple:
    """The auxiliary function ``Φ`` of rule *Close*.

    ``Φ(H1·H2) = Φ(H1)·Φ(H2)``, ``Φ(Mφ) = Mφ``, ``Φ(H) = ε`` otherwise:
    collects the close framings still pending in a terminated-early
    service, so the client's history stays balanced.
    """
    from repro.core.actions import FrameClose

    if isinstance(term, Seq):
        return (pending_frame_closes(term.first)
                + pending_frame_closes(term.second))
    if isinstance(term, FrameClosePending):
        return (FrameClose(term.policy),)
    return ()


@dataclass(frozen=True, slots=True)
class Component:
    """One parallel component ``η, S`` of a configuration."""

    history: History
    tree: SessionTree
    #: The :class:`ValidityMonitor` that has consumed ``history``:
    #: replayed on first :meth:`monitor` call, or handed over by the
    #: move that produced the component.  Never extended in place.
    _monitor: ValidityMonitor | None = field(default=None, init=False,
                                             repr=False, compare=False)

    @staticmethod
    def client(location: str, term: HistoryExpression) -> "Component":
        """A fresh client ``ε, ℓ:H`` with the empty history."""
        return Component(History(), Leaf(location, term))

    @staticmethod
    def _carrying(history: History, tree: SessionTree,
                  monitor: ValidityMonitor | None) -> "Component":
        """``Component(history, tree)`` holding *monitor*, which must have
        consumed exactly *history* (``None``: replay on first use)."""
        component = Component(history, tree)
        if monitor is not None:
            object.__setattr__(component, "_monitor", monitor)
        return component

    def monitor(self) -> ValidityMonitor:
        """The validity monitor that has consumed ``history``.

        Shared with every component holding the same history, so callers
        must :meth:`~ValidityMonitor.copy` it before extending it.
        """
        monitor = self._monitor
        if monitor is None:
            monitor = ValidityMonitor(self.history)
            object.__setattr__(self, "_monitor", monitor)
        return monitor

    def with_tree(self, tree: SessionTree) -> "Component":
        """``η, tree``: the same history on another session tree, sharing
        this component's monitor."""
        return Component._carrying(self.history, tree, self._monitor)

    def is_terminated(self) -> bool:
        """True iff the component has successfully finished."""
        return is_successfully_terminated(self.tree)

    def __str__(self) -> str:
        return f"{self.history}, {self.tree}"


@dataclass(frozen=True, slots=True)
class Configuration:
    """A network configuration ``∥_i η_i, S_i``."""

    components: tuple[Component, ...]

    @staticmethod
    def of(*components: Component) -> "Configuration":
        """Build a configuration from components, in client order."""
        return Configuration(tuple(components))

    def replace(self, index: int, component: Component) -> "Configuration":
        """The configuration with component *index* replaced."""
        updated = list(self.components)
        updated[index] = component
        return Configuration(tuple(updated))

    def is_terminated(self) -> bool:
        """True iff every component has successfully finished."""
        return all(component.is_terminated()
                   for component in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> Component:
        return self.components[index]

    def __str__(self) -> str:
        return " ∥ ".join(str(component) for component in self.components)
