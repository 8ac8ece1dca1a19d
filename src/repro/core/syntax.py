"""Abstract syntax of history expressions (paper, Definition 1).

The grammar is::

    H ::= ε | h | μh.H | (Σ_{i∈I} a_i.H_i) | (⊕_{i∈I} ā_i.H_i) | α
        | H·H | open_{r,φ} H close_{r,φ} | φ[H]

Nodes are immutable, compared structurally and hashable, so history
expressions can be used directly as states of the transition systems built
in :mod:`repro.core.semantics`.

Nodes are *hash-consed*: every constructor call goes through one table per
node class, so equal terms are one shared object.  Each node stores, at
construction and in O(1) from its children, its hash, its free recursion
variables and (for :class:`Seq`) whether it is already in the normal form
that :func:`seq` produces.  Hashing, ``free_variables`` and re-sequencing a
normal tail therefore never re-walk a term.  A fourth fact, the node's
transitions, is filled lazily by :func:`repro.core.semantics.step`.

Two *run-time* leaves complement the surface grammar:

* :class:`ClosePending` — the residual ``close_{r,φ}`` left behind once a
  session has been opened (rule S-Open rewrites
  ``open_{r,φ}·H·close_{r,φ}`` to ``H·close_{r,φ}``);
* :class:`FrameClosePending` — the residual ``Mφ`` left behind once a
  framing has been entered (rule P-Open rewrites ``φ[H]`` to ``H·Mφ``).

The structural congruence ``ε·H ≡ H ≡ H·ε`` is enforced by the smart
constructor :func:`seq`, which all library code uses instead of building
:class:`Seq` nodes directly.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator, Union

from repro.core.actions import Event, Receive, Send

#: The free variables of every closed term: one shared empty set.
_CLOSED: frozenset[str] = frozenset()

_set = object.__setattr__


def _union(sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """Union of free-variable sets, reusing an operand where possible."""
    result = _CLOSED
    for free in sets:
        if free and free is not result:
            result = result | free if result else free
    return result


class _Entry(weakref.ref):
    """A table's weak reference to a node, carrying the node's key."""

    __slots__ = ("key",)


def _evict(table: dict, entry: _Entry,
           _finalizing=sys.is_finalizing) -> None:
    """Weak-reference callback: drop *entry* once its node is gone.

    Only the entry itself is dropped, never a newer one for the same key.
    Without a lock, a thread racing in between can at worst lose its own
    fresh entry, which costs sharing, not correctness.  Does nothing at
    interpreter shutdown: the table is about to go anyway, and finding
    the key may compare keys holding policies whose ``__eq__`` reads
    module globals that are already torn down."""
    if not _finalizing() and table.get(entry.key) is entry:
        table.pop(entry.key, None)


class _Interned(type):
    """Metaclass of the node classes: the one constructor path.

    A call ``Cls(*fields)`` returns the live node with the same intern key
    if there is one, and otherwise builds the node, stores its facts and
    enters it in ``Cls``'s weak-value table.  Keys name sub-terms by
    identity (they are interned already), so a lookup costs O(1) whatever
    the size of the term.  Two threads racing on one key may both build a
    node; the duplicate only costs sharing, because equality stays
    structural.
    """

    def __init__(cls, name, bases, namespace) -> None:
        super().__init__(name, bases, namespace)
        cls._table = {}
        cls._evict = partial(_evict, cls._table)

    def __call__(cls, *fields):
        key = cls._key(*fields)
        table = cls._table
        entry = table.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = super().__call__(*fields)
            _set(node, "_hash", hash(fields))
            _set(node, "_moves", None)
            node._store_facts()
            entry = _Entry(node, cls._evict)
            entry.key = key
            table[key] = entry
        return node


class HistoryExpression(metaclass=_Interned):
    """Abstract base class of all history-expression nodes.

    Concrete nodes are frozen dataclasses built through the interning
    metaclass; the base class holds the stored facts (``_hash``, ``_free``,
    and ``_moves``, which stays ``None`` until the node is first stepped)
    and the shared conveniences (equality, pretty ``str``, iteration).
    """

    __slots__ = ("_hash", "_free", "_moves", "__weakref__")

    @staticmethod
    def _key(*fields: object) -> tuple:
        """The intern key of a node built from *fields*.  A leaf is keyed
        by its fields; a class with sub-terms overrides this to name each
        sub-term by its identity."""
        return fields

    def _store_facts(self) -> None:
        _set(self, "_free", _union(child._free for child in self.children()))

    def children(self) -> tuple["HistoryExpression", ...]:
        """The immediate sub-expressions of this node."""
        return ()

    def walk(self) -> Iterator["HistoryExpression"]:
        """Pre-order traversal of the syntax tree (self included)."""
        stack: list[HistoryExpression] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Identity is only the fast path: a node built twice (threads
        # racing on one key) must still equal its twin.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__match_args__)

    def __repr__(self) -> str:
        # The dataclass repr's text, built without recursion so deep
        # terms print.  It is for people: no decider orders by it.
        out: list[str] = []
        todo: list = [self]
        pop, push = todo.pop, todo.append
        while todo:
            item = pop()
            if item.__class__ is str:
                out.append(item)
            elif item.__class__ is tuple:  # branches, and their pairs
                push(",)" if len(item) == 1 else ")")
                for index in range(len(item) - 1, -1, -1):
                    value = item[index]
                    push(value if isinstance(value, _NESTED)
                         else repr(value))
                    if index:
                        push(", ")
                push("(")
            else:
                opener, fields = item._repr_layout
                push(")")
                for label, get in fields:
                    value = get(item)
                    push(value if isinstance(value, _NESTED)
                         else repr(value))
                    push(label)
                push(opener)
        return "".join(out)

    def __reduce__(self):
        # Copies and unpickled nodes go through the interning constructor.
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__match_args__)

    def __str__(self) -> str:  # pragma: no cover - delegated to pretty
        from repro.lang.pretty import pretty
        return pretty(self)


#: Field values that :meth:`HistoryExpression.__repr__` expands itself.
_NESTED = (HistoryExpression, tuple)


def _node(cls: type) -> type:
    """Make *cls* a frozen, slotted dataclass node.  Equality, hashing and
    ``repr`` are the base class's; record the layout ``repr`` prints: the
    opener (``Seq(``) and each field's label and getter, last first."""
    cls = dataclass(frozen=True, slots=True, eq=False, repr=False)(cls)
    cls._repr_layout = (f"{cls.__qualname__}(", tuple(
        (f"{', ' if index else ''}{name}=", attrgetter(name))
        for index, name in enumerate(cls.__match_args__))[::-1])
    return cls


@_node
class Epsilon(HistoryExpression):
    """The empty history expression ``ε``: it cannot do anything."""


#: The canonical ``ε`` term (``Epsilon()`` returns this very object).
EPSILON = Epsilon()


@_node
class Var(HistoryExpression):
    """A recursion variable ``h``."""

    name: str

    def _store_facts(self) -> None:
        _set(self, "_free", frozenset((self.name,)))


@_node
class Mu(HistoryExpression):
    """Tail recursion ``μh.H``.

    The calculus restricts bodies to be *tail* recursive and *guarded* by a
    communication action; :mod:`repro.core.wellformed` checks both.
    """

    var: str
    body: HistoryExpression

    @staticmethod
    def _key(var, body):
        return var, id(body)

    def _store_facts(self) -> None:
        free = self.body._free
        if self.var in free:
            free = free - {self.var} or _CLOSED
        _set(self, "_free", free)

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)


@_node
class EventNode(HistoryExpression):
    """A single access event ``α``."""

    event: Event

    @staticmethod
    def _key(event):
        # ``@p(45)`` and ``@p(45.0)`` are equal events, but each node must
        # keep printing as written: key the parameters with their types.
        return event, tuple(map(type, event.params))

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


@_node
class Seq(HistoryExpression):
    """Sequential composition ``H·H'``.

    Built via :func:`seq`, which normalises away ``ε`` operands and
    right-associates nested sequences so that structurally-congruent terms
    are represented by identical trees.  ``_normal`` records whether this
    node already has that shape, so :func:`seq` can reuse it as a tail
    without re-flattening it.  Built directly, ``Seq(ε, ε)`` is not
    normal: it is stuck, not terminated.
    """

    first: HistoryExpression
    second: HistoryExpression
    _normal: bool = field(init=False, repr=False, compare=False)

    @staticmethod
    def _key(first, second):
        return id(first), id(second)

    def _store_facts(self) -> None:
        first, second = self.first, self.second
        _set(self, "_free", _union((first._free, second._free)))
        _set(self, "_normal",
             not isinstance(first, (Seq, Epsilon))
             and not isinstance(second, Epsilon)
             and (not isinstance(second, Seq) or second._normal))

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.first, self.second)


def _branches_key(branches):
    # Flat (label, id, label, id, ...): smaller than a tuple of pairs.
    key: list = []
    for label, cont in branches:
        key += label, id(cont)
    return tuple(key)


@_node
class ExternalChoice(HistoryExpression):
    """External choice ``Σ_{i∈I} a_i.H_i`` over *input* prefixes.

    The choice is driven by the message received: all the inputs are
    available at the same time (single ready set, Definition 3).
    """

    branches: tuple[tuple[Receive, HistoryExpression], ...]

    _key = staticmethod(_branches_key)

    def children(self) -> tuple[HistoryExpression, ...]:
        return tuple(cont for _, cont in self.branches)


@_node
class InternalChoice(HistoryExpression):
    """Internal choice ``⊕_{i∈I} ā_i.H_i`` over *output* prefixes.

    The sender picks one output on its own: each output is a singleton
    ready set (Definition 3).
    """

    branches: tuple[tuple[Send, HistoryExpression], ...]

    _key = staticmethod(_branches_key)

    def children(self) -> tuple[HistoryExpression, ...]:
        return tuple(cont for _, cont in self.branches)


@_node
class Request(HistoryExpression):
    """A service request ``open_{r,φ} H close_{r,φ}``.

    ``request`` is the unique identifier ``r``; ``policy`` is the policy
    ``φ`` imposed on the whole session (``None`` for the empty policy);
    ``body`` is the client's behaviour within the session.
    """

    request: str
    policy: object | None
    body: HistoryExpression

    @staticmethod
    def _key(request, policy, body):
        return request, policy, id(body)

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)


@_node
class ClosePending(HistoryExpression):
    """Run-time residual ``close_{r,φ}`` of an opened session."""

    request: str
    policy: object | None

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


@_node
class Framing(HistoryExpression):
    """A security framing ``φ[H]``: policy ``φ`` is enforced while ``H``
    runs (and, history-dependently, over the whole past)."""

    policy: object
    body: HistoryExpression

    @staticmethod
    def _key(policy, body):
        return policy, id(body)

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)


@_node
class FrameClosePending(HistoryExpression):
    """Run-time residual ``Mφ`` of an entered framing."""

    policy: object

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def seq(*parts: HistoryExpression) -> HistoryExpression:
    """Sequentially compose *parts*, normalising ``ε·H ≡ H ≡ H·ε``.

    Nested sequences are flattened and re-associated to the right, so two
    structurally congruent compositions yield the same tree::

        seq(seq(a, b), c) == seq(a, seq(b, c)) == seq(a, b, c)

    A last operand already in normal form is kept whole as the tail, so
    prefixing a long sequence costs only the prefix.
    """
    flat: list[HistoryExpression] = []
    tail: HistoryExpression = EPSILON
    for part in parts:
        if isinstance(part, Epsilon):
            continue
        if tail is not EPSILON:
            _flatten_seq(tail, flat)
        tail = part
    if isinstance(tail, Seq) and not tail._normal:
        _flatten_seq(tail, flat)
        tail = flat.pop() if flat else EPSILON
    for part in reversed(flat):
        tail = Seq(part, tail)
    return tail


def _flatten_seq(term: HistoryExpression, out: list[HistoryExpression]) -> None:
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        elif not isinstance(node, Epsilon):
            out.append(node)


def event(name: str, *params: object) -> EventNode:
    """Build the event term ``α_name(params)``."""
    return EventNode(Event(name, tuple(params)))  # type: ignore[arg-type]


def send(channel: str,
         continuation: HistoryExpression = EPSILON) -> InternalChoice:
    """A single output prefix ``ā.H`` (a one-branch internal choice)."""
    return InternalChoice(((Send(channel), continuation),))


def receive(channel: str,
            continuation: HistoryExpression = EPSILON) -> ExternalChoice:
    """A single input prefix ``a.H`` (a one-branch external choice)."""
    return ExternalChoice(((Receive(channel), continuation),))


def external(*branches: tuple[str | Receive, HistoryExpression]
             ) -> ExternalChoice:
    """External choice ``Σ a_i.H_i`` from (channel, continuation) pairs."""
    resolved = tuple(
        (label if isinstance(label, Receive) else Receive(label), cont)
        for label, cont in branches)
    return ExternalChoice(resolved)


def internal(*branches: tuple[str | Send, HistoryExpression]
             ) -> InternalChoice:
    """Internal choice ``⊕ ā_i.H_i`` from (channel, continuation) pairs."""
    resolved = tuple(
        (label if isinstance(label, Send) else Send(label), cont)
        for label, cont in branches)
    return InternalChoice(resolved)


def request(rid: str, policy: object | None,
            body: HistoryExpression) -> Request:
    """The session term ``open_{rid,policy} body close_{rid,policy}``."""
    return Request(str(rid), policy, body)


def framing(policy: object, body: HistoryExpression) -> Framing:
    """The security framing ``policy[body]``."""
    return Framing(policy, body)


def mu(var: str, body: HistoryExpression) -> Mu:
    """The recursion ``μvar.body``."""
    return Mu(var, body)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def free_variables(term: HistoryExpression) -> frozenset[str]:
    """The free recursion variables of *term* (stored at construction)."""
    return term._free


def is_closed(term: HistoryExpression) -> bool:
    """True iff *term* has no free recursion variables."""
    return not term._free


def substitute(term: HistoryExpression, var: str,
               replacement: HistoryExpression) -> HistoryExpression:
    """Capture-avoiding substitution ``term{replacement / var}``.

    Because recursion in the calculus is tail recursion over named
    variables, capture can only occur through shadowing ``μ`` binders; an
    inner binder with the same name simply stops the substitution.
    """
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, Mu):
        if term.var == var:
            return term
        if term.var in free_variables(replacement):
            fresh = _fresh_name(term.var,
                                free_variables(replacement)
                                | free_variables(term.body))
            renamed = substitute(term.body, term.var, Var(fresh))
            return Mu(fresh, substitute(renamed, var, replacement))
        return Mu(term.var, substitute(term.body, var, replacement))
    if isinstance(term, Seq):
        return seq(substitute(term.first, var, replacement),
                   substitute(term.second, var, replacement))
    if isinstance(term, ExternalChoice):
        return ExternalChoice(tuple(
            (label, substitute(cont, var, replacement))
            for label, cont in term.branches))
    if isinstance(term, InternalChoice):
        return InternalChoice(tuple(
            (label, substitute(cont, var, replacement))
            for label, cont in term.branches))
    if isinstance(term, Request):
        return Request(term.request, term.policy,
                       substitute(term.body, var, replacement))
    if isinstance(term, Framing):
        return Framing(term.policy, substitute(term.body, var, replacement))
    return term


def _fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid_set = set(avoid)
    candidate = base
    counter = 0
    while candidate in avoid_set:
        counter += 1
        candidate = f"{base}_{counter}"
    return candidate


def unfold(term: Mu) -> HistoryExpression:
    """One unfolding ``H{μh.H / h}`` of a recursion."""
    return substitute(term.body, term.var, term)


def requests_of(term: HistoryExpression) -> tuple[Request, ...]:
    """All :class:`Request` subterms of *term*, in pre-order.

    This includes requests nested inside other requests (nested sessions).
    """
    return tuple(node for node in term.walk() if isinstance(node, Request))


def events_of(term: HistoryExpression) -> frozenset[Event]:
    """All concrete access events syntactically occurring in *term*."""
    return frozenset(node.event for node in term.walk()
                     if isinstance(node, EventNode))


def channels_of(term: HistoryExpression) -> frozenset[str]:
    """All channel names occurring in *term* (inputs and outputs alike)."""
    channels: set[str] = set()
    for node in term.walk():
        if isinstance(node, ExternalChoice):
            channels.update(label.channel for label, _ in node.branches)
        elif isinstance(node, InternalChoice):
            channels.update(label.channel for label, _ in node.branches)
    return frozenset(channels)


def policies_of(term: HistoryExpression) -> frozenset[object]:
    """All policies mentioned by framings or requests of *term*."""
    found: set[object] = set()
    for node in term.walk():
        if isinstance(node, (Framing, FrameClosePending)):
            found.add(node.policy)
        elif isinstance(node, (Request, ClosePending)):
            if node.policy is not None:
                found.add(node.policy)
    return frozenset(found)


#: Union type of every concrete node class (useful for exhaustive matches).
Node = Union[Epsilon, Var, Mu, EventNode, Seq, ExternalChoice, InternalChoice,
             Request, ClosePending, Framing, FrameClosePending]
