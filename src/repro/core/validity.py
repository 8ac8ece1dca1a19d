"""Execution histories and their validity (paper, Section 3.1).

A history ``η ∈ (Ev ∪ Frm)*`` records the access events fired so far,
interleaved with the framing actions ``Lφ``/``Mφ`` that open and close
policy activations.  Validity is *history dependent*:

    ``η`` is valid (``|= η``) when for every split ``η = η0·η1`` and every
    policy ``φ ∈ AP(η0)``, the flattened prefix ``η0♭`` respects ``φ``.

``AP(η)`` is the multiset of policies opened but not yet closed in ``η``
and ``η♭`` erases all framing actions.  The paper's example: with ``φ`` =
"no α after γ", the history ``γ·α·Lφ·β`` is **not** valid — when ``β``
fires, ``φ`` is active and the prefix ``γα`` already disobeys it — whereas
``Lφ·γ·Mφ·α·β`` is valid because ``φ`` is no longer active when ``α``
fires.

Two implementations are provided: the declarative :func:`is_valid`
(literally the definition, quadratic) and the incremental
:class:`ValidityMonitor`, which is also the run-time reference monitor
that a *valid plan* lets you switch off.

The network's angelic filter (:mod:`repro.network.semantics`) runs on the
monitor each component carries, extended by the labels a move appends.
:func:`is_valid` is the oracle it is checked against: the exhaustive
explorer, the chaos harness's per-trial history check, the simulator's
``all_histories_valid``/``violations`` and the property suites all call
it, so a bug in the incremental filter cannot hide behind itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.actions import (Event, FrameClose, FrameOpen, HistoryLabel,
                                is_history_label)
from repro.policies.usage_automata import Policy, PolicyRunner


class History(tuple):
    """An execution history: an immutable sequence of events and framings.

    Behaves as a tuple of :class:`~repro.core.actions.Event`,
    :class:`~repro.core.actions.FrameOpen` and
    :class:`~repro.core.actions.FrameClose` labels, with the paper's
    derived notions as methods.
    """

    __slots__ = ()

    def __new__(cls, labels: Iterable[HistoryLabel] = ()) -> "History":
        if type(labels) is History:
            # Labels coming from a History were validated when it was
            # built; don't re-check them.
            return super().__new__(cls, labels)
        items = tuple(labels)
        for item in items:
            if not is_history_label(item):
                raise TypeError(
                    f"{item!r} is not a history label (Ev ∪ Frm)")
        return super().__new__(cls, items)

    @classmethod
    def _trusted(cls, items: tuple) -> "History":
        """Wrap an already-validated tuple of labels, skipping the
        per-label check — internal fast path for growing histories.

        Callers must only pass labels that individually passed
        :func:`~repro.core.actions.is_history_label`; anything else would
        corrupt the invariant every other method relies on.
        """
        return super().__new__(cls, items)

    def append(self, label: HistoryLabel) -> "History":
        """The history ``η·label``.

        Only *label* is validated — the existing labels were checked when
        this history was built, so construction by repeated appends is
        linear, not quadratic.
        """
        if not is_history_label(label):
            raise TypeError(f"{label!r} is not a history label (Ev ∪ Frm)")
        return History._trusted(tuple(self) + (label,))

    def extend(self, labels: Iterable[HistoryLabel]) -> "History":
        """The history ``η·labels`` (only the new labels are validated)."""
        items = tuple(labels)
        if not isinstance(labels, History):
            for item in items:
                if not is_history_label(item):
                    raise TypeError(
                        f"{item!r} is not a history label (Ev ∪ Frm)")
        return History._trusted(tuple(self) + items)

    def __add__(self, other: Iterable[HistoryLabel]) -> "History":  # type: ignore[override]
        return self.extend(other)

    def flatten(self) -> tuple[Event, ...]:
        """``η♭`` — the history with every framing action erased."""
        return tuple(label for label in self if isinstance(label, Event))

    def active_policies(self) -> Counter:
        """``AP(η)`` — the multiset of policies opened but not closed."""
        active: Counter = Counter()
        for label in self:
            if isinstance(label, FrameOpen):
                active[label.policy] += 1
            elif isinstance(label, FrameClose):
                active[label.policy] -= 1
                if active[label.policy] <= 0:
                    del active[label.policy]
        return active

    def prefixes(self) -> Iterator["History"]:
        """All prefixes ``η0`` of ``η``, shortest first, including ``η``
        itself and the empty history."""
        for cut in range(len(self) + 1):
            yield History._trusted(self[:cut])

    def is_balanced(self) -> bool:
        """True iff the history matches the balanced grammar:
        ``η = ε | α | Lφ·η'·Mφ (η' balanced) | η'·η'' (both balanced)``.

        Properly nested framings only: ``Lφ1·Lφ2·Mφ1·Mφ2`` is *not*
        balanced.
        """
        depth = self._nesting_stack()
        return depth is not None and not depth

    def is_prefix_of_balanced(self) -> bool:
        """True iff some extension of the history is balanced — the shape
        of every history showing up while executing a network."""
        return self._nesting_stack() is not None

    def _nesting_stack(self) -> list | None:
        stack: list = []
        for label in self:
            if isinstance(label, FrameOpen):
                stack.append(label.policy)
            elif isinstance(label, FrameClose):
                if not stack or stack[-1] != label.policy:
                    return None
                stack.pop()
        return stack

    def __str__(self) -> str:
        if not self:
            return "ε"
        return "·".join(str(label) for label in self)


#: The empty history ``ε``.
EMPTY_HISTORY = History()


def is_valid(history: History | Iterable[HistoryLabel]) -> bool:
    """``|= η`` — the declarative validity check (the literal definition).

    For every prefix ``η0`` and every policy active in it, the flattened
    prefix must respect the policy.
    """
    eta = history if isinstance(history, History) else History(history)
    for prefix in eta.prefixes():
        flat = prefix.flatten()
        for policy in prefix.active_policies():
            if not policy.respects(flat):
                return False
    return True


def first_invalid_prefix(history: History | Iterable[HistoryLabel]
                         ) -> History | None:
    """The shortest invalid prefix of *history*, or ``None`` when valid."""
    eta = history if isinstance(history, History) else History(history)
    for prefix in eta.prefixes():
        flat = prefix.flatten()
        for policy in prefix.active_policies():
            if not policy.respects(flat):
                return prefix
    return None


@dataclass
class _ActivePolicy:
    """One policy with a live runner and its activation count."""

    runner: PolicyRunner
    activations: int


class ValidityMonitor:
    """Incremental validity checking — the run-time reference monitor.

    Feed the history one label at a time through :meth:`can_extend` /
    :meth:`extend`.  The monitor keeps one
    :class:`~repro.policies.usage_automata.PolicyRunner` per *distinct*
    active policy; when a framing opens, the runner replays the past
    events (validity is history dependent), and from then on each event
    advances all live runners in one pass.

    The monitor is exactly as permissive as :func:`is_valid`: a label may
    be appended iff the resulting history is valid, assuming the current
    one is.
    """

    def __init__(self, history: Iterable[HistoryLabel] = ()) -> None:
        self._events: list[Event] = []
        self._active: dict[Policy, _ActivePolicy] = {}
        self._valid = True
        for label in history:
            self.extend(label)

    @property
    def valid(self) -> bool:
        """True iff the history consumed so far is valid."""
        return self._valid

    @property
    def events(self) -> tuple[Event, ...]:
        """``η♭`` of the consumed history."""
        return tuple(self._events)

    def active_policies(self) -> Counter:
        """``AP(η)`` of the consumed history."""
        return Counter({policy: entry.activations
                        for policy, entry in self._active.items()})

    def can_extend(self, label: HistoryLabel) -> bool:
        """Would ``η·label`` still be valid?  (Does not mutate.)

        This is the enabling check of the network semantics: a transition
        labelled ``γ`` may fire only if ``|= η·γ``.
        """
        if not self._valid:
            return False
        if isinstance(label, Event):
            for entry in self._active.values():
                if self._would_violate(entry.runner, label):
                    return False
            return True
        if isinstance(label, FrameOpen):
            policy = label.policy
            if policy in self._active:
                return True  # the runner is live and non-violating
            probe = policy.runner()
            for past in self._events:
                probe.step(past)
            return not probe.in_violation
        if isinstance(label, FrameClose):
            return True
        raise TypeError(f"{label!r} is not a history label")

    def blame(self, label: HistoryLabel) -> tuple[Policy, ...]:
        """The policies that refuse ``η·label`` — the machine-readable
        cause behind a ``can_extend(label) == False`` verdict.

        Empty when the extension is fine (or when validity was already
        broken by an earlier label, in which case no single policy can
        be blamed for *this* one).
        """
        if not self._valid:
            return ()
        if isinstance(label, Event):
            return tuple(policy
                         for policy, entry in self._active.items()
                         if self._would_violate(entry.runner, label))
        if isinstance(label, FrameOpen):
            policy = label.policy
            if policy in self._active:
                return ()
            probe = policy.runner()
            for past in self._events:
                probe.step(past)
            return (policy,) if probe.in_violation else ()
        return ()

    def extend(self, label: HistoryLabel) -> bool:
        """Append *label*; returns the new validity verdict.

        Unlike :meth:`can_extend` this records the label even when it
        breaks validity (so the monitor can report *what* went wrong).
        """
        if isinstance(label, Event):
            self._events.append(label)
            for entry in self._active.values():
                entry.runner.step(label)
                if entry.runner.in_violation:
                    self._valid = False
            return self._valid
        if isinstance(label, FrameOpen):
            policy = label.policy
            entry = self._active.get(policy)
            if entry is None:
                runner = policy.runner()
                for past in self._events:
                    runner.step(past)
                entry = _ActivePolicy(runner, 0)
                self._active[policy] = entry
                if runner.in_violation:
                    self._valid = False
            entry.activations += 1
            return self._valid
        if isinstance(label, FrameClose):
            policy = label.policy
            entry = self._active.get(policy)
            if entry is not None:
                entry.activations -= 1
                if entry.activations <= 0:
                    del self._active[policy]
            return self._valid
        raise TypeError(f"{label!r} is not a history label")

    def copy(self) -> "ValidityMonitor":
        """An independent snapshot (used when exploring branching runs).

        Live runners are forked in O(their table) rather than rebuilt by
        replaying the whole event history per active policy.
        """
        clone = ValidityMonitor()
        clone._events = list(self._events)
        clone._valid = self._valid
        for policy, entry in self._active.items():
            clone._active[policy] = _ActivePolicy(entry.runner.fork(),
                                                  entry.activations)
        return clone

    @staticmethod
    def _would_violate(runner: PolicyRunner, event: Event) -> bool:
        """Check one event against a runner without mutating it."""
        probe = runner.fork()
        probe.step(event)
        return probe.in_violation
