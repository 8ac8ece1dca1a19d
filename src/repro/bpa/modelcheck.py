"""Validity model checking of stand-alone history expressions via BPA.

The pipeline of Section 3.1:

1. :func:`~repro.bpa.regularize.regularize` the expression so that no
   policy is ever framed twice at once (activation counts become
   booleans);
2. translate to BPA (:func:`~repro.bpa.translate.to_bpa`) and build its
   finite transition system;
3. run the product with one *framed automaton* per policy: the policy's
   usage automaton extended with an in-framing flag — it always consumes
   events (validity is history dependent) but only *flags* a violation
   while the framing is open.

The product is a plain finite-state safety check; a violation state is
reachable iff some history of the expression is invalid.  The test suite
cross-validates this checker against the declarative
:func:`repro.core.validity.is_valid` on enumerated traces and against the
network-level checker of :mod:`repro.analysis.security`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.actions import Event, FrameClose, FrameOpen
from repro.core.errors import StateSpaceLimitError
from repro.core.syntax import HistoryExpression, policies_of
from repro.contracts.lts import DEFAULT_PRODUCT_LIMIT
from repro.policies.usage_automata import Policy, PolicyRunner
from repro.bpa.regularize import regularize
from repro.bpa.translate import to_bpa


class FramedAutomaton:
    """The framed variant ``φ[]`` of a policy automaton.

    Wraps a :class:`~repro.policies.usage_automata.PolicyRunner` with an
    *active* flag: events always advance the runner, but only an active,
    violating runner makes the product state bad.  After regularisation
    the flag is a boolean (no double activation).
    """

    __slots__ = ("policy",)

    def __init__(self, policy: Policy) -> None:
        self.policy = policy

    def initial(self) -> tuple:
        """The initial framed state (fresh runner, framing closed)."""
        return (PolicyRunner(self.policy).freeze(), False)

    def advance(self, state: tuple, label: object) -> tuple[tuple, bool]:
        """One step; returns ``(new_state, bad)``."""
        frozen, active = state
        if isinstance(label, Event):
            runner = PolicyRunner.from_frozen(self.policy, frozen)
            runner.step(label)
            new_state = (runner.freeze(), active)
            return new_state, active and runner.in_violation
        if isinstance(label, FrameOpen) and label.policy == self.policy:
            return (frozen, True), frozen.violated
        if isinstance(label, FrameClose) and label.policy == self.policy:
            return (frozen, False), False
        return state, False


@dataclass(frozen=True)
class BPAValidityReport:
    """Outcome of the BPA validity check."""

    valid: bool
    states_checked: int
    counterexample: tuple | None = None
    violated_policy: Policy | None = None

    def __bool__(self) -> bool:
        return self.valid


def check_validity_bpa(term: HistoryExpression,
                       max_states: int = DEFAULT_PRODUCT_LIMIT
                       ) -> BPAValidityReport:
    """Decide whether every history of *term* is valid.

    Communications and session actions in the BPA traces are skipped by
    the framed automata (they are not history labels); only events and
    framings matter.
    """
    regular = regularize(term)
    system = to_bpa(regular)
    lts = system.lts(max_states=max_states)
    automata = [FramedAutomaton(policy) for policy in
                sorted(policies_of(regular), key=str)]

    initial = (lts.initial,
               tuple(automaton.initial() for automaton in automata))
    seen = {initial}
    frontier = deque([(initial, ())])
    states_checked = 0

    while frontier:
        (process, framed_states), path = frontier.popleft()
        states_checked += 1
        for label, successor in lts.moves(process):
            new_framed = []
            bad_policy: Policy | None = None
            for automaton, state in zip(automata, framed_states):
                new_state, bad = automaton.advance(state, label)
                new_framed.append(new_state)
                if bad and bad_policy is None:
                    bad_policy = automaton.policy
            new_path = path + (label,)
            if bad_policy is not None:
                return BPAValidityReport(False, states_checked,
                                         counterexample=new_path,
                                         violated_policy=bad_policy)
            next_state = (successor, tuple(new_framed))
            if next_state not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states, "BPA product")
                seen.add(next_state)
                frontier.append((next_state, new_path))
    return BPAValidityReport(True, states_checked)
