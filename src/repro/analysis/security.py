"""Static security checking: model checking validity over assembled LTSs.

Section 3.1 reduces validity of the assembled service ``Ĥ`` to a model
checking problem.  Here the assembled behaviour is the session-product
LTS (:mod:`repro.analysis.session_product`); the checker walks its
reachable states paired with an *abstract monitor state*:

* one :class:`~repro.policies.usage_automata.PolicyRunner` per policy
  occurring anywhere in the system — every runner consumes every event,
  whether or not its policy is active, because validity is history
  dependent (a framing opened later judges the whole past);
* the multiset of currently active policies (activation counts).

Runner states are finite (the witness table ranges over the finitely many
event payloads of the system) and activation counts are bounded (framings
are syntactically nested and recursion is tail), so the product is a
finite safety check: a state is *bad* when some active policy's runner is
in violation.  This mirrors the paper's reduction of both security and
compliance to safety properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import Event, FrameClose, FrameOpen
from repro.core.errors import StateSpaceLimitError
from repro.policies.usage_automata import (FrozenRunnerState, Policy,
                                           PolicyRunner)
from repro.contracts.lts import DEFAULT_PRODUCT_LIMIT, LTS
from repro.analysis.session_product import ProductLabel

#: Abstract monitor state: per-policy frozen runner + activation count.
MonitorState = tuple[tuple[Policy, FrozenRunnerState, int], ...]


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of the security model checking.

    On failure, ``counterexample`` is the sequence of product labels of a
    shortest trace leading to a violation and ``violated_policy`` the
    policy whose automaton accepted the flattened history.

    ``skipped`` marks a report produced without model checking — the
    memoized planner prunes the (expensive) security pass for plans
    already invalidated by a failed compliance check; such a report is
    vacuously ``secure`` and checked zero states.
    """

    secure: bool
    states_checked: int
    counterexample: tuple[ProductLabel, ...] | None = None
    violated_policy: Policy | None = None
    skipped: bool = False

    @staticmethod
    def skipped_report() -> "SecurityReport":
        """The placeholder report for a pruned (never-run) security pass."""
        return SecurityReport(True, 0, skipped=True)

    def history_labels(self) -> tuple:
        """The history ``η`` of the counterexample trace: the appended
        labels of every product label, flattened in order.  Empty when the
        check passed (there is no counterexample to flatten)."""
        if self.counterexample is None:
            return ()
        return tuple(item
                     for label in self.counterexample
                     for item in label.appends)

    def __bool__(self) -> bool:
        return self.secure


def check_security(lts: LTS, policies: frozenset[Policy] | None = None,
                   max_states: int = DEFAULT_PRODUCT_LIMIT
                   ) -> SecurityReport:
    """Model-check that every trace of *lts* produces a valid history.

    *policies* defaults to every policy mentioned by the LTS labels; pass
    the full policy set of the system if framings may reference policies
    that no explored label mentions (they cannot, in practice: a policy
    matters only once a ``Lφ`` occurs).
    """
    if policies is None:
        policies = _policies_of(lts)
    initial = (lts.initial, fresh_monitor_state(policies))

    from collections import deque
    seen = {initial}
    frontier = deque([(initial, ())])
    states_checked = 0

    while frontier:
        (tree_state, monitor_state), path = frontier.popleft()
        states_checked += 1
        for label, successor in lts.moves(tree_state):
            next_monitor, violated = advance_monitor(monitor_state,
                                                     label.appends)
            new_path = path + (label,)
            if violated is not None:
                return SecurityReport(False, states_checked,
                                      counterexample=new_path,
                                      violated_policy=violated)
            next_state = (successor, next_monitor)
            if next_state not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "security product")
                seen.add(next_state)
                frontier.append((next_state, new_path))
    return SecurityReport(True, states_checked)


def fresh_monitor_state(policies) -> MonitorState:
    """The initial abstract monitor over *policies* (sorted by rendering,
    so monitor states are canonical): every runner fresh, nothing active.

    Shared with :mod:`repro.staticcheck.validity`, which runs the same
    abstract monitor over the residuals of a single history expression
    instead of an assembled session product.
    """
    return tuple((policy, PolicyRunner(policy).freeze(), 0)
                 for policy in sorted(policies, key=str))


def advance_monitor(monitor_state: MonitorState,
                    appends: tuple) -> tuple[MonitorState, Policy | None]:
    """Advance the abstract monitor by the appended history labels.

    Returns ``(new_state, violated_policy_or_None)``; returns the input
    unchanged (wrapped) when *appends* is empty.
    """
    if not appends:
        return monitor_state, None

    runners = {policy: PolicyRunner.from_frozen(policy, frozen)
               for policy, frozen, _ in monitor_state}
    active = {policy: count for policy, _, count in monitor_state}
    order = [policy for policy, _, _ in monitor_state]

    for label in appends:
        if isinstance(label, Event):
            for policy in order:
                runners[policy].step(label)
                if active[policy] > 0 and runners[policy].in_violation:
                    return _freeze(order, runners, active), policy
        elif isinstance(label, FrameOpen):
            policy = label.policy
            if policy not in runners:
                # A policy unseen at initialisation (defensive): start it
                # from scratch — with no past events its history is empty.
                runners[policy] = PolicyRunner(policy)
                active[policy] = 0
                order.append(policy)
            active[policy] += 1
            if runners[policy].in_violation:
                return _freeze(order, runners, active), policy
        elif isinstance(label, FrameClose):
            policy = label.policy
            if policy in active and active[policy] > 0:
                active[policy] -= 1
        else:  # pragma: no cover - appends only hold history labels
            raise TypeError(f"unexpected history label {label!r}")
    return _freeze(order, runners, active), None


def _freeze(order, runners, active) -> MonitorState:
    return tuple((policy, runners[policy].freeze(), active[policy])
                 for policy in order)


def _policies_of(lts: LTS) -> frozenset[Policy]:
    policies: set[Policy] = set()
    for moves in lts.transitions.values():
        for label, _ in moves:
            for item in label.appends:
                if isinstance(item, (FrameOpen, FrameClose)):
                    policies.add(item.policy)
    return frozenset(policies)
