"""Static security checking: one monitored search decides validity.

Section 3.1 reduces validity of the assembled service ``⟨Ĥ, π⟩`` to a
model checking problem.  :func:`monitored_search` is the one search
that answers it, for a plan's behaviour here and for a single history
expression in :mod:`repro.staticcheck.validity`.  It walks pairs of a
state and an *abstract monitor state*:

* one :class:`~repro.policies.usage_automata.PolicyRunner` per policy
  of the terms whose moves it explores — every runner consumes every
  event, whether or not its policy is active, because validity is
  history dependent (a framing opened later judges the whole past);
* the multiset of currently active policies (activation counts).

Runner states are finite (the witness table ranges over the finitely many
event payloads of the system) and activation counts are bounded (framings
are syntactically nested and recursion is tail), so the product is
finite.  Validity is checked on every prefix of a history, so security
is a safety property (Theorem 2 and Corollary 1 argue the same for
compliance): the breadth-first search stops at the first move that
violates an active policy, and its parent pointers give a shortest
counterexample.

:func:`check_security` runs the search over the session trees of
:mod:`repro.analysis.session_product`, generated on the fly by
:func:`~repro.network.semantics.tree_moves`: no LTS of the plan is
assembled to check it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro.core.actions import Event, FrameClose, FrameOpen, HistoryLabel
from repro.core.errors import StateSpaceLimitError
from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression, policies_of
from repro.network.config import Leaf
from repro.network.repository import Repository
from repro.network.semantics import tree_moves
from repro.policies.usage_automata import (FrozenRunnerState, Policy,
                                           PolicyRunner)
from repro.contracts.lts import DEFAULT_PRODUCT_LIMIT
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


def check_security(client: HistoryExpression, plan: Plan,
                   repository: Repository, location: str = "client",
                   max_states: int = DEFAULT_PRODUCT_LIMIT
                   ) -> SecurityReport:
    """Model-check that every run of *client* at *location* under *plan*
    produces a valid history.

    The moves are the internal moves of the session trees, with the
    output-commitment steps, in the order
    :func:`~repro.analysis.session_product.assemble` lists them;
    one sub-tree memo serves the whole check.  The monitor tracks the
    policies of the client and of the services at the locations *plan*
    binds: no other term can move.  *max_states* bounds the explored
    ⟨tree, monitor⟩ pairs.
    """
    policies = set(policies_of(client))
    for _, target in plan.items():
        service = repository.get(target)
        if service is not None:
            policies.update(policies_of(service))
    memo: dict = {}

    def moves(tree):
        for move in tree_moves(tree, plan, repository, True, memo):
            if move.is_internal():
                yield move, move.appends, move.tree

    explored, path, violated = monitored_search(
        Leaf(location, client), policies, moves, max_states,
        "security product")
    if path is None:
        return SecurityReport(True, explored)
    return SecurityReport(
        False, explored,
        counterexample=tuple(ProductLabel(move.kind, move.label,
                                          move.appends) for move in path),
        violated_policy=violated)


def monitored_search(initial: Hashable, policies,
                     moves: Callable[[Hashable], Iterable[tuple]],
                     max_states: int, what: str
                     ) -> tuple[int, list | None, Policy | None]:
    """Breadth-first search over ⟨state, abstract monitor⟩ pairs from
    *initial* and the fresh monitor over *policies*.

    ``moves(state)`` yields ``(move, appends, successor)`` triples:
    *appends* are the history labels the move adds.  The search stops at
    the first move that violates an active policy.  It returns
    ``(explored, path, policy)``: the number of pairs popped, the moves
    of a shortest run ending in the violating move, and the violated
    policy; ``path`` and ``policy`` are ``None`` when no run violates.
    More than *max_states* distinct pairs raise
    :class:`StateSpaceLimitError` naming *what*.
    """
    start = (initial, fresh_monitor_state(policies))
    parents: dict = {start: None}
    frontier = deque([start])
    explored = 0
    while frontier:
        pair = frontier.popleft()
        state, monitor = pair
        explored += 1
        for move, appends, successor in moves(state):
            next_monitor, violated = advance_monitor(monitor, appends)
            if violated is not None:
                return explored, _path(parents, pair, move), violated
            next_pair = (successor, next_monitor)
            if next_pair not in parents:
                if len(parents) >= max_states:
                    raise StateSpaceLimitError(max_states, what)
                parents[next_pair] = (pair, move)
                frontier.append(next_pair)
    return explored, None, None


def _path(parents: dict, pair, last) -> list:
    """The moves from the start to *pair*, then *last*."""
    path = [last]
    link = parents[pair]
    while link is not None:
        pair, move = link
        path.append(move)
        link = parents[pair]
    path.reverse()
    return path


def fresh_monitor_state(policies) -> MonitorState:
    """The initial abstract monitor over *policies* (sorted by rendering,
    so monitor states are canonical): every runner fresh, nothing active.
    """
    return tuple((policy, PolicyRunner(policy).freeze(), 0)
                 for policy in sorted(policies, key=str))


def advance_monitor(monitor_state: MonitorState,
                    appends: tuple[HistoryLabel, ...]
                    ) -> tuple[MonitorState, Policy | None]:
    """Advance the abstract monitor by the appended history labels.

    Returns ``(new_state, violated_policy_or_None)``; returns the input
    unchanged (wrapped) when *appends* is empty.  Every framed policy
    must be one the monitor was started with.
    """
    if not appends:
        return monitor_state, None

    runners = {policy: PolicyRunner.from_frozen(policy, frozen)
               for policy, frozen, _ in monitor_state}
    active = {policy: count for policy, _, count in monitor_state}

    for label in appends:
        if isinstance(label, Event):
            for policy, runner in runners.items():
                runner.step(label)
                if active[policy] > 0 and runner.in_violation:
                    return _freeze(runners, active), policy
        elif isinstance(label, FrameOpen):
            policy = label.policy
            active[policy] += 1
            if runners[policy].in_violation:
                return _freeze(runners, active), policy
        elif isinstance(label, FrameClose):
            policy = label.policy
            if active[policy] > 0:
                active[policy] -= 1
        else:  # pragma: no cover - appends only hold history labels
            raise TypeError(f"unexpected history label {label!r}")
    return _freeze(runners, active), None


def _freeze(runners, active) -> MonitorState:
    return tuple((policy, runner.freeze(), active[policy])
                 for policy, runner in runners.items())
