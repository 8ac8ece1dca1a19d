"""Exhaustive exploration of network state spaces.

The explorer is the *ground truth* against which the paper's modular
static analysis is validated: it enumerates every configuration reachable
under a plan in the **unfiltered** semantics (no angelic validity
pruning) and reports

* security violations — a component history that stops being valid;
* stuck components — a component that can no longer move but has not
  successfully terminated (missing communication / unserved request);
* whether every maximal run ends in success.

A plan is *valid* in the paper's sense exactly when the exploration finds
neither violations nor stuck components: such executions never need a
run-time monitor and never miss a communication (Section 5).

Configurations embed full histories, so state spaces are finite only for
terminating networks; recursive services should be checked with the
abstracted checker in :mod:`repro.analysis.security` instead.  The
exploration is bounded and reports truncation honestly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.plans import Plan, PlanVector
from repro.core.validity import is_valid
from repro.network.config import Configuration
from repro.network.repository import Repository
from repro.network.semantics import (NetworkTransition, classify_stuckness,
                                     network_transitions)

#: Default bound on explored configurations.
DEFAULT_CONFIGURATION_LIMIT = 100_000


@dataclass
class ExplorationResult:
    """Everything the exhaustive exploration learned."""

    explored: int = 0
    complete: bool = True
    violations: list[tuple[Configuration, NetworkTransition]] = field(
        default_factory=list)
    stuck: list[tuple[Configuration, int, str]] = field(default_factory=list)
    terminal_success: int = 0

    @property
    def secure(self) -> bool:
        """No reachable security violation."""
        return not self.violations

    @property
    def unfailing(self) -> bool:
        """No reachable stuck component."""
        return not self.stuck

    @property
    def valid(self) -> bool:
        """The paper's plan validity: secure **and** unfailing, with the
        whole (finite) state space covered."""
        return self.secure and self.unfailing and self.complete

    def summary(self) -> str:
        """A one-paragraph human-readable digest."""
        status = "VALID" if self.valid else "INVALID"
        parts = [f"{status}: explored {self.explored} configurations"
                 f"{'' if self.complete else ' (truncated!)'}",
                 f"{self.terminal_success} successful terminal states",
                 f"{len(self.violations)} security violations",
                 f"{len(self.stuck)} stuck configurations"]
        return "; ".join(parts)


def explore(configuration: Configuration, plans: PlanVector | Plan,
            repository: Repository,
            max_configurations: int = DEFAULT_CONFIGURATION_LIMIT,
            stop_at_first_flaw: bool = False,
            commit_outputs: bool = True) -> ExplorationResult:
    """BFS over all configurations reachable in the unfiltered semantics.

    A transition whose appended labels make the component history invalid
    is recorded as a security violation (and not expanded further — the
    monitor would have aborted there; everything beyond is noise).

    *commit_outputs* (default on) explores the demonic
    output-commitment semantics, so that a partner unable to handle some
    committed output shows up as a stuck configuration — without it,
    exploration would be as angelic about internal choice as rule Synch
    and could miss non-compliance.
    """
    result = ExplorationResult()
    seen: set[Configuration] = {configuration}
    frontier: deque[Configuration] = deque([configuration])
    # One sub-tree move memo per plan for the whole exploration: its
    # repository and commit mode are fixed, and sibling configurations
    # share all but one root path.
    memos: dict[Plan, dict] = {}

    while frontier:
        current = frontier.popleft()
        result.explored += 1

        moves = list(network_transitions(current, plans, repository,
                                         enforce_validity=False,
                                         commit_outputs=commit_outputs,
                                         memos=memos))

        # Stuckness per component (not per configuration: one component
        # finishing does not excuse another being blocked).
        for index, component in enumerate(current.components):
            plan = plans if isinstance(plans, Plan) else plans[index]
            verdict = classify_stuckness(component, plan, repository,
                                         commit_outputs=commit_outputs,
                                         memo=memos.setdefault(plan, {}))
            if verdict in ("security", "communication"):
                result.stuck.append((current, index, verdict))
                if stop_at_first_flaw:
                    return result

        if not moves and current.is_terminated():
            result.terminal_success += 1

        for transition in moves:
            moved = transition.successor.components[transition.component]
            if transition.appends and not is_valid(moved.history):
                result.violations.append((current, transition))
                if stop_at_first_flaw:
                    return result
                continue
            if transition.successor not in seen:
                if len(seen) >= max_configurations:
                    result.complete = False
                    return result
                seen.add(transition.successor)
                frontier.append(transition.successor)
    return result


def plan_is_valid_exhaustive(configuration: Configuration,
                             plans: PlanVector | Plan,
                             repository: Repository,
                             max_configurations: int =
                             DEFAULT_CONFIGURATION_LIMIT) -> bool:
    """Decide plan validity by brute force (the oracle for the static
    analysis)."""
    return explore(configuration, plans, repository, max_configurations,
                   stop_at_first_flaw=True).valid
