"""Bounded service availability: capacity-aware plan checking.

Section 5, future work: "modelling more carefully the availability of
services, that now can replicate themselves unboundedly many times".
This module drops the unbounded-replication assumption: each location
may declare a *capacity* — the number of sessions it can serve
simultaneously — and a plan vector is *feasible* when no reachable
configuration needs more concurrent sessions at a location than its
capacity.

Two checks are provided and cross-validated by the tests:

* :func:`static_concurrent_demand` — a static upper bound: within one
  client, sessions overlap only along nesting chains (sequential
  requests never overlap), and both sides of an open session may have
  nested sessions of their own; across clients everything may overlap,
  so demands add up.  The bound is tight whenever the overlapping opens
  are actually reachable together (the common case; the dynamic check
  below is the ground truth).
* :func:`observed_concurrent_demand` — the dynamic ground truth: the
  maximum, over configurations reachable in the unfiltered semantics, of
  the number of open sessions per location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.requests import RequestTree, request_tree
from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression
from repro.network.config import Configuration, SessionNode, SessionTree
from repro.network.explorer import DEFAULT_CONFIGURATION_LIMIT
from repro.network.repository import Repository
from repro.network.semantics import network_transitions

#: Capacity value meaning "replicates at will" (the paper's default).
UNBOUNDED_CAPACITY = None


def _chain_demand(tree: RequestTree, plan: Plan, location: str,
                  repository: Repository,
                  _seen: frozenset[str] = frozenset()) -> int:
    """Maximum number of *location*-bound requests on one nesting chain.

    Requests of selected services extend the chain below the request
    they serve; already-resolved request identifiers are not re-entered
    (mirrors the planner's treatment of mutual recursion).
    """
    best = 0
    for info, subtree in tree.direct:
        if info.request in _seen:
            continue
        here = 1 if plan.lookup(info.request) == location else 0
        below_client = _chain_demand(subtree, plan, location, repository,
                                     _seen | {info.request})
        target = plan.lookup(info.request)
        service = repository.get(target) if target else None
        below_service = 0
        if service is not None:
            below_service = _chain_demand(request_tree(service), plan,
                                          location, repository,
                                          _seen | {info.request})
        # While this session is open, the client body's nested sessions
        # and the service's own nested sessions may all be open at once.
        best = max(best, here + below_client + below_service)
    return best


def static_concurrent_demand(clients: Sequence[tuple[HistoryExpression,
                                                     Plan]],
                             repository: Repository,
                             location: str) -> int:
    """Static bound on simultaneous sessions at *location* under the
    given (client, plan) vector."""
    return sum(_chain_demand(request_tree(client), plan, location,
                             repository)
               for client, plan in clients)


def _open_sessions_at(tree: SessionTree, location: str) -> int:
    if isinstance(tree, SessionNode):
        served = 1 if _serving_leaf_location(tree) == location else 0
        return (served + _open_sessions_at(tree.left, location)
                + _open_sessions_at(tree.right, location))
    return 0


def _serving_leaf_location(node: SessionNode) -> str | None:
    """The location of the service side of a session node (its right
    element's outermost serving leaf)."""
    right = node.right
    while isinstance(right, SessionNode):
        right = right.left  # the opener of the nested session
    return right.location


def observed_concurrent_demand(configuration: Configuration, plans,
                               repository: Repository, location: str,
                               max_configurations: int =
                               DEFAULT_CONFIGURATION_LIMIT) -> int:
    """Maximum open sessions at *location* over all reachable
    configurations (unfiltered semantics; exact for finite state
    spaces)."""
    from collections import deque

    best = 0
    seen = {configuration}
    frontier = deque([configuration])
    memos: dict = {}  # one sub-tree move memo per plan, for the whole walk
    while frontier:
        current = frontier.popleft()
        demand = sum(_open_sessions_at(component.tree, location)
                     for component in current.components)
        best = max(best, demand)
        for transition in network_transitions(current, plans, repository,
                                              enforce_validity=False,
                                              memos=memos):
            if transition.successor not in seen:
                if len(seen) >= max_configurations:
                    return best
                seen.add(transition.successor)
                frontier.append(transition.successor)
    return best


@dataclass(frozen=True)
class CapacityReport:
    """Feasibility of a plan vector against declared capacities."""

    demands: tuple[tuple[str, int, int | None], ...]  # (loc, need, cap)

    @property
    def feasible(self) -> bool:
        """No location is oversubscribed."""
        return all(capacity is None or demand <= capacity
                   for _, demand, capacity in self.demands)

    def oversubscribed(self) -> tuple[str, ...]:
        """Locations whose capacity is exceeded."""
        return tuple(location for location, demand, capacity
                     in self.demands
                     if capacity is not None and demand > capacity)

    def __str__(self) -> str:
        rows = []
        for location, demand, capacity in self.demands:
            cap = "∞" if capacity is None else str(capacity)
            flag = "" if capacity is None or demand <= capacity \
                else "  OVERSUBSCRIBED"
            rows.append(f"{location}: needs {demand}, capacity {cap}{flag}")
        return "\n".join(rows)


def check_capacities(clients: Sequence[tuple[HistoryExpression, Plan]],
                     repository: Repository,
                     capacities: Mapping[str, int | None]
                     ) -> CapacityReport:
    """Check the static concurrent demand of a plan vector against the
    declared per-location *capacities* (missing entries are unbounded —
    the paper's replicate-at-will default)."""
    demands = []
    for location in repository.locations():
        demand = static_concurrent_demand(clients, repository, location)
        demands.append((location, demand,
                        capacities.get(location, UNBOUNDED_CAPACITY)))
    return CapacityReport(tuple(demands))
