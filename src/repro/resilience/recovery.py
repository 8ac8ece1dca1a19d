"""Recovery strategies: backoff, compensation and failover re-planning.

The supervisor composes three moves when a component stops making
progress:

* **bounded retry** — wait out transient faults on the *simulated*
  clock, with deterministic exponential backoff
  (:class:`BackoffPolicy`; no wall time anywhere, so chaos runs are
  reproducible byte for byte);
* **compensation** — tear the component's session tree down to its root
  client, appending the residual frame closes so the recorded history
  stays a valid prefix of a balanced history and any
  :class:`~repro.core.validity.ValidityMonitor` replaying it stays
  consistent (:func:`compensate`);
* **failover re-planning** — repair the plan through the memoized
  first-valid :func:`~repro.analysis.planner.find_valid_plans` pass,
  pinning every binding that still points at a healthy location and
  freeing only the bindings routed to failed ones (:func:`replan`),
  exactly the re-wiring the valid-plan machinery permits.

Each recovery attempt is journalled in a :class:`RecoveryEpisode`, the
unit chaos reports and the property tests reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.planner import find_valid_plans
from repro.core.actions import FrameClose, FrameOpen
from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression
from repro.network.config import Component, Leaf
from repro.network.repository import Repository


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic exponential backoff on the simulated clock.

    Retry *i* (0-based) waits ``min(base * factor**i, max_delay)``
    ticks; after *max_retries* retries the strategy escalates to
    failover.
    """

    base: int = 1
    factor: int = 2
    max_delay: int = 8
    max_retries: int = 3

    def delays(self) -> Iterator[int]:
        """The successive wait times, in ticks."""
        for attempt in range(self.max_retries):
            yield min(self.base * self.factor ** attempt, self.max_delay)


@dataclass
class RecoveryEpisode:
    """One recovery attempt for one blocked component.

    ``trigger`` says why recovery started (``injected-blockage`` — a
    fault filter starved the component; ``communication-stuck`` — the
    semantics itself has no move; ``breaker-open`` — only breaker-barred
    moves remained; ``rollback-barred`` — only branches banned by an
    earlier rollback remained).  ``outcome`` is ``rolled-back`` (rewound
    to a checkpoint with an untried branch), ``retried`` (backoff waited
    the fault out), ``failed-over`` (compensated and re-planned) or
    ``gave-up`` (no healthy alternative — the run aborts with this
    episode as diagnosis).  ``rollbacks``, ``retries`` and ``replanned``
    are *distinct* counters: a rewind is never reported as a retry or a
    replan.
    """

    component: int
    trigger: str
    suspects: tuple[str, ...]
    started_at: int
    retries: int = 0
    rollbacks: int = 0
    waited_ticks: int = 0
    replanned: bool = False
    new_plan: str | None = None
    outcome: str = "pending"
    ended_at: int = 0

    def describe(self) -> str:
        suspects = ", ".join(self.suspects) or "none"
        extra = f" -> {self.new_plan}" if self.new_plan else ""
        return (f"component {self.component} {self.trigger} at tick "
                f"{self.started_at} (suspects: {suspects}): "
                f"{self.outcome} after {self.rollbacks} rollback(s), "
                f"{self.retries} retr(ies), "
                f"{self.waited_ticks} tick(s) waited{extra}")


def residual_frame_closes(component: Component) -> tuple[FrameClose, ...]:
    """The frame closes that balance the component's history: one ``Mφ``
    per still-open ``Lφ``, innermost first.

    This is the compensation analogue of the ``Φ`` of rule *Close* —
    instead of collecting the pending closes of one discarded service,
    it reads the open framings straight off the recorded history, so the
    appended closes match the activation stack exactly.
    """
    stack: list = []
    for label in component.history:
        if isinstance(label, FrameOpen):
            stack.append(label.policy)
        elif isinstance(label, FrameClose):
            if stack and stack[-1] == label.policy:
                stack.pop()
    return tuple(FrameClose(policy) for policy in reversed(stack))


def compensate(component: Component, client_location: str,
               client_term: HistoryExpression) -> Component:
    """Abort the component's open sessions cleanly.

    The session tree collapses to the root client restarted on
    *client_term*; the history keeps everything already observed and
    gains the residual frame closes, so it remains valid (frame closes
    never violate) and a prefix of a balanced history — the state a
    fresh :class:`~repro.core.validity.ValidityMonitor` can replay
    without desynchronising.
    """
    closes = residual_frame_closes(component)
    return Component(component.history.extend(closes),
                     Leaf(client_location, client_term))


def replan(client: HistoryExpression, repository: Repository,
           previous: Plan, excluded: tuple[str, ...],
           location: str = "client",
           max_plans: int | None = None) -> Plan | None:
    """A valid plan avoiding *excluded* locations, or ``None``.

    Only the affected bindings are repaired: every binding of
    *previous* that routes to a healthy location is pinned as the sole
    candidate for its request, so the memoized planner re-decides just
    the requests that lost their service (plus whatever security
    interplay the model checker must re-examine).
    """
    healthy = {loc: term for loc, term in repository.items()
               if loc not in excluded}
    if not healthy:
        return None
    candidates = {request: (target,)
                  for request, target in previous.items()
                  if target not in excluded}
    result = find_valid_plans(client, Repository(healthy, validate=False),
                              candidates=candidates, location=location,
                              max_plans=max_plans, first_valid=True)
    best = result.best()
    return best.plan if best is not None else None
