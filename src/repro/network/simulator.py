"""Step-by-step execution of networks.

The :class:`Simulator` drives one computation of a configuration under a
plan vector — the kind of run displayed in Figure 3 of the paper.  It can
run *monitored* (the angelic semantics: moves whose history extension is
invalid are filtered out, and the run aborts if a component is blocked by
the filter) or *unmonitored* (what a deployment without a reference
monitor does: every enabled move may fire, and validity is simply
recorded).

Schedulers: deterministic round-robin, seeded random, or caller-supplied
selection via :meth:`Simulator.fire_matching` — the latter is how the
test suite replays the exact step sequence of Figure 3.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.actions import Event, FrameClose, FrameOpen
from repro.core.errors import ReproError, SecurityViolationError
from repro.core.plans import Plan, PlanVector
from repro.core.validity import History, first_invalid_prefix, is_valid
from repro.network.config import Configuration
from repro.network.repository import Repository
from repro.network.semantics import (NetworkTransition, network_transitions,
                                     stuck_components)
from repro.observability import runtime as _telemetry


class RunOutcome(enum.Enum):
    """How a :meth:`Simulator.run` ended.

    ``STEP_BUDGET_EXCEEDED`` means the run consumed *max_steps* with
    moves still enabled — truncation, not termination.  Before this
    marker existed the two were indistinguishable on the trace, which
    made supervisors treat truncated runs as successes.
    """

    TERMINATED = "terminated"
    STUCK = "stuck"
    STEP_BUDGET_EXCEEDED = "step-budget-exceeded"


#: Convenience alias: ``log.outcome is StepBudgetExceeded``.
StepBudgetExceeded = RunOutcome.STEP_BUDGET_EXCEEDED


@dataclass(frozen=True)
class TraceRecord:
    """One fired transition together with the step index."""

    index: int
    transition: NetworkTransition


@dataclass
class TraceLog:
    """The record of a whole run.

    ``outcome`` is ``None`` until a :meth:`Simulator.run` finishes (the
    stepping API never sets it); afterwards it tells termination,
    stuckness and step-budget truncation apart.
    """

    records: list[TraceRecord] = field(default_factory=list)
    outcome: RunOutcome | None = None

    def labels(self) -> tuple:
        """The fired labels, in order."""
        return tuple(record.transition.label for record in self.records)

    def rules(self) -> tuple[str, ...]:
        """The rules fired, in order (``access``/``open``/``close``/
        ``synch``)."""
        return tuple(record.transition.rule for record in self.records)

    def __len__(self) -> int:
        return len(self.records)


class Simulator:
    """An explicit-state interpreter for network configurations."""

    def __init__(self, configuration: Configuration,
                 plans: PlanVector | Plan,
                 repository: Repository,
                 monitored: bool = True,
                 seed: int | None = None) -> None:
        self.configuration = configuration
        self.plans = plans
        self.repository = repository
        self.monitored = monitored
        self.log = TraceLog()
        self._random = random.Random(seed)
        # Per-component telemetry spans: a lazily opened root span per
        # component, with a stack of open session spans under it (session
        # opens push, closes pop; communications and framings become
        # point events on the innermost open session).
        self._component_spans: dict[int, object] = {}
        self._session_stacks: dict[int, list] = {}
        # Flight-recorder seqs of the "session.open" events mirroring
        # the open session spans, so closes (and interruptions) carry a
        # causal link back to the exact open that started them.
        self._session_open_events: dict[int, list[int]] = {}

    # -- inspection ---------------------------------------------------------

    def available(self) -> list[NetworkTransition]:
        """The transitions enabled right now."""
        return list(network_transitions(self.configuration, self.plans,
                                        self.repository,
                                        enforce_validity=self.monitored))

    def histories(self) -> tuple[History, ...]:
        """The per-component histories of the current configuration."""
        return tuple(component.history
                     for component in self.configuration.components)

    def is_terminated(self) -> bool:
        """True iff every component has successfully finished."""
        return self.configuration.is_terminated()

    def stuck(self) -> tuple[int, ...]:
        """Indices of currently stuck components."""
        return stuck_components(self.configuration, self.plans,
                                self.repository,
                                enforce_validity=self.monitored)

    def all_histories_valid(self) -> bool:
        """Validity of every component history (always true in monitored
        runs; informative in unmonitored ones)."""
        return all(is_valid(component.history)
                   for component in self.configuration.components)

    def violations(self) -> list[tuple[int, History]]:
        """Components whose history is invalid, with the shortest invalid
        prefix (unmonitored runs only can produce these)."""
        found = []
        for index, component in enumerate(self.configuration.components):
            prefix = first_invalid_prefix(component.history)
            if prefix is not None:
                found.append((index, prefix))
        return found

    # -- stepping -----------------------------------------------------------

    def fire(self, transition: NetworkTransition) -> None:
        """Fire *transition*, updating configuration and log."""
        self.log.records.append(TraceRecord(len(self.log.records),
                                            transition))
        self.configuration = transition.successor
        tel = _telemetry.active()
        if tel is not None:
            self._record_transition(tel, transition)

    # -- telemetry ----------------------------------------------------------

    def _record_transition(self, tel, transition: NetworkTransition) -> None:
        """Mirror one fired transition into the span tree and registry."""
        index = transition.component
        step_index = len(self.log.records) - 1
        tel.metrics.counter("simulator.steps", rule=transition.rule).inc()

        root = self._component_spans.get(index)
        if root is None:
            location = (transition.location
                        or f"component-{index}")
            root = tel.tracer.start_span("simulator.component",
                                         parent=None,
                                         component=index,
                                         location=location)
            self._component_spans[index] = root
            self._session_stacks[index] = []
        stack = self._session_stacks[index]
        current = stack[-1] if stack else root

        rule = transition.rule
        if rule == "open":
            request = getattr(transition.label, "request", None)
            span = tel.tracer.start_span(
                "simulator.session", parent=current,
                request=request, opened_at_step=step_index)
            stack.append(span)
            opened = tel.events.emit(
                "session.open", span=span.span_id, component=index,
                request=str(request), step=step_index)
            self._session_open_events.setdefault(index, []).append(
                opened.seq)
            tel.metrics.counter("simulator.sessions_opened").inc()
        elif rule == "close":
            if stack:
                span = stack.pop()
                span.set(closed_at_step=step_index)
                tel.tracer.end_span(span)
                open_seqs = self._session_open_events.get(index)
                tel.events.emit(
                    "session.close", span=span.span_id, component=index,
                    step=step_index,
                    cause=open_seqs.pop() if open_seqs else None)
            tel.metrics.counter("simulator.sessions_closed").inc()
        elif rule == "synch":
            current.add_event("communication", step=step_index,
                              channel=transition.channel)
            tel.metrics.counter("simulator.communications").inc()
        elif rule in ("access", "commit"):
            for label in transition.appends:
                if isinstance(label, FrameOpen):
                    current.add_event("framing_open", step=step_index,
                                      policy=str(label.policy))
                elif isinstance(label, FrameClose):
                    current.add_event("framing_close", step=step_index,
                                      policy=str(label.policy))
                elif isinstance(label, Event):
                    current.add_event("access", step=step_index,
                                      event=str(label))
        # Framing labels appended by open/close rules ride along too.
        if rule in ("open", "close"):
            target = stack[-1] if stack else root
            for label in transition.appends:
                if isinstance(label, FrameOpen):
                    target.add_event("framing_open", step=step_index,
                                     policy=str(label.policy))
                elif isinstance(label, FrameClose):
                    target.add_event("framing_close", step=step_index,
                                     policy=str(label.policy))

    def _close_spans(self, tel) -> None:
        """Finish every span still open (end of a run; sessions left open
        by an aborted or truncated run are marked)."""
        for index, stack in self._session_stacks.items():
            open_seqs = self._session_open_events.get(index, [])
            while stack:
                span = stack.pop()
                span.set(left_open=True)
                tel.tracer.end_span(span)
                tel.events.emit(
                    "session.interrupted", span=span.span_id,
                    component=index,
                    cause=open_seqs.pop() if open_seqs else None)
        for index, root in self._component_spans.items():
            root.set(steps=len(self.log.records),
                     terminated=self.configuration[index].is_terminated())
            tel.tracer.end_span(root)
        self._component_spans.clear()
        self._session_stacks.clear()
        self._session_open_events.clear()

    def fire_matching(self, predicate: Callable[[NetworkTransition], bool]
                      ) -> NetworkTransition:
        """Fire the first available transition satisfying *predicate*.

        Raises :class:`ReproError` when none matches — used to replay
        prescribed computations (e.g. Figure 3) and fail loudly if the
        semantics diverges from the script.
        """
        for transition in self.available():
            if predicate(transition):
                self.fire(transition)
                return transition
        raise ReproError("no available transition matches the predicate; "
                         f"enabled: {[str(t) for t in self.available()]}")

    def step_random(self) -> NetworkTransition | None:
        """Fire a uniformly random enabled transition (``None`` if
        none)."""
        options = self.available()
        if not options:
            return None
        transition = self._random.choice(options)
        self.fire(transition)
        return transition

    def run(self, max_steps: int = 10_000,
            scheduler: Callable[[Sequence[NetworkTransition]],
                                NetworkTransition] | None = None
            ) -> TraceLog:
        """Run until termination, stuckness, or *max_steps*.

        The log's :attr:`TraceLog.outcome` records how the run ended —
        in particular :data:`StepBudgetExceeded` when *max_steps* fired
        with moves still enabled, so callers can tell truncation from
        completion.

        In monitored mode a run that leaves a component security-stuck
        raises :class:`SecurityViolationError` — the monitor aborted it.
        """
        tel = _telemetry.active()
        if tel is None:
            self._run_loop(max_steps, scheduler)
            if self.monitored:
                self._raise_if_monitor_aborted()
            return self.log
        with tel.tracer.span("simulator.run",
                             monitored=self.monitored) as span:
            try:
                self._run_loop(max_steps, scheduler)
                if self.monitored:
                    self._raise_if_monitor_aborted()
            finally:
                self._close_spans(tel)
                span.set(steps=len(self.log),
                         terminated=self.is_terminated(),
                         outcome=(self.log.outcome.value
                                  if self.log.outcome else None))
            return self.log

    def _run_loop(self, max_steps: int, scheduler) -> None:
        """The scheduling loop shared by both telemetry paths; sets
        ``self.log.outcome``."""
        exhausted = True
        for _ in range(max_steps):
            options = self.available()
            if not options:
                exhausted = False
                break
            chosen = (scheduler(options) if scheduler is not None
                      else self._random.choice(options))
            self.fire(chosen)
        if exhausted and self.available():
            self.log.outcome = RunOutcome.STEP_BUDGET_EXCEEDED
        elif self.is_terminated():
            self.log.outcome = RunOutcome.TERMINATED
        else:
            self.log.outcome = RunOutcome.STUCK

    def _raise_if_monitor_aborted(self) -> None:
        from repro.network.semantics import classify_stuckness
        for index, component in enumerate(self.configuration.components):
            plan = (self.plans if isinstance(self.plans, Plan)
                    else self.plans[index])
            verdict = classify_stuckness(component, plan, self.repository)
            if verdict == "security":
                policy_name, label = self._blame_blocked(component, plan)
                tel = _telemetry.active()
                if tel is not None:
                    tel.emit("monitor.abort", component=index,
                             policy=str(policy_name), label=str(label))
                raise SecurityViolationError(
                    policy=dict(component.history.active_policies()),
                    history=component.history,
                    event="<all enabled events blocked>",
                    policy_name=policy_name,
                    offending_label=label)

    def _blame_blocked(self, component, plan
                       ) -> tuple[str | None, str | None]:
        """The (policy name, label) pair behind a security-stuck
        component: the first unfiltered move whose history extension a
        policy refuses."""
        from repro.network.semantics import component_moves
        for move in component_moves(component, plan, self.repository,
                                    enforce_validity=False):
            monitor = component.monitor().copy()
            for label in move.appends:
                if not monitor.can_extend(label):
                    blamed = monitor.blame(label)
                    name = blamed[0].name if blamed else None
                    return name, str(label)
                monitor.extend(label)
        return None, None
