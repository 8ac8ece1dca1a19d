"""A fault-detecting, recovering wrapper around the network simulator.

The :class:`Supervisor` drives a monitored :class:`Simulator` one
transition at a time, with three extra powers the plain simulator lacks:

* **fault injection** — before every step the active
  :class:`~repro.resilience.faults.FaultPlan` filters the enabled
  transitions (crash/drop/stall) and applies due byzantine term
  mutations, all on a simulated clock;
* **fault detection** — when no transition may fire, the supervisor
  tells *injected* starvation (the raw semantics still has moves) from
  genuine stuckness, and classifies the latter with
  :func:`~repro.network.semantics.classify_stuckness`;
* **recovery** — the ladder is rollback-first: blocked components first
  rewind to their latest checkpoint with an untried branch
  (:mod:`repro.resilience.checkpoints`), each attempt waiting one
  exponential-backoff delay on the simulated clock; only when the
  checkpoint stack (or the per-episode rollback budget) is exhausted do
  they fall back to bounded backoff retry, then compensation plus
  failover re-planning (:mod:`repro.resilience.recovery`), guarded by a
  per-location circuit breaker (closed → open after repeated failures →
  half-open probe after a cooldown).  Because due faults are applied
  after every rollback wait, chaos can inject faults *during* rollback
  — a rewound branch may find its alternative freshly blocked and
  rewind deeper.

Budgets (transition steps and simulated-clock deadline) bound every run,
and the result always says *how* it ended — completion, clean abort with
a diagnosis, security violation (never, under a valid plan), or budget
exhaustion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.plans import Plan, PlanVector
from repro.core.validity import History
from repro.network.config import (Component, Configuration, Leaf,
                                  locations)
from repro.network.repository import Repository
from repro.network.semantics import (NetworkTransition, classify_stuckness)
from repro.network.simulator import Simulator
from repro.observability import runtime as _telemetry
from repro.resilience.checkpoints import (Checkpoint, MoveKey,
                                          RollbackPolicy, move_key)
from repro.resilience.faults import Fault, FaultPlan, involved_locations, \
    mutate_term
from repro.resilience.recovery import (BackoffPolicy, RecoveryEpisode,
                                       compensate, replan)

#: Circuit-breaker states, in escalation order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

#: The legal breaker transitions — the monotonicity the property tests
#: assert: an episode runs closed → open → half-open → {closed, open}.
BREAKER_EDGES = frozenset({(CLOSED, OPEN), (OPEN, HALF_OPEN),
                           (HALF_OPEN, CLOSED), (HALF_OPEN, OPEN)})


class CircuitBreaker:
    """A per-location circuit breaker on the supervisor's clock.

    ``closed`` passes traffic and counts failures; at
    *failure_threshold* failures it trips ``open``, barring the
    location (from session opens and from re-planning candidates);
    after *cooldown* ticks the next availability check moves it to
    ``half-open``, which admits one probe — a success closes the
    breaker again, a failure re-opens it.
    """

    __slots__ = ("failure_threshold", "cooldown", "state", "failures",
                 "opened_at", "transitions")

    def __init__(self, failure_threshold: int = 2,
                 cooldown: int = 6) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.failures = 0
        self.opened_at: int | None = None
        #: (from-state, to-state, tick) triples, in order.
        self.transitions: list[tuple[str, str, int]] = []

    def _goto(self, state: str, now: int) -> None:
        previous = self.state
        self.transitions.append((previous, state, now))
        self.state = state
        tel = _telemetry.active()
        if tel is not None:
            tel.metrics.counter("resilience.breaker_transitions",
                                to=state).inc()
            tel.emit("breaker.transition", from_state=previous,
                     to_state=state, tick=now)

    def allows(self, now: int) -> bool:
        """May traffic be routed to the location at tick *now*?  (An
        open breaker past its cooldown half-opens here — the probe.)"""
        if (self.state == OPEN and self.opened_at is not None
                and now - self.opened_at >= self.cooldown):
            self._goto(HALF_OPEN, now)
        return self.state != OPEN

    def record_failure(self, now: int) -> None:
        if self.state == HALF_OPEN:
            self.opened_at = now
            self._goto(OPEN, now)
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.failure_threshold:
            self.opened_at = now
            self._goto(OPEN, now)

    def record_success(self, now: int) -> None:
        self.failures = 0
        if self.state == HALF_OPEN:
            self._goto(CLOSED, now)


@dataclass
class SupervisorResult:
    """Everything one supervised run determined.

    ``status`` is one of ``completed``, ``aborted`` (clean, with
    ``diagnosis``), ``security-violation`` (with ``abort_cause``) or
    ``budget-exhausted``.
    """

    status: str
    steps: int
    clock: int
    diagnosis: str | None
    episodes: list[RecoveryEpisode]
    faults: tuple[str, ...]
    blocked_transitions: int
    abort_cause: tuple[str | None, str | None] | None
    breakers: dict[str, list[tuple[str, str, int]]]
    histories: tuple[History, ...]

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def diagnosed(self) -> bool:
        """Did the run end either successfully or with an explanation?
        (The chaos invariant: no undiagnosed trial.)"""
        return self.completed or bool(self.diagnosis)

    @property
    def retries(self) -> int:
        """Backoff waits across every episode (never rollbacks/replans)."""
        return sum(episode.retries for episode in self.episodes)

    @property
    def rollbacks(self) -> int:
        """Checkpoint rewinds across every episode."""
        return sum(episode.rollbacks for episode in self.episodes)

    @property
    def replans(self) -> int:
        """Episodes that compensated and failed over to a new plan."""
        return sum(1 for episode in self.episodes
                   if episode.outcome == "failed-over")


class Supervisor:
    """Run a network under fault injection with recovery.

    *clients* maps client locations to their behaviours (the same shape
    the CLI and :func:`~repro.analysis.verification.verify_network`
    use); *plans* is the verified plan vector the run starts from.
    """

    def __init__(self, clients, plans: PlanVector,
                 repository: Repository,
                 fault_plan: FaultPlan = FaultPlan(),
                 recover: bool = True,
                 rollback: RollbackPolicy | bool = True,
                 backoff: BackoffPolicy = BackoffPolicy(),
                 breaker_threshold: int = 2,
                 breaker_cooldown: int = 6,
                 max_steps: int = 2_000,
                 deadline: int | None = None,
                 seed: int = 0) -> None:
        self.clients = dict(clients)
        self.client_locations = tuple(self.clients)
        self.repository = repository
        self.fault_plan = fault_plan
        self.recover = recover
        self.rollback_policy = RollbackPolicy.of(rollback)
        self.backoff = backoff
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.max_steps = max_steps
        self.deadline = deadline
        self.seed = seed
        self._plans = [plans[index] if not isinstance(plans, Plan)
                       else plans for index in range(len(self.clients))]
        configuration = Configuration.of(*(
            Component.client(location, term)
            for location, term in self.clients.items()))
        self.simulator = Simulator(configuration,
                                   PlanVector(tuple(self._plans)),
                                   repository, monitored=True, seed=seed)
        self._rng = random.Random(seed)
        self._fault_rng = random.Random(seed ^ 0x5EED)
        self.clock = 0
        self.episodes: list[RecoveryEpisode] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        self.blocked_transitions = 0
        self._applied_mutations: set[Fault] = set()
        # Flight-recorder correlation state: the "fault.injected" event
        # seq per fault (each fault is recorded once, however many
        # transitions it blocks) and the seq of the most recent causal
        # event, which the final "run.verdict" links back to.
        self._fault_events: dict[Fault, int] = {}
        self._last_event_seq: int | None = None
        #: Per-component stack of open session target locations.
        self._session_targets: list[list[str]] = [
            [] for _ in self.clients]
        #: Per-component checkpoint stacks (reversible-session state).
        self._checkpoints: list[list[Checkpoint]] = [
            [] for _ in self.clients]
        #: Branch keys barred per component until its next firing — the
        #: tried set of the checkpoint a rollback restored.
        self._banned: list[frozenset[MoveKey]] = [
            frozenset() for _ in self.clients]
        #: The restored checkpoint awaiting its re-choice; re-pushed
        #: (with the taken branch added to ``tried``) when the component
        #: fires again, so no branch repeats from the same state.
        self._pending: list[Checkpoint | None] = [None] * len(self.clients)
        self.checkpoints_pushed = 0

    # -- breaker plumbing ---------------------------------------------------

    def _breaker(self, location: str) -> CircuitBreaker:
        breaker = self.breakers.get(location)
        if breaker is None:
            breaker = self.breakers[location] = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown)
        return breaker

    def _breaker_allows(self, location: str) -> bool:
        breaker = self.breakers.get(location)
        return breaker is None or breaker.allows(self.clock)

    # -- fault application --------------------------------------------------

    def _apply_due_mutations(self) -> None:
        """Rewrite live leaves of byzantine-faulted locations.  A fault
        whose location has no live leaf yet stays armed."""
        due = self.fault_plan.due_mutations(
            self.clock, frozenset(self._applied_mutations))
        for fault in due:
            configuration = self.simulator.configuration
            touched = False
            for index, component in enumerate(configuration.components):
                tree = _rewrite_leaves(
                    component.tree, fault.location,
                    lambda term: mutate_term(term, self._fault_rng))
                if tree is not component.tree:
                    configuration = configuration.replace(
                        index, component.with_tree(tree))
                    touched = True
            if touched:
                self.simulator.configuration = configuration
                self._applied_mutations.add(fault)
                tel = _telemetry.active()
                if tel is not None:
                    tel.metrics.counter("resilience.faults_injected",
                                        kind="byzantine").inc()
                    self._note_fault(tel, fault)

    def _filtered(self) -> tuple[list[NetworkTransition],
                                 list[NetworkTransition],
                                 dict[int, Fault]]:
        """(raw, allowed, blocking fault per component) for this tick."""
        raw = self.simulator.available()
        allowed: list[NetworkTransition] = []
        blocking: dict[int, Fault] = {}
        tel = _telemetry.active()
        for transition in raw:
            before = self.simulator.configuration[
                transition.component].tree
            fault = self.fault_plan.blocking_fault(transition, before,
                                                   self.clock)
            if fault is not None:
                self.blocked_transitions += 1
                blocking.setdefault(transition.component, fault)
                if tel is not None:
                    tel.metrics.counter("resilience.faults_injected",
                                        kind=fault.kind).inc()
                    self._note_fault(tel, fault)
                continue
            if transition.rule == "open":
                target = self._open_target(transition, before)
                if target is not None and not self._breaker_allows(target):
                    self.blocked_transitions += 1
                    continue
            allowed.append(transition)
        return raw, allowed, blocking

    def _note_fault(self, tel, fault: Fault) -> None:
        """Record *fault* in the flight recorder exactly once (its event
        seq anchors every abort it later causes)."""
        if fault not in self._fault_events:
            event = tel.emit("fault.injected", kind=fault.kind,
                             location=fault.location,
                             request=fault.request, tick=self.clock)
            self._fault_events[fault] = event.seq

    def _abort_cause(self, index: int,
                     blocking: dict[int, Fault]) -> int | None:
        """The "fault.injected" seq behind component *index*'s abort:
        its blocking fault if one was recorded, otherwise the first
        recorded fault at a location the component is engaged with (the
        crash-starvation diagnosis path)."""
        fault = blocking.get(index)
        if fault is not None:
            return self._fault_events.get(fault)
        component = self.simulator.configuration[index]
        engaged = set(locations(component.tree))
        for fault, seq in self._fault_events.items():
            if fault.location and fault.location in engaged:
                return seq
        return None

    def _open_target(self, transition: NetworkTransition,
                     before) -> str | None:
        involved = involved_locations(
            before, transition.successor[transition.component].tree)
        targets = sorted(involved - {transition.location})
        return targets[0] if targets else None

    # -- session/breaker bookkeeping ----------------------------------------

    def _note_choice(self, allowed: list[NetworkTransition],
                     transition: NetworkTransition) -> None:
        """Checkpoint the choice *transition* resolves, before it fires.

        A fresh checkpoint is pushed when the firing component had two
        or more distinct enabled branch keys this tick.  If the
        component is re-choosing after a rollback, the restored
        checkpoint is re-pushed instead, with the taken branch added to
        its tried set — so no branch ever repeats from one checkpoint —
        and its ban is lifted.
        """
        if not self.rollback_policy.enabled:
            return
        index = transition.component
        fired = move_key(transition)
        pending = self._pending[index]
        if pending is not None:
            tried = pending.tried
            if fired in pending.alternatives:
                tried = tried | {fired}
            self._checkpoints[index].append(
                Checkpoint(component=index, snapshot=pending.snapshot,
                           targets=pending.targets,
                           alternatives=pending.alternatives, tried=tried,
                           tick=pending.tick, step=pending.step))
            self._pending[index] = None
            self._banned[index] = frozenset()
            return
        keys = {move_key(candidate) for candidate in allowed
                if candidate.component == index}
        if len(keys) < 2:
            return
        self._checkpoints[index].append(
            Checkpoint(component=index,
                       snapshot=self.simulator.configuration[index],
                       targets=tuple(self._session_targets[index]),
                       alternatives=frozenset(keys),
                       tried=frozenset({fired}),
                       tick=self.clock, step=len(self.simulator.log)))
        self.checkpoints_pushed += 1
        tel = _telemetry.active()
        if tel is not None:
            tel.metrics.counter("resilience.checkpoints").inc()
            tel.emit("checkpoint.push", component=index,
                     alternatives=len(keys), tick=self.clock,
                     step=len(self.simulator.log))

    def _note_fired(self, transition: NetworkTransition) -> None:
        stack = self._session_targets[transition.component]
        if transition.rule == "open":
            before = self.simulator.configuration[
                transition.component].tree
            target = self._open_target(transition, before)
            stack.append(target or transition.location)
        elif transition.rule == "close" and stack:
            location = stack.pop()
            breaker = self.breakers.get(location)
            if breaker is not None:
                breaker.record_success(self.clock)

    # -- the run ------------------------------------------------------------

    def run(self) -> SupervisorResult:
        """Drive the network to an outcome."""
        tel = _telemetry.active()
        if tel is None:
            status, diagnosis, cause = self._loop()
        else:
            with tel.tracer.span("supervisor.run",
                                 faults=len(self.fault_plan),
                                 recover=self.recover) as span:
                status, diagnosis, cause = self._loop()
                span.set(status=status, steps=len(self.simulator.log),
                         clock=self.clock, episodes=len(self.episodes))
                tel.emit("run.verdict", status=status,
                         steps=len(self.simulator.log), clock=self.clock,
                         cause=self._last_event_seq)
        return SupervisorResult(
            status=status,
            steps=len(self.simulator.log),
            clock=self.clock,
            diagnosis=diagnosis,
            episodes=self.episodes,
            faults=self.fault_plan.describe(),
            blocked_transitions=self.blocked_transitions,
            abort_cause=cause,
            breakers={location: list(breaker.transitions)
                      for location, breaker in sorted(self.breakers.items())},
            histories=self.simulator.histories())

    def _loop(self) -> tuple[str, str | None,
                             tuple[str | None, str | None] | None]:
        steps = 0
        while True:
            if steps >= self.max_steps:
                return ("budget-exhausted",
                        f"step budget of {self.max_steps} exhausted "
                        f"(moves may still be enabled)", None)
            if self.deadline is not None and self.clock >= self.deadline:
                return ("budget-exhausted",
                        f"deadline of {self.deadline} tick(s) exceeded",
                        None)
            self._apply_due_mutations()
            raw, allowed, blocking = self._filtered()
            allowed, barred = self._without_banned(allowed)
            if allowed:
                transition = self._rng.choice(allowed)
                self._note_choice(allowed, transition)
                self._note_fired(transition)
                self.simulator.fire(transition)
                self.clock += 1
                steps += 1
                continue
            if self.simulator.is_terminated():
                return "completed", None, None
            # -- nothing may fire: diagnose ---------------------------------
            component, trigger, suspects = self._diagnose(raw, blocking,
                                                          barred)
            tel = _telemetry.active()
            if tel is not None:
                abort = tel.emit("session.abort", component=component,
                                 trigger=trigger, tick=self.clock,
                                 cause=self._abort_cause(component,
                                                         blocking))
                self._last_event_seq = abort.seq
            if trigger == "security":
                cause = self.simulator._blame_blocked(
                    self.simulator.configuration[component],
                    self._plans[component])
                return ("security-violation",
                        f"component {component} security-stuck: policy "
                        f"{cause[0]} blocks {cause[1]}", cause)
            if not self.recover:
                return ("aborted",
                        f"component {component} {trigger} with recovery "
                        f"disabled (suspects: "
                        f"{', '.join(suspects) or 'none'})", None)
            episode = self._recover(component, trigger, suspects)
            if episode.outcome in ("rolled-back", "retried", "failed-over"):
                continue
            return "aborted", episode.describe(), None

    def _without_banned(self, allowed: list[NetworkTransition]
                        ) -> tuple[list[NetworkTransition], frozenset[int]]:
        """Drop transitions on branch keys banned by an active rollback;
        returns the survivors and the components that lost *every* move
        to a ban (the ``rollback-barred`` diagnosis)."""
        if not any(self._banned):
            return allowed, frozenset()
        kept: list[NetworkTransition] = []
        dropped: set[int] = set()
        for transition in allowed:
            if move_key(transition) in self._banned[transition.component]:
                dropped.add(transition.component)
            else:
                kept.append(transition)
        return kept, frozenset(dropped - {t.component for t in kept})

    def _diagnose(self, raw, blocking, barred: frozenset[int] = frozenset()
                  ) -> tuple[int, str, tuple[str, ...]]:
        """Pick the first blocked, non-terminated component and name the
        blockage and the suspect service locations."""
        configuration = self.simulator.configuration
        components_with_moves = {t.component for t in raw}
        for index, component in enumerate(configuration.components):
            if component.is_terminated():
                continue
            suspects = self._suspects(index)
            if index in blocking:
                fault = blocking[index]
                if fault.location:
                    # Blame precisely the faulted location: suspecting
                    # every session partner would exclude healthy
                    # services (the broker, say) from failover.
                    suspects = (fault.location,)
                elif fault.kind == "stall":
                    target = self._plans[index].lookup(fault.request)
                    if target is not None:
                        suspects = (target,)
                return index, "injected-blockage", suspects
            if index in barred:
                # Only rollback-banned branches remained: the restored
                # checkpoint's untried alternatives are themselves
                # blocked — recovery will rewind deeper.
                return index, "rollback-barred", suspects
            if index in components_with_moves:
                # Only breaker-barred moves remained.
                return index, "breaker-open", suspects
            verdict = classify_stuckness(component, self._plans[index],
                                         self.repository)
            if verdict == "security":
                if self._faulted_location_in(component):
                    # A crashed/deviant service starved the component of
                    # its valid moves — an injected fault, not a plan
                    # defect; recover instead of reporting a violation.
                    return index, "injected-blockage", suspects
                return index, "security", suspects
            if verdict == "communication":
                return index, "communication-stuck", suspects
        # Every non-terminated component looked fine individually (can
        # happen transiently); treat the first one as communication-stuck.
        for index, component in enumerate(configuration.components):
            if not component.is_terminated():
                return index, "communication-stuck", self._suspects(index)
        raise AssertionError("diagnosis requested on a terminated network")

    def _suspects(self, index: int) -> tuple[str, ...]:
        """The service locations a blocked component is engaged with
        (its session partners), falling back to its plan's targets."""
        component = self.simulator.configuration[index]
        client = self.client_locations[index]
        partners = set(locations(component.tree)) - {client}
        if partners:
            return tuple(sorted(partners))
        return tuple(sorted(self._plans[index].locations()))

    def _faulted_location_in(self, component: Component) -> bool:
        faulted = {fault.location for fault in self.fault_plan
                   if fault.kind in ("crash", "byzantine")
                   and fault.active(self.clock)}
        return bool(faulted & set(locations(component.tree)))

    def _recover(self, index: int, trigger: str,
                 suspects: tuple[str, ...]) -> RecoveryEpisode:
        episode = RecoveryEpisode(component=index, trigger=trigger,
                                  suspects=suspects,
                                  started_at=self.clock)
        self.episodes.append(episode)
        tel = _telemetry.active()
        span = (tel.tracer.start_span("supervisor.recovery",
                                      component=index, trigger=trigger)
                if tel is not None else None)
        try:
            self._recover_inner(index, episode)
        finally:
            episode.ended_at = self.clock
            if tel is not None:
                tel.metrics.counter("resilience.episodes",
                                    outcome=episode.outcome).inc()
                if span is not None:
                    span.set(outcome=episode.outcome,
                             rollbacks=episode.rollbacks,
                             retries=episode.retries,
                             replanned=episode.replanned)
                    tel.tracer.end_span(span)
        return episode

    def _pop_checkpoint(self, index: int) -> Checkpoint | None:
        """The nearest checkpoint of component *index* with an untried
        branch (exhausted ones are discarded on the way)."""
        stack = self._checkpoints[index]
        while stack:
            checkpoint = stack.pop()
            if checkpoint.untried:
                return checkpoint
        return None

    def _try_rollback(self, index: int,
                      episode: RecoveryEpisode) -> bool:
        """Rung 1 of the ladder: rewind to checkpoints with untried
        branches, exponential backoff between attempts.

        Each attempt restores the snapshot, bans the tried branch keys
        until the component's next firing, then waits one backoff delay
        — applying due fault mutations afterwards, so faults injected
        *during* the rollback are live before progress is re-checked.
        An attempt whose untried branches are themselves blocked simply
        rewinds deeper on the next iteration, until the per-episode
        budget or the checkpoint stack runs out.
        """
        policy = self.rollback_policy
        if not policy.enabled:
            return False
        tel = _telemetry.active()
        for attempt in range(policy.max_rollbacks):
            checkpoint = self._pop_checkpoint(index)
            if checkpoint is None:
                return False
            delay = min(self.backoff.base * self.backoff.factor ** attempt,
                        self.backoff.max_delay)
            episode.rollbacks += 1
            episode.waited_ticks += delay
            self.clock += delay
            self.simulator.configuration = \
                self.simulator.configuration.replace(index,
                                                     checkpoint.snapshot)
            self._session_targets[index] = list(checkpoint.targets)
            self._banned[index] = frozenset(checkpoint.tried)
            self._pending[index] = checkpoint
            if tel is not None:
                tel.metrics.counter("resilience.rollbacks").inc()
                self._last_event_seq = tel.emit(
                    "recovery.rollback", component=index,
                    to_tick=checkpoint.tick, to_step=checkpoint.step,
                    untried=len(checkpoint.untried), waited=delay,
                    tick=self.clock, cause=self._last_event_seq).seq
            self._apply_due_mutations()
            _raw, allowed, _blocking = self._filtered()
            allowed, _barred = self._without_banned(allowed)
            if allowed:
                episode.outcome = "rolled-back"
                return True
        return False

    def _drop_checkpoints(self, index: int) -> None:
        """Forget component *index*'s reversible-session state (its
        history is being rewritten by compensation — the snapshots no
        longer extend it)."""
        self._checkpoints[index] = []
        self._banned[index] = frozenset()
        self._pending[index] = None

    def _recover_inner(self, index: int,
                       episode: RecoveryEpisode) -> None:
        tel = _telemetry.active()
        # 1. Rollback-first: rewind to the last checkpoint and steer
        #    onto an untried branch.
        if self._try_rollback(index, episode):
            return
        # 2. Bounded retry: wait transient faults (and breaker
        #    cooldowns) out on the simulated clock.
        for delay in self.backoff.delays():
            episode.retries += 1
            episode.waited_ticks += delay
            self.clock += delay
            if tel is not None:
                tel.metrics.counter("resilience.retries").inc()
                self._last_event_seq = tel.emit(
                    "recovery.retry", component=episode.component,
                    waited=delay, tick=self.clock,
                    cause=self._last_event_seq).seq
            self._apply_due_mutations()
            _raw, allowed, _blocking = self._filtered()
            allowed, _barred = self._without_banned(allowed)
            if allowed:
                episode.outcome = "retried"
                return
        # 3. Failover: blame the suspects, re-plan around them, and
        #    compensate the component so its history stays consistent.
        for location in episode.suspects:
            self._breaker(location).record_failure(self.clock)
        episode.replanned = True
        if tel is not None:
            tel.metrics.counter("resilience.replans").inc()
        barred = {location for location, breaker in self.breakers.items()
                  if breaker.state == OPEN}
        excluded = tuple(sorted(
            set(episode.suspects) | barred
            | set(self.fault_plan.crashed_locations(self.clock))))
        client = self.client_locations[index]
        new_plan = replan(self.clients[client], self.repository,
                          previous=self._plans[index], excluded=excluded,
                          location=client)
        if new_plan is None:
            episode.outcome = "gave-up"
            if tel is not None:
                self._last_event_seq = tel.emit(
                    "recovery.gave-up", component=index,
                    excluded=", ".join(excluded), tick=self.clock,
                    cause=self._last_event_seq).seq
            return
        component = self.simulator.configuration[index]
        restarted = compensate(component, client, self.clients[client])
        self.simulator.configuration = \
            self.simulator.configuration.replace(index, restarted)
        self._drop_checkpoints(index)
        if tel is not None:
            self._last_event_seq = tel.emit(
                "recovery.compensate", component=index,
                tick=self.clock, cause=self._last_event_seq).seq
        self._plans[index] = new_plan
        self.simulator.plans = PlanVector(tuple(self._plans))
        self._session_targets[index] = []
        episode.outcome = "failed-over"
        episode.new_plan = str(new_plan)
        if tel is not None:
            self._last_event_seq = tel.emit(
                "recovery.replan", component=index,
                new_plan=str(new_plan),
                excluded=", ".join(excluded), tick=self.clock,
                cause=self._last_event_seq).seq


def _rewrite_leaves(tree, location: str, rewrite):
    """Apply *rewrite* to the term of every leaf at *location*; returns
    *tree* itself when nothing matched."""
    if isinstance(tree, Leaf):
        if tree.location != location:
            return tree
        term = rewrite(tree.term)
        return tree if term == tree.term else Leaf(location, term)
    left = _rewrite_leaves(tree.left, location, rewrite)
    right = _rewrite_leaves(tree.right, location, rewrite)
    if left is tree.left and right is tree.right:
        return tree
    from repro.network.config import SessionNode
    return SessionNode(left, right)
