"""Declarative, seeded fault plans for the network runtime.

A :class:`Fault` is one injectable misbehaviour of the deployed network,
triggered on the supervisor's simulated clock:

* ``crash`` — the service at a location dies: every transition the
  location participates in (synchronisations, session opens routed to
  it, closes that discard it, its own accesses) is suppressed from
  ``at_step`` on, forever;
* ``drop`` — the service at a location withholds one output its contract
  promises: synchronisations on the channel the location participates in
  are suppressed while the fault is active (optionally bounded by
  ``duration`` ticks — a transient network partition);
* ``stall`` — a session open for a request hangs: ``open`` transitions
  for the request are suppressed while the fault is active;
* ``byzantine`` — the service at a location deviates from its published
  contract: its live term is mutated (one promised output is renamed to
  a channel nobody expects), and the deviant moves then flow through the
  ordinary :func:`repro.network.semantics.network_transitions` machinery
  — the monitored validity filter and the compliance machinery see them
  exactly as they would see a genuinely misbehaving service.

A :class:`FaultPlan` is an immutable collection of faults, either built
explicitly or sampled deterministically from a seed
(:func:`sample_fault_plan`), which is what the chaos harness does.

Fault *application* is split between this module (which faults block
which transitions, read off each transition's ``participants``, and
which term rewrites are due) and the
:class:`~repro.resilience.supervisor.Supervisor` (which owns the clock
and the simulator being disturbed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.actions import Send
from repro.core.syntax import (ExternalChoice, Framing,
                               HistoryExpression, InternalChoice, Mu,
                               Request, Seq, receive, seq)
from repro.network.repository import Repository
from repro.network.semantics import NetworkTransition

#: The fault kinds a plan may contain.
FAULT_KINDS = ("crash", "drop", "stall", "byzantine")

#: A channel no contract ever listens on — the target of byzantine
#: output renaming (and the input a crashed service would wait on).
DEVIANT_SUFFIX = "#deviant"


@dataclass(frozen=True)
class Fault:
    """One injectable fault.

    ``at_step`` is the simulated-clock tick the fault arms at;
    ``duration`` bounds transient faults (``None`` — and always, for
    ``crash``/``byzantine`` — means permanent).
    """

    kind: str
    location: str = ""
    channel: str = ""
    request: str = ""
    at_step: int = 0
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {', '.join(FAULT_KINDS)})")

    def active(self, now: int) -> bool:
        """Is the fault in force at tick *now*?"""
        if now < self.at_step:
            return False
        if self.kind in ("crash", "byzantine") or self.duration is None:
            return True
        return now < self.at_step + self.duration

    def describe(self) -> str:
        """A stable one-line description (used by chaos reports)."""
        window = ("" if self.duration is None
                  or self.kind in ("crash", "byzantine")
                  else f" for {self.duration} tick(s)")
        if self.kind == "crash":
            return f"crash of {self.location} at tick {self.at_step}"
        if self.kind == "drop":
            return (f"drop of !{self.channel} at {self.location} "
                    f"from tick {self.at_step}{window}")
        if self.kind == "stall":
            return (f"stall of open {self.request} "
                    f"from tick {self.at_step}{window}")
        return f"byzantine deviation of {self.location} at tick {self.at_step}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered collection of faults (possibly empty).

    ``seed`` records the sampling seed when the plan was drawn by
    :func:`sample_fault_plan` — provenance for chaos reports.
    """

    faults: tuple[Fault, ...] = ()
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def blocking_fault(self, transition: NetworkTransition,
                       now: int) -> Fault | None:
        """The first active fault suppressing *transition* at tick *now*,
        or ``None``.

        A crash suppresses every transition its location participates
        in, a drop every synchronisation on its channel its location
        participates in (``transition.participants``).
        """
        for fault in self.faults:
            if not fault.active(now):
                continue
            if fault.kind == "crash":
                if fault.location in transition.participants:
                    return fault
            elif fault.kind == "drop":
                if (transition.rule == "synch"
                        and transition.channel == fault.channel
                        and fault.location in transition.participants):
                    return fault
            elif fault.kind == "stall":
                if (transition.rule == "open"
                        and getattr(transition.label, "request", None)
                        == fault.request):
                    return fault
        return None

    def due_mutations(self, now: int,
                      applied: frozenset[Fault]) -> tuple[Fault, ...]:
        """Byzantine faults armed by *now* and not applied yet."""
        return tuple(fault for fault in self.faults
                     if fault.kind == "byzantine"
                     and fault.active(now) and fault not in applied)

    def crashed_locations(self, now: int) -> tuple[str, ...]:
        """Locations with an active crash fault, in plan order."""
        return tuple(fault.location for fault in self.faults
                     if fault.kind == "crash" and fault.active(now))

    def describe(self) -> tuple[str, ...]:
        return tuple(fault.describe() for fault in self.faults)


# -- byzantine term mutation -------------------------------------------------

def mutate_term(term: HistoryExpression,
                rng: random.Random) -> HistoryExpression:
    """A contract-deviating variant of *term*: one reachable promised
    output is renamed to a channel no partner listens on.

    When the term has no output left to corrupt, the service instead
    hangs on an input nobody sends — the degenerate deviation.
    The choice of output is drawn from *rng*, so mutations are seeded.
    """
    sends = _count_sends(term)
    if sends == 0:
        return receive("never" + DEVIANT_SUFFIX)
    target = rng.randrange(sends)
    mutated, _seen = _rename_send(term, target, 0)
    return mutated


def _count_sends(term: HistoryExpression) -> int:
    count = 0
    for node in term.walk():
        if isinstance(node, InternalChoice):
            count += len(node.branches)
    return count


def _rename_send(term: HistoryExpression, target: int,
                 seen: int) -> tuple[HistoryExpression, int]:
    """Rewrite send number *target* (in pre-order) to the deviant
    channel; returns the rewritten term and the updated send count."""
    if isinstance(term, InternalChoice):
        branches = []
        changed = False
        for label, cont in term.branches:
            if seen == target:
                label = Send(label.channel + DEVIANT_SUFFIX)
                changed = True
            seen += 1
            cont2, seen = _rename_send(cont, target, seen)
            changed = changed or cont2 is not cont
            branches.append((label, cont2))
        return ((InternalChoice(tuple(branches)) if changed else term),
                seen)
    if isinstance(term, ExternalChoice):
        branches = []
        changed = False
        for label, cont in term.branches:
            cont2, seen = _rename_send(cont, target, seen)
            changed = changed or cont2 is not cont
            branches.append((label, cont2))
        return ((ExternalChoice(tuple(branches)) if changed else term),
                seen)
    if isinstance(term, Seq):
        first, seen = _rename_send(term.first, target, seen)
        second, seen = _rename_send(term.second, target, seen)
        if first is term.first and second is term.second:
            return term, seen
        return seq(first, second), seen
    if isinstance(term, Mu):
        body, seen = _rename_send(term.body, target, seen)
        return (term if body is term.body else Mu(term.var, body)), seen
    if isinstance(term, Request):
        body, seen = _rename_send(term.body, target, seen)
        return (term if body is term.body
                else Request(term.request, term.policy, body)), seen
    if isinstance(term, Framing):
        body, seen = _rename_send(term.body, target, seen)
        return (term if body is term.body
                else Framing(term.policy, body)), seen
    return term, seen


# -- seeded sampling ---------------------------------------------------------

def service_channels(repository: Repository,
                     location: str) -> tuple[str, ...]:
    """The output channels the service at *location* promises, in term
    order (the candidates for a ``drop`` fault)."""
    term = repository.get(location)
    if term is None:
        return ()
    channels: list[str] = []
    for node in term.walk():
        if isinstance(node, InternalChoice):
            for label, _cont in node.branches:
                if label.channel not in channels:
                    channels.append(label.channel)
    return tuple(channels)


def module_requests(clients, repository: Repository) -> tuple[str, ...]:
    """Every request identifier occurring in the clients or the
    published services, sorted (the candidates for a ``stall`` fault)."""
    found: set[str] = set()
    terms = list(clients.values() if hasattr(clients, "values")
                 else clients)
    terms.extend(term for _loc, term in repository.items())
    for term in terms:
        for node in term.walk():
            if isinstance(node, Request):
                found.add(node.request)
    return tuple(sorted(found))


def sample_fault_plan(seed: int | random.Random,
                      repository: Repository,
                      requests: tuple[str, ...] = (),
                      kinds: tuple[str, ...] = ("crash", "drop", "stall"),
                      max_faults: int = 3,
                      horizon: int = 24,
                      max_duration: int = 8) -> FaultPlan:
    """Draw a random fault plan, deterministically from *seed*.

    *kinds* restricts the fault vocabulary; *horizon* bounds trigger
    ticks; transient faults get durations in ``[1, max_duration]``.
    Sampling only reads ordered views (location/channel tuples), so the
    same seed yields the same plan across processes.
    """
    rng = (seed if isinstance(seed, random.Random)
           else random.Random(seed))
    plan_seed = seed if isinstance(seed, int) else None
    locations = repository.locations()
    faults: list[Fault] = []
    for _ in range(rng.randint(0, max_faults)):
        choices = [kind for kind in kinds if kind in FAULT_KINDS
                   and (kind != "stall" or requests)
                   and (kind == "stall" or locations)]
        if not choices:
            break
        kind = rng.choice(choices)
        at_step = rng.randrange(horizon)
        if kind == "stall":
            faults.append(Fault("stall", request=rng.choice(requests),
                                at_step=at_step,
                                duration=rng.randint(1, max_duration)))
            continue
        location = rng.choice(locations)
        if kind == "crash":
            faults.append(Fault("crash", location=location,
                                at_step=at_step))
        elif kind == "byzantine":
            faults.append(Fault("byzantine", location=location,
                                at_step=at_step))
        else:
            channels = service_channels(repository, location)
            if not channels:
                continue
            faults.append(Fault("drop", location=location,
                                channel=rng.choice(channels),
                                at_step=at_step,
                                duration=rng.randint(1, max_duration)))
    return FaultPlan(tuple(faults), seed=plan_seed)
