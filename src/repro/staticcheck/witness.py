"""Counterexample witnesses produced by the static analyses.

A static rejection is only trustworthy if it can be *replayed* in the
concrete semantics, so each witness class carries enough state to
re-execute its own refusal:

* :class:`ValidityWitness` — a shortest offending abstract path (labels
  plus the violated automaton's state sets along it); ``replays()``
  feeds the labels through the concrete
  :class:`~repro.core.validity.ValidityMonitor` and confirms the
  violation lands exactly on the final label.
* :class:`StuckWitness` — a shortest synchronisation path to a stuck
  product configuration together with the ready sets that fail the
  Definition 3/4 matching; ``replays()`` re-walks the path over the
  concrete contract transition systems and re-checks the refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import HistoryLabel
from repro.core.ready_sets import ReadySet, co_set, ready_sets
from repro.core.syntax import HistoryExpression
from repro.core.validity import ValidityMonitor
from repro.policies.usage_automata import Policy


def _sorted_set(items) -> list[str]:
    """A deterministic JSON rendering of a set-like value."""
    return sorted(str(item) for item in items)


@dataclass(frozen=True)
class ValidityWitness:
    """A shortest abstract path proving ``|= η`` fails.

    ``labels`` is the offending history prefix; its last label is the one
    the violated *policy* refuses.  ``states`` tracks the policy
    automaton's reachable state set after each label (``states[0]`` is
    the set before any label), so the path can be read as a run of the
    usage automaton ending in an offending state.
    """

    labels: tuple[HistoryLabel, ...]
    policy: Policy
    states: tuple[frozenset[str], ...]

    def replays(self) -> bool:
        """Does the witness reproduce its violation concretely?

        Feeds the labels through a fresh concrete monitor: the history
        must stay valid up to the last label, the reported policy must be
        among those blaming the last label, and appending it must break
        validity.  Any mismatch means the static engine produced a
        spurious path.
        """
        if not self.labels:
            return False
        monitor = ValidityMonitor()
        for label in self.labels[:-1]:
            if not monitor.extend(label):
                return False
        last = self.labels[-1]
        if self.policy not in monitor.blame(last):
            return False
        return not monitor.extend(last)

    def render_text(self) -> str:
        lines = [f"validity violation of policy {self.policy}:"]
        for index, label in enumerate(self.labels):
            states = "{" + ", ".join(_sorted_set(self.states[index + 1])) + "}"
            lines.append(f"  {index + 1}. {label}  ->  {states}")
        lines.append(f"  the final label is refused by {self.policy}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "kind": "validity",
            "policy": str(self.policy),
            "labels": [str(label) for label in self.labels],
            "states": [_sorted_set(states) for states in self.states],
        }


@dataclass(frozen=True)
class StuckWitness:
    """A shortest path into a stuck configuration (Definitions 3/4).

    ``trace`` is a sequence of product states ``⟨H1, H2⟩`` — projected
    contract terms — from the initial pair to the stuck one; consecutive
    states are related by one synchronisation.  ``unmatched`` lists the
    ready-set pairs ``(C, S)`` of the stuck state with ``C ≠ ∅`` and
    ``C ∩ co(S) = ∅``: the client insists on one of the actions in ``C``
    while the server may present ``S``, which offers none of their
    co-actions.
    """

    trace: tuple[tuple[HistoryExpression, HistoryExpression], ...]
    client_ready: frozenset[ReadySet]
    server_ready: frozenset[ReadySet]
    unmatched: tuple[tuple[ReadySet, ReadySet], ...]

    @property
    def stuck_pair(self) -> tuple[HistoryExpression, HistoryExpression]:
        return self.trace[-1]

    def replays(self) -> bool:
        """Does the witness reproduce its refusal concretely?

        Re-walks ``trace`` over the concrete contract transition systems
        (each hop must be a genuine synchronisation) and re-derives the
        unmatched ready-set pairs of the final state from
        :func:`~repro.core.ready_sets.ready_sets` — the stuck
        configuration must refuse for exactly the reported reason.
        """
        from repro.contracts.contract import Contract
        from repro.contracts.product import synchronisations

        if not self.trace or not self.unmatched:
            return False
        client = Contract(self.trace[0][0], already_projected=True)
        server = Contract(self.trace[0][1], already_projected=True)
        for state, successor in zip(self.trace, self.trace[1:]):
            moves = set(synchronisations(client.lts, server.lts, state))
            if successor not in moves:
                return False
        h1, h2 = self.trace[-1]
        if (ready_sets(h1) != self.client_ready
                or ready_sets(h2) != self.server_ready):
            return False
        for client_set, server_set in self.unmatched:
            if not client_set:
                return False
            if client_set & co_set(server_set):
                return False
            if client_set not in self.client_ready:
                return False
            if server_set not in self.server_ready:
                return False
        return True

    def render_text(self) -> str:
        from repro.lang.pretty import printer

        render = printer()  # the trace's residuals share sub-terms
        lines = ["stuck configuration (no ready-set match):"]
        for depth, (h1, h2) in enumerate(self.trace):
            lines.append(f"  {depth}: <{render(h1)} | {render(h2)}>")
        for client_set, server_set in self.unmatched:
            lines.append(
                f"  client insists on {_render_ready(client_set)} but the "
                f"server may present {_render_ready(server_set)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        from repro.lang.pretty import printer

        render = printer()  # the trace's residuals share sub-terms
        return {
            "kind": "stuck",
            "trace": [[render(h1), render(h2)] for h1, h2 in self.trace],
            "client_ready": sorted(
                _sorted_set(rs) for rs in self.client_ready),
            "server_ready": sorted(
                _sorted_set(rs) for rs in self.server_ready),
            "unmatched": [[_sorted_set(client_set), _sorted_set(server_set)]
                          for client_set, server_set in self.unmatched],
        }


def witness_from_history(labels) -> ValidityWitness | None:
    """Package a concrete offending history as a :class:`ValidityWitness`.

    Feeds *labels* (e.g. the flattened counterexample of a security model
    checking run) through a fresh monitor and truncates at the first
    refused label, so the returned witness replays sharply by
    construction.  ``None`` when the history is entirely valid.
    """
    monitor = ValidityMonitor()
    consumed: list[HistoryLabel] = []
    for label in labels:
        blamed = monitor.blame(label)
        if blamed:
            policy = blamed[0]
            path = tuple(consumed) + (label,)
            return ValidityWitness(labels=path, policy=policy,
                                   states=automaton_states(path, policy))
        monitor.extend(label)
        consumed.append(label)
    return None


def automaton_states(path: tuple, policy: Policy
                     ) -> tuple[frozenset[str], ...]:
    """The policy automaton's reachable state set after each label of
    *path* (framing labels leave the automaton in place);
    ``len(result) == len(path) + 1``, the first entry being the initial
    set."""
    from repro.core.actions import Event

    runner = policy.runner()
    states = [_state_union(runner)]
    for label in path:
        if isinstance(label, Event):
            runner.step(label)
        states.append(_state_union(runner))
    return tuple(states)


def _state_union(runner) -> frozenset[str]:
    merged: set[str] = set()
    for targets in runner.current_states().values():
        merged.update(targets)
    return frozenset(merged)


def _render_ready(actions: ReadySet) -> str:
    if not actions:
        return "{}"
    return "{" + ", ".join(_sorted_set(actions)) + "}"
