"""Static validity certification: proving ``|= η`` for all runs.

The concrete :class:`~repro.core.validity.ValidityMonitor` checks one
history at a time; this module certifies a whole history *expression* by
a symbolic product construction: BFS over pairs

    ``⟨residual term, abstract monitor state⟩``

where the abstract monitor (shared with :mod:`repro.analysis.security`)
keeps one frozen :class:`~repro.policies.usage_automata.PolicyRunner`
per policy of the term plus its activation count under the framings
opened so far.  Runner states are finite and activation depth is
bounded by the syntactic framing nesting, so the product is a finite
safety check — exactly the paper's reduction of validity to model
checking (Section 3.1), without ever enumerating individual runs.

On failure the BFS parent structure yields a *shortest* offending
abstract path, packaged as a :class:`~repro.staticcheck.witness.ValidityWitness`
(labels plus the violated automaton's state sets) that replays to a
genuine violation in the concrete semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.actions import is_history_label
from repro.core.errors import StateSpaceLimitError
from repro.core.semantics import step
from repro.core.syntax import HistoryExpression, policies_of
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table
from repro.analysis.security import (MonitorState, advance_monitor,
                                     fresh_monitor_state)
from repro.staticcheck.witness import ValidityWitness, automaton_states

#: Entries kept in the certification memo table.
VALIDITY_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ValidityCertificate:
    """Outcome of the static validity certification of one term.

    ``valid`` certifies ``|= η`` for *every* history ``η`` the term can
    produce; otherwise ``witness`` is a shortest offending abstract path.
    ``explored`` counts distinct product states (0 when the term mentions
    no policy at all — validity is then trivial).
    """

    valid: bool
    witness: ValidityWitness | None
    explored: int

    def __bool__(self) -> bool:
        return self.valid


def certify_validity(term: HistoryExpression, *,
                     max_states: int = DEFAULT_STATE_LIMIT
                     ) -> ValidityCertificate:
    """Certify that every run of *term* yields a valid history.

    Memoised on the (immutable) term; the telemetry wrapper records the
    verdict, the explored-state count and the witness length.
    *max_states* bounds the explored ⟨residual, monitor⟩ product states.
    """
    tel = _telemetry.active()
    if tel is None:
        return _certify(term, max_states)
    with tel.tracer.span("staticcheck.certify_validity") as span:
        certificate = _certify(term, max_states)
        span.set(valid=certificate.valid, explored=certificate.explored)
        verdict = "valid" if certificate.valid else "witness"
        tel.metrics.counter("staticcheck.certifications",
                            analysis="validity", verdict=verdict).inc()
        tel.metrics.counter("staticcheck.explored_states").inc(
            certificate.explored)
        if certificate.witness is not None:
            span.set(witness_length=len(certificate.witness.labels))
        return certificate


@memo_table("staticcheck.validity", VALIDITY_CACHE_SIZE)
def _certify(term: HistoryExpression,
             max_states: int) -> ValidityCertificate:
    policies = policies_of(term)
    if not policies:
        return ValidityCertificate(True, None, 0)

    initial = (term, fresh_monitor_state(policies))
    seen: set[tuple[HistoryExpression, MonitorState]] = {initial}
    frontier: deque = deque([(initial, ())])
    explored = 0
    while frontier:
        (residual, monitor), path = frontier.popleft()
        explored += 1
        for label, successor in step(residual):
            appends = (label,) if is_history_label(label) else ()
            next_monitor, violated = advance_monitor(monitor, appends)
            new_path = path + appends
            if violated is not None:
                # Every state kept by the BFS is violation-free, so the
                # history is valid right up to the final label — the
                # witness therefore replays sharply in the concrete
                # monitor (valid prefix, last label refused).
                witness = ValidityWitness(
                    labels=new_path,
                    policy=violated,
                    states=automaton_states(new_path, violated))
                return ValidityCertificate(False, witness, explored)
            next_state = (successor, next_monitor)
            if next_state not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "validity product")
                seen.add(next_state)
                frontier.append((next_state, new_path))
    return ValidityCertificate(True, None, explored)

