"""Static validity certification: proving ``|= η`` for all runs.

The concrete :class:`~repro.core.validity.ValidityMonitor` checks one
history at a time; this module certifies a whole history *expression*
by the breadth-first search of
:func:`repro.analysis.security.monitored_search` over pairs

    ``⟨residual term, abstract monitor state⟩``

which the security check of a plan runs over session trees.  Here the
moves are the :func:`~repro.core.semantics.step` residuals of the term,
and the abstract monitor keeps one frozen
:class:`~repro.policies.usage_automata.PolicyRunner` per policy of the
term plus its activation count under the framings opened so far.
Runner states are finite and activation depth is bounded by the
syntactic framing nesting, so the product is a finite safety check —
exactly the paper's reduction of validity to model checking
(Section 3.1), without ever enumerating individual runs.

On failure the search's parent pointers yield a *shortest* offending
abstract path, packaged as a :class:`~repro.staticcheck.witness.ValidityWitness`
(labels plus the violated automaton's state sets) that replays to a
genuine violation in the concrete semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import is_history_label
from repro.core.semantics import step
from repro.core.syntax import HistoryExpression, policies_of
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table
from repro.analysis.security import monitored_search
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

    explored, path, violated = monitored_search(
        term, policies, _residual_moves, max_states, "validity product")
    if path is None:
        return ValidityCertificate(True, None, explored)
    # Every pair kept by the search is violation-free, so the history is
    # valid right up to the final label — the witness therefore replays
    # sharply in the concrete monitor (valid prefix, last label refused).
    labels = tuple(label for label in path if is_history_label(label))
    witness = ValidityWitness(labels=labels, policy=violated,
                              states=automaton_states(labels, violated))
    return ValidityCertificate(False, witness, explored)


def _residual_moves(residual: HistoryExpression):
    """The moves of *residual* for :func:`monitored_search`: each label
    appends itself when it is a history label."""
    for label, successor in step(residual):
        yield (label, (label,) if is_history_label(label) else (),
               successor)
