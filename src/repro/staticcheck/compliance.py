"""Compliance certification with stuck witnesses.

Definition 4 presents ``H1 ⊢ H2`` coinductively: the *largest* relation
whose pairs satisfy the ready-set condition and are closed under
synchronisation.  On a finite product that greatest fixpoint needs no
solve: the candidate relation is the set of pairs reachable from
``⟨H1!, H2!⟩`` by synchronisations, with refusing pairs absorbing as in
Definition 5, and ``H1 ⊢ H2`` holds iff no refusing pair is in it.  So
the certificate is the product BFS of
:func:`repro.contracts.product.explore_product`, run to the end rather
than stopped at the first stuck pair: its ``pairs`` is the size of the
whole candidate relation, which only a full exploration knows.  On
contract states the BFS's stuck check (Definition 5) holds exactly when
the ready-set condition of Definition 4 fails.

On refusal the certificate carries a
:class:`~repro.staticcheck.witness.StuckWitness`: the shortest
synchronisation path into the first refusing pair the BFS met (the one
:func:`repro.core.compliance.check_compliance` reports) plus the ready
sets that fail to match (Definition 3/4), replayable against the
concrete contract transition systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.ready_sets import ready_sets, unmatched_pairs
from repro.core.syntax import HistoryExpression
from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.contracts.product import explore_product
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import track_cache
from repro.staticcheck.witness import StuckWitness

#: Entries kept in the certification memo table (see
#: :func:`repro.staticcheck.clear_staticcheck_caches`).
COMPLIANCE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ComplianceCertificate:
    """Outcome of the compliance certification.

    ``pairs`` is the size of the candidate relation (reachable product
    pairs, refusing ones included); on refusal ``witness`` explains the
    stuck configuration with the ready sets that fail to match.
    """

    compliant: bool
    witness: StuckWitness | None
    pairs: int

    def __bool__(self) -> bool:
        return self.compliant


def certify_compliance(client: HistoryExpression | Contract,
                       server: HistoryExpression | Contract, *,
                       max_states: int = DEFAULT_STATE_LIMIT
                       ) -> ComplianceCertificate:
    """Certify ``client ⊢ server`` (Definition 4) over the whole
    candidate relation, with a stuck-configuration witness on refusal.

    Memoised on the projected pair; the verdict provably agrees with the
    product-emptiness decider of :mod:`repro.core.compliance` (the test
    suite cross-validates them).
    """
    client_c = client if isinstance(client, Contract) else Contract(client)
    server_c = server if isinstance(server, Contract) else Contract(server)
    tel = _telemetry.active()
    if tel is None:
        return _certify(client_c.term, server_c.term, max_states)
    with tel.tracer.span("staticcheck.certify_compliance") as span:
        certificate = _certify(client_c.term, server_c.term, max_states)
        span.set(compliant=certificate.compliant, pairs=certificate.pairs)
        verdict = "compliant" if certificate.compliant else "witness"
        tel.metrics.counter("staticcheck.certifications",
                            analysis="compliance", verdict=verdict).inc()
        tel.metrics.counter("staticcheck.explored_states").inc(
            certificate.pairs)
        if certificate.witness is not None:
            tel.metrics.histogram("staticcheck.witness_length").observe(
                len(certificate.witness.trace) - 1)
        return certificate


@lru_cache(maxsize=COMPLIANCE_CACHE_SIZE)
def _certify(client_term: HistoryExpression, server_term: HistoryExpression,
             max_states: int) -> ComplianceCertificate:
    search = explore_product(Contract(client_term, already_projected=True),
                             Contract(server_term, already_projected=True),
                             max_states, exhaustive=True)
    if search.empty:
        return ComplianceCertificate(True, None, search.explored)
    h1, h2 = search.witness
    witness = StuckWitness(trace=search.trace,
                           client_ready=ready_sets(h1),
                           server_ready=ready_sets(h2),
                           unmatched=unmatched_pairs(h1, h2))
    return ComplianceCertificate(False, witness, search.explored)


track_cache("staticcheck.compliance", _certify)
