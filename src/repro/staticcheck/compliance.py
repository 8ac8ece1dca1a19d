"""Compliance certification as a greatest fixpoint with stuck witnesses.

Definition 4 presents ``H1 ⊢ H2`` coinductively: the *largest* relation
whose pairs satisfy the ready-set condition and are closed under
synchronisation.  This module re-derives that relation through the
worklist solver by the standard complement trick: over the candidate
relation (the pairs reachable from ``⟨H1!, H2!⟩`` by synchronisations,
computed with :func:`repro.contracts.product.synchronisations`), solve
the *least* fixpoint of

    ``removed(p)  =  ¬ready_condition(p)  ∨  ∃ p→p'. removed(p')``

on the two-point lattice; the greatest fixpoint of Definition 4 is the
complement, so ``H1 ⊢ H2`` iff the initial pair is not removed.
Following Definition 5, refusing pairs are absorbing (their
synchronisations are cut), which keeps the candidate relation the same
one :func:`repro.core.compliance.compliant_coinductive` explores.

On refusal the certificate carries a
:class:`~repro.staticcheck.witness.StuckWitness`: a shortest
synchronisation path into the nearest refusing pair plus the ready sets
that fail to match (Definition 3/4), replayable against the concrete
contract transition systems.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from repro.core.errors import StateSpaceLimitError
from repro.core.ready_sets import ready_sets, unmatched_pairs
from repro.core.syntax import HistoryExpression
from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.contracts.product import PairState, synchronisations
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import track_cache
from repro.staticcheck.solver import BoolLattice, Equation, solve
from repro.staticcheck.witness import StuckWitness

#: Entries kept in the certification memo table (see
#: :func:`repro.staticcheck.clear_staticcheck_caches`).
COMPLIANCE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ComplianceCertificate:
    """Outcome of the fixpoint compliance certification.

    ``pairs`` is the size of the candidate relation (reachable product
    pairs) and ``iterations`` the number of fixpoint steps the removal
    system took; on refusal ``witness`` explains the stuck configuration
    with the ready sets that fail to match.
    """

    compliant: bool
    witness: StuckWitness | None
    pairs: int
    iterations: int

    def __bool__(self) -> bool:
        return self.compliant


def certify_compliance(client: HistoryExpression | Contract,
                       server: HistoryExpression | Contract, *,
                       max_states: int = DEFAULT_STATE_LIMIT
                       ) -> ComplianceCertificate:
    """Certify ``client ⊢ server`` (Definition 4) as a greatest fixpoint,
    with a stuck-configuration witness on refusal.

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
        span.set(compliant=certificate.compliant, pairs=certificate.pairs,
                 iterations=certificate.iterations)
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
    client = Contract(client_term, already_projected=True)
    server = Contract(server_term, already_projected=True)
    client_lts = client.lts
    server_lts = server.lts
    initial: PairState = (client_term, server_term)

    # Candidate relation: pairs reachable by synchronisation, with
    # refusing pairs absorbing.  Successors are explored in a canonical
    # order so the (shortest) witness below is deterministic across
    # processes whatever the hash seed.
    successors: dict[PairState, tuple[PairState, ...]] = {}
    refusing: dict[PairState, tuple] = {}
    parents: dict[PairState, PairState] = {}
    first_refusing: PairState | None = None
    seen: set[PairState] = {initial}
    frontier: deque[PairState] = deque([initial])
    while frontier:
        pair = frontier.popleft()
        refusals = unmatched_pairs(*pair)
        if refusals:
            refusing[pair] = refusals
            successors[pair] = ()
            if first_refusing is None:
                first_refusing = pair
            continue
        moves = set(synchronisations(client_lts, server_lts, pair))
        if len(moves) > 1:
            moves = sorted(moves, key=repr)
        successors[pair] = tuple(moves)
        for successor in moves:
            if successor not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "ready-set product")
                seen.add(successor)
                parents[successor] = pair
                frontier.append(successor)

    equations = {
        pair: Equation(pair, successors[pair],
                       (lambda env, p=pair: _removed(p, refusing,
                                                     successors, env)))
        for pair in successors}
    solution = solve(equations, BoolLattice())

    if not solution[initial]:
        return ComplianceCertificate(True, None, len(successors),
                                     solution.iterations)

    # The initial pair was removed, so some refusing pair is reachable;
    # the BFS discovered the nearest one first.
    assert first_refusing is not None
    trace = [first_refusing]
    node = first_refusing
    while node != initial:
        node = parents[node]
        trace.append(node)
    trace.reverse()
    h1, h2 = first_refusing
    witness = StuckWitness(trace=tuple(trace),
                           client_ready=ready_sets(h1),
                           server_ready=ready_sets(h2),
                           unmatched=refusing[first_refusing])
    return ComplianceCertificate(False, witness, len(successors),
                                 solution.iterations)


track_cache("staticcheck.compliance", _certify)


def _removed(pair: PairState, refusing: dict, successors: dict,
             env) -> bool:
    if pair in refusing:
        return True
    return any(env[successor] for successor in successors[pair])
