"""Service compliance (paper, Definition 4 and Theorem 1).

Two history expressions ``Hc`` and ``Hs`` are *compliant*, written
``Hc ⊢ Hs``, when — working on their projections ``H1 = Hc!`` and
``H2 = Hs!`` — the largest relation satisfying both properties below
relates them:

(1) whenever ``H1 ⇓ C`` and ``H2 ⇓ S``, either ``C = ∅`` (the client has
    successfully finished) or ``C ∩ S̄ ≠ ∅`` (some action offered by one
    side is matched by the other);
(2) compliance is preserved by synchronisation:
    ``H1 --a--> H1' ∧ H2 --co(a)--> H2'`` implies ``H1' ⊢ H2'``.

Note the asymmetry: the client may terminate and walk away, leaving the
server mid-protocol, but never the other way around.

Two independent deciders and a certifier are provided:

* :func:`compliant_coinductive` implements the definition literally, via
  ready sets over the synchronised reachable pairs;
* :func:`compliant` / :func:`check_compliance` check language emptiness of
  the product of Definition 5 (Theorem 1) **on the fly**: because
  compliance is a safety property (Theorem 2), the BFS short-circuits at
  the first reachable stuck pair, never materialising the full product;
* :func:`repro.staticcheck.compliance.certify_compliance` runs the same
  product BFS to the end, so it also measures the whole candidate
  relation, and returns a stuck-configuration witness with the refusing
  ready sets on failure.

:func:`check_compliance` is the one production decider.
:func:`compliant_coinductive`, the explicit automaton of
:func:`repro.contracts.product.build_product` and the compiled search of
:func:`repro.compiled.search.compiled_search` are the independent
oracles the test suite checks it against on randomly generated
contracts — a machine check of Theorems 1 and 2.  The weaker
checkpoint/rollback relation is decided separately, by
:func:`repro.core.reversible.check_reversible`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.actions import co, is_input, is_output
from repro.core.ready_sets import unmatched_pairs
from repro.core.syntax import HistoryExpression
from repro.contracts.contract import Contract
from repro.contracts.product import PairState, search_product
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table


@dataclass(frozen=True)
class ComplianceResult:
    """Outcome of a compliance check.

    ``compliant`` is the verdict; on failure ``witness`` is a reachable
    stuck pair ``⟨H1, H2⟩`` and ``trace`` the sequence of product states
    leading to it (both ``None`` on success).  ``explored_states`` counts
    the distinct product states the search materialised — on a
    non-compliant pair this stays within the BFS radius of the shortest
    counterexample.
    """

    compliant: bool
    witness: PairState | None = None
    trace: tuple[PairState, ...] | None = None
    explored_states: int | None = None

    def __bool__(self) -> bool:
        return self.compliant


def check_compliance(client: HistoryExpression | Contract,
                     server: HistoryExpression | Contract
                     ) -> ComplianceResult:
    """Decide ``client ⊢ server`` via product emptiness (Theorem 1),
    returning a shortest counterexample trace when the check fails.

    Runs the lazy BFS of :func:`~repro.contracts.product.search_product`,
    which stops at the first stuck pair.
    """
    tel = _telemetry.active()
    if tel is None:
        return _check(client, server)
    with tel.tracer.span("compliance.check") as span:
        result = _check(client, server)
        span.set(compliant=result.compliant,
                 explored_states=result.explored_states)
        # A constant label: it keeps the counter key that existing
        # reports (the report goldens included) use.
        tel.metrics.counter(
            "compliance.checks", engine="onthefly",
            verdict="compliant" if result.compliant
            else "noncompliant").inc()
        tel.emit("compliance.verdict", compliant=result.compliant,
                 explored=result.explored_states)
        return result


def _check(client: HistoryExpression | Contract,
           server: HistoryExpression | Contract) -> ComplianceResult:
    search = search_product(_as_contract(client), _as_contract(server))
    if search.empty:
        return ComplianceResult(True, explored_states=search.explored)
    return ComplianceResult(False, witness=search.witness,
                            trace=search.trace,
                            explored_states=search.explored)


def compliant(client: HistoryExpression | Contract,
              server: HistoryExpression | Contract) -> bool:
    """Decide ``client ⊢ server`` via product-automaton emptiness."""
    return check_compliance(client, server).compliant


def compliant_coinductive(client: HistoryExpression | Contract,
                          server: HistoryExpression | Contract) -> bool:
    """Decide ``client ⊢ server`` directly from Definition 4.

    The candidate relation is the set of pairs reachable from
    ``⟨client!, server!⟩`` by synchronisations; by construction it is
    closed under property (2), so compliance holds iff every pair in it
    satisfies property (1) on ready sets.
    """
    client_c = _as_contract(client)
    server_c = _as_contract(server)
    client_lts = client_c.lts
    server_lts = server_c.lts

    initial: PairState = (client_c.term, server_c.term)
    seen: set[PairState] = {initial}
    frontier = deque([initial])
    while frontier:
        h1, h2 = frontier.popleft()
        if not _ready_set_condition(h1, h2):
            return False
        for label in client_lts.labels_from(h1):
            if not (is_output(label) or is_input(label)):
                continue
            partner = co(label)
            for h1_next in client_lts.successors(h1, label):
                for h2_next in server_lts.successors(h2, partner):
                    pair = (h1_next, h2_next)
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)
    return True


def _ready_set_condition(h1: HistoryExpression,
                         h2: HistoryExpression) -> bool:
    """Property (1) of Definition 4 on the pair ``⟨h1, h2⟩``."""
    return not unmatched_pairs(h1, h2)


@memo_table("compliance.contract_intern", 4096)
def _cached_contract(term: HistoryExpression) -> Contract:
    return Contract(term)


def _as_contract(value: HistoryExpression | Contract) -> Contract:
    if isinstance(value, Contract):
        return value
    # Terms are immutable and structurally hashed: every compliance check
    # over the same term reuses one Contract (and its built LTS).
    return _cached_contract(value)
