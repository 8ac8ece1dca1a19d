"""Property-based machine checks of Theorem 1 and Theorem 2.

Theorem 1: ``H1 ⊢ H2`` (Definition 4, coinductive) iff
``L(H1 ⊗ H2) = ∅`` (Definition 5 product emptiness).  The two deciders
are implemented independently; hypothesis hammers them with random
contracts.
"""

from hypothesis import given, settings

from repro.canon.preorder import subcontract_preorder
from repro.core.compliance import (check_compliance, compliant,
                                   compliant_coinductive)
from repro.contracts.contract import Contract
from repro.contracts.product import build_product
from repro.core.semantics import is_terminated

from tests.strategies import contracts


@settings(max_examples=200, deadline=None)
@given(client=contracts(), server=contracts())
def test_theorem1_deciders_agree(client, server):
    assert compliant(client, server) == \
        compliant_coinductive(client, server)


@settings(max_examples=100, deadline=None)
@given(client=contracts(), server=contracts())
def test_theorem2_compliance_is_an_invariant(client, server):
    """Reachable-state-wise checking of the invariant Φ equals language
    emptiness — no temporal context needed (Theorem 2)."""
    product = build_product(Contract(client), Contract(server))
    reachable = product.lts.reachable_from(product.initial)
    invariant = not any(product.violates_invariant(state)
                        for state in reachable)
    assert invariant == product.language_is_empty()


@settings(max_examples=100, deadline=None)
@given(client=contracts(), server=contracts())
def test_compliance_preserved_by_synchronisation(client, server):
    """Property (2) of Definition 4: a compliant pair stays compliant
    after any synchronisation step of the product."""
    if not compliant(client, server):
        return
    product = build_product(Contract(client), Contract(server))
    for state in product.lts.reachable_from(product.initial):
        h1, h2 = state
        assert compliant_coinductive(Contract(h1, already_projected=True),
                                     Contract(h2, already_projected=True))


@settings(max_examples=100, deadline=None)
@given(server=contracts())
def test_epsilon_is_universally_compliant_client(server):
    """ε ⊢ H for every H: a client with nothing left to do never gets
    stuck."""
    from repro.core.syntax import EPSILON
    assert compliant(EPSILON, server)


@settings(max_examples=100, deadline=None)
@given(client=contracts(), server=contracts())
def test_counterexample_is_a_real_stuck_state(client, server):
    """When compliance fails, the reported witness is final and reachable
    by synchronisations from the initial pair."""
    result = check_compliance(client, server)
    if result.compliant:
        return
    assert result.witness is not None and result.trace is not None
    assert result.trace[-1] == result.witness
    h1, _ = result.witness
    assert not is_terminated(h1)  # Def. 5 excludes ⟨ε, H2⟩ from F


@settings(max_examples=200, deadline=None)
@given(contract=contracts())
def test_every_contract_complies_with_its_dual(contract):
    """H ⊢ H^⊥ — dualisation always yields a compliant partner."""
    from repro.core.duality import dual
    assert compliant(contract, dual(contract))


@settings(max_examples=100, deadline=None)
@given(smaller=contracts(max_depth=3), larger=contracts(max_depth=3),
       client=contracts(max_depth=3))
def test_subcontract_soundness(smaller, larger, client):
    """H1 ≼ H2 implies every compliant client of H1 complies with H2."""
    if subcontract_preorder(smaller, larger) and compliant(client, smaller):
        assert compliant(client, larger)


@settings(max_examples=100, deadline=None)
@given(contract=contracts(max_depth=3))
def test_subcontract_is_reflexive(contract):
    assert subcontract_preorder(contract, contract)


@settings(max_examples=60, deadline=None)
@given(a=contracts(max_depth=2), b=contracts(max_depth=2),
       c=contracts(max_depth=2))
def test_subcontract_is_transitive(a, b, c):
    if subcontract_preorder(a, b) and subcontract_preorder(b, c):
        assert subcontract_preorder(a, c)
