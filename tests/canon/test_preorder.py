"""Unit tests for the subcontract preorder decider and its witnesses."""

from pathlib import Path

import pytest

from repro.canon import (PreorderResult, preorder_equivalent,
                         subcontract_preorder)
from repro.cli import load_module
from repro.contracts.subcontract import subcontract as interpreted_subcontract
from repro.core.compliance import check_compliance
from repro.core.syntax import (EPSILON, Var, external, internal, mu,
                               receive, send)
from tests.deciders import DECIDERS

EXAMPLES = Path(__file__).parents[2] / "examples"


class TestVerdicts:
    def test_reflexive(self):
        term = external(("a", internal(("x", EPSILON))), ("b", EPSILON))
        result = subcontract_preorder(term, term)
        assert isinstance(result, PreorderResult)
        assert result.holds and bool(result)
        assert result.witness is None
        assert result.pairs >= 1

    def test_wider_external_choice_refines(self):
        # ?a ≼ ?a + ?b: extra inputs can only serve more clients.
        assert subcontract_preorder(receive("a"),
                                    external(("a", EPSILON),
                                             ("b", EPSILON))).holds

    def test_narrower_external_choice_refuses(self):
        result = subcontract_preorder(external(("a", EPSILON),
                                               ("b", EPSILON)),
                                      receive("a"))
        assert not result.holds
        assert result.witness is not None

    def test_narrower_internal_choice_refines(self):
        # !a ⊕ !b ≼ !a: committing to fewer outputs can't hurt a client
        # that was ready for all of them.
        assert subcontract_preorder(internal(("a", EPSILON),
                                             ("b", EPSILON)),
                                    send("a")).holds

    def test_wider_internal_choice_refuses(self):
        result = subcontract_preorder(send("a"),
                                      internal(("a", EPSILON),
                                               ("b", EPSILON)))
        assert not result.holds

    def test_vacuous_left_accepts_everything(self):
        # Only ε complies with ε, and ε complies with everything.
        for right in (send("a"), receive("a"), EPSILON,
                      mu("h", internal(("x", Var("h"))))):
            assert subcontract_preorder(EPSILON, right).holds

    def test_equivalence_of_bisimilar_services(self):
        module = load_module(str(EXAMPLES / "hotel_booking.sus"))
        services = module.services
        assert preorder_equivalent(services["ls1"], services["ls3"])
        assert not preorder_equivalent(services["ls1"], services["lbr"])

    def test_exact_where_interpreted_is_conservative(self):
        """The quotient-table decider is exact in input mode: clients
        compliant with the left contract can only send channels in the
        *intersection* of its input ready sets, which the right contract
        accepts — the interpreted checker's every-ready-set containment
        test refuses this pair."""
        left = internal(("x", external(("a", EPSILON), ("b", EPSILON))),
                        ("x", external(("a", EPSILON), ("c", EPSILON))))
        right = internal(("x", receive("a")))
        assert not interpreted_subcontract(left, right)
        assert subcontract_preorder(left, right).holds

    def test_interpreted_true_implies_preorder_true(self):
        cases = [
            (receive("a"), external(("a", EPSILON), ("b", EPSILON))),
            (internal(("a", EPSILON), ("b", EPSILON)), send("a")),
            (external(("a", send("x")), ("b", EPSILON)),
             external(("a", send("x")), ("b", EPSILON), ("c", EPSILON))),
        ]
        for smaller, larger in cases:
            if interpreted_subcontract(smaller, larger):
                assert subcontract_preorder(smaller, larger).holds, \
                    (smaller, larger)


class TestWitnesses:
    @pytest.mark.parametrize("engine", DECIDERS)
    def test_witness_replays_on_every_engine(self, engine):
        result = subcontract_preorder(external(("a", EPSILON),
                                               ("b", EPSILON)),
                                      receive("a"))
        witness = result.witness
        assert witness is not None
        assert witness.replays()
        decide = DECIDERS[engine]
        assert decide(witness.client, witness.smaller)
        assert not decide(witness.client, witness.larger)

    def test_witness_client_is_concrete(self):
        result = subcontract_preorder(send("a"),
                                      internal(("a", EPSILON),
                                               ("b", EPSILON)))
        witness = result.witness
        assert witness is not None
        # The synthesised client complies with the smaller server but
        # gets stuck against the larger one.
        assert check_compliance(witness.client, witness.smaller).compliant
        assert not check_compliance(witness.client,
                                    witness.larger).compliant
        assert witness.describe()

    def test_deep_refusal_is_found(self):
        # The divergence only appears after one handshake.
        smaller = internal(("x", external(("a", EPSILON),
                                          ("b", EPSILON))))
        larger = internal(("x", receive("a")))
        ok = subcontract_preorder(smaller, larger)
        assert not ok.holds
        assert ok.witness is not None
        assert len(ok.witness.path) >= 1
        assert ok.witness.replays()
