"""Unit tests for the subcontract preorder decider and its witnesses."""

import itertools
from pathlib import Path

import pytest

from repro.canon import (PreorderResult, preorder_equivalent,
                         subcontract_preorder)
from repro.cli import load_module
from repro.core.compliance import check_compliance, compliant
from repro.core.syntax import (EPSILON, Var, external, internal, mu,
                               receive, send)
from tests.deciders import DECIDERS

EXAMPLES = Path(__file__).parents[2] / "examples"


def every_client(depth, channels):
    """Every client of nesting depth at most *depth*: ``ε``, and each
    internal or external choice of one or two branches over
    *channels*."""
    if depth == 0:
        return [EPSILON]
    subs = every_client(depth - 1, channels)
    out = [EPSILON]
    for kind in (internal, external):
        for channel in channels:
            out.extend(kind((channel, sub)) for sub in subs)
        for first, second in itertools.combinations(channels, 2):
            out.extend(kind((first, sub1), (second, sub2))
                       for sub1 in subs for sub2 in subs)
    return out


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
        accepts.  A check that every right ready set contains a left one
        refuses this pair; no client of depth two tells the two apart."""
        left = internal(("x", external(("a", EPSILON), ("b", EPSILON))),
                        ("x", external(("a", EPSILON), ("c", EPSILON))))
        right = internal(("x", receive("a")))
        assert subcontract_preorder(left, right).holds
        for client in every_client(2, "xabc"):
            assert not compliant(client, left) or compliant(client, right)


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
