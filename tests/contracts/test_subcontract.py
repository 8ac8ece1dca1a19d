"""Tests for the subcontract (server-substitutability) preorder, as the
exact :func:`~repro.canon.preorder.subcontract_preorder` decides it and
:meth:`~repro.registry.ContractRegistry.find_substitutable` discovers by
it."""

import random

from repro.canon.preorder import preorder_equivalent, subcontract_preorder
from repro.core.compliance import compliant
from repro.core.syntax import (EPSILON, Var, event, external, internal, mu,
                               receive, send, seq)
from repro.network.repository import Repository
from repro.registry import ContractRegistry


def subcontract(smaller, larger) -> bool:
    """``smaller ≼ larger``."""
    return subcontract_preorder(smaller, larger).holds


def substitutable_services(advertised, repository) -> tuple[str, ...]:
    """The locations of *repository* whose contract refines
    *advertised*, in name order."""
    registry = ContractRegistry()
    for location, term in repository.items():
        registry.add(location, term)
    return registry.find_substitutable(advertised).matches


class TestBasics:
    def test_reflexive(self):
        for term in (EPSILON, send("a"), receive("a"),
                     internal(("a", EPSILON), ("b", EPSILON))):
            assert subcontract(term, term)

    def test_epsilon_refines_everything(self):
        # Only ε complies with ε, and ε complies with any server.
        for term in (send("a"), receive("a"),
                     mu("h", external(("go", send("x", Var("h"))),))):
            assert subcontract(EPSILON, term)

    def test_nothing_nontrivial_refines_epsilon(self):
        assert not subcontract(send("a"), EPSILON)
        assert not subcontract(receive("a"), EPSILON)

    def test_fewer_outputs_is_larger(self):
        # A server that may send a or b is refined by one sending only a.
        both = internal(("a", EPSILON), ("b", EPSILON))
        only_a = internal(("a", EPSILON))
        assert subcontract(both, only_a)
        assert not subcontract(only_a, both)

    def test_more_inputs_is_larger(self):
        few = external(("a", EPSILON))
        many = external(("a", EPSILON), ("b", EPSILON))
        assert subcontract(few, many)
        assert not subcontract(many, few)

    def test_depth_refinement(self):
        # Same first step, refined continuation.
        smaller = receive("go", internal(("yes", EPSILON),
                                         ("no", EPSILON)))
        larger = receive("go", internal(("yes", EPSILON)))
        assert subcontract(smaller, larger)
        assert not subcontract(larger, smaller)

    def test_events_are_transparent(self):
        noisy = seq(event("log"), send("a"))
        assert preorder_equivalent(noisy, send("a"))


class TestRecursion:
    LOOP = mu("h", external(("go", internal(("yes", Var("h")),
                                            ("no", EPSILON))),))

    def test_loop_self_refinement(self):
        assert subcontract(self.LOOP, self.LOOP)

    def test_extra_input_branch_refines(self):
        wider = mu("h", external(("go", internal(("yes", Var("h")),
                                                 ("no", EPSILON))),
                                 ("ping", EPSILON)))
        assert subcontract(self.LOOP, wider)
        assert not subcontract(wider, self.LOOP)

    def test_pruned_output_refines(self):
        deterministic = mu("h", external(("go", internal(("no",
                                                          EPSILON),)),))
        assert subcontract(self.LOOP, deterministic)


class TestViolationWitness:
    def test_witness_none_on_refinement(self):
        assert subcontract_preorder(send("a"), send("a")).witness is None

    def test_witness_path_on_failure(self):
        smaller = receive("go", external(("a", EPSILON)))
        larger = receive("go", external(("b", EPSILON)))
        witness = subcontract_preorder(smaller, larger).witness
        assert witness is not None
        assert len(witness.path) == 1  # fails right after the go exchange
        assert witness.replays()


class TestSemanticDefinition:
    """Bounded-exhaustive exactness: compare against the literal
    definition '∀C: C ⊢ H1 ⟹ C ⊢ H2', quantifying over *all* clients of
    depth ≤ 2 over two channels (127 clients) — exact for servers of the
    same depth."""

    @staticmethod
    def generate(depth):
        if depth == 0:
            return [EPSILON]
        subs = TestSemanticDefinition.generate(depth - 1)
        out = [EPSILON]
        for kind in (internal, external):
            for channel in ("a", "b"):
                for sub in subs:
                    out.append(kind((channel, sub)))
            for sub1 in subs:
                for sub2 in subs:
                    out.append(kind(("a", sub1), ("b", sub2)))
        return out

    def test_exact_on_small_contracts(self):
        universe = self.generate(2)
        clients = universe  # clients and servers range over the same set
        rng = random.Random(42)
        pairs = [(rng.choice(universe), rng.choice(universe))
                 for _ in range(60)]
        for h1, h2 in pairs:
            quantified = all(not compliant(c, h1) or compliant(c, h2)
                             for c in clients)
            assert subcontract(h1, h2) == quantified, (str(h1), str(h2))

    def test_sound_on_deeper_contracts(self):
        # Depth-2 clients cannot refute every depth-3 non-refinement, but
        # a positive subcontract verdict must never be refuted.
        servers = self.generate(3)
        clients = self.generate(2)
        rng = random.Random(43)
        pairs = [(rng.choice(servers), rng.choice(servers))
                 for _ in range(25)]
        for h1, h2 in pairs:
            if subcontract(h1, h2):
                for client in clients:
                    assert not compliant(client, h1) or \
                        compliant(client, h2)


class TestDiscovery:
    def test_substitutable_services(self):
        advertised = internal(("ok", EPSILON), ("err", EPSILON))
        repo = Repository({
            "exact": internal(("ok", EPSILON), ("err", EPSILON)),
            "better": internal(("ok", EPSILON)),
            "worse": internal(("ok", EPSILON), ("err", EPSILON),
                              ("maybe", EPSILON)),
        })
        assert substitutable_services(advertised, repo) == \
            ("better", "exact")

    def test_discovery_preserves_compliance(self):
        advertised = internal(("ok", EPSILON), ("err", EPSILON))
        client = external(("ok", EPSILON), ("err", EPSILON))
        repo = Repository({
            "better": internal(("ok", EPSILON)),
        })
        assert compliant(client, advertised)
        for location in substitutable_services(advertised, repo):
            assert compliant(client, repo[location])
