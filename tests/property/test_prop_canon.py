"""Property-based testing of the canonicalization layer.

Three families of seeded properties:

* **Quotient soundness** — running the product-emptiness search on
  bisimulation quotients yields exactly the verdict of every
  compliance decider on the original contracts.
* **Fingerprint stability** — canonical fingerprints are invariant
  under label-interning order (a cache flush plus a different warm-up
  must reproduce them bit for bit) and agree with canonical equality on
  random samples.
* **Preorder soundness** — over ≥200 seeded contract pairs: when
  ``H1 ≼ H2`` holds, every sampled client compliant with ``H1`` stays
  compliant with ``H2`` on every decider; when it is refused, the
  synthesised witness client replays concretely on every decider
  (compliant with ``H1``, stuck against ``H2``).
"""

import random

import pytest

from repro.canon import (canonically_equal, fingerprint_of, minimize,
                         preorder_equivalent, subcontract_preorder)
from repro.compiled.search import compiled_search
from repro.contracts.contract import clear_contract_caches
from repro.core.compliance import check_compliance
from repro.core.duality import dual
from repro.core.syntax import (EPSILON, external, internal, mu, seq, send)
from tests.deciders import DECIDERS

SEED = 0xCA404
PREORDER_ROUNDS = 210
SEARCH_LIMIT = 100_000


def random_contract(rng, depth):
    """The T1 grammar of the compiled property suite, extended with a
    guarded recursion production."""
    if depth == 0:
        return EPSILON
    kind = rng.choice(("int", "ext", "seq", "mu"))
    channels = rng.sample(["a", "b", "c"], k=rng.randint(1, 2))
    if kind == "seq":
        return seq(random_contract(rng, depth - 1),
                   random_contract(rng, depth - 1))
    if kind == "mu":
        return mu("h", internal((channels[0],
                                 random_contract(rng, depth - 1))))
    branches = tuple((channel, random_contract(rng, depth - 1))
                     for channel in channels)
    if kind == "int":
        return internal(*branches)
    return external(*branches)


def preorder_pairs(seed, rounds):
    """Seeded pairs mixing reflexive seeds (guaranteed positives),
    free random pairs (mostly refusals), and widened/narrowed variants
    that exercise both refinement directions."""
    rng = random.Random(seed)
    for _ in range(rounds):
        mode = rng.randrange(4)
        h1 = random_contract(rng, rng.randint(1, 4))
        if mode == 0:
            yield h1, h1
        elif mode == 1:
            # Widen at the root: extra external input / an independently
            # written contract.
            h2 = external(("a", h1)) if rng.random() < 0.5 else \
                random_contract(rng, rng.randint(1, 4))
            yield h1, h2
        else:
            yield h1, random_contract(rng, rng.randint(1, 4))


class TestQuotientSoundness:
    def test_quotient_verdicts_match_every_engine(self):
        rng = random.Random(SEED)
        disagreements = []
        for round_no in range(60):
            client = random_contract(rng, rng.randint(1, 4))
            server = (dual(client) if round_no % 3 == 0
                      else random_contract(rng, rng.randint(1, 4)))
            quotiented = compiled_search(minimize(client),
                                         minimize(server),
                                         SEARCH_LIMIT).empty
            for engine, decide in DECIDERS.items():
                direct = decide(client, server)
                if direct != quotiented:
                    disagreements.append((round_no, engine, direct,
                                          quotiented))
        assert not disagreements, disagreements[:5]

    def test_quotients_never_grow(self):
        rng = random.Random(SEED ^ 1)
        for _ in range(40):
            term = random_contract(rng, rng.randint(1, 4))
            quotient = minimize(term)
            assert quotient.n_blocks <= quotient.n_source_states


class TestFingerprintStability:
    def test_interning_order_cannot_move_fingerprints(self):
        rng = random.Random(SEED ^ 2)
        terms = [random_contract(rng, rng.randint(1, 4))
                 for _ in range(30)]
        clear_contract_caches()
        expected = [fingerprint_of(term) for term in terms]
        clear_contract_caches()
        # Re-intern everything in reverse, with extra channels salted in
        # first, so every label id differs from the first run.
        fingerprint_of(internal(("zz", EPSILON), ("yy", EPSILON)))
        recomputed = list(reversed(
            [fingerprint_of(term) for term in reversed(terms)]))
        assert recomputed == expected

    def test_fingerprint_equality_is_canonical_equality(self):
        rng = random.Random(SEED ^ 3)
        terms = [random_contract(rng, rng.randint(1, 3))
                 for _ in range(25)]
        for a in terms:
            for b in terms:
                assert (fingerprint_of(a) == fingerprint_of(b)) == \
                    canonically_equal(a, b), (a, b)

    def test_canonical_equality_implies_mutual_refinement(self):
        rng = random.Random(SEED ^ 4)
        pairs_checked = 0
        for _ in range(80):
            a = random_contract(rng, rng.randint(1, 3))
            b = random_contract(rng, rng.randint(1, 3))
            if canonically_equal(a, b):
                assert preorder_equivalent(a, b), (a, b)
                pairs_checked += 1
        assert pairs_checked  # the grammar does produce collisions


class TestPreorderSoundness:
    PAIRS = list(preorder_pairs(SEED ^ 5, PREORDER_ROUNDS))

    def test_at_least_two_hundred_pairs(self):
        assert len(self.PAIRS) >= 200

    def test_positive_verdicts_preserve_compliant_clients(self):
        rng = random.Random(SEED ^ 6)
        positives = 0
        for h1, h2 in self.PAIRS:
            result = subcontract_preorder(h1, h2)
            if not result.holds:
                continue
            positives += 1
            clients = [dual(h1)] + [random_contract(rng, rng.randint(1, 3))
                                    for _ in range(2)]
            for client in clients:
                if not check_compliance(client, h1).compliant:
                    continue
                for engine, decide in DECIDERS.items():
                    assert decide(client, h2), (h1, h2, client, engine)
        assert positives >= 40  # reflexive seeds guarantee plenty

    def test_every_refusal_witness_replays_on_every_engine(self):
        refusals = 0
        for h1, h2 in self.PAIRS:
            result = subcontract_preorder(h1, h2)
            if result.holds:
                continue
            refusals += 1
            witness = result.witness
            assert witness is not None, (h1, h2)
            for engine, decide in DECIDERS.items():
                assert decide(witness.client, h1), (h1, h2, engine)
                assert not decide(witness.client, h2), (h1, h2, engine)
        assert refusals >= 40

    def test_vacuous_left_holds_for_arbitrary_right(self):
        rng = random.Random(SEED ^ 7)
        for _ in range(20):
            right = random_contract(rng, rng.randint(1, 4))
            assert subcontract_preorder(EPSILON, right).holds

    def test_reflexivity_across_the_sample(self):
        for h1, _ in self.PAIRS[:60]:
            assert subcontract_preorder(h1, h1).holds, h1

    def test_transitivity_on_witnessed_chains(self):
        rng = random.Random(SEED ^ 8)
        checked = 0
        for _ in range(120):
            a = random_contract(rng, rng.randint(1, 3))
            b = random_contract(rng, rng.randint(1, 3))
            c = random_contract(rng, rng.randint(1, 3))
            if subcontract_preorder(a, b).holds and \
                    subcontract_preorder(b, c).holds:
                assert subcontract_preorder(a, c).holds, (a, b, c)
                checked += 1
        assert checked  # the sample does produce chains


def test_send_only_contract_quotient_roundtrip():
    # A degenerate single-path contract: quotient, fingerprint and
    # preorder all agree it is equivalent to itself written with seq.
    flat = internal(("a", internal(("b", EPSILON))))
    sequenced = seq(send("a"), send("b"))
    assert canonically_equal(flat, sequenced)
    assert preorder_equivalent(flat, sequenced)
    with pytest.raises(AssertionError):
        # Sanity: the helper really distinguishes non-equal contracts.
        assert canonically_equal(flat, send("a"))
