"""Unit tests for bisimulation minimization of compiled tables."""

from repro.canon import minimize
from repro.canon.minimize import QuotientContract
from repro.compiled import compile_contract
from repro.compiled.search import compiled_search
from repro.contracts.contract import Contract
from repro.core.compliance import check_compliance
from repro.core.syntax import (EPSILON, Var, external, internal, mu,
                               receive, send)

#: ``mu h { ?Ping . !Pong . h }`` and the same loop unrolled once: the
#: unrolled head is bisimilar to the recursion body, so the unrolled
#: LTS is strictly non-minimal (3 states, 2 blocks).
ROLLED = mu("h", external(("Ping", internal(("Pong", Var("h"))))))
UNROLLED = external(("Ping", internal(("Pong", ROLLED))))


class TestQuotientShape:
    def test_minimal_contract_is_its_own_quotient(self):
        term = internal(("a", receive("b")), ("c", EPSILON))
        quotient = minimize(term)
        assert isinstance(quotient, QuotientContract)
        assert quotient.is_minimal
        assert quotient.n_blocks == quotient.n_source_states

    def test_unrolled_loop_collapses(self):
        quotient = minimize(UNROLLED)
        assert not quotient.is_minimal
        assert quotient.n_blocks < quotient.n_source_states
        assert minimize(ROLLED).is_minimal
        assert quotient.n_blocks == minimize(ROLLED).n_blocks

    def test_block_zero_holds_the_initial_state(self):
        quotient = minimize(UNROLLED)
        assert quotient.block_of[0] == 0
        assert quotient.terms[0] == Contract(UNROLLED).term

    def test_block_of_covers_every_source_state(self):
        quotient = minimize(UNROLLED)
        assert len(quotient.block_of) == quotient.n_source_states
        assert set(quotient.block_of) == set(range(quotient.n_blocks))

    def test_accepts_contracts_and_is_memoised(self):
        term = internal(("a", EPSILON))
        assert minimize(term) is minimize(Contract(term))

    def test_masks_survive_quotienting(self):
        term = internal(("a", receive("b")), ("c", EPSILON))
        compiled = compile_contract(term)
        quotient = minimize(term)
        assert quotient.out_mask[0] == compiled.out_mask[0]
        assert quotient.in_mask[0] == compiled.in_mask[0]
        # Each block inherits its representative's flags.
        for b in range(quotient.n_blocks):
            representative = quotient.block_of.index(b)
            assert quotient.terminated[b] == \
                compiled.terminated[representative]


class TestQuotientPreservesCompliance:
    def test_product_search_runs_on_quotients(self):
        client = internal(("Ping", receive("Pong")))
        server = external(("Ping", send("Pong")))
        result = compiled_search(minimize(client), minimize(server),
                                 10_000)
        assert result.empty

    def test_verdict_matches_compiled_engine_on_reduced_tables(self):
        client = mu("k", internal(("Ping", external(("Pong", Var("k"))))))
        for server in (UNROLLED, ROLLED):
            direct = compiled_search(compile_contract(client),
                                     compile_contract(server), 10_000)
            quotiented = compiled_search(minimize(client),
                                         minimize(server), 10_000)
            assert quotiented.empty == direct.empty
            assert direct.empty == check_compliance(client,
                                                    server).compliant

    def test_stuck_pair_still_found_after_quotienting(self):
        client = internal(("Ask", EPSILON))
        server = external(("Ping", EPSILON))
        direct = check_compliance(client, server)
        quotiented = compiled_search(minimize(client), minimize(server),
                                     10_000)
        assert not direct.compliant
        assert not quotiented.empty
