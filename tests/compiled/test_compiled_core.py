"""Unit tests for the compiled verification core.

Covers the interning/bitset primitives, the lowering of contracts into
integer transition tables (channel-bitmask ready sets in particular),
the memoisation behaviour, and the cache-clear cascade: after
``clear_contract_caches`` the tables must be *recompiled*, never served
stale.
"""

import pytest

from repro.compiled import (Bitset, CompiledContract, Interner,
                            compile_contract)
from repro.compiled.intern import (DENSE_BITSET_LIMIT, SparseBits,
                                   make_visited)
from repro.compiled.tables import LABELS, _compile
from repro.core.actions import Receive, Send
from repro.core.errors import StateSpaceLimitError
from repro.core.syntax import external, internal, receive, send, seq
from repro.contracts.contract import Contract, clear_contract_caches
from repro.observability.cache_stats import cache_stats


class TestInterner:
    def test_dense_first_seen_ids(self):
        table = Interner()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.values == ["a", "b"]
        assert len(table) == 2
        assert "a" in table and "z" not in table

    def test_get_never_extends(self):
        table = Interner()
        assert table.get("ghost") is None
        assert len(table) == 0


class TestBitsets:
    def test_test_and_set_semantics(self):
        bits = Bitset(64)
        assert not bits.test_and_set(17)
        assert bits.test_and_set(17)
        assert 17 in bits
        assert 18 not in bits
        bits.add(18)
        assert 18 in bits

    def test_sparse_fallback_protocol_matches(self):
        sparse = SparseBits()
        assert not sparse.test_and_set(10 ** 12)
        assert sparse.test_and_set(10 ** 12)
        assert 10 ** 12 in sparse

    def test_make_visited_picks_by_size(self):
        assert isinstance(make_visited(1024), Bitset)
        assert isinstance(make_visited(DENSE_BITSET_LIMIT + 1), SparseBits)


class TestLabelTable:
    def test_co_ids_are_mutual(self):
        # Clearing the label table alone would orphan cached compiled
        # tables (they hold its ids) — always go through the cascade.
        clear_contract_caches()
        a_out = LABELS.intern(Send("a"))
        a_in = LABELS.labels.get(Receive("a"))
        assert a_in is not None  # interning !a interns ?a too
        assert LABELS.co_id[a_out] == a_in
        assert LABELS.co_id[a_in] == a_out
        assert LABELS.channel_mask[a_out] == LABELS.channel_mask[a_in] != 0
        assert LABELS.is_out[a_out] and not LABELS.is_out[a_in]

    def test_distinct_channels_get_distinct_bits(self):
        clear_contract_caches()
        mask_a = LABELS.channel_mask[LABELS.intern(Send("a"))]
        mask_b = LABELS.channel_mask[LABELS.intern(Send("b"))]
        assert mask_a & mask_b == 0


class TestCompileContract:
    def test_state_zero_is_initial(self):
        term = internal(("a", send("b")))
        compiled = compile_contract(term)
        assert isinstance(compiled, CompiledContract)
        assert compiled.terms[0] == Contract(term).term
        assert compiled.n_states == len(Contract(term).lts)

    def test_masks_encode_ready_sets(self):
        # !a ++ !b: two outputs enabled, no inputs.
        term = internal(("a", send("x")), ("b", send("x")))
        compiled = compile_contract(term)
        assert bin(compiled.out_mask[0]).count("1") == 2
        assert compiled.in_mask[0] == 0
        # ?a + ?b: mirror image.
        dual_term = external(("a", receive("x")), ("b", receive("x")))
        compiled_dual = compile_contract(dual_term)
        assert bin(compiled_dual.in_mask[0]).count("1") == 2
        assert compiled_dual.out_mask[0] == 0

    def test_terminated_flags_follow_epsilon(self):
        compiled = compile_contract(send("a"))
        assert compiled.terminated[-1]  # ε is reached last
        assert not compiled.terminated[0]

    def test_moves_and_by_label_agree(self):
        term = seq(send("a"), receive("b"))
        compiled = compile_contract(term)
        for state_moves, label_index in zip(compiled.moves,
                                            compiled.by_label):
            assert len(state_moves) == len(label_index)
            for co_label, targets in state_moves:
                own = LABELS.co_id[co_label]
                assert label_index[own] == targets

    def test_accepts_contracts_and_terms(self):
        term = send("a")
        assert compile_contract(term) is compile_contract(Contract(term))

    def test_table_bytes_positive(self):
        assert compile_contract(send("a")).table_bytes() > 0


class TestMemoisationAndClearCascade:
    def test_compilation_is_memoised(self):
        clear_contract_caches()
        term = internal(("a", send("b")))
        first = compile_contract(term)
        assert compile_contract(term) is first
        stats = cache_stats()["compiled.contract"]
        assert stats["hits"] >= 1 and stats["misses"] == 1

    def test_clear_contract_caches_forces_recompilation(self):
        term = internal(("a", send("b")))
        before = compile_contract(term)
        assert _compile.cache_info().currsize >= 1
        clear_contract_caches()
        assert _compile.cache_info().currsize == 0
        assert len(LABELS.labels) == 0
        after = compile_contract(term)
        assert after is not before  # recompiled, not served stale
        assert after.moves == before.moves  # …but structurally identical

    def test_clear_compiled_caches_alone_suffices(self):
        term = send("a")
        compile_contract(term)
        clear_contract_caches("compiled.contract")
        assert _compile.cache_info().currsize == 0
        assert len(LABELS.labels) == 0
        stats = cache_stats()
        assert stats["compiled.contract"]["misses"] == 0
        # The contract layer it compiles from stays warm.
        assert stats["contracts.lts"]["currsize"] >= 1

    def test_compiled_stats_surface_in_contract_cache_stats(self):
        stats = cache_stats()
        assert "compiled.contract" in stats

    def test_label_table_stats_reflect_compiled_state(self):
        from repro.compiled.tables import label_table_stats
        clear_contract_caches()
        assert label_table_stats() == {"labels": 0, "channels": 0,
                                       "compiled_contracts": 0}
        compile_contract(internal(("a", send("b"))))
        stats = label_table_stats()
        assert stats["compiled_contracts"] == 1
        assert stats["labels"] > 0 and stats["channels"] > 0

    def test_clear_rebaselines_flight_recorder_counters(self):
        """``clear_contract_caches`` must rebaseline the flight
        recorder: post-clear counters read zero (the ``cache.cleared``
        marker included), and fresh compilations count from scratch."""
        from repro.observability import runtime
        clear_contract_caches()
        term = internal(("a", send("b")))
        with runtime.telemetry_session() as tel:
            compile_contract(term)
            assert tel.events.counters()["compile.contract"] == 1
            clear_contract_caches()
            assert tel.events.counters() == {}
            # The events themselves survive — only the counters restart.
            assert tel.events.find("cache.cleared")
            compile_contract(term)
            counters = tel.events.counters()
            assert counters["compile.contract"] == 1
            assert "cache.cleared" not in counters


class TestCompiledSearchLimits:
    def test_limit_error_matches_interpreted(self):
        from repro.compiled.search import compiled_search
        from repro.contracts.product import search_product
        client = Contract(seq(send("a"), send("b"), send("c")))
        server = Contract(seq(receive("a"), receive("b"), receive("c")))
        with pytest.raises(StateSpaceLimitError):
            search_product(client, server, max_states=2)
        with pytest.raises(StateSpaceLimitError):
            compiled_search(compile_contract(client),
                            compile_contract(server), 2)
