"""Memoisation and cache-cascade tests for the canonicalization layer.

Mirrors the compiled-core regression suite: after
``clear_contract_caches`` every canon memo must be *recomputed*, never
served stale — the quotient tables embed process-global label ids, so a
stale entry after a label-table flush would silently corrupt every
downstream verdict.
"""

from repro.canon import (canonically_equal, fingerprint_of, minimize,
                         subcontract_preorder)
from repro.canon.fingerprint import _canonical
from repro.canon.minimize import _quotient
from repro.canon.preorder import _preorder
from repro.compiled.tables import LABELS
from repro.contracts.contract import Contract, clear_contract_caches
from repro.core.syntax import EPSILON, external, internal, receive, send
from repro.lang.parser import parse
from repro.observability.cache_stats import cache_stats

CANON_CACHES = ("canon.quotient", "canon.fingerprint", "canon.preorder")


class TestMemoisation:
    def test_quotient_is_memoised(self):
        clear_contract_caches()
        term = internal(("a", receive("b")))
        assert minimize(term) is minimize(term)
        stats = cache_stats()["canon.quotient"]
        assert stats["hits"] >= 1 and stats["misses"] == 1

    def test_preorder_is_memoised(self):
        clear_contract_caches()
        smaller, larger = receive("a"), external(("a", EPSILON),
                                                 ("b", EPSILON))
        subcontract_preorder(smaller, larger)
        subcontract_preorder(smaller, larger)
        stats = cache_stats()["canon.preorder"]
        assert stats["hits"] >= 1 and stats["misses"] == 1


class TestClearCascade:
    def test_canon_stats_surface_in_contract_cache_stats(self):
        stats = cache_stats()
        for name in CANON_CACHES:
            assert name in stats, name

    def test_clear_contract_caches_recomputes_quotients(self):
        term = internal(("a", send("b")))
        before = minimize(term)
        assert _quotient.cache_info().currsize >= 1
        clear_contract_caches()
        assert _quotient.cache_info().currsize == 0
        assert _canonical.cache_info().currsize == 0
        assert _preorder.cache_info().currsize == 0
        after = minimize(term)
        assert after is not before  # recomputed, not served stale
        assert after.terminated == before.terminated
        assert after.n_blocks == before.n_blocks

    def test_clear_canon_caches_alone_suffices(self):
        term = internal(("a", send("b")))
        minimize(term)
        fingerprint_of(term)
        clear_contract_caches(*CANON_CACHES)
        stats = cache_stats()
        for name in CANON_CACHES:
            assert stats[name]["misses"] == 0, name
        assert _quotient.cache_info().currsize == 0
        # Naming the canon tables leaves the tables they derive from warm.
        assert stats["contracts.lts"]["currsize"] >= 1
        assert stats["compiled.contract"]["currsize"] >= 1

    def test_clearing_the_compiled_table_clears_the_quotients(self):
        """Clearing only the compiled table resets the label intern
        table, so the quotients holding its old ids must go with it:
        kept, ``?a . ?b``'s quotient reads as ``?b . ?a``'s under the new
        ids, and the preorder wrongly lets one replace the other."""
        clear_contract_caches()
        minimize(parse("?a . ?b"))
        lts = Contract(parse("?a . ?b")).lts
        clear_contract_caches("compiled.contract")
        assert all(cache_stats()[name]["currsize"] == 0
                   for name in CANON_CACHES)
        minimize(parse("?b . ?a"))
        assert not subcontract_preorder(parse("?b . ?a"),
                                        parse("?a . ?b")).holds
        # The contract layer was not asked for, and stays warm.
        assert Contract(parse("?a . ?b")).lts is lts

    def test_recompilation_regression_under_relabeled_table(self):
        """The regression the cascade exists to prevent: quotients and
        fingerprints computed after a flush — under a *different* label
        interning order — must agree with the pre-flush ones."""
        term = external(("gamma", internal(("delta", EPSILON))),
                        ("alpha", EPSILON))
        clear_contract_caches()
        fingerprint = fingerprint_of(term)
        blocks = minimize(term).n_blocks
        clear_contract_caches()
        assert len(LABELS.labels) == 0
        # Warm the label table differently before recomputing: the raw
        # masks will differ, the canonical artefacts must not.
        minimize(internal(("zz1", EPSILON), ("zz2", EPSILON)))
        assert fingerprint_of(term) == fingerprint
        assert minimize(term).n_blocks == blocks
        assert canonically_equal(term, term)
