"""Tests for lru_cache statistics adapters and the contract-layer
clean-slate guarantee of ``clear_contract_caches``."""

from functools import lru_cache

from repro.contracts import (Contract, clear_contract_caches,
                             contract_cache_stats)
from repro.core.syntax import receive, send
from repro.observability.cache_stats import (CacheStatsAdapter,
                                             adapter, cache_stats,
                                             reset_cache_stats,
                                             tracked_caches)


class TestAdapter:
    def _cached(self):
        @lru_cache(maxsize=8)
        def double(x):
            return 2 * x

        return double

    def test_stats_report_deltas_since_reset(self):
        fn = self._cached()
        wrapped = CacheStatsAdapter("t", fn)
        fn(1)
        fn(1)
        fn(2)
        assert wrapped.stats() == {"hits": 1, "misses": 2,
                                   "currsize": 2, "maxsize": 8}
        wrapped.reset()
        assert wrapped.stats()["hits"] == 0
        assert wrapped.stats()["misses"] == 0
        assert wrapped.stats()["currsize"] == 2  # entries survive a reset
        fn(1)
        assert wrapped.stats() == {"hits": 1, "misses": 0,
                                   "currsize": 2, "maxsize": 8}

    def test_clear_drops_entries_and_rebaselines(self):
        fn = self._cached()
        wrapped = CacheStatsAdapter("t", fn)
        fn(1)
        fn(1)
        wrapped.clear()
        stats = wrapped.stats()
        assert stats == {"hits": 0, "misses": 0, "currsize": 0,
                         "maxsize": 8}

    def test_reset_after_external_cache_clear_stays_nonnegative(self):
        # cache_clear() zeroes cache_info(); a reset() afterwards must
        # rebaseline rather than leave the adapter counting from a stale
        # (now larger-than-live) baseline.
        fn = self._cached()
        wrapped = CacheStatsAdapter("t", fn)
        fn(1)
        fn(1)
        fn.cache_clear()
        wrapped.reset()
        stats = wrapped.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestRegistry:
    def test_pipeline_caches_are_tracked(self):
        names = tracked_caches()
        for expected in ("contracts.projection", "contracts.lts",
                         "analysis.extract_requests",
                         "compliance.contract_intern"):
            assert expected in names

    def test_cache_stats_selects_by_name(self):
        stats = cache_stats("contracts.lts")
        assert set(stats) == {"contracts.lts"}

    def test_reset_cache_stats_rebaselines_everything(self):
        clear_contract_caches()
        Contract(send("a", receive("b"))).lts
        assert contract_cache_stats()["contracts.lts"]["misses"] > 0
        reset_cache_stats()
        for stats in cache_stats().values():
            assert stats["hits"] == 0 and stats["misses"] == 0

    def test_adapter_lookup(self):
        assert adapter("contracts.lts").name == "contracts.lts"


class TestClearContractCaches:
    def test_clear_yields_clean_slate_counts(self):
        # Warm the caches, then clear: both the lru entries and the
        # adapters' baselines must reset, so a fresh run starts at zero.
        Contract(send("ping", receive("pong"))).lts
        clear_contract_caches()
        for name, stats in contract_cache_stats().items():
            assert stats["hits"] == 0, name
            assert stats["misses"] == 0, name
            assert stats["currsize"] == 0, name

    def test_clear_drops_the_term_keyed_memos(self):
        # The contract intern and the request extraction are memoised on
        # terms; left warm, they would hide work from a cold run.
        from repro.analysis.requests import extract_requests
        from repro.core.compliance import check_compliance
        from repro.core.syntax import request
        client = send("ping", receive("pong"))
        server = receive("ping", send("pong"))
        names = ("compliance.contract_intern", "analysis.extract_requests")
        check_compliance(client, server)
        extract_requests(request("r", None, client))
        assert all(contract_cache_stats()[name]["currsize"] > 0
                   for name in names)
        clear_contract_caches()
        stats = contract_cache_stats()
        for name in names:
            assert stats[name] == {"hits": 0, "misses": 0, "currsize": 0,
                                   "maxsize": 4096}, name
        extract_requests(request("r", None, client))
        assert contract_cache_stats()["analysis.extract_requests"][
            "misses"] == 1

    def test_fresh_run_counts_from_zero_after_clear(self):
        term = send("x", receive("y"))
        Contract(term).lts
        clear_contract_caches()
        Contract(term).lts
        Contract(term).lts  # second build hits both caches
        stats = contract_cache_stats()
        assert stats["contracts.lts"]["misses"] >= 1
        assert stats["contracts.lts"]["hits"] >= 1


class TestColdReset:
    def test_no_term_outlives_a_run_once_the_caches_are_cleared(
            self, capsys):
        # Terms store their transitions once stepped, so a memo that kept
        # an op's terms alive would also keep its transitions warm for
        # the next "cold" op.  After clearing, the intern tables must hold
        # no more nodes than before the run.
        import gc
        import pathlib

        from typing import get_args

        from repro.cli import main
        from repro.core.syntax import Node

        module = str(pathlib.Path(__file__).resolve().parents[2]
                     / "examples" / "hotel_booking.sus")

        def run() -> None:
            assert main(["analyze", module]) == 0
            assert main(["chaos", "--trials", "2", "--seed", "7",
                         module]) == 0
            capsys.readouterr()
            clear_contract_caches()
            gc.collect()

        def sizes() -> dict:
            return {cls.__name__: len(cls._table) for cls in get_args(Node)}

        run()  # imports and module-level terms are not the run's
        before = sizes()
        run()
        after = sizes()
        assert all(after[name] <= before[name] for name in before), (
            before, after)
