"""Tests for the memo-table registry: its statistics, the clean-slate
guarantee of ``clear_contract_caches``, and its reach (no ``lru_cache``
outside it)."""

import ast
import functools
import importlib
import pathlib

import pytest

from repro.contracts import Contract, clear_contract_caches
from repro.core.syntax import receive, send
from repro.observability.cache_stats import cache_stats, memo_table

#: The registry module (the package exports its ``cache_stats`` function
#: under the module's own name).
registry = importlib.import_module("repro.observability.cache_stats")

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
REGISTRY = SRC / "observability" / "cache_stats.py"

#: Every memo table of the pipeline, once the modules declaring them are
#: imported.
TABLES = ("analysis.extract_requests", "analysis.plan_security",
          "canon.fingerprint", "canon.preorder", "canon.quotient",
          "compiled.contract", "compliance.contract_intern",
          "contracts.lts", "contracts.projection", "reversible.decide",
          "staticcheck.compliance", "staticcheck.plans",
          "staticcheck.validity")


class TestAdapter:
    """The registry's view of one declared table."""

    @pytest.fixture(autouse=True)
    def scratch_registry(self, monkeypatch):
        monkeypatch.setattr(registry, "_TABLES", dict(registry._TABLES))

    def _cached(self):
        @memo_table("t", 8)
        def double(x):
            return 2 * x

        return double

    def test_stats_report_deltas_since_reset(self):
        fn = self._cached()
        fn(1)
        fn(1)
        fn(2)
        assert cache_stats("t") == {"t": {"hits": 1, "misses": 2,
                                          "currsize": 2, "maxsize": 8}}
        clear_contract_caches("t")
        fn(1)
        assert cache_stats("t")["t"] == {"hits": 0, "misses": 1,
                                         "currsize": 1, "maxsize": 8}

    def test_clear_drops_entries_and_rebaselines(self):
        fn = self._cached()
        fn(1)
        fn(1)
        clear_contract_caches("t")
        assert cache_stats("t")["t"] == {"hits": 0, "misses": 0,
                                         "currsize": 0, "maxsize": 8}

    def test_reset_after_external_cache_clear_stays_nonnegative(self):
        # perfbench's cold reset calls cache_clear() on some tables
        # directly; the statistics must read from that clear, not go
        # negative against a stale baseline.
        fn = self._cached()
        fn(1)
        fn(1)
        fn.cache_clear()
        stats = cache_stats("t")["t"]
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestRegistry:
    def test_pipeline_caches_are_tracked(self):
        names = set(cache_stats())
        for expected in ("contracts.projection", "contracts.lts",
                         "analysis.extract_requests",
                         "compliance.contract_intern"):
            assert expected in names

    def test_cache_stats_selects_by_name(self):
        stats = cache_stats("contracts.lts")
        assert set(stats) == {"contracts.lts"}

    def test_unknown_table_name_is_an_error(self):
        with pytest.raises(KeyError, match="no memo table"):
            clear_contract_caches("contracts.nope")

    def test_declared_tables_are_the_lru_cache_functions(self):
        # The names perfbench reads: each declaration is the lru_cache
        # function itself, cache_info and cache_clear included.
        from repro.analysis.requests import extract_requests
        from repro.compiled.tables import _compile
        from repro.contracts.contract import _lts_of, _projection_of
        from repro.core.compliance import _cached_contract
        for table in (_projection_of, _lts_of, _compile, _cached_contract,
                      extract_requests):
            assert isinstance(table, functools._lru_cache_wrapper)
            assert callable(table.cache_info) and callable(table.cache_clear)

    def test_lru_cache_appears_only_in_the_registry(self):
        """A memo table declared with a bare ``lru_cache`` (or
        ``functools.cache``) would escape the cold reset and the
        statistics; only the registry may apply one."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path == REGISTRY:
                continue
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ImportFrom) and \
                        node.module == "functools":
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == "functools":
                    names = {node.attr}
                else:
                    continue
                if names & {"lru_cache", "cache"}:
                    offenders.append(f"{path.relative_to(SRC)}:"
                                     f"{node.lineno}")
        assert offenders == []


class TestClearContractCaches:
    def test_clear_yields_clean_slate_counts(self):
        # Warm the caches, then clear: both the entries and the hit/miss
        # counts must reset, so a fresh run starts at zero.
        Contract(send("ping", receive("pong"))).lts
        clear_contract_caches()
        for name, stats in cache_stats().items():
            assert stats["hits"] == 0, name
            assert stats["misses"] == 0, name
            assert stats["currsize"] == 0, name

    def test_clear_empties_every_declared_table(self, capsys):
        # Warm every table through the commands that use them, then one
        # clear must leave each declared table empty and counting from
        # zero.
        import repro.core.reversible  # noqa: F401 (declares its table)
        from repro.cli import main
        module = str(SRC.parents[1] / "examples" / "hotel_booking.sus")
        for argv in (["analyze", module], ["canon", module],
                     ["registry", module, "--query-compliant", "lc1",
                      "--query-substitutable", "ls1"],
                     ["compliance", module, "lc1", "lbr", "--reversible"],
                     ["chaos", "--trials", "2", "--seed", "7", module]):
            assert main(argv) == 0
        capsys.readouterr()
        assert set(TABLES) <= set(cache_stats())
        warm = {name for name, stats in cache_stats().items()
                if stats["currsize"]}
        assert warm >= set(TABLES) - {"staticcheck.plans"}
        clear_contract_caches()
        for name, stats in cache_stats().items():
            assert (stats["currsize"], stats["hits"], stats["misses"]) \
                == (0, 0, 0), name

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
        assert all(cache_stats()[name]["currsize"] > 0 for name in names)
        clear_contract_caches()
        stats = cache_stats()
        for name in names:
            assert stats[name] == {"hits": 0, "misses": 0, "currsize": 0,
                                   "maxsize": 4096}, name
        extract_requests(request("r", None, client))
        assert cache_stats()["analysis.extract_requests"]["misses"] == 1

    def test_fresh_run_counts_from_zero_after_clear(self):
        term = send("x", receive("y"))
        Contract(term).lts
        clear_contract_caches()
        Contract(term).lts
        Contract(term).lts  # second build hits both caches
        stats = cache_stats()
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
