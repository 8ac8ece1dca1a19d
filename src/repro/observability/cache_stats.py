"""The memo-table registry: every ``lru_cache`` of the pipeline.

A memo table is declared with :func:`memo_table`, which applies
``functools.lru_cache`` and registers the table by name at its
definition site.  That registration is the only way a table enters
:func:`clear_contract_caches` (the cold reset) and :func:`cache_stats`,
so no table can be left warm by a reset or missing from the statistics;
``tests/observability/test_cache_stats.py`` fails on any ``lru_cache``
in ``src/`` outside this module.

The statistics are the tables' own ``cache_info()`` counts, read only
when asked (never on the hot path).  Clearing a table zeroes them, so
they count from the last clear.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from repro.observability import runtime as _telemetry


class _Table(NamedTuple):
    """One declared memo table (see :func:`memo_table`)."""

    fn: Callable
    on_clear: Callable[[], None] | None
    cleared_with: tuple[str, ...]


#: Every declared memo table by name, in declaration order.
_TABLES: dict[str, _Table] = {}


def memo_table(name: str, maxsize: int | None, *,
               on_clear: Callable[[], None] | None = None,
               cleared_with: tuple[str, ...] = ()) -> Callable:
    """Decorator: ``functools.lru_cache(maxsize)``, registered as *name*.

    Returns the ``lru_cache`` function itself, so ``cache_info`` and
    ``cache_clear`` stay where callers expect them.  *on_clear* runs
    after every clear of the table (the compiled-table memo resets the
    label intern table its entries index).  A table whose entries embed
    another table's data names that table in *cleared_with*, and is then
    cleared whenever it is, whichever names a caller asked for; such a
    table is declared after the tables it names, as the imports that
    give it their data ensure.  Re-declaring a name replaces the entry
    (module reloads).
    """
    def register(fn: Callable) -> Callable:
        table = lru_cache(maxsize=maxsize)(fn)
        _TABLES[name] = _Table(table, on_clear, cleared_with)
        return table
    return register


def clear_contract_caches(*names: str) -> None:
    """Drop the named memo tables (every declared one by default), which
    also zeroes their hit/miss counts.

    Every table declared ``cleared_with`` a cleared table is cleared
    too: clearing ``compiled.contract`` resets the label intern table,
    and the ``canon.*`` tables, whose entries hold its label ids, go
    with it.  An unknown name is a :class:`KeyError`.  The flight
    recorder notes the flush as a ``cache.cleared`` event and then
    rebaselines its per-kind counters, so event counts — like cache
    hit/miss counts — read relative to the last flush.
    """
    selected = set(names) if names else set(_TABLES)
    unknown = selected - set(_TABLES)
    if unknown:
        raise KeyError(f"no memo table named {sorted(unknown)}")
    cleared = 0
    for name, table in _TABLES.items():
        if name in selected or selected.intersection(table.cleared_with):
            selected.add(name)
            table.fn.cache_clear()
            if table.on_clear is not None:
                table.on_clear()
            cleared += 1
    tel = _telemetry.active()
    if tel is not None:
        tel.emit("cache.cleared", caches=cleared)
        tel.events.rebaseline()


def cache_stats(*names: str) -> dict[str, dict[str, int]]:
    """Hits, misses, size and bound of the named tables since their last
    clear (every declared table by default; names not declared are
    skipped)."""
    selected = names if names else tuple(_TABLES)
    stats: dict[str, dict[str, int]] = {}
    for name in selected:
        if name in _TABLES:
            info = _TABLES[name].fn.cache_info()
            stats[name] = {"hits": info.hits, "misses": info.misses,
                           "currsize": info.currsize,
                           "maxsize": info.maxsize}
    return stats
