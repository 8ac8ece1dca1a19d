"""Compiled contract tables: interned states, flat transition tables.

The interpreted deciders (:mod:`repro.core.compliance`,
:mod:`repro.contracts.product`, :mod:`repro.staticcheck`) walk
dict-of-terms transition systems.  This package lowers a contract's
finite LTS *once* into dense integer-indexed structures —

* an intern table mapping states and action labels to small ints
  (:mod:`~repro.compiled.intern`);
* per-state transition arrays and ready sets precompiled as channel
  bitmasks, so the Definition-5 stuck check is a handful of ``&``/``|``
  operations on ints (:mod:`~repro.compiled.tables`);
* a frontier BFS over the implicit product with bitset-encoded visited
  sets and predecessor arrays for shortest-witness reconstruction
  (:mod:`~repro.compiled.search`).

The tables are the data structure behind canonical forms
(:mod:`repro.canon` quotients them by bisimilarity) and the contract
registry (:mod:`repro.registry` runs :func:`compiled_search` over those
quotients).  :func:`compiled_search` visits states in exactly the order
:func:`repro.contracts.product.search_product` does, so verdicts,
explored-state counts and witnesses are identical — the differential
property suite asserts it.

Compilation results are memoised per (projected) term in the
``compiled.contract`` memo table, which ``clear_contract_caches`` drops
together with the label intern table; telemetry records ``compile.*``
counters (states/labels interned, table bytes) through the
observability layer.
"""

from __future__ import annotations

from repro.compiled.intern import Bitset, Interner
from repro.compiled.tables import CompiledContract, compile_contract
from repro.compiled.search import CompiledSearch, compiled_search

__all__ = [
    "Bitset",
    "CompiledContract",
    "CompiledSearch",
    "Interner",
    "compile_contract",
    "compiled_search",
]
