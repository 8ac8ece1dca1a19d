"""Behavioural contracts and the finite-state machinery built over them.

A *contract* is the projection of a history expression on its communication
actions (paper, Section 4); because the calculus only allows guarded tail
recursion, contracts are finite state.  This package provides the generic
labelled-transition-system substrate (:mod:`repro.contracts.lts`), the
contract wrapper (:mod:`repro.contracts.contract`) and the product
automaton of Definition 5 (:mod:`repro.contracts.product`).
"""

from repro.contracts.contract import Contract, clear_contract_caches
from repro.contracts.lts import LTS, build_lts
from repro.contracts.product import (ProductAutomaton, ProductSearch,
                                     build_product, search_product)

__all__ = ["Contract", "clear_contract_caches",
           "LTS", "build_lts",
           "ProductAutomaton", "ProductSearch", "build_product",
           "search_product"]
