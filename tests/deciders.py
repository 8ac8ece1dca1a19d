"""Every decider of ``client ⊢ server``, reduced to its verdict.

The on-the-fly search behind ``check_compliance`` is the production
decider; the others are the oracles the differential tests compare it
against: the explicit automaton of Definition 5, the gfp certifier,
Definition 4 read literally, and the compiled search the registry runs.
"""

from repro.compiled.search import compiled_search
from repro.compiled.tables import compile_contract
from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.contracts.product import build_product, search_product
from repro.core.compliance import compliant_coinductive
from repro.staticcheck.compliance import certify_compliance

DECIDERS = {
    "onthefly": lambda client, server: search_product(
        Contract(client), Contract(server)).empty,
    "eager": lambda client, server: build_product(
        Contract(client), Contract(server)).language_is_empty(),
    "gfp": lambda client, server: certify_compliance(
        client, server).compliant,
    "coinductive": compliant_coinductive,
    "compiled": lambda client, server: compiled_search(
        compile_contract(client), compile_contract(server),
        DEFAULT_STATE_LIMIT).empty,
}
