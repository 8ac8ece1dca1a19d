"""Every decider of ``client ⊢ server``, reduced to its verdict.

The on-the-fly product search behind ``check_compliance`` is the
production decider.  Two entries are independent of it, and only they
are oracles in the strict sense:

* ``coinductive`` reads Definition 4 literally;
* ``compiled`` searches the product over interned integer tables
  (``compile_contract``), the search the registry runs on quotients.

The other three share the production search's code, so they catch a
slip in what is built on top of it but not one inside it:

* ``onthefly`` is the production search itself (``search_product``);
* ``gfp`` runs the same ``explore_product`` BFS to the end;
* ``eager`` builds the Definition 5 automaton from the same
  ``is_stuck`` and ``synchronisations``.
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
