"""The compliance deciders never print a term.

Their order comes from the LTS's move order, so none of them needs a
term's ``repr``, which walks the whole tree of a hash-consed term.  With
``HistoryExpression.__repr__`` made to raise, each decider still returns
its verdict, witness and trace from cold caches.
"""

import pytest

from benchmarks.workloads import (almost_compliant_server, wide_client,
                                  wide_server)
from repro.contracts.contract import Contract, clear_contract_caches
from repro.contracts.product import search_product
from repro.core.reversible import check_reversible
from repro.core.syntax import HistoryExpression
from repro.staticcheck.compliance import certify_compliance
from tests.core.test_reversible import doomed_pair

#: name -> (terms, compliant, reversibly compliant).  The reversible
#: relation rescues the almost-compliant pair: the system picks which
#: synchronisation happens, so the server's unmatched surprise reply is
#: never taken.
PAIRS = {
    "wide(5, 4)": (lambda: (wide_client(5, 4), wide_server(5, 4)),
                   True, True),
    "almost(4, 3)": (lambda: (wide_client(4, 3),
                              almost_compliant_server(4, 3)), False, True),
    "doomed": (doomed_pair, False, False),
}


def search(client, server):
    result = search_product(client, server)
    return result.empty, result.trace, True


def certify(client, server):
    witness = certify_compliance(client, server).witness
    if witness is None:
        return True, None, True
    return False, witness.trace, witness.replays()


def reversible(client, server):
    result = check_reversible(client, server)
    if result.witness is None:
        return result.compliant, result.trace, True
    return result.compliant, result.trace, result.witness.replays()


DECIDERS = {"search_product": search, "certify_compliance": certify,
            "check_reversible": reversible}


def refuse(self):
    raise AssertionError("a decider printed a term")


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("decider", DECIDERS)
def test_decider_never_prints_a_term(decider, pair, monkeypatch):
    make, compliant, reversibly = PAIRS[pair]
    if decider == "check_reversible":
        compliant = reversibly
    clear_contract_caches()
    client, server = (Contract(term) for term in make())
    monkeypatch.setattr(HistoryExpression, "__repr__", refuse)
    verdict, trace, replays = DECIDERS[decider](client, server)
    monkeypatch.undo()
    assert verdict is compliant
    assert (trace is None) is compliant
    assert replays
