"""Differential testing of the production deciders against their
oracles.

Over seeded random contract pairs (the same workload generators the
on-the-fly property suite draws from, plus the T1 random-contract
grammar) the on-the-fly search behind ``check_compliance`` must agree on
the verdict with the explicit automaton of Definition 5
(``build_product``), the gfp certifier (``certify_compliance``), the
literal Definition 4 (``compliant_coinductive``) and the compiled search
the registry runs (``compiled_search``).  The compiled search shares
the on-the-fly exploration semantics, so its explored-state counts and
witness traces must be *identical*; every counterexample is shortest,
and every witness must replay against the concrete semantics.  The
static validity certifier is checked the same way against an
exhaustive walk of every run with the declarative ``is_valid``.
"""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                       / "benchmarks"))

from workloads import (almost_compliant_server, policy_heavy_client,  # noqa: E402
                       wide_client, wide_server)

from repro.compiled.search import compiled_search  # noqa: E402
from repro.compiled.tables import compile_contract  # noqa: E402
from repro.contracts.contract import Contract  # noqa: E402
from repro.contracts.lts import DEFAULT_STATE_LIMIT  # noqa: E402
from repro.contracts.product import (build_product,  # noqa: E402
                                     search_product)
from repro.core.actions import is_history_label  # noqa: E402
from repro.core.compliance import (check_compliance,  # noqa: E402
                                   compliant_coinductive)
from repro.core.duality import dual  # noqa: E402
from repro.core.reversible import check_reversible  # noqa: E402
from repro.core.semantics import step  # noqa: E402
from repro.core.syntax import (EPSILON, event, external, framing,  # noqa: E402
                               internal, seq)
from repro.core.validity import History, is_valid  # noqa: E402
from repro.policies.library import forbid  # noqa: E402
from repro.staticcheck.compliance import certify_compliance  # noqa: E402
from repro.staticcheck.validity import certify_validity  # noqa: E402

SEED = 0xC0DEC
ROUNDS = 40


def random_contract(rng, depth):
    """The T1 grammar: internal/external choices and sequencing over
    channels a/b/c."""
    if depth == 0:
        return EPSILON
    kind = rng.choice(("int", "ext", "seq"))
    channels = rng.sample(["a", "b", "c"], k=rng.randint(1, 2))
    if kind == "seq":
        return seq(random_contract(rng, depth - 1),
                   random_contract(rng, depth - 1))
    branches = tuple((channel, random_contract(rng, depth - 1))
                     for channel in channels)
    if kind == "int":
        return internal(*branches)
    return external(*branches)


def random_pairs(seed: int, rounds: int):
    """Seeded pairs mixing the workload generators (structured, deep)
    with the free random grammar (adversarial shapes) and compliant
    dual seeds."""
    rng = random.Random(seed)
    for round_no in range(rounds):
        mode = rng.randrange(4)
        if mode == 0:
            width, depth = rng.randint(1, 3), rng.randint(1, 3)
            yield wide_client(width, depth), wide_server(width, depth)
        elif mode == 1:
            width, depth = rng.randint(1, 3), rng.randint(1, 3)
            yield (wide_client(width, depth),
                   almost_compliant_server(
                       width, depth, surprise_level=rng.randrange(depth)))
        elif mode == 2:
            client = random_contract(rng, rng.randint(1, 4))
            yield client, dual(client)
        else:
            yield (random_contract(rng, rng.randint(1, 4)),
                   random_contract(rng, rng.randint(1, 4)))


PAIRS = list(random_pairs(SEED, ROUNDS))


@pytest.mark.parametrize("client,server", PAIRS,
                         ids=[f"case{i}" for i in range(len(PAIRS))])
def test_all_four_engines_agree(client, server):
    client_c, server_c = Contract(client), Contract(server)
    search = search_product(client_c, server_c)
    product = build_product(client_c, server_c)
    certificate = certify_compliance(client, server)
    compiled = compiled_search(compile_contract(client_c),
                               compile_contract(server_c),
                               DEFAULT_STATE_LIMIT)
    verdicts = {"onthefly": search.empty,
                "eager": product.language_is_empty(),
                "gfp": certificate.compliant,
                "coinductive": compliant_coinductive(client, server),
                "compiled": compiled.empty}
    assert len(set(verdicts.values())) == 1, verdicts

    # The compiled search mirrors the on-the-fly one state for state:
    # identical explored counts and identical counterexample traces.
    assert search.explored == compiled.explored
    assert search.trace == compiled.trace

    # check_compliance reports the on-the-fly search unchanged.
    result = check_compliance(client, server)
    assert result.compliant == search.empty
    assert result.trace == search.trace
    assert result.explored_states == search.explored

    # Every counterexample is shortest: the explicit automaton and the
    # gfp certifier reach a stuck pair at the same depth, and the
    # witness ends the trace.
    if not result.compliant:
        assert result.witness == result.trace[-1]
        assert len(product.counterexample()) == len(result.trace)
        assert len(certificate.witness.trace) == len(result.trace)


@pytest.mark.parametrize("client,server", PAIRS,
                         ids=[f"case{i}" for i in range(len(PAIRS))])
def test_gfp_certificates_identical_across_engines(client, server):
    """The gfp certificate against the on-the-fly search: one verdict;
    on compliant pairs the candidate relation is exactly the reachable
    product the search exhausts; a refusal witness replays and ends in
    a pair the search also finds stuck."""
    certificate = certify_compliance(client, server)
    client_c, server_c = Contract(client), Contract(server)
    search = search_product(client_c, server_c)
    assert certificate.compliant == search.empty
    if certificate.compliant:
        assert certificate.witness is None
        assert certificate.pairs == search.explored
        assert certificate.pairs == len(build_product(client_c,
                                                      server_c).lts)
    else:
        assert certificate.witness.replays()
        assert len(certificate.witness.trace) == len(search.trace)
        assert certificate.witness.trace[0] == search.trace[0]


VALID_TERMS = [policy_heavy_client(policies, events)
               for policies in (1, 2, 3) for events in (2, 4)]
VIOLATING_TERMS = [
    framing(forbid("rm"), seq(event("touch"), event("rm"))),
    framing(forbid("rm"),
            seq(event("a"),
                internal(("b", seq(event("touch"), event("rm"))),
                         ("c", event("ok"))))),
]


def every_run_valid(term) -> bool:
    """Oracle: walk every run of the (acyclic) *term*, checking each
    history it produces with the declarative ``is_valid``."""
    pending = [(term, ())]
    while pending:
        residual, history = pending.pop()
        for label, successor in step(residual):
            extended = history + ((label,) if is_history_label(label)
                                  else ())
            if not is_valid(History(extended)):
                return False
            pending.append((successor, extended))
    return True


@pytest.mark.parametrize("term", VALID_TERMS + VIOLATING_TERMS,
                         ids=[f"term{i}" for i in
                              range(len(VALID_TERMS) + len(VIOLATING_TERMS))])
def test_validity_certificates_identical_across_engines(term):
    """The static validity certificate against the exhaustive oracle:
    one verdict, and a witness that replays sharply — valid right up to
    its last label, which the declarative checker refuses."""
    certificate = certify_validity(term)
    assert certificate.valid == every_run_valid(term)
    assert (term in VALID_TERMS) == certificate.valid
    if certificate.witness is not None:
        labels = certificate.witness.labels
        assert certificate.witness.replays()
        assert is_valid(History(labels[:-1]))
        assert not is_valid(History(labels))


def test_unknown_engines_are_rejected():
    """No decider takes an ``engine`` argument any more: each question
    has one production path."""
    client, server = PAIRS[0]
    calls = (
        lambda: check_compliance(client, server, engine="compiled"),
        lambda: search_product(Contract(client), Contract(server),
                               engine="compiled"),
        lambda: certify_compliance(client, server, engine="compiled"),
        lambda: certify_validity(VALID_TERMS[0], engine="compiled"),
        lambda: check_reversible(client, server, engine="compiled"),
    )
    for call in calls:
        with pytest.raises(TypeError, match="engine"):
            call()
