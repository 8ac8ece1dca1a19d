"""The monitored search agrees with the explicit-state checks it
replaced (:mod:`tests.oracles.security`).

:func:`repro.analysis.security.check_security` generates a plan's moves
on the fly; the oracle assembles the plan's whole LTS, reads the
policies off its labels and searches it.  Both must give the same
verdict, counterexample and violated policy on every plan of every
shipped module, of the Figure-2 network and of random scenarios.  The
check tracks the policies of the client and of the bound services,
which may exceed those the LTS frames: ``states_checked`` is equal when
the two sets are, and extra runners can only add states otherwise.
Given the same policy set, the oracle must match the whole report.

:func:`repro.staticcheck.validity.certify_validity` runs the same search
over a term's residuals; the oracle's term search must give the same
verdict, explored count and witness.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.analysis.planner import enumerate_plans
from repro.analysis.security import check_security
from repro.analysis.session_product import assemble
from repro.cli import load_module
from repro.core.plans import Plan
from repro.core.syntax import policies_of
from repro.network.repository import Repository
from repro.paper import figure2
from repro.staticcheck.validity import certify_validity

from tests.oracles import security as oracle
from tests.property.test_prop_network import scenarios
from tests.strategies import history_expressions

ROOT = Path(__file__).resolve().parents[2]

MODULES = sorted([*ROOT.glob("examples/*.sus"),
                  ROOT / "examples" / "hotel_booking.toml"])


def networks():
    """(name, clients by location, repository) of every shipped module
    and of the Figure-2 network."""
    for path in MODULES:
        module = load_module(path)
        yield path.name, dict(module.clients), module.repository
    yield "figure2", {figure2.LOC_CLIENT_1: figure2.client_1(),
                      figure2.LOC_CLIENT_2: figure2.client_2()}, \
        figure2.repository()


def syntactic_policies(client, plan, repository):
    """The policies of the client and of the services *plan* binds."""
    found = set(policies_of(client))
    for _, target in plan.items():
        service = repository.get(target)
        if service is not None:
            found |= policies_of(service)
    return frozenset(found)


def assert_agrees(client, plan, repository, location):
    report = check_security(client, plan, repository, location)
    lts = assemble(client, plan, repository, location)
    expected = oracle.check_lts(lts)
    assert report.secure == expected.secure
    assert report.counterexample == expected.counterexample
    assert report.violated_policy == expected.violated_policy
    policies = syntactic_policies(client, plan, repository)
    if oracle.policies_of_lts(lts) == policies:
        assert report.states_checked == expected.states_checked
    else:
        assert report.states_checked >= expected.states_checked
    assert report == oracle.check_lts(lts, policies)


@pytest.mark.parametrize("name, clients, repository", [
    pytest.param(*network, id=network[0]) for network in networks()])
def test_every_plan_of_the_shipped_networks(name, clients, repository):
    checked = 0
    for location, client in clients.items():
        for plan in (Plan.empty(), *enumerate_plans(client, repository)):
            assert_agrees(client, plan, repository, location)
            checked += 1
    assert checked > len(clients)


def test_the_shipped_networks_have_insecure_plans():
    """The agreement above covers counterexamples, not only passes."""
    insecure = sum(
        not check_security(client, plan, repository, location).secure
        for _, clients, repository in networks()
        for location, client in clients.items()
        for plan in enumerate_plans(client, repository))
    assert insecure > 0


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios())
def test_random_scenarios(scenario):
    client, plan, repository = scenario
    assert_agrees(client, plan, repository, "client")


@settings(max_examples=100, deadline=None)
@given(term=history_expressions())
def test_random_terms_under_the_empty_plan(term):
    """Unserved requests never open, so their policies are often ones
    the LTS never frames."""
    assert_agrees(term, Plan.empty(), Repository(), "client")


@settings(max_examples=200, deadline=None)
@given(term=history_expressions())
def test_certify_validity_matches_the_term_search(term):
    certificate = certify_validity(term)
    expected = oracle.certify_validity(term)
    assert certificate.valid == expected.valid
    assert certificate.explored == expected.explored
    assert certificate.witness == expected.witness
