"""Integration of the extension modules with the paper's network."""

import pytest

from repro.analysis.capacity import check_capacities
from repro.canon.preorder import subcontract_preorder
from repro.core.plans import Plan
from repro.core.projection import project
from repro.paper import figure2
from repro.quantitative import (CostModel, cheapest_valid_plan,
                                plan_cost, priced_valid_plans)
from repro.registry import ContractRegistry

#: Signing is expensive, publishing metadata is cheap.
MODEL = CostModel.of({"sgn": 10, "p": 1, "ta": 1})


class TestPricingThePaperNetwork:
    def test_every_hotel_session_costs_the_same(self, repo, c1):
        # All hotels fire sgn+p+ta: 12 under the model, so all complete
        # plans for C1 price identically; pricing cannot override
        # validity.
        cost = plan_cost(c1, figure2.plan_pi1(), repo,
                         MODEL, figure2.LOC_CLIENT_1)
        assert cost == 12

    def test_cheapest_valid_plan_is_pi1(self, repo, c1):
        best = cheapest_valid_plan(c1, repo, MODEL,
                                   location=figure2.LOC_CLIENT_1)
        assert best is not None
        assert best.plan == figure2.plan_pi1()
        assert best.cost == 12

    def test_pricing_ranks_only_valid_plans(self, repo, c2):
        priced = priced_valid_plans(c2, repo, MODEL,
                                    location=figure2.LOC_CLIENT_2)
        assert [entry.plan for entry in priced] == \
            [figure2.plan_pi2_valid()]


class TestCapacityOnThePaperNetwork:
    def test_single_broker_cannot_serve_both_clients(self, repo, c1, c2):
        clients = [(c1, figure2.plan_pi1()),
                   (c2, figure2.plan_pi2_valid())]
        report = check_capacities(clients, repo,
                                  {figure2.LOC_BROKER: 1})
        assert report.oversubscribed() == (figure2.LOC_BROKER,)

    def test_two_brokers_worth_of_capacity_suffice(self, repo, c1, c2):
        clients = [(c1, figure2.plan_pi1()),
                   (c2, figure2.plan_pi2_valid())]
        report = check_capacities(clients, repo,
                                  {figure2.LOC_BROKER: 2, "ls3": 1,
                                   "ls4": 1, "ls1": 0, "ls2": 0})
        assert report.feasible


@pytest.fixture(scope="module")
def registry(repo):
    registry = ContractRegistry()
    for location, term in repo.items():
        registry.add(location, term)
    return registry


class TestDiscoveryOnThePaperNetwork:
    def test_hotels_refining_s3(self, registry):
        # Advertising S3's contract: which hotels can substitute it?
        advertised = project(figure2.hotel_3())
        matches = registry.find_substitutable(advertised).matches
        # S1 and S4 have the same contract (?IdC.(Bok ⊕ UnA)); S2 adds
        # the Del output — more internal surprises, NOT a refinement; the
        # broker speaks a different protocol entirely.
        assert set(matches) == {"ls1", "ls3", "ls4"}

    def test_s2_refines_the_others_but_not_vice_versa(self, repo):
        s2 = project(figure2.hotel_2())
        s3 = project(figure2.hotel_3())
        assert subcontract_preorder(s2, s3)      # dropping Del only helps
        assert not subcontract_preorder(s3, s2)  # adding Del breaks some

    def test_discovery_respects_the_broker(self, repo, registry):
        # The broker handles Bok/UnA only: it is compliant with every
        # refinement of S3's contract the discovery returns.
        from repro.analysis.requests import extract_requests
        from repro.core.compliance import compliant
        (broker_request,) = extract_requests(figure2.broker())
        advertised = project(figure2.hotel_3())
        for location in registry.find_substitutable(advertised).matches:
            assert compliant(broker_request.body, repo[location])
