"""The plan-security cache behind ``analyze_plan``.

One entry per assembled behaviour ``⟨Ĥ, π⟩``: the key is the client,
its location, the plan and the services at the locations the plan
binds, so repositories that agree on those share an entry and a changed
bound service misses.  The counting test pins the point of the cache:
within one command, no ``⟨Ĥ, π⟩`` is security-checked twice.
"""

import collections
import pathlib

import pytest

import repro.analysis.planner as planner
from repro.analysis.planner import analyze_plan, plan_security
from repro.analysis.security import check_security
from repro.cli import main
from repro.contracts.contract import clear_contract_caches
from repro.core.errors import StateSpaceLimitError
from repro.core.plans import Plan
from repro.network.repository import Repository
from repro.observability.cache_stats import cache_stats
from repro.paper import figure2

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
NAME = "analysis.plan_security"

#: lc1's valid plan: ls3 never signs as the blacklisted hotel 1.
SECURE = Plan.of({"1": figure2.LOC_BROKER, "3": "ls3"})


def stats():
    return cache_stats()[NAME]


@pytest.fixture(autouse=True)
def cold():
    clear_contract_caches()
    yield
    clear_contract_caches()


def test_an_unbound_location_does_not_split_the_entry():
    full = figure2.repository()
    smaller = Repository({location: term for location, term in full.items()
                          if location != "ls2"}, validate=False)
    client = figure2.client_1()
    first = analyze_plan(client, SECURE, full, figure2.LOC_CLIENT_1)
    second = analyze_plan(client, SECURE, smaller, figure2.LOC_CLIENT_1)
    assert first.security == second.security
    assert first.valid and second.valid
    assert stats() == {"hits": 1, "misses": 1, "currsize": 1,
                       "maxsize": planner.PLAN_SECURITY_CACHE_SIZE}


def test_a_changed_bound_service_misses_and_gets_its_own_verdict():
    repository = figure2.repository()
    client = figure2.client_1()
    assert plan_security(client, SECURE, repository,
                         figure2.LOC_CLIENT_1).secure
    # ls1 signs as hotel 1, which lc1's policy blacklists.
    swapped = repository.publish("ls3", repository["ls1"])
    report = plan_security(client, SECURE, swapped, figure2.LOC_CLIENT_1)
    assert not report.secure
    assert report == check_security(client, SECURE, swapped,
                                    figure2.LOC_CLIENT_1)
    assert stats()["misses"] == 2 and stats()["hits"] == 0


def test_a_location_missing_from_the_repository():
    repository = figure2.repository()
    client = figure2.client_1()
    plan = Plan.of({"1": figure2.LOC_BROKER, "3": "nowhere"})
    report = plan_security(client, plan, repository, figure2.LOC_CLIENT_1)
    assert report == check_security(client, plan, repository,
                                    figure2.LOC_CLIENT_1)
    assert analyze_plan(client, plan, repository,
                        figure2.LOC_CLIENT_1).unserved_requests == ("3",)


def test_a_state_budget_error_is_raised_every_time_and_not_cached(
        monkeypatch):
    calls = []

    def tiny_budget(client, plan, repository, location):
        calls.append(plan)
        return check_security(client, plan, repository, location,
                              max_states=1)

    monkeypatch.setattr(planner, "check_security", tiny_budget)
    repository = figure2.repository()
    client = figure2.client_1()
    for _ in range(2):
        with pytest.raises(StateSpaceLimitError):
            plan_security(client, SECURE, repository, figure2.LOC_CLIENT_1)
    assert len(calls) == 2
    assert stats()["currsize"] == 0
    monkeypatch.undo()
    assert plan_security(client, SECURE, repository,
                         figure2.LOC_CLIENT_1).secure


def test_clear_contract_caches_empties_the_cache():
    analyze_plan(figure2.client_1(), SECURE, figure2.repository(),
                 figure2.LOC_CLIENT_1)
    assert stats()["currsize"] == 1
    clear_contract_caches()
    assert stats() == {"hits": 0, "misses": 0, "currsize": 0,
                       "maxsize": planner.PLAN_SECURITY_CACHE_SIZE}


@pytest.mark.parametrize("argv", [
    ["chaos", str(EXAMPLES / "resilient_booking.sus"), "--seed", "7",
     "--trials", "8"],
    ["analyze", str(EXAMPLES / "hotel_booking.sus")],
    ["analyze", str(EXAMPLES / "broken_booking.sus")],
], ids=["chaos-resilient", "analyze-hotel", "analyze-broken"])
def test_one_command_security_checks_each_plan_once(argv, monkeypatch,
                                                    capsys):
    keys = []

    def counting(client, plan, repository, location="client", **options):
        targets = sorted({target for _, target in plan.items()})
        keys.append((client, location, plan,
                     tuple((target, repository.get(target))
                           for target in targets)))
        return check_security(client, plan, repository, location, **options)

    monkeypatch.setattr(planner, "check_security", counting)
    main(argv)
    capsys.readouterr()
    assert keys
    repeated = [key for key, count in collections.Counter(keys).items()
                if count > 1]
    assert repeated == []
