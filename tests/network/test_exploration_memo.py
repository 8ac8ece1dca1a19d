"""One sub-tree move memo per exploration, against memo-less stepping.

``explore`` steps every configuration of its breadth-first walk with one
table of sub-tree move memos, one per plan, and its stuckness check reads
the plan's memo from that table; ``observed_concurrent_demand`` walks
with one table too.  Each walk must give what the same walk gives when
every configuration is stepped by the memo-less ``network_transitions``
of :mod:`tests.oracles.stepping` and every stuckness check starts from
an empty memo: the same configurations explored, stuck components,
violations, terminal count and summary, and the same demand.

Inputs: every shipped example, under its verified plans and under each
client's first candidate plan (mostly invalid ones, so the stuck and
violation paths run), and the networks of benchmark E2 (the paper's
Figure 2 under its valid, non-compliant and insecure plans).
"""

import pathlib

import pytest

import repro.analysis.capacity as capacity
import repro.network.explorer as explorer
from repro.analysis.capacity import observed_concurrent_demand
from repro.analysis.planner import enumerate_plans
from repro.analysis.verification import verify_network
from repro.cli import load_network
from repro.core.plans import PlanVector
from repro.network import semantics
from repro.network.config import Component, Configuration
from repro.network.explorer import explore
from repro.paper import figure2
from tests.oracles import stepping as oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
SHIPPED = sorted(path for pattern in ("*.sus", "*.toml")
                 for path in (ROOT / "examples").glob(pattern))


def _memo_less_transitions(configuration, plans, repository,
                           enforce_validity=True, commit_outputs=False,
                           memos=None):
    return oracle.network_transitions(configuration, plans, repository,
                                      enforce_validity, commit_outputs)


def _fresh_memo_stuckness(component, plan, repository,
                          commit_outputs=False, memo=None):
    return semantics.classify_stuckness(component, plan, repository,
                                        commit_outputs=commit_outputs)


@pytest.fixture()
def memo_less(monkeypatch):
    """Run a callable with the explorer and the capacity walk stepping
    through the memo-less oracle."""
    def run(function, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(explorer, "network_transitions",
                          _memo_less_transitions)
            patch.setattr(explorer, "classify_stuckness",
                          _fresh_memo_stuckness)
            patch.setattr(capacity, "network_transitions",
                          _memo_less_transitions)
            return function(*args, **kwargs)
    return run


def _configuration(clients) -> Configuration:
    return Configuration.of(*(Component.client(location, term)
                              for location, term in clients.items()))


def _shipped_cases() -> list:
    cases = []
    for path in SHIPPED:
        network = load_network(path)
        configuration = _configuration(network.clients)
        verdict = verify_network(network.clients, network.repository)
        if verdict.verified:
            cases.append((f"{path.name}-verified", configuration,
                          verdict.plan_vector(), network.repository))
        first = [next(enumerate_plans(term, network.repository), None)
                 for term in network.clients.values()]
        if None not in first:
            cases.append((f"{path.name}-first-candidate", configuration,
                          PlanVector.of(*first), network.repository))
    return cases


def _e2_cases() -> list:
    repository = figure2.repository()
    client_2 = Configuration.of(
        Component.client(figure2.LOC_CLIENT_2, figure2.client_2()))
    return [
        ("e2-valid", figure2.initial_configuration(),
         PlanVector.of(figure2.plan_pi1(), figure2.plan_pi2_valid()),
         repository),
        ("e2-bad-compliance", client_2, figure2.plan_pi2_bad_compliance(),
         repository),
        ("e2-bad-security", client_2, figure2.plan_pi2_bad_security(),
         repository),
    ]


CASES = _shipped_cases() + _e2_cases()
VALID = [case for case in CASES if case[0].endswith("-verified")
         or case[0] == "e2-valid"]


@pytest.mark.parametrize("name, configuration, plans, repository", CASES,
                         ids=[case[0] for case in CASES])
def test_explore_equals_memo_less_exploration(memo_less, name,
                                              configuration, plans,
                                              repository):
    shared = explore(configuration, plans, repository)
    reference = memo_less(explore, configuration, plans, repository)
    assert shared == reference
    assert shared.summary() == reference.summary()
    assert shared.explored > 1


def test_the_walks_cover_stuck_and_insecure_plans():
    results = [explore(configuration, plans, repository)
               for _, configuration, plans, repository in CASES]
    assert any(result.stuck for result in results)
    assert any(result.violations for result in results)
    assert any(result.valid for result in results)


@pytest.mark.parametrize("name, configuration, plans, repository", VALID,
                         ids=[case[0] for case in VALID])
def test_observed_demand_equals_memo_less_walk(memo_less, name,
                                               configuration, plans,
                                               repository):
    for location in repository.locations():
        assert observed_concurrent_demand(
            configuration, plans, repository, location) == memo_less(
            observed_concurrent_demand, configuration, plans, repository,
            location), location
