"""Property-based checks of the network semantics and — the strongest
test in the suite — randomized agreement between the modular static
analysis and the exhaustive exploration oracle.

Random scenarios are built from a random client protocol: the service is
the protocol's dual, optionally mutated (dropping an input branch makes
it non-compliant; injecting policed events makes it a security risk),
and wrapped in a request carrying a random policy.  Whatever the
mutation cocktail produces, the two deciders must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.planner import analyze_plan
from repro.core.duality import dual
from repro.core.plans import Plan
from repro.core.syntax import (EPSILON, EventNode, ExternalChoice,
                               HistoryExpression, InternalChoice, Mu,
                               Request, seq)
from repro.core.validity import ValidityMonitor, is_valid
from repro.network.config import Component, Configuration, Leaf
from repro.network.explorer import plan_is_valid_exhaustive
from repro.network.repository import Repository
from repro.network.semantics import component_moves, network_transitions
from repro.network.simulator import Simulator

from tests.strategies import contracts, events, histories, policies


def _inject_events(term: HistoryExpression, names,
                   draw_bool) -> HistoryExpression:
    """Sprinkle events into a contract (after each prefix, maybe)."""
    if isinstance(term, ExternalChoice):
        return ExternalChoice(tuple(
            (label, _maybe_prefix_event(
                _inject_events(cont, names, draw_bool), names, draw_bool))
            for label, cont in term.branches))
    if isinstance(term, InternalChoice):
        return InternalChoice(tuple(
            (label, _maybe_prefix_event(
                _inject_events(cont, names, draw_bool), names, draw_bool))
            for label, cont in term.branches))
    if isinstance(term, Mu):
        return Mu(term.var, _inject_events(term.body, names, draw_bool))
    return term


def _maybe_prefix_event(term, names, draw_bool):
    if draw_bool():
        return seq(EventNode(names()), term)
    return term


@st.composite
def scenarios(draw, recursion: bool = True):
    """(client, plan, repository) with controlled compliance/security
    defects.

    ``recursion=False`` keeps the oracle's state space finite even with
    injected events (histories grow without bound inside event-firing
    loops)."""
    protocol = draw(contracts(max_depth=3, recursion=recursion))
    policy = draw(policies() | st.none())
    client = Request("r", policy, protocol)

    server = dual(protocol)
    # Mutation 1: maybe drop one branch of some external choice of the
    # server (can break compliance).
    if draw(st.booleans()):
        server = _drop_first_droppable_branch(server)
    # Mutation 2: sprinkle events into the server (can break security).
    event_pool = draw(st.lists(events(), min_size=1, max_size=3))

    def pick_event():
        return draw(st.sampled_from(event_pool))

    def pick_bool():
        return draw(st.booleans())

    server = _inject_events(server, pick_event, pick_bool)
    repository = Repository({"srv": server}, validate=False)
    return client, Plan.single("r", "srv"), repository


def _drop_first_droppable_branch(term: HistoryExpression
                                 ) -> HistoryExpression:
    if isinstance(term, ExternalChoice) and len(term.branches) > 1:
        return ExternalChoice(term.branches[1:])
    if isinstance(term, (ExternalChoice, InternalChoice)):
        branches = tuple(
            (label, _drop_first_droppable_branch(cont))
            for label, cont in term.branches)
        return type(term)(branches)
    if isinstance(term, Mu):
        return Mu(term.var, _drop_first_droppable_branch(term.body))
    return term


@settings(max_examples=50, deadline=None)
@given(scenario=scenarios(recursion=False))
def test_static_analysis_agrees_with_oracle(scenario):
    client, plan, repository = scenario
    static = analyze_plan(client, plan, repository).valid
    config = Configuration.of(Component.client("c", client))
    oracle = plan_is_valid_exhaustive(config, plan, repository,
                                      max_configurations=20_000)
    assert static == oracle


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 2**16))
def test_monitored_runs_keep_histories_valid(scenario, seed):
    client, plan, repository = scenario
    config = Configuration.of(Component.client("c", client))
    simulator = Simulator(config, plan, repository, monitored=True,
                          seed=seed)
    for _ in range(60):
        if simulator.step_random() is None:
            break
        assert simulator.all_histories_valid()


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 2**16))
def test_histories_are_prefixes_of_balanced(scenario, seed):
    client, plan, repository = scenario
    config = Configuration.of(Component.client("c", client))
    simulator = Simulator(config, plan, repository, monitored=False,
                          seed=seed)
    for _ in range(60):
        if simulator.step_random() is None:
            break
        for history in simulator.histories():
            assert history.is_prefix_of_balanced()


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 2**16))
def test_successful_termination_balances_histories(scenario, seed):
    client, plan, repository = scenario
    config = Configuration.of(Component.client("c", client))
    simulator = Simulator(config, plan, repository, monitored=False,
                          seed=seed)
    simulator.run(max_steps=300)
    if simulator.is_terminated():
        for history in simulator.histories():
            assert history.is_balanced()


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios())
def test_transitions_never_invalidate_silently_in_monitored_mode(scenario):
    client, plan, repository = scenario
    config = Configuration.of(Component.client("c", client))
    for transition in network_transitions(config, plan, repository,
                                          enforce_validity=True):
        moved = transition.successor.components[transition.component]
        assert is_valid(moved.history)


def _monitor_state(monitor):
    return monitor.valid, monitor.events, monitor.active_policies()


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), history=histories(), data=st.data())
def test_monitored_filter_admits_exactly_the_valid_moves(scenario, history,
                                                         data):
    """The filter, run on the monitor each component carries, admits in
    order the unfiltered moves with no appends or with a valid extended
    history — on walked components (monitor inherited from the move
    that produced them) and fresh ones (monitor rebuilt), from any
    starting history, valid or not."""
    client, plan, repository = scenario
    configuration = Configuration.of(Component(history, Leaf("c", client)))
    for _ in range(40):
        walked = configuration[0]
        for component in (walked, Component(walked.history, walked.tree)):
            expected = [
                move for move in component_moves(component, plan, repository,
                                                 enforce_validity=False)
                if not move.appends
                or is_valid(component.history.extend(move.appends))]
            states = []
            for _listing in range(2):
                assert list(component_moves(component, plan,
                                             repository)) == expected
                states.append(_monitor_state(component.monitor()))
            assert states[0] == states[1] == _monitor_state(
                ValidityMonitor(component.history))
            assert states[0][0] == is_valid(component.history)
        transitions = list(network_transitions(
            configuration, plan, repository,
            enforce_validity=data.draw(st.booleans(), label="monitored")))
        if not transitions:
            break
        configuration = data.draw(st.sampled_from(transitions)).successor
