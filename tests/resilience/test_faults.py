"""Tests for fault plans: activation windows, blocking, mutation and
seeded sampling."""

import random

import pytest

from repro.core.plans import Plan
from repro.core.syntax import receive, request, send, seq
from repro.network.config import Component, Configuration
from repro.network.repository import Repository
from repro.network.simulator import Simulator
from repro.paper import figure2
from repro.resilience.faults import (DEVIANT_SUFFIX, Fault, FaultPlan,
                                     module_requests, mutate_term,
                                     sample_fault_plan, service_channels)

from tests.oracles.stepping import involved_locations


def make_simulator():
    client = request("r", None, seq(send("a"), receive("b")))
    repo = Repository({"srv": seq(receive("a"), send("b"))})
    config = Configuration.of(Component.client("me", client))
    return Simulator(config, Plan.single("r", "srv"), repo)


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meltdown")

    def test_crash_is_permanent(self):
        fault = Fault("crash", location="srv", at_step=3, duration=2)
        assert not fault.active(2)
        assert fault.active(3)
        assert fault.active(1_000)

    def test_drop_window_closes(self):
        fault = Fault("drop", location="srv", channel="b", at_step=2,
                      duration=3)
        assert not fault.active(1)
        assert fault.active(2)
        assert fault.active(4)
        assert not fault.active(5)

    def test_permanent_drop(self):
        fault = Fault("drop", location="srv", channel="b")
        assert fault.active(10_000)

    def test_descriptions_are_stable(self):
        assert Fault("crash", location="srv").describe() == \
            "crash of srv at tick 0"
        assert "for 3 tick(s)" in Fault("stall", request="r", at_step=1,
                                        duration=3).describe()


class TestInvolvedLocations:
    """The tree-diff oracle and the participants a transition carries
    agree wherever every participant's term changes."""

    def test_open_involves_opener_and_target(self):
        simulator = make_simulator()
        transition = simulator.available()[0]
        assert transition.rule == "open"
        before = simulator.configuration[0].tree
        after = transition.successor[0].tree
        assert involved_locations(before, after) == {"me", "srv"}
        assert transition.participants == ("me", "srv")

    def test_synch_involves_both_participants(self):
        simulator = make_simulator()
        simulator.fire_matching(lambda t: t.rule == "open")
        transition = simulator.available()[0]
        assert transition.rule == "synch"
        before = simulator.configuration[0].tree
        after = transition.successor[0].tree
        assert involved_locations(before, after) == {"me", "srv"}
        assert transition.participants == ("me", "srv")


class TestBlocking:
    def test_crash_blocks_open_to_location(self):
        simulator = make_simulator()
        transition = simulator.available()[0]
        plan = FaultPlan((Fault("crash", location="srv"),))
        fault = plan.blocking_fault(transition, now=0)
        assert fault is not None and fault.kind == "crash"

    def test_crash_not_yet_armed_does_not_block(self):
        simulator = make_simulator()
        transition = simulator.available()[0]
        plan = FaultPlan((Fault("crash", location="srv", at_step=9),))
        assert plan.blocking_fault(transition, now=0) is None

    def test_stall_blocks_open_by_request(self):
        simulator = make_simulator()
        transition = simulator.available()[0]
        plan = FaultPlan((Fault("stall", request="r", duration=5),))
        fault = plan.blocking_fault(transition, now=0)
        assert fault is not None and fault.kind == "stall"
        other = FaultPlan((Fault("stall", request="nope", duration=5),))
        assert other.blocking_fault(transition, now=0) is None

    def test_drop_blocks_matching_synch_only(self):
        simulator = make_simulator()
        simulator.fire_matching(lambda t: t.rule == "open")
        transition = simulator.available()[0]  # synch on "a"
        plan = FaultPlan((Fault("drop", location="srv", channel="a",
                                duration=4),))
        assert plan.blocking_fault(transition, now=0) is not None
        other = FaultPlan((Fault("drop", location="srv", channel="b",
                                 duration=4),))
        assert other.blocking_fault(transition, now=0) is None

    def test_crashed_locations(self):
        plan = FaultPlan((Fault("crash", location="a", at_step=4),
                          Fault("drop", location="b", channel="x")))
        assert plan.crashed_locations(0) == ()
        assert plan.crashed_locations(4) == ("a",)


class TestMutation:
    def test_renames_one_send_to_deviant_channel(self):
        term = figure2.hotel_3()
        mutated = mutate_term(term, random.Random(0))
        assert mutated != term
        assert DEVIANT_SUFFIX in str(mutated)

    def test_mutation_is_seeded(self):
        term = figure2.broker()
        first = mutate_term(term, random.Random(5))
        second = mutate_term(term, random.Random(5))
        assert first == second

    def test_term_without_sends_hangs_on_deviant_input(self):
        term = receive("only-input")
        mutated = mutate_term(term, random.Random(0))
        assert DEVIANT_SUFFIX in str(mutated)


class TestSampling:
    def test_same_seed_same_plan(self):
        repository = figure2.repository()
        one = sample_fault_plan(3, repository, requests=("1", "3"))
        two = sample_fault_plan(3, repository, requests=("1", "3"))
        assert one == two

    def test_kinds_are_respected(self):
        repository = figure2.repository()
        for seed in range(30):
            plan = sample_fault_plan(seed, repository,
                                     requests=("1",),
                                     kinds=("crash", "stall"))
            assert all(f.kind in ("crash", "stall") for f in plan)

    def test_no_stall_without_requests(self):
        repository = figure2.repository()
        for seed in range(30):
            plan = sample_fault_plan(seed, repository, kinds=("stall",))
            assert len(plan) == 0

    def test_records_seed_provenance(self):
        plan = sample_fault_plan(42, figure2.repository())
        assert plan.seed == 42


class TestDiscovery:
    def test_service_channels_in_term_order(self):
        repository = figure2.repository()
        assert service_channels(repository, "ls2") == ("Bok", "UnA", "Del")
        assert service_channels(repository, "missing") == ()

    def test_module_requests_sorted(self):
        clients = {figure2.LOC_CLIENT_1: figure2.client_1(),
                   figure2.LOC_CLIENT_2: figure2.client_2()}
        assert module_requests(clients, figure2.repository()) == \
            ("1", "2", "3")
