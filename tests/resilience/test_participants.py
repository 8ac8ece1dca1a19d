"""Faults block the transitions their location takes part in, read off
each transition's ``participants``.

The fixtures hold one-action loops.  A synchronisation on ``a`` steps a
looping leaf to itself (terms are interned), so a diff of the session
tree before and after the move misses that leaf; a crash or a drop at
its location must suppress the move all the same.
"""

import pathlib

import pytest

from repro.analysis.verification import verify_network
from repro.cli import load_module
from repro.network.config import locations
from repro.resilience.faults import Fault, FaultPlan
from repro.resilience.supervisor import Supervisor

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def supervise(fixture: str, fault: Fault, seed: int):
    """The result of one supervised run of *fixture* under *fault*, and
    every fired transition with the tick it fired at."""
    module = load_module(FIXTURES / fixture)
    verdict = verify_network(dict(module.clients), module.repository)
    supervisor = Supervisor(module.clients, verdict.plan_vector(),
                            module.repository,
                            fault_plan=FaultPlan((fault,)), seed=seed)
    fired = []
    fire = supervisor.simulator.fire

    def recording_fire(transition):
        fired.append((supervisor.clock, transition))
        fire(transition)

    supervisor.simulator.fire = recording_fire
    return supervisor.run(), fired


def in_session_with(location: str, transition) -> bool:
    """Does the moved component's session tree still hold *location*
    after *transition*?"""
    tree = transition.successor[transition.component].tree
    return location in locations(tree)


SEEDS = range(3)


class TestSelfLoop:
    """``self_loop.sus``: the client and s1 both loop on ``a``."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_aborts_at_its_tick(self, seed):
        result, fired = supervise("self_loop.sus",
                                  Fault("crash", location="s1", at_step=1),
                                  seed)
        assert [transition.rule for _tick, transition in fired] == ["open"]
        assert result.status == "aborted"
        (episode,) = result.episodes
        assert episode.trigger == "injected-blockage"
        assert episode.started_at == 1
        assert episode.suspects == ("s1",)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_drop_leaves_only_done_to_fire(self, seed):
        result, fired = supervise("self_loop.sus",
                                  Fault("drop", location="s1", channel="a"),
                                  seed)
        assert result.completed
        assert [transition.channel for _tick, transition in fired
                if transition.rule == "synch"] == ["done"]


class TestOneSidedLoop:
    """``one_sided_loop.sus``: only the services loop on ``a``; the valid
    plan binds s1, and s2 can take over."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_suppresses_every_later_synch_with_the_service(self,
                                                                 seed):
        result, fired = supervise("one_sided_loop.sus",
                                  Fault("crash", location="s1", at_step=2),
                                  seed)
        late = [tick for tick, transition in fired
                if tick >= 2 and transition.rule == "synch"
                and in_session_with("s1", transition)]
        assert late == []
        assert result.completed and result.replans == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_drop_suppresses_the_synchs_on_its_channel(self, seed):
        result, fired = supervise("one_sided_loop.sus",
                                  Fault("drop", location="s1", channel="a"),
                                  seed)
        assert [transition for _tick, transition in fired
                if transition.rule == "synch" and transition.channel == "a"
                and in_session_with("s1", transition)] == []
        assert result.completed and result.replans == 1
