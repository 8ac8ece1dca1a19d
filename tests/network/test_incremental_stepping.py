"""Incremental stepping against memo-less stepping, on every tick.

A simulator steps with one sub-tree move memo per plan, kept for its
whole run, and a chaos campaign shares one such table across its trials.
Seeded campaigns run here over the shipped examples, the loop fixtures of
``tests/resilience/fixtures`` and seeded chaos-cold modules of
``perfbench/gen.py`` (imported unchanged), under sampled crash, drop,
stall and byzantine faults, with rollbacks and replans.  On every tick:

* ``Simulator.available()`` gives the transitions of memo-less
  ``network_transitions`` (:mod:`tests.oracles.stepping`): the same ones,
  in the same order, with equal successors;
* each transition's ``participants`` contain the locations the tree-diff
  oracle ``involved_locations`` names, and equal them unless a
  participant's leaf is the same before and after the move.

A campaign that replans mid-run gives the trials of fresh supervisors,
each stepping with its own table, so no memo serves two plans.
"""

import importlib.util
import pathlib
import random
import sys
from collections import Counter

import pytest

from repro.analysis.verification import verify_network
from repro.cli import load_module
from repro.lang.module import parse_module
from repro.network.config import leaves
from repro.network.simulator import Simulator
from repro.resilience.faults import (FAULT_KINDS, FaultPlan, module_requests,
                                     sample_fault_plan)
from repro.resilience.harness import run_chaos
from repro.resilience.supervisor import Supervisor
from tests.oracles import stepping as oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]

SHIPPED = [path for path in sorted(
    path for pattern in ("*.sus", "*.toml")
    for path in (ROOT / "examples").glob(pattern))
    if path.name != "broken_booking.sus"]  # it has no valid plan
LOOPS = sorted((ROOT / "tests" / "resilience" / "fixtures").glob("*.sus"))


def _load_gen():
    """``perfbench/gen.py`` as a module, without editing or copying it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def _generated():
    gen = _load_gen()
    return [(f"{seed}-{case.name}", case.source, case.seed)
            for seed in (3, 7001)
            for case in gen.chaos_inputs(seed, len(gen.CHAOS_SHAPES))]


GENERATED = _generated()


def assert_participants(transition, before, after) -> None:
    """The participant checks of one transition from tree *before*."""
    involved = oracle.involved_locations(before, after)
    participants = set(transition.participants)
    assert involved <= participants, (transition, involved)
    unchanged = {leaf.location for leaf in
                 Counter(leaves(before)) & Counter(leaves(after))}
    assert participants - involved <= unchanged, (transition, involved)


class Ticks:
    """Wraps ``Simulator.available`` to check every tick against the
    oracles; counts what it saw."""

    def __init__(self, monkeypatch) -> None:
        self.ticks = 0
        self.transitions = 0
        self.rules: Counter = Counter()
        available = Simulator.available

        def checked(simulator):
            transitions = available(simulator)
            expected = list(oracle.network_transitions(
                simulator.configuration, simulator.plans,
                simulator.repository,
                enforce_validity=simulator.monitored))
            if transitions != expected:
                # A short message: pytest's diff of two lists of whole
                # configurations takes minutes.
                pytest.fail(f"tick {self.ticks}: the memoised and the "
                            f"memo-less transitions differ",
                            pytrace=False)
            for transition in transitions:
                index = transition.component
                assert_participants(
                    transition, simulator.configuration[index].tree,
                    transition.successor[index].tree)
                self.rules[transition.rule] += 1
            self.ticks += 1
            self.transitions += len(transitions)
            return transitions

        monkeypatch.setattr(Simulator, "available", checked)


def campaign(clients, repository, seed: int, trials: int = 6):
    return run_chaos(clients, repository, trials=trials, seed=seed,
                     kinds=FAULT_KINDS, max_faults=3)


@pytest.mark.parametrize("path", SHIPPED + LOOPS,
                         ids=lambda path: path.name)
def test_every_tick_of_a_campaign_on_a_module_file(path, monkeypatch):
    module = load_module(path)
    ticks = Ticks(monkeypatch)
    for seed in (3, 7):
        campaign(module.clients, module.repository, seed)
    assert ticks.ticks > 0 and ticks.transitions > 0


@pytest.mark.parametrize("name, source, seed", GENERATED,
                         ids=[name for name, _source, _seed in GENERATED])
def test_every_tick_of_a_campaign_on_a_generated_module(name, source, seed,
                                                        monkeypatch):
    module = parse_module(source)
    ticks = Ticks(monkeypatch)
    campaign(module.clients, module.repository, seed)
    assert ticks.ticks > 0


def test_the_campaigns_exercise_every_rule_and_recovery(monkeypatch):
    """The differential checks above are not vacuous: faults of every
    kind, rollbacks and replans happen, and every rule fires."""
    ticks = Ticks(monkeypatch)
    reports = []
    for path in SHIPPED:
        module = load_module(path)
        reports += [campaign(module.clients, module.repository, seed)
                    for seed in (3, 7)]
    results = [result for report in reports for result in report.results]
    assert sum(result.rollbacks for result in results) > 0
    assert sum(result.replans for result in results) > 0
    faults = " ".join(fault for result in results for fault in result.faults)
    for kind in ("crash", "drop", "stall", "byzantine"):
        assert kind in faults
    assert set(ticks.rules) >= {"open", "synch", "access", "close"}


def _trial(clients, repository, plans, requests, trial_seed, memos):
    """One trial as :func:`run_chaos` runs it, stepping with *memos*.

    The deadline lies far beyond the clock of any trial here; it only
    ends a trial whose recovery would otherwise loop without firing,
    which the step budget does not bound."""
    sampled = sample_fault_plan(random.Random(trial_seed), repository,
                                requests=requests, kinds=FAULT_KINDS,
                                max_faults=3)
    supervisor = Supervisor(clients, plans, repository,
                            fault_plan=FaultPlan(sampled.faults,
                                                 seed=trial_seed),
                            max_steps=400, deadline=10_000,
                            seed=trial_seed, memos=memos)
    result = supervisor.run()
    return (result.status, result.steps, result.clock, result.diagnosis,
            tuple(episode.describe() for episode in result.episodes),
            result.faults, result.histories)


@pytest.mark.parametrize("path", [ROOT / "examples" / "resilient_booking.sus",
                                  LOOPS[0]], ids=lambda path: path.name)
def test_a_replanning_campaign_matches_fresh_supervisors(path):
    module = load_module(path)
    clients, repository = module.clients, module.repository
    plans = verify_network(dict(clients), repository).plan_vector()
    requests = module_requests(clients, repository)
    rng = random.Random(7)
    seeds = [rng.randrange(2 ** 32) for _ in range(12)]
    shared: dict = {}
    campaign_trials = [_trial(clients, repository, plans, requests, seed,
                              shared) for seed in seeds]
    fresh_trials = [_trial(clients, repository, plans, requests, seed,
                           None) for seed in seeds]
    for index, (shared_trial, fresh_trial) in enumerate(
            zip(campaign_trials, fresh_trials)):
        if shared_trial != fresh_trial:
            pytest.fail(f"trial {index} differs with a shared table",
                        pytrace=False)
    # Some trial failed over mid-run, adding a plan to the shared table.
    assert any("failed-over" in " ".join(trial[4])
               for trial in campaign_trials)
    assert len(shared) > len(set(plans.plans))
    # run_chaos shares one table the same way.
    report = run_chaos(clients, repository, trials=12, seed=7,
                       kinds=FAULT_KINDS, max_faults=3)
    assert [(result.status, result.steps, result.clock, result.diagnosis,
             result.episodes, result.faults)
            for result in report.results] == [trial[:6]
                                              for trial in campaign_trials]
