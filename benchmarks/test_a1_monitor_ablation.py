"""Experiment A1 — ablation of the headline claim: under a valid plan,
"there is no need for any execution monitor at run-time".

Runs the same networks monitored (the angelic semantics re-checks
validity at every step) and unmonitored (what a statically verified
deployment does), asserting

* identical outcomes — same termination, same final histories under a
  deterministic scheduler, all histories valid either way;
* the unmonitored run is strictly cheaper — the measurable dividend the
  static analysis pays.
"""

import statistics
import time

from repro.core.plans import Plan, PlanVector
from repro.network.config import Component, Configuration
from repro.network.repository import Repository
from repro.network.simulator import Simulator
from repro.paper import figure2

from workloads import pumping_client, recursive_ticker


def paper_setup():
    plans = PlanVector.of(figure2.plan_pi1(), figure2.plan_pi2_valid())
    return figure2.initial_configuration(), plans, figure2.repository()


def long_run_setup(rounds=40):
    client = pumping_client(rounds)
    repo = Repository({"srv": recursive_ticker()})
    config = Configuration.of(Component.client("me", client))
    return config, Plan.single("r", "srv"), repo


def run(config, plans, repo, monitored, seed=11):
    simulator = Simulator(config, plans, repo, monitored=monitored,
                          seed=seed)
    simulator.run(max_steps=5_000)
    return simulator


def test_a1_paper_network_monitored(benchmark):
    config, plans, repo = paper_setup()
    simulator = benchmark(run, config, plans, repo, True)
    assert simulator.is_terminated()
    assert simulator.all_histories_valid()


def test_a1_paper_network_unmonitored(benchmark):
    config, plans, repo = paper_setup()
    simulator = benchmark(run, config, plans, repo, False)
    assert simulator.is_terminated()
    assert simulator.all_histories_valid()  # valid plan: no monitor needed


def test_a1_long_run_monitored(benchmark):
    config, plans, repo = long_run_setup()
    simulator = benchmark(run, config, plans, repo, True)
    assert simulator.is_terminated()


def test_a1_long_run_unmonitored(benchmark):
    config, plans, repo = long_run_setup()
    simulator = benchmark(run, config, plans, repo, False)
    assert simulator.is_terminated()
    assert simulator.all_histories_valid()


def test_a1_outcomes_identical_and_overhead_positive(benchmark):
    """The experiment's headline row: same outcomes, monitored costs
    more.  (The benchmark measures the pair; the ratio is printed.)

    The incremental monitor costs only about a tenth of a run, so each
    side is timed as the median of five runs, interleaved with the
    other side's so that a change in machine speed hits both alike."""
    config, plans, repo = long_run_setup(rounds=30)

    def both():
        simulators, times = {}, {True: [], False: []}
        for _ in range(5):
            for monitored in (True, False):
                start = time.perf_counter()
                simulators[monitored] = run(config, plans, repo, monitored)
                times[monitored].append(time.perf_counter() - start)
        return (simulators[True], simulators[False],
                statistics.median(times[True]),
                statistics.median(times[False]))

    monitored, unmonitored, mon_t, unmon_t = benchmark(both)
    assert monitored.is_terminated() and unmonitored.is_terminated()
    assert monitored.histories() == unmonitored.histories()
    print(f"\nA1 — monitored {mon_t * 1e3:.1f} ms vs unmonitored "
          f"{unmon_t * 1e3:.1f} ms (overhead {mon_t / unmon_t:.1f}x); "
          "outcomes identical")
    assert mon_t > unmon_t
