"""Experiment S3 — (synthetic) validity-checking scaling.

Compares the three validity checkers as histories get longer and the
stack of active policies grows:

* the declarative checker (the literal prefix-quantified definition,
  quadratic in the history length);
* the incremental :class:`ValidityMonitor` (what a run-time monitor
  pays, linear per event);
* the static model checkers (session-product and BPA) that quantify over
  *all* traces at once.

Expected shape: the monitor beats the declarative checker with a gap
that widens with trace length; the static checkers' cost tracks the
product of term size and policy-runner state, independent of run count.
"""

import pytest

from repro.analysis.security import check_security
from repro.bpa.modelcheck import check_validity_bpa
from repro.core.actions import Event, FrameClose, FrameOpen
from repro.core.plans import Plan
from repro.core.validity import History, ValidityMonitor, is_valid
from repro.network.repository import Repository
from repro.policies.library import at_most, never_after

from workloads import long_trace_service, policy_heavy_client

LENGTHS = [50, 200, 800]


def make_history(length, policies=3):
    labels = []
    stack = []
    for index in range(policies):
        policy = at_most(f"boom{index}", index + 1)
        labels.append(FrameOpen(policy))
        stack.append(policy)
    labels.extend(Event("tick", (i % 5,)) for i in range(length))
    while stack:
        labels.append(FrameClose(stack.pop()))
    return History(labels)


@pytest.mark.parametrize("length", LENGTHS,
                         ids=[f"len{n}" for n in LENGTHS])
def test_s3_declarative_checker(benchmark, length):
    history = make_history(length)
    assert benchmark(is_valid, history)


@pytest.mark.parametrize("length", LENGTHS,
                         ids=[f"len{n}" for n in LENGTHS])
def test_s3_incremental_monitor(benchmark, length):
    history = make_history(length)

    def run():
        monitor = ValidityMonitor()
        for label in history:
            monitor.extend(label)
        return monitor.valid

    assert benchmark(run)


@pytest.mark.parametrize("policies", [1, 3, 6],
                         ids=["p1", "p3", "p6"])
def test_s3_static_session_checker(benchmark, policies):
    client = policy_heavy_client(policies, events_per_policy=4)
    repo = Repository({"srv": long_trace_service(6)})
    report = benchmark(check_security, client, Plan.single("r", "srv"),
                       repo)
    assert report.secure
    print(f"\nS3 static p={policies}: {report.states_checked} product "
          f"states checked")


@pytest.mark.parametrize("policies", [1, 3, 6],
                         ids=["p1", "p3", "p6"])
def test_s3_bpa_checker(benchmark, policies):
    term = policy_heavy_client(policies, events_per_policy=4)
    report = benchmark(check_validity_bpa, term)
    assert report.valid


def test_s3_monitor_vs_declarative_gap(benchmark):
    """The series the experiment reports: per-length cost ratio.  The
    benchmark measures the monitor; the declarative cost is measured
    inline for the printed comparison."""
    import time
    history = make_history(800)

    def monitor_run():
        monitor = ValidityMonitor()
        for label in history:
            monitor.extend(label)
        return monitor.valid

    assert benchmark(monitor_run)
    start = time.perf_counter()
    is_valid(history)
    declarative = time.perf_counter() - start
    start = time.perf_counter()
    monitor_run()
    incremental = time.perf_counter() - start
    print(f"\nS3 len=800: declarative {declarative * 1e3:.1f} ms vs "
          f"monitor {incremental * 1e3:.1f} ms "
          f"({declarative / max(incremental, 1e-9):.0f}x)")
    assert declarative > incremental
