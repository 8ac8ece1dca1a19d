"""Property-based checks of the resilience layer.

Four families, straight from the subsystem's contract:

* **recovery safety** — whatever seeded fault plan is thrown at a
  verified module, the supervised run never produces an invalid
  history, never reports a security violation (the plans are valid),
  and always ends diagnosed;
* **rollback prefix-validity** — with checkpoint rollback enabled,
  every recorded history (and every *prefix* of it: rewinds truncate
  traces, so the prefix property is precisely the rollback invariant)
  stays valid, across sampled fault plans;
* **engine agreement** — on random contract pairs the ordinary
  compliance decider and its oracles return one verdict, ordinary
  compliance implies reversible compliance (Doom lfp soundness), and
  every doom witness replays;
* **breaker monotonicity** — a circuit breaker only ever moves along
  the legal edges closed→open→half-open→{closed, open}, with
  non-decreasing ticks, no matter the operation sequence.
"""

import functools
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import (branchy_client, branchy_worker,
                                  chain_client, pumping_client,
                                  recursive_ticker, worker_pool)
from repro.analysis.verification import verify_network
from repro.cli import load_network
from repro.core.compliance import check_compliance
from repro.core.reversible import check_reversible
from repro.core.validity import History, ValidityMonitor, is_valid
from repro.network.repository import Repository
from repro.resilience.faults import module_requests, sample_fault_plan
from repro.resilience.supervisor import (BREAKER_EDGES, CircuitBreaker,
                                         Supervisor)
from tests.deciders import DECIDERS
from tests.strategies import contracts


def supervised_run(clients, repository, seed,
                   kinds=("crash", "drop", "stall")):
    verdict = verify_network(clients, repository)
    assert verdict.verified
    fault_plan = sample_fault_plan(seed, repository,
                                   requests=module_requests(clients,
                                                            repository),
                                   kinds=kinds)
    supervisor = Supervisor(clients, verdict.plan_vector(), repository,
                            fault_plan=fault_plan, seed=seed,
                            max_steps=300)
    return supervisor.run()


def assert_invariant(result):
    assert result.status != "security-violation"
    assert result.diagnosed
    assert all(is_valid(history) for history in result.histories)
    for transitions in result.breakers.values():
        ticks = [tick for _s, _t, tick in transitions]
        assert ticks == sorted(ticks)
        for source, target, _tick in transitions:
            assert (source, target) in BREAKER_EDGES


class TestRecoveryNeverInvalidatesHistories:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           requests=st.integers(min_value=1, max_value=3),
           workers=st.integers(min_value=2, max_value=4))
    def test_worker_pool_under_random_faults(self, seed, requests,
                                             workers):
        clients = {"lc": chain_client(requests)}
        assert_invariant(supervised_run(clients, worker_pool(workers),
                                        seed))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           rounds=st.integers(min_value=1, max_value=3))
    def test_policied_pumping_client_under_random_faults(self, seed,
                                                         rounds):
        clients = {"lc": pumping_client(rounds)}
        repository = Repository({"tick": recursive_ticker()})
        assert_invariant(supervised_run(clients, repository, seed))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_byzantine_faults_cannot_break_validity(self, seed):
        clients = {"lc": chain_client(2)}
        assert_invariant(supervised_run(
            clients, worker_pool(3), seed,
            kinds=("crash", "byzantine")))


class TestRollbackPrefixValidity:
    """The reversible-session invariant under chaos: rewinds only ever
    truncate traces, so recorded histories — and every prefix of them —
    stay valid with rollback enabled."""

    @staticmethod
    def assert_prefix_valid(result):
        assert_invariant(result)
        for history in result.histories:
            labels = tuple(history)
            for cut in range(len(labels) + 1):
                assert is_valid(History(labels[:cut]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           workers=st.integers(min_value=1, max_value=3))
    def test_branchy_module_under_random_drops(self, seed, workers):
        clients = {"lc": branchy_client()}
        repository = Repository({f"w{i}": branchy_worker()
                                 for i in range(workers)})
        verdict = verify_network(clients, repository)
        assert verdict.verified
        fault_plan = sample_fault_plan(
            seed, repository,
            requests=module_requests(clients, repository),
            kinds=("drop",))
        result = Supervisor(clients, verdict.plan_vector(), repository,
                            fault_plan=fault_plan, rollback=True,
                            seed=seed, max_steps=300).run()
        self.assert_prefix_valid(result)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           requests=st.integers(min_value=1, max_value=3))
    def test_worker_pool_with_rollback_under_mixed_faults(self, seed,
                                                          requests):
        clients = {"lc": chain_client(requests)}
        repository = worker_pool(3)
        verdict = verify_network(clients, repository)
        assert verdict.verified
        fault_plan = sample_fault_plan(
            seed, repository,
            requests=module_requests(clients, repository))
        result = Supervisor(clients, verdict.plan_vector(), repository,
                            fault_plan=fault_plan, rollback=True,
                            seed=seed, max_steps=300).run()
        self.assert_prefix_valid(result)


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


@functools.lru_cache(maxsize=None)
def verified_example(name):
    network = load_network(EXAMPLES / name)
    verdict = verify_network(network.clients, network.repository)
    assert verdict.verified
    return network.clients, network.repository, verdict.plan_vector()


class CheckpointRecorder(Supervisor):
    """A supervisor that keeps every checkpoint it pushes, including
    those a rollback later pops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushed = []

    def _note_choice(self, allowed, transition):
        stack = self._checkpoints[transition.component]
        before = len(stack)
        super()._note_choice(allowed, transition)
        self.pushed.extend(stack[before:])


class TestSupervisedMonitorsMatchTheirHistories:
    """The monitor each component carries is handed over by moves,
    restored with checkpoint snapshots and kept by byzantine rewrites;
    wherever a component ends up, it agrees with a monitor replayed
    from the component's history."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           example=st.sampled_from(("hotel_booking.sus",
                                    "resilient_booking.sus")))
    def test_final_components_and_snapshots(self, seed, example):
        clients, repository, plans = verified_example(example)
        fault_plan = sample_fault_plan(
            seed, repository,
            requests=module_requests(clients, repository),
            kinds=("crash", "drop", "stall", "byzantine"))
        supervisor = CheckpointRecorder(clients, plans, repository,
                                        fault_plan=fault_plan,
                                        rollback=True, seed=seed,
                                        max_steps=300)
        assert_invariant(supervisor.run())
        components = (list(supervisor.simulator.configuration.components)
                      + [checkpoint.snapshot
                         for checkpoint in supervisor.pushed])
        for component in components:
            carried = component.monitor()
            fresh = ValidityMonitor(component.history)
            assert carried.valid == fresh.valid
            assert carried.active_policies() == fresh.active_policies()
            assert carried.events == fresh.events


class TestEngineAgreement:
    """One verdict across the ordinary compliance deciders, and the
    lfp-soundness implication: ordinarily compliant pairs are reversibly
    compliant."""

    @settings(max_examples=40, deadline=None)
    @given(client=contracts(max_depth=3), server=contracts(max_depth=3))
    def test_ordinary_engines_agree_and_imply_reversible(self, client,
                                                         server):
        compliant = check_compliance(client, server).compliant
        verdicts = {name: decide(client, server)
                    for name, decide in DECIDERS.items()}
        assert set(verdicts.values()) == {compliant}, verdicts
        reversible = check_reversible(client, server)
        if compliant:
            assert reversible.compliant
        if not reversible.compliant:
            assert reversible.witness.replays()
            assert reversible.trace[-1] in reversible.witness.rank_table()


#: One breaker operation: (op, tick-advance).
breaker_ops = st.lists(
    st.tuples(st.sampled_from(("allows", "failure", "success")),
              st.integers(min_value=0, max_value=4)),
    min_size=1, max_size=30)


class TestBreakerMonotonicity:
    @settings(max_examples=100, deadline=None)
    @given(ops=breaker_ops,
           threshold=st.integers(min_value=1, max_value=3),
           cooldown=st.integers(min_value=1, max_value=5))
    def test_transitions_follow_legal_edges(self, ops, threshold,
                                            cooldown):
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 cooldown=cooldown)
        now = 0
        for op, advance in ops:
            now += advance
            if op == "allows":
                breaker.allows(now)
            elif op == "failure":
                breaker.record_failure(now)
            else:
                breaker.record_success(now)
        ticks = [tick for _s, _t, tick in breaker.transitions]
        assert ticks == sorted(ticks)
        for source, target, _tick in breaker.transitions:
            assert (source, target) in BREAKER_EDGES
        # Consecutive transitions chain: each leaves the state the
        # previous one entered.
        for before, after in zip(breaker.transitions,
                                 breaker.transitions[1:]):
            assert before[1] == after[0]
