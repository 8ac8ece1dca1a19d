#!/usr/bin/env python3
"""Failover in action: a crashed hotel service, recovered by re-planning.

A variation of the paper's hotel-booking module (Section 2) where the
client's policy admits *two* interchangeable hotels.  We verify the
module, crash the hotel the chosen valid plan routes to, and watch the
:class:`~repro.resilience.supervisor.Supervisor` recover: bounded retry
first (the crash does not heal), then compensation — the open sessions
close cleanly, keeping the history valid — and failover to the other
hotel through the memoized planner.  The run completes with a valid
history, without a single security violation: the paper's valid-plan
guarantee, preserved across partial failure.

The second half shows the ladder's *first* rung — reversible sessions.
A client that chose a branch whose reply a fault withholds does not
have to throw its session away: the supervisor rewinds to the
checkpointed choice and takes the untried branch, and when a second
fault lands *during* that rollback, the episode falls down the full
ladder (rollback → retry → failover) with each rung counted distinctly.

Run with::

    python examples/flaky_booking.py
"""

from repro.analysis.planner import find_valid_plans
from repro.analysis.verification import verify_network
from repro.core.syntax import external, internal, receive, request, send
from repro.core.validity import is_valid
from repro.network.repository import Repository
from repro.paper import figure2
from repro.policies.library import hotel_policy
from repro.resilience import Fault, FaultPlan, Supervisor, run_chaos

# --- The module: one client, a broker, two acceptable hotels --------------

# φ(∅, 60, 80): nobody black-listed; violated only by a price above 60
# followed by a rating below 80.
policy = hotel_policy(set(), 60, 80)
client = figure2.client("1", policy)

repository = Repository({
    figure2.LOC_BROKER: figure2.broker(),
    "ls_alpha": figure2.hotel(7, 55, 70),   # price fine -> acceptable
    "ls_beta": figure2.hotel(8, 50, 90),    # price fine -> acceptable
})
clients = {"lc": client}

print("== Verification: two interchangeable valid plans ==")
verdict = verify_network(clients, repository)
assert verdict.verified
# Verification stops at the first valid plan; the full pass lists both.
for analysis in find_valid_plans(client, repository).valid_plans:
    print(f"  valid plan: {analysis.plan}")
plans = verdict.plan_vector()
primary = plans[0].lookup("3")
print(f"chosen plan routes the booking to {primary}")

# --- Crash the chosen hotel and let the supervisor recover ----------------

print(f"\n== Crashing {primary} at tick 0; supervised run ==")
fault_plan = FaultPlan((Fault("crash", location=primary),))
supervisor = Supervisor(clients, plans, repository,
                        fault_plan=fault_plan, seed=11)
outcome = supervisor.run()

for episode in outcome.episodes:
    print(f"  {episode.describe()}")
print(f"status: {outcome.status} after {outcome.steps} step(s), "
      f"{outcome.retries} retr(ies), {outcome.replans} failover(s)")
history = outcome.histories[0]
print(f"client history: {history}")
print(f"history valid: {is_valid(history)}")

assert outcome.status == "completed"
assert outcome.replans == 1
assert is_valid(history)
failover = supervisor._plans[0].lookup("3")
assert failover != primary
print(f"failed over {primary} -> {failover}  ✓")

# --- The same resilience, statistically: a seeded chaos run ---------------

print("\n== 25 seeded chaos trials (crash + drop + stall) ==")
report = run_chaos(clients, repository, trials=25, seed=11,
                   module="flaky_booking")
print(f"outcomes: {report.outcomes}")
print(f"invariant holds: {report.invariant_holds} "
      f"({report.security_violations} security violations, "
      f"{report.undiagnosed} undiagnosed, "
      f"{report.invalid_histories} invalid histories)")
assert report.invariant_holds

# --- Reversible sessions: rewind the choice instead of replanning ---------

# A branchy service: after a short handshake the client internally
# chooses one of two branches; the worker offers both.  When a fault
# strands the chosen branch, the *session itself* holds the way out —
# the supervisor rewinds to the checkpoint pushed at the choice and
# takes the untried branch, instead of compensating the whole session.


def branchy_booking():
    body = internal(("go_a", receive("ok_a")), ("go_b", receive("ok_b")))
    for index in (1, 0):
        body = send(f"prep{index}", receive(f"ready{index}", body))
    return request("r", None, body)


def branchy_service():
    body = external(("go_a", send("ok_a")), ("go_b", send("ok_b")))
    for index in (1, 0):
        body = receive(f"prep{index}", send(f"ready{index}", body))
    return body


rb_clients = {"lc": branchy_booking()}
rb_repository = Repository({"wa": branchy_service()})
rb_verdict = verify_network(rb_clients, rb_repository)
assert rb_verdict.verified
rb_plans = rb_verdict.plan_vector()

# Permanently drop the reply of branch a; seed 3 makes the scheduler
# pick exactly that branch first.
drop_ok_a = FaultPlan((Fault("drop", location="wa", channel="ok_a"),))

print("\n== Rollback: the dropped branch is rewound, not replanned ==")
rb_supervisor = Supervisor(rb_clients, rb_plans, rb_repository,
                           fault_plan=drop_ok_a, seed=3)
rb_outcome = rb_supervisor.run()
for episode in rb_outcome.episodes:
    print(f"  {episode.describe()}")
print(f"status: {rb_outcome.status} after {rb_outcome.steps} step(s); "
      f"{rb_supervisor.checkpoints_pushed} checkpoint(s) pushed, "
      f"{rb_outcome.rollbacks} rollback(s), "
      f"{rb_outcome.replans} failover(s)")
print(f"history valid: {is_valid(rb_outcome.histories[0])}")

assert rb_outcome.status == "completed"
assert rb_outcome.rollbacks == 1 and rb_outcome.replans == 0
assert rb_supervisor.checkpoints_pushed >= 1
assert is_valid(rb_outcome.histories[0])

# The same run with the checkpoint rung disabled: one worker, a
# permanent drop — retry cannot heal it and there is nowhere to fail
# over to, so the supervisor gives up (diagnosed, history still valid).
no_rb = Supervisor(rb_clients, rb_plans, rb_repository,
                   fault_plan=drop_ok_a, rollback=False, seed=3).run()
print(f"without rollback: {no_rb.status} — {no_rb.diagnosis}")
assert no_rb.status == "aborted" and no_rb.diagnosed
assert is_valid(no_rb.histories[0])

# --- A fault that lands DURING the rollback: down the whole ladder --------

# Two workers this time, so failover has somewhere to go.  The second
# drop arms while the first rollback is waiting out its backoff delay,
# blocking the rewound alternative too: the episode walks every rung —
# rollback, then retries, then failover — each counted distinctly.

print("\n== Fault during rollback: rollback -> retry -> failover ==")
pair_repository = Repository({"wa": branchy_service(),
                              "wb": branchy_service()})
assert verify_network(rb_clients, pair_repository).verified
from repro.core.plans import Plan, PlanVector
pair_plans = PlanVector.of(Plan.of({"r": "wa"}))
drop_both = FaultPlan((
    Fault("drop", location="wa", channel="ok_a"),
    Fault("drop", location="wa", channel="go_b", at_step=7)))
ladder = Supervisor(rb_clients, pair_plans, pair_repository,
                    fault_plan=drop_both, seed=3).run()
episode, = ladder.episodes
print(f"  {episode.describe()}")
print(f"status: {ladder.status}; counters: "
      f"{ladder.rollbacks} rollback(s), {ladder.retries} retr(ies), "
      f"{ladder.replans} failover(s)")

assert ladder.status == "completed"
assert (ladder.rollbacks, ladder.retries, ladder.replans) == (1, 3, 1)
assert episode.outcome == "failed-over"
assert all(is_valid(history) for history in ladder.histories)
print("ladder walked in order, history valid  ✓")
