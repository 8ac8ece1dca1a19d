#!/usr/bin/env python3
"""Quickstart: verify a tiny client/worker network end to end.

Covers the whole pipeline in ~60 lines: write behaviours in the surface
syntax, attach a usage policy, check compliance, synthesise a valid plan,
and run the network with the monitor switched off.

Run with::

    python examples/quickstart.py
"""

from repro import (Component, Configuration, Plan, Repository, Simulator,
                   check_compliance, parse, pretty, project)
from repro.analysis.planner import find_valid_plans
from repro.analysis.verification import verify_client
from repro.policies import never_after

# A policy: once the worker has archived the job, it must not modify it.
phi = never_after("archive", "modify")

# The client opens one session (request "r"), ships a job and waits for
# either a success or a failure notification.
client = parse(
    "open r with phi { !job . (?done + ?failed) }",
    policies={"phi": phi})

# Two candidate workers are published in the repository.  The sloppy one
# modifies the job after archiving it — a policy violation; the good one
# archives last.
good_worker = parse("?job . { @modify(1) ; @archive(1) ; !done }")
sloppy_worker = parse("?job . { @archive(1) ; @modify(1) ; !failed }")
repository = Repository({"good": good_worker, "sloppy": sloppy_worker})

# --- contracts and compliance -------------------------------------------

request_body = client.body  # the behaviour inside open … close
print("client contract:", pretty(project(request_body)))
print("good contract:  ", pretty(project(good_worker)))

for name in ("good", "sloppy"):
    verdict = check_compliance(request_body, repository[name])
    print(f"client ⊢ {name}: {verdict.compliant}")

# --- plan synthesis (the paper's Section 5) ------------------------------

verdict = verify_client(client, repository, location="me")
assert verdict.verified, "expected a valid plan"
plan = verdict.plan.plan
print("valid plan:", plan)                       # r[good]
assert plan == Plan.of({"r": "good"})

# Verification stops at the first valid plan; the full planning pass
# also lists the candidates rejected after it.
for analysis in find_valid_plans(client, repository,
                                 location="me").invalid_plans:
    print("rejected:", analysis.explain())

# --- run without a monitor ----------------------------------------------

network = Configuration.of(Component.client("me", client))
simulator = Simulator(network, plan, repository, monitored=False, seed=7)
simulator.run()
assert simulator.is_terminated()
assert simulator.all_histories_valid()
print("unmonitored run:", simulator.histories()[0])
print("network terminated successfully — no monitor was needed.")
