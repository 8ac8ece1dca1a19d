#!/usr/bin/env python3
"""An e-commerce checkout with nested sessions and an authorization policy.

Scenario: a shopper opens a session with a *store*; to capture the
payment the store itself opens a nested session with one of two *payment
gateways* (mirroring the broker/hotel nesting of the paper).  The shopper
imposes the policy "a charge may only happen after an authorization"
(``require_before(auth, charge)``) on the whole session — including,
thanks to history dependence, everything the nested gateway does.

The repository publishes:

* ``fastpay``   — authorizes, then charges (policy-abiding);
* ``sketchpay`` — charges straight away (violates the policy);
* ``retrypay``  — compliant with the store only partially: it may also
  answer ``retry``, which the store cannot handle (the ``Del``
  phenomenon of the paper's hotel S2).

Plan synthesis must route the nested request to ``fastpay`` only.

Run with::

    python examples/payment_gateway.py
"""

from repro import (Component, Configuration, Simulator, parse,
                   plan_is_valid_exhaustive)
from repro.analysis.planner import find_valid_plans
from repro.policies import require_before

# Charging requires a prior authorization, anywhere in the history.
phi = require_before("auth", "charge")

shopper = parse(
    """
    open checkout with phi {
        !order . (?receipt . !ack + ?declined)
    }
    """,
    policies={"phi": phi})

store = parse(
    """
    ?order .
    open capture {
        !amount . (?ok + ?fail)
    } ;
    (!receipt . ?ack ++ !declined)
    """)

fastpay = parse("?amount . { @auth(99) ; @charge(99) ; (!ok ++ !fail) }")
sketchpay = parse("?amount . { @charge(99) ; (!ok ++ !fail) }")
retrypay = parse(
    "?amount . { @auth(99) ; @charge(99) ; (!ok ++ !fail ++ !retry) }")

from repro.network.repository import Repository  # noqa: E402

repository = Repository({
    "store": store,
    "fastpay": fastpay,
    "sketchpay": sketchpay,
    "retrypay": retrypay,
})

print("== plan synthesis for the shopper ==")
# The full planning pass, so every candidate is listed and cross-checked.
result = find_valid_plans(shopper, repository, location="shopper")
for analysis in result.invalid_plans + result.valid_plans:
    print(" ", analysis.explain())

assert result.has_valid_plan
best = result.best()
assert best is not None and best.plan.lookup("capture") == "fastpay"
print(f"\nchosen plan: {best.plan}")

# Cross-check the static verdicts against exhaustive exploration.
print("\n== cross-validation against the exhaustive oracle ==")
network = Configuration.of(Component.client("shopper", shopper))
for analysis in result.valid_plans + result.invalid_plans:
    oracle = plan_is_valid_exhaustive(network, analysis.plan, repository)
    agree = "agree" if oracle == analysis.valid else "DISAGREE"
    print(f"  {analysis.plan}: static={analysis.valid} oracle={oracle} "
          f"[{agree}]")
    assert oracle == analysis.valid

# Run the verified plan unmonitored; the nested session's events land in
# the shopper's history, wrapped in the policy framing.
simulator = Simulator(network, best.plan, repository, monitored=False,
                      seed=3)
simulator.run()
assert simulator.is_terminated() and simulator.all_histories_valid()
print(f"\nunmonitored run history: {simulator.histories()[0]}")
