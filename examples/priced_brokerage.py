#!/usr/bin/env python3
"""Extensions in action: budgets, cost-aware planning, bounded capacity.

The paper's Section 5 names two lines of future work — quantitative
security policies (ref. [14]) and bounded service availability.  This
example exercises both on a document-signing brokerage:

* a client imposes a **budget policy** (each crypto operation costs 3,
  each disk write 1, at most 7 in total per session) — compiled to an
  ordinary usage automaton, so the unmodified planner enforces it;
* among the *valid* plans, the **cost-aware planner** picks the cheapest
  by worst-case session cost;
* finally, with two clients running concurrently, **capacity checking**
  verifies the chosen plan vector against declared per-service limits.

Run with::

    python examples/priced_brokerage.py
"""

from repro import parse
from repro.analysis.capacity import check_capacities
from repro.analysis.planner import find_valid_plans
from repro.network.repository import Repository
from repro.quantitative import (CostModel, budget_policy,
                                cheapest_valid_plan, priced_valid_plans)

# Each crypto op costs 3, each write costs 1; sessions may spend ≤ 7.
budget = budget_policy("budget7", {"crypto": 3, "write": 1}, 7)
model = CostModel.of({"crypto": 3, "write": 1})

client = parse(
    "open sign with budget7 { !doc . (?signed + ?rejected) }",
    policies={"budget7": budget})

repository = Repository({
    # one signature, one write: cost 4 — cheap and within budget
    "lean": parse(
        "?doc . { @crypto(1) ; @write(1) ; (!signed ++ !rejected) }"),
    # double-signs and journals twice: cost 8 — busts the budget
    "paranoid": parse(
        "?doc . { @crypto(1) ; @crypto(2) ; @write(1) ; @write(2) ;"
        "  (!signed ++ !rejected) }"),
    # signs once but writes three times: cost 6 — valid but pricier
    "chatty": parse(
        "?doc . { @crypto(1) ; @write(1) ; @write(2) ; @write(3) ;"
        "  (!signed ++ !rejected) }"),
})

print("== plan synthesis under the budget policy ==")
# The full planning pass: every candidate, not just the first valid one.
result = find_valid_plans(client, repository, location="alice")
for analysis in result.valid_plans + result.invalid_plans:
    print(" ", analysis.explain())
valid_locations = {a.plan.lookup("sign") for a in result.valid_plans}
assert valid_locations == {"lean", "chatty"}
assert "paranoid" not in valid_locations  # rejected by the budget

print("\n== cost-aware ranking of the valid plans ==")
for priced in priced_valid_plans(client, repository, model,
                                 location="alice"):
    print(f"  {priced}")
best = cheapest_valid_plan(client, repository, model, location="alice")
assert best is not None
assert best.plan.lookup("sign") == "lean" and best.cost == 4
print(f"chosen: {best}")

print("\n== capacity check for two concurrent clients ==")
client_b = parse(
    "open sign2 with budget7 { !doc . (?signed + ?rejected) }",
    policies={"budget7": budget})
vector = [(client, best.plan),
          (client_b, best.plan.__class__.single("sign2", "lean"))]
report = check_capacities(vector, repository, {"lean": 1})
print(report)
assert not report.feasible                       # both route to 'lean'
assert report.oversubscribed() == ("lean",)

# Spread the load: the second client uses the pricier-but-valid service.
from repro.core.plans import Plan  # noqa: E402

vector = [(client, best.plan), (client_b, Plan.single("sign2", "chatty"))]
report = check_capacities(vector, repository,
                          {"lean": 1, "chatty": 1})
print()
print(report)
assert report.feasible
print("\nload spread across services: plan vector feasible.")
