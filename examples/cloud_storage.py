#!/usr/bin/env python3
"""Cloud storage with a Chinese-wall policy and recursive services.

Exercises two features beyond the paper's running example:

* **recursive services** (``μh.…``): the storage nodes serve ``get``
  requests in a loop until the client quits;
* **quantified-variable policies**: the Chinese wall — "once dataset *x*
  has been accessed, no *different* dataset *y* may be" — needs two
  universally quantified resource variables, i.e. the full usage-automata
  semantics of ref. [3] rather than a plain parametric FSA.

Two storage nodes are published: an *honest* one that touches only the
dataset named by the request, and a *replicating* one that touches both
datasets on every request (for redundancy) — which the wall forbids.

Two clients: a *focused* analyst querying one dataset repeatedly (should
get a valid plan using the honest node), and a *roaming* analyst querying
both datasets (no valid plan can exist: the violation is the client's own
access pattern, not the node's).

Run with::

    python examples/cloud_storage.py
"""

from repro import parse
from repro.analysis.planner import find_valid_plans
from repro.analysis.verification import verify_network
from repro.network.repository import Repository
from repro.policies import chinese_wall

wall = chinese_wall("access")

honest_node = parse(
    """
    mu serve {
        ( ?getA . { @access(A) ; !data . serve }
        + ?getB . { @access(B) ; !data . serve }
        + ?quit )
    }
    """)

replicating_node = parse(
    """
    mu serve {
        ( ?getA . { @access(A) ; @access(B) ; !data . serve }
        + ?getB . { @access(B) ; @access(A) ; !data . serve }
        + ?quit )
    }
    """)

repository = Repository({
    "honest": honest_node,
    "replicating": replicating_node,
})

focused_analyst = parse(
    "open storage with wall { !getA . ?data . !getA . ?data . !quit }",
    policies={"wall": wall})

roaming_analyst = parse(
    "open storage with wall { !getA . ?data . !getB . ?data . !quit }",
    policies={"wall": wall})

print("== focused analyst (A, A) ==")
# The full planning pass lists every candidate node with its verdict.
result = find_valid_plans(focused_analyst, repository, location="focused")
for analysis in result.valid_plans + result.invalid_plans:
    print(" ", analysis.explain())
assert result.has_valid_plan
assert result.best().plan.lookup("storage") == "honest"

print("\n== roaming analyst (A, B) ==")
result = find_valid_plans(roaming_analyst, repository, location="roaming")
for analysis in result.valid_plans + result.invalid_plans:
    print(" ", analysis.explain())
assert not result.has_valid_plan, "the wall forbids touching both datasets"

print("\n== whole-network verdict (Section 5) ==")
report = verify_network({"focused": focused_analyst,
                         "roaming": roaming_analyst}, repository)
print(report.report())
assert not report.verified  # the roaming analyst spoils it
