"""Human-readable explanations of analysis verdicts.

The deciders return machine-oriented witnesses — product-state traces,
label paths, violated policies.  This module turns them into the
narratives an engineer debugging a service composition actually needs:

* *why are these two services not compliant?* — the synchronisation
  path to the stuck pair plus what each side offered there;
* *why is this plan insecure?* — the event/framing trace to the policy
  violation, with the offending policy and the history prefix that
  breaks it;
* *why is this plan invalid?* — the above, per failed check, in one
  report (also exposed as ``repro explain`` on the command line).
"""

from __future__ import annotations

from repro.core.actions import is_output
from repro.core.compliance import ComplianceResult, check_compliance
from repro.core.ready_sets import ready_sets
from repro.core.semantics import is_terminated
from repro.core.syntax import HistoryExpression
from repro.lang.pretty import pretty
from repro.analysis.planner import PlanAnalysis
from repro.analysis.security import SecurityReport


def explain_compliance(result: ComplianceResult) -> str:
    """A narrative for a compliance verdict."""
    if result.compliant:
        text = "compliant: every interaction can progress to completion."
        if result.explored_states is not None:
            text += (f" ({result.explored_states} product state(s) "
                     "explored)")
        return text
    assert result.witness is not None and result.trace is not None
    client_state, server_state = result.witness
    lines = [f"NOT compliant: the session can get stuck after "
             f"{len(result.trace) - 1} synchronisation(s)."]
    if len(result.trace) > 1:
        lines.append("path to the stuck configuration:")
        for step, (client, server) in enumerate(result.trace[:-1]):
            lines.append(f"  {step}: client ⟨{pretty(client)}⟩ / "
                         f"server ⟨{pretty(server)}⟩")
    lines.append("stuck pair:")
    lines.append(f"  client: {pretty(client_state)}")
    lines.append(f"  server: {pretty(server_state)}")
    lines.append(_stuck_reason(client_state, server_state))
    if result.explored_states is not None:
        lines.append(f"({result.explored_states} product state(s) "
                     "explored before the verdict)")
    return "\n".join(lines)


def _stuck_reason(client_state: HistoryExpression,
                  server_state: HistoryExpression) -> str:
    """Pin down which of conditions (i)/(ii) of Definition 5 failed."""
    client_sets = ready_sets(client_state)
    server_sets = ready_sets(server_state)
    client_actions = frozenset().union(*client_sets)
    server_actions = frozenset().union(*server_sets)
    client_outputs = {a for a in client_actions if is_output(a)}
    server_outputs = {a for a in server_actions if is_output(a)}

    if is_terminated(server_state) and not is_terminated(client_state):
        return ("reason: the server has terminated while the client "
                "still expects to interact.")
    if not client_outputs and not server_outputs:
        return ("reason: both participants wait for input — a deadlock "
                "(condition (i) of Definition 5 fails).")
    unmatched = []
    for action in sorted(client_outputs, key=str):
        if not any(_co_in(action, s) for s in server_sets):
            unmatched.append(f"client output {action}")
    for action in sorted(server_outputs, key=str):
        if not any(_co_in(action, s) for s in client_sets):
            unmatched.append(f"server output {action}")
    if unmatched:
        return ("reason: " + "; ".join(unmatched)
                + " has no matching input on the other side "
                  "(condition (ii) of Definition 5 fails).")
    return "reason: the participants' ready sets cannot synchronise."


def _co_in(action, ready_set) -> bool:
    from repro.core.actions import co
    return co(action) in ready_set


def explain_security(report: SecurityReport) -> str:
    """A narrative for a security verdict."""
    if report.secure:
        return ("secure: no reachable trace violates an active policy "
                f"({report.states_checked} abstract states checked).")
    assert report.counterexample is not None
    lines = [f"INSECURE: policy {report.violated_policy} can be "
             "violated."]
    lines.append("shortest violating trace:")
    history: list[str] = []
    for label in report.counterexample:
        rendered = str(label)
        lines.append(f"  {rendered}")
        for item in label.appends:
            history.append(str(item))
    lines.append("history at the violation: "
                 + ("·".join(history) if history else "ε"))
    return "\n".join(lines)


def explain_plan(analysis: PlanAnalysis,
                 planner_metrics: dict | None = None) -> str:
    """A full narrative for a plan analysis.

    *planner_metrics* (the :class:`~repro.analysis.planner.PlannerResult`
    ``metrics`` dict, when the caller ran a whole planning pass) adds a
    summary of memoisation hits and pruned plans to the narrative.
    """
    lines = [f"plan {analysis.plan}:"]
    if analysis.valid:
        lines.append("  VALID — secure and unfailing; the run-time "
                     "monitor can be switched off.")
        lines.extend(_planner_effort_lines(analysis, planner_metrics))
        return "\n".join(lines)
    if analysis.unserved_requests:
        lines.append("  incomplete: no service bound for request(s) "
                     + ", ".join(analysis.unserved_requests))
    for check in analysis.compliance:
        if check.compliant:
            continue
        lines.append(f"  request {check.request} -> {check.location}:")
        for line in explain_compliance(check.result).splitlines():
            lines.append("    " + line)
    if analysis.security.skipped:
        lines.append("  security check skipped: a failed compliance "
                     "binding already invalidates the plan (pruned).")
    elif not analysis.security.secure:
        for line in explain_security(analysis.security).splitlines():
            lines.append("  " + line)
    lines.extend(_planner_effort_lines(analysis, planner_metrics))
    return "\n".join(lines)


def _planner_effort_lines(analysis: PlanAnalysis,
                          planner_metrics: dict | None) -> list[str]:
    """The explored-state / memoisation summary of a plan narrative."""
    lines: list[str] = []
    explored = [check.result.explored_states
                for check in analysis.compliance
                if check.result.explored_states is not None]
    if explored:
        lines.append(f"  compliance explored {sum(explored)} product "
                     f"state(s) over {len(explored)} binding(s)")
    if not analysis.security.skipped and analysis.security.states_checked:
        lines.append("  security model checking visited "
                     f"{analysis.security.states_checked} abstract "
                     "state(s)")
    if planner_metrics:
        memo_hits = planner_metrics.get("memo_hits", 0)
        memo_misses = planner_metrics.get("memo_misses", 0)
        pruned = planner_metrics.get("plans_pruned", 0)
        if memo_hits or memo_misses or pruned:
            lines.append(f"  planner: {memo_hits} memo hit(s), "
                         f"{memo_misses} miss(es), {pruned} plan(s) "
                         "pruned this pass")
    return lines


def explain_pair(client_body: HistoryExpression,
                 service: HistoryExpression) -> str:
    """Convenience: check and explain one client-body/service pair."""
    return explain_compliance(check_compliance(client_body, service))
