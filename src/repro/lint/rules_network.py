"""Network-level lint rules: requests and framings that cannot work.

* ``SUS030 doomed-request`` — a request no declared service can serve:
  every published contract fails compliance against the session body
  (Theorem 1 makes this decidable per binding; the planner would
  enumerate and reject every candidate at verification time — lint says
  so up front).  In a client, no valid plan can exist for it: an error.
  In a service, only the plans binding that service are invalid, and a
  plan routing around it may still be valid: a warning.
* ``SUS031 unclosed-residual`` — a declared term contains a *run-time*
  residual node (``close_{r,φ}`` or ``Mφ``): a session or policy
  framing opened but never closed.  The parser cannot produce these,
  but programmatically-assembled modules can, and they break the
  static analysis's balanced-framing assumptions.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.syntax import ClosePending, FrameClosePending
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import DEFAULT_REGISTRY as _REGISTRY


@_REGISTRY.rule("SUS030", "doomed-request", Severity.ERROR,
                "no declared service is compliant with the request's "
                "session body: no valid plan can serve it")
def doomed_request(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = _REGISTRY.get("SUS030")
    services = sum(1 for decl in ctx.term_declarations if decl.is_service)
    for decl, info in ctx.request_occurrences:
        if ctx.servable(info.body):
            continue
        detail = (f"none of the {services} declared service(s) is "
                  "compliant with its session body"
                  if services else "the module declares no services")
        if decl.is_service:
            detail += f"; every plan binding {decl.name!r} is invalid"
            severity = Severity.WARNING
            outcome = f"plans that do not bind {decl.name!r} are unaffected"
        else:
            severity = None
            outcome = "verification is guaranteed to fail otherwise"
        yield rule.diagnostic(
            f"request {info.request!r} in {decl.name!r} is doomed: "
            f"{detail}",
            span=ctx.request_span(decl, info.request) or decl.span,
            declaration=decl.name, severity=severity,
            hint="publish a service whose contract matches the session "
                 f"body, or fix the body — {outcome}")


@_REGISTRY.rule("SUS031", "unclosed-residual", Severity.ERROR,
                "a declared term contains a run-time residual: a session "
                "or framing opened but never closed")
def unclosed_residual(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = _REGISTRY.get("SUS031")
    for decl, term in ctx.terms():
        for node in term.walk():
            if isinstance(node, ClosePending):
                what = (f"session close_{{{node.request}}} pending "
                        "without its open")
            elif isinstance(node, FrameClosePending):
                what = (f"framing close ]{node.policy}[ pending without "
                        "its open")
            else:
                continue
            yield rule.diagnostic(
                f"{decl.kind} {decl.name!r} contains a run-time "
                f"residual: {what}",
                span=decl.span, declaration=decl.name,
                hint="declared behaviours must open and close sessions "
                     "and framings in balanced pairs; use "
                     "`open ... { ... }` / `frame ... { ... }` terms")
