"""Contract-level lint rules: communication that can never happen.

* ``SUS020 dead-external-branch`` — an input branch in a *session body*
  whose channel no repository service can ever emit.  Computed on the
  communication skeleton the projection ``H!`` keeps (access events,
  framings and nested sessions are invisible to the enclosing session)
  against the union of the services' projected outputs — the channels
  that can ever appear in a service-side observable ready set.  An
  input outside that set can synchronise with nobody, whichever service
  the plan picks: the branch is dead in every plan.

The rule deliberately does *not* flag extra inputs on the service side:
the repository is open-ended (services "are always available for
joining sessions" with arbitrary future clients), so a service offering
more inputs than today's clients use is idiomatic, not a defect.

Two canonicalization advisories ride on the same analysis
(:mod:`repro.canon`); both are informational — duplicates and redundant
states are hygiene, not defects:

* ``SUS050 duplicate-contract`` — two declared services are canonically
  bisimilar (identical canonical forms, compared exactly, never by
  fingerprint alone): every client compliant with one is compliant with
  the other, so the later declaration is a duplicate of the earlier
  twin.  Bisimilar contracts may still differ in what projection erases
  (requests, events, framings), which plan validity depends on; the hint
  recommends reusing the twin only when neither service has any, and
  otherwise names what the two carry.
* ``SUS051 non-minimal-contract`` — a service's bisimulation quotient
  is strictly smaller than its LTS: the contract as written carries
  redundant (bisimilar) states.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.syntax import EventNode, Framing, HistoryExpression, Request
from repro.lang.module import Declaration
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import DEFAULT_REGISTRY as _REGISTRY


@_REGISTRY.rule("SUS020", "dead-external-branch", Severity.WARNING,
                "an external-choice input in a session body that no "
                "repository service can ever emit")
def dead_external_branch(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = _REGISTRY.get("SUS020")
    emittable = ctx.service_outputs
    reported: set[tuple[str, str]] = set()
    for decl, info in ctx.request_occurrences:
        for channel in ctx.session_inputs(info.body):
            if channel in emittable or (decl.name, channel) in reported:
                continue
            reported.add((decl.name, channel))
            yield rule.diagnostic(
                f"input ?{channel} in the request {info.request!r} body "
                f"of {decl.name!r} is dead: no declared service ever "
                f"emits !{channel}",
                span=ctx.channel_span(decl, "?", channel) or decl.span,
                declaration=decl.name,
                hint="the branch can never be taken — remove it, or "
                     f"publish a service that outputs !{channel}")


def _service_canonical_forms(ctx: LintContext):
    """(declaration, canonical form) per analysable service, in
    declaration order; services whose canonicalization fails (state
    blowup, malformed term) are silently skipped — advisory rules must
    not turn an analysis limit into a finding."""
    from repro.canon import canonicalize
    from repro.core.errors import ReproError
    forms = []
    for decl, term in ctx.terms():
        if not decl.is_service:
            continue
        try:
            forms.append((decl, canonicalize(term)))
        except (ReproError, TypeError, RecursionError):
            continue
    return forms


@_REGISTRY.rule("SUS050", "duplicate-contract", Severity.INFO,
                "two declared services are canonically bisimilar — the "
                "later one duplicates the earlier twin")
def duplicate_contract(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = _REGISTRY.get("SUS050")
    first_with_key: dict[tuple, Declaration] = {}
    for decl, form in _service_canonical_forms(ctx):
        twin = first_with_key.get(form.key)
        if twin is None:
            first_with_key[form.key] = decl
            continue
        yield rule.diagnostic(
            f"service {decl.name!r} is canonically bisimilar to "
            f"{twin.name!r}: every client compliant with one is compliant "
            f"with the other",
            span=decl.span,
            declaration=decl.name,
            hint=_duplicate_hint(twin, decl))


def _duplicate_hint(twin: Declaration, decl: Declaration) -> str:
    """Reuse *twin* for *decl*, unless either carries behaviour the
    contracts do not show; then say what each carries."""
    erased = [(other.name, _erased(other.value)) for other in (twin, decl)]
    if not any(parts for _name, parts in erased):
        return (f"the contracts are interchangeable — reuse {twin.name!r} "
                f"(or make the behavioural difference explicit)")
    carried = "; ".join(f"{name!r} has {', '.join(parts) or 'none'}"
                        for name, parts in erased)
    return (f"projection erases what may tell them apart ({carried}); "
            f"a swap can change which plans are valid")


def _erased(term: HistoryExpression) -> tuple[str, ...]:
    """The requests, events and framings of *term*, each named once, in
    pre-order: the behaviour its projected contract does not show."""
    found: list[str] = []
    for node in term.walk():
        if isinstance(node, Request):
            item = f"request {node.request}"
        elif isinstance(node, EventNode):
            item = f"event {node.event}"
        elif isinstance(node, Framing):
            item = f"framing {getattr(node.policy, 'name', node.policy)}"
        else:
            continue
        if item not in found:
            found.append(item)
    return tuple(found)


@_REGISTRY.rule("SUS051", "non-minimal-contract", Severity.INFO,
                "a service contract with redundant (bisimilar) states: "
                "its quotient is strictly smaller than its LTS")
def non_minimal_contract(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = _REGISTRY.get("SUS051")
    for decl, form in _service_canonical_forms(ctx):
        if form.n_blocks >= form.n_source_states:
            continue
        yield rule.diagnostic(
            f"service {decl.name!r} is non-minimal: {form.n_source_states} "
            f"reachable state(s) collapse to {form.n_blocks} under "
            f"bisimulation",
            span=decl.span,
            declaration=decl.name,
            hint="equivalent branches or unrollings can be merged "
                 "without changing any compliance verdict")
