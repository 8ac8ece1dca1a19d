"""The shared analysis context handed to every lint rule.

A :class:`LintContext` wraps one parsed :class:`~repro.lang.module.Module`
and memoises the module-wide facts several rules need: the normalised
declaration list (synthesised for programmatically-built modules that
carry no spans), the flat list of request occurrences, the set of
channels *some* participant can emit, and pairwise compliance verdicts.

Rules stay cheap and side-effect free: everything expensive lives here,
computed once per :func:`~repro.lint.engine.lint_module` run.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.compliance import check_compliance
from repro.core.errors import ReproError
from repro.core.projection import project
from repro.core.syntax import (ExternalChoice, HistoryExpression,
                               InternalChoice)
from repro.analysis.requests import RequestInfo, extract_requests
from repro.lang.lexer import Span, Token
from repro.lang.module import Declaration, Module


class LintContext:
    """Everything rules may ask about the module under analysis."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._compliance: dict[tuple[HistoryExpression, HistoryExpression],
                               bool | None] = {}

    # -- declarations -------------------------------------------------------

    @cached_property
    def declarations(self) -> tuple[Declaration, ...]:
        """All declarations in source order.

        Modules built without the parser (TOML networks, tests) have no
        declaration records; a span-less declaration is synthesised per
        dict entry so every rule sees one uniform shape.
        """
        if self.module.declarations:
            return tuple(self.module.declarations)
        synthesised = [
            Declaration("policy", name, None, value)
            for name, value in self.module.policies.items()]
        synthesised += [
            Declaration("client", name, None, value)
            for name, value in self.module.clients.items()]
        synthesised += [
            Declaration("service", name, None, value)
            for name, value in self.module.services.items()]
        return tuple(synthesised)

    @cached_property
    def policy_declarations(self) -> tuple[Declaration, ...]:
        return tuple(d for d in self.declarations if d.is_policy)

    @cached_property
    def term_declarations(self) -> tuple[Declaration, ...]:
        """Client and service declarations (λ-programs included), but
        only those whose value the module dicts actually kept — a
        shadowed duplicate is reported by the duplicate rule, not
        re-analysed by every other rule."""
        kept: list[Declaration] = []
        seen: set[str] = set()
        for decl in reversed(self.declarations):
            if decl.is_policy or decl.name in seen:
                continue
            seen.add(decl.name)
            kept.append(decl)
        return tuple(reversed(kept))

    def terms(self) -> tuple[tuple[Declaration, HistoryExpression], ...]:
        """The (declaration, term) pairs of all clients and services."""
        return tuple((decl, decl.value) for decl in self.term_declarations
                     if isinstance(decl.value, HistoryExpression))

    # -- requests -----------------------------------------------------------

    @cached_property
    def request_occurrences(self) -> tuple[
            tuple[Declaration, RequestInfo], ...]:
        """Every request occurrence in every declared term (nested
        requests included), in source order."""
        found: list[tuple[Declaration, RequestInfo]] = []
        for decl, term in self.terms():
            for info in extract_requests(term):
                found.append((decl, info))
        return tuple(found)

    # -- communication ------------------------------------------------------

    @cached_property
    def service_outputs(self) -> frozenset[str]:
        """Channels some *repository service* can emit towards its own
        session partner.

        Computed on each service's projection ``H!``: projecting erases
        the service's nested request bodies, whose outputs flow to *its*
        sub-services and can never reach the client side of the service's
        own session.  Collection over the projected term is syntactic,
        deliberately over-approximating reachability, so the dead-branch
        rule only fires on inputs *no* service could possibly emit.
        """
        channels: set[str] = set()
        for decl, term in self.terms():
            if not decl.is_service:
                continue
            try:
                skeleton = project(term)
            except (ReproError, TypeError):
                skeleton = term
            channels |= _send_channels(skeleton)
        return frozenset(channels)

    def session_inputs(self, body: HistoryExpression) -> tuple[str, ...]:
        """The external-choice input channels of the session body's own
        conversation (its projection — nested sessions are checked as
        their own request occurrences), first occurrence order."""
        try:
            skeleton = project(body)
        except (ReproError, TypeError):
            skeleton = body
        ordered: list[str] = []
        for node in skeleton.walk():
            if isinstance(node, ExternalChoice):
                for label, _ in node.branches:
                    if label.channel not in ordered:
                        ordered.append(label.channel)
        return tuple(ordered)

    # -- compliance ---------------------------------------------------------

    def compliant(self, body: HistoryExpression,
                  service: HistoryExpression) -> bool | None:
        """Memoised ``body ⊢ service`` verdict; ``None`` when the check
        itself failed (state-space blowup, malformed term) — callers
        must treat ``None`` as "unknown", never as a finding."""
        key = (body, service)
        if key not in self._compliance:
            try:
                verdict = check_compliance(body, service).compliant
            except (ReproError, ValueError):
                verdict = None
            self._compliance[key] = verdict
        return self._compliance[key]

    def servable(self, body: HistoryExpression) -> bool:
        """Can *some* declared service serve a session with *body*?

        Unknown verdicts count as servable, keeping the doomed-request
        rule free of false positives.
        """
        for decl, service in self.terms():
            if not decl.is_service:
                continue
            if self.compliant(body, service) is not False:
                return True
        return False

    # -- source positions ---------------------------------------------------

    @staticmethod
    def channel_span(decl: Declaration, sigil: str,
                     channel: str) -> Span | None:
        """The span of the first ``?channel``/``!channel`` occurrence in
        the declaration's body tokens (``None`` when unavailable)."""
        return _adjacent_span(decl.tokens, sigil, channel)

    @staticmethod
    def request_span(decl: Declaration, request: str) -> Span | None:
        """The span of the ``open request`` identifier in the
        declaration's body tokens."""
        return _adjacent_span(decl.tokens, "OPEN", request)

    @staticmethod
    def span_of(decl: Declaration) -> Span | None:
        """The declaration's own (name) span."""
        return decl.span


def _adjacent_span(tokens: tuple[Token, ...], lead_kind: str,
                   text: str) -> Span | None:
    for first, second in zip(tokens, tokens[1:]):
        if first.kind == lead_kind and second.text == text:
            return second.span
    return None


def _send_channels(term: HistoryExpression) -> set[str]:
    """All channels *term* syntactically outputs on."""
    channels: set[str] = set()
    for node in term.walk():
        if isinstance(node, InternalChoice):
            channels.update(label.channel for label, _ in node.branches)
    return channels
