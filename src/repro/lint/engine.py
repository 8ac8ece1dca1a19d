"""The lint driver: run the registered rules over one module.

:func:`lint_module` builds a :class:`~repro.lint.context.LintContext`,
runs every enabled rule, counts per-rule fires in the active
:class:`~repro.observability.metrics.MetricsRegistry` (so lint work
shows up under the CLI's ``--stats``), and returns the diagnostics in
stable report order.
"""

from __future__ import annotations

from typing import Iterable

from repro.lang.module import Module
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity, sort_key
from repro.lint.registry import RuleRegistry, default_registry
from repro.observability import runtime as _telemetry


def lint_module(module: Module, registry: RuleRegistry | None = None, *,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None,
                min_severity: Severity | None = None) -> list[Diagnostic]:
    """Run the (selected) lint rules over *module*.

    ``select``/``ignore`` narrow the rule set by code; ``min_severity``
    keeps only rules of at least that default severity (how ``check``
    runs the error rules only), and of their diagnostics only those of
    at least that severity (a rule may lower one below its default).
    Diagnostics come back sorted by source position, then code.
    """
    rules = (registry or default_registry()).rules(
        select=select, ignore=ignore, min_severity=min_severity)
    context = LintContext(module)
    tel = _telemetry.active()
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        found = [diagnostic for diagnostic in rule.check(context)
                 if min_severity is None
                 or diagnostic.severity >= min_severity]
        if tel is not None:
            tel.metrics.counter("lint.fired", rule=rule.code).inc(
                len(found))
        diagnostics.extend(found)
    if tel is not None:
        tel.metrics.counter("lint.modules").inc()
        for diagnostic in diagnostics:
            tel.metrics.counter(
                "lint.diagnostics",
                severity=diagnostic.severity.label).inc()
    return sorted(diagnostics, key=sort_key)


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """The highest severity present, or ``None`` for a clean run."""
    worst: Severity | None = None
    for diagnostic in diagnostics:
        if worst is None or diagnostic.severity > worst:
            worst = diagnostic.severity
    return worst
