"""The planner's unmemoised pass: the differential oracle of
:func:`repro.analysis.planner.find_valid_plans`.

Every candidate plan is analysed on its own: each binding is decided
afresh, no plan is pruned, and every plan that completes its compliance
walk is security-checked.  The production planner shares one compliance
cache across the candidates and prunes a plan holding a binding already
known to fail; the differential tests require the same valid/invalid
partition from both.
"""

from __future__ import annotations

from repro.analysis.planner import (PlannerResult, analyze_plan,
                                    enumerate_plans)
from repro.core.syntax import HistoryExpression
from repro.network.repository import Repository


def find_valid_plans(client: HistoryExpression, repository: Repository,
                     candidates=None,
                     location: str = "client") -> PlannerResult:
    """Analyse every plan of *client* with :func:`analyze_plan` alone."""
    result = PlannerResult()
    for plan in enumerate_plans(client, repository, candidates):
        analysis = analyze_plan(client, plan, repository, location)
        if analysis.valid:
            result.valid_plans.append(analysis)
        else:
            result.invalid_plans.append(analysis)
    return result
