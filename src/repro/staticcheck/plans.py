"""Explaining why no valid plan exists (minimal unsatisfiable cores).

:func:`repro.analysis.planner.find_valid_plans` reports plan failure as
a list of invalid plans; this module turns that bare refusal into a
certificate over exactly the plans the planner analysed.  Under each
plan, a request is constrained by *the bound service complies with
every session body the plan opens under the request's id* (each
occurrence the plan reaches, walked as
:func:`~repro.analysis.planner.analyze_plan` walks them), and the plan
by one global *security* constraint — *the assembled behaviour never
produces an invalid history*.  When no plan satisfies them all, a
deletion-based minimal unsatisfiable core is computed: constraints are
dropped one at a time, keeping only those whose removal would make the
system satisfiable.  Each surviving constraint carries its evidence —
per-candidate stuck witnesses
(:class:`~repro.staticcheck.witness.StuckWitness`) for a compliance
constraint, a replayable
:class:`~repro.staticcheck.witness.ValidityWitness` for the security
constraint — rendered as a human-readable "why no valid plan exists"
report.  When no plan could be completed at all, the core names the
requests no candidate service can take.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression
from repro.network.repository import Repository
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table
from repro.analysis.planner import (PlannerResult, find_valid_plans,
                                    plan_security)
from repro.analysis.requests import extract_requests
from repro.staticcheck.compliance import (ComplianceCertificate,
                                          certify_compliance)
from repro.staticcheck.witness import (StuckWitness, ValidityWitness,
                                       witness_from_history)

#: Entries kept in the explanation memo table.
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class BindingRefusal:
    """One candidate service refused for one request, with evidence."""

    location: str
    witness: StuckWitness | None

    def to_json(self) -> dict:
        return {"location": self.location,
                "witness": None if self.witness is None
                else self.witness.to_json()}


@dataclass(frozen=True)
class CoreConstraint:
    """One member of the minimal unsatisfiable core.

    ``kind`` is ``"compliance"`` (request *request* must be served by a
    complying candidate — the refusing ones are listed in ``refusals``,
    the complying ones in ``compliant``), ``"security"`` (every
    otherwise acceptable plan reaches a policy violation) or
    ``"completeness"`` (request *request* has no candidate service at
    all).  A compliance constraint with an empty ``compliant`` tuple is
    unsatisfiable on its own: the request is doomed.
    """

    kind: str
    request: str | None = None
    refusals: tuple[BindingRefusal, ...] = ()
    compliant: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "request": self.request,
                "compliant": list(self.compliant),
                "refusals": [refusal.to_json()
                             for refusal in self.refusals]}


@dataclass(frozen=True)
class PlanExplanation:
    """Why :func:`find_valid_plans` came back empty, with witnesses."""

    location: str
    core: tuple[CoreConstraint, ...]
    security_witness: ValidityWitness | None
    plans_considered: int

    def render_text(self) -> str:
        lines = [f"no valid plan exists for the client at "
                 f"'{self.location}' "
                 f"({self.plans_considered} candidate plans considered); "
                 "minimal unsatisfiable core:"]
        for constraint in self.core:
            if constraint.kind == "completeness":
                lines.append(f"- request {constraint.request}: no candidate "
                             "service can serve it")
            elif constraint.kind == "compliance":
                if constraint.compliant:
                    complying = ", ".join(constraint.compliant)
                    lines.append(
                        f"- request {constraint.request}: must be served by "
                        f"one of {complying} (every other candidate "
                        "refuses)")
                else:
                    lines.append(f"- request {constraint.request}: no "
                                 "candidate service complies with the "
                                 "session body")
                for refusal in constraint.refusals:
                    lines.append(f"    candidate {refusal.location} refuses:")
                    if refusal.witness is not None:
                        lines.extend(
                            "      " + line for line in
                            refusal.witness.render_text().splitlines())
            elif constraint.kind == "security":
                lines.append("- security: every complete compliant plan "
                             "reaches a policy violation")
                if self.security_witness is not None:
                    lines.extend(
                        "    " + line for line in
                        self.security_witness.render_text().splitlines())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "location": self.location,
            "satisfiable": False,
            "plans_considered": self.plans_considered,
            "core": [constraint.to_json() for constraint in self.core],
            "security_witness": None if self.security_witness is None
            else self.security_witness.to_json(),
        }


def explain_no_valid_plan(client: HistoryExpression,
                          repository: Repository,
                          candidates=None, location: str = "client", *,
                          max_plans: int | None = None,
                          planner: PlannerResult | None = None
                          ) -> PlanExplanation | None:
    """Explain why no valid plan exists — or return ``None`` when one does.

    The core is built over exactly the plans one planning pass analysed.
    *planner* is that pass, a
    :func:`~repro.analysis.planner.find_valid_plans` result for the same
    client, repository, *candidates* (the locations allowed per request)
    and location; ``repro analyze`` hands over the pass it ran.  Without
    it, a first-valid pass bounded by *max_plans* runs here.  A pass that
    finds no valid plan has analysed every candidate it enumerated.  The
    explanation is memoised on the client term, the repository contents,
    the candidates, the location and those plans.
    """
    tel = _telemetry.active()
    if tel is None:
        return _explain_pass(client, repository, candidates, location,
                             max_plans, planner)
    with tel.tracer.span("staticcheck.explain_no_valid_plan",
                         location=location) as span:
        explanation = _explain_pass(client, repository, candidates,
                                    location, max_plans, planner)
        verdict = "valid_plan" if explanation is None else "explained"
        span.set(verdict=verdict)
        tel.metrics.counter("staticcheck.certifications",
                            analysis="plans", verdict=verdict).inc()
        return explanation


def _explain_pass(client: HistoryExpression, repository: Repository,
                  candidates, location: str, max_plans: int | None,
                  planner: PlannerResult | None) -> PlanExplanation | None:
    if planner is None:
        planner = find_valid_plans(client, repository, candidates,
                                   location, max_plans, first_valid=True)
    if planner.has_valid_plan:
        return None
    if candidates is None:
        candidate_key = None
    else:
        candidate_key = tuple(sorted(
            (request, tuple(locations))
            for request, locations in candidates.items()))
    plans = tuple(analysis.plan for analysis in planner.invalid_plans)
    return _explain(client, tuple(repository.items()), candidate_key,
                    location, plans)


@memo_table("staticcheck.plans", PLAN_CACHE_SIZE)
def _explain(client: HistoryExpression, items: tuple, candidate_key,
             location: str, plans: tuple[Plan, ...]) -> PlanExplanation:
    repository = Repository(dict(items), validate=False)
    candidates = dict(candidate_key) if candidate_key is not None else {}

    def options_for(request: str) -> tuple[str, ...]:
        return candidates.get(request, repository.locations())

    if not plans:
        core = tuple(CoreConstraint("completeness", request)
                     for request in _unservable_requests(
                         client, repository, options_for))
        return PlanExplanation(location, core, None, 0)

    # Per plan: request id -> the first refusal among the occurrences of
    # that id the plan reaches, or None when its binding serves them all.
    # Each distinct (body, service) pair is certified once.
    certificates: dict[tuple[HistoryExpression, HistoryExpression],
                       ComplianceCertificate] = {}

    def certify(body: HistoryExpression,
                service: HistoryExpression) -> ComplianceCertificate:
        key = (body, service)
        if key not in certificates:
            certificates[key] = certify_compliance(body, service)
        return certificates[key]

    refusals_under = [_refusals_under(client, plan, repository, certify)
                      for plan in plans]
    requests = sorted({request for refusals in refusals_under
                       for request in refusals})

    # A candidate complies for a request when some considered plan
    # binding the request to it serves every occurrence the plan
    # reaches; it refuses when every such plan fails one, and the first
    # failure met is its witness.
    serves: dict[tuple[str, str], bool] = {}
    witness_of: dict[tuple[str, str], StuckWitness | None] = {}
    for plan, refusals in zip(plans, refusals_under):
        for request, refusal in refusals.items():
            binding = (request, plan.lookup(request))
            if refusal is None:
                serves[binding] = True
            else:
                serves.setdefault(binding, False)
                witness_of.setdefault(binding, refusal.witness)

    def satisfies(index: int, constraints) -> bool:
        """Does the *index*-th plan meet every listed constraint?  A
        request the plan does not reach constrains it vacuously."""
        refusals = refusals_under[index]
        if any(kind == "compliance" and refusals.get(request) is not None
               for kind, request in constraints):
            return False
        if ("security", None) in constraints:
            return plan_security(client, plans[index], repository,
                                 location).secure
        return True

    def satisfiable(constraints) -> bool:
        return any(satisfies(index, constraints)
                   for index in range(len(plans)))

    # Deletion-based minimal unsatisfiable core: drop each constraint in
    # turn; keep it only when the remainder becomes satisfiable without
    # it.  The result is subset-minimal (every member is necessary).
    core = [("compliance", request) for request in requests]
    core.append(("security", None))
    for constraint in list(core):
        rest = tuple(c for c in core if c != constraint)
        if not satisfiable(rest):
            core.remove(constraint)

    # With security in the core, some plan meets the core's compliance
    # constraints, and every such plan is insecure: the first one met
    # gives the witness.
    security_witness = None
    if ("security", None) in core:
        needed = tuple(c for c in core if c[0] == "compliance")
        for index, plan in enumerate(plans):
            if satisfies(index, needed):
                report = plan_security(client, plan, repository, location)
                security_witness = witness_from_history(
                    report.history_labels())
                break

    constraints = []
    for kind, request in core:
        if kind == "security":
            constraints.append(CoreConstraint("security"))
            continue
        bound = [loc for loc in options_for(request)
                 if (request, loc) in serves]
        constraints.append(CoreConstraint(
            "compliance", request,
            tuple(BindingRefusal(loc, witness_of[(request, loc)])
                  for loc in bound if not serves[(request, loc)]),
            tuple(loc for loc in bound if serves[(request, loc)])))
    return PlanExplanation(location, tuple(constraints), security_witness,
                           len(plans))



def _refusals_under(client: HistoryExpression, plan: Plan,
                    repository: Repository, certify
                    ) -> dict[str, ComplianceCertificate | None]:
    """Request id → the first refusing certificate among the occurrences
    of that id *plan* reaches, or ``None`` when each complies with the
    bound service (``certify(body, service)`` decides one).  The
    occurrences are walked as :func:`~repro.analysis.planner.analyze_plan`
    walks them: once per distinct ``(id, body)``, through the services
    the plan binds."""
    refusals: dict[str, ComplianceCertificate | None] = {}
    seen: set[tuple[str, HistoryExpression]] = set()
    queue = list(extract_requests(client))
    while queue:
        info = queue.pop(0)
        occurrence = (info.request, info.body)
        if occurrence in seen:
            continue
        seen.add(occurrence)
        service = repository.get(plan.lookup(info.request))
        if service is None:
            continue
        if refusals.get(info.request) is None:
            certificate = certify(info.body, service)
            refusals[info.request] = (None if certificate.compliant
                                      else certificate)
        queue.extend(extract_requests(service))
    return refusals


def _unservable_requests(client: HistoryExpression, repository: Repository,
                         options_for) -> list[str]:
    """The request ids, reachable from *client* through candidate
    services, that no candidate present in *repository* can take — why
    no complete plan exists — sorted."""
    unservable = []
    visited: set[str] = set()
    queue = list(extract_requests(client))
    while queue:
        request = queue.pop(0).request
        if request in visited:
            continue
        visited.add(request)
        services = [repository[loc] for loc in options_for(request)
                    if loc in repository]
        if not services:
            unservable.append(request)
        for service in services:
            queue.extend(extract_requests(service))
    return sorted(unservable)
