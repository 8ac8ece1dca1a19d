"""Explaining why no valid plan exists (minimal unsatisfiable cores).

:func:`repro.analysis.planner.find_valid_plans` reports plan failure as
an empty list; this module turns that bare refusal into a certificate.
A candidate plan must satisfy one constraint per (transitively
reachable) request — *the chosen service complies with the session
body* — plus one global *security* constraint — *the assembled
behaviour never produces an invalid history*.  When no plan satisfies
them all, a deletion-based minimal unsatisfiable core is computed:
constraints are dropped one at a time, keeping only those whose removal
would make the system satisfiable.  Each surviving constraint carries
its evidence — per-candidate stuck witnesses
(:class:`~repro.staticcheck.witness.StuckWitness`) for a compliance
constraint, a replayable
:class:`~repro.staticcheck.witness.ValidityWitness` for the security
constraint — rendered as a human-readable "why no valid plan exists"
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.syntax import HistoryExpression
from repro.network.repository import Repository
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import track_cache
from repro.analysis.planner import (analyze_plan, enumerate_plans,
                                    find_valid_plans)
from repro.analysis.requests import extract_requests
from repro.staticcheck.compliance import certify_compliance
from repro.staticcheck.witness import (StuckWitness, ValidityWitness,
                                       witness_from_history)

#: Entries kept in the explanation memo table (see
#: :func:`repro.staticcheck.clear_staticcheck_caches`).
PLAN_CACHE_SIZE = 256

#: Bound on the candidate plans the unsat-core search enumerates.
DEFAULT_PLAN_CAP = 512


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
                          plan_cap: int = DEFAULT_PLAN_CAP
                          ) -> PlanExplanation | None:
    """Explain why no valid plan exists — or return ``None`` when one does.

    Memoised on the client term and the repository contents; *candidates*
    optionally restricts the locations allowed per request (as in
    :func:`~repro.analysis.planner.find_valid_plans`), *plan_cap* bounds
    the candidate plans the unsat-core search may enumerate.
    """
    items = tuple(repository.items())
    if candidates is None:
        candidate_key = None
    else:
        candidate_key = tuple(sorted(
            (request, tuple(locations))
            for request, locations in candidates.items()))
    tel = _telemetry.active()
    if tel is None:
        return _explain(client, items, candidate_key, location, max_plans,
                        plan_cap)
    with tel.tracer.span("staticcheck.explain_no_valid_plan",
                         location=location) as span:
        explanation = _explain(client, items, candidate_key, location,
                               max_plans, plan_cap)
        verdict = "valid_plan" if explanation is None else "explained"
        span.set(verdict=verdict)
        tel.metrics.counter("staticcheck.certifications",
                            analysis="plans", verdict=verdict).inc()
        return explanation


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _explain(client: HistoryExpression, items: tuple, candidate_key,
             location: str, max_plans: int | None,
             plan_cap: int) -> PlanExplanation | None:
    repository = Repository(dict(items), validate=False)
    candidates = (None if candidate_key is None
                  else {request: list(locations)
                        for request, locations in candidate_key})

    planner = find_valid_plans(client, repository, candidates, location,
                               max_plans)
    if planner.has_valid_plan:
        return None

    bodies = _reachable_requests(client, repository, candidates)

    def options_for(request: str) -> tuple[str, ...]:
        if candidates is not None and request in candidates:
            return tuple(candidates[request])
        return repository.locations()

    # Per-binding compliance verdicts (with stuck witnesses), decided
    # once per (request, candidate) pair: a candidate complies only if it
    # complies with every session body opened under the request id.
    compliant_of: dict[tuple[str, str], bool] = {}
    refusals_of: dict[str, tuple[BindingRefusal, ...]] = {}
    accepting_of: dict[str, tuple[str, ...]] = {}
    unresolvable: list[str] = []
    for request in sorted(bodies):
        refused = []
        accepting = []
        any_candidate = False
        for loc in options_for(request):
            service = repository.get(loc)
            if service is None:
                continue
            any_candidate = True
            refusal = None
            for body in bodies[request]:
                certificate = certify_compliance(body, service)
                if not certificate.compliant:
                    refusal = BindingRefusal(loc, certificate.witness)
                    break
            compliant_of[(request, loc)] = refusal is None
            if refusal is None:
                accepting.append(loc)
            else:
                refused.append(refusal)
        refusals_of[request] = tuple(refused)
        accepting_of[request] = tuple(accepting)
        if not any_candidate:
            unresolvable.append(request)

    if unresolvable:
        core = tuple(CoreConstraint("completeness", request)
                     for request in unresolvable)
        return PlanExplanation(location, core, None,
                               planner.metrics.get("plans_analyzed", 0))

    plans = []
    for index, plan in enumerate(
            enumerate_plans(client, repository, candidates)):
        if index >= plan_cap:
            break
        plans.append(plan)

    security_cache: dict = {}

    def secure(plan) -> bool:
        verdict = security_cache.get(plan)
        if verdict is None:
            analysis = analyze_plan(client, plan, repository, location,
                                    prune=False)
            security_cache[plan] = analysis
            verdict = analysis
        return verdict.security.secure

    def satisfiable(constraints: tuple[tuple[str, str | None], ...]) -> bool:
        """Does some candidate plan satisfy every listed constraint?"""
        for plan in plans:
            ok = all(kind != "compliance"
                     or _binding_complies(plan, request, compliant_of)
                     for kind, request in constraints)
            if ok and any(kind == "security" for kind, _ in constraints):
                ok = secure(plan)
            if ok:
                return True
        return False

    all_constraints = tuple((("compliance", request)
                             for request in sorted(bodies))
                            ) + (("security", None),)

    # Deletion-based minimal unsatisfiable core: drop each constraint in
    # turn; keep it only when the remainder becomes satisfiable without
    # it.  The result is subset-minimal (every member is necessary).
    core = list(all_constraints)
    for constraint in list(core):
        rest = tuple(c for c in core if c != constraint)
        if not satisfiable(rest):
            core.remove(constraint)

    security_witness = None
    if any(kind == "security" for kind, _ in core):
        for plan in plans:
            if not all(_binding_complies(plan, request, compliant_of)
                       for request in sorted(bodies)):
                continue
            report = security_cache.get(plan)
            if report is None:
                report = analyze_plan(client, plan, repository,
                                      location, prune=False)
                security_cache[plan] = report
            if not report.security.secure:
                security_witness = witness_from_history(
                    report.security.history_labels())
                break

    constraints = []
    for kind, request in core:
        if kind == "compliance":
            constraints.append(CoreConstraint(
                "compliance", request, refusals_of.get(request, ()),
                accepting_of.get(request, ())))
        else:
            constraints.append(CoreConstraint("security"))
    return PlanExplanation(location, tuple(constraints), security_witness,
                           max(planner.metrics.get("plans_analyzed", 0),
                               len(plans)))


track_cache("staticcheck.plans", _explain)


def _binding_complies(plan, request: str, compliant_of) -> bool:
    """Is the compliance constraint of *request* satisfied under *plan*?

    A request the plan does not bind is not reachable under it (complete
    plans bind exactly the transitively reachable requests), so the
    constraint holds vacuously.
    """
    binding = plan.lookup(request)
    if binding is None:
        return True
    return compliant_of.get((request, binding), False)


def _reachable_requests(client: HistoryExpression, repository: Repository,
                        candidates) -> dict[str, list[HistoryExpression]]:
    """Request id → every distinct session body opened under it,
    transitively through every candidate service a plan could select
    (occurrences counted as in
    :func:`~repro.analysis.planner.analyze_plan`)."""
    bodies: dict[str, list[HistoryExpression]] = {}
    queue = list(extract_requests(client))
    while queue:
        info = queue.pop(0)
        known = bodies.setdefault(info.request, [])
        if info.body in known:
            continue
        known.append(info.body)
        if candidates is not None and info.request in candidates:
            options = tuple(candidates[info.request])
        else:
            options = repository.locations()
        for loc in options:
            service = repository.get(loc)
            if service is not None:
                queue.extend(extract_requests(service))
    return bodies
