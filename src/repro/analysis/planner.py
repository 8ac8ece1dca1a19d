"""Construction of valid plans (paper, Sections 4 and 5).

"Our task … will be defining a static analysis that allows us to
construct valid plans, only.  With such plans, neither violations of
security, nor missing communications can occur, so there is no need for
any execution monitor at run-time."

The planner enumerates candidate plans for one client over a repository
(resolving, transitively, the requests of the services a plan selects)
and analyses each candidate with the paper's two static checks:

* **compliance** — for each request ``open_{r,φ} H1 close_{r,φ}`` served
  by ``ℓ2``, check ``H1 ⊢ H2`` with ``π(r) = ℓ2`` via the product
  automaton of Definition 5 (Theorem 1);
* **security** — model-check the assembled behaviour ``⟨Ĥ, π⟩`` for
  validity (Section 3.1), via the session product and the abstract
  monitor of :mod:`repro.analysis.security`.

A plan passing both is *valid*; the exhaustive network explorer
(:mod:`repro.network.explorer`) is the independent oracle the test suite
compares against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

from repro.core.compliance import ComplianceResult, check_compliance
from repro.core.errors import PlanError
from repro.core.plans import Plan
from repro.core.syntax import HistoryExpression
from repro.analysis.requests import RequestInfo, extract_requests
from repro.analysis.security import SecurityReport, check_security
from repro.analysis.session_product import (assemble, deadlocked_trees)
from repro.network.repository import Repository

#: Entries kept in the plan-security cache (see :func:`plan_security`).
PLAN_SECURITY_CACHE_SIZE = 1024


class ComplianceCache:
    """Memoised compliance verdicts, keyed ``(request body, service term)``.

    Compliance of a binding depends only on the client-side session body
    and the chosen service's behaviour — never on the rest of the plan —
    so one verdict is shared by every candidate plan containing the
    binding: Theorem 1 is decided once per distinct pair instead of once
    per plan.  ``hits``/``misses`` are exposed for the benchmark harness.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[tuple[HistoryExpression, HistoryExpression],
                          ComplianceResult] = {}
        self.hits = 0
        self.misses = 0

    def check(self, body: HistoryExpression,
              service: HistoryExpression) -> ComplianceResult:
        """The memoised equivalent of :func:`check_compliance`."""
        key = (body, service)
        cached = self._table.get(key)
        tel = _telemetry.active()
        if cached is not None:
            self.hits += 1
            if tel is not None:
                tel.metrics.counter("planner.memo", outcome="hit").inc()
            return cached
        if tel is not None:
            tel.metrics.counter("planner.memo", outcome="miss").inc()
        result = check_compliance(body, service)
        self._table[key] = result
        self.misses += 1
        return result

    def __len__(self) -> int:
        return len(self._table)


@dataclass(frozen=True)
class ComplianceCheck:
    """The compliance verdict for one served request."""

    request: str
    location: str
    result: ComplianceResult

    @property
    def compliant(self) -> bool:
        return self.result.compliant


@dataclass(frozen=True)
class PlanAnalysis:
    """Everything the static analysis determined about one plan."""

    plan: Plan
    compliance: tuple[ComplianceCheck, ...]
    security: SecurityReport
    unserved_requests: tuple[str, ...] = ()

    @property
    def compliant(self) -> bool:
        """All served requests pair compliant contracts."""
        return all(check.compliant for check in self.compliance)

    @property
    def secure(self) -> bool:
        """The assembled behaviour never produces an invalid history."""
        return self.security.secure

    @property
    def valid(self) -> bool:
        """The paper's plan validity: complete, compliant and secure."""
        return (not self.unserved_requests and self.compliant
                and self.secure)

    def explain(self) -> str:
        """A human-readable verdict."""
        if self.valid:
            return f"plan {self.plan} is VALID"
        reasons = []
        if self.unserved_requests:
            reasons.append("unserved requests: "
                           + ", ".join(self.unserved_requests))
        for check in self.compliance:
            if not check.compliant:
                reasons.append(
                    f"request {check.request} -> {check.location}: "
                    "contracts are not compliant")
        if not self.secure:
            policy = self.security.violated_policy
            reasons.append(f"security violation of {policy} reachable")
        return f"plan {self.plan} is INVALID ({'; '.join(reasons)})"


def enumerate_plans(client: HistoryExpression,
                    repository: Repository,
                    candidates=None) -> Iterator[Plan]:
    """All complete plans for *client* over *repository*.

    Requests introduced by selected services are resolved transitively; a
    request identifier already bound is not re-resolved (which also keeps
    mutually-requesting services from looping).  *candidates* optionally
    maps a request identifier to the locations allowed to serve it.
    """

    def options_for(info: RequestInfo) -> tuple[str, ...]:
        if candidates is not None and info.request in candidates:
            return tuple(candidates[info.request])
        return repository.locations()

    def resolve(queue: tuple[RequestInfo, ...],
                plan: Plan) -> Iterator[Plan]:
        position = 0
        while position < len(queue):
            if queue[position].request not in plan:
                break
            position += 1
        else:
            yield plan
            return
        info = queue[position]
        rest = queue[position + 1:]
        for location in options_for(info):
            service = repository.get(location)
            if service is None:
                continue
            try:
                extended = plan.bind(info.request, location)
            except PlanError:
                continue
            yield from resolve(rest + extract_requests(service), extended)

    yield from resolve(extract_requests(client), Plan.empty())


def plan_security(client: HistoryExpression, plan: Plan,
                  repository: Repository,
                  location: str = "client") -> SecurityReport:
    """The security check of the assembled behaviour ``⟨Ĥ, π⟩``:
    :func:`check_security` over :func:`assemble`, memoised.

    Assembly reads the repository only at the locations *plan* binds
    (an ``open`` fires against ``repository.get(plan.lookup(r))``), so
    the key is the client, its location, the plan and the services at
    those locations, ``None`` for a location the repository lacks.  The
    key is exact, and every pass of one command over the same
    ``⟨Ĥ, π⟩`` shares an entry: the verifications, the replans over a
    healthy sub-repository and the explainer's passes alike.  A search
    that exceeds its state budget raises on every call and is never
    cached.  ``clear_contract_caches()`` empties the cache.
    """
    targets = sorted({target for _, target in plan.items()})
    bound = tuple((target, repository.get(target)) for target in targets)
    return _plan_security(client, location, plan, bound)


@memo_table("analysis.plan_security", PLAN_SECURITY_CACHE_SIZE)
def _plan_security(client: HistoryExpression, location: str, plan: Plan,
                   bound: tuple) -> SecurityReport:
    services = Repository({target: service for target, service in bound
                           if service is not None}, validate=False)
    return check_security(assemble(client, plan, services, location))



def analyze_plan(client: HistoryExpression, plan: Plan,
                 repository: Repository,
                 location: str = "client", *,
                 cache: ComplianceCache | None = None,
                 prune: bool = False) -> PlanAnalysis:
    """Run both static checks on one candidate plan.

    *cache* memoises compliance verdicts across calls (shared by the
    planner over all candidate plans).  With *prune*, the analysis stops
    at the first failed compliance check and skips the security model
    checking entirely — the plan is already invalid, and compliance of a
    binding is independent of the rest of the plan, so the verdict (and
    the valid/invalid partition) is unchanged; only the per-plan cost
    drops from O(security product) to O(first failing pair).  The
    security check goes through :func:`plan_security`, so a plan checked
    before in the process is not assembled again.
    """
    compliance: list[ComplianceCheck] = []
    unserved: list[str] = []
    # Keyed on the occurrence, not the id: a service may reuse an id that
    # the client (or another service) opens with a different body, and
    # the plan's one binding for that id must serve every such session.
    seen: set[tuple[str, HistoryExpression]] = set()
    decide = cache.check if cache is not None else check_compliance

    queue = list(extract_requests(client))
    while queue:
        info = queue.pop(0)
        occurrence = (info.request, info.body)
        if occurrence in seen:
            continue
        seen.add(occurrence)
        target = plan.lookup(info.request)
        if target is None or target not in repository:
            if info.request not in unserved:
                unserved.append(info.request)
            continue
        service = repository[target]
        check = ComplianceCheck(info.request, target,
                                decide(info.body, service))
        compliance.append(check)
        if prune and not check.compliant:
            return PlanAnalysis(plan, tuple(compliance),
                                SecurityReport.skipped_report(),
                                tuple(unserved))
        queue.extend(extract_requests(service))

    security = plan_security(client, plan, repository, location)
    return PlanAnalysis(plan, tuple(compliance), security,
                        tuple(unserved))


@dataclass
class PlannerResult:
    """The outcome of one planning pass for one client: the valid and
    the invalid plans it analysed, each list in enumeration order.

    A full pass analyses every candidate.  A first-valid pass
    (``find_valid_plans(..., first_valid=True)``) stops at its first
    valid plan, so it holds at most one valid plan and only the invalid
    plans enumerated before it; when no plan is valid it has analysed
    every candidate, like a full pass.

    ``metrics`` summarises the work the pass performed — plans analysed
    and pruned, memo hits/misses, distinct bindings decided — and is
    always filled (cheap integers), telemetry enabled or not, so
    diagnostics can narrate planner effort.
    """

    valid_plans: list[PlanAnalysis] = field(default_factory=list)
    invalid_plans: list[PlanAnalysis] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def has_valid_plan(self) -> bool:
        return bool(self.valid_plans)

    def best(self) -> PlanAnalysis | None:
        """Some valid plan (the first found), or ``None``."""
        return self.valid_plans[0] if self.valid_plans else None


def find_valid_plans(client: HistoryExpression, repository: Repository,
                     candidates=None, location: str = "client",
                     max_plans: int | None = None, *,
                     first_valid: bool = False) -> PlannerResult:
    """Enumerate and analyse plans for *client*, separating the valid
    ones — the viable orchestrations of Section 5.

    *max_plans* bounds the number of candidates analysed (``None`` for
    all).  With *first_valid* the pass stops after the first valid plan
    in enumeration order — the plan :meth:`PlannerResult.best` returns
    either way, and the one plan Section 5 asks for per client.  Only a
    caller that needs every valid plan (the cost-aware ranking of
    :mod:`repro.quantitative.planning`) runs the full pass.

    One :class:`ComplianceCache` is shared across all candidates, so each
    distinct ``(request body, service)`` pair is decided once.  A plan
    containing a binding already known to fail compliance is pruned: it
    skips even its compliance walk and never reaches the security model
    checker.  The shortcut covers only request ids opened with one body
    in the client and every service; a plan binding a reused id is
    analysed with ``prune=True``, which stops at its first failing
    occurrence.  Neither changes the valid/invalid partition: pruned
    plans are still enumerated and reported invalid, carrying the
    failing check.  The test suite's unmemoised pass
    (``tests/oracles/planner.py``) is the oracle for that partition,
    and for the plan a first-valid pass stops at.
    """
    cache = ComplianceCache()
    plans = enumerate_plans(client, repository, candidates)
    if max_plans is not None:
        plans = itertools.islice(plans, max_plans)

    #: Bindings whose compliance already failed → the cached failing check.
    #: Kept only for request ids opened with one body everywhere: such a
    #: binding fails in every plan containing it.  Which sessions a
    #: binding of a reused id serves depends on the plan's other
    #: bindings, so plans binding one are analysed occurrence by
    #: occurrence.
    bad_bindings: dict[tuple[str, str], ComplianceCheck] = {}
    one_body = _single_body_requests(client, repository)

    def analyse(plan: Plan) -> PlanAnalysis:
        for binding in plan.items():
            known = bad_bindings.get(binding)
            if known is not None:
                # Every plan containing a failed binding is invalid;
                # reuse the verdict without re-walking the plan.
                return PlanAnalysis(plan, (known,),
                                    SecurityReport.skipped_report())
        analysis = analyze_plan(client, plan, repository, location,
                                cache=cache, prune=True)
        for check in analysis.compliance:
            if not check.compliant and check.request in one_body:
                bad_bindings[(check.request, check.location)] = check
        return analysis

    def collect() -> PlannerResult:
        result = PlannerResult()
        pruned = 0
        for analysis in map(analyse, plans):
            if analysis.security.skipped:
                pruned += 1
            if analysis.valid:
                result.valid_plans.append(analysis)
                if first_valid:
                    break
            else:
                result.invalid_plans.append(analysis)
        result.metrics = {
            "plans_analyzed": (len(result.valid_plans)
                               + len(result.invalid_plans)),
            "plans_valid": len(result.valid_plans),
            "plans_pruned": pruned,
            "memo_hits": cache.hits,
            "memo_misses": cache.misses,
            "distinct_bindings": len(cache),
        }
        return result

    tel = _telemetry.active()
    if tel is None:
        return collect()
    with tel.tracer.span("planner.find_valid_plans",
                         location=location) as span:
        result = collect()
        span.set(**result.metrics)
        metrics = tel.metrics
        metrics.counter("planner.plans",
                        verdict="valid").inc(len(result.valid_plans))
        metrics.counter("planner.plans",
                        verdict="invalid").inc(len(result.invalid_plans))
        metrics.counter("planner.plans_pruned").inc(
            result.metrics["plans_pruned"])
        return result


def _single_body_requests(client: HistoryExpression,
                          repository: Repository) -> frozenset[str]:
    """The request ids whose every occurrence, in *client* and in every
    service of *repository*, opens the same session body."""
    bodies: dict[str, set[HistoryExpression]] = {}
    for term in (client, *(service for _, service in repository.items())):
        for info in extract_requests(term):
            bodies.setdefault(info.request, set()).add(info.body)
    return frozenset(request for request, found in bodies.items()
                     if len(found) == 1)


def unfailing_in_product(client: HistoryExpression, plan: Plan,
                         repository: Repository,
                         location: str = "client") -> bool:
    """Whole-system progress check on the assembled LTS: no reachable
    deadlocked, non-terminated session tree.

    For complete plans this agrees with per-request compliance; the test
    suite cross-validates the two."""
    lts = assemble(client, plan, repository, location)
    return not deadlocked_trees(lts)
