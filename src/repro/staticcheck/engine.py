"""Whole-module static analysis: the engine behind ``repro analyze``.

Runs the four staticcheck analyses over a parsed
:class:`~repro.lang.module.Module` and aggregates their certificates:

* per declared term — may/must label analysis and static validity
  (:mod:`repro.staticcheck.labels`, :mod:`repro.staticcheck.validity`);
* per request occurrence × candidate service — compliance certification
  with stuck witnesses (:mod:`repro.staticcheck.compliance`);
* per client — one first-valid planner pass, with a minimal-unsat-core
  explanation over the plans it analysed when no valid plan exists
  (:mod:`repro.staticcheck.plans`).

A module is *accepted* when every term is statically valid and every
client has a valid plan; non-compliant request/service pairs on their
own are informational (the planner routes around them).  All renderings
— text and JSON — are deterministic across processes: everything
derived from a set is sorted before it is shown.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.lang.module import Module
from repro.observability import runtime as _telemetry
from repro.analysis.planner import find_valid_plans
from repro.analysis.requests import extract_requests
from repro.staticcheck.compliance import (ComplianceCertificate,
                                          certify_compliance)
from repro.staticcheck.labels import LabelAnalysis, analyse_labels
from repro.staticcheck.plans import PlanExplanation, explain_no_valid_plan
from repro.staticcheck.validity import (ValidityCertificate,
                                        certify_validity)


@dataclass(frozen=True)
class TermReport:
    """Label analysis and validity certificate of one declared term."""

    name: str
    kind: str
    labels: LabelAnalysis
    validity: ValidityCertificate

    def to_json(self) -> dict:
        witness = self.validity.witness
        return {
            "name": self.name,
            "kind": self.kind,
            "valid": self.validity.valid,
            "explored": self.validity.explored,
            "may": sorted(str(label) for label in self.labels.may),
            "must": sorted(str(label) for label in self.labels.must),
            "diverging": self.labels.diverging,
            # repro-analyze.v1 keeps the key; the analysis never widens.
            "widened": False,
            "witness": None if witness is None else witness.to_json(),
        }


@dataclass(frozen=True)
class PairReport:
    """Compliance certificate of one request occurrence × service."""

    owner: str
    request: str
    service: str
    certificate: ComplianceCertificate

    def to_json(self) -> dict:
        witness = self.certificate.witness
        return {
            "owner": self.owner,
            "request": self.request,
            "service": self.service,
            "compliant": self.certificate.compliant,
            "pairs": self.certificate.pairs,
            "witness": None if witness is None else witness.to_json(),
        }


@dataclass(frozen=True)
class ClientPlanReport:
    """Plan certification of one client: a valid plan or an explanation."""

    client: str
    plan: str | None
    explanation: PlanExplanation | None

    @property
    def valid(self) -> bool:
        return self.explanation is None

    def to_json(self) -> dict:
        return {
            "client": self.client,
            "valid": self.valid,
            "plan": self.plan,
            "explanation": None if self.explanation is None
            else self.explanation.to_json(),
        }


@dataclass(frozen=True)
class ModuleAnalysis:
    """Everything ``repro analyze`` determined about one module."""

    path: str | None
    terms: tuple[TermReport, ...]
    pairs: tuple[PairReport, ...]
    plans: tuple[ClientPlanReport, ...]

    @property
    def ok(self) -> bool:
        """The acceptance verdict: every term statically valid and every
        client certified with a valid plan."""
        return (all(report.validity.valid for report in self.terms)
                and all(report.valid for report in self.plans))

    def to_json(self) -> dict:
        return {
            "schema": "repro-analyze.v1",
            "module": None if self.path is None
            else os.path.basename(self.path),
            "ok": self.ok,
            "terms": [report.to_json() for report in self.terms],
            "pairs": [report.to_json() for report in self.pairs],
            "plans": [report.to_json() for report in self.plans],
        }

    def render_text(self) -> str:
        name = "<module>" if self.path is None \
            else os.path.basename(self.path)
        lines = [f"analysis of {name}:"]
        for report in self.terms:
            verdict = "valid" if report.validity.valid else "INVALID"
            may = ", ".join(sorted(str(label) for label in
                                   report.labels.may)) or "-"
            lines.append(f"  {report.kind} {report.name}: {verdict} "
                         f"(may labels: {may})")
            if report.validity.witness is not None:
                lines.extend("    " + line for line in
                             report.validity.witness.render_text()
                             .splitlines())
        for report in self.pairs:
            verdict = ("compliant" if report.certificate.compliant
                       else "not compliant")
            lines.append(f"  request {report.request} ({report.owner}) "
                         f"|- {report.service}: {verdict}")
            if report.certificate.witness is not None:
                lines.extend("    " + line for line in
                             report.certificate.witness.render_text()
                             .splitlines())
        for report in self.plans:
            if report.valid:
                lines.append(f"  client {report.client}: valid plan "
                             f"{report.plan}")
            else:
                lines.extend("  " + line for line in
                             report.explanation.render_text().splitlines())
        lines.append(f"verdict: {'accepted' if self.ok else 'rejected'}")
        return "\n".join(lines)


def analyze_module(module: Module, *,
                   max_plans: int | None = None) -> ModuleAnalysis:
    """Run the whole-network static analysis on *module*."""
    tel = _telemetry.active()
    if tel is None:
        return _analyze(module, max_plans)
    with tel.tracer.span("staticcheck.analyze_module",
                         module=module.path or "<module>") as span:
        analysis = _analyze(module, max_plans)
        span.set(ok=analysis.ok, terms=len(analysis.terms),
                 pairs=len(analysis.pairs))
        tel.emit("staticcheck.verdict", ok=analysis.ok,
                 terms=len(analysis.terms), pairs=len(analysis.pairs))
        return analysis


def _analyze(module: Module, max_plans: int | None) -> ModuleAnalysis:
    repository = module.repository

    terms = []
    for kind, table in (("client", module.clients),
                        ("service", module.services)):
        for name, term in table.items():
            terms.append(TermReport(name, kind, analyse_labels(term),
                                    certify_validity(term)))

    pairs = []
    for kind, table in (("client", module.clients),
                        ("service", module.services)):
        for name, term in table.items():
            for info in extract_requests(term):
                for location in repository.locations():
                    certificate = certify_compliance(
                        info.body, repository[location])
                    pairs.append(PairReport(name, info.request, location,
                                            certificate))

    # One first-valid pass per client; a pass without a valid plan has
    # analysed every candidate, and the explainer reasons over those.
    plans = []
    for name, term in module.clients.items():
        planner = find_valid_plans(term, repository, location=name,
                                   max_plans=max_plans, first_valid=True)
        best = planner.best()
        if best is not None:
            plans.append(ClientPlanReport(name, str(best.plan), None))
        else:
            plans.append(ClientPlanReport(name, None, explain_no_valid_plan(
                term, repository, location=name, planner=planner)))

    return ModuleAnalysis(module.path, tuple(terms), tuple(pairs),
                          tuple(plans))
