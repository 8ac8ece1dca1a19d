"""Whole-network abstract interpretation (static certification layer).

Four analyses:

====================  ====================================================
analysis              certifies
====================  ====================================================
label analysis        may/must label sets of a history expression, one
                      fold over its distinct nodes (no fixpoint solve)
static validity       ``|= η`` for all runs, with a replayable
                      :class:`~repro.staticcheck.witness.ValidityWitness`
                      on failure
compliance            ``H1 ⊢ H2`` over the whole reachable ready-set
                      product (one exhaustive product BFS), with a
                      :class:`~repro.staticcheck.witness.StuckWitness` on
                      refusal
plan explanation      a minimal unsatisfiable core of (request,
                      candidate-service) constraints when no valid plan
                      exists
====================  ====================================================

:func:`~repro.staticcheck.engine.analyze_module` aggregates all four
over a parsed module — the engine behind ``repro analyze`` and the
SUS04x lint rules.

The analyses memoise certificates in the memo tables
``staticcheck.validity``, ``staticcheck.compliance`` and
``staticcheck.plans`` (see :mod:`repro.observability.cache_stats`), so
:func:`repro.contracts.contract.clear_contract_caches` drops them with
every other table and a cache reset can never leave stale derived
certificates behind.
"""

from __future__ import annotations

from repro.staticcheck.labels import (LabelAnalysis, analyse_labels,
                                      may_diverge, syntactic_alphabet)
from repro.staticcheck.validity import (ValidityCertificate,
                                        certify_validity)
from repro.staticcheck.compliance import (ComplianceCertificate,
                                          certify_compliance)
from repro.staticcheck.plans import (BindingRefusal, CoreConstraint,
                                     PlanExplanation,
                                     explain_no_valid_plan)
from repro.staticcheck.engine import (ClientPlanReport, ModuleAnalysis,
                                      PairReport, TermReport,
                                      analyze_module)
from repro.staticcheck.witness import (StuckWitness, ValidityWitness,
                                       witness_from_history)

__all__ = [
    "BindingRefusal",
    "ClientPlanReport",
    "ComplianceCertificate",
    "CoreConstraint",
    "LabelAnalysis",
    "ModuleAnalysis",
    "PairReport",
    "PlanExplanation",
    "StuckWitness",
    "TermReport",
    "ValidityCertificate",
    "ValidityWitness",
    "analyse_labels",
    "analyze_module",
    "certify_compliance",
    "certify_validity",
    "explain_no_valid_plan",
    "may_diverge",
    "syntactic_alphabet",
    "witness_from_history",
]
