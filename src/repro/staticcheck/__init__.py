"""Whole-network abstract interpretation (static certification layer).

Four analyses, the label analysis over a generic worklist fixpoint
solver (:mod:`~repro.staticcheck.solver`):

====================  ====================================================
analysis              certifies
====================  ====================================================
label analysis        may/must label sets of a history expression
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

The analyses memoise certificates in module-level LRU tables tracked by
the cache-stats layer (``staticcheck.validity``, ``staticcheck.compliance``,
``staticcheck.plans``); :func:`clear_staticcheck_caches` drops them and
rebaselines their adapters, and is registered with
:func:`repro.contracts.contract.clear_contract_caches` so a contract
cache reset can never leave stale derived certificates behind.
"""

from __future__ import annotations

from repro.observability.cache_stats import reset_cache_stats
from repro.contracts.contract import register_cache_clearer
from repro.staticcheck.solver import (Equation, FixpointSolution, Lattice,
                                      PowersetLattice, solve)
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

#: The cache-stats names owned by the staticcheck memo tables.
_CACHE_NAMES = ("staticcheck.validity", "staticcheck.compliance",
                "staticcheck.plans")


def clear_staticcheck_caches() -> None:
    """Drop the staticcheck memo tables (validity, compliance and plan
    certificates) and rebaseline their cache-stats adapters."""
    from repro.staticcheck import compliance as _compliance
    from repro.staticcheck import plans as _plans
    from repro.staticcheck import validity as _validity
    _validity._certify.cache_clear()
    _compliance._certify.cache_clear()
    _plans._explain.cache_clear()
    reset_cache_stats(*_CACHE_NAMES)


register_cache_clearer(clear_staticcheck_caches)

__all__ = [
    "BindingRefusal",
    "ClientPlanReport",
    "ComplianceCertificate",
    "CoreConstraint",
    "Equation",
    "FixpointSolution",
    "LabelAnalysis",
    "Lattice",
    "ModuleAnalysis",
    "PairReport",
    "PlanExplanation",
    "PowersetLattice",
    "StuckWitness",
    "TermReport",
    "ValidityCertificate",
    "ValidityWitness",
    "analyse_labels",
    "analyze_module",
    "certify_compliance",
    "certify_validity",
    "clear_staticcheck_caches",
    "explain_no_valid_plan",
    "may_diverge",
    "solve",
    "syntactic_alphabet",
    "witness_from_history",
]
