"""The end-to-end verification procedure of Section 5.

"Given a repository R and a vector of clients, pick up one of them, say
H, at a time; generate a valid plan πH for H; for each request
``open_{r,φ} H1 close_{r,φ}`` occurring in the composed service check if
``H1 ⊢ H2``, where ``πH(r) = ℓ2`` and ``ℓ2 ∈ R``.  If all these steps
succeed, switch off any run-time monitor, and live happily: nothing bad
will happen."

:func:`verify_network` runs that procedure for every client and returns a
:class:`NetworkVerdict` with, per client, the chosen valid plan (or the
analyses explaining why none exists).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plans import PlanVector
from repro.core.syntax import HistoryExpression
from repro.core.wellformed import check_well_formed
from repro.analysis.planner import (PlanAnalysis, PlannerResult,
                                    find_valid_plans)
from repro.network.repository import Repository


@dataclass(frozen=True)
class ClientVerdict:
    """The verification outcome for one client.

    ``result`` is a first-valid planning pass: it holds the chosen
    valid plan and the invalid plans enumerated before it, or, when no
    plan is valid, every candidate with the reason it was rejected.
    """

    location: str
    result: PlannerResult

    @property
    def verified(self) -> bool:
        return self.result.has_valid_plan

    @property
    def plan(self) -> PlanAnalysis | None:
        return self.result.best()


@dataclass(frozen=True)
class NetworkVerdict:
    """The verification outcome for a whole vector of clients."""

    clients: tuple[ClientVerdict, ...]

    @property
    def verified(self) -> bool:
        """Every client has a valid plan: the network can run with the
        monitor switched off."""
        return all(client.verified for client in self.clients)

    def plan_vector(self) -> PlanVector:
        """The vector ``~π`` of chosen valid plans.

        Raises :class:`ValueError` if some client has none."""
        plans = []
        for client in self.clients:
            best = client.plan
            if best is None:
                raise ValueError(
                    f"client at {client.location} has no valid plan")
            plans.append(best.plan)
        return PlanVector(tuple(plans))

    def report(self) -> str:
        """A multi-line human-readable report."""
        lines = []
        for client in self.clients:
            if client.verified:
                assert client.plan is not None
                lines.append(f"{client.location}: {client.plan.explain()}")
            else:
                lines.append(f"{client.location}: NO valid plan "
                             f"({len(client.result.invalid_plans)} "
                             "candidates rejected)")
                for analysis in client.result.invalid_plans:
                    lines.append(f"  - {analysis.explain()}")
        verdict = ("network verified: switch off the monitor"
                   if self.verified else "network NOT verified")
        lines.append(verdict)
        return "\n".join(lines)


def verify_client(client: HistoryExpression, repository: Repository,
                  location: str = "client",
                  candidates=None,
                  max_plans: int | None = None) -> ClientVerdict:
    """Verify one client: well-formedness, then plan synthesis with the
    compliance and security checks
    (:func:`~repro.analysis.planner.find_valid_plans`, which decides
    each distinct binding once and stops at the first valid plan)."""
    check_well_formed(client)
    result = find_valid_plans(client, repository, candidates=candidates,
                              location=location, max_plans=max_plans,
                              first_valid=True)
    return ClientVerdict(location, result)


def verify_network(clients: dict[str, HistoryExpression],
                   repository: Repository,
                   candidates=None,
                   max_plans: int | None = None) -> NetworkVerdict:
    """Verify a vector of clients (mapping location → behaviour) against
    a shared repository — the full procedure of Section 5."""
    verdicts = tuple(
        verify_client(term, repository, location=location,
                      candidates=candidates, max_plans=max_plans)
        for location, term in clients.items())
    return NetworkVerdict(verdicts)
