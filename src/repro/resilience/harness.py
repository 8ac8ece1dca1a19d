"""The deterministic chaos harness.

:func:`run_chaos` verifies a module once, then runs *trials* supervised
simulations of it, each under an independently sampled
:class:`~repro.resilience.faults.FaultPlan`, and checks the core
resilience invariant of this reproduction:

    starting from a **valid plan**, with recovery enabled, no trial ends
    in a security violation, and every trial either completes or aborts
    cleanly with a diagnosis.

The first half is the paper's Theorem 2 stress-tested under partial
failure — crashes, drops and stalls starve components but never push a
history past an active policy; the second half is the supervisor's
contract — it always knows *why* a run stopped.

Everything is seeded and runs on the simulated clock, so a report for a
given ``(module, seed, trials, kinds)`` tuple is reproducible byte for
byte (no wall time appears anywhere in the output).

The trials of one campaign step with one table of sub-tree move memos,
one memo per plan (see
:func:`~repro.network.semantics.network_transitions`): they share the
repository and the commit mode, a replan adds its new plan's memo, and
byzantine rewrites and rollbacks only reach new or earlier trees.  The
table lives as long as the campaign.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.verification import NetworkVerdict, verify_network
from repro.core.errors import ReproError
from repro.core.validity import is_valid
from repro.network.repository import Repository
from repro.observability import runtime as _telemetry
from repro.resilience.checkpoints import RollbackPolicy
from repro.resilience.faults import module_requests, sample_fault_plan
from repro.resilience.recovery import BackoffPolicy
from repro.resilience.supervisor import Supervisor

#: Identifier of the JSON report layout below.  v2 added the rollback
#: knob and the per-trial/aggregate rollback counters.
CHAOS_SCHEMA = "repro-chaos.v2"


class UnverifiedModuleError(ReproError):
    """Chaos was asked to run a module some client of which has no valid
    plan; ``verdict`` is the verification that found it."""

    def __init__(self, verdict: NetworkVerdict) -> None:
        failing = ", ".join(client.location for client in verdict.clients
                            if not client.verified)
        super().__init__(f"chaos requires a verified module: no valid plan "
                         f"for client(s) {failing}")
        self.verdict = verdict


@dataclass(frozen=True)
class TrialResult:
    """One chaos trial, flattened for reporting."""

    trial: int
    seed: int
    faults: tuple[str, ...]
    status: str
    steps: int
    clock: int
    retries: int
    rollbacks: int
    replans: int
    episodes: tuple[str, ...]
    diagnosis: str | None
    histories_valid: bool
    breaker_transitions: tuple[tuple[str, str, str, int], ...]

    @property
    def diagnosed(self) -> bool:
        return self.status == "completed" or bool(self.diagnosis)

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "faults": list(self.faults),
            "status": self.status,
            "steps": self.steps,
            "clock": self.clock,
            "retries": self.retries,
            "rollbacks": self.rollbacks,
            "replans": self.replans,
            "episodes": list(self.episodes),
            "diagnosis": self.diagnosis,
            "histories_valid": self.histories_valid,
            "breaker_transitions": [list(t)
                                    for t in self.breaker_transitions],
        }


@dataclass
class ChaosReport:
    """The aggregate outcome of a chaos run."""

    module: str
    seed: int
    trials: int
    kinds: tuple[str, ...]
    recover: bool
    rollback: bool = True
    max_rollbacks: int = RollbackPolicy().max_rollbacks
    results: list[TrialResult] = field(default_factory=list)

    @property
    def outcomes(self) -> dict[str, int]:
        counts = Counter(result.status for result in self.results)
        return dict(sorted(counts.items()))

    @property
    def security_violations(self) -> int:
        return sum(1 for result in self.results
                   if result.status == "security-violation")

    @property
    def undiagnosed(self) -> int:
        return sum(1 for result in self.results if not result.diagnosed)

    @property
    def invalid_histories(self) -> int:
        return sum(1 for result in self.results
                   if not result.histories_valid)

    @property
    def invariant_holds(self) -> bool:
        """The chaos invariant (see module docstring)."""
        return (self.security_violations == 0
                and self.undiagnosed == 0
                and self.invalid_histories == 0)

    def to_dict(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "module": self.module,
            "seed": self.seed,
            "trials": self.trials,
            "kinds": list(self.kinds),
            "recover": self.recover,
            "rollback": self.rollback,
            "max_rollbacks": self.max_rollbacks,
            "outcomes": self.outcomes,
            "security_violations": self.security_violations,
            "undiagnosed": self.undiagnosed,
            "invalid_histories": self.invalid_histories,
            "invariant_holds": self.invariant_holds,
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def render_text(self) -> str:
        lines = [
            f"chaos run over {self.module}: {self.trials} trial(s), "
            f"seed {self.seed}, faults {'+'.join(self.kinds)}, "
            f"recovery {'on' if self.recover else 'off'}, "
            f"rollback {'on' if self.rollback else 'off'}",
            "",
        ]
        for status, count in self.outcomes.items():
            lines.append(f"  {status:<20} {count}")
        lines.append("")
        total_retries = sum(result.retries for result in self.results)
        total_rollbacks = sum(result.rollbacks for result in self.results)
        total_replans = sum(result.replans for result in self.results)
        total_faults = sum(len(result.faults) for result in self.results)
        lines.append(f"  faults injected      {total_faults}")
        lines.append(f"  rollbacks            {total_rollbacks}")
        lines.append(f"  retries              {total_retries}")
        lines.append(f"  failover replans     {total_replans}")
        lines.append("")
        for result in self.results:
            if result.status == "completed" and not result.episodes:
                continue
            lines.append(f"  trial {result.trial:>3} [{result.status}]"
                         f" seed {result.seed}")
            for fault in result.faults:
                lines.append(f"      fault: {fault}")
            for episode in result.episodes:
                lines.append(f"      episode: {episode}")
            if result.diagnosis:
                lines.append(f"      diagnosis: {result.diagnosis}")
        lines.append("")
        verdict = "HOLDS" if self.invariant_holds else "VIOLATED"
        lines.append(
            f"invariant {verdict}: {self.security_violations} security "
            f"violation(s), {self.undiagnosed} undiagnosed trial(s), "
            f"{self.invalid_histories} invalid history(ies)")
        return "\n".join(lines)


def run_chaos(clients, repository: Repository, *,
              trials: int = 20,
              seed: int = 0,
              kinds: tuple[str, ...] = ("crash", "drop", "stall"),
              max_faults: int = 3,
              max_steps: int = 400,
              deadline: int | None = None,
              recover: bool = True,
              rollback: RollbackPolicy | bool = True,
              backoff: BackoffPolicy = BackoffPolicy(),
              breaker_threshold: int = 2,
              breaker_cooldown: int = 6,
              module: str = "module") -> ChaosReport:
    """Run *trials* seeded chaos trials of the module.

    The module is verified first; chaos only makes sense from a valid
    plan (that is the hypothesis of the invariant), so an unverified
    module raises :class:`UnverifiedModuleError`, carrying the verdict,
    instead of producing a report.

    *rollback* selects the supervisor's rollback-first recovery (a
    :class:`RollbackPolicy`, or ``True``/``False`` for the default
    enabled/disabled policy); ``rollback=False`` reproduces the pure
    replan-from-scratch ladder — the baseline the R2 benchmark compares
    against.
    """
    rollback_policy = RollbackPolicy.of(rollback)
    tel = _telemetry.active()
    if tel is not None:
        with tel.events.session("verify"):
            verdict = verify_network(dict(clients), repository)
    else:
        verdict = verify_network(dict(clients), repository)
    if not verdict.verified:
        raise UnverifiedModuleError(verdict)
    plans = verdict.plan_vector()
    requests = module_requests(clients, repository)
    rng = random.Random(seed)
    memos: dict = {}
    report = ChaosReport(module=module, seed=seed, trials=trials,
                         kinds=tuple(kinds), recover=recover,
                         rollback=rollback_policy.enabled,
                         max_rollbacks=rollback_policy.max_rollbacks)
    for trial in range(trials):
        trial_seed = rng.randrange(2 ** 32)
        fault_plan = sample_fault_plan(random.Random(trial_seed),
                                       repository, requests=requests,
                                       kinds=tuple(kinds),
                                       max_faults=max_faults)
        fault_plan = type(fault_plan)(fault_plan.faults, seed=trial_seed)
        supervisor = Supervisor(clients, plans, repository,
                                fault_plan=fault_plan,
                                recover=recover,
                                rollback=rollback_policy,
                                backoff=backoff,
                                breaker_threshold=breaker_threshold,
                                breaker_cooldown=breaker_cooldown,
                                max_steps=max_steps,
                                deadline=deadline,
                                seed=trial_seed,
                                memos=memos)
        if tel is not None:
            # Every event of the trial — fault injections, aborts,
            # recoveries, the verdict — carries the trial's session id,
            # so a report can slice the flight recorder per trial.
            with tel.events.session(f"trial-{trial}"):
                result = supervisor.run()
        else:
            result = supervisor.run()
        breaker_transitions = tuple(
            (location, source, target, tick)
            for location, transitions in result.breakers.items()
            for source, target, tick in transitions)
        report.results.append(TrialResult(
            trial=trial,
            seed=trial_seed,
            faults=result.faults,
            status=result.status,
            steps=result.steps,
            clock=result.clock,
            retries=result.retries,
            rollbacks=result.rollbacks,
            replans=result.replans,
            episodes=tuple(episode.describe()
                           for episode in result.episodes),
            diagnosis=result.diagnosis,
            histories_valid=all(is_valid(history)
                                for history in result.histories),
            breaker_transitions=breaker_transitions))
        if tel is not None:
            tel.metrics.counter("chaos.trials",
                                status=result.status).inc()
    return report
