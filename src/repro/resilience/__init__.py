"""Fault injection, recovery and chaos testing for the network runtime.

The package layers resilience over :mod:`repro.network`:

* :mod:`repro.resilience.faults` — declarative, seeded fault plans
  (crash / drop / stall / byzantine);
* :mod:`repro.resilience.checkpoints` — checkpointed choices and the
  rollback policy (the network-level reversible-session state);
* :mod:`repro.resilience.recovery` — backoff, compensation and failover
  re-planning through the memoized planner;
* :mod:`repro.resilience.supervisor` — a fault-detecting wrapper around
  the simulator with per-location circuit breakers and budgets;
* :mod:`repro.resilience.harness` — the deterministic chaos harness and
  its invariant (valid plan + recovery ⇒ no security violation, no
  undiagnosed trial).
"""

from repro.resilience.checkpoints import (Checkpoint, RollbackPolicy,
                                          move_key)
from repro.resilience.faults import (FAULT_KINDS, Fault, FaultPlan,
                                     module_requests, mutate_term,
                                     sample_fault_plan, service_channels)
from repro.resilience.harness import (CHAOS_SCHEMA, ChaosReport,
                                      TrialResult, UnverifiedModuleError,
                                      run_chaos)
from repro.resilience.recovery import (BackoffPolicy, RecoveryEpisode,
                                       compensate, replan,
                                       residual_frame_closes)
from repro.resilience.supervisor import (BREAKER_EDGES, CircuitBreaker,
                                         Supervisor, SupervisorResult)

__all__ = [
    "Checkpoint", "RollbackPolicy", "move_key",
    "FAULT_KINDS", "Fault", "FaultPlan", "module_requests", "mutate_term",
    "sample_fault_plan", "service_channels",
    "BackoffPolicy", "RecoveryEpisode", "compensate", "replan",
    "residual_frame_closes",
    "BREAKER_EDGES", "CircuitBreaker", "Supervisor", "SupervisorResult",
    "CHAOS_SCHEMA", "ChaosReport", "TrialResult", "UnverifiedModuleError",
    "run_chaos",
]
