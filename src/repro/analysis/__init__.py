"""The static analysis: request extraction, session assembly, security
model checking, plan synthesis, and the Section-5 verification facade.
"""

from repro.analysis.capacity import (CapacityReport, check_capacities,
                                     observed_concurrent_demand,
                                     static_concurrent_demand)
from repro.analysis.planner import (PlanAnalysis, PlannerResult,
                                    analyze_plan, enumerate_plans,
                                    find_valid_plans)
from repro.analysis.requests import (RequestInfo, extract_requests,
                                     request_tree)
from repro.analysis.security import SecurityReport, check_security
from repro.analysis.session_product import assemble
from repro.analysis.verification import (ClientVerdict, NetworkVerdict,
                                         verify_client, verify_network)

__all__ = [
    "CapacityReport", "check_capacities", "observed_concurrent_demand",
    "static_concurrent_demand",
    "PlanAnalysis", "PlannerResult", "analyze_plan", "enumerate_plans",
    "find_valid_plans", "RequestInfo", "extract_requests", "request_tree",
    "SecurityReport", "check_security", "assemble",
    "ClientVerdict", "NetworkVerdict", "verify_client", "verify_network",
]
