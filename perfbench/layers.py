"""The layers the traced run measures: which public entry points open
which span, the counts read off their results, and the per-op metrics
derived from both.

Span names follow the package names under ``src/repro``.  Entry points
that recurse, or call each other under one span name, are recorded at
their outermost call.

Which end-to-end metric a faster layer should move, and on which
workload (the prediction a change to that layer is judged against):

==================  ===========================  ========================
layer               end-to-end metric            workload
==================  ===========================  ========================
cli, lang           op_p50_ms                    certify-cold, chaos-cold
core.project,       op_p90_ms; setup_s           certify-cold;
core.compliance                                  discover-warm
core.validity       op_p50_ms                    chaos-cold
contracts           op_p90_ms                    certify-cold
compiled            op_p50_ms, op_p90_ms         discover-warm
staticcheck         op_p90_ms, op_p50_ms         certify-cold
analysis            op_p50_ms                    certify-cold, chaos-cold
network             ops_per_s, op_p50_ms         chaos-cold
resilience          op_p50_ms, op_p90_ms         chaos-cold
canon               setup_s, op_p90_ms           discover-warm
registry            setup_s, op_p50/p90_ms       discover-warm
python.gc           op_p90_ms, peak_rss_mb       certify-cold
==================  ===========================  ========================
"""

from __future__ import annotations


def _states(metric):
    return lambda tracer, result, args: tracer.count(metric, len(result))


def _explored(metric):
    return lambda tracer, result, args: tracer.count(metric,
                                                     result.explored)


def _parse_kb(tracer, result, args):
    tracer.count("lang.parse.kb", len(args[0].encode()) / 1024)


def _table_kb(tracer, result, args):
    tracer.count_once("compiled.table_kb", result,
                      result.table_bytes() / 1024)


def _relation_pairs(tracer, result, args):
    tracer.count("compiled.search.states", result.pairs)


def _certified_pairs(tracer, result, args):
    tracer.count("staticcheck.compliance.pairs", result.pairs)


def _planner(tracer, result, args):
    tracer.count("analysis.planner.plans", result.metrics["plans_analyzed"])
    tracer.count("analysis.planner.valid", result.metrics["plans_valid"])


def _supervisor(tracer, result, args):
    tracer.count("network.steps", result.steps)
    tracer.count("resilience.rollbacks", result.rollbacks)
    tracer.count("resilience.retries", result.retries)
    tracer.count("resilience.replans", result.replans)
    if result.blocked_transitions or result.episodes:
        tracer.count("resilience.disturbed", 1)
        tracer.count("resilience.recovered", result.completed)


def _blocks(tracer, result, args):
    tracer.count("canon.blocks", result.n_blocks)


def _query(tracer, result, args):
    tracer.count("registry.total", result.total)
    tracer.count("registry.candidates", result.candidates)
    tracer.count("registry.product_checks", result.product_checks)
    tracer.count("registry.dedup_hits", result.dedup_hits)


#: (module, qualified name, span name, counter).
ENTRY_POINTS = (
    ("repro.cli", "main", "cli", None),
    ("repro.lang.module", "parse_module", "lang.parse", _parse_kb),
    ("repro.core.projection", "project", "core.project", None),
    ("repro.core.compliance", "check_compliance", "core.compliance", None),
    ("repro.core.validity", "is_valid", "core.validity", None),
    ("repro.core.validity", "ValidityMonitor.extend", "core.validity",
     None),
    ("repro.contracts.lts", "build_lts", "contracts.lts",
     _states("contracts.lts.states")),
    ("repro.contracts.product", "search_product", "contracts.product",
     _explored("contracts.product.states")),
    ("repro.compiled.tables", "compile_contract", "compiled.compile",
     _table_kb),
    # canon and the registry reach the compiler through its memo directly.
    ("repro.compiled.tables", "_compile", "compiled.compile", _table_kb),
    ("repro.compiled.search", "compiled_search", "compiled.search",
     _explored("compiled.search.states")),
    ("repro.compiled.search", "compiled_relation", "compiled.search",
     _relation_pairs),
    ("repro.staticcheck.labels", "analyse_labels", "staticcheck.labels",
     None),
    ("repro.staticcheck.validity", "certify_validity",
     "staticcheck.validity", _explored("staticcheck.validity.states")),
    ("repro.staticcheck.compliance", "certify_compliance",
     "staticcheck.compliance", _certified_pairs),
    ("repro.staticcheck.plans", "explain_no_valid_plan",
     "staticcheck.plans", None),
    ("repro.analysis.planner", "find_valid_plans", "analysis.planner",
     _planner),
    ("repro.analysis.security", "check_security", "analysis.security",
     None),
    ("repro.network.semantics", "network_transitions",
     "network.transitions", None),
    ("repro.resilience.supervisor", "Supervisor.run",
     "resilience.supervisor", _supervisor),
    ("repro.resilience.faults", "FaultPlan.blocking_fault",
     "resilience.faults", None),
    ("repro.resilience.recovery", "replan", "resilience.replan", None),
    ("repro.resilience.recovery", "compensate", "resilience.compensate",
     None),
    ("repro.canon.fingerprint", "canonicalize", "canon.canonicalize",
     _blocks),
    ("repro.canon.preorder", "subcontract_preorder", "canon.preorder",
     None),
    ("repro.registry.core", "ContractRegistry.add", "registry.add", None),
    ("repro.registry.core", "ContractRegistry.update", "registry.add",
     None),
    ("repro.registry.core", "ContractRegistry.find_compliant",
     "registry.query", _query),
    ("repro.registry.core", "ContractRegistry.find_substitutable",
     "registry.query", _query),
)

#: The modules holding the entry points; imported before installing so
#: that every rebinding exists when the tracer scans for it.
MODULES = tuple(sorted({module for module, *_ in ENTRY_POINTS}))

#: Root span of every op; its self time is the harness's share of it.
ROOT = "op"

SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(span for _, _, span, _
                                           in ENTRY_POINTS))

#: Per-op work counts, straight from the counters above.
COUNTS = ("lang.parse.kb", "contracts.lts.states",
          "contracts.product.states", "compiled.table_kb",
          "compiled.search.states", "staticcheck.validity.states",
          "staticcheck.compliance.pairs", "analysis.planner.plans",
          "network.steps", "resilience.rollbacks", "resilience.retries",
          "resilience.replans", "canon.blocks")

#: Ratios of useful outcomes to attempts: (name, numerator, denominator).
RATIOS = (("analysis.planner.valid_ratio", "analysis.planner.valid",
           "analysis.planner.plans"),
          ("resilience.recovered_ratio", "resilience.recovered",
           "resilience.disturbed"),
          ("registry.dedup_ratio", "registry.dedup_hits",
           "registry.candidates"))


def metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in order."""
    names = []
    for span in SPAN_NAMES:
        names.append(f"{span}.self_ms")
        if span != ROOT:
            names.append(f"{span}.calls")
    names += list(COUNTS)
    names += [name for name, _, _ in RATIOS]
    names += ["network.step_us", "registry.pruning_ratio",
              "registry.checks_per_query", "python.gc.ms",
              "python.gc.collections", "op.traced_ms",
              "trace.overhead_ratio"]
    return names


def unit(name: str) -> str:
    """The unit a per-layer metric is printed with (all are per op)."""
    for suffix, name_unit in ((".self_ms", "ms"), ("_ms", "ms"),
                              (".ms", "ms"), ("_us", "us"), (".kb", "KB"),
                              ("_kb", "KB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return name_unit
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_op_metrics(tracer, ops: int, scale) -> dict[str, float]:
    """Fold *ops* traced ops into per-op layer metrics (all but
    ``trace.overhead_ratio``, which needs the untraced ops); times are
    scaled per op by *scale* (op id to factor) to the fixed machine
    speed of the end-to-end metrics."""
    totals = tracer.layer_totals(scale)
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.self_ms"] = totals.get(span, 0) / 1e6 / ops
        if span != ROOT:
            metrics[f"{span}.calls"] = tracer.calls[span] / ops
    for name in COUNTS:
        metrics[name] = counts.get(name, 0.0) / ops
    for name, numerator, denominator in RATIOS:
        metrics[name] = _ratio(counts.get(numerator, 0.0),
                               counts.get(denominator, 0.0))
    metrics["network.step_us"] = _ratio(
        totals.get("network.transitions", 0) / 1e3,
        counts.get("network.steps", 0.0))
    queries = tracer.calls["registry.query"]
    metrics["registry.pruning_ratio"] = 1.0 - _ratio(
        counts.get("registry.product_checks", 0.0),
        counts.get("registry.total", 0.0)) if queries else 0.0
    metrics["registry.checks_per_query"] = _ratio(
        counts.get("registry.product_checks", 0.0), queries)
    metrics["python.gc.ms"] = tracer.gc_total(scale) / 1e6 / ops
    metrics["python.gc.collections"] = tracer.gc_collections / ops
    metrics["op.traced_ms"] = tracer.root_total(scale) / 1e6 / ops
    return metrics
