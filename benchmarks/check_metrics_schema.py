#!/usr/bin/env python
"""Validate the telemetry payload of ``BENCH_<n>.json`` trajectory files.

CI runs the benchmark smoke with telemetry enabled and then this script;
a benchmark file whose cases stopped carrying the instrumentation
snapshot (counters, cache hit/miss stats, explored-state counts) fails
the build, so the observability layer cannot silently rot.

Accepts every historical schema (``repro-bench.v1`` through ``v6``);
on v3+ files it additionally requires the per-decider warm timings,
compile-time split and verdict-agreement flags on S1 cases.  On v3–v5
files it requires the S3 certifier cases (with the compiled term-table
cache in their snapshot); v6 dropped them with the compiled validity
certifier.  On v4+ files carrying an S4 suite, every registry case must
report its pruning ratio, lookup speedup and verdict-identity flag,
with ``registry.*`` counters in the instrumentation snapshot.  On v5+
files carrying an R2 suite, every case must report both recovery modes
(rollback and replan) with their recovered ratios, and the
instrumentation snapshot must record the ``resilience.rollbacks``
counter — proof the rollback path really ran.

Usage::

    PYTHONPATH=src python benchmarks/check_metrics_schema.py BENCH_*.json

Exit status: 0 when every file passes, 1 with a per-file report
otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Counter keys every instrumented S1 case must have recorded.
S1_REQUIRED_COUNTERS = (
    "compliance.explored_states",
    "compliance.enqueued_states",
)

#: Cache adapters the snapshot must report on (hits/misses/currsize).
REQUIRED_CACHES = (
    "contracts.projection",
    "contracts.lts",
)

#: Keys of the per-pass planner summary embedded in S2 cases.
S2_PLANNER_KEYS = ("plans_analyzed", "plans_valid", "plans_pruned",
                   "memo_hits", "memo_misses")

#: Counter keys every instrumented B1 case must have recorded.
B1_REQUIRED_COUNTERS = ("staticcheck.explored_states",)

#: Cache adapters that must additionally appear in B1 snapshots.
B1_REQUIRED_CACHES = ("staticcheck.validity",)

ACCEPTED_SCHEMAS = ("repro-bench.v1", "repro-bench.v2", "repro-bench.v3",
                    "repro-bench.v4", "repro-bench.v5", "repro-bench.v6")

#: Deciders whose warm solve time every v3+ S1 case must report.
V3_S1_ENGINES = ("onthefly", "eager", "gfp", "compiled")

#: Keys every v3 S1 case must carry beside the timings.
V3_S1_CASE_KEYS = ("compile_seconds", "compiled_speedup",
                   "verdicts_agree")

#: Keys every v3–v5 S3 certifier case must carry.
V3_S3_CERTIFIER_KEYS = ("interpreted_seconds", "compiled_seconds",
                        "compile_seconds", "compiled_speedup",
                        "certificates_identical", "explored_states")

#: Cache adapter that must appear in v3–v5 S3 certifier snapshots: the
#: compiled term-table memo proves the compiled path actually ran.
V3_S3_CERTIFIER_CACHE = "compiled.validity_terms"

#: Keys every v4 S4 registry case must carry.
V4_S4_CASE_KEYS = ("entries", "build_seconds", "indexed_seconds",
                   "exhaustive_seconds", "lookup_speedup",
                   "pruning_ratio", "verdicts_identical")

#: Counter prefixes the v4 S4 instrumentation snapshot must include:
#: the registry path really ran, with its query counters recorded.
V4_S4_COUNTER_PREFIXES = ("registry.adds", "registry.queries")

#: Keys every v5 R2 case must carry.
V5_R2_CASE_KEYS = ("scenario", "seeds", "modes", "verdicts_agree")

#: Keys both recovery modes of a v5 R2 case must report.
V5_R2_MODE_KEYS = ("seconds", "runs", "completed", "disturbed",
                   "recovered", "recovered_ratio",
                   "median_recovery_steps", "median_recovery_ticks",
                   "rollbacks", "retries", "replans")

#: Counter prefix the v5 R2 instrumentation snapshot must include: the
#: checkpoint-rollback recovery path really ran.
V5_R2_COUNTER_PREFIX = "resilience.rollbacks"


def _check_snapshot(metrics: dict, where: str, errors: list[str],
                    required_counters: tuple[str, ...] = ()) -> None:
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{where}: metrics.counters missing")
        return
    for key in required_counters:
        if key not in counters:
            errors.append(f"{where}: counter {key!r} missing")
    caches = metrics.get("caches")
    if not isinstance(caches, dict):
        errors.append(f"{where}: metrics.caches missing")
        return
    for name in REQUIRED_CACHES:
        stats = caches.get(name)
        if not isinstance(stats, dict):
            errors.append(f"{where}: cache stats for {name!r} missing")
            continue
        for field in ("hits", "misses", "currsize"):
            if field not in stats:
                errors.append(f"{where}: cache {name!r} lacks {field!r}")


def _check_v3_s1_case(case: dict, where: str,
                      errors: list[str]) -> None:
    engine_seconds = case.get("engine_seconds")
    if not isinstance(engine_seconds, dict):
        errors.append(f"{where}: engine_seconds missing (v3)")
    else:
        for engine in V3_S1_ENGINES:
            if engine not in engine_seconds:
                errors.append(f"{where}: engine_seconds lacks "
                              f"{engine!r}")
    for key in V3_S1_CASE_KEYS:
        if key not in case:
            errors.append(f"{where}: key {key!r} missing (v3)")
    if case.get("verdicts_agree") is not True:
        errors.append(f"{where}: verdicts_agree is not true")


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable ({error})"]

    schema = report.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        errors.append(f"{path}: schema {schema!r} not in "
                      f"{ACCEPTED_SCHEMAS}")
        return errors

    if schema == "repro-bench.v1":
        # v1 predates the instrumentation snapshots: schema recognised,
        # nothing further to require.
        return errors
    v3 = schema in ("repro-bench.v3", "repro-bench.v4", "repro-bench.v5",
                    "repro-bench.v6")
    v4 = schema in ("repro-bench.v4", "repro-bench.v5", "repro-bench.v6")
    v5 = schema in ("repro-bench.v5", "repro-bench.v6")
    s3_certifiers = v3 and schema != "repro-bench.v6"
    suites = report.get("suites", {})
    for case_index, case in enumerate(suites.get("s1", {}).get("cases",
                                                               ())):
        where = f"{path}: s1.cases[{case_index}]"
        if v3:
            _check_v3_s1_case(case, where, errors)
        metrics = case.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics object missing")
            continue
        _check_snapshot(metrics, where, errors, S1_REQUIRED_COUNTERS)
    for case_index, case in enumerate(suites.get("s2", {}).get("cases",
                                                               ())):
        where = f"{path}: s2.cases[{case_index}]"
        metrics = case.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics object missing")
            continue
        _check_snapshot(metrics, where, errors)
        planner = metrics.get("planner")
        if not isinstance(planner, dict):
            errors.append(f"{where}: metrics.planner summary missing")
        else:
            for key in S2_PLANNER_KEYS:
                if key not in planner:
                    errors.append(f"{where}: planner key {key!r} missing")
    for case_index, case in enumerate(suites.get("s3", {}).get("cases",
                                                               ())):
        where = f"{path}: s3.cases[{case_index}]"
        metrics = case.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics object missing")
            continue
        counters = metrics.get("counters", {})
        if not any(key.startswith("monitor.labels") for key in counters):
            errors.append(f"{where}: monitor.labels counters missing")
    if s3_certifiers and "s3" in suites:
        certifier_cases = suites["s3"].get("certifier_cases")
        if not isinstance(certifier_cases, list) or not certifier_cases:
            errors.append(f"{path}: s3.certifier_cases missing (v3)")
        else:
            for case_index, case in enumerate(certifier_cases):
                where = f"{path}: s3.certifier_cases[{case_index}]"
                for key in V3_S3_CERTIFIER_KEYS:
                    if key not in case:
                        errors.append(f"{where}: key {key!r} missing")
                metrics = case.get("metrics")
                caches = (metrics.get("caches", {})
                          if isinstance(metrics, dict) else {})
                if V3_S3_CERTIFIER_CACHE not in caches:
                    errors.append(
                        f"{where}: cache stats for "
                        f"{V3_S3_CERTIFIER_CACHE!r} missing")
    if v4:
        for case_index, case in enumerate(suites.get("s4", {}).get(
                "cases", ())):
            where = f"{path}: s4.cases[{case_index}]"
            for key in V4_S4_CASE_KEYS:
                if key not in case:
                    errors.append(f"{where}: key {key!r} missing (v4)")
            if case.get("verdicts_identical") is not True:
                errors.append(f"{where}: verdicts_identical is not true")
            metrics = case.get("metrics")
            if not isinstance(metrics, dict):
                errors.append(f"{where}: metrics object missing")
                continue
            _check_snapshot(metrics, where, errors)
            counters = metrics.get("counters", {})
            for prefix in V4_S4_COUNTER_PREFIXES:
                if not any(key.startswith(prefix) for key in counters):
                    errors.append(f"{where}: counter {prefix!r}* missing")
    if v5:
        for case_index, case in enumerate(suites.get("r2", {}).get(
                "cases", ())):
            where = f"{path}: r2.cases[{case_index}]"
            for key in V5_R2_CASE_KEYS:
                if key not in case:
                    errors.append(f"{where}: key {key!r} missing (v5)")
            if case.get("verdicts_agree") is not True:
                errors.append(f"{where}: verdicts_agree is not true")
            modes = case.get("modes")
            if not isinstance(modes, dict):
                errors.append(f"{where}: modes object missing")
            else:
                for mode in ("rollback", "replan"):
                    entry = modes.get(mode)
                    if not isinstance(entry, dict):
                        errors.append(f"{where}: mode {mode!r} missing")
                        continue
                    for key in V5_R2_MODE_KEYS:
                        if key not in entry:
                            errors.append(f"{where}: mode {mode!r} "
                                          f"lacks {key!r}")
            metrics = case.get("metrics")
            if not isinstance(metrics, dict):
                errors.append(f"{where}: metrics object missing")
                continue
            counters = metrics.get("counters", {})
            if not any(key.startswith(V5_R2_COUNTER_PREFIX)
                       for key in counters):
                errors.append(f"{where}: counter "
                              f"{V5_R2_COUNTER_PREFIX!r}* missing")
    for case_index, case in enumerate(suites.get("b1", {}).get("cases",
                                                               ())):
        where = f"{path}: b1.cases[{case_index}]"
        metrics = case.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics object missing")
            continue
        _check_snapshot(metrics, where, errors, B1_REQUIRED_COUNTERS)
        caches = metrics.get("caches", {})
        for name in B1_REQUIRED_CACHES:
            stats = caches.get(name) if isinstance(caches, dict) else None
            if not isinstance(stats, dict):
                errors.append(f"{where}: cache stats for {name!r} missing")
        if "explored_states" not in case:
            errors.append(f"{where}: explored_states missing")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_metrics_schema.py BENCH_*.json",
              file=sys.stderr)
        return 2
    failures: list[str] = []
    for name in argv:
        failures.extend(check_file(Path(name)))
    if failures:
        for failure in failures:
            print(f"SCHEMA ERROR: {failure}", file=sys.stderr)
        return 1
    print(f"ok: {len(argv)} benchmark file(s) carry the required "
          "metrics snapshots")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
