#!/usr/bin/env python
"""The perf-regression sentinel: compare two ``BENCH_<n>.json`` files.

Benchmark trajectory files record wall-clock timings, which vary across
machines — but the *ratio* indicators inside them (eager/on-the-fly
speedups, compiled-core speedups, memoisation gains, monitor overheads,
amortisation factors) are timing ratios of two measurements taken on the
same machine in the same run, so they transfer.  The sentinel compares
every indicator both files share and fails when the candidate degraded
past the tolerance — a cheap tripwire against performance regressions
sneaking into a PR whose benchmarks "still ran fine" on faster hardware.

Usage::

    python benchmarks/check_regression.py                 # newest vs previous
    python benchmarks/check_regression.py --dir results/
    python benchmarks/check_regression.py --baseline BENCH_1.json \
        --candidate BENCH_2.json --tolerance 0.4 --format json

With no explicit files the two highest-numbered ``BENCH_<n>.json`` in
``--dir`` (default: the repository root) are compared, the highest as
the candidate.  ``--tolerance F`` is the allowed fractional degradation
(default 0.4: a higher-is-better indicator may drop to 60% of the
baseline; a 2x slowdown trips).  Only indicators present in *both*
files are compared, so a v1 baseline checks fewer dimensions than a v3
one — never spuriously fails on missing data.

Exit status: 0 — no regression; 1 — at least one indicator regressed;
2 — usage error (unreadable files, fewer than two benchmark files).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from statistics import median

#: Identifier of the JSON verdict layout below.
VERDICT_SCHEMA = "repro-regression.v1"

#: Allowed fractional degradation before an indicator trips.
DEFAULT_TOLERANCE = 0.4


def _suite_key(suite: dict, key: str) -> float | None:
    value = suite.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _case_ratio_median(suite: dict, numerator: str,
                       denominator: str) -> float | None:
    ratios = []
    for case in suite.get("cases", ()):
        num = case.get(numerator)
        den = case.get(denominator)
        if isinstance(num, (int, float)) and isinstance(den, (int, float)) \
                and den > 0:
            ratios.append(num / den)
    return median(ratios) if ratios else None


def _case_key_median(suite: dict, key: str) -> float | None:
    values = [case[key] for case in suite.get("cases", ())
              if isinstance(case.get(key), (int, float))]
    return median(values) if values else None


#: (suite, indicator name, direction, extractor).  ``higher`` means a
#: larger value is better (a speedup); ``lower`` the opposite (an
#: overhead).  Extractors return ``None`` when the file lacks the data.
INDICATORS = (
    ("s1", "noncompliant_mean_speedup", "higher",
     lambda s: _suite_key(s, "noncompliant_mean_speedup")),
    ("s1", "compiled_median_speedup", "higher",
     lambda s: _suite_key(s, "compiled_median_speedup")),
    ("s2", "memoized_mean_speedup", "higher",
     lambda s: _suite_key(s, "memoized_mean_speedup")),
    ("s3", "monitor_median_speedup", "higher",
     lambda s: _case_ratio_median(s, "declarative_seconds",
                                  "monitor_seconds")),
    ("s4", "median_pruning_ratio", "higher",
     lambda s: _suite_key(s, "median_pruning_ratio")),
    ("s4", "median_lookup_speedup", "higher",
     lambda s: _suite_key(s, "median_lookup_speedup")),
    ("r1", "fault_free_overhead", "lower",
     lambda s: _suite_key(s, "fault_free_overhead")),
    ("r2", "rollback_recovered_ratio", "higher",
     lambda s: _suite_key(s, "rollback_recovered_ratio")),
    ("r2", "median_steps_saving", "higher",
     lambda s: _suite_key(s, "median_steps_saving")),
    ("r2", "median_ticks_saving", "higher",
     lambda s: _suite_key(s, "median_ticks_saving")),
    ("b1", "median_amortisation", "higher",
     lambda s: _case_key_median(s, "amortisation")),
)


def load_bench(path: Path) -> dict:
    """The ``suites`` table of one benchmark file (raises on junk)."""
    report = json.loads(path.read_text())
    schema = str(report.get("schema", ""))
    if not schema.startswith("repro-bench."):
        raise ValueError(f"{path}: not a benchmark file "
                         f"(schema {schema!r})")
    return report.get("suites", {})


def compare(baseline: dict, candidate: dict,
            tolerance: float) -> list[dict]:
    """Per-indicator comparison records for every shared indicator."""
    records = []
    for suite_name, indicator, direction, extract in INDICATORS:
        base_suite = baseline.get(suite_name)
        cand_suite = candidate.get(suite_name)
        if not isinstance(base_suite, dict) \
                or not isinstance(cand_suite, dict):
            continue
        base_value = extract(base_suite)
        cand_value = extract(cand_suite)
        if base_value is None or cand_value is None or base_value <= 0:
            continue
        ratio = cand_value / base_value
        floor = 1.0 - tolerance
        if direction == "higher":
            ok = ratio >= floor
        else:
            ok = ratio <= 1.0 / floor
        records.append({"suite": suite_name, "indicator": indicator,
                        "direction": direction,
                        "baseline": base_value, "candidate": cand_value,
                        "ratio": ratio, "ok": ok})
    return records


def discover(directory: Path) -> tuple[Path, Path]:
    """(baseline, candidate): the two highest-numbered BENCH files."""
    numbered = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    numbered.sort()
    if len(numbered) < 2:
        raise ValueError(
            f"{directory}: need at least two BENCH_<n>.json files to "
            f"compare (found {len(numbered)})")
    return numbered[-2][1], numbered[-1][1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare ratio indicators of two benchmark files")
    parser.add_argument("--dir", default=None,
                        help="directory holding BENCH_<n>.json files "
                             "(default: the repository root)")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline file (overrides --dir "
                             "discovery)")
    parser.add_argument("--candidate", default=None,
                        help="explicit candidate file")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional degradation "
                             "(default %(default)s)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)

    if (args.baseline is None) != (args.candidate is None):
        print("error: --baseline and --candidate go together",
              file=sys.stderr)
        return 2
    try:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
            candidate_path = Path(args.candidate)
        else:
            directory = (Path(args.dir) if args.dir is not None
                         else Path(__file__).resolve().parent.parent)
            baseline_path, candidate_path = discover(directory)
        baseline = load_bench(baseline_path)
        candidate = load_bench(candidate_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    records = compare(baseline, candidate, args.tolerance)
    regressions = [record for record in records if not record["ok"]]
    verdict = {
        "schema": VERDICT_SCHEMA,
        "baseline": baseline_path.name,
        "candidate": candidate_path.name,
        "tolerance": args.tolerance,
        "indicators": records,
        "compared": len(records),
        "regressions": len(regressions),
        "ok": not regressions,
    }
    if args.format == "json":
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(f"regression check: {candidate_path.name} vs "
              f"{baseline_path.name} (tolerance {args.tolerance})")
        for record in records:
            marker = "ok  " if record["ok"] else "FAIL"
            print(f"  {marker} {record['suite']}."
                  f"{record['indicator']:<36} "
                  f"{record['baseline']:>12.4f} -> "
                  f"{record['candidate']:>12.4f}  "
                  f"(x{record['ratio']:.3f}, {record['direction']} "
                  f"is better)")
        summary = ("no regressions" if not regressions
                   else f"{len(regressions)} regression(s)")
        print(f"{len(records)} indicator(s) compared: {summary}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
