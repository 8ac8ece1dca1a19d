"""One workload in one fresh interpreter; spawned by ``run.py``.

Modes:

* ``setup`` -- import and build what the first op needs, report READY,
  exit (the set-up probes);
* ``run`` -- set up, then the closed-loop timed window, then the checks
  outside it;
* ``trace`` -- set up, then the timed window in alternating untraced and
  traced blocks of ops: spans around every layer entry point on the
  traced ones, the untraced ones beside them for the overhead ratio;
* ``selfcheck`` -- the first op of a fresh interpreter, then the same op
  after ``clear_contract_caches()`` alone and after the full cold reset,
  comparing the per-layer work of each.

Protocol lines go to the original stdout as ``PERFBENCH <TAG> <json>``;
the program's own output is captured per op.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

#: What a user of each workload's entry point imports on every
#: invocation: ``repro.cli`` and the subsystems the ops load lazily.
IMPORTS = {
    "certify-cold": ("repro.cli", "repro.staticcheck",
                     "repro.quantitative.policies"),
    "chaos-cold": ("repro.cli", "repro.resilience",
                   "repro.quantitative.policies"),
    "discover-warm": ("repro.cli", "repro.registry"),
}

#: An op slower than this counts as failed.
OP_CAP_NS = 30 * 10 ** 9

#: Times are reported at the speed where one :func:`reference` run takes
#: this long (1 ms).
REFERENCE_NS = 10 ** 6

OUT = sys.stdout


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, next_node) -> None:
        self.value = value
        self.next = next_node


def reference() -> int:
    """Nanoseconds of a fixed piece of interpreter work -- allocation,
    tuple hashing, dict traffic -- that no version of the program
    changes.  Run beside every timed interval, it measures how fast the
    machine is at that moment (on a shared host the same op can take 85%
    longer from one minute to the next); a time times
    ``REFERENCE_NS / reference()`` is the time at a fixed machine speed.
    The collector is off inside, so the program's heap cannot slow it."""
    gc.disable()
    try:
        begin = time.perf_counter_ns()
        table: dict = {}
        chain = None
        for i in range(1500):
            chain = (i % 13, chain if i % 7 else None)
            table[hash(chain)] = _Node(i, table.get(i))
        return time.perf_counter_ns() - begin
    finally:
        gc.enable()


def import_all(modules) -> None:
    """Import *modules*, skipping any the program no longer has."""
    for name in modules:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError as error:
            if error.name != name:
                raise


def emit(tag: str, payload) -> None:
    OUT.write(f"PERFBENCH {tag} {json.dumps(payload)}\n")
    OUT.flush()


def timed_pass(workload, ops, seconds: float, tracer_for=None,
               min_ops: int = 1):
    """Closed loop for *seconds* of wall time and at least *min_ops* ops:
    each op starts when the previous one returned.  The cold reset
    between ops, the reference runs just before and after each op and
    the output check are outside the timed interval.
    ``tracer_for(number)`` returns the tracer to record op *number* with,
    or ``None``.  Returns one ``(nanoseconds, scale, traced, error)``
    record per op, where *scale* converts the op's wall time to the
    fixed machine speed, and the first op's output."""
    from workloads import cold_reset

    records = []
    first = None
    started = time.perf_counter()
    for number in itertools.count():
        if (number >= min_ops
                and time.perf_counter() - started >= seconds):
            break
        index = next(ops)
        tracer = tracer_for(number) if tracer_for else None
        if workload.cold:
            cold_reset()
        before = reference()
        begin = time.perf_counter_ns()
        try:
            if tracer is None:
                output = workload.run(index)
            else:
                output = tracer.run_op(number, workload.run, index)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - begin
        scale = 2 * REFERENCE_NS / (before + reference())
        if error is None:
            error = workload.check(index, output)
        if error is None and elapsed > OP_CAP_NS:
            error = f"op took {elapsed / 1e9:.1f} s"
        if number == 0:
            first = output
        records.append((elapsed, scale, tracer is not None, error))
    return records, first


def _latency(ms: list[float]) -> dict:
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0]
    return {"p50_ms": statistics.median(ms), "p90_ms": p90,
            "beyond_p90": sum(1 for value in ms if value > p90),
            "ops_per_s": len(ms) / (sum(ms) / 1e3)}


def summary(records) -> dict:
    """Latency at the fixed machine speed, with the wall-clock figures
    and the machine's speed (median reference time) beside it."""
    failures = [error for *_, error in records if error is not None]
    result = {"ops": len(records), "failed": len(failures),
              "failures": failures[:5],
              "reference_ms": statistics.median(
                  REFERENCE_NS / scale for _, scale, *_ in records) / 1e6}
    result.update(_latency([elapsed * scale / 1e6
                            for elapsed, scale, *_ in records]))
    result["wall"] = _latency([elapsed / 1e6 for elapsed, *_ in records])
    return result


def selfcheck(workload) -> dict:
    """Per-layer work of the first op of this interpreter versus the same
    op after each reset."""
    import layers
    import spans
    from workloads import cold_reset

    caches = []
    for module_name, attr in (("repro.contracts.contract", "_projection_of"),
                              ("repro.contracts.contract", "_lts_of"),
                              ("repro.compiled.tables", "_compile"),
                              ("repro.core.compliance", "_cached_contract"),
                              ("repro.analysis.requests",
                               "extract_requests")):
        function = getattr(importlib.import_module(module_name), attr, None)
        if function is not None:
            caches.append((f"{module_name}.{attr}.misses", function))
    import_all(layers.MODULES)
    tracer = spans.Tracer()
    spans.Patch(tracer, layers.ENTRY_POINTS).apply()

    def work() -> dict:
        calls, counts = dict(tracer.calls), dict(tracer.counts)
        misses = {name: fn.cache_info().misses for name, fn in caches}
        tracer.run_op(0, workload.run, 0)
        done = {f"{name}.calls": tracer.calls[name] - calls.get(name, 0)
                for name in tracer.calls}
        done.update({name: tracer.counts[name] - counts.get(name, 0)
                     for name in tracer.counts})
        done.update({name: fn.cache_info().misses - misses[name]
                     for name, fn in caches})
        return {key: value for key, value in sorted(done.items())
                if value}

    fresh = work()
    cold_reset(full=False)
    seed_reset = work()
    cold_reset()
    full_reset = work()
    return {"passed": fresh == full_reset,
            "fresh": fresh,
            "differs_after_full_reset": _diff(fresh, full_reset),
            "differs_after_clear_contract_caches": _diff(fresh, seed_reset)}


def _diff(a: dict, b: dict) -> dict:
    return {key: [a.get(key, 0), b.get(key, 0)]
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "selfcheck"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    speed = [reference() for _ in range(3)]
    excluded = time.perf_counter() - started
    import_all(IMPORTS[args.workload])
    generating = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    excluded += time.perf_counter() - generating
    workload.setup()
    emit("READY", {"excluded_s": excluded})
    speed += [reference() for _ in range(3)]
    emit("SPEED", {"scale": REFERENCE_NS / statistics.median(speed)})
    if args.mode == "setup":
        return 0

    digest = workload.generate()
    if args.mode == "selfcheck":
        emit("RESULT", {"digest": digest, "selfcheck": selfcheck(workload)})
        return 0

    if args.mode == "run":
        before = set(sys.modules)
        records, first = timed_pass(workload, workload.ops(), args.seconds)
        result = summary(records)
    else:
        import layers
        import spans
        import_all(layers.MODULES)
        before = set(sys.modules)
        tracer = spans.Tracer()
        patch = spans.Patch(tracer, layers.ENTRY_POINTS)

        def alternate(number: int):
            """Untraced and traced blocks in turn; a block of a cold
            workload holds every input shape once, so both sides run the
            same mix."""
            if (number // workload.block) % 2:
                patch.apply()
                return tracer
            patch.revert()
            return None

        tracer.watch_gc()
        records, first = timed_pass(workload, workload.ops(), args.seconds,
                                    alternate, min_ops=2 * workload.block)
        tracer.unwatch_gc()
        patch.revert()
        untraced = summary([r for r in records if not r[2]])
        traced = summary([r for r in records if r[2]])
        scale = {number: record[1] for number, record in enumerate(records)}
        metrics = layers.per_op_metrics(tracer, traced["ops"], scale)
        metrics["trace.overhead_ratio"] = (traced["ops_per_s"]
                                           / untraced["ops_per_s"])
        self_sum = sum(value for key, value in metrics.items()
                       if key.endswith(".self_ms"))
        spans_file = os.path.join(os.path.dirname(args.workdir),
                                  f"{args.workload}-{args.seed}.spans.jsonl")
        tracer.write(spans_file)
        result = {"ops": len(records),
                  "failed": untraced["failed"] + traced["failed"],
                  "failures": (untraced["failures"] + traced["failures"])[:5],
                  "untraced": untraced, "traced": traced,
                  "metrics": metrics, "self_sum_ms": self_sum,
                  "spans": len(tracer.spans), "spans_file": spans_file,
                  "missing": patch.missing}
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    result["lazy_imports"] = sorted(name for name in set(sys.modules) - before
                                    if name.startswith("repro"))
    result["digest"] = digest
    result["checks"] = workload.after(first)
    result["known_defects"] = workload.known_defects()
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
