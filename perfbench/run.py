"""End-to-end and per-layer benchmark of the ``repro`` tool.

Usage, from the root of a checkout::

    for w in certify-cold chaos-cold discover-warm; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 \
            --trace 0
    done
    python3 -m pytest perfbench/tests      # the tracer's self-tests

Workloads (each in its own process, one thread, closed loop: the next op
starts when the previous one returned, as for a CLI user or a registry
caller waiting on each answer):

* ``certify-cold`` -- ``repro analyze --format json`` on seeded Figure-2
  booking modules with planted defects, every op from cold;
* ``chaos-cold`` -- ``repro chaos --format json`` campaigns of a few
  seeded crash/drop/stall trials on resilient booking networks, from
  cold;
* ``discover-warm`` -- ``find_compliant``/``find_substitutable`` queries
  interleaved with ``add``/``update`` writes on one long-lived
  ``ContractRegistry`` larger than the program's own caches.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh interpreters of the time to the first timed op: imports,
plus populating the registry in ``discover-warm``; input generation
excluded), ``op_p50_ms``, ``op_p90_ms``, ``ops_per_s`` (ops over the
summed op time; the cold reset between ops is outside it) and
``peak_rss_mb``.  ``failed_ratio`` and the op counts are printed beside
them; in the JSON line they are ``failed`` and ``attempted``.

Times are given at a fixed machine speed.  On a shared host the same op
can take 85% longer from one minute to the next, so a fixed piece of
interpreter work that no version of the program changes
(``worker.reference``) runs just before and after every op and around
every set-up, and each wall time is multiplied by 1 ms over that
reference run's time.  A change to the program moves these times as it
moves wall time; the machine's own speed cancels.  The wall-clock
figures and the reference time are printed beside them.
``--trace 1`` traces alternate blocks of ops in the timed window and
prints per-op layer metrics (``perfbench/layers.py``) with
``trace.overhead_ratio``, the traced ops' rate over the untraced ones',
and runs the cold-reset self-check.

Every op's output is checked against a known answer built into the
generated input.  Known defects of the program are probed outside the
timed window and reported as ``known defect PRESENT`` lines, not as
failed ops.  The last stdout line is the JSON result.

Seeds: any integer; the same seed gives the same inputs, whose digest is
printed.  Seed 7001 is kept out of tuning, to check later claims on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up
#: that fills the bytecode cache); the timed run's own set-up is one more.
SETUP_PROBES = 4

#: Everything a run does must end by then (the limit is 180 s).
RUN_DEADLINE_S = 170

UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Runner:
    """Spawns worker interpreters for one benchmark run."""

    def __init__(self, root: str, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        build = os.path.join(root, ".bench_build")
        self.workdir = os.path.join(build, "perfbench",
                                    f"{args.workload}-{args.seed}-"
                                    f"{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONPYCACHEPREFIX": os.path.join(build, "pycache"),
            "PYTHONHASHSEED": "0",
        })

    def spawn(self, mode: str) -> tuple[float, float, dict | None]:
        """Run one worker; returns its set-up time at the fixed machine
        speed and on the wall clock (seconds), and its result payload."""
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--seconds", str(self.args.seconds),
                   "--mode", mode, "--workdir", self.workdir]
        started = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   env=self.env, text=True)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                process.kill)
        timer.start()
        wall = scale = result = None
        try:
            for line in process.stdout:
                if not line.startswith("PERFBENCH "):
                    continue
                _, tag, payload = line.split(" ", 2)
                if tag == "READY":
                    wall = (time.perf_counter() - started
                            - json.loads(payload)["excluded_s"])
                elif tag == "SPEED":
                    scale = json.loads(payload)["scale"]
                elif tag == "RESULT":
                    result = json.loads(payload)
        finally:
            code = process.wait()
            timer.cancel()
        if code != 0 or wall is None or scale is None or (
                mode != "setup" and result is None):
            raise BenchError(f"{mode} worker exited with {code}")
        return wall * scale, wall, result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def untraced(runner: Runner) -> tuple[dict, list[str], bool]:
    runner.spawn("setup")  # fills the bytecode cache; not timed
    setups = [runner.spawn("setup")[:2] for _ in range(SETUP_PROBES)]
    setup, setup_wall, result = runner.spawn("run")
    setups.append((setup, setup_wall))
    wall = result["wall"]
    metrics = {"setup_s": statistics.median(s for s, _ in setups),
               "op_p50_ms": result["p50_ms"],
               "op_p90_ms": result["p90_ms"],
               "ops_per_s": result["ops_per_s"],
               "peak_rss_mb": result["peak_rss_mb"]}
    ops = result["ops"]
    lines = [
        f"  times at the fixed machine speed (wall clock in brackets; "
        f"reference run {result['reference_ms']:.3f} ms, nominal 1 ms)",
        f"  setup_s      {metrics['setup_s']:10.4f} s    "
        f"[{statistics.median(w for _, w in setups):.4f}]  median of "
        f"{len(setups)} fresh interpreters",
        f"  op_p50_ms    {metrics['op_p50_ms']:10.3f} ms   "
        f"[{wall['p50_ms']:.3f}]  {ops} ops",
        f"  op_p90_ms    {metrics['op_p90_ms']:10.3f} ms   "
        f"[{wall['p90_ms']:.3f}]  {ops} ops, {result['beyond_p90']} "
        f"beyond it",
        f"  ops_per_s    {metrics['ops_per_s']:10.3f} 1/s  "
        f"[{wall['ops_per_s']:.3f}]  {ops} ops",
        f"  failed_ratio {result['failed'] / ops:10.4f}      "
        f"{result['failed']} of {ops} ops",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MB",
    ]
    if result["beyond_p90"] < 10:
        lines.append(f"  note: only {result['beyond_p90']} ops beyond "
                     f"op_p90_ms; raise --seconds")
    return _finish(result, metrics, lines)


def traced(runner: Runner, workload: str) -> tuple[dict, list[str], bool]:
    *_, result = runner.spawn("trace")
    metrics = result["metrics"]
    lines = [f"  {result['untraced']['ops']} untraced and "
             f"{result['traced']['ops']} traced ops in alternating blocks; "
             f"{result['spans']} spans written to "
             f"{os.path.relpath(result['spans_file'])}"]
    names = layers.metric_names()
    width = max(len(name) for name in names)
    lines += [f"  {name:<{width}} {metrics[name]:14.6f}" for name in names]
    if result["missing"]:
        lines.append(f"  note: entry points not in the program, their "
                     f"layers read 0: {', '.join(result['missing'])}")
    traced_ms = metrics["op.traced_ms"]
    summed = result["self_sum_ms"]
    sums_ok = abs(summed - traced_ms) <= 1e-6 * max(1.0, traced_ms)
    lines.append(f"  self times sum to {summed:.6f} ms per op; traced op "
                 f"{traced_ms:.6f} ms: {'ok' if sums_ok else 'MISMATCH'}")
    correct = sums_ok
    if WORKLOADS[workload].cold:
        *_, check = runner.spawn("selfcheck")
        report = check["selfcheck"]
        correct = correct and report["passed"]
        lines.append(f"  cold-reset self-check: "
                     f"{'passed' if report['passed'] else 'FAILED'}; "
                     f"first op of a fresh interpreter did "
                     f"{json.dumps(report['fresh'])}")
        if report["differs_after_full_reset"]:
            lines.append(f"    after the full reset: "
                         f"{report['differs_after_full_reset']}")
        lines.append(f"    after clear_contract_caches() alone, "
                     f"[fresh, then] differ on: "
                     f"{report['differs_after_clear_contract_caches']}")
    payload, lines, ok = _finish(result, metrics, lines)
    return payload, lines, ok and correct


def _finish(result: dict, metrics: dict, lines: list[str]
            ) -> tuple[dict, list[str], bool]:
    correct = result["failed"] == 0
    for failure in result["failures"]:
        lines.append(f"  FAILED op: {failure}")
    for name, passed, detail in result["checks"]:
        correct = correct and passed
        lines.append(f"  check {'ok  ' if passed else 'FAIL'} {name}: "
                     f"{detail}")
    for name, passed, detail in result["known_defects"]:
        lines.append(f"  known defect {'fixed' if passed else 'PRESENT'}: "
                     f"{name}: {detail} (outside the timed window, not "
                     f"counted in failed)")
    if result["lazy_imports"]:
        lines.append(f"  note: ops imported {result['lazy_imports']} "
                     f"lazily, outside setup_s")
    payload = {"attempted": result["ops"], "failed": result["failed"],
               "digest": result["digest"], "metrics": metrics}
    return payload, lines, correct


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(f"error: {root} holds no src/repro/cli.py; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    runner = Runner(root, args)
    try:
        if args.trace:
            payload, lines, correct = traced(runner, args.workload)
        else:
            payload, lines, correct = untraced(runner)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"inputs={payload['digest']} trace={args.trace} "
          f"(one client, closed loop)")
    for line in lines:
        print(line)
    if args.trace:
        units = {name: layers.unit(name) for name in payload["metrics"]}
    else:
        units = UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in payload["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
