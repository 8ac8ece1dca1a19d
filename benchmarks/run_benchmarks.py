#!/usr/bin/env python
"""Benchmark trajectory runner: execute the S1/S2/S3 scaling suites and
emit a ``BENCH_<n>.json`` file, so performance PRs are measured against
the previous trajectory instead of asserted.

Unlike the pytest-benchmark suites (``test_s*.py``), which measure one
code path per test, this runner measures *pairs* of paths in the same
process and records their ratio:

* **S1** — product-automaton emptiness: every compliance decider
  (``onthefly`` = ``search_product``, ``eager`` = ``build_product``,
  ``gfp`` = ``certify_compliance``, the exhaustive product BFS (the key
  keeps its old name), ``compiled`` =
  ``compiled_search`` over interned tables) called directly and timed
  *warm* on the same cases, with the table-lowering time of the
  compiled search reported separately and verdict agreement asserted
  across all deciders, on compliant pairs and on non-compliant pairs
  with deep and shallow counterexamples;
* **S2** — plan synthesis: ``find_valid_plans`` with memoisation and
  pruning off vs on, asserting the valid/invalid partitions agree;
* **S3** — validity: the declarative checker vs the incremental
  ``ValidityMonitor`` plus monitor snapshots (``copy``);
* **S4** — registry discovery: a signature-indexed
  :class:`ContractRegistry` populated with a seeded contract family,
  answering ``find_compliant``/``find_substitutable`` query batches via
  bucket pruning + fingerprint dedup vs the exhaustive all-pairs
  product/preorder baseline, match sets asserted identical;
* **R1** — resilience: the bare simulator vs the fault-free supervised
  run (the supervision tax), and the supervised run under a transient
  drop (retry) and a crash with an alternative (failover);
* **R2** — reversible recovery: checkpoint rollback vs
  replan-from-scratch on branchy workloads under permanent drops
  (recovered-session ratio, median steps/ticks to recover — all on the
  simulated clock), plus a seeded chaos comparison with rollback on vs
  off, compliance verdicts asserted identical across the four ordinary
  deciders, and ordinary compliance asserted to imply reversible
  compliance;
* **B1** — static certification: one ``certify_validity`` pass over the
  ⟨residual, monitor⟩ product vs K seeded monitor-checked random runs,
  asserting the verdicts agree and rejection witnesses replay.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--quick]
        [--output-dir DIR] [--suites s1,s2,s3,s4,r1,r2,b1] [--repeats N]

The output file is ``BENCH_<n>.json`` with the smallest unused ``n`` in
the output directory (repository root by default); see DESIGN.md
("Performance architecture") for how to read it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
for entry in (str(_ROOT / "src"), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.analysis.planner import find_valid_plans  # noqa: E402
from repro.contracts.contract import (Contract,  # noqa: E402
                                      clear_contract_caches)
from repro.core import compliance  # noqa: E402
from repro.core.actions import Event, FrameClose, FrameOpen  # noqa: E402
from repro.core.compliance import check_compliance  # noqa: E402
from repro.core.validity import (History, ValidityMonitor,  # noqa: E402
                                 is_valid)
from repro.network.monitor import ReferenceMonitor  # noqa: E402
from repro.observability import (metrics_snapshot,  # noqa: E402
                                 reset_cache_stats, telemetry_session)
from repro.policies.library import at_most  # noqa: E402

from workloads import (almost_compliant_server, chain_client,  # noqa: E402
                       wide_client, wide_server, worker_pool)


def _clear_caches() -> None:
    """Reset every shared cache so timed runs start cold and comparable."""
    clear_contract_caches()
    compliance._cached_contract.cache_clear()
    reset_cache_stats()


def _instrumented(fn) -> dict:
    """Run ``fn()`` once under a fresh telemetry session, cold caches,
    and return the metrics snapshot (counters + cache hit/miss stats).

    Timed measurements stay *uninstrumented* — telemetry is scoped to
    this extra run only, so the recorded numbers describe the workload
    without perturbing the wall-clock comparisons.
    """
    _clear_caches()
    with telemetry_session():
        fn()
        return metrics_snapshot()


def _measure(fn, repeats: int) -> float:
    """Best-of-*repeats* wall time of ``fn()``, caches cleared per run."""
    best = float("inf")
    for _ in range(repeats):
        _clear_caches()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_warm(fn, repeats: int) -> float:
    """Best-of-*repeats* wall time of ``fn()`` with caches left *warm*:
    one untimed call builds whatever LTS/tables/memos the path needs, so
    the repeats time the solve alone.  Result memos are bypassed by the
    callers (``__wrapped__`` / solver internals), never by this helper —
    a warm interpreted run still re-steps and re-hashes per state, which
    is exactly the cost the compiled tables amortise."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


# -- S1: product emptiness ---------------------------------------------------

def _s1_deciders(client_c, server_c, compiled_client, compiled_server):
    """Each S1 decider as a zero-argument call on one prepared pair.
    The eager call includes the emptiness check; the certifier is
    unwrapped of its result memo so repeats time its exhaustive BFS."""
    from repro.compiled.search import compiled_search
    from repro.contracts.product import (DEFAULT_STATE_LIMIT,
                                         build_product, search_product)
    from repro.staticcheck import compliance as static_compliance

    return {
        "onthefly": lambda: search_product(client_c, server_c),
        "eager": lambda: build_product(client_c,
                                       server_c).language_is_empty(),
        "gfp": lambda: static_compliance._certify.__wrapped__(
            client_c.term, server_c.term, DEFAULT_STATE_LIMIT),
        "compiled": lambda: compiled_search(
            compiled_client, compiled_server, DEFAULT_STATE_LIMIT),
    }


def run_s1(quick: bool, repeats: int) -> dict:
    from repro.compiled.tables import compile_contract
    from repro.contracts.product import build_product

    sizes = [(2, 2), (3, 3)] if quick else [(2, 2), (2, 4), (3, 3),
                                            (4, 2), (4, 3), (4, 4),
                                            (5, 4)]
    cases = []
    for width, depth in sizes:
        client = wide_client(width, depth)
        kinds = [
            ("compliant", wide_server(width, depth)),
            ("noncompliant_deep", almost_compliant_server(width, depth)),
            ("noncompliant_shallow",
             almost_compliant_server(width, depth,
                                     surprise_level=depth - 1))]
        if width * depth >= 20:
            # The headline size exists to exercise the largest compliant
            # product; the non-compliant kinds would add minutes of
            # eager/gfp full-product time without new information.
            kinds = kinds[:1]
        for kind, server in kinds:
            # Lower both contracts cold: the wall time of projecting,
            # building the LTSs and interning the tables is the price
            # the compiled search pays exactly once per contract.
            _clear_caches()
            client_c, server_c = Contract(client), Contract(server)
            start = time.perf_counter()
            compiled_client = compile_contract(client_c)
            compiled_server = compile_contract(server_c)
            compile_seconds = time.perf_counter() - start

            deciders = _s1_deciders(client_c, server_c, compiled_client,
                                    compiled_server)
            engine_seconds = {name: _measure_warm(decide, repeats)
                              for name, decide in deciders.items()}

            # Verdict agreement across the deciders, called directly.
            search = deciders["onthefly"]()
            compiled = deciders["compiled"]()
            verdicts = {"onthefly": search.empty,
                        "eager": deciders["eager"](),
                        "gfp": deciders["gfp"]().compliant,
                        "compiled": compiled.empty}
            assert len(set(verdicts.values())) == 1, \
                (width, depth, kind, verdicts)
            assert search.explored == compiled.explored, \
                (width, depth, kind)
            assert search.trace == compiled.trace, (width, depth, kind)

            metrics = _instrumented(
                lambda: check_compliance(client, server))
            onthefly = engine_seconds["onthefly"]
            compiled_solve = engine_seconds["compiled"]
            speedup = onthefly / max(compiled_solve, 1e-9)
            cases.append({
                "width": width, "depth": depth, "kind": kind,
                "compliant": search.empty,
                "engine_seconds": engine_seconds,
                "compile_seconds": compile_seconds,
                "table_bytes": (compiled_client.table_bytes()
                                + compiled_server.table_bytes()),
                "eager_states": len(build_product(client_c,
                                                  server_c).lts),
                "onthefly_states": search.explored,
                "verdicts_agree": True,
                "eager_over_onthefly": (engine_seconds["eager"]
                                        / max(onthefly, 1e-9)),
                "compiled_speedup": speedup,
                "metrics": metrics,
            })
            print(f"S1 w={width} d={depth} {kind:21s}: "
                  f"onthefly {onthefly * 1e3:8.2f} ms "
                  f"({search.explored:5d} st)  "
                  f"eager {engine_seconds['eager'] * 1e3:8.2f} ms  "
                  f"gfp {engine_seconds['gfp'] * 1e3:8.2f} ms  "
                  f"compiled {compiled_solve * 1e3:8.3f} ms "
                  f"(+{compile_seconds * 1e3:7.1f} ms compile)  "
                  f"{speedup:7.1f}x")
    noncompliant = [c for c in cases if not c["compliant"]]
    largest = max(c["width"] * c["depth"] for c in cases)
    largest_speedups = [c["compiled_speedup"] for c in cases
                        if c["width"] * c["depth"] == largest]
    return {
        "cases": cases,
        "verdicts_agree": True,
        "noncompliant_onthefly_faster": all(
            c["eager_over_onthefly"] > 1.0 for c in noncompliant),
        "noncompliant_mean_speedup": (
            sum(c["eager_over_onthefly"] for c in noncompliant)
            / len(noncompliant)),
        "compiled_median_speedup": _median(
            [c["compiled_speedup"] for c in cases]),
        "compiled_largest_case_speedup": _median(largest_speedups),
    }


# -- S2: plan synthesis ------------------------------------------------------

def _partition(result) -> tuple[frozenset, frozenset]:
    return (frozenset(a.plan for a in result.valid_plans),
            frozenset(a.plan for a in result.invalid_plans))


def run_s2(quick: bool, repeats: int) -> dict:
    shapes = [(2, 4), (2, 6)] if quick else [(2, 4), (3, 4), (2, 8),
                                             (3, 6)]
    cases = []
    for requests, services in shapes:
        client = chain_client(requests)
        repo = worker_pool(services, defective_every=3)
        eager = _measure(
            lambda: find_valid_plans(client, repo, memoize=False,
                                     prune=False),
            repeats)
        memoized = _measure(
            lambda: find_valid_plans(client, repo), repeats)
        _clear_caches()
        baseline = find_valid_plans(client, repo, memoize=False,
                                    prune=False)
        fast = find_valid_plans(client, repo)
        assert _partition(baseline) == _partition(fast), \
            "memoised planner changed the valid/invalid partition"
        metrics = _instrumented(lambda: find_valid_plans(client, repo))
        metrics["planner"] = fast.metrics
        cases.append({
            "requests": requests, "services": services,
            "plans": len(baseline.valid_plans) + len(
                baseline.invalid_plans),
            "valid_plans": len(baseline.valid_plans),
            "eager_seconds": eager,
            "memoized_seconds": memoized,
            "speedup": eager / max(memoized, 1e-9),
            "metrics": metrics,
        })
        print(f"S2 k={requests} s={services}: "
              f"unmemoized {eager * 1e3:8.2f} ms  "
              f"memoized {memoized * 1e3:8.2f} ms  "
              f"{eager / max(memoized, 1e-9):5.1f}x")
    return {
        "cases": cases,
        "memoized_faster": all(c["speedup"] > 1.0 for c in cases),
        "memoized_mean_speedup": (
            sum(c["speedup"] for c in cases) / len(cases)),
    }


# -- S3: validity ------------------------------------------------------------

def _history(length: int, policies: int = 3) -> History:
    labels = []
    stack = []
    for index in range(policies):
        policy = at_most(f"boom{index}", index + 1)
        labels.append(FrameOpen(policy))
        stack.append(policy)
    labels.extend(Event("tick", (i % 5,)) for i in range(length))
    while stack:
        labels.append(FrameClose(stack.pop()))
    return History(labels)


def run_s3(quick: bool, repeats: int) -> dict:
    lengths = [100] if quick else [100, 400, 800]
    cases = []
    for length in lengths:
        history = _history(length)

        def monitor_run():
            monitor = ValidityMonitor()
            for label in history:
                monitor.extend(label)
            return monitor

        declarative = _measure(lambda: is_valid(history), repeats)
        incremental = _measure(monitor_run, repeats)
        monitor = monitor_run()
        snapshots = 200
        start = time.perf_counter()
        for _ in range(snapshots):
            monitor.copy()
        copy_seconds = (time.perf_counter() - start) / snapshots
        metrics = _instrumented(
            lambda: ReferenceMonitor().observe_all(history))
        cases.append({
            "length": length,
            "declarative_seconds": declarative,
            "monitor_seconds": incremental,
            "monitor_copy_seconds": copy_seconds,
            "speedup": declarative / max(incremental, 1e-9),
            "metrics": metrics,
        })
        print(f"S3 len={length}: declarative {declarative * 1e3:8.2f} ms  "
              f"monitor {incremental * 1e3:8.2f} ms  "
              f"copy {copy_seconds * 1e6:7.1f} us  "
              f"{declarative / max(incremental, 1e-9):5.1f}x")

    return {
        "cases": cases,
        "monitor_faster": all(c["speedup"] > 1.0 for c in cases),
    }


# -- S4: registry discovery --------------------------------------------------

S4_CHANNELS = "abcdefgh"


def _s4_contract(rng, depth):
    """Seeded contract family for the registry scaling suite: the T1
    grammar plus guarded recursion, over per-contract channel subsets of
    an 8-channel pool so the population spreads across many signature
    buckets."""
    from repro.core.syntax import EPSILON, Seq, external, internal, mu

    if depth == 0:
        return EPSILON
    kind = rng.randrange(4)
    chans = rng.sample(S4_CHANNELS, rng.randint(1, 3))
    if kind == 0:
        return internal(*((c, _s4_contract(rng, depth - 1))
                          for c in chans))
    if kind == 1:
        return external(*((c, _s4_contract(rng, depth - 1))
                          for c in chans))
    if kind == 2:
        return mu("h", internal((chans[0],
                                 _s4_contract(rng, depth - 1))))
    return Seq(_s4_contract(rng, depth - 1),
               _s4_contract(rng, depth - 1))


def _s4_dual(term):
    from repro.core.actions import Receive, Send
    from repro.core.syntax import (EPSILON, ExternalChoice, InternalChoice,
                                   Mu, Seq, Var)

    if isinstance(term, (type(EPSILON), Var)):
        return term
    if isinstance(term, Seq):
        return Seq(_s4_dual(term.first), _s4_dual(term.second))
    if isinstance(term, Mu):
        return Mu(term.var, _s4_dual(term.body))
    flipped = tuple(
        (Receive(label.channel) if isinstance(label, Send)
         else Send(label.channel), _s4_dual(cont))
        for label, cont in term.branches)
    if isinstance(term, ExternalChoice):
        return InternalChoice(flipped)
    return ExternalChoice(flipped)


def run_s4(quick: bool, repeats: int) -> dict:
    """Signature-indexed registry discovery vs the all-pairs baseline.

    Populate a :class:`ContractRegistry` with a seeded contract family,
    then answer a mixed batch of ``find_compliant`` /
    ``find_substitutable`` queries two ways: through the indexed path
    (signature-bucket pruning, fingerprint dedup, verdict memo) and
    through the exhaustive per-entry product/preorder baseline.  Match
    sets are asserted identical query by query; reported per size are
    the pruning ratio (fraction of all-pairs product checks the index
    avoided) and the lookup speedup.  The verdict memo is cleared before
    every timed indexed pass, so the repeats time cold queries — the
    memo only shows up *within* a pass, exactly as a fresh query batch
    would experience it."""
    import random as _random

    from repro.registry import ContractRegistry

    sizes = [200, 400] if quick else [1_000, 10_000]
    per_kind = 3 if quick else 5
    cases = []
    for size in sizes:
        rng = _random.Random(0x54000 + size)
        terms = [_s4_contract(rng, rng.randint(1, 4))
                 for _ in range(size)]
        _clear_caches()
        registry = ContractRegistry()
        start = time.perf_counter()
        for index, term in enumerate(terms):
            registry.add(f"svc{index:05d}", term)
        build_seconds = time.perf_counter() - start

        # Query batch: signature-targeted positives (duals of members /
        # member contracts) mixed with free random contracts.
        queries = []
        members = rng.sample(range(size), per_kind * 2)
        for index in members[:per_kind]:
            queries.append(("compliant", _s4_dual(terms[index])))
        for index in members[per_kind:]:
            queries.append(("substitutable", terms[index]))
        for _ in range(per_kind - 1):
            queries.append(("compliant",
                            _s4_contract(rng, rng.randint(1, 3))))
            queries.append(("substitutable",
                            _s4_contract(rng, rng.randint(1, 3))))

        def indexed_pass():
            return [registry.find_compliant(term) if kind == "compliant"
                    else registry.find_substitutable(term)
                    for kind, term in queries]

        def exhaustive_pass():
            return [registry.exhaustive_compliant(term)
                    if kind == "compliant"
                    else registry.exhaustive_substitutable(term)
                    for kind, term in queries]

        indexed_seconds = float("inf")
        for _ in range(repeats):
            registry.clear_verdict_memo()
            start = time.perf_counter()
            results = indexed_pass()
            indexed_seconds = min(indexed_seconds,
                                  time.perf_counter() - start)
        exhaustive_seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            baselines = exhaustive_pass()
            exhaustive_seconds = min(exhaustive_seconds,
                                     time.perf_counter() - start)

        for (kind, _), result, baseline in zip(queries, results,
                                               baselines):
            assert result.matches == baseline, \
                (size, kind, result.matches[:5], baseline[:5])

        product_checks = sum(r.product_checks for r in results)
        exhaustive_checks = size * len(queries)
        pruning = 1.0 - product_checks / exhaustive_checks
        speedup = exhaustive_seconds / max(indexed_seconds, 1e-9)
        stats = registry.stats()

        sample = terms[:min(size, 200)]

        def instrumented_run():
            small = ContractRegistry()
            for index, term in enumerate(sample):
                small.add(f"svc{index:05d}", term)
            small.find_compliant(_s4_dual(sample[0]))
            small.find_substitutable(sample[0])

        metrics = _instrumented(instrumented_run)
        cases.append({
            "entries": size,
            "queries": len(queries),
            "buckets": stats["buckets"],
            "canonical_classes": stats["canonical_classes"],
            "build_seconds": build_seconds,
            "indexed_seconds": indexed_seconds,
            "exhaustive_seconds": exhaustive_seconds,
            "lookup_speedup": speedup,
            "product_checks": product_checks,
            "exhaustive_checks": exhaustive_checks,
            "pruning_ratio": pruning,
            "verdicts_identical": True,
            "metrics": metrics,
        })
        print(f"S4 n={size}: build {build_seconds:7.2f} s  "
              f"indexed {indexed_seconds * 1e3:8.2f} ms  "
              f"exhaustive {exhaustive_seconds * 1e3:9.2f} ms  "
              f"pruning {pruning:.3f}  {speedup:7.1f}x")
    return {
        "cases": cases,
        "median_pruning_ratio": _median(
            [c["pruning_ratio"] for c in cases]),
        "median_lookup_speedup": _median(
            [c["lookup_speedup"] for c in cases]),
        "largest_case_pruning_ratio": cases[-1]["pruning_ratio"],
        "verdicts_identical": True,
    }


# -- R1: recovery overhead ---------------------------------------------------

def run_r1(quick: bool, repeats: int) -> dict:
    from repro.core.plans import Plan, PlanVector
    from repro.network.config import Component, Configuration
    from repro.network.repository import Repository
    from repro.network.simulator import Simulator
    from repro.paper import figure2
    from repro.policies.library import hotel_policy
    from repro.resilience import Fault, FaultPlan, Supervisor

    paper_clients = {figure2.LOC_CLIENT_1: figure2.client_1(),
                     figure2.LOC_CLIENT_2: figure2.client_2()}
    paper_plans = PlanVector.of(figure2.plan_pi1(),
                                figure2.plan_pi2_valid())
    paper_repo = figure2.repository()

    flaky_repo = Repository({
        figure2.LOC_BROKER: figure2.broker(),
        "ls_alpha": figure2.hotel(7, 55, 70),
        "ls_beta": figure2.hotel(8, 50, 90),
    })
    flaky_clients = {"lc": figure2.client("1", hotel_policy(set(),
                                                            60, 80))}
    flaky_plans = PlanVector.of(Plan.of({"1": figure2.LOC_BROKER,
                                         "3": "ls_alpha"}))

    def bare(clients, plans, repo, seed):
        configuration = Configuration.of(*(
            Component.client(location, term)
            for location, term in clients.items()))
        Simulator(configuration, plans, repo, seed=seed).run(
            max_steps=5_000)

    def supervised(clients, plans, repo, seed, fault_plan=FaultPlan()):
        return Supervisor(clients, plans, repo, fault_plan=fault_plan,
                          seed=seed).run()

    seeds = range(3) if quick else range(10)
    cases = []
    for name, clients, plans, repo, fault_plan, expect_replans in [
            ("paper_fault_free", paper_clients, paper_plans, paper_repo,
             FaultPlan(), 0),
            ("paper_transient_drop", paper_clients, paper_plans,
             paper_repo,
             FaultPlan((Fault("drop", location="ls3", channel="Bok",
                              at_step=0, duration=2),)), 0),
            ("flaky_failover", flaky_clients, flaky_plans, flaky_repo,
             FaultPlan((Fault("crash", location="ls_alpha"),)), 1)]:
        bare_seconds = _measure(
            lambda: [bare(clients, plans, repo, seed) for seed in seeds],
            repeats)
        supervised_seconds = _measure(
            lambda: [supervised(clients, plans, repo, seed, fault_plan)
                     for seed in seeds],
            repeats)
        results = [supervised(clients, plans, repo, seed, fault_plan)
                   for seed in seeds]
        assert all(result.status == "completed" for result in results)
        assert all(result.replans >= expect_replans
                   for result in results)
        metrics = _instrumented(
            lambda: supervised(clients, plans, repo, 0, fault_plan))
        cases.append({
            "scenario": name,
            "runs": len(list(seeds)),
            "bare_seconds": bare_seconds,
            "supervised_seconds": supervised_seconds,
            "overhead": supervised_seconds / max(bare_seconds, 1e-9),
            "retries": sum(result.retries for result in results),
            "replans": sum(result.replans for result in results),
            "metrics": metrics,
        })
        print(f"R1 {name:22s}: bare {bare_seconds * 1e3:8.2f} ms  "
              f"supervised {supervised_seconds * 1e3:8.2f} ms  "
              f"{supervised_seconds / max(bare_seconds, 1e-9):5.1f}x")
    fault_free = next(c for c in cases
                      if c["scenario"] == "paper_fault_free")
    return {
        "cases": cases,
        "fault_free_overhead": fault_free["overhead"],
        "all_supervised_runs_completed": True,
    }


# -- R2: reversible recovery vs replan-from-scratch --------------------------

def run_r2(quick: bool, repeats: int) -> dict:
    """Checkpoint rollback vs compensation + failover re-planning.

    Two crafted fault families over the branchy workload (a linear
    preamble, then an internal choice with two service branches, one of
    which a permanent ``drop`` withholds):

    * **single_worker_drop** — one worker only: rollback rewinds to the
      choice point and takes the live branch; the replan ladder has no
      alternative location and gives up, so rollback strictly wins the
      recovered-session ratio;
    * **failover_pair_drop** — a second worker exists: both ladders
      recover, but rollback rewinds past one wasted step where failover
      repeats the whole preamble from scratch, so rollback strictly
      wins steps-to-recover (and simulated-clock ticks).

    Plus a *sampled* chaos comparison (seeded ``drop`` plans over a
    3-round branchy chain) run once with rollback on and once off, the
    chaos invariant asserted in both modes.  All counts and tick totals
    are on the simulated clock — deterministic and machine-free; the
    wall-clock seconds per mode ride along as context.  Before any
    trial runs, the branchy pair's verdict is asserted identical across
    the four ordinary compliance deciders, and the reversible decider
    must say yes too (compliance implies reversible compliance).
    """
    from repro.core.plans import Plan, PlanVector
    from repro.core.reversible import check_reversible
    from repro.network.repository import Repository
    from repro.resilience import Fault, FaultPlan, Supervisor, run_chaos

    from workloads import (branchy_chain, branchy_client, branchy_session,
                           branchy_worker)

    # -- verdict agreement: ordinary deciders ⇒ reversible decider ---------
    from repro.compiled.tables import compile_contract

    body, worker = branchy_session(), branchy_worker()
    body_c, worker_c = Contract(body), Contract(worker)
    deciders = _s1_deciders(body_c, worker_c, compile_contract(body_c),
                            compile_contract(worker_c))
    verdicts = {"onthefly": deciders["onthefly"]().empty,
                "eager": deciders["eager"](),
                "gfp": deciders["gfp"]().compliant,
                "compiled": deciders["compiled"]().empty}
    assert set(verdicts.values()) == {True}, verdicts
    assert check_reversible(body, worker).compliant, \
        "compliance must imply reversible compliance"

    clients = {"lc": branchy_client()}
    repo_single = Repository({"wa": branchy_worker()})
    repo_pair = Repository({"wa": branchy_worker(),
                            "wb": branchy_worker()})
    plans = PlanVector.of(Plan.of({"r": "wa"}))
    fault_plan = FaultPlan((Fault("drop", location="wa",
                                  channel="ok_a"),))

    def supervised(repo, seed, rollback):
        return Supervisor(clients, plans, repo, fault_plan=fault_plan,
                          rollback=rollback, seed=seed).run()

    seeds = range(4) if quick else range(12)
    cases = []
    for scenario, repo in (("single_worker_drop", repo_single),
                           ("failover_pair_drop", repo_pair)):
        modes = {}
        rollback_seed = None
        for mode, enabled in (("rollback", True), ("replan", False)):
            seconds = _measure(
                lambda: [supervised(repo, seed, enabled)
                         for seed in seeds], repeats)
            results = [supervised(repo, seed, enabled) for seed in seeds]
            disturbed = [r for r in results if r.episodes]
            recovered = [r for r in disturbed if r.completed]
            if mode == "rollback" and recovered:
                rollback_seed = next(seed for seed, r in zip(seeds,
                                                             results)
                                     if r.episodes and r.completed)
            modes[mode] = {
                "seconds": seconds,
                "runs": len(results),
                "completed": sum(1 for r in results if r.completed),
                "disturbed": len(disturbed),
                "recovered": len(recovered),
                "recovered_ratio": (len(recovered) / len(disturbed)
                                    if disturbed else None),
                "median_recovery_steps": (_median(
                    [float(r.steps) for r in recovered])
                    if recovered else None),
                "median_recovery_ticks": (_median(
                    [float(r.clock) for r in recovered])
                    if recovered else None),
                "rollbacks": sum(r.rollbacks for r in results),
                "retries": sum(r.retries for r in results),
                "replans": sum(r.replans for r in results),
            }
        assert rollback_seed is not None, scenario
        metrics = _instrumented(
            lambda: supervised(repo, rollback_seed, True))
        cases.append({
            "scenario": scenario,
            "seeds": len(list(seeds)),
            "modes": modes,
            "verdicts_agree": True,
            "metrics": metrics,
        })
        rb, rp = modes["rollback"], modes["replan"]
        print(f"R2 {scenario:20s}: rollback {rb['recovered']}/"
              f"{rb['disturbed']} recovered "
              f"({rb['median_recovery_steps'] or 0:.0f} st med)  "
              f"replan {rp['recovered']}/{rp['disturbed']} "
              f"({rp['median_recovery_steps'] or 0:.0f} st med)  "
              f"[{rb['seconds'] * 1e3:.1f} / {rp['seconds'] * 1e3:.1f} ms]")

    # -- sampled chaos: same seeds, rollback on vs off ----------------------
    chain_clients = {"lc": branchy_chain(3)}
    trials = 6 if quick else 16
    chaos = {}
    for mode, enabled in (("rollback", True), ("replan", False)):
        report = run_chaos(chain_clients, repo_pair, trials=trials,
                           seed=2026, kinds=("drop",), max_faults=2,
                           rollback=enabled, module="branchy-chain")
        assert report.invariant_holds, mode
        chaos[mode] = {
            "trials": trials,
            "outcomes": report.outcomes,
            "completed_ratio": (report.outcomes.get("completed", 0)
                                / trials),
            "rollbacks": sum(r.rollbacks for r in report.results),
            "retries": sum(r.retries for r in report.results),
            "replans": sum(r.replans for r in report.results),
            "invariant_holds": report.invariant_holds,
        }
        print(f"R2 chaos rollback={'on' if enabled else 'off'}: "
              f"{chaos[mode]['outcomes']}  "
              f"rollbacks {chaos[mode]['rollbacks']}  "
              f"retries {chaos[mode]['retries']}  "
              f"replans {chaos[mode]['replans']}")

    single = next(c for c in cases
                  if c["scenario"] == "single_worker_drop")["modes"]
    pair = next(c for c in cases
                if c["scenario"] == "failover_pair_drop")["modes"]
    rollback_ratio = _median(
        [c["modes"]["rollback"]["recovered_ratio"] for c in cases])
    replan_ratio = _median(
        [c["modes"]["replan"]["recovered_ratio"] for c in cases])
    steps_saving = (pair["replan"]["median_recovery_steps"]
                    / max(pair["rollback"]["median_recovery_steps"], 1e-9))
    ticks_saving = (pair["replan"]["median_recovery_ticks"]
                    / max(pair["rollback"]["median_recovery_ticks"], 1e-9))
    assert single["rollback"]["recovered_ratio"] \
        > single["replan"]["recovered_ratio"], \
        "rollback must beat replan on the recovered-session ratio"
    assert steps_saving > 1.0, \
        "rollback must beat replan on median steps-to-recover"
    return {
        "cases": cases,
        "chaos": chaos,
        "verdicts_agree": True,
        "rollback_recovered_ratio": rollback_ratio,
        "replan_recovered_ratio": replan_ratio,
        "rollback_beats_replan_recovery": rollback_ratio > replan_ratio,
        "median_steps_saving": steps_saving,
        "median_ticks_saving": ticks_saving,
        "rollback_fewer_steps": steps_saving > 1.0,
    }


# -- B1: static certification vs dynamic monitoring --------------------------

def run_b1(quick: bool, repeats: int) -> dict:
    """Static validity certification vs monitor-based dynamic checking.

    The static certifier explores the ⟨residual, monitor⟩ product once
    and settles validity for *every* run; the dynamic baseline replays
    K seeded random runs through the concrete :class:`ValidityMonitor`
    and can only ever sample.  Reported per workload: wall time of both,
    the sampling factor K, verdict agreement, and (for invalid
    workloads) whether the static witness replays.
    """
    import random as _random

    from repro.core.actions import is_history_label
    from repro.core.semantics import step
    from repro.core.syntax import event, framing, seq as _seq
    from repro.core.validity import ValidityMonitor
    from repro.paper import figure2
    from repro.policies.library import at_most
    from repro.staticcheck import certify_validity

    from workloads import policy_heavy_client

    runs = 50 if quick else 200
    workloads = [
        ("figure2_c1", figure2.client_1()),
        ("figure2_c2", figure2.client_2()),
        ("policy_heavy", policy_heavy_client(4, 3)),
        ("invalid_at_most", framing(at_most("boom", 2),
                                    _seq(event("boom"), event("boom"),
                                         event("boom")))),
    ]
    cases = []
    for name, term in workloads:

        def dynamic(term=term):
            all_valid = True
            for seed in range(runs):
                rng = _random.Random(seed)
                monitor = ValidityMonitor()
                current = term
                for _ in range(200):
                    moves = sorted(step(current), key=repr)
                    if not moves:
                        break
                    label, current = rng.choice(moves)
                    if is_history_label(label):
                        all_valid = monitor.extend(label) and all_valid
            return all_valid

        static_seconds = _measure(
            lambda term=term: certify_validity(term), repeats)
        dynamic_seconds = _measure(dynamic, repeats)
        _clear_caches()
        certificate = certify_validity(term)
        sampled_valid = dynamic()
        # Soundness cross-check: a static acceptance admits no invalid
        # sampled run; on these deterministic-violation workloads a
        # static rejection is also observed dynamically.
        assert certificate.valid == sampled_valid, name
        if not certificate.valid:
            assert certificate.witness.replays(), name
        metrics = _instrumented(
            lambda term=term: certify_validity(term))
        cases.append({
            "workload": name,
            "dynamic_runs": runs,
            "static_seconds": static_seconds,
            "dynamic_seconds": dynamic_seconds,
            "amortisation": dynamic_seconds / max(static_seconds, 1e-9),
            "valid": certificate.valid,
            "explored_states": certificate.explored,
            "witness_length": (None if certificate.witness is None
                               else len(certificate.witness.labels)),
            "metrics": metrics,
        })
        print(f"B1 {name:16s}: static {static_seconds * 1e3:8.2f} ms  "
              f"dynamic(K={runs}) {dynamic_seconds * 1e3:8.2f} ms  "
              f"{dynamic_seconds / max(static_seconds, 1e-9):5.1f}x")
    return {
        "cases": cases,
        "verdicts_agree": True,
        "static_amortises": all(
            c["amortisation"] > 1.0 for c in cases if c["valid"]),
    }


SUITES = {"s1": run_s1, "s2": run_s2, "s3": run_s3, "s4": run_s4,
          "r1": run_r1, "r2": run_r2, "b1": run_b1}


def next_bench_path(directory: Path) -> Path:
    n = 1
    while (directory / f"BENCH_{n}.json").exists():
        n += 1
    return directory / f"BENCH_{n}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one repeat (CI smoke run)")
    parser.add_argument("--output-dir", type=Path, default=_ROOT,
                        help="directory for BENCH_<n>.json "
                             "(default: repository root)")
    parser.add_argument("--suites", default="s1,s2,s3,s4,r1,r2,b1",
                        help="comma-separated subset of "
                             "s1,s2,s3,s4,r1,r2,b1")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per measurement "
                             "(default: 1 with --quick, else 3)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    selected = [name.strip().lower() for name in args.suites.split(",")
                if name.strip()]
    unknown = [name for name in selected if name not in SUITES]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}")

    suites = {}
    started = time.time()
    for name in selected:
        print(f"-- suite {name.upper()} "
              f"({'quick' if args.quick else 'full'}, "
              f"best of {repeats}) --")
        suites[name] = SUITES[name](args.quick, repeats)

    report = {
        "schema": "repro-bench.v6",
        "quick": args.quick,
        "repeats": repeats,
        "started_at": started,
        "wall_seconds": time.time() - started,
        "python": sys.version.split()[0],
        "suites": suites,
        "summary": {
            "s1_noncompliant_onthefly_faster_than_eager": suites.get(
                "s1", {}).get("noncompliant_onthefly_faster"),
            "s1_compiled_median_speedup": suites.get(
                "s1", {}).get("compiled_median_speedup"),
            "s1_compiled_largest_case_speedup": suites.get(
                "s1", {}).get("compiled_largest_case_speedup"),
            "s2_memoized_faster_than_eager": suites.get(
                "s2", {}).get("memoized_faster"),
            "s4_median_pruning_ratio": suites.get(
                "s4", {}).get("median_pruning_ratio"),
            "s4_median_lookup_speedup": suites.get(
                "s4", {}).get("median_lookup_speedup"),
            "s4_registry_verdicts_identical": suites.get(
                "s4", {}).get("verdicts_identical"),
            "r2_rollback_recovered_ratio": suites.get(
                "r2", {}).get("rollback_recovered_ratio"),
            "r2_replan_recovered_ratio": suites.get(
                "r2", {}).get("replan_recovered_ratio"),
            "r2_rollback_beats_replan_recovery": suites.get(
                "r2", {}).get("rollback_beats_replan_recovery"),
            "r2_median_steps_saving": suites.get(
                "r2", {}).get("median_steps_saving"),
            "verdicts_identical_across_engines": (
                suites.get("s1", {}).get("verdicts_agree", None)
                if "s1" in suites else None),
            "b1_static_amortises_dynamic_sampling": suites.get(
                "b1", {}).get("static_amortises"),
        },
    }
    args.output_dir.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(args.output_dir)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
