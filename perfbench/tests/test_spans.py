"""Self-tests of the benchmark's tracer and cold reset.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import spans  # noqa: E402

CORE = """
import functools

clock = [0]

def leaf():
    clock[0] += 3

def fact(n):
    clock[0] += 1
    if n:
        fact(n - 1)

def middle():
    clock[0] += 2
    leaf()
    fact(3)
    clock[0] += 1

def items():
    clock[0] += 1
    yield 1
    clock[0] += 1
    yield 2
    clock[0] += 1

def consume():
    for _ in items():
        clock[0] += 10

@functools.lru_cache(maxsize=None)
def memo(n):
    clock[0] += 7
    return n
"""

USER = """
from fakepkg.core import clock, leaf, middle

def entry():
    clock[0] += 5
    middle()
    leaf()
"""

ENTRY_POINTS = (("fakepkg.core", "leaf", "leaf", None),
                ("fakepkg.core", "fact", "fact", None),
                ("fakepkg.core", "middle", "middle", None),
                ("fakepkg.core", "items", "items", None),
                ("fakepkg.core", "consume", "consume", None),
                ("fakepkg.core", "memo", "memo", None))


@pytest.fixture()
def fakepkg():
    """A package whose ``user`` module rebinds ``core`` functions with
    ``from ... import``, on a clock the functions advance."""
    modules = {}
    for name, source in (("fakepkg", ""), ("fakepkg.core", CORE),
                         ("fakepkg.user", USER)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(compile(source, name, "exec"), module.__dict__)
        modules[name] = module
    yield modules["fakepkg.core"], modules["fakepkg.user"]
    for name in modules:
        del sys.modules[name]


def traced(core):
    tracer = spans.Tracer(clock=lambda: core.clock[0])
    patch = spans.Patch(tracer, ENTRY_POINTS, package="fakepkg").apply()
    return tracer, patch


def test_nested_and_recursive_self_times(fakepkg):
    core, user = fakepkg
    tracer, _ = traced(core)
    tracer.run_op(0, user.entry)
    # op [0,18]: entry 5 | middle [5,15]: 2, leaf [7,10], fact [10,14]
    # (four recursive calls, one span), 1 | leaf [15,18].
    assert tracer.layer_totals() == {"op": 5, "middle": 3, "leaf": 6,
                                     "fact": 4}
    assert sum(tracer.layer_totals().values()) == tracer.root_total() == 18
    assert tracer.calls == {"leaf": 2, "middle": 1, "fact": 1}
    assert {span[4] for span in tracer.spans} == {0}


def test_rebound_imports_are_traced_and_restored(fakepkg):
    core, user = fakepkg
    original = core.leaf
    tracer, patch = traced(core)
    assert user.leaf is core.leaf is not original
    user.leaf()
    assert tracer.calls["leaf"] == 1
    patch.revert()
    assert user.leaf is core.leaf is original


def test_entry_points_the_program_lacks_are_listed(fakepkg):
    patch = spans.Patch(spans.Tracer(),
                        (("fakepkg.core", "gone", "gone", None),
                         ("fakepkg.absent", "leaf", "leaf", None)),
                        package="fakepkg")
    assert patch.missing == ["fakepkg.core.gone", "fakepkg.absent.leaf"]
    assert patch.sites == []


def test_untraced_calls_construct_no_spans(fakepkg):
    core, user = fakepkg
    before = spans.Tracer.constructed
    user.entry()
    tracer, patch = traced(core)
    patch.revert()
    user.entry()
    core.consume()
    assert spans.Tracer.constructed == before
    assert tracer.spans == []


def test_generator_spans_exclude_the_consumer(fakepkg):
    core, _ = fakepkg
    tracer, _ = traced(core)
    tracer.run_op(0, core.consume)
    assert tracer.layer_totals() == {"op": 0, "consume": 20, "items": 3}
    assert tracer.calls["items"] == 1


def test_lru_cache_entry_points_keep_their_cache_api(fakepkg):
    core, _ = fakepkg
    tracer, _ = traced(core)
    assert core.memo(1) == core.memo(1) == 1
    assert core.memo.cache_info().hits == 1
    core.memo.cache_clear()
    assert core.memo.cache_info().currsize == 0
    assert tracer.calls["memo"] == 2


def test_program_entry_points_resolve_with_their_rebindings():
    import importlib

    for module in layers.MODULES:
        importlib.import_module(module)
    import repro.cli
    import repro.core.compliance as compliance
    import repro.core.projection as projection
    from repro.lang.parser import parse

    original = compliance.check_compliance
    tracer = spans.Tracer()
    patch = spans.Patch(tracer, layers.ENTRY_POINTS).apply()
    try:
        assert repro.cli.check_compliance is compliance.check_compliance
        assert repro.cli.check_compliance is not original
        projection.project(parse("mu h { !a . (?b . h + ?c) }"))
    finally:
        patch.revert()
    assert repro.cli.check_compliance is original
    assert tracer.calls["core.project"] == 1
    assert len(tracer.spans) == 1


def test_cold_reset_self_check_passes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"),
         "--workload", "certify-cold", "--seed", "1", "--seconds", "1",
         "--mode", "selfcheck", "--workdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    line = out.stdout.strip().splitlines()[-1]
    report = json.loads(line.split(" ", 2)[2])["selfcheck"]
    assert report["passed"], report["differs_after_full_reset"]
    assert report["fresh"]["contracts.lts.states"] > 0
    assert report["fresh"]["core.project.calls"] > 0


def test_times_are_scaled_to_the_fixed_machine_speed():
    import worker

    assert worker.reference() > 0
    result = worker.summary([(10 ** 7, 2.0, False, None),
                             (3 * 10 ** 7, 1.0, True, "wrong answer")])
    assert (result["p50_ms"], result["ops_per_s"]) == (25.0, 40.0)
    assert (result["wall"]["p50_ms"], result["wall"]["ops_per_s"]) == (
        20.0, 50.0)
    assert result["reference_ms"] == 0.75
    assert (result["ops"], result["failed"]) == (2, 1)


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, layers.unit(name)) for name in layers.metric_names()]
    import run

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
