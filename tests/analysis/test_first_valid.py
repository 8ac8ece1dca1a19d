"""The first-valid planning pass against the full pass and the oracle.

``find_valid_plans(..., first_valid=True)`` stops at the first valid
plan in enumeration order.  On every client of the shipped examples, of
the analysis fixtures and of seeded benchmark modules (the certify-cold
and chaos-cold generators of ``perfbench/gen.py``, imported unchanged):

* its ``best()`` is the first valid plan of the unmemoised oracle pass
  (``tests/oracles/planner.py``);
* its invalid plans are the full pass's invalid plans enumerated before
  that plan, with the same analyses;
* with no valid plan, it lists the same plans as the full pass.

``repro analyze`` plans each client with one such pass.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from repro.analysis.planner import enumerate_plans, find_valid_plans
from repro.cli import load_module
from repro.lang.module import parse_module
from repro.observability import runtime as telemetry
from repro.staticcheck import analyze_module
from tests.oracles import planner as oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

SHIPPED = sorted(path for pattern in ("*.sus", "*.toml")
                 for path in (ROOT / "examples").glob(pattern))
FIXTURE_MODULES = sorted(FIXTURES.glob("*.sus"))


def _load_gen():
    """``perfbench/gen.py`` as a module, without editing or copying it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def _generated_sources() -> list[tuple[str, str]]:
    gen = _load_gen()
    sources = [(case.name, case.source)
               for case in gen.certify_inputs(3, len(gen.CERTIFY_SHAPES))]
    sources += [(case.name, case.source)
                for case in gen.chaos_inputs(3, 2 * len(gen.CHAOS_SHAPES))]
    rng = random.Random("request-id-reuse/3")
    sources += [(f"reuse{index}", gen.request_id_reuse_module(
        rng, f"reuse{index}")) for index in range(2)]
    return sources


GENERATED = _generated_sources()


def assert_first_valid_agrees(clients, repository) -> None:
    for location, client in clients.items():
        first = find_valid_plans(client, repository, location=location,
                                 first_valid=True)
        full = find_valid_plans(client, repository, location=location)
        baseline = oracle.find_valid_plans(client, repository,
                                           location=location)
        expected = (baseline.valid_plans[0].plan
                    if baseline.valid_plans else None)
        best = first.best()
        assert (None if best is None else best.plan) == expected, location
        assert len(first.valid_plans) == (expected is not None)
        if expected is None:
            assert first.invalid_plans == full.invalid_plans, location
            continue
        order = {plan: index for index, plan in
                 enumerate(enumerate_plans(client, repository))}
        before = [analysis for analysis in full.invalid_plans
                  if order[analysis.plan] < order[expected]]
        assert first.invalid_plans == before, location
        assert best == full.valid_plans[0]
        assert first.metrics["plans_analyzed"] == len(before) + 1


class TestFirstValidAgainstFullPass:
    @pytest.mark.parametrize("path", SHIPPED + FIXTURE_MODULES,
                             ids=lambda path: path.name)
    def test_shipped_examples_and_fixtures(self, path):
        network = load_module(path)
        assert_first_valid_agrees(network.clients, network.repository)

    @pytest.mark.parametrize("name,source", GENERATED,
                             ids=[name for name, _ in GENERATED])
    def test_generated_modules(self, name, source):
        module = parse_module(source, path=f"{name}.sus")
        assert_first_valid_agrees(module.clients, module.repository)

    def test_the_pass_stops_at_the_first_valid_plan(self):
        # lc1's valid plan 1[lbr] ∪ 3[ls3] is the 4th of 9 candidates.
        module = load_module(ROOT / "examples" / "hotel_booking.sus")
        result = find_valid_plans(module.clients["lc1"], module.repository,
                                  first_valid=True)
        assert [str(a.plan) for a in result.valid_plans] == [
            "1[lbr] ∪ 3[ls3]"]
        assert result.metrics["plans_analyzed"] == 4
        assert len(result.invalid_plans) == 3


class TestAnalyzePlansEachClientOnce:
    @pytest.mark.parametrize("path", SHIPPED + FIXTURE_MODULES,
                             ids=lambda path: path.name)
    def test_one_planner_pass_per_client(self, path):
        module = load_module(path)
        with telemetry.telemetry_session() as tel:
            analysis = analyze_module(module)
            passes = tel.tracer.find("planner.find_valid_plans")
        assert [span.attrs["location"] for span in passes] == list(
            module.clients)
        assert [report.client for report in analysis.plans] == list(
            module.clients)
