"""Randomized agreement of the three compliance deciders, and of the
memoized planner with the unmemoized one.

The contract pairs are drawn (seeded) from the benchmark workload
generators; for every pair the on-the-fly search, eager product
emptiness, and the coinductive decider of Definition 4 must return the
same verdict — a machine check of Theorems 1 and 2 across both engines.
"""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                       / "benchmarks"))

from workloads import (almost_compliant_server, chain_client,  # noqa: E402
                       wide_client, wide_server, worker_pool)

from repro.core.compliance import (check_compliance,  # noqa: E402
                                   compliant_coinductive)
from repro.analysis.planner import find_valid_plans  # noqa: E402
from repro.cli import load_module  # noqa: E402
from repro.contracts.contract import Contract  # noqa: E402
from repro.contracts.product import build_product  # noqa: E402
from repro.paper import figure2  # noqa: E402

TWO_BODIES = (pathlib.Path(__file__).resolve().parents[1] / "analysis"
              / "fixtures" / "request_id_two_bodies.sus")

SEED = 0x5EC0DE
ROUNDS = 30


def random_pairs(seed: int, rounds: int):
    """Seeded contract pairs over the workload generators: matching,
    defective, and deliberately mismatched client/server shapes."""
    rng = random.Random(seed)
    for _ in range(rounds):
        width = rng.randint(1, 3)
        depth = rng.randint(1, 3)
        client = wide_client(width, depth)
        shape = rng.randrange(4)
        if shape == 0:
            server = wide_server(width, depth)
        elif shape == 1:
            server = almost_compliant_server(
                width, depth, surprise_level=rng.randrange(depth))
        elif shape == 2:
            # Mismatched width: the server misses some answers.
            server = wide_server(rng.randint(1, 3), depth)
        else:
            # Mismatched depth: one side ends a round early.
            server = wide_server(width, rng.randint(1, 3))
        yield client, server


@pytest.mark.parametrize("client,server",
                         list(random_pairs(SEED, ROUNDS)),
                         ids=[f"case{i}" for i in range(ROUNDS)])
def test_deciders_agree_on_random_workloads(client, server):
    onthefly = check_compliance(client, server)
    eager_empty = build_product(Contract(client),
                                Contract(server)).language_is_empty()
    coinductive = compliant_coinductive(client, server)
    assert onthefly.compliant == eager_empty == coinductive
    if not onthefly.compliant:
        assert onthefly.trace is not None
        assert onthefly.witness == onthefly.trace[-1]


def partition(result):
    return (frozenset(a.plan for a in result.valid_plans),
            frozenset(a.plan for a in result.invalid_plans))


def assert_partition_is_preserved(client, repo, location):
    baseline = find_valid_plans(client, repo, location=location,
                                memoize=False, prune=False)
    memoized = find_valid_plans(client, repo, location=location)
    assert partition(memoized) == partition(baseline)


class TestMemoizedPlannerPartition:
    """Memoisation and pruning must not change which plans are valid —
    only how much work deciding that takes."""

    @pytest.mark.parametrize("client_fn,location", [
        (figure2.client_1, figure2.LOC_CLIENT_1),
        (figure2.client_2, figure2.LOC_CLIENT_2),
    ], ids=["c1", "c2"])
    def test_figure2_partition_is_preserved(self, client_fn, location):
        assert_partition_is_preserved(client_fn(), figure2.repository(),
                                      location)

    def test_request_id_two_bodies_partition_is_preserved(self):
        module = load_module(TWO_BODIES)
        assert_partition_is_preserved(module.clients["lc"],
                                      module.repository, "lc")

    def test_random_worker_pools_preserve_partition(self):
        rng = random.Random(SEED)
        for _ in range(5):
            client = chain_client(rng.randint(1, 3))
            repo = worker_pool(rng.randint(2, 5),
                               defective_every=rng.choice([0, 2, 3]))
            baseline = find_valid_plans(client, repo, memoize=False,
                                        prune=False)
            memoized = find_valid_plans(client, repo)
            assert partition(memoized) == partition(baseline)

    def test_pruned_invalid_plans_carry_the_failing_check(self):
        repo = figure2.repository()
        result = find_valid_plans(figure2.client_2(), repo,
                                  location=figure2.LOC_CLIENT_2)
        for analysis in result.invalid_plans:
            if analysis.security.skipped:
                assert any(not check.compliant
                           for check in analysis.compliance)
