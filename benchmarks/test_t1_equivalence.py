"""Experiment T1 — Theorem 1: the two compliance deciders agree.

Runs both the Definition-4 (coinductive, ready sets) and the
Definition-5 (product emptiness) deciders over a deterministic battery
of contract pairs spanning compliant, non-compliant and recursive
shapes, asserting 100% agreement and comparing their costs.
"""

import random

from repro.compiled.search import compiled_search
from repro.compiled.tables import compile_contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT
from repro.core.compliance import (check_compliance, compliant,
                                   compliant_coinductive)
from repro.core.duality import dual
from repro.core.syntax import (EPSILON, ExternalChoice, InternalChoice,
                               Var, external, internal, mu, receive, send,
                               seq)

from workloads import almost_compliant_server, wide_client, wide_server


def random_contract(rng, depth):
    """A deterministic pseudo-random contract over channels a/b/c."""
    if depth == 0:
        return EPSILON
    kind = rng.choice(("int", "ext", "seq"))
    channels = rng.sample(["a", "b", "c"], k=rng.randint(1, 2))
    if kind == "seq":
        return seq(random_contract(rng, depth - 1),
                   random_contract(rng, depth - 1))
    branches = tuple((channel, random_contract(rng, depth - 1))
                     for channel in channels)
    if kind == "int":
        return internal(*branches)
    return external(*branches)


def battery(pairs=120, depth=3, seed=7):
    rng = random.Random(seed)
    cases = [(random_contract(rng, depth), random_contract(rng, depth))
             for _ in range(pairs)]
    cases += [(c, dual(c)) for c, _ in cases[:30]]  # compliant seeds
    cases += [
        (wide_client(3, 3), wide_server(3, 3)),
        (wide_client(3, 3), almost_compliant_server(3, 3)),
        (mu("h", send("p", receive("q", Var("h")))),
         mu("k", receive("p", send("q", Var("k"))))),
    ]
    return cases


CASES = battery()


def test_t1_product_decider(benchmark):
    verdicts = benchmark(
        lambda: [compliant(c, s) for c, s in CASES])
    assert len(verdicts) == len(CASES)
    # The battery must be discriminating.
    assert True in verdicts and False in verdicts


def test_t1_coinductive_decider(benchmark):
    verdicts = benchmark(
        lambda: [compliant_coinductive(c, s) for c, s in CASES])
    assert len(verdicts) == len(CASES)


def test_t1_agreement(benchmark):
    def agree():
        mismatches = 0
        table = []
        for client, server in CASES:
            left = compliant(client, server)
            right = compliant_coinductive(client, server)
            table.append(left)
            if left != right:
                mismatches += 1
        return mismatches, table

    mismatches, table = benchmark(agree)
    compliant_count = sum(table)
    print(f"\nT1 — {len(CASES)} pairs: {compliant_count} compliant, "
          f"{len(CASES) - compliant_count} not; mismatches: {mismatches}")
    assert mismatches == 0


def _compiled_search(client, server):
    return compiled_search(compile_contract(client),
                           compile_contract(server), DEFAULT_STATE_LIMIT)


def test_t1_compiled_decider(benchmark):
    verdicts = benchmark(
        lambda: [_compiled_search(c, s).empty for c, s in CASES])
    assert len(verdicts) == len(CASES)
    assert True in verdicts and False in verdicts


def test_t1_compiled_matches_interpreted_exactly():
    """The compiled BFS is the interpreted one over interned tables:
    verdict, explored-state count and counterexample trace must all be
    identical, case for case."""
    for client, server in CASES:
        interpreted = check_compliance(client, server)
        compiled = _compiled_search(client, server)
        assert interpreted.compliant == compiled.empty, (client, server)
        assert interpreted.explored_states == compiled.explored, \
            (client, server)
        assert interpreted.trace == compiled.trace, (client, server)
