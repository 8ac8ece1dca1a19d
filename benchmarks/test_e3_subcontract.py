"""Experiment E3 — extension: the subcontract preorder and discovery.

The contract theory the paper builds on [12] uses a refinement preorder
for service discovery; this bench measures the exact meet-state
decider (:func:`repro.canon.preorder.subcontract_preorder`) against its
quantified definition, and the discovery sweep over a repository.  The
decider memoises its verdicts and quotients, so every timed round
starts from empty canon memo tables (``clear_contract_caches`` naming
the three); the projection, LTS and compiled-table caches stay warm.

Expected shape: the direct check is polynomial in the contract state
spaces; deciding the same relation by quantifying over all 127 depth-2
clients costs several times more per pair, and grows with the client
universe; discovery scales linearly in repository size.
"""

import random

from repro.canon import subcontract_preorder
from repro.contracts.contract import clear_contract_caches
from repro.core.compliance import compliant
from repro.core.syntax import EPSILON, external, internal
from repro.network.repository import Repository

from workloads import wide_client, wide_server


def generate(depth):
    if depth == 0:
        return [EPSILON]
    subs = generate(depth - 1)
    out = [EPSILON]
    for kind in (internal, external):
        for channel in ("a", "b"):
            for sub in subs:
                out.append(kind((channel, sub)))
        for sub1 in subs:
            for sub2 in subs:
                out.append(kind(("a", sub1), ("b", sub2)))
    return out


UNIVERSE = generate(2)
RNG = random.Random(5)
PAIRS = [(RNG.choice(UNIVERSE), RNG.choice(UNIVERSE)) for _ in range(40)]


def subcontract(smaller, larger) -> bool:
    return subcontract_preorder(smaller, larger).holds


CANON_TABLES = ("canon.quotient", "canon.fingerprint", "canon.preorder")


def clear_canon_tables():
    clear_contract_caches(*CANON_TABLES)


def cold(benchmark, run):
    """Time *run* with the canon memos emptied before every round."""
    return benchmark.pedantic(run, setup=clear_canon_tables, rounds=50)


def test_e3_direct_refinement_check(benchmark):
    verdicts = cold(benchmark, lambda: [subcontract(h1, h2)
                                        for h1, h2 in PAIRS])
    positive = sum(verdicts)
    print(f"\nE3 — {positive}/{len(PAIRS)} refinements hold")
    assert 0 < positive < len(PAIRS)


def test_e3_quantified_definition_baseline(benchmark):
    """The literal '∀ client' definition on the same pairs — the cost the
    meet-state characterisation avoids."""
    clients = UNIVERSE

    def run():
        return [all(not compliant(c, h1) or compliant(c, h2)
                    for c in clients)
                for h1, h2 in PAIRS[:8]]  # 8 pairs already dwarf E3-direct

    quantified = benchmark(run)
    direct = [subcontract(h1, h2) for h1, h2 in PAIRS[:8]]
    assert quantified == direct


def test_e3_structured_refinement(benchmark):
    """Width/depth-structured contracts: a server refined by pruning
    outputs at every round."""
    smaller = wide_server(3, 3)
    larger = wide_server(2, 3)  # fewer outputs offered per round

    def run():
        return subcontract(smaller, larger), subcontract(larger, smaller)

    forward, backward = cold(benchmark, run)
    assert not forward and not backward  # different answer alphabets


def test_e3_discovery_sweep(benchmark):
    advertised = internal(("ok", EPSILON), ("err", EPSILON))
    pool = {f"svc{i}": UNIVERSE[i * 3 % len(UNIVERSE)]
            for i in range(40)}
    pool["refined"] = internal(("ok", EPSILON))
    repo = Repository(pool)

    def sweep():
        return tuple(location for location, term in repo.items()
                     if subcontract(advertised, term))

    matches = cold(benchmark, sweep)
    assert "refined" in matches
    print(f"E3 — discovery: {len(matches)}/{len(repo)} services "
          "substitutable")
