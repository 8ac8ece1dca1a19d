"""Tests for the on-the-fly product search (:func:`search_product`).

Cross-validates the lazy engine against the explicit automaton of
Definition 5 and regression-tests the early exit: on a non-compliant
pair the search materialises no product state beyond the BFS radius of
the shortest counterexample.
"""

from collections import deque

from repro.core.compliance import check_compliance
from repro.core.syntax import (EPSILON, external, internal, receive, send,
                               seq)
from repro.contracts.contract import Contract
from repro.contracts.product import build_product, search_product

from tests.contracts.test_product import TestTheorem1, product_of


def search_of(client, server):
    return search_product(Contract(client), Contract(server))


def bfs_depths(product):
    """Synchronisation depth of every reachable product state."""
    depths = {product.initial: 0}
    frontier = deque([product.initial])
    while frontier:
        state = frontier.popleft()
        for _, target in product.lts.moves(state):
            if target not in depths:
                depths[target] = depths[state] + 1
                frontier.append(target)
    return depths


class TestAgreesWithEagerProduct:
    def test_verdicts_match_on_fixed_cases(self):
        for client, server in TestTheorem1.CASES:
            eager = product_of(client, server)
            lazy = search_of(client, server)
            assert lazy.empty == eager.language_is_empty(), \
                f"engines disagree on {client} / {server}"

    def test_traces_are_shortest_in_both_engines(self):
        for client, server in TestTheorem1.CASES:
            eager = product_of(client, server).counterexample()
            lazy = search_of(client, server).trace
            if eager is None:
                assert lazy is None
            else:
                assert lazy is not None
                assert len(lazy) == len(eager)
                assert lazy[0] == eager[0]  # both start at ⟨H1, H2⟩

    def test_trace_states_are_consecutive_synchronisations(self):
        client = send("go", send("go2", receive("never")))
        server = receive("go", receive("go2"))
        search = search_of(client, server)
        assert not search.empty and search.trace is not None
        product = product_of(client, server)
        for before, after in zip(search.trace, search.trace[1:]):
            assert after in {target for _, target
                             in product.lts.moves(before)}
        assert search.witness in product.final_states

    def test_immediately_stuck_pair(self):
        search = search_of(receive("a"), receive("a"))
        assert not search.empty
        assert search.trace is not None and len(search.trace) == 1
        assert search.explored == 1


class TestEarlyExit:
    """The acceptance regression: a non-compliant check explores no more
    product states than live within the BFS depth of the shortest
    counterexample."""

    def assert_explored_within_radius(self, client, server):
        search = search_of(client, server)
        assert not search.empty and search.trace is not None
        depth = len(search.trace) - 1
        product = product_of(client, server)
        within_radius = sum(1 for d in bfs_depths(product).values()
                            if d <= depth)
        assert search.explored <= within_radius, (
            f"explored {search.explored} states; only {within_radius} "
            f"live within counterexample depth {depth}")

    def test_deep_counterexample(self):
        client = send("go", send("go2", receive("never")))
        server = receive("go", receive("go2"))
        self.assert_explored_within_radius(client, server)

    def test_shallow_counterexample_skips_deep_compliant_branches(self):
        # One branch deadlocks immediately; the others run long compliant
        # protocols.  The search must stop at radius 1, leaving the deep
        # branches unexplored.
        deep = EPSILON
        for i in range(6):
            deep = send(f"ping{i}", receive(f"pong{i}", deep))
        deep_server = EPSILON
        for i in range(6):
            deep_server = receive(f"ping{i}", send(f"pong{i}", deep_server))
        client = internal(("bad", receive("never")),
                          ("ok1", deep), ("ok2", deep))
        server = external(("bad", EPSILON),
                          ("ok1", deep_server), ("ok2", deep_server))
        self.assert_explored_within_radius(client, server)
        search = search_of(client, server)
        product = product_of(client, server)
        assert search.explored < len(product.lts), \
            "early exit saved nothing: full product explored"

    def test_check_compliance_reports_the_explored_count(self):
        client = internal(("bad", receive("never")),
                          ("ok", send("more", receive("done"))))
        server = external(("bad", EPSILON),
                          ("ok", receive("more", send("done"))))
        result = check_compliance(client, server)
        search = search_of(client, server)
        assert result.explored_states == search.explored
        assert result.trace == search.trace


class TestEngineParameter:
    """``check_compliance`` has one engine, the on-the-fly search; the
    explicit automaton stays as the oracle it is checked against."""

    def test_eager_engine_matches_default(self):
        cases = TestTheorem1.CASES
        for client, server in cases:
            lazy = check_compliance(client, server)
            eager = product_of(client, server)
            assert lazy.compliant == eager.language_is_empty()
            if not lazy.compliant:
                assert lazy.trace is not None
                assert len(lazy.trace) == len(eager.counterexample())

    def test_unknown_engine_rejected(self):
        try:
            check_compliance(send("a"), receive("a"), engine="eager")
        except TypeError as error:
            assert "engine" in str(error)
        else:
            raise AssertionError("engine argument accepted")

    def test_events_are_transparent_to_both_engines(self):
        from repro.core.syntax import event
        client = seq(event("log"), send("a"))
        server = seq(event("audit", 7), receive("a"))
        assert check_compliance(client, server).compliant
        assert product_of(client, server).language_is_empty()
