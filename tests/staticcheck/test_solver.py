"""Unit tests for the worklist fixpoint solver under the recursive label
oracle (:mod:`tests.oracles.labels`)."""

import pytest

from tests.oracles.solver import Equation, PowersetLattice, solve


def reachability_system(edges, start):
    """Variables = nodes; value = set of nodes reachable *from* start."""
    nodes = sorted({start} | {a for a, _ in edges} | {b for _, b in edges})
    lattice = PowersetLattice(frozenset(nodes))

    def transfer_for(node):
        incoming = tuple(a for a, b in edges if b == node)
        seed = frozenset({node}) if node == start else frozenset()

        def transfer(env, incoming=incoming, seed=seed):
            out = set(seed)
            for source in incoming:
                if env[source]:
                    out.add(node)
                    out |= env[source]
            return frozenset(out)
        return transfer

    equations = {node: Equation(node,
                                tuple(a for a, b in edges if b == node),
                                transfer_for(node))
                 for node in nodes}
    return equations, lattice


class TestPowersetLattice:
    LATTICE = PowersetLattice(frozenset("abc"))

    def test_lattice_laws(self):
        bottom = self.LATTICE.bottom()
        for value in (frozenset(), frozenset("a"), frozenset("abc")):
            assert self.LATTICE.join(value, value) == value
            assert self.LATTICE.join(bottom, value) == value
            assert self.LATTICE.leq(bottom, value)
            assert self.LATTICE.leq(value, self.LATTICE.top())
        left, right = frozenset("ab"), frozenset("bc")
        assert (self.LATTICE.join(left, right)
                == self.LATTICE.join(right, left) == frozenset("abc"))

    def test_widen_jumps_to_top_above_the_height(self):
        lattice = PowersetLattice(frozenset("abcd"), widen_height=1)
        assert lattice.widen(frozenset(), frozenset("a")) == frozenset("a")
        assert lattice.widen(frozenset("a"), frozenset("ab")) == \
            frozenset("abcd")


class TestSolve:
    def test_reachability_least_fixpoint(self):
        edges = [("s", "a"), ("a", "b"), ("b", "a"), ("c", "d")]
        equations, lattice = reachability_system(edges, "s")
        solution = solve(equations, lattice)
        # d is only fed by the unreachable c: the *least* solution keeps
        # it empty (a gfp or an unsound solver would pollute it).
        assert solution["d"] == frozenset()
        assert solution["b"] == frozenset("sab")

    def test_cyclic_system_stabilises(self):
        edges = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")]
        equations, lattice = reachability_system(edges, "s")
        solution = solve(equations, lattice)
        for node in "abc":
            assert solution[node] == frozenset("sabc")
        assert solution.iterations > len(equations)  # cycles re-iterate

    def test_widening_is_recorded_and_over_approximates(self):
        # A chain long enough that widen_after=1 triggers on the tail.
        # Built in reverse order so the worklist re-evaluates each
        # variable as its dependency grows (anti-topological seeding).
        universe = frozenset(range(10))
        lattice = PowersetLattice(universe, widen_height=2)
        chain = {i: Equation(i, (i - 1,) if i else (),
                             (lambda env, i=i:
                              frozenset({i}) | env.get(i - 1, frozenset())))
                 for i in reversed(range(10))}
        exact = solve(chain, lattice)
        widened = solve(chain, lattice, widen_after=1)
        assert not exact.widened
        assert widened.widened
        for i in range(10):
            # Widening only ever *adds* elements (soundness).
            assert lattice.leq(exact[i], widened[i])
        assert widened[9] == universe

    def test_exhausted_iteration_budget_is_detected(self):
        edges = [(i, i + 1) for i in range(100)]
        equations, lattice = reachability_system(edges, 0)
        with pytest.raises(RuntimeError, match="did not stabilise"):
            solve(equations, lattice, max_iterations=10)
