"""Tests for the generic finite-LTS substrate."""

import pytest

from repro.core.errors import StateSpaceLimitError
from repro.contracts.lts import LTS, bisimilar, build_lts


def chain(n):
    """0 --t--> 1 --t--> … --t--> n (no moves from n)."""
    return build_lts(0, lambda s: [("t", s + 1)] if s < n else [])


def cycle(n):
    """A directed n-cycle."""
    return build_lts(0, lambda s: [("t", (s + 1) % n)])


class TestBuild:
    def test_single_state(self):
        lts = build_lts("s", lambda s: [])
        assert lts.states == {"s"}
        assert lts.deadlocks() == {"s"}

    def test_chain(self):
        lts = chain(3)
        assert len(lts) == 4
        assert lts.deadlocks() == {3}

    def test_cycle_terminates(self):
        lts = cycle(5)
        assert len(lts) == 5
        assert lts.deadlocks() == frozenset()

    def test_state_limit_enforced(self):
        with pytest.raises(StateSpaceLimitError):
            build_lts(0, lambda s: [("t", s + 1)], max_states=100)

    def test_branching(self):
        lts = build_lts(0, lambda s: [("a", 1), ("b", 2)] if s == 0 else [])
        assert lts.labels_from(0) == {"a", "b"}
        assert lts.successors(0, "a") == {1}


class TestMoveOrder:
    """``labels_from`` and ``successors`` keep the move list's order:
    first occurrence, no duplicates.  They still compare equal to sets."""

    @staticmethod
    def lts():
        moves = [("b", 2), ("a", 1), ("b", 1), ("b", 2), ("a", 1)]
        return build_lts(0, lambda s: moves if s == 0 else [])

    def test_labels_in_move_order(self):
        labels = self.lts().labels_from(0)
        assert list(labels) == ["b", "a"]
        assert labels == {"a", "b"}
        assert labels == frozenset({"a", "b"})

    def test_successors_in_move_order(self):
        lts = self.lts()
        assert list(lts.successors(0, "b")) == [2, 1]
        assert list(lts.successors(0, "a")) == [1]
        assert lts.successors(0, "b") == {1, 2}
        assert 2 in lts.successors(0, "b")

    def test_no_moves_is_empty(self):
        lts = self.lts()
        assert list(lts.labels_from(1)) == []
        assert lts.successors(0, "c") == frozenset()
        assert lts.successors(1, "a") == set()


class TestObservations:
    def test_alphabet(self):
        lts = build_lts(0, lambda s: [("x", 1), ("y", 1)] if s == 0 else [])
        assert lts.alphabet() == {"x", "y"}

    def test_reachable_from(self):
        lts = chain(3)
        assert lts.reachable_from(2) == {2, 3}

    def test_path_to(self):
        lts = chain(3)
        path = lts.path_to(lambda s: s == 2)
        assert path == (("t", 1), ("t", 2))

    def test_path_to_initial_is_empty(self):
        lts = chain(1)
        assert lts.path_to(lambda s: s == 0) == ()

    def test_path_to_unreachable_is_none(self):
        lts = chain(1)
        assert lts.path_to(lambda s: s == 99) is None


class TestTransformations:
    def test_renumber_is_isomorphic(self):
        lts = build_lts("root", lambda s: ([("t", "leaf")]
                                           if s == "root" else []))
        dense = lts.renumber()
        assert dense.initial == 0
        assert dense.states == {0, 1}

    def test_to_dot(self):
        dot = chain(1).to_dot(name="g")
        assert dot.startswith("digraph g")
        assert "0 -> 1" in dot


class TestBisimilarity:
    def test_identical_systems(self):
        assert bisimilar(chain(3), chain(3))

    def test_different_lengths(self):
        assert not bisimilar(chain(2), chain(3))

    def test_unrolled_cycle_is_bisimilar(self):
        # A 1-cycle and a 2-cycle on the same label are bisimilar.
        assert bisimilar(cycle(1), cycle(2))

    def test_label_mismatch(self):
        a = build_lts(0, lambda s: [("x", 0)])
        b = build_lts(0, lambda s: [("y", 0)])
        assert not bisimilar(a, b)

    def test_branching_vs_linear(self):
        branching = build_lts(0, lambda s: ([("a", 1), ("b", 2)]
                                            if s == 0 else []))
        linear = build_lts(0, lambda s: [("a", 1)] if s == 0 else [])
        assert not bisimilar(branching, linear)
