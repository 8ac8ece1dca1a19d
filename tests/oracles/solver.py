"""A generic worklist fixpoint solver over finite lattices: the engine
of the recursive label oracle (:mod:`tests.oracles.labels`).

The recursive label analysis is phrased as an *equation system*:
finitely many variables, one monotone transfer function each,
values drawn from a lattice of finite height.  The solver computes the
least solution by chaotic (worklist) iteration — Kleene iteration with
recomputation limited to the variables whose dependencies changed —
and optionally *widens* a variable that has been updated too often,
trading precision for a guaranteed early exit on tall lattices.

The lattice interface is deliberately tiny (``bottom``/``join``/``leq``
plus an optional ``widen``); :class:`PowersetLattice` over a finite
label universe covers the one client.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Mapping, TypeVar


V = TypeVar("V")
N = TypeVar("N", bound=Hashable)


class Lattice(Generic[V]):
    """A join-semilattice of finite height."""

    def bottom(self) -> V:
        raise NotImplementedError

    def join(self, left: V, right: V) -> V:
        raise NotImplementedError

    def leq(self, left: V, right: V) -> bool:
        """``left ⊑ right`` — default: ``left ⊔ right = right``."""
        return self.join(left, right) == right

    def widen(self, old: V, new: V) -> V:
        """The widening ``old ∇ new``; the default is no widening."""
        return new


class PowersetLattice(Lattice[frozenset]):
    """The powerset of a finite *universe*, ordered by inclusion.

    ``widen`` jumps straight to the full universe once a value's height
    (its cardinality) exceeds *widen_height* — the classic set-height
    widening: sound (the result only grows) and terminating after one
    more step, at the price of declaring every label possible.
    """

    __slots__ = ("universe", "widen_height")

    def __init__(self, universe: frozenset,
                 widen_height: int | None = None) -> None:
        self.universe = frozenset(universe)
        self.widen_height = widen_height

    def bottom(self) -> frozenset:
        return frozenset()

    def top(self) -> frozenset:
        return self.universe

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def leq(self, left: frozenset, right: frozenset) -> bool:
        return left <= right

    def widen(self, old: frozenset, new: frozenset) -> frozenset:
        if self.widen_height is not None and len(new) > self.widen_height:
            return self.universe
        return new


@dataclass(frozen=True)
class Equation(Generic[N, V]):
    """One equation ``variable = transfer(environment)``.

    ``dependencies`` lists the variables the transfer function reads;
    the solver re-evaluates this equation whenever one of them changes.
    """

    variable: N
    dependencies: tuple[N, ...]
    transfer: Callable[[Mapping[N, V]], V]


@dataclass
class FixpointSolution(Generic[N, V]):
    """The least solution of an equation system.

    ``iterations`` counts transfer-function evaluations (the classic
    cost measure of chaotic iteration); ``widened`` lists the variables
    whose final value was produced by widening and is therefore an
    over-approximation of the exact least fixpoint.
    """

    values: dict[N, V]
    iterations: int
    widened: frozenset = field(default_factory=frozenset)

    def __getitem__(self, variable: N) -> V:
        return self.values[variable]


def solve(equations: Mapping[N, Equation],
          lattice: Lattice[V], *,
          widen_after: int | None = None,
          max_iterations: int = 100_000) -> FixpointSolution[N, V]:
    """Solve the *equations* by worklist iteration from ``⊥``.

    With monotone transfers the result is the least fixpoint (Kleene);
    *widen_after* bounds the per-variable update count before the
    lattice's ``widen`` is applied, guaranteeing termination even on
    lattices whose height exceeds the iteration budget.  A system that
    still fails to stabilise within *max_iterations* raises
    ``RuntimeError`` — with finite lattices this indicates a
    non-monotone transfer function, not a big input.
    """
    values: dict[N, V] = {name: lattice.bottom() for name in equations}
    updates: dict[N, int] = {name: 0 for name in equations}
    widened: set[N] = set()

    dependents: dict[N, list[N]] = {name: [] for name in equations}
    for name, equation in equations.items():
        for dependency in equation.dependencies:
            if dependency in dependents:
                dependents[dependency].append(name)

    worklist: deque[N] = deque(equations)
    queued: set[N] = set(equations)
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"fixpoint iteration did not stabilise within "
                f"{max_iterations} steps (non-monotone transfer?)")
        name = worklist.popleft()
        queued.discard(name)
        old = values[name]
        new = lattice.join(old, equations[name].transfer(values))
        if widen_after is not None and updates[name] >= widen_after:
            widened_value = lattice.widen(old, new)
            if widened_value != new:
                widened.add(name)
                new = widened_value
        if new == old:
            continue
        values[name] = new
        updates[name] += 1
        for dependent in dependents[name]:
            if dependent not in queued:
                queued.add(dependent)
                worklist.append(dependent)

    return FixpointSolution(values, iterations, frozenset(widened))
