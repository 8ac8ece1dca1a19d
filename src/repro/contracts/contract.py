"""Behavioural contracts: projected history expressions with a finite LTS.

A :class:`Contract` wraps the projection ``H!`` of a history expression and
caches the finite transition system it generates.  The finiteness relies on
the calculus restrictions (guarded tail recursion; see Section 4: "the
transition system of H! is finite state").
"""

from __future__ import annotations

from repro.core.actions import Label, Receive, Send, is_input, is_output
from repro.core.projection import project
from repro.core.ready_sets import ReadySet, ready_sets
from repro.core.semantics import step
from repro.core.syntax import HistoryExpression, is_closed
from repro.contracts.lts import LTS, build_lts
from repro.observability.cache_stats import (  # noqa: F401 (re-exported)
    clear_contract_caches, memo_table)

#: Entries kept in the shared projection / LTS caches.  Terms are immutable
#: and structurally hashed, so caching is sound; the bound only trades
#: memory for recomputation.
CONTRACT_CACHE_SIZE = 4096


@memo_table("contracts.projection", CONTRACT_CACHE_SIZE)
def _projection_of(term: HistoryExpression) -> HistoryExpression:
    """Shared, memoised projection ``H!``."""
    return project(term)


@memo_table("contracts.lts", CONTRACT_CACHE_SIZE)
def _lts_of(projected: HistoryExpression) -> LTS[HistoryExpression, Label]:
    """Shared, memoised transition system of a projected term.

    Keyed on the projected term, so every ``Contract`` over a structurally
    equal term — however constructed — reuses one built LTS (and with it
    the label-indexed adjacency the LTS itself caches).
    """
    return build_lts(projected, step)


class Contract:
    """The communication behaviour of a (closed) history expression.

    Instances are immutable; the underlying LTS is built on first use and
    cached.  Equality is structural on the projected term.
    """

    __slots__ = ("_term", "__dict__")

    def __init__(self, term: HistoryExpression,
                 already_projected: bool = False) -> None:
        if not is_closed(term):
            raise ValueError("contracts are built from closed history "
                             "expressions only")
        self._term = term if already_projected else _projection_of(term)

    @property
    def term(self) -> HistoryExpression:
        """The projected history expression ``H!``."""
        return self._term

    @property
    def lts(self) -> LTS[HistoryExpression, Label]:
        """The (finite) transition system of the contract.

        Served from the module-level LRU, shared across all structurally
        equal contracts."""
        return _lts_of(self._term)

    @property
    def states(self) -> frozenset[HistoryExpression]:
        """All reachable contract states."""
        return self.lts.states

    def ready_sets_of(self, state: HistoryExpression | None = None
                      ) -> frozenset[ReadySet]:
        """Ready sets of *state* (default: the initial state)."""
        return ready_sets(self._term if state is None else state)

    def outputs_from(self, state: HistoryExpression) -> frozenset[Send]:
        """Output actions enabled in *state*."""
        return frozenset(label for label in self.lts.labels_from(state)
                         if is_output(label))

    def inputs_from(self, state: HistoryExpression) -> frozenset[Receive]:
        """Input actions enabled in *state*."""
        return frozenset(label for label in self.lts.labels_from(state)
                         if is_input(label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Contract):
            return NotImplemented
        return self._term == other._term

    def __hash__(self) -> int:
        return hash(("Contract", self._term))

    def __repr__(self) -> str:
        return f"Contract({self._term!r})"

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self._term)
