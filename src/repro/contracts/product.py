"""The product automaton of two contracts (paper, Definition 5).

The product ``H1 ⊗ H2`` models the composition of two contracts: its only
transitions are synchronisations (label ``τ``), and its *final* states are
the stuck configurations.  A state ``⟨H1, H2⟩`` with ``H1 ≠ ε`` is final
when it violates either of:

(i)  some output is enabled: ``∃ā. H1 --ā--> ∨ H2 --ā-->``
     (both participants waiting on inputs is a deadlock);
(ii) every enabled output of one participant is matched by an enabled
     input of the other, in both directions.

Theorem 1: ``H1 ⊢ H2`` iff the language of ``H1 ⊗ H2`` is empty, i.e. no
final state is reachable.  Theorem 2 observes that conditions (i) and (ii)
only inspect the current state, making compliance an *invariant* — hence a
safety — property.

Two constructions are provided:

* :func:`build_product` materialises the full explicit automaton, as
  the paper's construction literally reads — for callers that need the
  state space itself, and as the oracle the differential tests check
  :func:`search_product` against;
* :func:`explore_product` explores the *implicit* product on the fly,
  breadth first and in the component LTSs' move order, and rebuilds the
  shortest counterexample from its parent pointers.  Because compliance
  is a safety property (Theorem 2), :func:`search_product` stops at the
  first reachable stuck pair — non-compliance costs O(states within the
  counterexample radius), not O(full product); the compliance
  certificate of :mod:`repro.staticcheck.compliance` runs the same BFS
  to the end, to report the size of the candidate relation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from repro.core.actions import TAU, Tau, co, is_input, is_output
from repro.core.semantics import is_terminated
from repro.core.syntax import HistoryExpression
from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT, LTS, build_lts
from repro.core.errors import StateSpaceLimitError
from repro.observability import runtime as _telemetry

#: A product state ``⟨H1, H2⟩``.
PairState = tuple[HistoryExpression, HistoryExpression]


def is_stuck(client_lts: LTS, server_lts: LTS, state: PairState) -> bool:
    """The per-state final-state check of Definition 5 (``¬Φ`` of
    Theorem 2): *state* is stuck unless the client has terminated or both
    (i) and (ii) hold."""
    h1, h2 = state
    if is_terminated(h1):
        return False
    labels1 = client_lts.labels_from(h1)
    labels2 = server_lts.labels_from(h2)
    outputs1 = {label for label in labels1 if is_output(label)}
    outputs2 = {label for label in labels2 if is_output(label)}
    inputs1 = {label for label in labels1 if is_input(label)}
    inputs2 = {label for label in labels2 if is_input(label)}
    some_output = bool(outputs1 or outputs2)
    if not some_output:                               # ¬(i)
        return True
    matched = (all(co(out) in inputs2 for out in outputs1)
               and all(co(out) in inputs1 for out in outputs2))
    return not matched                                # ¬(ii)


def synchronisations(client_lts: LTS, server_lts: LTS, state: PairState):
    """The product moves out of *state*: every pairing of a communication
    of one side with its co-action on the other (both directions are
    covered because each synchronisation appears once as an output and
    once as an input), in the component LTSs' move order."""
    h1, h2 = state
    for label in client_lts.labels_from(h1):
        if not (is_output(label) or is_input(label)):
            continue
        partner = co(label)
        for h1_next in client_lts.successors(h1, label):
            for h2_next in server_lts.successors(h2, partner):
                yield h1_next, h2_next


@dataclass(frozen=True)
class ProductAutomaton:
    """The explicit product automaton ``H1 ⊗ H2`` of Definition 5."""

    client: Contract
    server: Contract
    lts: LTS[PairState, Tau]
    final_states: frozenset[PairState]

    @property
    def initial(self) -> PairState:
        """The initial state ``⟨H1, H2⟩``."""
        return self.lts.initial

    @cached_property
    def reachable_final_states(self) -> frozenset[PairState]:
        """Final (stuck) states reachable from the initial state."""
        return frozenset(self.lts.reachable_from(self.initial)
                         & self.final_states)

    def language_is_empty(self) -> bool:
        """``L(H1 ⊗ H2) = ∅`` — no reachable final state (Theorem 1)."""
        return not self.reachable_final_states

    def counterexample(self) -> tuple[PairState, ...] | None:
        """A shortest path of product states leading to a stuck state, or
        ``None`` when the contracts are compliant.

        The returned tuple starts at the initial state and ends at a final
        state; consecutive states are related by one synchronisation.
        """
        path = self.lts.path_to(lambda s: s in self.final_states)
        if path is None:
            return None
        return (self.initial,) + tuple(state for _, state in path)

    def violates_invariant(self, state: PairState) -> bool:
        """The per-state check of Theorem 2: ``state ⊨ Φ`` fails.

        ``Φ`` is the invariant ``H1 = ε ∨ ((i) ∧ (ii))``; compliance holds
        iff every reachable state satisfies ``Φ``.
        """
        return state in self.final_states


@dataclass(frozen=True)
class ProductSearch:
    """Outcome of the on-the-fly product BFS (:func:`explore_product`).

    ``empty`` is the Theorem 1 verdict; on failure ``trace`` is a shortest
    sequence of product states from the initial one to the stuck witness
    (its last element).  ``explored`` counts the distinct product states
    discovered — the regression the benchmarks track: when
    :func:`search_product` refuses a pair it stays within the BFS radius
    of the counterexample instead of the full product size.
    """

    empty: bool
    trace: tuple[PairState, ...] | None
    explored: int

    @property
    def witness(self) -> PairState | None:
        """The stuck pair, or ``None`` when the language is empty."""
        return None if self.trace is None else self.trace[-1]


def search_product(client: Contract, server: Contract,
                   max_states: int = DEFAULT_STATE_LIMIT) -> ProductSearch:
    """Decide ``L(client ⊗ server) = ∅`` without building the automaton.

    The BFS of :func:`explore_product`, stopped at the first reachable
    stuck pair — at minimal synchronisation depth, which keeps the
    returned counterexample shortest, exactly like
    :meth:`ProductAutomaton.counterexample`.
    """
    tel = _telemetry.active()
    if tel is None:
        return explore_product(client, server, max_states)
    with tel.tracer.span("compliance.search_product") as span:
        result = explore_product(client, server, max_states)
        depth = None if result.trace is None else len(result.trace) - 1
        span.set(empty=result.empty, explored=result.explored,
                 counterexample_depth=depth)
        metrics = tel.metrics
        outcome = "empty" if result.empty else "counterexample"
        metrics.counter("compliance.searches", outcome=outcome).inc()
        metrics.counter("compliance.explored_states").inc(result.explored)
        # Every discovered state is enqueued except a stuck witness (the
        # BFS returns the moment it finds one).
        metrics.counter("compliance.enqueued_states").inc(
            result.explored if result.empty else result.explored - 1)
        tel.emit("search.product", empty=result.empty,
                 explored=result.explored)
        return result


def explore_product(client: Contract, server: Contract,
                    max_states: int = DEFAULT_STATE_LIMIT, *,
                    exhaustive: bool = False) -> ProductSearch:
    """The uninstrumented product BFS.

    Pairs are visited breadth first, successors in the order of
    :func:`synchronisations`, and each pair is checked against the
    Definition 5 final-state condition when first discovered.  Stuck
    pairs are absorbing: Definition 5 cuts their transitions.  The
    search stops at the first stuck pair unless *exhaustive*, in which
    case it explores every pair reachable from the initial one, so
    ``explored`` is the size of that candidate relation; the trace still
    leads to the first stuck pair found.
    """
    client_lts = client.lts
    server_lts = server.lts
    initial: PairState = (client.term, server.term)

    # Parent pointers; their keys are the pairs discovered so far.
    parents: dict[PairState, PairState | None] = {initial: None}
    if is_stuck(client_lts, server_lts, initial):
        return _outcome(parents, initial)
    stuck: PairState | None = None
    frontier: deque[PairState] = deque([initial])
    while frontier:
        state = frontier.popleft()
        for successor in synchronisations(client_lts, server_lts, state):
            if successor in parents:
                continue
            if len(parents) >= max_states:
                raise StateSpaceLimitError(max_states)
            parents[successor] = state
            if not is_stuck(client_lts, server_lts, successor):
                frontier.append(successor)
            elif stuck is None:
                stuck = successor
                if not exhaustive:
                    return _outcome(parents, stuck)
    return _outcome(parents, stuck)


def _outcome(parents: dict[PairState, PairState | None],
             stuck: PairState | None) -> ProductSearch:
    """The verdict, with the parent chain from the initial pair to
    *stuck* as the counterexample."""
    if stuck is None:
        return ProductSearch(True, None, len(parents))
    trace: list[PairState] = []
    node: PairState | None = stuck
    while node is not None:
        trace.append(node)
        node = parents[node]
    trace.reverse()
    return ProductSearch(False, tuple(trace), len(parents))


def build_product(client: Contract, server: Contract) -> ProductAutomaton:
    """Construct the explicit product automaton ``client ⊗ server``.

    Both component transition systems are finite (projection of guarded
    tail-recursive terms), so the product is finite as well.
    """
    client_lts = client.lts
    server_lts = server.lts

    def successors(state: PairState):
        if is_stuck(client_lts, server_lts, state):
            # Definition 5 cuts transitions out of final states.
            return
        for successor in synchronisations(client_lts, server_lts, state):
            yield TAU, successor

    lts = build_lts((client.term, server.term), successors)
    final = frozenset(state for state in lts.states
                      if is_stuck(client_lts, server_lts, state))
    return ProductAutomaton(client, server, lts, final)
