"""Frontier BFS product-emptiness search over compiled tables.

States of the implicit product ``H1 ⊗ H2`` are encoded as single ints
``i * n_server + j``; the visited set is a dense bitset (sparse fallback
for oversized pair spaces), the frontier a deque of ints, and the stuck
check of Definition 5 four int operations on precompiled channel
bitmasks.  Witnesses come back as predecessor chains over encoded pairs,
decoded into term pairs only once, at the very end.

:func:`compiled_search` mirrors the on-the-fly emptiness BFS of
:func:`repro.contracts.product.search_product` exactly: stuck states are
detected at *discovery*, the search stops at the first one, and
successors are enumerated in the interpreted search's own order, so the
explored count and the reconstructed shortest trace are identical.  The
registry runs it over canon quotients; the differential tests run it
against :func:`~repro.contracts.product.search_product`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.compiled.intern import make_visited
from repro.compiled.tables import CompiledContract
from repro.core.errors import StateSpaceLimitError
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry

#: A decoded product state (the interpreted search's PairState).
_Pair = tuple[HistoryExpression, HistoryExpression]


@dataclass(frozen=True)
class CompiledSearch:
    """Outcome of :func:`compiled_search`, isomorphic to
    :class:`repro.contracts.product.ProductSearch`."""

    empty: bool
    trace: tuple[_Pair, ...] | None
    explored: int


def _decode_trace(stuck: int, parents: dict[int, int], initial: int,
                  client: CompiledContract, server: CompiledContract
                  ) -> tuple[_Pair, ...]:
    """The predecessor chain from *initial* to *stuck*, decoded."""
    n_server = len(server.terms)
    encoded = [stuck]
    node = stuck
    while node != initial:
        node = parents[node]
        encoded.append(node)
    encoded.reverse()
    client_terms = client.terms
    server_terms = server.terms
    return tuple((client_terms[code // n_server],
                  server_terms[code % n_server]) for code in encoded)


def compiled_search(client: CompiledContract, server: CompiledContract,
                    max_states: int) -> CompiledSearch:
    """Decide ``L(client ⊗ server) = ∅`` over the compiled tables.

    Mirrors the interpreted on-the-fly BFS state for state: same
    discovery order, same early exit, same explored-state count, same
    shortest counterexample.  One flight-recorder event per search is
    emitted at the boundary; the BFS loop itself stays telemetry-free.
    """
    result = _compiled_search(client, server, max_states)
    tel = _telemetry.active()
    if tel is not None:
        tel.emit("search.compiled", empty=result.empty,
                 explored=result.explored)
    return result


def _compiled_search(client: CompiledContract, server: CompiledContract,
                     max_states: int) -> CompiledSearch:
    ns = len(server.terms)
    c_moves = client.moves
    s_by_label = server.by_label
    c_out = client.out_mask
    c_in = client.in_mask
    c_term = client.terminated
    s_out = server.out_mask
    s_in = server.in_mask

    initial = 0  # both state 0s: pair 0 * ns + 0
    # Definition 5 on the initial pair, before any search.
    if not c_term[0]:
        out1 = c_out[0]
        out2 = s_out[0]
        if not (out1 | out2) or (out1 & ~s_in[0]) or (out2 & ~c_in[0]):
            return CompiledSearch(
                False, ((client.terms[0], server.terms[0]),), 1)

    visited = make_visited(len(client.terms) * ns)
    visited.add(initial)
    seen = 1
    parents: dict[int, int] = {}
    frontier: deque[int] = deque((initial,))
    pop = frontier.popleft
    push = frontier.append
    test_and_set = visited.test_and_set
    while frontier:
        code = pop()
        i = code // ns
        j = code - i * ns
        server_index = s_by_label[j]
        for co_label, client_targets in c_moves[i]:
            server_targets = server_index.get(co_label)
            if server_targets is None:
                continue
            for ci in client_targets:
                base = ci * ns
                ci_term = c_term[ci]
                ci_out = c_out[ci]
                ci_in = c_in[ci]
                for sj in server_targets:
                    successor = base + sj
                    if test_and_set(successor):
                        continue
                    if seen >= max_states:
                        raise StateSpaceLimitError(max_states)
                    seen += 1
                    parents[successor] = code
                    if not ci_term:
                        out2 = s_out[sj]
                        some = ci_out | out2
                        if (not some or (ci_out & ~s_in[sj])
                                or (out2 & ~ci_in)):
                            return CompiledSearch(
                                False,
                                _decode_trace(successor, parents, initial,
                                              client, server),
                                seen)
                    push(successor)
    return CompiledSearch(True, None, seen)
