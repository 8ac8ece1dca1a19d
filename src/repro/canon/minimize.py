"""Bisimulation minimization of compiled contract tables.

A :class:`QuotientContract` is the quotient of a
:class:`~repro.compiled.tables.CompiledContract` by strong bisimilarity
over communication moves, computed by Moore-style partition refinement
directly on the integer tables: the initial partition separates states
by termination flag and enabled label set, and each round re-keys every
state by its block plus the multiset of ``label → successor-block-set``
edges until the partition stabilises.

Because every reachable contract state is *homogeneous-mode* (its moves
are all outputs or all inputs — internal and external choices never
mix, and a projected ``Seq`` head can either move or terminate, never
both), a state's ready sets are a function of its ``out_mask``,
``in_mask`` and move-lessness.  Bisimilar states therefore have equal
ready sets, and the Definition-5 stuck check — which reads only the
masks and termination flags of a pair — cannot distinguish a state from
its block representative: quotienting preserves compliance verdicts
exactly.  The quotient duck-types the table protocol consumed by
:func:`repro.compiled.search.compiled_search`, so the product-emptiness
BFS runs on quotients unchanged.

Blocks are numbered in first-seen source-state order, so block 0 always
contains source state 0 (the initial state) and the representative of a
block is its lowest-numbered member — deterministic for a fixed term,
whatever the interning history.

The quotient memo is the ``canon.quotient`` table, cleared with the
compiled-table memo (the tables embed process-global label ids, so they
must never outlive the label intern table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiled.tables import CompiledContract, _compile
from repro.contracts.contract import Contract
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

#: Entries kept in the quotient memo (same trade-off as the compiled
#: table memo it derives from).
QUOTIENT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class QuotientContract:
    """The bisimulation quotient of one contract's transition tables.

    The table fields mirror :class:`CompiledContract` state for state —
    indexed by *block* id — so the compiled product search runs on a
    quotient exactly as on the original tables.  ``terms[b]`` is the
    representative history expression of block ``b`` (its
    lowest-numbered member in LTS construction order; block 0 holds the
    initial state), ``block_of[i]`` the block of source state ``i``.
    """

    term: HistoryExpression
    terms: tuple[HistoryExpression, ...]
    state_id: dict[HistoryExpression, int]
    moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    by_label: tuple[dict[int, tuple[int, ...]], ...]
    out_mask: tuple[int, ...]
    in_mask: tuple[int, ...]
    terminated: tuple[bool, ...]
    block_of: tuple[int, ...] = field(compare=False)
    n_source_states: int = 0

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def n_blocks(self) -> int:
        return len(self.terms)

    @property
    def is_minimal(self) -> bool:
        """Was the source LTS already its own quotient?"""
        return len(self.terms) == self.n_source_states


def minimize(contract: Contract | HistoryExpression) -> QuotientContract:
    """The memoised bisimulation quotient of *contract* (terms accepted
    too; unprojected terms are projected first)."""
    term = contract.term if isinstance(contract, Contract) else \
        Contract(contract).term
    return _quotient(term)


@memo_table("canon.quotient", QUOTIENT_CACHE_SIZE,
            cleared_with=("compiled.contract",))
def _quotient(term: HistoryExpression) -> QuotientContract:
    tel = _telemetry.active()
    if tel is None:
        return _build_quotient(_compile(term))
    with tel.tracer.span("canon.minimize") as span:
        compiled = _compile(term)
        quotient = _build_quotient(compiled)
        metrics = tel.metrics
        metrics.counter("canon.minimizations").inc()
        metrics.counter("canon.states_in").inc(len(compiled))
        metrics.counter("canon.blocks_out").inc(len(quotient))
        span.set(states=len(compiled), blocks=len(quotient))
        tel.emit("canon.minimized", states=len(compiled),
                 blocks=len(quotient), minimal=quotient.is_minimal)
    return quotient


def _build_quotient(compiled: CompiledContract) -> QuotientContract:
    block = _refine(compiled)
    n_blocks = max(block) + 1

    # Representative per block: its first member in state order (block
    # ids are assigned in first-seen order, so this scan is linear).
    representative = [-1] * n_blocks
    for state, b in enumerate(block):
        if representative[b] < 0:
            representative[b] = state

    def map_targets(targets: tuple[int, ...]) -> tuple[int, ...]:
        seen: set[int] = set()
        mapped: list[int] = []
        for target in targets:
            block_id = block[target]
            if block_id not in seen:
                seen.add(block_id)
                mapped.append(block_id)
        return tuple(mapped)

    terms = tuple(compiled.terms[rep] for rep in representative)
    moves = tuple(
        tuple((co_label, map_targets(targets))
              for co_label, targets in compiled.moves[rep])
        for rep in representative)
    by_label = tuple(
        {label_id: map_targets(targets)
         for label_id, targets in compiled.by_label[rep].items()}
        for rep in representative)
    return QuotientContract(
        term=compiled.term, terms=terms,
        state_id={state: index for index, state in enumerate(terms)},
        moves=moves, by_label=by_label,
        out_mask=tuple(compiled.out_mask[rep] for rep in representative),
        in_mask=tuple(compiled.in_mask[rep] for rep in representative),
        terminated=tuple(compiled.terminated[rep]
                         for rep in representative),
        block_of=tuple(block), n_source_states=len(compiled))


def _refine(compiled: CompiledContract) -> list[int]:
    """Block id per source state under the coarsest bisimulation.

    Moore iteration: start from (terminated, enabled-label-set) classes
    and re-key by (block, per-label successor-block sets) until stable.
    Ids are assigned in first-seen state order each round, which makes
    the final numbering deterministic and puts state 0 in block 0.
    """
    n = len(compiled.terms)
    terminated = compiled.terminated
    by_label = compiled.by_label
    block = _assign(
        (terminated[i], tuple(sorted(by_label[i]))) for i in range(n))
    while True:
        refined = _assign(
            (block[i], tuple(sorted(
                (label_id, tuple(sorted({block[t] for t in targets})))
                for label_id, targets in by_label[i].items())))
            for i in range(n))
        if refined == block:
            return block
        block = refined


def _assign(keys) -> list[int]:
    """Dense ids for *keys* in first-occurrence order."""
    ids: dict = {}
    out: list[int] = []
    for key in keys:
        found = ids.get(key)
        if found is None:
            found = len(ids)
            ids[key] = found
        out.append(found)
    return out
