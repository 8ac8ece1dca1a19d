"""Lowering a contract LTS into dense integer transition tables.

One :class:`CompiledContract` per (projected) term, memoised: states and
labels are interned into small ints, each state's communication moves
become tuples of ints, and the Definition-5 stuck-check ingredients are
precompiled as *channel bitmasks* — ``out_mask`` has bit ``c`` set iff
an output on channel ``c`` is enabled, ``in_mask`` iff an input is.
Because an output on channel ``c`` is matched exactly by an input on
``c``, the ready-set inclusion test of Definition 5

    every enabled output of one side is matched by the other

compiles to ``out1 & ~in2 == 0 and out2 & ~in1 == 0`` on ints, and the
deadlock test (i) to ``out1 | out2 != 0``.

Labels and channels are interned in one process-wide table
(:data:`LABELS`), so two contracts compiled independently agree on every
label id and the product search never touches a label object.  The
table also precomputes the co-action id per label (``co(ā) = a``), which
is how synchronisation pairing becomes an int-keyed dict lookup.

Move orders are preserved exactly as the interpreted product search
enumerates them — ``labels_from``/``successors`` order, which is the
LTS's move order — so the compiled BFS discovers states in the same
order and reconstructs identical witnesses.

Everything is memoised per term in the ``compiled.contract`` memo
table, whose clear also resets :data:`LABELS`; compilation emits
``compile.*`` telemetry (states/labels interned, table bytes) inside a
``compile.contract`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiled.intern import Interner
from repro.core.actions import Receive, Send, is_input, is_output
from repro.core.semantics import is_terminated
from repro.core.syntax import HistoryExpression
from repro.contracts.contract import Contract
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

#: Entries kept in the compiled-table memo (same trade-off as the
#: contract/LTS caches it sits beside).
COMPILED_CACHE_SIZE = 1024


class LabelTable:
    """Process-wide intern table for communication labels and channels.

    ``co_id[label_id]`` is the id of the co-action (``-1`` for labels
    without one); ``channel_mask[label_id]`` the single-bit mask of the
    label's channel (``0`` for non-communications); ``is_out[label_id]``
    whether the label is an output.
    """

    __slots__ = ("labels", "channels", "co_id", "channel_mask", "is_out")

    def __init__(self) -> None:
        self.labels = Interner()
        self.channels = Interner()
        self.co_id: list[int] = []
        self.channel_mask: list[int] = []
        self.is_out: list[bool] = []

    def intern(self, label) -> int:
        """The id of *label*, extending the side tables when new."""
        found = self.labels.get(label)
        if found is not None:
            return found
        index = self.labels.intern(label)
        if isinstance(label, Send):
            partner: object = Receive(label.channel)
            mask = 1 << self.channels.intern(label.channel)
            out = True
        elif isinstance(label, Receive):
            partner = Send(label.channel)
            mask = 1 << self.channels.intern(label.channel)
            out = False
        else:
            partner = None
            mask = 0
            out = False
        self.co_id.append(-1)
        self.channel_mask.append(mask)
        self.is_out.append(out)
        if partner is not None:
            # Interning the partner may extend the tables recursively;
            # patch both directions afterwards.
            partner_id = self.intern(partner)
            self.co_id[index] = partner_id
            self.co_id[partner_id] = index
        return index

    def clear(self) -> None:
        self.__init__()


#: The process-wide label/channel intern table.  Cleared with the
#: compiled-contract memo (the cached tables reference its ids), and with
#: it every memo table declared ``cleared_with`` that memo.
LABELS = LabelTable()


@dataclass(frozen=True)
class CompiledContract:
    """Flat integer tables for one contract's transition system.

    ``terms[i]`` recovers the history expression of state ``i`` (state 0
    is the initial one, remaining states in LTS construction order).
    ``moves[i]`` lists the communication moves of state ``i`` as
    ``(co_label_id, targets)`` in the exact order the interpreted
    product enumerates them; ``by_label[i]`` indexes the same targets by
    the state's *own* label id (the receiving side of a
    synchronisation).  ``out_mask``/``in_mask`` are the channel bitmask
    ready sets, ``terminated`` the ``ε`` flags.
    """

    term: HistoryExpression
    terms: tuple[HistoryExpression, ...]
    state_id: dict[HistoryExpression, int]
    moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    by_label: tuple[dict[int, tuple[int, ...]], ...]
    out_mask: tuple[int, ...]
    in_mask: tuple[int, ...]
    terminated: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def n_states(self) -> int:
        return len(self.terms)

    def table_bytes(self) -> int:
        """Rough size of the integer tables (interned objects excluded)
        — the footprint the ``compile.table_bytes`` counter reports."""
        words = len(self.out_mask) + len(self.in_mask) + len(self.terminated)
        for state_moves in self.moves:
            for _, targets in state_moves:
                words += 2 + len(targets)
        for index in self.by_label:
            words += 2 * len(index)
        return words * 8


def compile_contract(contract: Contract | HistoryExpression
                     ) -> CompiledContract:
    """The memoised compiled tables of *contract* (terms accepted too).

    Telemetry (when active) records per actual compilation — memo hits
    are free — the states and labels interned and the flat-table bytes
    under ``compile.*``, in a ``compile.contract`` span.
    """
    term = contract.term if isinstance(contract, Contract) else \
        Contract(contract).term
    return _compile(term)


@memo_table("compiled.contract", COMPILED_CACHE_SIZE, on_clear=LABELS.clear)
def _compile(term: HistoryExpression) -> CompiledContract:
    tel = _telemetry.active()
    if tel is None:
        return _compile_tables(term)
    with tel.tracer.span("compile.contract") as span:
        labels_before = len(LABELS.labels)
        compiled = _compile_tables(term)
        new_labels = len(LABELS.labels) - labels_before
        table_bytes = compiled.table_bytes()
        metrics = tel.metrics
        metrics.counter("compile.contracts").inc()
        metrics.counter("compile.states_interned").inc(len(compiled))
        metrics.counter("compile.labels_interned").inc(new_labels)
        metrics.counter("compile.table_bytes").inc(table_bytes)
        span.set(states=len(compiled), table_bytes=table_bytes)
        tel.emit("compile.contract", states=len(compiled),
                 labels=new_labels, table_bytes=table_bytes)
    return compiled


def _compile_tables(term: HistoryExpression) -> CompiledContract:
    lts = Contract(term, already_projected=True).lts
    states = Interner()
    # Intern in LTS construction order (BFS from the initial term), so
    # state 0 is initial and ids are stable per term.
    for state in lts.transitions:
        states.intern(state)

    intern_label = LABELS.intern
    co_id = LABELS.co_id
    channel_mask = LABELS.channel_mask
    moves: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    by_label: list[dict[int, tuple[int, ...]]] = []
    out_masks: list[int] = []
    in_masks: list[int] = []
    terminated: list[bool] = []
    for state in states.values:
        out_mask = 0
        in_mask = 0
        state_moves: list[tuple[int, tuple[int, ...]]] = []
        label_index: dict[int, tuple[int, ...]] = {}
        # labels_from / successors move order is exactly what the
        # interpreted synchronisations() enumerates — keep it.
        for label in lts.labels_from(state):
            output = is_output(label)
            if not (output or is_input(label)):
                continue
            label_id = intern_label(label)
            targets = tuple(states.ids[target]
                            for target in lts.successors(state, label))
            state_moves.append((co_id[label_id], targets))
            label_index[label_id] = targets
            if output:
                out_mask |= channel_mask[label_id]
            else:
                in_mask |= channel_mask[label_id]
        moves.append(tuple(state_moves))
        by_label.append(label_index)
        out_masks.append(out_mask)
        in_masks.append(in_mask)
        terminated.append(is_terminated(state))

    return CompiledContract(
        term=term, terms=tuple(states.values), state_id=states.ids,
        moves=tuple(moves), by_label=tuple(by_label),
        out_mask=tuple(out_masks), in_mask=tuple(in_masks),
        terminated=tuple(terminated))


def label_table_stats() -> dict[str, int]:
    """Size of the process-wide label intern table plus the number of
    currently memoised compiled contracts (what the CLI prints under
    ``--stats``)."""
    return {"labels": len(LABELS.labels),
            "channels": len(LABELS.channels),
            "compiled_contracts": _compile.cache_info().currsize}
