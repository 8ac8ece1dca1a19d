"""Reversible compliance: the relation under which a client may roll a
choice back.

The ordinary compliance relation (Definition 4 / Theorem 1) treats every
synchronisation as irrevocable: a client that commits to a branch whose
continuation gets stuck is stuck for good, so Definition 5 demands the
full ready-set inclusion in *every* reachable pair.  Following
*Compliance for reversible client/server interactions* (PAPERS.md), this
module relaxes commitment: a choice is **checkpointed** when taken, and
a stuck continuation may **roll back** to the last checkpoint that still
has an untried alternative.  Rollback on a running network — checkpoints
on components, histories rewound to a valid prefix — is
:mod:`repro.resilience.checkpoints`; this module decides the relation.

A pair is **reversibly compliant** when the client has a rollback-backed
strategy to reach termination however the other side resolves its
nondeterminism.  :func:`check_reversible` decides it as the complement
of a *doom* least fixpoint over the synchronisation pair graph (the lfp
framing of *A Note On Compliance Relations And Fixed Points*,
PAPERS.md)::

    doomed ::= lfp D. { p | client(p) ≠ ε ∧
                            ∀ℓ ∈ syncs(p) ∃ p' ∈ succs(p, ℓ): p' ∈ D }

The system (client + rollback) picks the synchronisation label — an
untried branch is always recoverable, so the choice is angelic — while
the adversary resolves which successor pair a label lands in; a pair
with no synchronisations and a non-terminated client is doomed
vacuously (nothing left to retract into).  ``H1 ⊢ H2`` in the ordinary
sense implies reversible compliance (every reachable pair offers a
matched action, so by induction no lfp stage can claim the initial
pair); the property suite checks that implication on random contracts.

The pair graph is its own closure, not
:func:`~repro.contracts.product.explore_product`'s: the game needs the
successors grouped by label (the label is the system's move), and a
pair stuck in Definition 5's sense may still synchronise, so the game
goes on past it where the product BFS stops.

On failure the decider returns a **replayable witness**: the adversary's
strategy — for every doomed pair, one doomed successor per enabled
label, with strictly decreasing lfp rank — plus one demonic play.
:meth:`ReversibleWitness.replays` re-derives the synchronisation moves
and verifies genuine successorship and rank decrease, so a reported
"rollback cannot restore compliance" verdict carries its own proof.

On the command line the relation is ``repro compliance --reversible``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.contracts.contract import Contract
from repro.contracts.lts import DEFAULT_STATE_LIMIT, LTS
from repro.contracts.product import PairState
from repro.core.actions import co, is_input, is_output
from repro.core.errors import StateSpaceLimitError
from repro.core.semantics import is_terminated
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

#: Entries kept in the decider memos (same trade-off as the contract
#: caches they sit beside).
REVERSIBLE_CACHE_SIZE = 1024


def sync_moves(client_lts: LTS, server_lts: LTS, pair: PairState
               ) -> dict[object, tuple[PairState, ...]]:
    """The synchronisation moves out of *pair*, grouped by the client's
    label: ``label -> successor pairs``, labels and successors in the
    component LTSs' move order.

    Both directions are covered because every synchronisation appears
    once as the client's output and once as the client's input; the
    grouping is what distinguishes the reversible relation — the system
    chooses the *label*, the adversary the successor pair.
    """
    h1, h2 = pair
    moves: dict[object, tuple[PairState, ...]] = {}
    for label in client_lts.labels_from(h1):
        if not (is_output(label) or is_input(label)):
            continue
        partner = co(label)
        successors = tuple((h1_next, h2_next)
                           for h1_next in client_lts.successors(h1, label)
                           for h2_next in server_lts.successors(h2, partner))
        if successors:
            moves[label] = successors
    return moves


# -- the decider -------------------------------------------------------------

@dataclass(frozen=True)
class ReversibleWitness:
    """A replayable proof that rollback cannot restore compliance.

    ``ranks`` assigns every doomed pair its lfp stage; ``strategy`` is
    the adversary's answer book — for each doomed pair of positive rank,
    one doomed successor per enabled label, of strictly smaller rank.
    ``client``/``server`` are the (projected) terms the proof is about,
    so :meth:`replays` is self-contained.
    """

    client: HistoryExpression
    server: HistoryExpression
    initial: PairState
    ranks: tuple[tuple[PairState, int], ...]
    strategy: tuple[tuple[PairState, tuple[tuple[object, PairState], ...]],
                    ...]

    def rank_table(self) -> dict[PairState, int]:
        return dict(self.ranks)

    def strategy_table(self) -> dict[PairState, dict[object, PairState]]:
        return {pair: dict(answers) for pair, answers in self.strategy}

    def replays(self) -> bool:
        """Re-derive the synchronisation moves and check the proof: the
        initial pair is ranked; every ranked pair is non-terminated;
        rank 0 means no synchronisation at all; positive rank means the
        strategy answers *every* enabled label with a genuine successor
        of strictly smaller rank."""
        client_lts = Contract(self.client, already_projected=True).lts
        server_lts = Contract(self.server, already_projected=True).lts
        ranks = self.rank_table()
        strategy = self.strategy_table()
        if self.initial not in ranks:
            return False
        for pair, rank in ranks.items():
            if is_terminated(pair[0]):
                return False
            moves = sync_moves(client_lts, server_lts, pair)
            if rank == 0:
                if moves:
                    return False
                continue
            answers = strategy.get(pair)
            if answers is None or set(answers) != set(moves):
                return False
            for label, successor in answers.items():
                if successor not in moves[label]:
                    return False
                successor_rank = ranks.get(successor)
                if successor_rank is None or successor_rank >= rank:
                    return False
        return True

    def describe(self, limit: int = 6) -> str:
        """A bounded, human-readable summary of the doom proof."""
        lines = [f"{len(self.ranks)} doomed pair(s); initial rank "
                 f"{self.rank_table()[self.initial]}"]
        for pair, rank in self.ranks[:limit]:
            lines.append(f"  rank {rank}: ⟨{pair[0]}, {pair[1]}⟩")
        if len(self.ranks) > limit:
            lines.append(f"  ... {len(self.ranks) - limit} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ReversibleResult:
    """Outcome of :func:`check_reversible`.

    ``explored_states`` counts the synchronisation-reachable pairs the
    lfp ran over; on failure ``witness`` is the adversary strategy and
    ``trace`` one demonic play from the initial pair to a rank-0 pair
    (the first answered label at every step).
    """

    compliant: bool
    explored_states: int
    witness: ReversibleWitness | None = None
    trace: tuple[PairState, ...] | None = None

    def __bool__(self) -> bool:
        return self.compliant


def check_reversible(client: HistoryExpression | Contract,
                     server: HistoryExpression | Contract,
                     *, max_states: int = DEFAULT_STATE_LIMIT
                     ) -> ReversibleResult:
    """Decide reversible compliance of ``client``/``server``: the doom
    lfp over the synchronisation pair graph (memoised on the projected
    pair)."""
    client_term = _project(client)
    server_term = _project(server)
    tel = _telemetry.active()
    if tel is None:
        return _decide(client_term, server_term, max_states)
    with tel.tracer.span("compliance.reversible") as span:
        result = _decide(client_term, server_term, max_states)
        span.set(compliant=result.compliant,
                 explored_states=result.explored_states)
        tel.metrics.counter(
            "compliance.reversible_checks",
            verdict="compliant" if result.compliant
            else "doomed").inc()
        tel.emit("reversible.verdict", compliant=result.compliant,
                 explored=result.explored_states)
        return result


def reversibly_compliant(client: HistoryExpression | Contract,
                         server: HistoryExpression | Contract) -> bool:
    """The bare reversible-compliance verdict."""
    return check_reversible(client, server).compliant


def _project(value: HistoryExpression | Contract) -> HistoryExpression:
    if isinstance(value, Contract):
        return value.term
    return Contract(value).term


@memo_table("reversible.decide", REVERSIBLE_CACHE_SIZE)
def _decide(client_term: HistoryExpression, server_term: HistoryExpression,
            max_states: int) -> ReversibleResult:
    client_c = Contract(client_term, already_projected=True)
    server_c = Contract(server_term, already_projected=True)
    client_lts = client_c.lts
    server_lts = server_c.lts
    initial: PairState = (client_term, server_term)

    # 1. The synchronisation-reachable pair closure, with per-label
    #    successor groups (the game board).
    moves: dict[PairState, dict[object, tuple[PairState, ...]]] = {}
    order: list[PairState] = [initial]
    seen: set[PairState] = {initial}
    cursor = 0
    while cursor < len(order):
        pair = order[cursor]
        cursor += 1
        pair_moves = sync_moves(client_lts, server_lts, pair)
        moves[pair] = pair_moves
        for successors in pair_moves.values():
            for successor in successors:
                if successor in seen:
                    continue
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "reversible pair graph")
                seen.add(successor)
                order.append(successor)

    # 2. The doom lfp, round-synchronised so ranks are canonical (the
    #    minimal stage) regardless of iteration order.  Commits happen
    #    after each scan: membership tests inside a round only see
    #    strictly earlier ranks, which is what makes the witness's
    #    rank-decrease check sound.
    doomed: dict[PairState, int] = {}
    strategy: dict[PairState, dict[object, PairState]] = {}
    rank = 0
    while True:
        newly: list[tuple[PairState, dict[object, PairState]]] = []
        for pair in order:
            if pair in doomed or is_terminated(pair[0]):
                continue
            answers: dict[object, PairState] = {}
            refuted = True
            for label, successors in moves[pair].items():
                picked = next((successor for successor in successors
                               if successor in doomed), None)
                if picked is None:
                    refuted = False
                    break
                answers[label] = picked
            if refuted:
                newly.append((pair, answers))
        if not newly:
            break
        for pair, answers in newly:
            doomed[pair] = rank
            strategy[pair] = answers
        rank += 1

    explored = len(order)
    if initial not in doomed:
        return ReversibleResult(True, explored)
    return ReversibleResult(
        False, explored,
        witness=_build_witness(client_term, server_term, initial,
                               doomed, strategy),
        trace=_demonic_play(initial, doomed, strategy))


def _build_witness(client_term, server_term, initial,
                   doomed: dict[PairState, int],
                   strategy: dict[PairState, dict[object, PairState]]
                   ) -> ReversibleWitness:
    # Both dicts were filled rank by rank, in exploration order.
    ranks = tuple(doomed.items())
    frozen_strategy = tuple((pair, tuple(answers.items()))
                            for pair, answers in strategy.items()
                            if answers)
    return ReversibleWitness(client=client_term, server=server_term,
                             initial=initial, ranks=ranks,
                             strategy=frozen_strategy)


def _demonic_play(initial: PairState, doomed: dict[PairState, int],
                  strategy: dict[PairState, dict[object, PairState]]
                  ) -> tuple[PairState, ...]:
    """One play following the adversary strategy from the initial pair
    down to a rank-0 pair: the system plays the first answered label,
    the adversary answers from the strategy.  Rank strictly decreases,
    so the play is finite and ends genuinely stuck."""
    play = [initial]
    current = initial
    while doomed[current] > 0:
        current = next(iter(strategy[current].values()))
        play.append(current)
    return tuple(play)
