"""Reversible sessions: checkpointed choices, rollback, and the
reversible compliance relation.

The ordinary compliance relation (Definition 4 / Theorem 1) treats every
synchronisation as irrevocable: a client that commits to a branch whose
continuation gets stuck is stuck for good, so Definition 5 demands the
full ready-set inclusion in *every* reachable pair.  Following
*Compliance for reversible client/server interactions* (PAPERS.md), this
module relaxes commitment: a choice is **checkpointed** when taken, and
a stuck continuation may **roll back** to the last checkpoint that still
has an untried alternative.  Two layers implement that idea:

* :class:`ReversibleSession` — the operational semantics.  A forward
  synchronisation at a state with several enabled labels pushes a
  :class:`SessionCheckpoint` (the pair, the untried alternatives, the
  trace length); :meth:`ReversibleSession.rollback` pops to the nearest
  checkpoint with untried alternatives and restricts the next choice to
  them.  The recorded trace is *rewound to a prefix* on rollback — the
  invariant the resilience layer inherits: histories remain valid
  prefixes across rewinds.

* :func:`check_reversible` — the reversible compliance decider.  A pair
  is **reversibly compliant** when the client has a rollback-backed
  strategy to reach termination however the other side resolves its
  nondeterminism.  Formally it is the complement of a *doom* least
  fixpoint over the synchronisation pair graph (the lfp framing of
  *A Note On Compliance Relations And Fixed Points*, PAPERS.md):

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
from functools import lru_cache

from repro.contracts.contract import (Contract, register_cache_clearer,
                                      register_cache_stat_names)
from repro.contracts.lts import DEFAULT_STATE_LIMIT, LTS
from repro.contracts.product import PairState
from repro.core.actions import co, is_input, is_output
from repro.core.errors import StateSpaceLimitError
from repro.core.semantics import is_terminated
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import (cache_stats, reset_cache_stats,
                                             track_cache)

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


# -- the operational layer ---------------------------------------------------

@dataclass(frozen=True)
class SessionCheckpoint:
    """One checkpointed choice: the pair it was taken at, the labels not
    yet tried, and the trace length to rewind to."""

    pair: PairState
    untried: tuple[object, ...]
    depth: int


class ReversibleSession:
    """Checkpointed forward synchronisation with rollback, over one
    client/server contract pair.

    The session keeps a **checkpoint stack**: a synchronisation taken at
    a state with two or more enabled labels pushes the state and its
    untried alternatives.  When the session is stuck, :meth:`rollback`
    pops to the nearest checkpoint with an untried alternative and
    restricts the next choice to exactly those labels — so one branch is
    never retried twice from the same checkpoint, and the stack shrinks
    monotonically across rollbacks at the same state.  The recorded
    ``trace`` is truncated to the checkpoint's prefix on every rewind.
    """

    def __init__(self, client: HistoryExpression | Contract,
                 server: HistoryExpression | Contract) -> None:
        client_c = client if isinstance(client, Contract) else \
            Contract(client)
        server_c = server if isinstance(server, Contract) else \
            Contract(server)
        self._client_lts = client_c.lts
        self._server_lts = server_c.lts
        self.pair: PairState = (client_c.term, server_c.term)
        #: When not ``None``: the labels the next choice is restricted
        #: to (the untried alternatives of the restored checkpoint).
        self.allowed: frozenset | None = None
        self.stack: list[SessionCheckpoint] = []
        self.trace: list[PairState] = [self.pair]
        self.rollbacks = 0

    def is_complete(self) -> bool:
        """Has the client terminated?  (The asymmetric success condition
        of Definition 4: the client may walk away mid-server.)"""
        return is_terminated(self.pair[0])

    def enabled(self) -> tuple[object, ...]:
        """The labels the session may synchronise on next, in move
        order, honouring a post-rollback restriction."""
        labels = tuple(sync_moves(self._client_lts, self._server_lts,
                                  self.pair))
        if self.allowed is None:
            return labels
        return tuple(label for label in labels if label in self.allowed)

    def sync(self, label) -> PairState:
        """Take one synchronisation on *label*, checkpointing the choice
        when alternatives remain (the first successor in move order
        resolves the adversary's nondeterminism deterministically)."""
        moves = sync_moves(self._client_lts, self._server_lts, self.pair)
        alternatives = self.enabled()
        if label not in alternatives:
            raise ValueError(f"label {label!r} is not enabled "
                             f"(enabled: {alternatives!r})")
        if len(alternatives) >= 2:
            self.stack.append(SessionCheckpoint(
                pair=self.pair,
                untried=tuple(other for other in alternatives
                              if other != label),
                depth=len(self.trace)))
        self.pair = moves[label][0]
        self.allowed = None
        self.trace.append(self.pair)
        return self.pair

    def can_rollback(self) -> bool:
        return any(checkpoint.untried for checkpoint in self.stack)

    def rollback(self) -> bool:
        """Rewind to the nearest checkpoint with an untried alternative.

        Restores the checkpointed pair, truncates the trace back to the
        checkpoint's prefix, and restricts the next choice to the
        untried labels.  Returns ``False`` when every checkpoint is
        exhausted (the stack never regrows past this point: rollback is
        a strict descent).
        """
        while self.stack:
            checkpoint = self.stack.pop()
            if not checkpoint.untried:
                continue
            self.pair = checkpoint.pair
            self.allowed = frozenset(checkpoint.untried)
            del self.trace[checkpoint.depth:]
            self.rollbacks += 1
            return True
        return False

    def run(self, max_steps: int = 10_000, chooser=None) -> str:
        """Drive the session greedily with rollback-on-stuck.

        *chooser* picks among the enabled labels (default: the first).
        Returns ``"completed"`` (client terminated),
        ``"exhausted"`` (stuck with every checkpoint tried — on acyclic
        pair graphs this is exactly non-reversible-compliance) or
        ``"budget"``.
        """
        for _ in range(max_steps):
            if self.is_complete():
                return "completed"
            labels = self.enabled()
            if not labels:
                if not self.rollback():
                    return "exhausted"
                continue
            self.sync(chooser(labels) if chooser is not None
                      else labels[0])
        return "budget"


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


@lru_cache(maxsize=REVERSIBLE_CACHE_SIZE)
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


track_cache("reversible.decide", _decide)

_CACHE_NAMES = ["reversible.decide"]


def reversible_cache_stats() -> dict[str, dict[str, int]]:
    """Hits/misses/size of the reversible decider memo."""
    return cache_stats(*_CACHE_NAMES)


def clear_reversible_caches() -> None:
    _decide.cache_clear()
    reset_cache_stats(*_CACHE_NAMES)


register_cache_clearer(clear_reversible_caches)
register_cache_stat_names(*_CACHE_NAMES)
