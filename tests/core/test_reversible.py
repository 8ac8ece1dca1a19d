"""Tests for reversible compliance: the doom-lfp decider and its
replayable witnesses."""

import pytest

from repro.contracts.contract import Contract
from repro.core.compliance import check_compliance, compliant
from repro.core.reversible import (ReversibleWitness, check_reversible,
                                   reversibly_compliant, sync_moves)
from repro.core.syntax import (EPSILON, Var, external, internal, mu,
                               receive, send)


def branchy_pair():
    """Ordinarily non-compliant (branch ``a`` strands the client one
    step in), reversibly compliant (roll back, take ``b``)."""
    client = internal(("a", send("x")), ("b", EPSILON))
    server = external(("a", receive("y")), ("b", EPSILON))
    return client, server


def doomed_pair():
    """Every branch strands the client: no rollback target helps."""
    client = internal(("a", send("x")))
    server = external(("a", receive("y")))
    return client, server


class TestSyncMoves:
    def test_covers_both_directions(self):
        client = Contract(send("a", receive("b")))
        server = Contract(receive("a", send("b")))
        moves = sync_moves(client.lts, server.lts,
                           (client.term, server.term))
        assert len(moves) == 1
        (successor,), = moves.values()
        moves_next = sync_moves(client.lts, server.lts, successor)
        assert len(moves_next) == 1  # now the client-side input

    def test_unmatched_labels_are_absent(self):
        client = Contract(send("a"))
        server = Contract(receive("b"))
        moves = sync_moves(client.lts, server.lts,
                           (client.term, server.term))
        assert moves == {}

    def test_labels_and_successors_are_canonically_ordered(self):
        # The client's move order, not the terms' repr order: `b` is
        # offered before `a`, and on one label `!y` is reached before
        # `!x`.
        client = Contract(internal(("b", EPSILON), ("a", EPSILON)))
        server = Contract(external(("a", EPSILON), ("b", EPSILON)))
        moves = sync_moves(client.lts, server.lts,
                           (client.term, server.term))
        assert [str(label) for label in moves] == ["!b", "!a"]
        client = Contract(internal(("a", send("y")), ("a", send("x"))))
        server = Contract(external(("a", EPSILON)))
        (successors,) = sync_moves(client.lts, server.lts,
                                   (client.term, server.term)).values()
        assert successors == ((send("y"), EPSILON), (send("x"), EPSILON))


class TestDecider:
    def test_compliant_pair_is_reversibly_compliant(self):
        client = send("a", receive("b"))
        server = receive("a", send("b"))
        assert compliant(client, server)
        assert reversibly_compliant(client, server)

    def test_rollback_rescues_a_doomed_branch(self):
        client, server = branchy_pair()
        assert not compliant(client, server)
        result = check_reversible(client, server)
        assert result.compliant
        assert result.witness is None and result.trace is None

    def test_no_alternative_means_doomed(self):
        client, server = doomed_pair()
        result = check_reversible(client, server)
        assert not result.compliant
        assert result.witness is not None

    def test_immediately_stuck_pair_is_doomed_at_rank_zero(self):
        result = check_reversible(send("a"), receive("b"))
        assert not result.compliant
        initial = result.witness.initial
        assert result.witness.rank_table()[initial] == 0
        assert result.trace == (initial,)

    def test_terminated_client_is_never_doomed(self):
        assert reversibly_compliant(EPSILON, receive("a"))
        assert reversibly_compliant(EPSILON, EPSILON)

    def test_livelock_is_reversibly_compliant(self):
        # The client can loop forever but never reach its exit branch:
        # ordinarily non-compliant, yet never *stuck* — the reversible
        # (safety) relation accepts it.
        client = mu("k", internal(("go", receive("ack", Var("k"))),
                                  ("quit", EPSILON)))
        server = mu("k", external(("go", send("ack", Var("k")))))
        assert not compliant(client, server)
        assert reversibly_compliant(client, server)

    def test_unknown_engine_is_rejected(self):
        # One decider, no engine switch.
        with pytest.raises(TypeError, match="engine"):
            check_reversible(send("a"), receive("a"), engine="compiled")

    def test_result_is_boolean(self):
        assert check_reversible(send("a"), receive("a"))
        assert not check_reversible(send("a"), receive("b"))


class TestComplianceImpliesReversible:
    CASES = (
        (send("a", receive("b")), receive("a", send("b"))),
        (internal(("a", EPSILON), ("b", EPSILON)),
         external(("a", EPSILON), ("b", EPSILON))),
        (mu("k", internal(("go", receive("ack", Var("k"))),
                          ("quit", EPSILON))),
         mu("k", external(("go", send("ack", Var("k"))),
                          ("quit", EPSILON)))),
    )

    def test_on_fixed_compliant_pairs(self):
        for client, server in self.CASES:
            assert compliant(client, server)
            assert reversibly_compliant(client, server), (client, server)


class TestWitness:
    def test_witness_replays(self):
        for client, server in (doomed_pair(),
                               (send("a"), receive("b")),
                               (send("a", send("b")), receive("a"))):
            result = check_reversible(client, server)
            assert not result.compliant
            assert result.witness.replays(), (client, server)

    def test_demonic_play_ends_at_rank_zero(self):
        result = check_reversible(*doomed_pair())
        ranks = result.witness.rank_table()
        assert ranks[result.trace[0]] > 0
        assert ranks[result.trace[-1]] == 0
        played_ranks = [ranks[pair] for pair in result.trace]
        assert played_ranks == sorted(played_ranks, reverse=True)

    def test_tampered_witness_fails_replay(self):
        result = check_reversible(*doomed_pair())
        witness = result.witness
        # Drop the initial pair from the rank table: no longer a proof.
        tampered = ReversibleWitness(
            client=witness.client, server=witness.server,
            initial=witness.initial,
            ranks=tuple((pair, rank) for pair, rank in witness.ranks
                        if pair != witness.initial),
            strategy=witness.strategy)
        assert not tampered.replays()

    def test_inflated_rank_fails_replay(self):
        result = check_reversible(*doomed_pair())
        witness = result.witness
        tampered = ReversibleWitness(
            client=witness.client, server=witness.server,
            initial=witness.initial,
            ranks=tuple((pair, rank + 1 if rank == 0 else rank)
                        for pair, rank in witness.ranks),
            strategy=witness.strategy)
        assert not tampered.replays()

    def test_describe_mentions_the_initial_rank(self):
        result = check_reversible(*doomed_pair())
        text = result.witness.describe()
        assert "doomed pair(s)" in text
        assert "rank" in text


class TestEngineDispatch:
    def test_reversible_engine_through_check_compliance(self):
        # The reversible relation has its own decider; check_compliance
        # answers the ordinary question only.
        client, server = branchy_pair()
        assert not check_compliance(client, server).compliant
        assert check_reversible(client, server).compliant
        doomed = check_reversible(*doomed_pair())
        assert not doomed.compliant
        assert doomed.witness is not None
        assert doomed.trace is not None
        with pytest.raises(TypeError, match="engine"):
            check_compliance(client, server, engine="reversible")
