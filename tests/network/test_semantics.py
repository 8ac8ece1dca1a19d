"""Tests for the network operational rules (Open, Close, Session, Net,
Access, Synch) and the demonic commit mode."""

from repro.core.actions import (Event, FrameClose, FrameOpen, TAU)
from repro.core.plans import Plan
from repro.core.syntax import (EPSILON, Framing, Mu, Var, event, external,
                               internal, receive, request, send, seq)
from repro.core.validity import History, ValidityMonitor
from repro.network.config import (Component, Configuration, Leaf,
                                  SessionNode)
from repro.network.repository import Repository
from repro.network.semantics import (apply_move, classify_stuckness,
                                     component_moves, network_transitions,
                                     stuck_components, tree_moves)
from repro.policies.library import forbid, never_after

PHI = forbid("boom")


def moves_of(component, plan, repo, **kwargs):
    return list(component_moves(component, plan, repo, **kwargs))


class TestAccessRule:
    def test_event_appends_to_history(self):
        component = Component.client("loc", event("e", 1))
        (move,) = moves_of(component, Plan.empty(), Repository())
        assert move.kind == "access"
        assert move.appends == (Event("e", (1,)),)
        assert apply_move(component, move).history == \
            History([Event("e", (1,))])

    def test_violating_event_is_filtered_angelically(self):
        phi = forbid("boom")
        term = Framing(phi, event("boom"))
        component = Component.client("loc", term)
        # Enter the framing first.
        (enter,) = moves_of(component, Plan.empty(), Repository())
        component = apply_move(component, enter)
        assert moves_of(component, Plan.empty(), Repository()) == []

    def test_violating_event_fires_when_unmonitored(self):
        phi = forbid("boom")
        component = Component.client("loc", Framing(phi, event("boom")))
        (enter,) = moves_of(component, Plan.empty(), Repository())
        component = apply_move(component, enter)
        unfiltered = moves_of(component, Plan.empty(), Repository(),
                              enforce_validity=False)
        assert len(unfiltered) == 1

    def test_frame_open_blocked_by_history_dependence(self):
        phi = never_after("a", "b")
        term = seq(event("a"), event("b"), Framing(phi, event("c")))
        component = Component.client("loc", term)
        repo = Repository()
        for _ in range(2):  # fire a then b (no policy active yet)
            (move,) = moves_of(component, Plan.empty(), repo)
            component = apply_move(component, move)
        # Opening φ now exposes the past violation: angelically blocked.
        assert moves_of(component, Plan.empty(), repo) == []
        assert classify_stuckness(component, Plan.empty(), repo) == \
            "security"


class TestOpenRule:
    def test_open_builds_session_and_logs_framing(self):
        client = request("r", PHI, send("a"))
        repo = Repository({"srv": receive("a")})
        component = Component.client("me", client)
        (move,) = moves_of(component, Plan.single("r", "srv"), repo)
        assert move.kind == "open"
        assert move.appends == (FrameOpen(PHI),)
        assert isinstance(move.tree, SessionNode)
        assert move.tree.right == Leaf("srv", receive("a"))

    def test_open_without_policy_logs_nothing(self):
        client = request("r", None, send("a"))
        repo = Repository({"srv": receive("a")})
        component = Component.client("me", client)
        (move,) = moves_of(component, Plan.single("r", "srv"), repo)
        assert move.appends == ()

    def test_unbound_request_cannot_open(self):
        client = request("r", None, send("a"))
        repo = Repository({"srv": receive("a")})
        component = Component.client("me", client)
        assert moves_of(component, Plan.empty(), repo) == []
        assert classify_stuckness(component, Plan.empty(), repo) == \
            "communication"

    def test_plan_pointing_outside_repository_cannot_open(self):
        client = request("r", None, send("a"))
        component = Component.client("me", client)
        assert moves_of(component, Plan.single("r", "ghost"),
                        Repository()) == []


class TestSynchRule:
    def test_synchronisation_produces_tau(self):
        tree = SessionNode(Leaf("c", send("msg")), Leaf("s", receive("msg")))
        component = Component(History(), tree)
        (move,) = moves_of(component, Plan.empty(), Repository())
        assert move.kind == "synch"
        assert move.label == TAU
        assert move.channel == "msg"
        assert move.appends == ()

    def test_no_synch_across_session_boundary(self):
        # c wants to talk to br, but br is engaged in a nested session.
        inner = SessionNode(Leaf("br", send("x")), Leaf("s", receive("y")))
        tree = SessionNode(Leaf("c", receive("x")), inner)
        component = Component(History(), tree)
        moves = moves_of(component, Plan.empty(), Repository())
        assert all(move.kind != "synch" for move in moves)

    def test_mismatched_channels_do_not_synch(self):
        tree = SessionNode(Leaf("c", send("a")), Leaf("s", receive("b")))
        component = Component(History(), tree)
        assert moves_of(component, Plan.empty(), Repository()) == []

    def test_output_output_does_not_synch(self):
        tree = SessionNode(Leaf("c", send("a")), Leaf("s", send("a")))
        component = Component(History(), tree)
        assert moves_of(component, Plan.empty(), Repository()) == []


class TestCloseRule:
    def test_close_discards_server_and_appends_frames(self):
        phi = forbid("x")
        client = request("r", phi, send("a"))
        server = receive("a", Framing(PHI, seq(event("e"), receive("never"))))
        repo = Repository({"srv": server})
        component = Component.client("me", client)
        plan = Plan.single("r", "srv")

        # open, synch(a), then the server enters its framing and fires e.
        for expected in ("open", "synch", "access", "access"):
            candidates = [m for m in moves_of(component, plan, repo)
                          if m.kind == expected]
            component = apply_move(component, candidates[0])

        # Now the client can close; the server still has Mφ pending.
        (close,) = [m for m in moves_of(component, plan, repo)
                    if m.kind == "close"]
        assert close.appends == (FrameClose(PHI), FrameClose(phi))
        done = apply_move(component, close)
        assert done.tree == Leaf("me", EPSILON)
        assert done.history.is_balanced()

    def test_close_blocked_while_nested_session_open(self):
        inner_request = request("r2", None, send("x"))
        client = request("r1", None, send("go"))
        server = receive("go", inner_request)
        repo = Repository({"srv": server, "inner": receive("x")})
        plan = Plan.of({"r1": "srv", "r2": "inner"})
        component = Component.client("me", client)

        for expected in ("open", "synch", "open"):
            candidates = [m for m in moves_of(component, plan, repo)
                          if m.kind == expected]
            component = apply_move(component, candidates[0])

        # Tree is [me, [srv, inner]]: the outer close must wait.
        kinds = {m.kind for m in moves_of(component, plan, repo)}
        assert "close" not in kinds


class TestCarriedMonitor:
    """Transitions hand the successor component a monitor that has
    consumed its history, instead of leaving it to be replayed."""

    def test_moves_without_appends_share_the_monitor(self):
        tree = SessionNode(Leaf("c", send("a")), Leaf("s", receive("a")))
        component = Component(History([Event("e")]), tree)
        monitor = component.monitor()
        (synch,) = network_transitions(Configuration.of(component),
                                       Plan.empty(), Repository())
        assert synch.successor[0].monitor() is monitor

    def test_close_hands_over_a_monitor_past_every_appended_label(self):
        phi = forbid("x")
        client = request("r", phi, send("a"))
        server = receive("a", Framing(PHI, seq(event("e"), receive("never"))))
        repo = Repository({"srv": server})
        plan = Plan.single("r", "srv")
        config = Configuration.of(Component.client("me", client))
        for rule in ("open", "synch", "access", "access", "close"):
            config = next(transition.successor for transition
                          in network_transitions(config, plan, repo)
                          if transition.rule == rule)
        done = config[0]
        assert done.history[-2:] == (FrameClose(PHI), FrameClose(phi))
        carried = done._monitor
        assert carried is not None
        fresh = ValidityMonitor(done.history)
        assert carried.active_policies() == fresh.active_policies() == {}
        assert carried.events == fresh.events == (Event("e"),)
        assert carried.valid and fresh.valid


class TestSessionAndNetRules:
    def test_inner_moves_lift_through_sessions(self):
        inner = SessionNode(Leaf("br", event("e")), Leaf("s", EPSILON))
        tree = SessionNode(Leaf("c", receive("later")), inner)
        component = Component(History(), tree)
        (move,) = moves_of(component, Plan.empty(), Repository())
        assert move.kind == "access"
        assert move.appends == (Event("e"),)

    def test_network_interleaves_components(self):
        config = Configuration.of(Component.client("a", event("x")),
                                  Component.client("b", event("y")))
        plans = [Plan.empty(), Plan.empty()]
        transitions = list(network_transitions(config, plans, Repository()))
        assert {t.component for t in transitions} == {0, 1}

    def test_stuck_components_reported(self):
        config = Configuration.of(
            Component.client("done", EPSILON),
            Component.client("stuck", send("nobody")))
        plans = [Plan.empty(), Plan.empty()]
        assert stuck_components(config, plans, Repository()) == (1,)


class TestCommitMode:
    def test_commit_moves_appear_only_with_flag(self):
        term = internal(("a", EPSILON), ("b", EPSILON))
        tree = SessionNode(Leaf("c", term), Leaf("s", receive("a")))
        component = Component(History(), tree)
        plain = moves_of(component, Plan.empty(), Repository())
        assert all(m.kind != "commit" for m in plain)
        with_commits = moves_of(component, Plan.empty(), Repository(),
                                commit_outputs=True)
        commits = [m for m in with_commits if m.kind == "commit"]
        assert {m.channel for m in commits} == {"a", "b"}

    def test_committed_unmatched_output_is_stuck(self):
        term = internal(("a", EPSILON), ("b", EPSILON))
        tree = SessionNode(Leaf("c", term), Leaf("s", receive("a")))
        component = Component(History(), tree)
        commit_b = [m for m in moves_of(component, Plan.empty(),
                                        Repository(), commit_outputs=True)
                    if m.kind == "commit" and m.channel == "b"][0]
        committed = apply_move(component, commit_b)
        assert classify_stuckness(committed, Plan.empty(), Repository(),
                                  commit_outputs=True) == "communication"

    def test_single_output_needs_no_commit(self):
        tree = SessionNode(Leaf("c", send("a")), Leaf("s", receive("a")))
        component = Component(History(), tree)
        moves = moves_of(component, Plan.empty(), Repository(),
                         commit_outputs=True)
        assert all(m.kind != "commit" for m in moves)


class TestParticipants:
    """Every move names the locations whose leaves its rule fires, and
    rule Session lifts it with them."""

    def test_access_and_commit_name_the_leaf(self):
        (access,) = moves_of(Component.client("loc", event("e")),
                             Plan.empty(), Repository())
        assert access.participants == ("loc",)
        tree = SessionNode(Leaf("c", internal(("a", EPSILON),
                                              ("b", EPSILON))),
                           Leaf("s", receive("a")))
        commits = [m for m in moves_of(Component(History(), tree),
                                       Plan.empty(), Repository(),
                                       commit_outputs=True)
                   if m.kind == "commit"]
        assert [m.participants for m in commits] == [("c",), ("c",)]

    def test_open_names_the_opener_and_the_target(self):
        component = Component.client("me", request("r", None, send("a")))
        repo = Repository({"srv": receive("a")})
        (move,) = moves_of(component, Plan.single("r", "srv"), repo)
        assert move.kind == "open"
        assert move.participants == ("me", "srv")

    def test_synch_names_both_leaves_even_when_neither_changes(self):
        # Terms are interned: a one-action loop steps to itself, so the
        # synch leaves the tree as it was.
        tree = SessionNode(Leaf("c", Mu("k", receive("a", Var("k")))),
                           Leaf("s", Mu("h", send("a", Var("h")))))
        (synch,) = moves_of(Component(History(), tree), Plan.empty(),
                            Repository())
        assert synch.kind == "synch" and synch.tree == tree
        assert synch.participants == ("c", "s")

    def test_close_names_the_opener_and_the_discarded_partner(self):
        component = Component.client("me", request("r", None, send("a")))
        repo = Repository({"srv": receive("a")})
        plan = Plan.single("r", "srv")
        for expected in ("open", "synch"):
            (move,) = [m for m in moves_of(component, plan, repo)
                       if m.kind == expected]
            component = apply_move(component, move)
        (close,) = moves_of(component, plan, repo)
        assert close.kind == "close"
        assert close.participants == ("me", "srv")

    def test_session_lifting_keeps_the_participants(self):
        inner_request = request("r2", None, send("x"))
        server = receive("go", inner_request)
        repo = Repository({"srv": server, "inner": receive("x")})
        plan = Plan.of({"r1": "srv", "r2": "inner"})
        component = Component.client("me", request("r1", None, send("go")))
        for expected in ("open", "synch"):
            (move,) = [m for m in moves_of(component, plan, repo)
                       if m.kind == expected]
            component = apply_move(component, move)
        (nested_open,) = [m for m in moves_of(component, plan, repo)
                          if m.kind == "open"]
        assert nested_open.participants == ("srv", "inner")
        component = apply_move(component, nested_open)
        (transition,) = network_transitions(
            Configuration.of(component), plan, repo)
        assert transition.rule == "synch"
        assert transition.participants == ("srv", "inner")
