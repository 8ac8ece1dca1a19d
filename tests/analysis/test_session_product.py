"""Tests for the assembled session-product LTS."""

import pathlib

import pytest

from repro.analysis.planner import enumerate_plans
from repro.analysis.session_product import (ProductLabel, assemble,
                                            deadlocked_trees, is_unfailing)
from repro.cli import load_module
from repro.contracts.lts import build_lts
from repro.core.actions import Event
from repro.core.plans import Plan
from repro.core.syntax import (event, external, internal, receive, request,
                               send, seq)
from repro.network.config import Leaf, SessionNode
from repro.network.repository import Repository
from repro.network.semantics import (TreeMove, _leaf_moves, _session_closes,
                                     _synchronisations)
from repro.paper import figure2


class TestAssembly:
    def test_initial_state_is_the_client_leaf(self):
        lts = assemble(event("e"), Plan.empty(), Repository(), "me")
        assert lts.initial == Leaf("me", event("e"))

    def test_event_only_client(self):
        lts = assemble(seq(event("a"), event("b")), Plan.empty(),
                       Repository(), "me")
        assert len(lts) == 3
        labels = [label for moves in lts.transitions.values()
                  for label, _ in moves]
        assert all(label.rule == "access" for label in labels)

    def test_session_traces_include_service_events(self):
        client = request("r", None, send("go"))
        repo = Repository({"srv": seq(event("served"), receive("go"))})
        lts = assemble(client, Plan.single("r", "srv"), repo, "me")
        events = {label
                  for moves in lts.transitions.values()
                  for label, _ in moves
                  if label.appends and isinstance(label.appends[0], Event)}
        assert any(label.appends[0].name == "served" for label in events)

    def test_finite_for_recursive_services(self):
        from repro.core.syntax import Var, mu
        client = request("r", None,
                         send("ping", receive("pong", send("quit"))))
        server = mu("k", external(("ping", send("pong", Var("k"))),
                                  ("quit", seq())))
        lts = assemble(client, Plan.single("r", "srv"),
                       Repository({"srv": server}), "me")
        assert len(lts) < 50  # finite despite the loop


class TestDeadlocks:
    def test_unfailing_session(self):
        client = request("r", None, seq(send("a"), receive("b")))
        repo = Repository({"srv": seq(receive("a"), send("b"))})
        lts = assemble(client, Plan.single("r", "srv"), repo, "me")
        assert is_unfailing(lts)

    def test_unserved_request_deadlocks(self):
        client = request("r", None, send("a"))
        lts = assemble(client, Plan.empty(), Repository(), "me")
        stuck = deadlocked_trees(lts)
        assert stuck == {Leaf("me", client)}

    def test_commitment_reveals_bad_internal_choice(self):
        client = request("r", None,
                         seq(send("q"), external(("ok", seq()))))
        repo = Repository({"srv": receive("q", internal(("ok", seq()),
                                                        ("err", seq())))})
        with_commits = assemble(client, Plan.single("r", "srv"), repo,
                                "me", commit_outputs=True)
        without = assemble(client, Plan.single("r", "srv"), repo, "me",
                           commit_outputs=False)
        assert not is_unfailing(with_commits)
        assert is_unfailing(without)

    def test_paper_pi1_is_unfailing(self, repo):
        lts = assemble(figure2.client_1(), figure2.plan_pi1(), repo,
                       figure2.LOC_CLIENT_1)
        assert is_unfailing(lts)

    def test_paper_s2_plan_fails(self, repo):
        lts = assemble(figure2.client_2(),
                       figure2.plan_pi2_bad_compliance(), repo,
                       figure2.LOC_CLIENT_2)
        assert not is_unfailing(lts)


# -- the per-assembly sub-tree memo ------------------------------------------

def oracle_tree_moves(tree, plan, repository, commit_outputs):
    """``tree_moves`` as first written: a generator that recomputes the
    moves of every sub-tree for every tree it is asked about."""
    if isinstance(tree, Leaf):
        yield from _leaf_moves(tree, plan, repository, commit_outputs)
        return
    left_moves = tuple(oracle_tree_moves(tree.left, plan, repository,
                                         commit_outputs))
    right_moves = tuple(oracle_tree_moves(tree.right, plan, repository,
                                          commit_outputs))
    for move in left_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(move.tree, tree.right),
                           move.appends, move.location, move.channel)
    for move in right_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(tree.left, move.tree),
                           move.appends, move.location, move.channel)
    if isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf):
        yield from _synchronisations(tree, left_moves, right_moves)
        yield from _session_closes(tree, left_moves)


def oracle_assemble(client, plan, repository, location, commit_outputs):
    def successors(tree):
        for move in oracle_tree_moves(tree, plan, repository,
                                      commit_outputs):
            if move.is_internal():
                yield (ProductLabel(move.kind, move.label, move.appends),
                       move.tree)

    return build_lts(Leaf(location, client), successors)


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("example", sorted(
    path.name for pattern in ("*.sus", "*.toml")
    for path in EXAMPLES.glob(pattern)))
def test_memoised_assembly_matches_the_unmemoised_oracle(example):
    module = load_module(EXAMPLES / example)
    repository = module.repository
    assembled = 0
    for name, client in module.clients.items():
        for plan in enumerate_plans(client, repository):
            for commit in (True, False):
                lts = assemble(client, plan, repository, name,
                               commit_outputs=commit)
                expected = oracle_assemble(client, plan, repository, name,
                                           commit)
                assert (list(lts.transitions.items())
                        == list(expected.transitions.items()))
                assembled += 1
    assert assembled > 0
