"""Tests for configurations, session trees and the Φ function."""

from repro.core.actions import Event, FrameClose, FrameOpen
from repro.core.syntax import (EPSILON, FrameClosePending, event, receive,
                               seq, send)
from repro.core.validity import History
from repro.network.config import (Component, Configuration, Leaf,
                                  SessionNode, is_successfully_terminated,
                                  leaves, locations, pending_frame_closes,
                                  session_depth)
from repro.policies.library import forbid

PHI = forbid("a")
PSI = forbid("b")


class TestTrees:
    def test_leaf_basics(self):
        leaf = Leaf("loc", EPSILON)
        assert list(leaves(leaf)) == [leaf]
        assert locations(leaf) == ("loc",)
        assert session_depth(leaf) == 0

    def test_nested_session_shape(self):
        tree = SessionNode(Leaf("c", EPSILON),
                           SessionNode(Leaf("br", EPSILON),
                                       Leaf("s3", EPSILON)))
        assert locations(tree) == ("c", "br", "s3")
        assert session_depth(tree) == 2

    def test_termination_requires_bare_epsilon_leaf(self):
        assert is_successfully_terminated(Leaf("x", EPSILON))
        assert not is_successfully_terminated(Leaf("x", send("a")))
        assert not is_successfully_terminated(
            SessionNode(Leaf("x", EPSILON), Leaf("y", EPSILON)))


class TestStoredHash:
    """Session trees store their hash at construction: the one the
    dataclass computed, so set and dict orders stay the same."""

    def test_leaf_hash_is_the_hash_of_its_fields(self):
        leaf = Leaf("loc", seq(send("a"), receive("b")))
        assert leaf._hash == hash(leaf) == hash(("loc", leaf.term))

    def test_session_hash_is_the_hash_of_its_elements(self):
        inner = SessionNode(Leaf("br", send("a")), Leaf("s3", receive("a")))
        tree = SessionNode(Leaf("c", EPSILON), inner)
        assert hash(inner) == hash((inner.left, inner.right))
        assert tree._hash == hash(tree) == hash((tree.left, tree.right))

    def test_repr_and_equality_are_unchanged(self):
        leaf = Leaf("loc", send("a"))
        assert repr(leaf) == f"Leaf(location='loc', term={leaf.term!r})"
        tree = SessionNode(leaf, Leaf("srv", EPSILON))
        assert repr(tree) == (f"SessionNode(left={leaf!r}, "
                              f"right={Leaf('srv', EPSILON)!r})")
        assert tree == SessionNode(Leaf("loc", send("a")),
                                   Leaf("srv", EPSILON))
        assert tree != SessionNode(leaf, Leaf("other", EPSILON))
        assert Leaf("x", EPSILON) != Leaf("y", EPSILON)
        assert Leaf.__match_args__ == ("location", "term")
        assert SessionNode.__match_args__ == ("left", "right")


class TestCarriedMonitor:
    """A component keeps the validity monitor of its history outside
    equality, hash and repr."""

    def test_monitor_is_built_once_from_the_history(self):
        component = Component(History([FrameOpen(PHI), Event("a")]),
                              Leaf("loc", EPSILON))
        monitor = component.monitor()
        assert not monitor.valid
        assert monitor.events == (Event("a"),)
        assert monitor.active_policies() == {PHI: 1}
        assert component.monitor() is monitor

    def test_with_tree_keeps_history_and_monitor(self):
        component = Component(History([Event("b")]), Leaf("loc", EPSILON))
        monitor = component.monitor()
        moved = component.with_tree(Leaf("loc", send("x")))
        assert moved.history is component.history
        assert moved.monitor() is monitor

    def test_equality_hash_and_repr_ignore_the_monitor(self):
        history = History([Event("b")])
        plain = Component(history, Leaf("loc", EPSILON))
        carrying = Component(history, Leaf("loc", EPSILON))
        carrying.monitor()
        assert plain == carrying
        assert hash(plain) == hash(carrying) == hash((history, plain.tree))
        assert repr(plain) == repr(carrying) == (
            f"Component(history={history!r}, tree={plain.tree!r})")
        assert Component.__match_args__ == ("history", "tree")


class TestPhi:
    """Φ collects the pending Mφ of a discarded service (rule Close)."""

    def test_phi_of_plain_terms_is_empty(self):
        assert pending_frame_closes(EPSILON) == ()
        assert pending_frame_closes(send("a")) == ()
        assert pending_frame_closes(event("e")) == ()

    def test_phi_of_single_pending_close(self):
        assert pending_frame_closes(FrameClosePending(PHI)) == \
            (FrameClose(PHI),)

    def test_phi_walks_sequences_in_order(self):
        term = seq(event("e"), FrameClosePending(PHI),
                   send("a"), FrameClosePending(PSI))
        assert pending_frame_closes(term) == (FrameClose(PHI),
                                              FrameClose(PSI))

    def test_phi_ignores_unentered_framings(self):
        from repro.core.syntax import Framing
        # φ[H] has not been entered yet: nothing is pending.
        assert pending_frame_closes(Framing(PHI, event("e"))) == ()


class TestComponentsAndConfigurations:
    def test_client_constructor(self):
        component = Component.client("loc", send("a"))
        assert component.history == History()
        assert component.tree == Leaf("loc", send("a"))
        assert not component.is_terminated()

    def test_configuration_replace_is_functional(self):
        config = Configuration.of(Component.client("a", send("x")),
                                  Component.client("b", send("y")))
        done = Component.client("a", EPSILON)
        updated = config.replace(0, done)
        assert updated[0].is_terminated()
        assert not config[0].is_terminated()
        assert updated[1] == config[1]

    def test_configuration_termination(self):
        config = Configuration.of(Component.client("a", EPSILON),
                                  Component.client("b", EPSILON))
        assert config.is_terminated()

    def test_configurations_are_hashable_states(self):
        config = Configuration.of(Component.client("a", send("x")))
        again = Configuration.of(Component.client("a", send("x")))
        assert len({config, again}) == 1

    def test_str_rendering(self):
        config = Configuration.of(Component.client("a", EPSILON))
        assert "a:" in str(config)
        assert "ε" in str(config)
