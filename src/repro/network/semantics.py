"""Operational semantics of networks (paper, Section 3).

Implements the rules *Open*, *Close*, *Session*, *Net*, *Access* and
*Synch* over the configurations of :mod:`repro.network.config`:

* **Access** — a leaf fires an event or framing ``γ ∈ Ev ∪ Frm``; it is
  appended to the component history, which must stay valid;
* **Open** — a leaf fires ``open_{r,φ}``; the plan selects ``ℓ_j``, a
  fresh copy of the repository service joins a new session
  ``[ℓ_i:H', ℓ_j:H_j]``, and ``Lφ`` is logged (when ``φ ≠ ∅``) provided
  the extended history is valid;
* **Close** — the opener of a session fires ``close_{r,φ}``; the partner
  is terminated and the history gains ``Φ(H_j'')·Mφ`` (the pending frame
  closes of the discarded service, then the session framing close);
* **Synch** — the two *direct* participants of a session exchange
  complementary actions ``a``/``ā``, producing ``τ``;
* **Session** / **Net** — contextual closure inside session trees and
  across parallel components.

The *angelic* validity filter of the paper (transitions whose history
extension would be invalid simply do not fire) can be switched off, which
models a deployment running without a monitor; the planner uses the
unfiltered semantics to certify that valid plans never need the filter.

The filter is incremental: each component carries the
:class:`~repro.core.validity.ValidityMonitor` that has consumed its
history, and a move is checked by extending a copy of it with the labels
the move appends, never by re-checking the whole history.

Stepping is incremental too.  A step rewrites one root path of one
component's session tree, and the moves of a sub-tree depend only on the
sub-tree, the plan, the repository and the commit mode.  So
:func:`network_transitions` takes a table of sub-tree move memos, one per
plan, and a caller that steps one network many times (the simulator, a
chaos campaign) passes the same table to every call: the sub-trees a step
left alone are memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.core.actions import (TAU, Event, FrameClose, FrameOpen,
                                HistoryLabel, Label, Receive, Send,
                                SessionClose, SessionOpen, co)
from repro.core.plans import Plan
from repro.core.semantics import step
from repro.core.syntax import InternalChoice
from repro.core.validity import ValidityMonitor
from repro.network.config import (Component, Configuration, Leaf,
                                  SessionNode, SessionTree,
                                  pending_frame_closes)
from repro.network.repository import Repository


class TreeMove(NamedTuple):
    """A potential move of a session tree.

    ``kind`` is the rule that produced it: ``"access"`` (events and
    framings), ``"open"``, ``"close"``, ``"synch"``, or ``"offer"`` — an
    unmatched communication a :class:`Leaf` exposes to its enclosing
    session (only meaningful during move computation; offers never escape
    :func:`tree_moves`).

    ``appends`` are the labels the move adds to the component history.

    ``participants`` are the locations whose leaves the rule fires, the
    acting leaf first: the leaf itself for ``access``, ``commit`` and
    offers, the opener and the plan's target for ``open``, the left and
    the right leaf for ``synch``, the opener and the partner it discards
    for ``close``.  Rule *Session* lifts a move with its participants.

    A named tuple, because the planner's assembly builds one per edge of
    every LTS it explores and a tuple is the cheapest immutable record
    to build.
    """

    kind: str
    label: Label
    tree: SessionTree
    appends: tuple[HistoryLabel, ...] = ()
    location: str = ""
    channel: str = ""
    participants: tuple[str, ...] = ()

    def is_internal(self) -> bool:
        """True for moves a session context can lift as-is (rule
        *Session*)."""
        return self.kind in ("access", "open", "close", "synch", "commit")


def tree_moves(tree: SessionTree, plan: Plan,
               repository: Repository,
               commit_outputs: bool = False,
               memo: dict | None = None) -> tuple[TreeMove, ...]:
    """All moves of *tree* under *plan*, **including** unmatched
    communication offers of the root (callers normally want
    :func:`component_moves`, which drops them).

    With *commit_outputs* the semantics is *demonic* about internal
    choice: a participant may first commit to one output (a ``commit``
    move, label ``τ``), discarding the other branches, and only then look
    for a partner.  This realises the requirement that "the choice among
    various outputs is done regardless of the environment" — the paper's
    own interleaving rule Synch is angelic about it — and is what makes
    exhaustive exploration a sound oracle for compliance.

    A sub-tree's moves depend only on the sub-tree, *plan*, *repository*
    and *commit_outputs*, so they are computed once per *memo*: a caller
    visiting many trees under those four (an assembled LTS, or a run,
    changes one root path per move) passes one dict to every call, and it
    stays sound for as long as the four stay fixed.  Never share it across
    plans, repositories or commit modes; without one, each call starts a
    fresh memo.
    """
    if memo is None:
        memo = {}
    else:
        known = memo.get(tree)
        if known is not None:
            return known
    if isinstance(tree, Leaf):
        moves = tuple(_leaf_moves(tree, plan, repository, commit_outputs))
    else:
        moves = tuple(_session_moves(
            tree,
            tree_moves(tree.left, plan, repository, commit_outputs, memo),
            tree_moves(tree.right, plan, repository, commit_outputs, memo)))
    memo[tree] = moves
    return moves


def _session_moves(tree: SessionNode, left_moves, right_moves
                   ) -> Iterator[TreeMove]:
    """The moves of *tree*, given the moves of its two elements."""
    # Rule Session: lift the self-contained moves of either element.
    for move in left_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(move.tree, tree.right),
                           move.appends, move.location, move.channel,
                           move.participants)
    for move in right_moves:
        if move.is_internal():
            yield TreeMove(move.kind, move.label,
                           SessionNode(tree.left, move.tree),
                           move.appends, move.location, move.channel,
                           move.participants)

    # Rules Synch and Close apply to the direct participants only.
    if isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf):
        yield from _synchronisations(tree, left_moves, right_moves)
        yield from _session_closes(tree, left_moves)


def _leaf_moves(leaf: Leaf, plan: Plan, repository: Repository,
                commit_outputs: bool = False) -> Iterator[TreeMove]:
    location = leaf.location
    alone = (location,)
    if commit_outputs:
        outputs = [(label, successor) for label, successor in step(leaf.term)
                   if isinstance(label, Send)]
        if len(outputs) > 1:
            for label, successor in outputs:
                committed = InternalChoice(((label, successor),))
                yield TreeMove("commit", TAU, Leaf(location, committed),
                               (), location, label.channel, alone)
    for label, successor in step(leaf.term):
        if isinstance(label, (Event, FrameOpen, FrameClose)):
            yield TreeMove("access", label, Leaf(location, successor),
                           (label,), location, "", alone)
        elif isinstance(label, SessionOpen):
            target = plan.lookup(label.request)
            if target is None:
                continue  # the plan serves no service for this request
            service = repository.get(target)
            if service is None:
                continue
            appends: tuple[HistoryLabel, ...] = ()
            if label.policy is not None:
                appends = (FrameOpen(label.policy),)
            yield TreeMove(
                "open", label,
                SessionNode(Leaf(location, successor),
                            Leaf(target, service)),
                appends, location, "", (location, target))
        elif isinstance(label, SessionClose):
            # Only fires inside a session node (rule Close); expose as an
            # offer the parent recognises.
            yield TreeMove("offer-close", label, Leaf(location, successor),
                           (), location, "", alone)
        elif isinstance(label, (Send, Receive)):
            yield TreeMove("offer", label, Leaf(location, successor),
                           (), location, "", alone)
        else:  # pragma: no cover - no other labels exist
            raise TypeError(f"unexpected label {label!r}")


def _synchronisations(tree: SessionNode, left_moves, right_moves
                      ) -> Iterator[TreeMove]:
    """Rule Synch between the two leaves of *tree*."""
    right_by_label: dict[Label, list[TreeMove]] = {}
    for move in right_moves:
        if move.kind == "offer":
            right_by_label.setdefault(move.label, []).append(move)
    for move in left_moves:
        if move.kind != "offer":
            continue
        for partner in right_by_label.get(co(move.label), ()):
            yield TreeMove("synch", TAU,
                           SessionNode(move.tree, partner.tree), (),
                           move.location, move.label.channel,
                           (move.location, partner.location))


def _session_closes(tree: SessionNode, left_moves) -> Iterator[TreeMove]:
    """Rule Close: the opener (left leaf) fires ``close_{r,φ}``."""
    partner = tree.right
    assert isinstance(partner, Leaf)
    for move in left_moves:
        if move.kind != "offer-close":
            continue
        label = move.label
        assert isinstance(label, SessionClose)
        appends = pending_frame_closes(partner.term)
        if label.policy is not None:
            appends = appends + (FrameClose(label.policy),)
        yield TreeMove("close", label, move.tree, appends, move.location,
                       "", (move.location, partner.location))


@dataclass(frozen=True, slots=True)
class NetworkTransition:
    """One transition of a configuration: which component moved, by which
    rule/label, and the successor configuration.

    ``participants`` are the locations whose leaves the rule fires (see
    :class:`TreeMove`), read off the move itself: a leaf whose term the
    move leaves unchanged (a one-action loop steps to itself) is a
    participant all the same.
    """

    component: int
    rule: str
    label: Label
    successor: Configuration
    appends: tuple[HistoryLabel, ...] = ()
    location: str = ""
    channel: str = ""
    participants: tuple[str, ...] = ()

    def __str__(self) -> str:
        return (f"component {self.component} --{self.label}--> "
                f"[{self.rule} at {self.location or '?'}]")


def _fireable(component: Component, plan: Plan, repository: Repository,
              enforce_validity: bool, commit_outputs: bool,
              memo: dict | None
              ) -> Iterator[tuple[TreeMove, ValidityMonitor | None]]:
    """The fireable moves of *component*, each with the monitor the
    component it leads to carries (``None``: replay on first use).

    A move without appends shares the component's monitor.  Under the
    filter, a move with appends fires iff a copy of that monitor,
    extended by the appends, stays valid; the copy goes along.  The
    component's own monitor is built only when a move needs it.
    """
    for move in tree_moves(component.tree, plan, repository,
                           commit_outputs, memo):
        if not move.is_internal():
            continue
        if not move.appends:
            yield move, component._monitor
        elif not enforce_validity:
            yield move, None
        else:
            extended = component.monitor().copy()
            if all(extended.extend(label) for label in move.appends):
                yield move, extended


def component_moves(component: Component, plan: Plan,
                    repository: Repository,
                    enforce_validity: bool = True,
                    commit_outputs: bool = False) -> Iterator[TreeMove]:
    """The fireable moves of one component (offers pruned, validity filter
    optionally applied — the paper's angelic semantics)."""
    for move, _monitor in _fireable(component, plan, repository,
                                    enforce_validity, commit_outputs, None):
        yield move


def apply_move(component: Component, move: TreeMove) -> Component:
    """The component after firing *move*."""
    return Component(component.history.extend(move.appends), move.tree)


def network_transitions(configuration: Configuration, plans,
                        repository: Repository,
                        enforce_validity: bool = True,
                        commit_outputs: bool = False,
                        memos: dict | None = None
                        ) -> Iterator[NetworkTransition]:
    """All transitions of *configuration* under the plan vector *plans*
    (rule Net: any component may move).

    *memos* maps each plan to its sub-tree move memo (see
    :func:`tree_moves`); missing memos are added.  The table serves one
    *repository* and one *commit_outputs*, and within them it stays
    sound for as long as its owner keeps it, since a memo's entries
    depend only on their tree and plan.  A caller stepping one network
    many times passes the same table to every call, so only the root
    path the last step rewrote is computed afresh; without one, the call
    starts an empty table.
    """
    if memos is None:
        memos = {}
    for index, component in enumerate(configuration.components):
        plan = plans[index] if not isinstance(plans, Plan) else plans
        memo = memos.get(plan)
        if memo is None:
            memo = memos[plan] = {}
        for move, monitor in _fireable(component, plan, repository,
                                       enforce_validity, commit_outputs,
                                       memo):
            history = (component.history.extend(move.appends)
                       if move.appends else component.history)
            moved = Component._carrying(history, move.tree, monitor)
            successor = configuration.replace(index, moved)
            yield NetworkTransition(index, move.kind, move.label, successor,
                                    move.appends, move.location,
                                    move.channel, move.participants)


def stuck_components(configuration: Configuration, plans,
                     repository: Repository,
                     enforce_validity: bool = True,
                     commit_outputs: bool = False) -> tuple[int, ...]:
    """Indices of components that are stuck: not successfully terminated
    and without any fireable move."""
    stuck: list[int] = []
    for index, component in enumerate(configuration.components):
        if component.is_terminated():
            continue
        plan = plans[index] if not isinstance(plans, Plan) else plans
        has_move = False
        for _ in component_moves(component, plan, repository,
                                 enforce_validity, commit_outputs):
            has_move = True
            break
        if not has_move:
            stuck.append(index)
    return tuple(stuck)


def classify_stuckness(component: Component, plan: Plan,
                       repository: Repository,
                       commit_outputs: bool = False) -> str:
    """Why is *component* stuck?

    Returns ``"terminated"`` when it in fact finished; ``"security"``
    when dropping the validity filter would unblock it (all its enabled
    moves violate active policies — the monitor aborts it); otherwise
    ``"communication"`` (a missing co-action or an unbound request — the
    participants are not compliant / the plan is incomplete).
    """
    if component.is_terminated():
        return "terminated"
    for _ in component_moves(component, plan, repository,
                             enforce_validity=True,
                             commit_outputs=commit_outputs):
        return "not-stuck"
    for _ in component_moves(component, plan, repository,
                             enforce_validity=False,
                             commit_outputs=commit_outputs):
        return "security"
    return "communication"
