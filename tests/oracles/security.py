"""Security and validity checks over explicit state spaces: the
differential oracle of :func:`repro.analysis.security.monitored_search`.

:func:`check_lts` is the plan check as it ran before the monitored
search generated its moves on the fly: it takes the whole session LTS
of ``⟨Ĥ, π⟩`` that :func:`~repro.analysis.session_product.assemble`
builds, reads the policies off its labels (:func:`policies_of_lts`),
and then runs a second breadth-first search over ⟨tree, monitor⟩
pairs, carrying each pair's path.  :func:`certify_validity` is the same
search over the residuals of one history expression.
:mod:`tests.property.test_prop_security` requires the same reports
from each and from the production check it replaced.

:func:`deadlocked_trees`, :func:`is_unfailing` and
:func:`unfailing_in_product` are the whole-system progress check on the
assembled LTS, which the tests compare with per-request compliance.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.security import (SecurityReport, advance_monitor,
                                     fresh_monitor_state)
from repro.analysis.session_product import SessionLTS, assemble
from repro.contracts.lts import DEFAULT_PRODUCT_LIMIT, DEFAULT_STATE_LIMIT
from repro.core.actions import FrameClose, FrameOpen, is_history_label
from repro.core.errors import StateSpaceLimitError
from repro.core.plans import Plan
from repro.core.semantics import step
from repro.core.syntax import HistoryExpression, policies_of
from repro.network.config import SessionTree, is_successfully_terminated
from repro.network.repository import Repository
from repro.staticcheck.validity import ValidityCertificate
from repro.staticcheck.witness import ValidityWitness, automaton_states


def policies_of_lts(lts: SessionLTS) -> frozenset:
    """Every policy a label of *lts* frames."""
    policies = set()
    for moves in lts.transitions.values():
        for label, _ in moves:
            for item in label.appends:
                if isinstance(item, (FrameOpen, FrameClose)):
                    policies.add(item.policy)
    return frozenset(policies)


def check_lts(lts: SessionLTS, policies=None,
              max_states: int = DEFAULT_PRODUCT_LIMIT) -> SecurityReport:
    """Model-check that every trace of *lts* produces a valid history;
    *policies* defaults to those its labels frame."""
    if policies is None:
        policies = policies_of_lts(lts)
    initial = (lts.initial, fresh_monitor_state(policies))
    seen = {initial}
    frontier = deque([(initial, ())])
    states_checked = 0
    while frontier:
        (tree_state, monitor_state), path = frontier.popleft()
        states_checked += 1
        for label, successor in lts.moves(tree_state):
            next_monitor, violated = advance_monitor(monitor_state,
                                                     label.appends)
            new_path = path + (label,)
            if violated is not None:
                return SecurityReport(False, states_checked,
                                      counterexample=new_path,
                                      violated_policy=violated)
            next_state = (successor, next_monitor)
            if next_state not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "security product")
                seen.add(next_state)
                frontier.append((next_state, new_path))
    return SecurityReport(True, states_checked)


def certify_validity(term: HistoryExpression,
                     max_states: int = DEFAULT_STATE_LIMIT
                     ) -> ValidityCertificate:
    """Certify every run of *term* by a breadth-first search over
    ⟨residual, monitor⟩ pairs, carrying each pair's history."""
    policies = policies_of(term)
    if not policies:
        return ValidityCertificate(True, None, 0)
    initial = (term, fresh_monitor_state(policies))
    seen = {initial}
    frontier = deque([(initial, ())])
    explored = 0
    while frontier:
        (residual, monitor), path = frontier.popleft()
        explored += 1
        for label, successor in step(residual):
            appends = (label,) if is_history_label(label) else ()
            next_monitor, violated = advance_monitor(monitor, appends)
            new_path = path + appends
            if violated is not None:
                witness = ValidityWitness(
                    labels=new_path, policy=violated,
                    states=automaton_states(new_path, violated))
                return ValidityCertificate(False, witness, explored)
            next_state = (successor, next_monitor)
            if next_state not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceLimitError(max_states,
                                               "validity product")
                seen.add(next_state)
                frontier.append((next_state, new_path))
    return ValidityCertificate(True, None, explored)


def deadlocked_trees(lts: SessionLTS) -> frozenset[SessionTree]:
    """Reachable trees with no move that are not successfully terminated.

    Each such tree is a reachable configuration in which the client (or a
    service acting for it) waits forever: an output nobody accepts, an
    input nobody sends, or a request the plan does not serve.
    """
    return frozenset(tree for tree in lts.deadlocks()
                     if not is_successfully_terminated(tree))


def is_unfailing(lts: SessionLTS) -> bool:
    """True iff no reachable deadlocked (non-terminated) tree exists."""
    return not deadlocked_trees(lts)


def unfailing_in_product(client: HistoryExpression, plan: Plan,
                         repository: Repository,
                         location: str = "client") -> bool:
    """Whole-system progress check on the assembled LTS: no reachable
    deadlocked, non-terminated session tree.

    For complete plans this agrees with per-request compliance; the test
    suite cross-validates the two."""
    return is_unfailing(assemble(client, plan, repository, location))
