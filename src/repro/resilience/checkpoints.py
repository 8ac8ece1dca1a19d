"""Checkpoints and the rollback policy for supervised runs.

Rollback on a running network, the operational side of the relation
:mod:`repro.core.reversible` decides: whenever a component fires a transition at a state offering two or more distinct
moves, the supervisor pushes a :class:`Checkpoint` — an immutable
snapshot of the component (history *and* session tree), its open-session
target stack, and the set of move keys already tried from that state.
Component snapshots are persistent dataclasses, so a checkpoint is O(1)
to take and restoring one is a single ``Configuration.replace``.

Rolling back pops to the nearest checkpoint with an untried alternative,
restores the snapshot and *bans* the tried keys until the component
fires again, steering the scheduler onto a different branch.  Because
the restored history is exactly the recorded prefix at push time,
histories remain valid prefixes of balanced histories across rewinds —
the invariant the property suite checks on every recorded history.

:class:`RollbackPolicy` is the knob surface (``chaos --no-rollback`` /
``--max-rollbacks`` on the CLI): rollback attempts per recovery episode
are bounded, and each waits one exponential-backoff delay on the
simulated clock — during which due faults still land, which is how chaos
scenarios inject faults *mid-rollback*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.config import Component
from repro.network.semantics import NetworkTransition

#: A component-local identity for one enabled move: enough to tell
#: branches of a choice apart, stable across snapshot/restore.
MoveKey = tuple[str, str, str, str]


def move_key(transition: NetworkTransition) -> MoveKey:
    """The branch identity of *transition* within its component."""
    return (transition.rule, str(transition.label),
            transition.location, transition.channel)


@dataclass(frozen=True)
class RollbackPolicy:
    """How eagerly a supervisor rewinds before escalating.

    ``enabled`` switches rollback-first recovery on (the default);
    ``max_rollbacks`` bounds the rewind attempts of one recovery episode
    — when the budget or the checkpoint stack is exhausted, the
    supervisor falls back to retry/compensate/replan.
    """

    enabled: bool = True
    max_rollbacks: int = 8

    @staticmethod
    def of(value: "RollbackPolicy | bool") -> "RollbackPolicy":
        """Normalise the ``rollback=`` knob: ``True``/``False`` select
        the default-enabled/disabled policy."""
        if isinstance(value, RollbackPolicy):
            return value
        return RollbackPolicy(enabled=bool(value))


@dataclass(frozen=True)
class Checkpoint:
    """One checkpointed choice of one component.

    ``snapshot`` is the component exactly as it was when the choice
    fired (immutable — restoring is one ``Configuration.replace``);
    ``targets`` the open-session target stack at that moment;
    ``alternatives`` every distinct move key that was enabled;
    ``tried`` the keys already taken from this state (grows across
    rollbacks — a branch is never retried from the same checkpoint).
    ``tick``/``step`` locate the push for the flight recorder.
    """

    component: int
    snapshot: Component
    targets: tuple[str, ...]
    alternatives: frozenset[MoveKey]
    tried: frozenset[MoveKey]
    tick: int
    step: int

    @property
    def untried(self) -> frozenset[MoveKey]:
        return self.alternatives - self.tried
