"""Canonical forms: order-independent fingerprints and signatures.

A :class:`CanonicalForm` is a fully canonical rendering of a contract's
bisimulation quotient: block numbering is derived from iterated
refinement digests, not from interning history, so two contracts get
equal canonical forms **iff** their quotients are isomorphic as pointed
labelled graphs — i.e. iff the contracts are bisimilar.  The
``fingerprint`` is a SHA-256 over that canonical table; exact equality
checks compare the tables themselves, so a (cosmically unlikely) hash
collision can never conflate two distinct contracts.

Canonical numbering works like Weisfeiler–Leman colour refinement on
the quotient: every block starts with a digest of its termination flag
and enabled ``(direction, channel)`` pairs — label *content*, never
label ids, so the result is invariant under interning order — and each
round re-digests ``(terminated, sorted (direction, channel,
successor-digest-multiset) edges)``.  The blocks of a minimal quotient
are pairwise non-bisimilar, and digest refinement *is* partition
refinement, so after at most ``n`` rounds every block has a unique
digest; sorting blocks by final digest yields a numbering independent
of state order, relabeling, and process history.

A :class:`Signature` summarises the ready-set shape of a contract — its
initial mode, initial output/input channel sets, termination flag, and
whole-alphabet channel sets.  Signatures are the registry's bucket
keys: the Definition-5 stuck check at the *initial* product pair reads
exactly the fields a signature records, so one mask test per bucket
soundly prunes every member at once.

The canonical-form memo is the ``canon.fingerprint`` table, cleared with
the compiled-table memo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.canon.minimize import QuotientContract, minimize
from repro.compiled.tables import LABELS
from repro.contracts.contract import Contract
from repro.core.actions import is_output
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

#: Entries kept in the canonical-form memo.
CANONICAL_CACHE_SIZE = 1024

#: One canonical block: (terminated, sorted (direction, channel,
#: sorted-canonical-target-tuple) moves).
CanonicalBlock = tuple[bool, tuple[tuple[str, str, tuple[int, ...]], ...]]


@dataclass(frozen=True)
class Signature:
    """The ready-set summary of a contract, as sorted channel names.

    ``mode`` describes the initial state: ``"output"`` (an internal
    choice: singleton output ready sets), ``"input"`` (an external
    choice: one input ready set), or ``"quiescent"`` (no communication
    moves — terminated or stuck).
    """

    mode: str
    initial_outputs: tuple[str, ...]
    initial_inputs: tuple[str, ...]
    initial_terminated: bool
    alphabet_outputs: tuple[str, ...]
    alphabet_inputs: tuple[str, ...]

    def to_json(self) -> dict:
        return {"mode": self.mode,
                "initial_outputs": list(self.initial_outputs),
                "initial_inputs": list(self.initial_inputs),
                "initial_terminated": self.initial_terminated,
                "alphabet_outputs": list(self.alphabet_outputs),
                "alphabet_inputs": list(self.alphabet_inputs)}


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical quotient of one contract.

    ``table[b]`` describes canonical block ``b``; ``initial`` is the
    canonical id of the initial block.  ``fingerprint`` is the SHA-256
    hex digest of ``(initial, table)`` — compare :attr:`key` (or whole
    forms) for collision-free equality.
    """

    fingerprint: str
    initial: int
    table: tuple[CanonicalBlock, ...]
    signature: Signature
    n_blocks: int
    n_source_states: int

    @property
    def key(self) -> tuple:
        """The exact canonical identity (hash-collision-free)."""
        return (self.initial, self.table)

    def to_json(self) -> dict:
        return {"fingerprint": self.fingerprint,
                "blocks": self.n_blocks,
                "states": self.n_source_states,
                "minimal": self.n_blocks == self.n_source_states,
                "signature": self.signature.to_json()}


def canonicalize(contract: Contract | HistoryExpression) -> CanonicalForm:
    """The memoised canonical form of *contract* (terms accepted too)."""
    term = contract.term if isinstance(contract, Contract) else \
        Contract(contract).term
    return _canonical(term)


def fingerprint_of(contract: Contract | HistoryExpression) -> str:
    """The canonical SHA-256 fingerprint of *contract*."""
    return canonicalize(contract).fingerprint


def signature_of(contract: Contract | HistoryExpression) -> Signature:
    """The ready-set signature of *contract*."""
    return canonicalize(contract).signature


def canonically_equal(a: Contract | HistoryExpression,
                      b: Contract | HistoryExpression) -> bool:
    """Are the two contracts bisimilar?  Decided by exact canonical-form
    equality (never by fingerprint alone)."""
    return canonicalize(a).key == canonicalize(b).key


@memo_table("canon.fingerprint", CANONICAL_CACHE_SIZE,
            cleared_with=("compiled.contract",))
def _canonical(term: HistoryExpression) -> CanonicalForm:
    tel = _telemetry.active()
    if tel is None:
        return _canonical_of(_quotient_for(term))
    with tel.tracer.span("canon.fingerprint") as span:
        form = _canonical_of(_quotient_for(term))
        tel.metrics.counter("canon.fingerprints").inc()
        span.set(blocks=form.n_blocks)
        tel.emit("canon.fingerprint", blocks=form.n_blocks,
                 fingerprint=form.fingerprint[:16])
    return form


def _quotient_for(term: HistoryExpression) -> QuotientContract:
    from repro.canon.minimize import _quotient
    return _quotient(term)


def _channels_of(mask: int) -> tuple[str, ...]:
    """Sorted channel names of a channel bitmask."""
    values = LABELS.channels.values
    names = []
    bit = 0
    while mask:
        if mask & 1:
            names.append(str(values[bit]))
        mask >>= 1
        bit += 1
    return tuple(sorted(names))


def _digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _canonical_of(quotient: QuotientContract) -> CanonicalForm:
    n = len(quotient)
    labels = LABELS.labels.values
    # Decode each block's moves once: (direction, channel, targets).
    decoded: list[list[tuple[str, str, tuple[int, ...]]]] = []
    for b in range(n):
        entries = []
        for label_id, targets in quotient.by_label[b].items():
            label = labels[label_id]
            direction = "!" if is_output(label) else "?"
            entries.append((direction, str(label.channel), targets))
        decoded.append(entries)

    digests = [
        _digest(("canon-init", quotient.terminated[b],
                 sorted((direction, channel)
                        for direction, channel, _ in decoded[b])))
        for b in range(n)]
    # Refine until all blocks are separated.  Minimality guarantees
    # separation within n rounds (refinement reaches the discrete
    # partition of a minimal quotient); the +1 margin is defensive.
    for _ in range(n + 1):
        if len(set(digests)) == n:
            break
        # Each block's previous digest joins the payload, so a round can
        # only split classes, never re-merge them: plain monotone
        # partition refinement, digest-encoded.
        digests = [
            _digest((digests[b], quotient.terminated[b],
                     sorted((direction, channel,
                             tuple(sorted(digests[t] for t in targets)))
                            for direction, channel, targets
                            in decoded[b])))
            for b in range(n)]
    if len(set(digests)) != n:  # pragma: no cover - minimality violated
        raise RuntimeError("canonical refinement failed to separate "
                           "non-bisimilar quotient blocks")

    order = sorted(range(n), key=digests.__getitem__)
    canonical_id = [0] * n
    for position, b in enumerate(order):
        canonical_id[b] = position
    table = tuple(
        (quotient.terminated[b],
         tuple(sorted(
             (direction, channel,
              tuple(sorted(canonical_id[t] for t in targets)))
             for direction, channel, targets in decoded[b])))
        for b in order)
    initial = canonical_id[0]

    alphabet_out = 0
    alphabet_in = 0
    for b in range(n):
        alphabet_out |= quotient.out_mask[b]
        alphabet_in |= quotient.in_mask[b]
    initial_out = quotient.out_mask[0]
    initial_in = quotient.in_mask[0]
    if initial_out:
        mode = "output"
    elif initial_in:
        mode = "input"
    else:
        mode = "quiescent"
    signature = Signature(
        mode=mode,
        initial_outputs=_channels_of(initial_out),
        initial_inputs=_channels_of(initial_in),
        initial_terminated=quotient.terminated[0],
        alphabet_outputs=_channels_of(alphabet_out),
        alphabet_inputs=_channels_of(alphabet_in))
    return CanonicalForm(
        fingerprint=_digest((initial, table)),
        initial=initial, table=table, signature=signature,
        n_blocks=n, n_source_states=quotient.n_source_states)
