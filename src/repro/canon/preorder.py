"""The subcontract preorder ``H1 ≼ H2``, decided on quotient tables.

``H1 ≼ H2`` holds when every client compliant with server ``H1`` is
compliant with server ``H2`` — the server-substitutability preorder of
Castagna–Gesbert–Padovani, the relation behind contract-based service
discovery.  The decider here is **exact** for the contracts of this
calculus, and it is the only one: the registry, ``repro registry`` and
the tests all run it.  A check that every ready set of ``H2`` contains
one of ``H1`` would be conservative on external choices: it rejects
substitutions no client can tell apart.  The tests compare this
decider with the quantified definition over every client of depth two
and replay each refusal witness on every compliance decider.

Exactness comes from the homogeneous-mode shape of contract states (a
state's moves are all outputs or all inputs), which collapses the meet
analysis to bitmask arithmetic on the bisimulation quotients.  The BFS
explores pairs of *meet states* — the sets of server states a client
may face after one observable interaction sequence — and classifies
each left meet:

* **vacuous**: some member offers nothing, or members mix sending and
  waiting, or the waiting members share no common input.  Only the
  terminated client complies with the left meet from here, and ``ε``
  complies with everything — nothing to check, nothing to explore;
* **output mode** (every member sends; ``out_bits`` = the union of
  their output channels): a compliant client must be ready to receive
  all of ``out_bits``.  A right member refuses iff it emits a channel
  outside ``out_bits`` or emits nothing at all (waits or stops while
  the client is listening);
* **input mode** (every member waits; ``common`` = the intersection of
  their input channels): a compliant client may only send channels in
  ``common``.  A right member refuses iff it emits anything, waits for
  none of ``common``'s channels, or misses one of them.

Exploration follows exactly the client-realizable actions — receive
each of ``out_bits`` (skipping channels no right resolution emits), or
send each channel of ``common`` — with successors as member-wise meet
unions.  No reachable refusal means ``H1 ≼ H2``.

Every refusal is packaged as a :class:`PreorderWitness` carrying a
*synthesized separating client*: an external choice tower (output-mode
steps) and single sends (input-mode steps) replaying the path, with
``ε`` escape hatches off the path.  By construction the client complies
with ``H1`` and reaches a Definition-5 stuck pair with ``H2`` —
:meth:`PreorderWitness.replays` re-checks both facts with
:func:`~repro.core.compliance.check_compliance`.

The decision memo is the ``canon.preorder`` table, cleared with the
compiled-table memo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.canon.minimize import QuotientContract, minimize
from repro.compiled.tables import LABELS
from repro.contracts.contract import Contract
from repro.core.actions import Label, Receive, Send
from repro.core.errors import StateSpaceLimitError
from repro.core.syntax import (EPSILON, HistoryExpression, external, send)
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import memo_table

#: Entries kept in the preorder memo.
PREORDER_CACHE_SIZE = 4096

#: Bound on explored meet pairs (the meet space is exponential in the
#: worst case; real contracts stay tiny).
MAX_MEET_PAIRS = 200_000

#: A meet state over quotient blocks, as a sorted id tuple.
_Meet = tuple[int, ...]


@dataclass(frozen=True)
class PreorderWitness:
    """Evidence that ``smaller ⋠ larger``.

    ``path`` is the server-side action sequence (``Send`` = both servers
    emit, the client receives; ``Receive`` = both servers wait, the
    client sends) leading to the refusing meet; ``refusing_state`` a
    state ``larger`` may reach along it that the synthesized ``client``
    cannot handle; ``client`` the separating client itself.
    """

    smaller: HistoryExpression
    larger: HistoryExpression
    path: tuple[Label, ...]
    client: HistoryExpression
    refusing_state: HistoryExpression
    reason: str

    def replays(self) -> bool:
        """Does the witness replay concretely: ``client ⊢ smaller`` and
        ``client ⊬ larger``?"""
        from repro.core.compliance import check_compliance
        return (check_compliance(self.client, self.smaller).compliant
                and not check_compliance(self.client,
                                         self.larger).compliant)

    def describe(self) -> str:
        """One-line human rendering of the refusal."""
        rendered = ".".join(
            (f"!{label.channel}" if isinstance(label, Send)
             else f"?{label.channel}") for label in self.path) or "ε"
        return (f"after {rendered}, the larger server may reach "
                f"{self.refusing_state} — {self.reason}")


@dataclass(frozen=True)
class PreorderResult:
    """Outcome of a preorder decision: the verdict, a witness when it
    fails, and the number of meet pairs explored."""

    holds: bool
    witness: PreorderWitness | None
    pairs: int

    def __bool__(self) -> bool:
        return self.holds


def subcontract_preorder(smaller: Contract | HistoryExpression,
                         larger: Contract | HistoryExpression
                         ) -> PreorderResult:
    """Decide ``smaller ≼ larger`` (memoised; exact)."""
    t1 = smaller.term if isinstance(smaller, Contract) else \
        Contract(smaller).term
    t2 = larger.term if isinstance(larger, Contract) else \
        Contract(larger).term
    return _preorder(t1, t2)


def preorder_equivalent(a: Contract | HistoryExpression,
                        b: Contract | HistoryExpression) -> bool:
    """Mutual refinement: the servers are substitutable both ways."""
    return subcontract_preorder(a, b).holds and \
        subcontract_preorder(b, a).holds


@memo_table("canon.preorder", PREORDER_CACHE_SIZE,
            cleared_with=("compiled.contract",))
def _preorder(t1: HistoryExpression, t2: HistoryExpression
              ) -> PreorderResult:
    tel = _telemetry.active()
    if tel is None:
        return _decide(minimize(t1), minimize(t2))
    with tel.tracer.span("canon.preorder") as span:
        result = _decide(minimize(t1), minimize(t2))
        tel.metrics.counter(
            "canon.preorder.checks",
            verdict="holds" if result.holds else "refused").inc()
        span.set(holds=result.holds, pairs=result.pairs)
        tel.emit("canon.preorder", holds=result.holds, pairs=result.pairs)
    return result


# -- meet analysis -----------------------------------------------------------

def _left_analysis(quotient: QuotientContract, meet: _Meet
                   ) -> tuple[str, int]:
    """Classify the left meet: ``("vacuous", 0)``, ``("output",
    out_bits)`` or ``("input", common)``."""
    out_mask = quotient.out_mask
    in_mask = quotient.in_mask
    out_bits = 0
    common = -1
    has_out = False
    has_in = False
    for member in meet:
        om = out_mask[member]
        im = in_mask[member]
        if not (om | im):
            # The server may stop dead here: any non-terminated client
            # residual deadlocks, so only ε complies.
            return ("vacuous", 0)
        if om:
            has_out = True
            out_bits |= om
        if im:
            has_in = True
            common &= im
    if has_out and has_in:
        # Mixed modes: a client choice is homogeneous, it cannot listen
        # for one member's output and feed another member's input.
        return ("vacuous", 0)
    if has_out:
        return ("output", out_bits)
    if common == 0:
        # The waiting members accept no common channel: no single client
        # send satisfies them all.
        return ("vacuous", 0)
    return ("input", common)


def _refusal(quotient: QuotientContract, meet: _Meet, mode: str,
             bits: int) -> tuple[int, int, str] | None:
    """The first right member a compliant-with-left client cannot
    handle: ``(member, discriminating-channel-mask, reason)``."""
    out_mask = quotient.out_mask
    in_mask = quotient.in_mask
    for member in meet:
        om = out_mask[member]
        im = in_mask[member]
        if mode == "output":
            if om == 0:
                return (member, 0,
                        "it emits nothing while the client is committed "
                        "to receiving")
            unmatched = om & ~bits
            if unmatched:
                return (member, unmatched,
                        "it emits a channel the smaller server never "
                        "emits here")
        else:
            if om:
                return (member, bits,
                        "it emits while every client send is unmatched "
                        "by its own inputs")
            if im == 0:
                return (member, bits,
                        "it accepts nothing while the client must send")
            missing = bits & ~im
            if missing:
                return (member, missing,
                        "it misses an input every resolution of the "
                        "smaller server accepts")
    return None


def _channel_names(mask: int) -> tuple[str, ...]:
    """Sorted channel names of a bitmask."""
    values = LABELS.channels.values
    names = []
    bit = 0
    while mask:
        if mask & 1:
            names.append(str(values[bit]))
        mask >>= 1
        bit += 1
    return tuple(sorted(names))


def _lowest_channel(mask: int) -> str:
    """The channel of the lowest set bit (deterministic pick)."""
    bit = (mask & -mask).bit_length() - 1
    return str(LABELS.channels.values[bit])


def _meet_step(quotient: QuotientContract, meet: _Meet,
               label_id: int) -> _Meet:
    """Member-wise meet successor along one server-side label."""
    targets: set[int] = set()
    for member in meet:
        found = quotient.by_label[member].get(label_id)
        if found:
            targets.update(found)
    return tuple(sorted(targets))


# -- decision ----------------------------------------------------------------

def _decide(q1: QuotientContract, q2: QuotientContract) -> PreorderResult:
    initial: tuple[_Meet, _Meet] = ((0,), (0,))
    parents: dict[tuple[_Meet, _Meet],
                  tuple[tuple[_Meet, _Meet], str, str] | None] = {
        initial: None}
    frontier: deque[tuple[_Meet, _Meet]] = deque((initial,))
    pairs = 0
    while frontier:
        key = frontier.popleft()
        m1, m2 = key
        pairs += 1
        if pairs > MAX_MEET_PAIRS:
            raise StateSpaceLimitError(MAX_MEET_PAIRS, "preorder meets")
        mode, bits = _left_analysis(q1, m1)
        if mode == "vacuous":
            continue
        refused = _refusal(q2, m2, mode, bits)
        if refused is not None:
            return PreorderResult(
                False, _build_witness(q1, q2, key, parents, mode, bits,
                                      refused), pairs)
        for channel in _channel_names(bits):
            label = Send(channel) if mode == "output" else Receive(channel)
            label_id = LABELS.intern(label)
            n2 = _meet_step(q2, m2, label_id)
            if not n2:
                # No right resolution follows this channel (output mode
                # only: the refusal check above guarantees input-mode
                # successors).  The client branch is never exercised
                # against the larger server — nothing to refute there.
                continue
            successor = (_meet_step(q1, m1, label_id), n2)
            if successor not in parents:
                parents[successor] = (key, mode, channel)
                frontier.append(successor)
    return PreorderResult(True, None, pairs)


def _build_witness(q1: QuotientContract, q2: QuotientContract,
                   key: tuple[_Meet, _Meet],
                   parents: dict, mode: str, bits: int,
                   refused: tuple[int, int, str]) -> PreorderWitness:
    member, disc_mask, reason = refused

    # Reconstruct the action path: (meet-pair, mode-at-source, channel).
    steps: list[tuple[tuple[_Meet, _Meet], str, str]] = []
    node = key
    while parents[node] is not None:
        previous, step_mode, channel = parents[node]
        steps.append((previous, step_mode, channel))
        node = previous
    steps.reverse()

    # The discriminating tail at the refusing meet: in output mode the
    # client listens for every channel the smaller server may emit (the
    # refusing member emits none of them, or something else entirely);
    # in input mode it sends one channel every smaller-server resolution
    # accepts and the refusing member does not.
    if mode == "output":
        tail: HistoryExpression = external(
            *((channel, EPSILON) for channel in _channel_names(bits)))
    else:
        tail = send(_lowest_channel(disc_mask if disc_mask else bits))

    # Fold the path backwards into a client: each output-mode step is an
    # external choice over the step meet's out_bits — the path channel
    # continues, the others terminate (ε complies with everything); each
    # input-mode step is the single matching send.
    client = tail
    for step_key, step_mode, channel in reversed(steps):
        if step_mode == "output":
            _, step_bits = _left_analysis(q1, step_key[0])
            client = external(
                *((offered, client if offered == channel else EPSILON)
                  for offered in _channel_names(step_bits)))
        else:
            client = send(channel, client)

    path = tuple(
        Send(channel) if step_mode == "output" else Receive(channel)
        for _, step_mode, channel in steps)
    return PreorderWitness(
        smaller=q1.term, larger=q2.term, path=path, client=client,
        refusing_state=q2.terms[member], reason=reason)
