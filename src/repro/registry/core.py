"""The signature-indexed contract registry.

A :class:`ContractRegistry` holds named service contracts — 10^4–10^5 of
them — and answers the two discovery queries of Section 5's static
planning story without an all-pairs product sweep:

* :meth:`find_compliant` — which registered servers can this client
  talk to? (``client ⊢ server``, Definition 4/5);
* :meth:`find_substitutable` — which registered servers refine this
  advertised contract? (``advertised ≼ server``, the subcontract
  preorder), so any client verified against the advertisement can be
  routed to them.

Three canonicalization layers do the pruning:

1. **Signature buckets.**  Entries are bucketed by their ready-set
   :class:`~repro.canon.fingerprint.Signature`.  The Definition-5 stuck
   check at the *initial* product pair — and the preorder's initial
   refusal check — read exactly the fields a signature records, so one
   set comparison per bucket soundly discards every member at once.
   A pruned bucket is never even enumerated.
2. **Fingerprint dedup.**  Surviving candidates are grouped by
   canonical fingerprint: bisimilar contracts get identical verdicts
   (quotienting preserves compliance — see :mod:`repro.canon.minimize`),
   so one product check serves the whole group.
3. **Verdict memo.**  Verdicts are memoised by fingerprint *pair* —
   fingerprints determine contracts up to bisimilarity, so a memoised
   verdict stays valid across entry updates and even across
   ``clear_contract_caches()`` flushes; updating an entry only moves it
   between buckets, it never invalidates unrelated verdicts.  That is
   what makes recertification after an update incremental: only pairs
   involving a genuinely *new* canonical contract are recomputed.

The exhaustive baselines (:meth:`exhaustive_compliant`,
:meth:`exhaustive_substitutable`) run the same per-entry deciders with
every layer disabled — the benchmark's ground truth, byte-identical
verdicts required.

Telemetry: ``registry.adds``/``registry.queries`` counters, per-query
``registry.query`` spans and events carrying candidate/pruning counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.canon.fingerprint import CanonicalForm, Signature, canonicalize
from repro.canon.minimize import QuotientContract, minimize
from repro.canon.preorder import _left_analysis, subcontract_preorder
from repro.compiled.search import compiled_search
from repro.contracts.contract import Contract
from repro.core.errors import ReproError
from repro.core.syntax import HistoryExpression
from repro.observability import runtime as _telemetry

#: Product-search budget per candidate check.
MAX_PRODUCT_STATES = 1_000_000


@dataclass(frozen=True)
class RegistryEntry:
    """One registered service: its name, projected contract term and
    canonical form."""

    name: str
    term: HistoryExpression
    canonical: CanonicalForm

    @property
    def fingerprint(self) -> str:
        return self.canonical.fingerprint

    @property
    def signature(self) -> Signature:
        return self.canonical.signature


@dataclass(frozen=True)
class RegistryQuery:
    """Outcome of one discovery query.

    ``matches`` is the sorted tuple of matching entry names.  The stats
    describe the pruning funnel: of ``total`` entries, ``pruned`` were
    discarded by bucket signature tests alone, ``candidates`` survived
    to candidate status, and only ``product_checks`` product/preorder
    decisions actually ran (``dedup_hits`` candidates rode along on a
    fingerprint group or a memoised verdict).
    """

    kind: str
    matches: tuple[str, ...]
    total: int
    buckets: int
    pruned_buckets: int
    pruned: int
    candidates: int
    product_checks: int
    dedup_hits: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "matches": list(self.matches),
                "total": self.total, "buckets": self.buckets,
                "pruned_buckets": self.pruned_buckets,
                "pruned": self.pruned, "candidates": self.candidates,
                "product_checks": self.product_checks,
                "dedup_hits": self.dedup_hits,
                "pruning_ratio": self.pruning_ratio}

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the all-pairs product checks the index avoided."""
        if not self.total:
            return 0.0
        return 1.0 - (self.product_checks / self.total)


class ContractRegistry:
    """A persistent, signature-indexed store of named contracts."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._buckets: dict[Signature, set[str]] = {}
        # Verdict memo keyed by canonical fingerprints — safe across
        # updates and cache flushes (see the module docstring).
        self._verdicts: dict[tuple[str, str, str], bool] = {}

    # -- population ---------------------------------------------------------

    def add(self, name: str, term: HistoryExpression | Contract
            ) -> RegistryEntry:
        """Register *term* under *name* (replacing any previous entry —
        the incremental-update path)."""
        contract = term if isinstance(term, Contract) else Contract(term)
        canonical = canonicalize(contract)
        entry = RegistryEntry(name=name, term=contract.term,
                              canonical=canonical)
        if name in self._entries:
            self._unbucket(self._entries[name])
        self._entries[name] = entry
        self._buckets.setdefault(canonical.signature, set()).add(name)
        tel = _telemetry.active()
        if tel is not None:
            tel.metrics.counter("registry.adds").inc()
        return entry

    def remove(self, name: str) -> None:
        """Drop the entry named *name* (:class:`ReproError` if absent)."""
        entry = self._entries.pop(name, None)
        if entry is None:
            raise ReproError(f"no registered contract named {name!r}")
        self._unbucket(entry)

    def update(self, name: str, term: HistoryExpression | Contract
               ) -> RegistryEntry:
        """Re-register *name* with a new contract.  Memoised verdicts
        for other entries are untouched; only pairs involving the new
        canonical form are (lazily) recomputed."""
        return self.add(name, term)

    def clear_verdict_memo(self) -> None:
        """Drop every memoised pairwise verdict.  Never *required* for
        correctness (the memo is keyed by canonical fingerprints); used
        by benchmarks to re-time queries cold."""
        self._verdicts.clear()

    def _unbucket(self, entry: RegistryEntry) -> None:
        names = self._buckets.get(entry.signature)
        if names is not None:
            names.discard(entry.name)
            if not names:
                del self._buckets[entry.signature]

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entry(self, name: str) -> RegistryEntry:
        found = self._entries.get(name)
        if found is None:
            raise ReproError(f"no registered contract named {name!r}")
        return found

    def entries(self) -> tuple[RegistryEntry, ...]:
        return tuple(self._entries[name] for name in self.names())

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def duplicate_groups(self) -> tuple[tuple[str, ...], ...]:
        """Groups of entries with identical canonical forms (bisimilar
        contracts published under different names), each sorted, groups
        ordered by first member."""
        by_key: dict[tuple, list[str]] = {}
        for name in self.names():
            by_key.setdefault(self._entries[name].canonical.key,
                              []).append(name)
        return tuple(tuple(group) for group in
                     sorted(by_key.values())
                     if len(group) >= 2)

    # -- queries ------------------------------------------------------------

    def find_compliant(self, client: HistoryExpression | Contract
                       ) -> RegistryQuery:
        """Every registered server the *client* is compliant with."""
        return self._query("compliant", client)

    def find_substitutable(self, advertised: HistoryExpression | Contract
                           ) -> RegistryQuery:
        """Every registered server refining the *advertised* contract
        (``advertised ≼ server``)."""
        return self._query("substitutable", advertised)

    def _query(self, kind: str, term: HistoryExpression | Contract
               ) -> RegistryQuery:
        tel = _telemetry.active()
        if tel is None:
            return self._run_query(kind, term)
        with tel.tracer.span("registry.query", kind=kind) as span:
            result = self._run_query(kind, term)
            metrics = tel.metrics
            metrics.counter("registry.queries", kind=kind).inc()
            metrics.counter("registry.candidates").inc(result.candidates)
            metrics.counter("registry.pruned").inc(result.pruned)
            metrics.counter("registry.product_checks").inc(
                result.product_checks)
            metrics.counter("registry.dedup_hits").inc(result.dedup_hits)
            span.set(matches=len(result.matches),
                     candidates=result.candidates,
                     product_checks=result.product_checks)
            tel.emit("registry.query", kind=kind,
                     matches=len(result.matches), total=result.total,
                     pruned=result.pruned,
                     product_checks=result.product_checks)
        return result

    def _run_query(self, kind: str, term: HistoryExpression | Contract
                   ) -> RegistryQuery:
        contract = term if isinstance(term, Contract) else Contract(term)
        query_q = minimize(contract)
        query_fp = canonicalize(contract).fingerprint
        if kind == "compliant":
            keep_bucket = _compliant_bucket_filter(query_q)
        else:
            keep_bucket = _substitutable_bucket_filter(query_q)

        total = len(self._entries)
        pruned_buckets = 0
        pruned = 0
        candidates: list[str] = []
        for signature, names in self._buckets.items():
            if not keep_bucket(signature):
                pruned_buckets += 1
                pruned += len(names)
                continue
            candidates.extend(names)

        matches: list[str] = []
        product_checks = 0
        dedup_hits = 0
        by_fingerprint: dict[str, bool] = {}
        for name in sorted(candidates):
            entry = self._entries[name]
            fp = entry.fingerprint
            verdict = by_fingerprint.get(fp)
            if verdict is None:
                memo_key = (kind, query_fp, fp)
                verdict = self._verdicts.get(memo_key)
                if verdict is None:
                    verdict = self._check(kind, query_q, entry)
                    self._verdicts[memo_key] = verdict
                    product_checks += 1
                else:
                    dedup_hits += 1
                by_fingerprint[fp] = verdict
            else:
                dedup_hits += 1
            if verdict:
                matches.append(name)
        return RegistryQuery(
            kind=kind, matches=tuple(matches), total=total,
            buckets=len(self._buckets), pruned_buckets=pruned_buckets,
            pruned=pruned, candidates=len(candidates),
            product_checks=product_checks, dedup_hits=dedup_hits)

    def _check(self, kind: str, query_q: QuotientContract,
               entry: RegistryEntry) -> bool:
        server_q = minimize(entry.term)
        if kind == "compliant":
            return compiled_search(query_q, server_q,
                                   MAX_PRODUCT_STATES).empty
        return subcontract_preorder(query_q.term, server_q.term).holds

    # -- exhaustive baselines (benchmark ground truth) ----------------------

    def exhaustive_compliant(self, client: HistoryExpression | Contract
                             ) -> tuple[str, ...]:
        """All-pairs ``client ⊢ server`` sweep: one product check per
        entry, no buckets, no dedup, no memo."""
        contract = client if isinstance(client, Contract) else \
            Contract(client)
        client_q = minimize(contract)
        return tuple(
            name for name in self.names()
            if compiled_search(client_q, minimize(self._entries[name].term),
                               MAX_PRODUCT_STATES).empty)

    def exhaustive_substitutable(self,
                                 advertised: HistoryExpression | Contract
                                 ) -> tuple[str, ...]:
        """All-pairs ``advertised ≼ server`` sweep."""
        contract = advertised if isinstance(advertised, Contract) else \
            Contract(advertised)
        return tuple(
            name for name in self.names()
            if subcontract_preorder(contract.term,
                                    self._entries[name].term).holds)

    # -- summary ------------------------------------------------------------

    def stats(self) -> dict:
        """Registry shape: entries, buckets, canonical classes, the
        dedup ratio the fingerprint layer buys."""
        fingerprints = {entry.fingerprint
                        for entry in self._entries.values()}
        total = len(self._entries)
        return {"entries": total,
                "buckets": len(self._buckets),
                "canonical_classes": len(fingerprints),
                "duplicate_groups": len(self.duplicate_groups()),
                "dedup_ratio": (1.0 - len(fingerprints) / total
                                if total else 0.0),
                "memoized_verdicts": len(self._verdicts)}


def _compliant_bucket_filter(client_q: QuotientContract):
    """The Definition-5 initial stuck test, lifted to a whole bucket.

    A bucket signature records exactly the initial output/input channel
    sets shared by every member, so the initial-pair stuck check — no
    outputs at all, or an output unmatched by the partner's inputs —
    evaluates once per bucket.  A stuck initial pair means every member
    is non-compliant with the client (the empty trace already reaches a
    stuck state); a live one means the members need a real search.
    """
    if client_q.terminated[0]:
        # A client that may terminate immediately is never stuck at the
        # initial pair; no bucket can be pruned on initial evidence.
        return lambda signature: True
    from repro.canon.fingerprint import _channels_of
    out1 = set(_channels_of(client_q.out_mask[0]))
    in1 = set(_channels_of(client_q.in_mask[0]))

    def keep(signature: Signature) -> bool:
        out2 = set(signature.initial_outputs)
        if not (out1 or out2):
            return False
        if out1 - set(signature.initial_inputs):
            return False
        if out2 - in1:
            return False
        return True
    return keep


def _substitutable_bucket_filter(advertised_q: QuotientContract):
    """The preorder's initial refusal condition, lifted to a bucket.

    Mirrors :func:`repro.canon.preorder._refusal` at the root meet pair
    ``({initial}, {initial})`` using only signature fields; a refusing
    initial pair disqualifies every bucket member at once.
    """
    mode, bits = _left_analysis(advertised_q, (0,))
    if mode == "vacuous":
        # Only ε complies with the advertised contract: everything
        # refines it.
        return lambda signature: True
    from repro.canon.fingerprint import _channels_of
    allowed = set(_channels_of(bits))

    if mode == "output":
        def keep(signature: Signature) -> bool:
            out2 = set(signature.initial_outputs)
            return bool(out2) and not (out2 - allowed)
        return keep

    def keep(signature: Signature) -> bool:
        if signature.initial_outputs:
            return False
        in2 = set(signature.initial_inputs)
        return bool(in2) and not (allowed - in2)
    return keep
