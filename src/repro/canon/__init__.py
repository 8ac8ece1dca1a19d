"""Canonical contract analysis over the compiled core.

Three passes, each memoised per projected term:

* :func:`minimize` — the bisimulation quotient of a contract's compiled
  transition tables (:mod:`repro.canon.minimize`);
* :func:`canonicalize` / :func:`fingerprint_of` / :func:`signature_of`
  — the order-independent canonical form, SHA-256 fingerprint and
  ready-set signature of the quotient (:mod:`repro.canon.fingerprint`);
* :func:`subcontract_preorder` — the exact server-substitutability
  preorder ``H1 ≼ H2`` with replayable counterexample witnesses
  (:mod:`repro.canon.preorder`).

All three memo tables (``canon.quotient``, ``canon.fingerprint``,
``canon.preorder``) are declared ``cleared_with`` the compiled-table
memo: the quotient tables embed process-global label ids, so they must
never outlive the label intern table they were compiled against, and
clearing ``compiled.contract`` (which resets that table) clears them
too.
"""

from __future__ import annotations

from repro.canon.fingerprint import (CanonicalForm, Signature, canonicalize,
                                     canonically_equal, fingerprint_of,
                                     signature_of)
from repro.canon.minimize import QuotientContract, minimize
from repro.canon.preorder import (PreorderResult, PreorderWitness,
                                  preorder_equivalent, subcontract_preorder)

__all__ = [
    "CanonicalForm", "PreorderResult", "PreorderWitness",
    "QuotientContract", "Signature", "canonicalize", "canonically_equal",
    "fingerprint_of", "minimize", "preorder_equivalent", "signature_of",
    "subcontract_preorder",
]
