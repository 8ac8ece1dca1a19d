"""Unit tests for the static validity and compliance certifiers.

Both certificates are cross-validated against the pre-existing deciders
(the concrete :class:`ValidityMonitor`, the on-the-fly search and the
explicit product automaton) and their witnesses must replay concretely.
"""

import pytest

from repro.core.compliance import (check_compliance, compliant_coinductive)
from repro.core.errors import StateSpaceLimitError
from repro.core.syntax import event, framing, request, seq, send
from repro.contracts.contract import Contract, clear_contract_caches
from repro.contracts.product import build_product
from repro.policies.library import forbid
from repro.staticcheck import certify_compliance, certify_validity
from repro.staticcheck.compliance import _certify as _compliance_memo
from repro.staticcheck.validity import _certify as _validity_memo

from tests.contracts.test_product import TestTheorem1

INVALID = framing(forbid("rm"), seq(event("touch"), event("rm")))


class TestValidity:
    def test_policy_free_terms_are_trivially_valid(self):
        certificate = certify_validity(send("a"))
        assert certificate.valid and bool(certificate)
        assert certificate.explored == 0

    def test_figure2_terms_are_statically_valid(self, c1, c2, broker_term):
        for term in (c1, c2):
            certificate = certify_validity(term)
            assert certificate.valid, term
            assert certificate.explored > 0  # the product was explored
        # The broker attaches no policy: validity is trivial (explored=0).
        broker = certify_validity(broker_term)
        assert broker.valid and broker.explored == 0

    def test_violation_yields_a_replayable_witness(self):
        certificate = certify_validity(INVALID)
        assert not certificate.valid and not bool(certificate)
        witness = certificate.witness
        assert witness is not None
        assert witness.replays()
        assert str(witness.labels[-1]) == "@rm"
        assert witness.policy == forbid("rm")

    def test_witness_is_shortest(self):
        # The violating @rm is 3 labels deep: [forbid_rm, @touch, @rm.
        certificate = certify_validity(INVALID)
        assert len(certificate.witness.labels) == 3

    def test_witness_states_track_the_automaton(self):
        witness = certify_validity(INVALID).witness
        assert len(witness.states) == len(witness.labels) + 1
        assert witness.states[-1] != witness.states[0]

    def test_state_limit_raises(self, c1):
        with pytest.raises(StateSpaceLimitError):
            certify_validity(c1, max_states=1)


class TestCompliance:
    def test_agrees_with_every_engine_on_fixed_cases(self):
        for client, server in TestTheorem1.CASES:
            certificate = certify_compliance(client, server)
            assert certificate.compliant == compliant_coinductive(
                client, server), (client, server)
            assert certificate.compliant == check_compliance(
                client, server).compliant, (client, server)
            assert certificate.compliant == build_product(
                Contract(client), Contract(server)).language_is_empty(), \
                (client, server)

    def test_refusals_carry_replayable_stuck_witnesses(self):
        for client, server in TestTheorem1.CASES:
            certificate = certify_compliance(client, server)
            if certificate.compliant:
                assert certificate.witness is None
            else:
                assert certificate.witness is not None
                assert certificate.witness.replays(), (client, server)

    def test_gfp_engine_reports_the_stuck_state(self):
        certificate = certify_compliance(send("a"), send("a"))
        assert not certificate.compliant
        # The synchronisation path into the refusal ends at the stuck
        # pair the on-the-fly search reports.
        assert certificate.witness.trace
        assert certificate.witness.trace[-1] == check_compliance(
            send("a"), send("a")).witness

    def test_unknown_engine_still_rejected(self):
        with pytest.raises(TypeError, match="engine"):
            certify_compliance(send("a"), send("a"), engine="compiled")

    def test_certificate_counts_product_pairs(self):
        certificate = certify_compliance(send("a"), send("a", event("x")))
        assert certificate.pairs >= 1


class TestCacheHygiene:
    def test_certificates_are_memoised(self):
        clear_contract_caches("staticcheck.validity")
        term = request("42", None, send("a"))
        certify_validity(term)
        before = _validity_memo.cache_info().hits
        certify_validity(term)
        assert _validity_memo.cache_info().hits == before + 1

    def test_clear_contract_caches_clears_staticcheck_too(self):
        # The satellite bugfix: a contract cache reset must not leave
        # stale derived certificates behind.
        certify_validity(INVALID)
        certify_compliance(send("a"), send("b"))
        assert _validity_memo.cache_info().currsize > 0
        assert _compliance_memo.cache_info().currsize > 0
        clear_contract_caches()
        assert _validity_memo.cache_info().currsize == 0
        assert _compliance_memo.cache_info().currsize == 0
