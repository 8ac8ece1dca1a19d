"""Property-based checks of the BPA pipeline.

* the HE → BPA translation is strongly bisimilar to the source;
* the framing regularisation bounds same-policy nesting at 1 and
  preserves the validity verdict;
* the BPA model checker agrees with trace enumeration, and with the
  production certifier (``certify_validity``), with which it shares no
  code.
"""

from hypothesis import given, settings

from repro.core.actions import is_history_label
from repro.core.semantics import step, traces
from repro.core.validity import History, is_valid
from repro.contracts.lts import bisimilar, build_lts
from repro.bpa.modelcheck import check_validity_bpa
from repro.bpa.regularize import max_framing_depth, regularize
from repro.bpa.translate import to_bpa
from repro.staticcheck.validity import certify_validity

from tests.strategies import history_expressions


def declarative_valid(term, cap=12):
    for trace in traces(term, max_length=cap):
        history = History([l for l in trace if is_history_label(l)])
        if not is_valid(history):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(term=history_expressions())
def test_translation_is_bisimilar(term):
    assert bisimilar(build_lts(term, step), to_bpa(term).lts())


@settings(max_examples=200, deadline=None)
@given(term=history_expressions())
def test_regularize_bounds_nesting(term):
    assert max_framing_depth(regularize(term)) <= 1


@settings(max_examples=200, deadline=None)
@given(term=history_expressions())
def test_regularize_is_idempotent(term):
    once = regularize(term)
    assert regularize(once) == once


def _is_dag(lts):
    return not any(state in lts.reachable_from(target)
                   for state in lts.states
                   for _, target in lts.transitions[state])


@settings(max_examples=100, deadline=None)
@given(term=history_expressions(max_depth=3))
def test_modelchecker_agrees_with_trace_enumeration(term):
    # Restrict to terms whose LTS is a DAG so a finite trace cap covers
    # every history exactly (recursive terms would be approximated).
    lts = build_lts(term, step)
    if not _is_dag(lts):
        return
    assert check_validity_bpa(term).valid == \
        declarative_valid(term, cap=len(lts) + 1)


@settings(max_examples=100, deadline=None)
@given(term=history_expressions(max_depth=3))
def test_modelchecker_agrees_with_the_certifier(term):
    assert check_validity_bpa(term).valid == certify_validity(term).valid


@settings(max_examples=100, deadline=None)
@given(term=history_expressions(max_depth=3))
def test_regularize_preserves_validity_verdict(term):
    """Ground-truth check that the rewrite does not change validity
    (the BPA checker regularises internally, so compare via the
    *declarative* checker on enumerated traces)."""
    lts = build_lts(term, step)
    if not _is_dag(lts):
        return
    cap = len(lts) + len(build_lts(regularize(term), step)) + 1
    assert (declarative_valid(term, cap=cap)
            == declarative_valid(regularize(term), cap=cap))
