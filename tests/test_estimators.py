from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONDITIONS, TAGS, conjunctions_st, labels_st, logs_st, make_log, rec
from errata import (
    ConditionBody,
    PredictionLog,
    Probability,
    TheoremId,
    Verdict,
    check,
    check_precision_change,
    exhaustive_oracle,
    invariance_profile,
    learn_correction,
    learn_detection,
    metric_bundle,
)
from errata.estimators import _error_detecting, f1_value, joint_counts
from errata.theorems import check_all
from event_oracle import (
    EventQuery,
    body_query,
    cond_prob,
    condition_absent,
    condition_holds,
    count,
    predicted_has,
    slice_log,
    truth_has,
)

BODY_C1 = ConditionBody.of("c1")


def _detecting(log, distribution=None):
    """Is c1 error detecting for class a of model m (on one tag)?"""
    c = joint_counts(log, "a", BODY_C1, model_id="m", distribution=distribution)
    return _error_detecting(c.pred, c.pred_gt, c.pred_body, c.pred_body_gt)


# ---------------------------------------------------------------------------
# Probability
# ---------------------------------------------------------------------------

def test_probability_value_and_undefined():
    assert Probability(2, 3).value == Fraction(2, 3)
    assert Probability(0, 0).value is None
    assert not Probability(0, 0).defined


def test_probability_rejects_bad_counts():
    with pytest.raises(ValueError):
        Probability(3, 2)
    with pytest.raises(ValueError):
        Probability(-1, 2)
    with pytest.raises(ValueError):
        Probability(1, 0)


# ---------------------------------------------------------------------------
# cond_prob (LOG-A hand counts)
# ---------------------------------------------------------------------------

def test_cond_prob_precision(log_a):
    p = cond_prob(
        log_a,
        EventQuery.conjunction(truth_has("a")),
        EventQuery.conjunction(predicted_has("a")),
    )
    assert (p.numerator, p.denominator) == (2, 3)
    assert p.value == Fraction(2, 3)


def test_cond_prob_recall(log_a):
    p = cond_prob(
        log_a,
        EventQuery.conjunction(predicted_has("a")),
        EventQuery.conjunction(truth_has("a")),
    )
    assert p.value == Fraction(2, 3)


def test_cond_prob_zero_given_undefined(log_a):
    p = cond_prob(
        log_a,
        EventQuery.conjunction(truth_has("a")),
        EventQuery.conjunction(predicted_has("zz")),
    )
    assert p.value is None and p.denominator == 0


# ---------------------------------------------------------------------------
# metric_bundle
# ---------------------------------------------------------------------------

def test_bundle_log_a_exact(log_a):
    b = metric_bundle(log_a, "m", "a", BODY_C1)
    assert b.precision.value == Fraction(2, 3)
    assert b.recall.value == Fraction(2, 3)
    assert b.support.value == Fraction(2, 3)
    assert b.confidence.value == Fraction(1, 2)
    assert b.rule_precision.value == Fraction(1)
    assert (b.rule_precision.numerator, b.rule_precision.denominator) == (1, 1)
    assert b.rule_recall.value == Fraction(1, 3)
    assert b.k_factor == Fraction(2)
    assert b.residual == Fraction(1, 3)


def test_bundle_vacuous_condition(log_a):
    b = metric_bundle(log_a, "m", "a", ConditionBody.of("c_never"))
    assert b.rule_precision.value == b.precision.value
    assert b.rule_recall.value == b.recall.value
    assert b.support.value == 0
    assert b.k_factor == 0


def test_bundle_support_one_undefined():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
    )
    b = metric_bundle(log, "m", "a", BODY_C1)
    assert b.support.value == 1
    assert b.rule_precision.value is None
    assert b.k_factor is None


def test_bundle_never_predicted_undefined():
    log = make_log(rec("s1", predicted={"b"}, ground_truth={"a"}))
    b = metric_bundle(log, "m", "a", BODY_C1)
    assert b.precision.value is None
    assert b.residual is None
    assert b.support.value is None


def test_f1_value():
    assert f1_value(Probability(1, 1), Probability(1, 3)) == Fraction(1, 2)
    assert f1_value(Probability(0, 2), Probability(0, 3)) is None
    assert f1_value(Probability(0, 0), Probability(1, 2)) is None


# ---------------------------------------------------------------------------
# Error detection verdicts
# ---------------------------------------------------------------------------

def test_error_detecting_log_a(log_a):
    # 1/2 <= 2/3
    assert _detecting(log_a) is Verdict.YES


def test_error_detecting_no():
    # Condition only on correct predictions while base precision < 1.
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}),
    )
    assert _detecting(log) is Verdict.NO


def test_error_detecting_undefined_without_predictions():
    log = make_log(rec("s1", predicted={"b"}, ground_truth={"a"}))
    assert _detecting(log) is Verdict.UNDEFINED


def test_error_detecting_equality_counts_as_yes():
    # Conditioned precision exactly equals base precision.
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("s3", predicted={"a"}, ground_truth={"a"}),
        rec("s4", predicted={"a"}, ground_truth={"b"}),
    )
    assert _detecting(log) is Verdict.YES


def test_error_detecting_respects_distribution_slice():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}, distribution="d1"),
        rec("s2", predicted={"a"}, ground_truth={"a"}, distribution="d1"),
        rec("s3", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}, distribution="d2"),
        rec("s4", predicted={"a"}, ground_truth={"b"}, distribution="d2"),
    )
    assert _detecting(log, "d1") is Verdict.YES
    assert _detecting(log, "d2") is Verdict.NO
    profile = invariance_profile(log, "m", "a", BODY_C1)
    assert [row.verdict for row in profile.rows] == [Verdict.YES, Verdict.NO]


# ---------------------------------------------------------------------------
# Invariance profile
# ---------------------------------------------------------------------------

def test_invariance_two_distributions_both_yes():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}, distribution="d1"),
        rec("s2", predicted={"a"}, ground_truth={"a"}, distribution="d1"),
        rec("s3", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}, distribution="d2"),
        rec("s4", predicted={"a"}, ground_truth={"a"}, distribution="d2"),
    )
    profile = invariance_profile(log, "m", "a", BODY_C1)
    assert [row.distribution for row in profile.rows] == ["d1", "d2"]
    assert all(row.verdict is Verdict.YES for row in profile.rows)
    assert profile.invariant is True
    # Per-distribution confidence 1/1 equals the pooled estimate: zero gap.
    assert all(row.confidence_gap == 0 for row in profile.rows)


def test_invariance_single_untagged_distribution(log_a):
    profile = invariance_profile(log_a, "m", "a", BODY_C1)
    assert len(profile.rows) == 1
    assert profile.rows[0].distribution == "default"
    assert profile.rows[0].verdict is Verdict.YES
    assert profile.invariant is True
    assert profile.pooled_confidence.value == Fraction(1, 2)


def test_invariance_mixed_verdicts_not_invariant():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}, distribution="d1"),
        rec("s2", predicted={"a"}, ground_truth={"a"}, distribution="d1"),
        rec("s3", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}, distribution="d2"),
        rec("s4", predicted={"a"}, ground_truth={"b"}, distribution="d2"),
    )
    profile = invariance_profile(log, "m", "a", BODY_C1)
    assert profile.row_for("d1").verdict is Verdict.YES
    assert profile.row_for("d2").verdict is Verdict.NO
    assert profile.invariant is False
    assert profile.row_for("d1").confidence.value == 1
    assert profile.row_for("d2").confidence.value == 0
    assert profile.row_for("d1").confidence_gap == Fraction(1, 2)


def test_invariance_undefined_rows_do_not_break_invariance():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}, distribution="d1"),
        rec("s2", predicted={"b"}, ground_truth={"b"}, distribution="d2"),
    )
    profile = invariance_profile(log, "m", "a", BODY_C1)
    assert profile.row_for("d2").verdict is Verdict.UNDEFINED
    assert profile.invariant is True


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(logs_st(), conjunctions_st(), conjunctions_st())
def test_probability_invariants(log, event, given_q):
    p = cond_prob(log, event, given_q)
    assert 0 <= p.numerator <= p.denominator
    if p.value is not None:
        assert 0 <= p.value <= 1
        assert p.value * p.denominator == p.numerator


@given(logs_st(max_records=10), labels_st, st.sets(st.sampled_from(("c1", "c2", "c3")), min_size=1, max_size=3))
def test_bundle_matches_explicit_queries(log, alpha, body_ids):
    """Dual route: one-pass bundle vs explicit event-query estimation."""
    body = ConditionBody(frozenset(body_ids))
    b = metric_bundle(log, "m", alpha, body)
    sub = slice_log(log, "m")
    alpha_pred = EventQuery.conjunction(predicted_has(alpha))
    no_body = EventQuery.conjunction(
        predicted_has(alpha), *(condition_absent(c) for c in body_ids)
    )
    expected_rule_precision = cond_prob(sub, EventQuery.conjunction(truth_has(alpha)), no_body)
    expected_rule_recall = cond_prob(sub, no_body, EventQuery.conjunction(truth_has(alpha)))
    assert b.rule_precision == expected_rule_precision
    assert b.rule_recall == expected_rule_recall
    assert b.support == cond_prob(sub, body_query(body), alpha_pred)
    assert b.precision == cond_prob(sub, EventQuery.conjunction(truth_has(alpha)), alpha_pred)


@given(logs_st(max_records=10), labels_st)
def test_vacuous_body_identity(log, alpha):
    body = ConditionBody.of("never-seen")
    b = metric_bundle(log, "m", alpha, body)
    assert b.rule_precision.value == b.precision.value
    assert b.rule_recall.value == b.recall.value


@given(logs_st(max_records=8), labels_st)
@settings(max_examples=50)
def test_duplication_scale_invariance(log, alpha):
    """Frequencies are scale invariant: a doubled log yields the same bundle."""
    doubled = PredictionLog(
        log.records
        + tuple(
            rec_.__class__(
                sample_id=rec_.sample_id + "+",
                model_id=rec_.model_id,
                predicted=rec_.predicted,
                ground_truth=rec_.ground_truth,
                conditions=rec_.conditions,
                distribution=rec_.distribution,
            )
            for rec_ in log.records
        )
    )
    b1 = metric_bundle(log, "m", alpha, BODY_C1)
    b2 = metric_bundle(doubled, "m", alpha, BODY_C1)
    for name in ("precision", "recall", "rule_precision", "rule_recall", "support", "confidence"):
        assert getattr(b1, name).value == getattr(b2, name).value
    assert b1.k_factor == b2.k_factor
    assert b1.residual == b2.residual


def test_condition_body_requires_ids():
    with pytest.raises(ValueError):
        ConditionBody(frozenset())


@pytest.mark.parametrize("call", [
    pytest.param(lambda log: ConditionBody("c1"), id="ConditionBody"),
    pytest.param(lambda log: joint_counts(log, "a", "c1"), id="joint_counts"),
    pytest.param(lambda log: check(TheoremId.T1_PRECISION_CHANGE, log, "m", "a", "c1"), id="check"),
    pytest.param(lambda log: check_all(log, "m", "a", "c1"), id="check_all"),
    pytest.param(lambda log: learn_detection(log, "m", "a", "c1"), id="learn_detection"),
    pytest.param(lambda log: exhaustive_oracle(log, "m", "a", "c1"), id="exhaustive_oracle"),
])
def test_a_string_of_ids_is_refused_not_split_into_characters(log_a, call):
    # "c1" as a set is {"c", "1"}: two conditions the log never holds, and
    # a silent zero support.
    with pytest.raises(TypeError, match="not the string 'c1'"):
        call(log_a)


# ---------------------------------------------------------------------------
# Counting index vs the event-query reference
# ---------------------------------------------------------------------------

def _union(*queries):
    """Disjunction of queries; no operands is the empty (match-nothing) event."""
    return EventQuery(tuple(clause for q in queries for clause in q.clauses))


def _assert_joint_counts_match_event_queries(log, model, tag, alpha, body, beta):
    c = joint_counts(log, alpha, body, beta, model_id=model, distribution=tag)
    sub = slice_log(log, model, tag)
    pred = EventQuery.conjunction(predicted_has(alpha))
    gt = EventQuery.conjunction(truth_has(alpha))
    pred_body = pred.and_(_union(*(EventQuery.conjunction(condition_holds(x)) for x in body)))
    beta_pred = EventQuery.conjunction(predicted_has(beta))
    beta_gt = EventQuery.conjunction(truth_has(beta))
    union = _union(beta_pred, pred_body)
    expected = {
        "total": EventQuery.match_all(),
        "gt": gt,
        "pred": pred,
        "pred_gt": pred.and_(gt),
        "pred_body": pred_body,
        "pred_body_gt": pred_body.and_(gt),
        "beta_pred": beta_pred,
        "beta_pred_beta_gt": beta_pred.and_(beta_gt),
        "pred_body_beta_gt": pred_body.and_(beta_gt),
        "union": union,
        "union_beta_gt": union.and_(beta_gt),
    }
    assert c._asdict() == {name: count(sub, q) for name, q in expected.items()}
    # Without beta the beta fields stay zero and the rest is unchanged.
    alone = joint_counts(log, alpha, body, model_id=model, distribution=tag)
    assert tuple(alone)[:6] == tuple(c)[:6]
    assert not any(tuple(alone)[6:])


@given(
    logs_st(models=("m", "n")),
    st.sampled_from(("m", "n")),
    st.sampled_from((None,) + TAGS),
    labels_st,
    st.sets(st.sampled_from(CONDITIONS)),
    labels_st,
)
def test_joint_counts_match_event_queries(log, model, tag, alpha, body, beta):
    _assert_joint_counts_match_event_queries(log, model, tag, alpha, body, beta)


def test_joint_counts_match_event_queries_over_256_shapes():
    from test_columns import _records

    log = PredictionLog(_records(300, 200, seed=7))
    assert len(log.shapes) > 256  # the row codes are an array, not bytes
    for model, tag, (alpha, beta), body in [
        ("m", None, ("a", "b"), {"c1"}), ("n", "d1", ("b", "c"), {"c2", "c3"}),
        ("pé", "default", ("d", "a"), {"c1", "c2", "c3", "c4"}), ("m", "d2", ("c", "c"), set()),
        ("x", None, ("a", "b"), {"c1"}), ("n", "d9", ("a", "e"), {"c9"}),
    ]:
        _assert_joint_counts_match_event_queries(log, model, tag, alpha, body, beta)


def test_index_built_once_per_log(monkeypatch, log_a):
    import errata.logs

    builds = []

    class CountingIndex(errata.logs.LogIndex):
        __slots__ = ()

        def __init__(self, records):
            builds.append(len(records))
            super().__init__(records)

    monkeypatch.setattr(errata.logs, "LogIndex", CountingIndex)
    metric_bundle(log_a, "m", "a", BODY_C1)
    invariance_profile(log_a, "m", "a", BODY_C1)
    learn_detection(log_a, "m", "a", ["c1"])
    exhaustive_oracle(log_a, "m", "a", ["c1"])
    learn_correction(log_a, "m", "b", [("c1", "a")])
    check_precision_change(log_a, "m", "a", BODY_C1)
    assert builds == [5]


def test_log_equality_ignores_index(log_a):
    twin = PredictionLog(log_a.records)
    index = log_a.index
    assert twin == log_a and hash(twin) == hash(log_a)
    assert "index" not in vars(twin)
    assert log_a.index is index
