import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import labels_st, logs_st, make_log, rec
from errata import (
    ApplicationTrace,
    ConditionBody,
    CorrectionRule,
    DetectionRule,
    InputError,
    LogMismatchError,
    PredictionLog,
    PredictionRecord,
    RecordTrace,
    RuleSet,
    TheoremVerdict,
    UnknownConditionError,
    apply_rules,
    check_precision_change,
    dumps_rules,
    evaluate_delta,
    loads_rules,
)
from event_oracle import trace_entries
from record_log import two_stage as _two_stage

RULE_A_C1 = DetectionRule("m", "a", ConditionBody.of("c1"))


def delta_for(rows, model_id, label):
    for row in rows:
        if row.model_id == model_id and row.label == label:
            return row
    raise KeyError((model_id, label))


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def test_detection_erases_on_condition():
    # A hierarchy-style condition: the make-level label co-predicted with an
    # inconsistent country label triggers erasure, then relabeling.
    log = make_log(
        rec("w", predicted={"toyota", "us"}, ground_truth={"dodge", "us"}, conditions={"cond_us"}, model="car"),
    )
    rules = RuleSet(
        detections=(DetectionRule("car", "toyota", ConditionBody.of("cond_us")),),
        corrections=(CorrectionRule("car", "dodge", frozenset({("cond_us", "toyota")})),),
    )
    detected, trace = apply_rules(log, RuleSet(detections=rules.detections))
    assert detected.records[0].predicted == {"us"}
    assert trace_entries(trace)[0].erased == (("toyota", 0),)
    corrected, trace2 = apply_rules(log, rules)
    assert corrected.records[0].predicted == {"us", "dodge"}
    assert trace_entries(trace2)[0].erased == (("toyota", 0),)
    assert trace_entries(trace2)[0].added == (("dodge", 0),)


def test_detection_on_log_a(log_a):
    after, trace = apply_rules(log_a, RuleSet(detections=(RULE_A_C1,)))
    erased = {e.sample_id for e in trace_entries(trace) if e.erased}
    assert erased == {"r2", "r3"}
    rows = evaluate_delta(log_a, after)
    row = delta_for(rows, "m", "a")
    assert row.precision_after.value == Fraction(1)
    assert (row.precision_after.numerator, row.precision_after.denominator) == (1, 1)
    assert row.recall_after.value == Fraction(1, 3)
    # Input log unchanged.
    assert log_a.records[1].predicted == {"a"}


def test_vacuous_detection_rule_changes_nothing(log_a):
    rule = DetectionRule("m", "a", ConditionBody.of("c1", "c_missing"))
    with pytest.raises(UnknownConditionError, match="c_missing"):
        apply_rules(log_a, RuleSet(detections=(rule,)))


def test_condition_never_true_yields_identity():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c2"}),
        rec("s2", predicted={"b"}, ground_truth={"b"}, conditions={"c1"}),
    )
    # c1 exists in the universe but never co-occurs with an "a" prediction.
    after, trace = apply_rules(log, RuleSet(detections=(RULE_A_C1,)))
    assert after == log
    assert all(not e.erased for e in trace_entries(trace))


def test_detection_multiple_rules_disjunctive():
    log = make_log(rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c2"}))
    rules = RuleSet(
        detections=(
            DetectionRule("m", "a", ConditionBody.of("c1")),
            DetectionRule("m", "a", ConditionBody.of("c2")),
        )
    )
    # c1 unknown to this log: rejected. Keep both conditions known instead.
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c2"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
    )
    after, trace = apply_rules(log, rules)
    assert all("a" not in r.predicted for r in after)
    assert trace_entries(trace)[0].erased == (("a", 1),)
    assert trace_entries(trace)[1].erased == (("a", 0),)


# ---------------------------------------------------------------------------
# Correction
# ---------------------------------------------------------------------------

def _correction_fixture():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"a"}, conditions={"c2"}),
        rec("s3", predicted={"b"}, ground_truth={"b"}, conditions={"c1"}),
    )
    detection = DetectionRule("m", "a", ConditionBody.of("c1"))
    return log, detection


def test_correction_requires_erasure():
    log, detection = _correction_fixture()
    correction = CorrectionRule("m", "b", frozenset({("c1", "b")}))
    rules = RuleSet(detections=(detection,), corrections=(correction,))
    corrected, trace = apply_rules(log, rules)
    # s3 fires the pair (c1 holds, b predicted) but had no erasure: untouched.
    assert corrected.records[2] == log.records[2]
    assert not trace_entries(trace)[2].added


def test_correction_no_matching_pair_unchanged():
    log, detection = _correction_fixture()
    correction = CorrectionRule("m", "x", frozenset({("c2", "b")}))
    rules = RuleSet(detections=(detection,), corrections=(correction,))
    corrected, trace = apply_rules(log, rules)
    # s1 lost "a" but no pair fires for it (c2 absent).
    assert corrected.records[0].predicted == frozenset()
    assert not trace_entries(trace)[0].added


def test_correction_conflict_applies_none():
    log, detection = _correction_fixture()
    rules = RuleSet(
        detections=(detection,),
        corrections=(
            CorrectionRule("m", "x", frozenset({("c1", "a")})),
            CorrectionRule("m", "y", frozenset({("c1", "a")})),
        ),
    )
    corrected, trace = apply_rules(log, rules)
    assert corrected.records[0].predicted == frozenset()
    assert trace_entries(trace)[0].conflict == {"x", "y"}
    assert not trace_entries(trace)[0].added


def test_correction_trigger_uses_original_predictions():
    log, detection = _correction_fixture()
    # Trigger class "a" was erased on s1; the pair must still fire.
    correction = CorrectionRule("m", "b", frozenset({("c1", "a")}))
    rules = RuleSet(detections=(detection,), corrections=(correction,))
    corrected, trace = apply_rules(log, rules)
    assert corrected.records[0].predicted == {"b"}
    assert trace_entries(trace)[0].added == (("b", 0),)


def test_correction_may_reinstate_erased_label():
    log, detection = _correction_fixture()
    correction = CorrectionRule("m", "a", frozenset({("c1", "a")}))
    rules = RuleSet(detections=(detection,), corrections=(correction,))
    corrected, trace = apply_rules(log, rules)
    entry = trace_entries(trace)[0]
    assert corrected.records[0].predicted == {"a"}
    assert entry.erased_labels == {"a"} and entry.added_labels == {"a"}
    assert entry.reinstated == {"a"}


def test_correction_noop_when_label_already_present():
    log = make_log(
        rec("s1", predicted={"a", "b"}, ground_truth={"b"}, conditions={"c1"}),
    )
    detection = DetectionRule("m", "a", ConditionBody.of("c1"))
    correction = CorrectionRule("m", "b", frozenset({("c1", "a")}))
    corrected, trace = apply_rules(log, RuleSet((detection,), (correction,)))
    assert corrected.records[0].predicted == {"b"}
    assert not trace_entries(trace)[0].added


def test_correction_unknown_condition_rejected():
    log, detection = _correction_fixture()
    correction = CorrectionRule("m", "b", frozenset({("c9", "a")}))
    rules = RuleSet(detections=(detection,), corrections=(correction,))
    with pytest.raises(UnknownConditionError, match="c9"):
        apply_rules(log, rules)


# ---------------------------------------------------------------------------
# evaluate_delta
# ---------------------------------------------------------------------------

def test_delta_log_a(log_a):
    after, _ = apply_rules(log_a, RuleSet(detections=(RULE_A_C1,)))
    row = delta_for(evaluate_delta(log_a, after), "m", "a")
    assert row.precision_delta == Fraction(1, 3)
    assert row.recall_delta == Fraction(-1, 3)
    assert not row.skipped


def test_delta_identity(log_a):
    for row in evaluate_delta(log_a, log_a):
        assert row.precision_delta in (0, None)
        assert row.recall_delta in (0, None)
        assert row.f1_delta in (0, None)


def test_delta_never_predicted_rows_skipped():
    before = make_log(rec("s1", predicted={"b"}, ground_truth={"a"}))
    after = make_log(rec("s1", predicted={"b"}, ground_truth={"a"}))
    row = delta_for(evaluate_delta(before, after), "m", "a")
    assert row.precision_delta is None
    assert row.skipped


def test_delta_key_mismatch_rejected(log_a):
    other = make_log(rec("zz", predicted={"a"}, ground_truth={"a"}))
    with pytest.raises(LogMismatchError):
        evaluate_delta(log_a, other)


def test_delta_ground_truth_mismatch_rejected():
    before = make_log(rec("s1", predicted={"a"}, ground_truth={"a"}))
    after = make_log(rec("s1", predicted={"a"}, ground_truth={"b"}))
    with pytest.raises(LogMismatchError, match="ground truth"):
        evaluate_delta(before, after)


# ---------------------------------------------------------------------------
# Rule file round trip
# ---------------------------------------------------------------------------

def test_rule_file_roundtrip():
    rules = RuleSet(
        detections=(
            DetectionRule("m", "a", ConditionBody.of("c2", "c1")),
            DetectionRule("m2", "b", ConditionBody.of("c3")),
        ),
        corrections=(CorrectionRule("m", "b", frozenset({("c1", "a"), ("c2", "b")})),),
    )
    text = dumps_rules(rules)
    again = loads_rules(text)
    assert again == rules
    assert dumps_rules(again) == text


def test_rule_file_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        loads_rules('{"detections": [], "extra": []}')


def test_rule_file_repeated_keys_rejected():
    # The last value used to win: the body became {c2}, or a later empty
    # list silently dropped the rule before it.
    entry = '{"model_id": "m", "target_class": "a", "conditions": ["c1"]'
    with pytest.raises(ValueError, match="^rule file: duplicate key 'conditions'$"):
        loads_rules('{"detections": [' + entry + ', "conditions": ["c2"]}]}')
    with pytest.raises(ValueError, match="^rule file: duplicate key 'detections'$"):
        loads_rules('{"detections": [' + entry + '}], "detections": []}')


def test_rule_file_malformed_rejected():
    with pytest.raises(ValueError):
        loads_rules("{nope")


def _detection_entry(**changes):
    entry = {"model_id": "m", "target_class": "a", "conditions": ["c1"]}
    entry.update(changes)
    return json.dumps({"detections": [entry]})


def _correction_entry(**changes):
    entry = {"model_id": "m", "target_class": "b",
             "pairs": [{"condition": "c1", "trigger_class": "a"}]}
    entry.update(changes)
    return json.dumps({"corrections": [entry]})


def test_rule_file_string_conditions_rejected():
    # A bare string used to be split into characters: the body {"c", "1"}.
    with pytest.raises(ValueError, match=r"detections\[0\]\.conditions"):
        loads_rules(_detection_entry(conditions="c1"))


def test_rule_file_non_list_pairs_rejected():
    with pytest.raises(ValueError, match=r"corrections\[0\]\.pairs"):
        loads_rules(_correction_entry(pairs={"condition": "c1", "trigger_class": "a"}))


def test_rule_file_non_string_ids_rejected():
    with pytest.raises(ValueError, match=r"detections\[0\]\.model_id"):
        loads_rules(_detection_entry(model_id=7))
    with pytest.raises(ValueError, match=r"detections\[0\]\.conditions\[1\]"):
        loads_rules(_detection_entry(conditions=["c1", 2]))
    with pytest.raises(ValueError, match=r"corrections\[0\]\.pairs\[0\]\.trigger_class"):
        loads_rules(_correction_entry(pairs=[{"condition": "c1", "trigger_class": None}]))


def test_rule_file_unknown_entry_key_rejected():
    with pytest.raises(ValueError, match=r"detections\[0\]: unknown key 'note'"):
        loads_rules(_detection_entry(note="x"))
    with pytest.raises(ValueError, match=r"corrections\[0\]\.pairs\[0\]: unknown key"):
        loads_rules(_correction_entry(pairs=[{"condition": "c1", "trigger_class": "a", "w": 1}]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "rule file: expected an object, got []"),
        ('{"detections": [], "zeta": 1, "extra": 2}', "rule file: unknown key 'extra'"),
        ('{"corrections": {}}', "corrections: expected an array, got {}"),
        ('{"detections": [{"model_id": "m"}]}', "detections[0]: missing key 'conditions'"),
        (_detection_entry(model_id=7), "detections[0].model_id: expected a nonempty string, got 7"),
        (_detection_entry(conditions=[]), "detections[0].conditions: expected a nonempty array, got []"),
        (_correction_entry(pairs=["c1"]), "corrections[0].pairs[0]: expected an object, got 'c1'"),
    ],
)
def test_rule_file_errors_use_the_synth_wording(text, message):
    with pytest.raises(InputError) as err:
        loads_rules(text)
    assert str(err.value) == message


def test_rule_file_duplicate_condition_ids_rejected():
    # ["c1", "c1"] used to collapse to the body {c1}, so dumps_rules no
    # longer returned the input text.
    with pytest.raises(ValueError, match=r"detections\[0\]\.conditions\[1\]: duplicate id 'c1'"):
        loads_rules(_detection_entry(conditions=["c1", "c1"]))


def test_rule_file_duplicate_pairs_rejected():
    pair = {"condition": "c1", "trigger_class": "a"}
    with pytest.raises(
        ValueError, match=r"corrections\[0\]\.pairs\[2\]: duplicate pair \('c1', 'a'\)"
    ):
        loads_rules(_correction_entry(pairs=[pair, {"condition": "c2", "trigger_class": "a"}, pair]))


rule_ids_st = st.text(min_size=1, max_size=4)
rule_sets_st = st.builds(
    RuleSet,
    st.lists(
        st.builds(
            DetectionRule,
            rule_ids_st,
            rule_ids_st,
            st.builds(ConditionBody, st.frozensets(rule_ids_st, min_size=1, max_size=3)),
        ),
        max_size=3,
    ).map(tuple),
    st.lists(
        st.builds(
            CorrectionRule,
            rule_ids_st,
            rule_ids_st,
            st.frozensets(st.tuples(rule_ids_st, rule_ids_st), min_size=1, max_size=3),
        ),
        max_size=3,
    ).map(tuple),
)


@given(rule_sets_st)
def test_rule_file_roundtrip_property(rules):
    text = dumps_rules(rules)
    assert loads_rules(text) == rules
    assert dumps_rules(loads_rules(text)) == text


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

detection_rules_st = st.builds(
    DetectionRule,
    st.just("m"),
    labels_st,
    st.builds(lambda ids: ConditionBody(frozenset(ids)), st.sets(st.sampled_from(("c1", "c2", "c3")), min_size=1, max_size=2)),
)


def _known(log, rule):
    return rule.body.condition_ids <= log.condition_universe


def _recall(log, label):
    gt = sum(1 for r in log if label in r.ground_truth)
    hit = sum(1 for r in log if label in r.ground_truth and label in r.predicted)
    return None if gt == 0 else Fraction(hit, gt)


@given(logs_st(max_records=10), detection_rules_st)
@settings(max_examples=80)
def test_detection_monotonicity(log, rule):
    if not _known(log, rule):
        return
    after, _ = apply_rules(log, RuleSet(detections=(rule,)))
    for label in sorted(log.label_universe):
        before_r = _recall(log, label)
        after_r = _recall(after, label)
        if before_r is not None:
            assert after_r <= before_r


@given(logs_st(max_records=10), detection_rules_st)
@settings(max_examples=80)
def test_detection_idempotent(log, rule):
    if not _known(log, rule):
        return
    rules = RuleSet(detections=(rule,))
    once, _ = apply_rules(log, rules)
    twice, trace = apply_rules(once, rules)
    assert twice == once
    assert all(not e.erased for e in trace_entries(trace))


@given(logs_st(max_records=10), detection_rules_st)
@settings(max_examples=80)
def test_exchange_identity_with_precision_change(log, rule):
    """Measured precision delta equals the identity's right-hand side."""
    if not _known(log, rule):
        return
    after, _ = apply_rules(log, RuleSet(detections=(rule,)))
    report = check_precision_change(log, rule.model_id, rule.target_class, rule.body)
    if report.verdict is not TheoremVerdict.HOLDS:
        return
    row = delta_for(evaluate_delta(log, after), rule.model_id, rule.target_class)
    if row.precision_delta is None:
        return
    assert row.precision_delta == report.intermediates["rhs"]


corrections_st = st.lists(
    st.builds(
        CorrectionRule,
        st.just("m"),
        labels_st,
        st.sets(
            st.tuples(st.sampled_from(("c1", "c2", "c3")), labels_st), min_size=1, max_size=2
        ).map(frozenset),
    ),
    max_size=2,
)


@given(logs_st(max_records=10), detection_rules_st, corrections_st)
@settings(max_examples=80)
def test_trace_completeness(log, detection, corrections):
    rules = RuleSet(detections=(detection,), corrections=tuple(corrections))
    needed = set(detection.body.condition_ids) | {
        c for r in corrections for c, _ in r.pairs
    }
    if not needed <= log.condition_universe:
        return
    corrected, trace = apply_rules(log, rules)
    for before, after, entry in zip(log, corrected, trace_entries(trace)):
        if entry.conflict:
            assert len(after.predicted) == len(before.predicted) - len(entry.erased_labels)
        else:
            assert (
                len(before.predicted) - len(after.predicted) + len(entry.added_labels)
                == len(entry.erased_labels)
            )


# ---------------------------------------------------------------------------
# One-pass application vs a two-stage reference
# ---------------------------------------------------------------------------

def _fixture_log(*predicted_and_conditions):
    return make_log(*(
        rec(f"s{i}", predicted=p, ground_truth={"b"}, conditions=c)
        for i, (p, c) in enumerate(predicted_and_conditions)
    ))


models_st = st.sampled_from(("m", "n"))
pair_sets_st = st.sets(
    st.tuples(st.sampled_from(("c1", "c2", "c3")), labels_st), min_size=1, max_size=2
).map(frozenset)
detection_lists_st = st.lists(
    st.builds(
        DetectionRule,
        models_st,
        labels_st,
        st.sets(st.sampled_from(("c1", "c2", "c3")), min_size=1, max_size=2).map(ConditionBody),
    ),
    max_size=3,
)
correction_lists_st = st.lists(
    st.builds(CorrectionRule, models_st, labels_st, pair_sets_st), max_size=3
)


@given(logs_st(models=("m", "n")), detection_lists_st, correction_lists_st)
@example(  # conflict: two rules propose b and c for s0
    _fixture_log(({"a"}, {"c1"}), ({"b"}, {"c2"}), ({"c"}, {"c3"})),
    [DetectionRule("m", "a", ConditionBody.of("c1"))],
    [CorrectionRule("m", "b", {("c1", "a")}), CorrectionRule("m", "c", {("c1", "a")})],
)
@example(  # reinstatement: the correction re-adds the erased label
    _fixture_log(({"a"}, {"c1"}), ({"b"}, {"c2"}), ({"c"}, {"c3"})),
    [DetectionRule("m", "a", ConditionBody.of("c1"))],
    [CorrectionRule("m", "a", {("c1", "a")})],
)
@settings(max_examples=200)
def test_apply_rules_matches_two_stage_reference(log, detections, corrections):
    rules = RuleSet(tuple(detections), tuple(corrections))
    needed = {c for d in detections for c in d.body.condition_ids}
    needed |= {c for r in corrections for c, _ in r.pairs}
    if not needed <= log.condition_universe:
        with pytest.raises(UnknownConditionError):
            apply_rules(log, rules)
        return
    after, trace = apply_rules(log, rules)
    expected = _two_stage(log, rules)
    assert len(after) == len(trace_entries(trace)) == len(expected)
    for before, got, entry, (predicted, erased, added, conflict) in zip(
        log, after, trace_entries(trace), expected
    ):
        assert got == _with_predicted(before, predicted)
        assert (entry.sample_id, entry.model_id) == before.key
        assert (entry.erased, entry.added, entry.conflict) == (erased, added, conflict)


def _with_predicted(r: PredictionRecord, predicted) -> PredictionRecord:
    return PredictionRecord(r.sample_id, r.model_id, predicted, r.ground_truth, r.conditions, r.distribution)


def _assert_matches_reference(log, rules, after, trace):
    expected = _two_stage(log, rules)
    assert trace.entries == trace_entries(trace)
    for before, got, entry, (predicted, erased, added, conflict) in zip(
        log, after, trace_entries(trace), expected
    ):
        assert got == _with_predicted(before, predicted)
        assert (entry.sample_id, entry.model_id) == before.key
        assert (entry.erased, entry.added, entry.conflict) == (erased, added, conflict)


def test_apply_rules_touching_no_record():
    log = _fixture_log(({"a"}, {"c1"}), ({"b"}, {"c2"}), ({"c"}, {"c3"}))
    rules = RuleSet(
        (DetectionRule("m", "a", ConditionBody.of("c2")), DetectionRule("n", "b", ConditionBody.of("c2"))),
        (CorrectionRule("m", "b", {("c1", "a")}),),
    )
    after, trace = apply_rules(log, rules)
    assert all(got is before for got, before in zip(after, log))
    assert trace.touched == () and trace.nonempty() == ()
    assert trace.to_dict() == {"entries": []}
    assert trace_entries(trace) == tuple(RecordTrace(*r.key) for r in log)
    _assert_matches_reference(log, rules, after, trace)


def test_apply_rules_touching_every_record():
    log = _fixture_log(({"a"}, {"c1"}), ({"a", "b"}, {"c1", "c2"}), ({"a", "c"}, {"c1", "c3"}))
    rules = RuleSet(
        (DetectionRule("m", "a", ConditionBody.of("c1")),),
        (CorrectionRule("m", "b", {("c2", "a")}), CorrectionRule("m", "d", {("c3", "c")})),
    )
    after, trace = apply_rules(log, rules)
    assert trace.touched == trace.nonempty() == trace_entries(trace)
    assert [e.sample_id for e in trace.touched] == [r.sample_id for r in log]
    assert [r.predicted for r in after] == [frozenset(), {"b"}, {"c", "d"}]
    _assert_matches_reference(log, rules, after, trace)


# Ids with a quote, a backslash, control and non-ASCII characters; labels
# from a two-letter alphabet, so that an added label often equals an erased
# one (mutually canceling).
id_st = st.text(st.sampled_from('a"\\\x00\x1f\né \U0001f600') | st.characters(), max_size=6)
events_st = st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 2)), max_size=2).map(tuple)
record_trace_st = st.builds(
    RecordTrace,
    sample_id=id_st,
    model_id=st.sampled_from(("m", 'n"é')),
    erased=events_st,
    added=events_st,
    conflict=st.frozensets(st.sampled_from("abc"), max_size=2),
)


@given(st.lists(record_trace_st, max_size=8))
@example([RecordTrace('q"\\\x01é', "m", (("a", 0),), (("a", 1),), frozenset({"b", "c"}))])
@example([])
def test_trace_json_is_the_indented_dump(entries):
    trace = ApplicationTrace(PredictionLog(), tuple(entries))
    assert trace.to_json() == json.dumps(trace.to_dict(), indent=2)
