"""The contract of the package's value types: immutable, slotted, equal
and hashed by their fields, with a fixed repr, and rebuilt by copy and
pickle. ``MetricBundle`` is the one dataclass, and ``dataclasses.replace``
works on it."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from errata import (
    ApplicationTrace,
    ConditionBody,
    CorrectionRule,
    DeltaRow,
    DetectionRule,
    DistributionSpec,
    GuardCheck,
    InvarianceProfile,
    InvarianceRow,
    LearnConfig,
    LearnReport,
    LearnStep,
    MetricBundle,
    Objective,
    PairGuard,
    PlantedCondition,
    PredictionLog,
    PredictionRecord,
    Probability,
    RecordTrace,
    RuleSet,
    SweepResult,
    SynthBookkeeping,
    SynthConfig,
    TheoremId,
    TheoremReport,
    TheoremVerdict,
    Verdict,
)
from errata.synth import BookkeepingRow
from errata.theorems import SweepViolation

F = Fraction
P = Probability(1, 2)
RECORD = PredictionRecord("s1", "m", frozenset({"a"}), frozenset({"b"}), frozenset(), "d1")
ROW = InvarianceRow("d1", Verdict.YES, P, F(1, 4))
DETECTION = DetectionRule("m", "a", ConditionBody.of("c1"))
CORRECTION = CorrectionRule("m", "b", frozenset({("c1", "a")}))
TRACE = RecordTrace("s1", "m", (("a", 0),), (("b", 0),))
STEP = LearnStep("c1", F(1, 2), F(2, 3), F(1, 20))
GUARD = GuardCheck("c1", P, F(1, 2), True)
REPORT = TheoremReport(TheoremId.T1_PRECISION_CHANGE, TheoremVerdict.HOLDS, "m", "a", ("c1",), {"lhs": F(0)})
BOOK_ROW = BookkeepingRow("c1", "a", None, P, P)
CONFUSION = {"a": ((frozenset({"a"}), F(1)),)}

# name → (a value, an unequal value of the same type, the value's repr)
CASES = {
    "PredictionRecord": (
        lambda: PredictionRecord("s1", "m", frozenset({"a"}), frozenset({"b"}), frozenset(), "d1"),
        lambda: PredictionRecord("s2", "m", frozenset({"a"}), frozenset({"b"}), frozenset(), "d1"),
        "PredictionRecord(sample_id='s1', model_id='m', predicted=frozenset({'a'}), "
        "ground_truth=frozenset({'b'}), conditions=frozenset(), distribution='d1')",
    ),
    "Probability": (
        lambda: Probability(1, 2), lambda: Probability(1, 3),
        "Probability(numerator=1, denominator=2)",
    ),
    "ConditionBody": (
        lambda: ConditionBody(frozenset({"c1"})), lambda: ConditionBody.of("c2"),
        "ConditionBody(condition_ids=frozenset({'c1'}))",
    ),
    "InvarianceRow": (
        lambda: InvarianceRow("d1", Verdict.YES, P, F(1, 4)),
        lambda: InvarianceRow("d1", Verdict.YES, P, None),
        "InvarianceRow(distribution='d1', verdict=<Verdict.YES: 'YES'>, "
        "confidence=Probability(numerator=1, denominator=2), confidence_gap=Fraction(1, 4))",
    ),
    "InvarianceProfile": (
        lambda: InvarianceProfile((ROW,), P, True), lambda: InvarianceProfile((ROW,), P, False),
        "InvarianceProfile(rows=(InvarianceRow(distribution='d1', verdict=<Verdict.YES: 'YES'>, "
        "confidence=Probability(numerator=1, denominator=2), confidence_gap=Fraction(1, 4)),), "
        "pooled_confidence=Probability(numerator=1, denominator=2), invariant=True)",
    ),
    "MetricBundle": (
        lambda: MetricBundle(P, P, P, P, P, P, F(1, 3), None),
        lambda: MetricBundle(P, P, P, P, P, P, None, None),
        "MetricBundle(precision=Probability(numerator=1, denominator=2), "
        "recall=Probability(numerator=1, denominator=2), "
        "rule_precision=Probability(numerator=1, denominator=2), "
        "rule_recall=Probability(numerator=1, denominator=2), "
        "support=Probability(numerator=1, denominator=2), "
        "confidence=Probability(numerator=1, denominator=2), k_factor=Fraction(1, 3), residual=None)",
    ),
    "DetectionRule": (
        lambda: DetectionRule("m", "a", ConditionBody.of("c1")),
        lambda: DetectionRule("m", "b", ConditionBody.of("c1")),
        "DetectionRule(model_id='m', target_class='a', "
        "body=ConditionBody(condition_ids=frozenset({'c1'})))",
    ),
    "CorrectionRule": (
        lambda: CorrectionRule("m", "b", [("c1", "a")]),
        lambda: CorrectionRule("m", "b", [("c2", "a")]),
        "CorrectionRule(model_id='m', target_class='b', pairs=frozenset({('c1', 'a')}))",
    ),
    "RuleSet": (
        lambda: RuleSet([DETECTION], [CORRECTION]), lambda: RuleSet([DETECTION]),
        "RuleSet(detections=(DetectionRule(model_id='m', target_class='a', "
        "body=ConditionBody(condition_ids=frozenset({'c1'}))),), "
        "corrections=(CorrectionRule(model_id='m', target_class='b', pairs=frozenset({('c1', 'a')})),))",
    ),
    "RecordTrace": (
        lambda: RecordTrace("s1", "m", (("a", 0),), (("b", 0),)),
        lambda: RecordTrace("s1", "m", (("a", 0),), (), frozenset({"b"})),
        "RecordTrace(sample_id='s1', model_id='m', erased=(('a', 0),), added=(('b', 0),), "
        "conflict=frozenset())",
    ),
    "ApplicationTrace": (
        lambda: ApplicationTrace(PredictionLog([RECORD]), (TRACE,)),
        lambda: ApplicationTrace(PredictionLog([RECORD]), ()),
        "ApplicationTrace(touched=(RecordTrace(sample_id='s1', model_id='m', erased=(('a', 0),), "
        "added=(('b', 0),), conflict=frozenset()),))",
    ),
    "DeltaRow": (
        lambda: DeltaRow("m", "a", P, P, P, P, F(1, 2), F(1, 2), F(0), F(0), F(0)),
        lambda: DeltaRow("m", "b", P, P, P, P, F(1, 2), F(1, 2), F(0), F(0), F(0)),
        "DeltaRow(model_id='m', label='a', precision_before=Probability(numerator=1, denominator=2), "
        "precision_after=Probability(numerator=1, denominator=2), "
        "recall_before=Probability(numerator=1, denominator=2), "
        "recall_after=Probability(numerator=1, denominator=2), f1_before=Fraction(1, 2), "
        "f1_after=Fraction(1, 2), precision_delta=Fraction(0, 1), recall_delta=Fraction(0, 1), "
        "f1_delta=Fraction(0, 1))",
    ),
    "LearnConfig": (
        lambda: LearnConfig(Objective.F1, F(1, 10), 2), lambda: LearnConfig("F1", 0.1),
        "LearnConfig(objective=<Objective.F1: 'F1'>, epsilon=Fraction(1, 10), max_body_size=2)",
    ),
    "LearnStep": (
        lambda: LearnStep("c1", F(1, 2), F(2, 3), F(1, 20)),
        lambda: LearnStep(("c1", "a"), F(1, 2), F(2, 3), None),
        "LearnStep(added='c1', objective_before=Fraction(1, 2), objective_after=Fraction(2, 3), "
        "recall_reduction=Fraction(1, 20))",
    ),
    "GuardCheck": (
        lambda: GuardCheck("c1", P, F(1, 2), True), lambda: GuardCheck("c1", P, F(1, 2), None),
        "GuardCheck(condition_id='c1', confidence=Probability(numerator=1, denominator=2), "
        "residual=Fraction(1, 2), improves_precision=True)",
    ),
    "PairGuard": (
        lambda: PairGuard("c1", "a", P, P, True), lambda: PairGuard("c1", "a", P, P, False),
        "PairGuard(condition_id='c1', trigger_class='a', "
        "pair_precision=Probability(numerator=1, denominator=2), "
        "base_precision=Probability(numerator=1, denominator=2), admissible=True)",
    ),
    "LearnReport": (
        lambda: LearnReport("RULE", None, F(1, 2), Objective.PRECISION_GAIN, F(1, 20), (STEP,), (GUARD,)),
        lambda: LearnReport("NONE", "INFEASIBLE", F(1, 2), Objective.PRECISION_GAIN, F(1, 20)),
        "LearnReport(outcome='RULE', reason=None, baseline_objective=Fraction(1, 2), "
        "objective=<Objective.PRECISION_GAIN: 'PRECISION_GAIN'>, epsilon=Fraction(1, 20), "
        "steps=(LearnStep(added='c1', objective_before=Fraction(1, 2), "
        "objective_after=Fraction(2, 3), recall_reduction=Fraction(1, 20)),), "
        "guards=(GuardCheck(condition_id='c1', confidence=Probability(numerator=1, denominator=2), "
        "residual=Fraction(1, 2), improves_precision=True),), pair_guards=(), final_metrics=None, "
        "base_precision=None, final_precision=None)",
    ),
    "PlantedCondition": (
        lambda: PlantedCondition("c1", "a", F(1, 2), F(9, 10)),
        lambda: PlantedCondition("c2", "a", F(1, 2), F(9, 10)),
        "PlantedCondition(condition_id='c1', target_class='a', target_support=Fraction(1, 2), "
        "target_confidence=Fraction(9, 10))",
    ),
    "DistributionSpec": (
        lambda: DistributionSpec("d1", F(1, 2), {"c1": F(0)}), lambda: DistributionSpec("d2", F(1, 2)),
        "DistributionSpec(tag='d1', record_fraction=Fraction(1, 2), "
        "confidence_override={'c1': Fraction(0, 1)})",
    ),
    "SynthConfig": (
        lambda: SynthConfig(1, 10, "m", ("a",), {"a": F(1)}, CONFUSION),
        lambda: SynthConfig(2, 10, "m", ("a",), {"a": F(1)}, CONFUSION),
        "SynthConfig(seed=1, n_records=10, model_id='m', labels=('a',), "
        "class_priors={'a': Fraction(1, 1)}, confusion={'a': ((frozenset({'a'}), Fraction(1, 1)),)}, "
        "planted_conditions=(), distributions=())",
    ),
    "BookkeepingRow": (
        lambda: BookkeepingRow("c1", "a", None, P, P), lambda: BookkeepingRow("c1", "a", "d1", P, P),
        "BookkeepingRow(condition_id='c1', target_class='a', distribution=None, "
        "support=Probability(numerator=1, denominator=2), "
        "confidence=Probability(numerator=1, denominator=2))",
    ),
    "SynthBookkeeping": (
        lambda: SynthBookkeeping((BOOK_ROW,)), lambda: SynthBookkeeping(()),
        "SynthBookkeeping(rows=(BookkeepingRow(condition_id='c1', target_class='a', "
        "distribution=None, support=Probability(numerator=1, denominator=2), "
        "confidence=Probability(numerator=1, denominator=2)),))",
    ),
    "TheoremReport": (
        lambda: TheoremReport(TheoremId.T1_PRECISION_CHANGE, TheoremVerdict.HOLDS, "m", "a", ("c1",),
                              {"lhs": F(0)}),
        lambda: TheoremReport(TheoremId.T1_PRECISION_CHANGE, TheoremVerdict.SKIPPED, "m", "a", ("c1",)),
        "TheoremReport(theorem_id=<TheoremId.T1_PRECISION_CHANGE: 'T1_PRECISION_CHANGE'>, "
        "verdict=<TheoremVerdict.HOLDS: 'HOLDS'>, model_id='m', target_class='a', "
        "condition_ids=('c1',), intermediates={'lhs': Fraction(0, 1)}, correction_class=None, "
        "skip_reason=None, note=None)",
    ),
    "SweepViolation": (
        lambda: SweepViolation(0, 7, TheoremId.T1_PRECISION_CHANGE, "a", "c1", None, REPORT, "{}\n"),
        lambda: SweepViolation(1, 7, TheoremId.T1_PRECISION_CHANGE, "a", "c1", None, REPORT, "{}\n"),
        "SweepViolation(trial=0, trial_seed=7, "
        "theorem_id=<TheoremId.T1_PRECISION_CHANGE: 'T1_PRECISION_CHANGE'>, alpha='a', "
        "condition_id='c1', correction_class=None, "
        "report=TheoremReport(theorem_id=<TheoremId.T1_PRECISION_CHANGE: 'T1_PRECISION_CHANGE'>, "
        "verdict=<TheoremVerdict.HOLDS: 'HOLDS'>, model_id='m', target_class='a', "
        "condition_ids=('c1',), intermediates={'lhs': Fraction(0, 1)}, correction_class=None, "
        "skip_reason=None, note=None), log_text='{}\\n')",
    ),
    "SweepResult": (
        lambda: SweepResult(1, 2, 30, 4, 3, {TheoremId.EQ7_RESIDUAL: {TheoremVerdict.HOLDS: 2}}, ()),
        lambda: SweepResult(2, 2, 30, 4, 3, {TheoremId.EQ7_RESIDUAL: {TheoremVerdict.HOLDS: 2}}, ()),
        "SweepResult(seed=1, trials=2, max_records=30, max_labels=4, max_conditions=3, "
        "verdict_counts={<TheoremId.EQ7_RESIDUAL: 'EQ7_RESIDUAL'>: "
        "{<TheoremVerdict.HOLDS: 'HOLDS'>: 2}}, violations=())",
    ),
}
# Types with a dict field are unhashable, as a frozen dataclass with one is.
UNHASHABLE = {"DistributionSpec", "SynthConfig", "TheoremReport", "SweepViolation", "SweepResult"}


def test_every_public_value_type_is_covered():
    import errata

    classes = {name for name in errata.__all__ if isinstance(getattr(errata, name), type)}
    not_values = {"PredictionLog", "Objective", "Verdict", "TheoremId", "TheoremVerdict"}
    errors = {name for name in classes if issubclass(getattr(errata, name), Exception)}
    assert classes - not_values - errors <= CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash(name):
    make, other, _ = CASES[name]
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert a != c and type(c) is type(a)
    assert a != object() and a != tuple(getattr(a, field) for field in type(a).__slots__)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", CASES)
def test_repr_text(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field in (*type(value).__slots__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert not hasattr(value, "__dict__")
    assert value == CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trips(name):
    value = CASES[name][0]()
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value
        assert repr(again) == repr(value)


def test_metric_bundle_is_a_dataclass_for_replace():
    # A benchmark self-test tampers with a bundle through dataclasses.replace.
    bundle = CASES["MetricBundle"][0]()
    tampered = dataclasses.replace(bundle, residual=F(-1))
    assert tampered.residual == F(-1)
    assert tampered.precision is bundle.precision and tampered.k_factor == bundle.k_factor
    assert bundle.residual is None


def test_constructors_still_check_and_coerce():
    with pytest.raises(ValueError):
        Probability(3, 2)
    with pytest.raises(ValueError):
        ConditionBody(())
    with pytest.raises(ValueError):
        CorrectionRule("m", "b", ())
    assert ConditionBody(["c1", "c1"]).condition_ids == frozenset({"c1"})
    assert PredictionRecord("s1", "m", ["a"], [], ["c1"]).predicted == frozenset({"a"})
    assert RuleSet([DETECTION]).detections == (DETECTION,)
    assert LearnConfig("F1", 0.1).epsilon == F(1, 10)
    assert TheoremReport(TheoremId.T2_EDNS, TheoremVerdict.HOLDS, "m", "a", ()).intermediates == {}
    assert DistributionSpec("d1", F(1)).confidence_override == {}
