"""The contract of the package's value types: immutable, slotted, equal
and hashed by their fields, with a fixed repr, and rebuilt by copy and
pickle. ``MetricBundle`` is the one dataclass, and ``dataclasses.replace``
works on it."""

import copy
import json
import dataclasses
import inspect
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
# The types whose constructor only stores its fields, with the parameters
# their hand-written constructors took, in order: a name, or a (name,
# default) pair. Each is positional or keyword.
PLAIN_SIGNATURES = {
    "InvarianceRow": ["distribution", "verdict", "confidence", "confidence_gap"],
    "InvarianceProfile": ["rows", "pooled_confidence", "invariant"],
    "LearnStep": ["added", "objective_before", "objective_after", "recall_reduction"],
    "GuardCheck": ["condition_id", "confidence", "residual", "improves_precision"],
    "PairGuard": ["condition_id", "trigger_class", "pair_precision", "base_precision", "admissible"],
    "LearnReport": ["outcome", "reason", "baseline_objective", ("objective", None),
                    ("epsilon", None), ("steps", ()), ("guards", ()), ("pair_guards", ()),
                    ("final_metrics", None), ("base_precision", None), ("final_precision", None)],
    "DetectionRule": ["model_id", "target_class", "body"],
    "RecordTrace": ["sample_id", "model_id", ("erased", ()), ("added", ()),
                    ("conflict", frozenset())],
    "ApplicationTrace": ["log", "touched"],
    "DeltaRow": ["model_id", "label", "precision_before", "precision_after", "recall_before",
                 "recall_after", "f1_before", "f1_after", "precision_delta", "recall_delta",
                 "f1_delta"],
    "PlantedCondition": ["condition_id", "target_class", "target_support", "target_confidence"],
    "BookkeepingRow": ["condition_id", "target_class", "distribution", "support", "confidence"],
    "SynthBookkeeping": ["rows"],
    "SweepViolation": ["trial", "trial_seed", "theorem_id", "alpha", "condition_id",
                       "correction_class", "report", "log_text"],
    "SweepResult": ["seed", "trials", "max_records", "max_labels", "max_conditions",
                    "verdict_counts", "violations"],
}


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


@pytest.mark.parametrize("name", PLAIN_SIGNATURES)
def test_plain_constructor_signatures_are_pinned(name):
    # Keyword callers and defaults see the same constructor as before it
    # was generated from the fields.
    empty, kind = inspect.Parameter.empty, inspect.Parameter.POSITIONAL_OR_KEYWORD
    cls = type(CASES[name][0]())
    want = [(p, kind, empty) if isinstance(p, str) else (p[0], kind, p[1])
            for p in PLAIN_SIGNATURES[name]]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == want


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


# ---------------------------------------------------------------------------
# to_dict: the JSON each value type gives, pinned field by field and in key
# order, with undefined rationals and empty fields among the cases
# ---------------------------------------------------------------------------

def _p(numerator, denominator, value):
    return {"numerator": numerator, "denominator": denominator, "value": value}


P0 = Probability(0, 0)
HALF, UNDEFINED = _p(1, 2, "1/2"), _p(0, 0, "UNDEFINED")
ROW0 = InvarianceRow("d2", Verdict.UNDEFINED, P0, None)
ROW_JSON = {"distribution": "d1", "verdict": "YES", "confidence": HALF, "confidence_gap": "1/4"}
ROW0_JSON = {"distribution": "d2", "verdict": "UNDEFINED", "confidence": UNDEFINED,
             "confidence_gap": "UNDEFINED"}
BUNDLE = MetricBundle(P, Probability(2, 3), P, P, Probability(0, 4), P0, F(0), None)
BUNDLE_JSON = {"precision": HALF, "recall": _p(2, 3, "2/3"), "rule_precision": HALF,
               "rule_recall": HALF, "support": _p(0, 4, "0/1"), "confidence": UNDEFINED,
               "k_factor": "0/1", "residual": "UNDEFINED"}
STEP_JSON = {"added": "c1", "objective_before": "1/2", "objective_after": "2/3",
             "recall_reduction": "1/20"}
GUARD0 = GuardCheck("c2", P0, None, None)
GUARD_JSON = {"condition_id": "c1", "confidence": HALF, "residual": "1/2", "improves_precision": True}
GUARD0_JSON = {"condition_id": "c2", "confidence": UNDEFINED, "residual": "UNDEFINED",
               "improves_precision": None}
PAIR = PairGuard("c1", "a", P, P0, False)
PAIR_JSON = {"condition_id": "c1", "trigger_class": "a", "pair_precision": HALF,
             "base_precision": UNDEFINED, "admissible": False}
DETECTION2 = DetectionRule("m", "a", ConditionBody.of("c2", "c1"))
DETECTION2_JSON = {"model_id": "m", "target_class": "a", "conditions": ["c1", "c2"]}
CORRECTION2 = CorrectionRule("m", "b", [("c2", "a"), ("c1", "b")])
CORRECTION2_JSON = {"model_id": "m", "target_class": "b", "pairs": [
    {"condition": "c1", "trigger_class": "b"}, {"condition": "c2", "trigger_class": "a"}]}
TRACE2 = RecordTrace("s1", "m", (("a", 0), ("c", 1)), (("a", 1), ("b", 0)), frozenset({"c", "b"}))
TRACE2_JSON = {"sample_id": "s1", "model_id": "m", "erased": [["a", 0], ["c", 1]],
               "added": [["a", 1], ["b", 0]], "conflict": ["b", "c"], "mutually_canceling": ["a"]}
PLANTED = PlantedCondition("c1", "a", F(1, 2), F(9, 10))
PLANTED_JSON = {"condition_id": "c1", "target_class": "a", "target_support": "1/2",
                "target_confidence": "9/10"}
SPEC, SPEC0 = DistributionSpec("d1", F(1, 2), {"c1": F(0)}), DistributionSpec("d2", F(1, 2))
SPEC_JSON = {"tag": "d1", "record_fraction": "1/2", "confidence_override": {"c1": "0/1"}}
SPEC0_JSON = {"tag": "d2", "record_fraction": "1/2", "confidence_override": {}}
BOOK1 = BookkeepingRow("c1", "a", "d1", Probability(0, 3), P)
BOOK_JSON = {"condition_id": "c1", "target_class": "a", "distribution": None, "support": HALF,
             "confidence": HALF}
BOOK1_JSON = {"condition_id": "c1", "target_class": "a", "distribution": "d1",
              "support": _p(0, 3, "0/1"), "confidence": HALF}
T2_REPORT = TheoremReport(TheoremId.T2_EDNS, TheoremVerdict.HOLDS, "m", "a", (), note="error_detecting=YES")
H, V, S = TheoremVerdict.HOLDS, TheoremVerdict.VIOLATED, TheoremVerdict.SKIPPED
F1_NOTE = ("F1 objective scores the post-rule F1 of the target class; it is a stand-in, not a "
           "ratio-maximization formulation")

# name → [(a value, the JSON its to_dict gives)]
TO_DICT = {
    "Probability": [(P, HALF), (P0, UNDEFINED)],
    "InvarianceRow": [(ROW, ROW_JSON), (ROW0, ROW0_JSON)],
    "InvarianceProfile": [
        (InvarianceProfile((ROW, ROW0), P, False),
         {"rows": [ROW_JSON, ROW0_JSON], "pooled_confidence": HALF, "invariant": False}),
        (InvarianceProfile((), P0, True), {"rows": [], "pooled_confidence": UNDEFINED, "invariant": True}),
    ],
    "MetricBundle": [(BUNDLE, BUNDLE_JSON)],
    "LearnStep": [
        (STEP, STEP_JSON),
        (LearnStep(("c1", "a"), None, F(3, 4), None),
         {"added": {"condition": "c1", "trigger_class": "a"}, "objective_before": "UNDEFINED",
          "objective_after": "3/4", "recall_reduction": "UNDEFINED"}),
    ],
    "GuardCheck": [(GUARD, GUARD_JSON), (GUARD0, GUARD0_JSON)],
    "PairGuard": [(PAIR, PAIR_JSON)],
    "LearnReport": [
        (LearnReport("RULE", None, F(1, 2), Objective.F1, F(1, 20), (STEP,), (GUARD, GUARD0), (),
                     BUNDLE, P, Probability(2, 3)),
         {"objective": "F1", "epsilon": "1/20", "outcome": "RULE", "reason": None,
          "baseline_objective": "1/2", "steps": [STEP_JSON], "guards": [GUARD_JSON, GUARD0_JSON],
          "pair_guards": [], "final_metrics": BUNDLE_JSON, "base_precision": HALF,
          "final_precision": _p(2, 3, "2/3"), "objective_note": F1_NOTE}),
        (LearnReport("NONE", "INFEASIBLE", None, Objective.PRECISION_GAIN, F(0)),
         {"objective": "PRECISION_GAIN", "epsilon": "0/1", "outcome": "NONE", "reason": "INFEASIBLE",
          "baseline_objective": "UNDEFINED", "steps": [], "guards": [], "pair_guards": [],
          "final_metrics": None, "base_precision": None, "final_precision": None}),
        (LearnReport("NONE", "NO_ADMISSIBLE_PAIR", None, pair_guards=(PAIR,), base_precision=P0),
         {"outcome": "NONE", "reason": "NO_ADMISSIBLE_PAIR", "baseline_objective": "UNDEFINED",
          "steps": [], "guards": [], "pair_guards": [PAIR_JSON], "final_metrics": None,
          "base_precision": UNDEFINED, "final_precision": None}),
    ],
    "DetectionRule": [(DETECTION2, DETECTION2_JSON)],
    "CorrectionRule": [(CORRECTION2, CORRECTION2_JSON)],
    "RuleSet": [
        (RuleSet([DETECTION2], [CORRECTION2]),
         {"detections": [DETECTION2_JSON], "corrections": [CORRECTION2_JSON]}),
        (RuleSet(), {"detections": [], "corrections": []}),
    ],
    "RecordTrace": [(TRACE2, TRACE2_JSON), (RecordTrace("s2", "m"), {"sample_id": "s2", "model_id": "m"})],
    "ApplicationTrace": [
        (ApplicationTrace(PredictionLog([RECORD]), (RecordTrace("s2", "m"), TRACE2)),
         {"entries": [TRACE2_JSON]}),
        (ApplicationTrace(PredictionLog(()), ()), {"entries": []}),
    ],
    "DeltaRow": [
        (DeltaRow("m", "a", P, P0, P, Probability(1, 1), F(1, 2), None, None, F(1, 2), None),
         {"model_id": "m", "label": "a", "precision_before": HALF, "precision_after": UNDEFINED,
          "recall_before": HALF, "recall_after": _p(1, 1, "1/1"), "f1_before": "1/2",
          "f1_after": "UNDEFINED", "precision_delta": "UNDEFINED", "recall_delta": "1/2",
          "f1_delta": "UNDEFINED", "skipped": True}),
    ],
    "PlantedCondition": [(PLANTED, PLANTED_JSON)],
    "DistributionSpec": [(SPEC, SPEC_JSON), (SPEC0, SPEC0_JSON)],
    "SynthConfig": [
        (SynthConfig(7, 10, "m", ("a", "b"), {"a": F(1, 4), "b": F(3, 4)},
                     {"a": ((frozenset({"a"}), F(1)),),
                      "b": ((frozenset({"b", "a"}), F(1, 2)), (frozenset(), F(1, 2)))},
                     (PLANTED,), (SPEC, SPEC0)),
         {"seed": 7, "n_records": 10, "model_id": "m", "labels": ["a", "b"],
          "class_priors": {"a": "1/4", "b": "3/4"},
          "confusion": {"a": [{"predicted": ["a"], "weight": "1/1"}],
                        "b": [{"predicted": ["a", "b"], "weight": "1/2"}, {"predicted": [], "weight": "1/2"}]},
          "planted_conditions": [PLANTED_JSON], "distributions": [SPEC_JSON, SPEC0_JSON]}),
        (SynthConfig(1, 1, "m", ("a",), {"a": F(1)}, CONFUSION),
         {"seed": 1, "n_records": 1, "model_id": "m", "labels": ["a"], "class_priors": {"a": "1/1"},
          "confusion": {"a": [{"predicted": ["a"], "weight": "1/1"}]}, "planted_conditions": [],
          "distributions": []}),
    ],
    "BookkeepingRow": [(BookkeepingRow("c1", "a", None, P, P), BOOK_JSON), (BOOK1, BOOK1_JSON)],
    "SynthBookkeeping": [
        (SynthBookkeeping((BookkeepingRow("c1", "a", None, P, P), BOOK1)), {"rows": [BOOK_JSON, BOOK1_JSON]}),
        (SynthBookkeeping(()), {"rows": []}),
    ],
    "TheoremReport": [
        (TheoremReport(TheoremId.T4_RECLASS_LIMIT, TheoremVerdict.SKIPPED, "m", "a", ("c1", "c2"),
                       {"base_precision": None, "pair_precision": F(1, 2)}, "b",
                       "correction class never predicted"),
         {"theorem_id": "T4_RECLASS_LIMIT", "verdict": "SKIPPED", "model_id": "m", "target_class": "a",
          "condition_ids": ["c1", "c2"], "correction_class": "b",
          "skip_reason": "correction class never predicted", "note": None,
          "intermediates": {"base_precision": "UNDEFINED", "pair_precision": "1/2"}}),
        (T2_REPORT,
         {"theorem_id": "T2_EDNS", "verdict": "HOLDS", "model_id": "m", "target_class": "a",
          "condition_ids": [], "correction_class": None, "skip_reason": None,
          "note": "error_detecting=YES", "intermediates": {}}),
    ],
    "SweepResult": [
        (SweepResult(1, 2, 30, 4, 3, {TheoremId.T1_PRECISION_CHANGE: {H: 3, V: 1, S: 0},
                                      TheoremId.EQ7_RESIDUAL: {H: 2, V: 0, S: 2}},
                     (SweepViolation(0, 7, TheoremId.T1_PRECISION_CHANGE, "a", "c1", None, T2_REPORT, "{}\n"),)),
         {"seed": 1, "trials": 2, "bounds": {"max_records": 30, "max_labels": 4, "max_conditions": 3},
          "total_verdicts": 8,
          "verdicts": {"T1_PRECISION_CHANGE": {"HOLDS": 3, "VIOLATED": 1, "SKIPPED": 0},
                       "EQ7_RESIDUAL": {"HOLDS": 2, "VIOLATED": 0, "SKIPPED": 2}},
          "violations": 1}),
        (SweepResult(5, 0, 1, 1, 1, {}, ()),
         {"seed": 5, "trials": 0, "bounds": {"max_records": 1, "max_labels": 1, "max_conditions": 1},
          "total_verdicts": 0, "verdicts": {}, "violations": 0}),
    ],
}


def test_every_type_written_to_json_is_pinned():
    # The others reach JSON only inside a pinned type (a body is a
    # detection rule's conditions), or not at all.
    assert CASES.keys() - TO_DICT.keys() == {"PredictionRecord", "ConditionBody", "LearnConfig",
                                             "SweepViolation"}


@pytest.mark.parametrize("name", TO_DICT)
def test_to_dict_is_pinned(name):
    for value, want in TO_DICT[name]:
        got = value.to_dict()
        assert json.dumps(got) == json.dumps(want)  # keys in order, and JSON types only
        assert json.loads(json.dumps(got)) == got
