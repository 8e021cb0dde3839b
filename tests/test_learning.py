from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import labels_st, logs_st, make_log, rec
from errata import (
    LearnConfig,
    Objective,
    PredictionLog,
    PredictionRecord,
    exhaustive_oracle,
    joint_counts,
    learn_correction,
    learn_detection,
    metric_bundle,
)
from errata.learning import (
    INFEASIBLE,
    NO_ADMISSIBLE_PAIR,
    NO_IMPROVEMENT,
    UNDEFINED_BASE,
    _score_function,
)
from errata.synth import condition_alphabet, random_log
from event_oracle import EventQuery, cond_prob, condition_holds, predicted_has, slice_log, truth_has
import learner_oracle

GAIN = Objective.PRECISION_GAIN


def cfg(epsilon="1/2", objective=GAIN, max_body_size=None):
    return LearnConfig(objective=objective, epsilon=Fraction(epsilon), max_body_size=max_body_size)


# ---------------------------------------------------------------------------
# Detection learning on LOG-A
# ---------------------------------------------------------------------------

def test_learn_detection_log_a(log_a):
    rule, report = learn_detection(log_a, "m", "a", {"c1"}, cfg("1/2"))
    assert rule is not None
    assert rule.body.condition_ids == {"c1"}
    assert report.outcome == "RULE"
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.added == "c1"
    assert step.objective_before == 0
    assert step.objective_after == Fraction(1, 3)
    assert step.recall_reduction == Fraction(1, 3)
    assert report.final_metrics.rule_precision.value == 1


def test_learn_detection_budget_too_small(log_a):
    rule, report = learn_detection(log_a, "m", "a", {"c1"}, cfg("1/4"))
    assert rule is None
    assert report.reason == INFEASIBLE


def test_learn_detection_zero_support_candidates():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}),
        rec("s2", predicted={"b"}, ground_truth={"b"}, conditions={"cz"}),
    )
    rule, report = learn_detection(log, "m", "a", {"cz"}, cfg("1/2"))
    assert rule is None
    assert report.reason == NO_IMPROVEMENT


def test_learn_detection_alpha_never_predicted(log_a):
    rule, report = learn_detection(log_a, "m", "zz", {"c1"}, cfg())
    assert rule is None
    assert report.reason == UNDEFINED_BASE


def test_learn_detection_guard_rows(log_a):
    _, report = learn_detection(log_a, "m", "a", {"c1", "cz"}, cfg("1/2"))
    by_id = {g.condition_id: g for g in report.guards}
    assert by_id["c1"].confidence.value == Fraction(1, 2)
    assert by_id["c1"].residual == Fraction(1, 3)
    assert by_id["c1"].improves_precision is True
    assert by_id["cz"].confidence.value is None
    assert by_id["cz"].improves_precision is None


def test_learn_detection_support_confidence_objective(log_a):
    rule, report = learn_detection(
        log_a, "m", "a", {"c1"}, cfg("1/2", Objective.SUPPORT_TIMES_CONFIDENCE)
    )
    assert rule is not None
    # support × confidence = 2/3 × 1/2 = 1/3
    assert report.steps[0].objective_after == Fraction(1, 3)


def test_learn_detection_f1_objective_declines(log_a):
    # Post-rule F1 (1/2) is below base F1 (2/3): nothing improves.
    rule, report = learn_detection(log_a, "m", "a", {"c1"}, cfg("1/2", Objective.F1))
    assert rule is None
    assert report.reason == NO_IMPROVEMENT
    assert report.baseline_objective == Fraction(2, 3)


def test_learn_detection_tie_break_lexicographic():
    records = [
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"k1", "k2"}),
        rec("s2", predicted={"a"}, ground_truth={"a"}),
    ]
    log = make_log(*records)
    rule, _ = learn_detection(log, "m", "a", {"k2", "k1"}, cfg("1"))
    assert rule.body.condition_ids == {"k1"}


def test_learn_detection_determinism_under_input_order(log_a):
    cands = ["c1", "cz", "c9"]
    a = learn_detection(log_a, "m", "a", cands, cfg("1/2"))
    b = learn_detection(log_a, "m", "a", list(reversed(cands)), cfg("1/2"))
    assert a[0] == b[0]
    assert a[1].steps == b[1].steps


def test_learn_detection_max_body_size():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"k1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"k2"}),
        rec("s3", predicted={"a"}, ground_truth={"a"}),
    )
    rule, _ = learn_detection(log, "m", "a", {"k1", "k2"}, cfg("1", max_body_size=1))
    assert len(rule.body.condition_ids) == 1


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(epsilon=Fraction(-1, 2))
    with pytest.raises(ValueError):
        LearnConfig(max_body_size=0)
    assert LearnConfig(objective="F1").objective is Objective.F1


def test_learn_config_epsilon_is_exact():
    # A float budget is read through its decimal repr, not its binary expansion.
    assert LearnConfig(epsilon=0.1).epsilon == Fraction(1, 10)
    assert LearnConfig(epsilon="3/20").epsilon == Fraction(3, 20)
    with pytest.raises(TypeError):
        LearnConfig(epsilon=True)


def test_vacuously_feasible_when_class_never_in_truth():
    # No ground-truth occurrences: there is no recall to lose, so even a
    # zero budget admits the rule (precision gain is stuck at zero for such
    # a class, so the erase-errors objective is the one that can improve).
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"k1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}),
    )
    rule, report = learn_detection(
        log, "m", "a", {"k1"}, cfg("0", Objective.SUPPORT_TIMES_CONFIDENCE)
    )
    assert rule is not None
    assert report.steps[0].recall_reduction is None


# ---------------------------------------------------------------------------
# Correction learning
# ---------------------------------------------------------------------------

def _base_half():
    return [
        rec("b1", predicted={"b"}, ground_truth={"b"}),
        rec("b2", predicted={"b"}, ground_truth=set()),
    ]


def test_learn_correction_admits_three_quarters_vs_half():
    records = _base_half() + [
        rec("p1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("p2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("p3", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("p4", predicted={"a"}, ground_truth=set(), conditions={"c1"}),
    ]
    rule, report = learn_correction(make_log(*records), "m", "b", {("c1", "a")})
    assert rule is not None
    assert rule.pairs == {("c1", "a")}
    assert report.base_precision.value == Fraction(1, 2)
    assert report.final_precision.value == Fraction(3, 4)


def test_correction_report_omits_detection_settings():
    # The correction learner reads neither the objective nor epsilon, even
    # when a config carries them.
    cfg = LearnConfig(objective="F1", epsilon="1/3")
    log = make_log(*_base_half(), rec("p1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}))
    for _, report in (learn_correction(log, "m", "b", {("c1", "a")}, cfg),
                      learn_correction(log, "m", "zz", {("c1", "a")}, cfg)):
        assert report.objective is None and report.epsilon is None
        assert {"objective", "epsilon", "objective_note"}.isdisjoint(report.to_dict())


def test_learn_correction_rejects_pair_at_or_below_base():
    # The best relabel candidate still fails the guard: pair precision ≤ base.
    records = [
        rec("d1", predicted={"dodge"}, ground_truth={"dodge"}, model="car"),
        rec("d2", predicted={"dodge"}, ground_truth={"ford"}, model="car"),
    ] + [
        rec(
            f"t{i}",
            predicted={"toyota", "us"},
            ground_truth={"dodge"} if i == 0 else {"ford"},
            conditions={"cond_us"},
            model="car",
        )
        for i in range(4)
    ]
    rule, report = learn_correction(
        make_log(*records), "car", "dodge", {("cond_us", "toyota")}
    )
    assert rule is None
    assert report.reason == NO_ADMISSIBLE_PAIR
    guard = report.pair_guards[0]
    assert guard.pair_precision.value == Fraction(1, 4)
    assert guard.base_precision.value == Fraction(1, 2)
    assert guard.admissible is False


def _union_worse_log() -> PredictionLog:
    records = _base_half()
    # p1 = (c1, x): 4 firing records, 3 with b in truth -> 3/4
    for i, good in enumerate((True, True, True, False)):
        records.append(
            rec(f"x{i}", predicted={"x"}, ground_truth={"b"} if good else set(), conditions={"c1"})
        )
    # p2 = (c2, y): 5 firing records, 3 with b in truth -> 3/5
    for i, good in enumerate((True, True, True, False, False)):
        records.append(
            rec(f"y{i}", predicted={"y"}, ground_truth={"b"} if good else set(), conditions={"c2"})
        )
    # Padding up to 20 records; never fires, never predicts b.
    for i in range(9):
        records.append(rec(f"z{i}", predicted={"z"}, ground_truth={"z"}))
    return make_log(*records)


def test_learn_correction_union_worse_keeps_better_singleton():
    log = _union_worse_log()
    assert len(log) == 20
    pairs = {("c1", "x"), ("c2", "y")}

    # Independent oracle: combined precision of every nonempty pair subset.
    def combined(subset):
        event = None
        for c, t in subset:
            q = EventQuery.conjunction(condition_holds(c), predicted_has(t))
            event = q if event is None else event.or_(q)
        return cond_prob(log, EventQuery.conjunction(truth_has("b")), event).value

    values = {
        frozenset({("c1", "x")}): combined({("c1", "x")}),
        frozenset({("c2", "y")}): combined({("c2", "y")}),
        frozenset(pairs): combined(pairs),
    }
    assert values[frozenset({("c1", "x")})] == Fraction(3, 4)
    assert values[frozenset({("c2", "y")})] == Fraction(3, 5)
    assert values[frozenset(pairs)] == Fraction(2, 3)
    best = max(values, key=lambda k: (values[k], -len(k)))

    rule, report = learn_correction(log, "m", "b", pairs)
    assert rule.pairs == best == {("c1", "x")}
    assert report.final_precision.value == Fraction(3, 4)


def test_learn_correction_beta_never_predicted():
    records = [
        rec("p1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("p2", predicted={"a"}, ground_truth=set(), conditions={"c2"}),
    ]
    rule, report = learn_correction(
        make_log(*records), "m", "b", {("c1", "a"), ("c2", "a")}
    )
    assert rule is not None
    assert rule.pairs == {("c1", "a")}
    assert report.base_precision.value is None
    guards = {(g.condition_id, g.trigger_class): g for g in report.pair_guards}
    assert guards[("c1", "a")].admissible is True
    assert guards[("c2", "a")].admissible is False  # precision 0 is not > 0


def test_learn_correction_greedy_adds_while_improving():
    # Overlapping pairs: the shared bad record is double-covered, so the
    # union precision (2/3) strictly beats each singleton (1/2 each), and
    # greedy keeps adding. (For disjoint pairs the union is a weighted
    # average and can never beat the best singleton.)
    records = [
        rec("b1", predicted={"b"}, ground_truth={"b"}),
        rec("b2", predicted={"b"}, ground_truth=set()),
        rec("b3", predicted={"b"}, ground_truth=set()),  # base = 1/3
        rec("o1", predicted={"x"}, ground_truth={"b"}, conditions={"c1"}),
        rec("o2", predicted={"x", "y"}, ground_truth=set(), conditions={"c1", "c2"}),
        rec("o3", predicted={"y"}, ground_truth={"b"}, conditions={"c2"}),
    ]
    rule, report = learn_correction(make_log(*records), "m", "b", {("c1", "x"), ("c2", "y")})
    assert rule.pairs == {("c1", "x"), ("c2", "y")}
    # Tie at 1/2 breaks toward ("c1", "x"); the union then improves to 2/3.
    assert [s.added for s in report.steps] == [("c1", "x"), ("c2", "y")]
    assert [s.objective_after for s in report.steps] == [Fraction(1, 2), Fraction(2, 3)]


def test_planted_signal_greedy_equals_oracle():
    """One strong condition among weak ones: greedy must match the oracle."""
    from errata import SynthConfig, generate

    config = {
        "seed": 424242,
        "n_records": 2000,
        "model_id": "m",
        "labels": ["a", "b", "c"],
        "class_priors": {"a": "1/5", "b": "2/5", "c": "2/5"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [{"predicted": ["a"], "weight": "1/2"}, {"predicted": ["b"], "weight": "1/2"}],
            "c": [{"predicted": ["c"], "weight": 1}],
        },
        # Signal: confidence 0.9 at support 0.5; the rest sit at or below the
        # class residual (0.5), so they cannot improve precision alone.
        "planted_conditions": [
            {"condition_id": "c1", "target_class": "a", "target_support": "1/2", "target_confidence": "9/10"},
            {"condition_id": "c2", "target_class": "a", "target_support": "3/10", "target_confidence": "2/5"},
            {"condition_id": "c3", "target_class": "a", "target_support": "1/5", "target_confidence": "0"},
        ],
    }
    log, _ = generate(SynthConfig.from_dict(config))
    c = cfg("3/20")
    rule, report = learn_detection(log, "m", "a", ["c1", "c2", "c3"], c)
    body, value = exhaustive_oracle(log, "m", "a", ["c1", "c2", "c3"], c)
    assert rule is not None and "c1" in rule.body.condition_ids
    assert report.steps[-1].objective_after == value
    assert rule.body.condition_ids == body


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def test_oracle_log_a(log_a):
    body, value = exhaustive_oracle(log_a, "m", "a", {"c1"}, cfg("1/2"))
    assert body == {"c1"}
    assert value == Fraction(1, 3)


def test_oracle_zero_feasible(log_a):
    body, value = exhaustive_oracle(log_a, "m", "a", {"c1"}, cfg("1/4"))
    assert body is None and value is None


def test_oracle_tie_break_prefers_smaller_body(log_a):
    body, value = exhaustive_oracle(log_a, "m", "a", {"c_never", "c1"}, cfg("1/2"))
    assert body == {"c1"}
    assert value == Fraction(1, 3)


def test_oracle_at_the_cap_with_ids_the_log_lacks(log_a):
    # Absent ids tie with every body they join; the search must not walk
    # the 2**19 subsets they span.
    absent = {f"k{i}" for i in range(19)}
    assert exhaustive_oracle(log_a, "m", "a", absent | {"c1"}, cfg("1/2")) == ({"c1"}, Fraction(1, 3))


def test_oracle_rejects_oversized_candidate_sets(log_a):
    with pytest.raises(ValueError, match="20"):
        exhaustive_oracle(log_a, "m", "a", {f"k{i}" for i in range(21)}, cfg())


def _count_space(max_pred=7, max_missed=3):
    """Every (n_pred, n_pred_gt, n_gt, ε) with n_pred ≤ ``max_pred`` and at
    most ``max_missed`` records of the class in truth but not predicted; ε
    runs over every budget b/n_gt and the midpoints between them."""
    for n_pred in range(1, max_pred + 1):
        for n_pred_gt in range(n_pred + 1):
            for n_gt in range(n_pred_gt, n_pred_gt + max_missed + 1):
                epsilons = [Fraction(b, 2 * n_gt) for b in range(2 * n_gt + 1)] if n_gt else [Fraction(0)]
                for epsilon in epsilons:
                    yield n_pred, n_pred_gt, n_gt, epsilon


def _scored(score, pb, pbg):
    value = score(pb, pbg)
    return None if value is None else Fraction(*value)


@pytest.mark.parametrize("objective", tuple(Objective))
def test_score_matches_the_objective_on_every_small_count_tuple(objective):
    # Each body's two counts: pb predictions erased, pbg of them correct.
    for n_pred, n_pred_gt, n_gt, epsilon in _count_space():
        score, _ = _score_function(LearnConfig(objective, epsilon), (n_pred + n_gt, n_gt, n_pred, n_pred_gt))
        for pbg in range(n_pred_gt + 1):
            over_budget = n_gt > 0 and Fraction(pbg, n_gt) > epsilon
            for errors in range(n_pred - n_pred_gt + 1):
                expected = None if over_budget else learner_oracle.objective_value(
                    objective, n_pred, n_pred_gt, n_gt, pbg + errors, pbg)
                assert _scored(score, pbg + errors, pbg) == expected, (
                    n_pred, n_pred_gt, n_gt, epsilon, pbg + errors, pbg)


@pytest.mark.parametrize("objective", tuple(Objective))
def test_score_bounds_every_body_under_a_node(objective):
    # The oracle bounds the bodies under a node S within the budget, which
    # erases x correct predictions, by score(x + e, x), e being the errors
    # S with every extension left covers. Each such body erases at least x
    # correct predictions and at most e errors.
    for n_pred, n_pred_gt, n_gt, epsilon in _count_space():
        score, limit = _score_function(LearnConfig(objective, epsilon), (n_pred + n_gt, n_gt, n_pred, n_pred_gt))
        baseline = _scored(score, 0, 0)
        n_errors = n_pred - n_pred_gt
        values = {(pbg, errors): _scored(score, pbg + errors, pbg)
                  for pbg in range(n_pred_gt + 1) for errors in range(n_errors + 1)}
        for x in range(min(limit, n_pred_gt) + 1):
            for e in range(n_errors + 1):
                bound = _scored(score, x + e, x)
                below = [value for (pbg, errors), value in values.items()
                         if pbg >= x and errors <= e and value is not None]
                if bound is None:  # no body under S beats the empty body
                    assert all(baseline is not None and value <= baseline for value in below)
                else:
                    assert all(value <= bound for value in below), (n_pred, n_pred_gt, n_gt, epsilon, x, e)


# Nine conditions random_log may draw, and three no log carries. The oracle
# prunes most where many candidates fit a loose budget, so the candidate
# count is drawn uniformly rather than left to shrink toward few.
CANDIDATE_POOL = condition_alphabet(9) + ("x1", "x2", "x3")
candidates_st = st.integers(0, len(CANDIDATE_POOL)).flatmap(
    lambda n: st.permutations(CANDIDATE_POOL).map(lambda ids: ids[:n])
)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("a", "b", "c")),
    candidates_st,
    st.fractions(0, 1, max_denominator=20),
    st.sampled_from(tuple(Objective)),
    st.sampled_from((None, 1, 2, 3)),
)
# Cases on which a bound or a tie cut made slightly too eager gave a wrong
# body.
@example(16, "a", ("c1", "c3", "c4", "c5", "c7", "c8", "c9"), Fraction(11, 20), GAIN, 3)
@example(51, "a", CANDIDATE_POOL[:11], Fraction(17, 20), Objective.SUPPORT_TIMES_CONFIDENCE, 3)
@example(616, "b", CANDIDATE_POOL[:11], Fraction(9, 20), Objective.F1, 2)
@settings(max_examples=150, deadline=None)
def test_learners_match_the_fraction_references(seed, alpha, candidates, epsilon, objective, max_size):
    log = random_log(seed, max_records=80, max_labels=3, max_conditions=9)
    c = cfg(epsilon, objective, max_size)
    assert exhaustive_oracle(log, "m", alpha, candidates, c) == learner_oracle.exhaustive_oracle(
        log, "m", alpha, candidates, c
    )
    rule, report = learn_detection(log, "m", alpha, candidates, c)
    want_rule, want_report = learner_oracle.learn_detection(log, "m", alpha, candidates, c)
    assert rule == want_rule
    assert report == want_report
    assert report.to_dict() == want_report.to_dict()


def _with_twins(log: PredictionLog, alpha: str) -> PredictionLog:
    """The log with ids added that tie with others over alpha's
    predictions: t1 and t3 hold where c1 and c3 do, v2 where c2 does or
    alpha is not predicted, and o only where alpha is not predicted, so
    its mask over alpha's predictions is that of the ids x1, x2 no record
    carries."""
    def extra(r):
        off = alpha not in r.predicted
        held = {"t1": "c1" in r.conditions, "t3": "c3" in r.conditions,
                "v2": off or "c2" in r.conditions, "o": off}
        return r.conditions | {cid for cid, on in held.items() if on}

    return PredictionLog(
        PredictionRecord(r.sample_id, r.model_id, r.predicted, r.ground_truth, extra(r), r.distribution)
        for r in log.records
    )


TWIN_POOL = condition_alphabet(6) + ("t1", "t3", "v2", "o", "x1", "x2")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("a", "b", "c")),
    st.integers(0, len(TWIN_POOL)).flatmap(lambda n: st.permutations(TWIN_POOL).map(lambda ids: ids[:n])),
    st.fractions(0, 1, max_denominator=20),
    st.sampled_from(tuple(Objective)),
    st.sampled_from((None, 1, 2, 3)),
)
@settings(max_examples=60, deadline=None)
def test_oracle_with_twin_candidates_matches_the_brute_force(seed, alpha, candidates, epsilon, objective,
                                                              max_size):
    log = _with_twins(random_log(seed, max_records=60, max_labels=3, max_conditions=6), alpha)
    c = cfg(epsilon, objective, max_size)
    assert exhaustive_oracle(log, "m", alpha, candidates, c) == learner_oracle.exhaustive_oracle(
        log, "m", alpha, candidates, c
    )


# Pairs over four conditions random_log may draw and one no log carries,
# triggered by the three labels it may draw and one it never does; a
# correction class "d" is never predicted, so its base is undefined.
PAIR_POOL = tuple(
    (cond, trig) for cond in condition_alphabet(4) + ("x1",) for trig in ("a", "b", "c", "d")
)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("a", "b", "c", "d")),
    st.lists(st.sampled_from(PAIR_POOL), max_size=10),
    st.sampled_from((None, 1, 2, 3)),
)
# Two pairs that tie at 1/2 over a base of 1/6 beside two that never fire,
# and two admissible pairs over an undefined base.
@example(1, "a", [("c2", "b"), ("c3", "b"), ("x1", "a"), ("c1", "d")], None)
@example(14, "c", [("c1", "a"), ("c3", "a"), ("c2", "d")], 2)
@settings(max_examples=150, deadline=None)
def test_learn_correction_matches_the_fraction_reference(seed, beta, pairs, max_size):
    log = random_log(seed, max_records=20, max_labels=3, max_conditions=4)
    c = cfg(max_body_size=max_size)
    rule, report = learn_correction(log, "m", beta, pairs, c)
    want_rule, want_report = learner_oracle.learn_correction(log, "m", beta, pairs, c)
    assert rule == want_rule
    assert report == want_report
    assert report.to_dict() == want_report.to_dict()


def test_learn_correction_matches_the_fraction_reference_over_256_shapes():
    from test_columns import _records

    log = PredictionLog(_records(300, 200, seed=11))
    assert len(log.shapes) > 256  # the row codes are an array, not bytes
    pairs = [(cond, trig) for cond in ("c1", "c2", "c3", "c4", "x1") for trig in ("a", "b", "d")]
    for model in ("m", "pé", "x"):
        for beta in ("a", "c", "e"):
            got = learn_correction(log, model, beta, pairs, cfg(max_body_size=3))
            want = learner_oracle.learn_correction(log, model, beta, pairs, cfg(max_body_size=3))
            assert got == want
            assert got[1].to_dict() == want[1].to_dict()


LIBRARY_LABELS = ("a", "b", "c", "d")
# Per class: an error marker, two weaker markers and a benign condition,
# as (support, confidence) targets.
LIBRARY_SHAPES = (("1/5", "9/10"), ("3/20", "4/5"), ("1/10", "7/10"), ("1/5", "1/10"))


def library_log(n_records):
    """A log of the library audit's shape: four labels, multi-label
    predictions, three distribution tags (one with a confidence override)
    and four planted conditions per class, c1 … c16."""
    from errata import SynthConfig, generate

    def shifted(label, step):
        return LIBRARY_LABELS[(LIBRARY_LABELS.index(label) + step) % 4]

    config = {
        "seed": 1,
        "n_records": n_records,
        "model_id": "m",
        "labels": list(LIBRARY_LABELS),
        "class_priors": {label: "1/4" for label in LIBRARY_LABELS},
        "confusion": {
            x: [
                {"predicted": [x], "weight": "11/20"},
                {"predicted": [shifted(x, -1)], "weight": "1/5"},
                {"predicted": [x, shifted(x, -1)], "weight": "3/20"},
                {"predicted": [x, shifted(x, 1)], "weight": "1/10"},
            ]
            for x in LIBRARY_LABELS
        },
        "planted_conditions": [
            {"condition_id": f"c{4 * i + j + 1}", "target_class": label,
             "target_support": support, "target_confidence": confidence}
            for i, label in enumerate(LIBRARY_LABELS)
            for j, (support, confidence) in enumerate(LIBRARY_SHAPES)
        ],
        "distributions": [
            {"tag": "d1", "record_fraction": "2/5", "confidence_override": {}},
            {"tag": "d2", "record_fraction": "2/5", "confidence_override": {}},
            {"tag": "d3", "record_fraction": "1/5", "confidence_override": {"c1": "1/10"}},
        ],
    }
    return generate(SynthConfig.from_dict(config))[0]


def test_learners_match_the_references_on_a_library_log():
    log = library_log(1000)
    assert len(log.shapes) > 256  # the row codes are an array, not bytes
    candidates = [f"c{i}" for i in range(1, 17)]
    for i, alpha in enumerate(LIBRARY_LABELS):
        beta = LIBRARY_LABELS[(i + 1) % 4]
        for objective in Objective:
            c = cfg("3/20", objective)
            got = learn_detection(log, "m", alpha, candidates, c)
            want = learner_oracle.learn_detection(log, "m", alpha, candidates, c)
            assert got == want
            assert got[1].to_dict() == want[1].to_dict()
        eight = candidates[4 * i:4 * i + 4] + candidates[4 * ((i + 1) % 4):4 * ((i + 1) % 4) + 4]
        assert exhaustive_oracle(log, "m", alpha, eight, cfg("3/20")) == learner_oracle.exhaustive_oracle(
            log, "m", alpha, eight, cfg("3/20"))
        pairs = [(cid, alpha) for cid in candidates[4 * i:4 * i + 4]]
        got = learn_correction(log, "m", beta, pairs, cfg("3/20"))
        want = learner_oracle.learn_correction(log, "m", beta, pairs, cfg("3/20"))
        assert got == want
        assert got[1].to_dict() == want[1].to_dict()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

CAND = ("c1", "c2", "c3")
eps_st = st.sampled_from((Fraction(0), Fraction(1, 20), Fraction(1, 3), Fraction(1)))
objective_st = st.sampled_from(tuple(Objective))


@given(logs_st(max_records=14), labels_st, eps_st, objective_st)
@settings(max_examples=120, deadline=None)
def test_greedy_contracts_and_oracle_dominance(log, alpha, epsilon, objective):
    c = cfg(epsilon, objective)
    rule, report = learn_detection(log, "m", alpha, CAND, c)
    oracle_body, oracle_value = exhaustive_oracle(log, "m", alpha, CAND, c)

    if report.reason == UNDEFINED_BASE:
        assert oracle_body is None
        return

    sub = slice_log(log, "m")
    if rule is not None:
        b = metric_bundle(log, "m", alpha, rule.body)
        # Feasibility: exact budget satisfaction whenever recall is defined.
        if b.recall.value is not None:
            assert b.recall.value - b.rule_recall.value <= epsilon
        # Strict improvement for the precision objective.
        if objective is GAIN:
            assert b.rule_precision.value > b.precision.value
        # Objective values never decrease across steps.
        values = [s.objective_after for s in report.steps]
        assert all(x <= y for x, y in zip(values, values[1:]))
        # Local optimality: no single feasible improving extension.
        counts = joint_counts(sub, alpha, rule.body)
        current = learner_oracle.objective_value(
            objective, counts.pred, counts.pred_gt, counts.gt,
            counts.pred_body, counts.pred_body_gt,
        )
        for extra in CAND:
            if extra in rule.body.condition_ids:
                continue
            ext = joint_counts(sub, alpha, rule.body.condition_ids | {extra})
            if ext.gt and Fraction(ext.pred_body_gt, ext.gt) > epsilon:
                continue
            value = learner_oracle.objective_value(
                objective, ext.pred, ext.pred_gt, ext.gt, ext.pred_body, ext.pred_body_gt
            )
            assert value is None or value <= current

    # Oracle dominance: the enumerated optimum is never below greedy's result.
    if rule is not None:
        assert oracle_value is not None
        assert oracle_value >= report.steps[-1].objective_after
    elif oracle_value is not None and report.baseline_objective is not None:
        # Greedy found nothing; an oracle body, if any, still improves on the
        # shared baseline, which is consistent with dominance.
        assert oracle_value > report.baseline_objective


@given(logs_st(max_records=12), labels_st)
@settings(max_examples=60, deadline=None)
def test_correction_guard_soundness(log, beta):
    pairs = {("c1", "a"), ("c2", "b"), ("c3", beta)}
    rule, report = learn_correction(log, "m", beta, pairs)
    guards = {(g.condition_id, g.trigger_class): g for g in report.pair_guards}
    if rule is None:
        assert report.reason == NO_ADMISSIBLE_PAIR
        assert not any(g.admissible for g in report.pair_guards)
        return
    base = report.base_precision.value
    for pair in rule.pairs:
        g = guards[pair]
        assert g.admissible
        if base is not None:
            assert g.pair_precision.value > base
        else:
            assert g.pair_precision.value > 0
