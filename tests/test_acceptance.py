"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Every numeric assertion is exact rational
equality unless a tolerance is stated inline; every criterion carries a
wall-clock budget that is asserted, not advisory.
"""

import json
import time
from fractions import Fraction

from conftest import LOG_A_TEXT, make_log, rec
from errata import (
    ConditionBody,
    LearnConfig,
    SynthConfig,
    TheoremId,
    TheoremReport,
    TheoremVerdict,
    Verdict,
    check_precision_change,
    check_recall_reduction,
    check_support_bound,
    dumps_rules,
    exhaustive_oracle,
    generate,
    invariance_profile,
    learn_correction,
    learn_detection,
    load_log,
    loads_rules,
    metric_bundle,
    random_log,
    serialize_log,
    sweep,
)
from errata.cli import main
from errata.estimators import joint_counts
from errata.synth import condition_alphabet
from event_oracle import slice_log
from learner_oracle import objective_value

BODY_C1 = ConditionBody.of("c1")


class _Timer:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"[{self.name}] FAIL after {time.perf_counter() - self.t0:.2f}s: {exc}")
        return False

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.budget, (
            f"[{self.name}] FAIL: {elapsed:.2f}s exceeds {self.budget}s budget"
        )
        print(f"[{self.name}] PASS in {elapsed:.2f}s (budget {self.budget}s)"
              + (f" — {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 1. Fixture exactness
# ---------------------------------------------------------------------------

def test_acceptance_1_fixture_exactness():
    with _Timer("A1 fixture exactness", 1.0) as t:
        log = load_log(LOG_A_TEXT)
        b = metric_bundle(log, "m", "a", BODY_C1)
        assert b.precision.value == Fraction(2, 3)
        assert b.recall.value == Fraction(2, 3)
        assert b.support.value == Fraction(2, 3)
        assert b.confidence.value == Fraction(1, 2)
        assert b.rule_precision.value == Fraction(1)
        assert b.rule_recall.value == Fraction(1, 3)
        assert b.k_factor == Fraction(2)
        t1 = check_precision_change(log, "m", "a", BODY_C1)
        assert t1.verdict is TheoremVerdict.HOLDS
        assert t1.intermediates["lhs"] == t1.intermediates["rhs"] == Fraction(1, 3)
        t3 = check_recall_reduction(log, "m", "a", BODY_C1)
        assert t3.verdict is TheoremVerdict.HOLDS
        assert t3.intermediates["lhs"] == t3.intermediates["rhs"] == Fraction(1, 3)
        cor = check_support_bound(log, "m", "a", BODY_C1)
        assert cor.verdict is TheoremVerdict.HOLDS
        assert cor.intermediates["support"] == Fraction(2, 3)
        assert cor.intermediates["support_bound"] == Fraction(1)
        t.done("all LOG-A quantities exact")


# ---------------------------------------------------------------------------
# 2. Identity sweep
# ---------------------------------------------------------------------------

def test_acceptance_2_identity_sweep():
    with _Timer("A2 identity sweep (1,000 logs)", 10.0) as t:
        result = sweep(20240801, 1000, max_records=30, max_labels=4, max_conditions=3)
        for tid in (
            TheoremId.T1_PRECISION_CHANGE,
            TheoremId.T3_RECALL_REDUCTION,
            TheoremId.CLAIM1_APPENDIX,
        ):
            assert result.count(tid, TheoremVerdict.VIOLATED) == 0, tid
            assert result.count(tid, TheoremVerdict.HOLDS) > 0, tid
        t.done(
            "T1/T3/Claim-1 VIOLATED=0; HOLDS="
            + ",".join(
                str(result.count(tid, TheoremVerdict.HOLDS))
                for tid in (
                    TheoremId.T1_PRECISION_CHANGE,
                    TheoremId.T3_RECALL_REDUCTION,
                    TheoremId.CLAIM1_APPENDIX,
                )
            )
        )


# ---------------------------------------------------------------------------
# 3. Theorem sweep
# ---------------------------------------------------------------------------

def test_acceptance_3_theorem_sweep():
    with _Timer("A3 theorem sweep (10,000 trials)", 60.0) as t:
        result = sweep(20240802, 10000, max_records=30, max_labels=4, max_conditions=3)
        checked = (
            TheoremId.T2_EDNS,
            TheoremId.T4_RECLASS_LIMIT,
            TheoremId.COROLLARY_SUPPORT_BOUND,
            TheoremId.EQ7_RESIDUAL,
        )
        skipped = {}
        for tid in checked:
            assert result.count(tid, TheoremVerdict.VIOLATED) == 0, tid
            assert result.count(tid, TheoremVerdict.HOLDS) > 0, tid
            # Random logs always produce some undefined conditioning events.
            assert result.count(tid, TheoremVerdict.SKIPPED) > 0, tid
            skipped[tid.value] = result.count(tid, TheoremVerdict.SKIPPED)
        t.done(f"VIOLATED=0 across {result.total_verdicts} verdicts; SKIPPED={skipped}")


# ---------------------------------------------------------------------------
# 4. Learner feasibility and improvement on planted logs
# ---------------------------------------------------------------------------

def _planted_config(seed):
    # Pooled (micro) precision 0.8; the planted class itself sits at 0.5,
    # which is what makes (support 1/2, confidence 9/10) satisfiable:
    # support × confidence must not exceed the class error rate.
    return SynthConfig.from_dict(
        {
            "seed": seed,
            "n_records": 10000,
            "model_id": "m",
            "labels": ["a", "b", "c"],
            "class_priors": {"a": "1/5", "b": "2/5", "c": "2/5"},
            "confusion": {
                "a": [{"predicted": ["a"], "weight": 1}],
                "b": [
                    {"predicted": ["a"], "weight": "1/2"},
                    {"predicted": ["b"], "weight": "1/2"},
                ],
                "c": [{"predicted": ["c"], "weight": 1}],
            },
            "planted_conditions": [
                {"condition_id": "c1", "target_class": "a",
                 "target_support": "1/2", "target_confidence": "9/10"},
                {"condition_id": "c2", "target_class": "a",
                 "target_support": "3/10", "target_confidence": "2/5"},
                {"condition_id": "c3", "target_class": "a",
                 "target_support": "1/5", "target_confidence": "0"},
            ],
        }
    )


def test_acceptance_4_learner_on_planted_logs():
    epsilon = Fraction(3, 20)
    cfg = LearnConfig(epsilon=epsilon)
    with _Timer("A4 planted-signal learning (200 logs, n=10,000)", 30.0) as t:
        for i in range(200):
            log, book = generate(_planted_config(42000 + i))
            rule, report = learn_detection(log, "m", "a", ["c1", "c2", "c3"], cfg)
            assert rule is not None, f"log {i}: no rule"
            assert "c1" in rule.body.condition_ids, f"log {i}: planted condition missed"
            fm = report.final_metrics
            reduction = fm.recall.value - fm.rule_recall.value
            assert reduction <= epsilon, f"log {i}: reduction {reduction} > {epsilon}"
            assert fm.rule_precision.value > fm.precision.value, f"log {i}"
            if i < 10:
                # The stated planted statistics are realized on the log.
                row = book.for_condition("c1")
                assert abs(row.support.value - Fraction(1, 2)) < Fraction(5, 100)
                assert abs(row.confidence.value - Fraction(9, 10)) < Fraction(5, 100)
                pred = sum(len(r.predicted) for r in log)
                correct = sum(len(r.predicted & r.ground_truth) for r in log)
                assert abs(Fraction(correct, pred) - Fraction(4, 5)) < Fraction(5, 100)
        t.done("rule contains planted condition; feasible and improving on all 200")


# ---------------------------------------------------------------------------
# 5. Oracle agreement
# ---------------------------------------------------------------------------

def test_acceptance_5_oracle_agreement():
    epsilons = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
    candidates = condition_alphabet(6)  # <= 10 candidates
    agree = 0
    with _Timer("A5 greedy vs exhaustive oracle (100 instances)", 30.0) as t:
        for i in range(100):
            log = random_log(5000 + i, max_records=40, max_labels=3, max_conditions=6)
            cfg = LearnConfig(epsilon=epsilons[i % len(epsilons)])
            rule, report = learn_detection(log, "m", "a", candidates, cfg)
            body, oracle_value = exhaustive_oracle(log, "m", "a", candidates, cfg)

            sub = slice_log(log, "m")
            if rule is not None:
                counts = joint_counts(sub, "a", rule.body)
                # Never infeasible: exact budget satisfaction.
                if counts.gt:
                    assert Fraction(counts.pred_body_gt, counts.gt) <= cfg.epsilon
                greedy_value = report.steps[-1].objective_after
                # Locally optimal: no feasible single addition improves.
                for extra in candidates:
                    if extra in rule.body.condition_ids:
                        continue
                    ext = joint_counts(sub, "a", rule.body.condition_ids | {extra})
                    if ext.gt and Fraction(ext.pred_body_gt, ext.gt) > cfg.epsilon:
                        continue
                    value = objective_value(
                        cfg.objective, ext.pred, ext.pred_gt, ext.gt,
                        ext.pred_body, ext.pred_body_gt,
                    )
                    assert value is None or value <= greedy_value, (i, extra)
                assert oracle_value is not None and oracle_value >= greedy_value
                if oracle_value == greedy_value:
                    agree += 1
            else:
                if body is None:
                    agree += 1
        assert agree >= 90, f"greedy matched the oracle on only {agree}/100 instances"
        t.done(f"greedy == oracle on {agree}/100; all outputs feasible and locally optimal")


# ---------------------------------------------------------------------------
# 6. Correction guard
# ---------------------------------------------------------------------------

def test_acceptance_6_correction_guard():
    with _Timer("A6 correction guard", 5.0) as t:
        # Every candidate pair is at or below the base precision: refuse.
        blocked = make_log(
            rec("d1", predicted={"d"}, ground_truth={"d"}),
            rec("d2", predicted={"d"}, ground_truth={"f"}),
            *(
                rec(
                    f"t{i}",
                    predicted={"t"},
                    ground_truth={"d"} if i == 0 else {"f"},
                    conditions={"c1"},
                )
                for i in range(4)
            ),
            *(
                rec(
                    f"u{i}",
                    predicted={"u"},
                    ground_truth={"d"} if i == 0 else {"f"},
                    conditions={"c2"},
                )
                for i in range(2)
            ),
        )
        rule, report = learn_correction(
            blocked, "m", "d", {("c1", "t"), ("c2", "u")}
        )
        assert rule is None
        assert report.reason == "NO_ADMISSIBLE_PAIR"
        assert all(not g.admissible for g in report.pair_guards)

        # One pair at 3/4 against base 1/2: admitted, and exactly that pair.
        admitted = make_log(
            rec("b1", predicted={"b"}, ground_truth={"b"}),
            rec("b2", predicted={"b"}, ground_truth=set()),
            *(
                rec(
                    f"p{i}",
                    predicted={"a"},
                    ground_truth={"b"} if i < 3 else set(),
                    conditions={"c1"},
                )
                for i in range(4)
            ),
        )
        rule, report = learn_correction(admitted, "m", "b", {("c1", "a")})
        assert rule is not None
        assert rule.pairs == {("c1", "a")}
        assert report.base_precision.value == Fraction(1, 2)
        assert report.final_precision.value == Fraction(3, 4)
        t.done("hypothesis-pattern refused; 3/4-vs-1/2 pair admitted exactly")


# ---------------------------------------------------------------------------
# 7. Invariance witness
# ---------------------------------------------------------------------------

def test_acceptance_7_invariance_witness():
    with _Timer("A7 invariance witness", 5.0) as t:
        cfg = SynthConfig.from_dict(
            {
                "seed": 99,
                "n_records": 4000,
                "model_id": "m",
                "labels": ["a", "b"],
                "class_priors": {"a": "1/2", "b": "1/2"},
                "confusion": {
                    "a": [{"predicted": ["a"], "weight": 1}],
                    "b": [
                        {"predicted": ["a"], "weight": "1/2"},
                        {"predicted": ["b"], "weight": "1/2"},
                    ],
                },
                "planted_conditions": [
                    {"condition_id": "c1", "target_class": "a",
                     "target_support": "1/4", "target_confidence": "9/10"}
                ],
                "distributions": [
                    {"tag": "d1", "record_fraction": "1/2"},
                    {"tag": "d2", "record_fraction": "1/2",
                     "confidence_override": {"c1": "0"}},
                ],
            }
        )
        log, _ = generate(cfg)
        profile = invariance_profile(log, "m", "a", BODY_C1)
        assert profile.row_for("d1").verdict is Verdict.YES
        assert profile.row_for("d2").verdict is Verdict.NO
        assert profile.invariant is False
        t.done("verdicts YES(d1)/NO(d2); invariant=false")


# ---------------------------------------------------------------------------
# 8. Round-trips and determinism
# ---------------------------------------------------------------------------

def _run_pipeline(base):
    config = {
        "seed": 2718,
        "n_records": 2000,
        "model_id": "m",
        "labels": ["a", "b", "c"],
        "class_priors": {"a": "1/5", "b": "2/5", "c": "2/5"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [
                {"predicted": ["a"], "weight": "1/2"},
                {"predicted": ["b"], "weight": "1/2"},
            ],
            "c": [{"predicted": ["c"], "weight": 1}],
        },
        "planted_conditions": [
            {"condition_id": "c1", "target_class": "a",
             "target_support": "1/2", "target_confidence": "9/10"}
        ],
    }
    (base / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    assert main(["synth", "--config", "config.json", "--out", "synth"]) == 0
    assert main(
        ["learn-detection", "--log", "synth/log.jsonl", "--model", "m", "--class", "a",
         "--condition", "c1", "--epsilon", "3/20", "--out", "learn"]
    ) == 0
    assert main(["apply", "--log", "synth/log.jsonl", "--rules", "learn/rules.json",
                 "--out", "applied"]) == 0
    assert main(["eval", "--before", "synth/log.jsonl", "--after", "applied/applied.jsonl",
                 "--out", "deltas"]) == 0


def test_acceptance_8_roundtrips_and_determinism(tmp_path, monkeypatch):
    with _Timer("A8 round-trips and pipeline determinism", 10.0) as t:
        # Log serialization round-trips bit-exact.
        log_a = load_log(LOG_A_TEXT)
        synth_log, _ = generate(_planted_config(1))
        for log in (log_a, synth_log):
            text = serialize_log(log)
            assert load_log(text) == log
            assert serialize_log(load_log(text)) == text

        # Rule files round-trip bit-exact.
        rule, _ = learn_detection(synth_log, "m", "a", ["c1", "c2"], LearnConfig(epsilon=Fraction(3, 20)))
        from errata import RuleSet

        rules = RuleSet(detections=(rule,))
        rule_text = dumps_rules(rules)
        assert loads_rules(rule_text) == rules
        assert dumps_rules(loads_rules(rule_text)) == rule_text

        # Theorem reports round-trip bit-exact.
        rep = check_precision_change(log_a, "m", "a", BODY_C1)
        rep_text = json.dumps(rep.to_dict(), indent=2)
        assert TheoremReport.from_dict(json.loads(rep_text)) == rep
        assert json.dumps(TheoremReport.from_dict(json.loads(rep_text)).to_dict(), indent=2) == rep_text

        # Full pipeline is byte-identical across two runs with one manifest.
        runs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            _run_pipeline(base)
            runs.append(base)
        files = sorted(
            p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file()
        )
        assert any(p.name == "manifest.json" for p in files)
        for rel in files:
            a = (runs[0] / rel).read_bytes()
            b = (runs[1] / rel).read_bytes()
            assert a == b, f"pipeline output differs: {rel}"
        t.done(f"{len(files)} pipeline files byte-identical; all serializations round-trip")
