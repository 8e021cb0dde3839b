"""Independent oracle for the theorem checks: each statement written once
with ``Fraction`` arithmetic, as the paper states it, with the skip rules
of the library. Returns (verdict, skip_reason, note, intermediates) for a
``JointCounts`` tuple; the intermediates are named and ordered as in a
``TheoremReport``.

``reference_sweep`` is the sweep as a plain per-pair loop: it builds each
trial's log, counts every (trial, class, condition) pair on it with
``joint_counts`` (``reference_pairs``) and evaluates the library's
statements on each, on Python ints (``theorems._outcome``, not the
column evaluation), for comparison with ``errata.sweep``.
"""

from fractions import Fraction

import numpy as np

from errata import TheoremId, TheoremVerdict, serialize_log, theorems
from errata.estimators import joint_counts
from errata.synth import condition_alphabet, label_alphabet, random_log

HOLDS, VIOLATED, SKIPPED = TheoremVerdict.HOLDS, TheoremVerdict.VIOLATED, TheoremVerdict.SKIPPED
NEVER_PREDICTED = "class never predicted"
NO_COOCCURRENCE = "condition never co-occurs with a prediction"
SUPPORT_ONE = "support is 1; post-rule precision undefined"


def ratio(num, den):
    return Fraction(num, den) if den else None


def base(c):
    p, s = ratio(c.pred_gt, c.pred), ratio(c.pred_body, c.pred)
    return {
        "precision": p,
        "rule_precision": ratio(c.pred_gt - c.pred_body_gt, c.pred - c.pred_body),
        "support": s,
        "confidence": ratio(c.pred_body - c.pred_body_gt, c.pred_body),
        "k_factor": None if s is None or s == 1 else s / (1 - s),
        "residual": None if p is None else 1 - p,
    }


def _outcome(holds, note=None, **inter):
    return (HOLDS if holds else VIOLATED, None, note, inter)


def t1(c, q):
    if not c.pred or c.pred_body == c.pred:
        return (SKIPPED, SUPPORT_ONE if c.pred else NEVER_PREDICTED, None, {})
    lhs = q["rule_precision"] - q["precision"]
    rhs = 0 if not c.pred_body else q["k_factor"] * (q["confidence"] - q["residual"])
    closed = q["precision"] if not c.pred_body else (
        (q["precision"] - (1 - q["confidence"]) * q["support"]) / (1 - q["support"]))
    return _outcome(lhs == rhs and q["rule_precision"] == closed, lhs=lhs, rhs=Fraction(rhs),
                    closed_form_rule_precision=closed)


def claim1(c, q):
    if not c.pred or c.pred_body == c.pred:
        return (SKIPPED, SUPPORT_ONE if c.pred else NEVER_PREDICTED, None, {})
    expected = q["precision"] if not c.pred_body else (
        (q["precision"] - (1 - q["confidence"]) * q["support"]) / (1 - q["support"]))
    return _outcome(q["rule_precision"] == expected, expected_rule_precision=expected)


def _biconditional_skip(c):
    if not c.pred:
        return NEVER_PREDICTED
    return NO_COOCCURRENCE if not c.pred_body else SUPPORT_ONE if c.pred_body == c.pred else None


def t2(c, q):
    if reason := _biconditional_skip(c):
        return (SKIPPED, reason, None, {})
    detecting = 1 - q["confidence"] <= q["precision"]
    return _outcome(detecting == (q["rule_precision"] >= q["precision"]),
                    f"error_detecting={'YES' if detecting else 'NO'}",
                    correct_rate_under_body=1 - q["confidence"])


def t3(c, q):
    recall, rule_recall = ratio(c.pred_gt, c.gt), ratio(c.pred_gt - c.pred_body_gt, c.gt)
    inter = {"recall": recall, "rule_recall": rule_recall,
             "correct_rate_under_body": ratio(c.pred_body_gt, c.pred_body)}
    if not c.gt or not c.pred or (c.pred_body and not c.pred_gt):
        reason = ("class never in ground truth" if not c.gt else NEVER_PREDICTED if not c.pred
                  else "precision is zero (division by zero on the right)")
        return (SKIPPED, reason, None, inter)
    rhs = Fraction(0) if not c.pred_body else (
        inter["correct_rate_under_body"] * q["support"] * recall / q["precision"])
    return _outcome(recall - rule_recall == rhs, **inter, lhs=recall - rule_recall, rhs=rhs)


def corollary(c, q):
    if not c.pred or not c.pred_body:
        return (SKIPPED, "error-detecting verdict undefined", None, {})
    inter = {"correct_rate_under_body": 1 - q["confidence"]}
    if 1 - q["confidence"] > q["precision"]:
        return (HOLDS, None, "condition not error detecting; bound vacuous", inter)
    if c.pred == c.pred_gt:
        return (SKIPPED, "class always correct; bound side undefined", None, inter)
    bound = Fraction(c.pred_body - c.pred_body_gt, c.pred - c.pred_gt)
    return _outcome(q["support"] <= bound, **inter, support_bound=bound)


def eq7(c, q):
    if reason := _biconditional_skip(c):
        return (SKIPPED, reason, None, {})
    return _outcome((q["confidence"] > q["residual"]) == (q["rule_precision"] > q["precision"]))


def t4(c, q):
    base_p, pair = ratio(c.beta_pred_beta_gt, c.beta_pred), ratio(c.pred_body_beta_gt, c.pred_body)
    pooled = ratio(c.beta_pred_beta_gt + c.pred_body_beta_gt, c.beta_pred + c.pred_body)
    inter = {"base_precision": base_p, "pair_precision": pair, "combined_precision": pooled,
             "set_union_precision": ratio(c.union_beta_gt, c.union)}
    if base_p is None or pair is None:
        reason = "correction class never predicted" if base_p is None else "pair event never occurs"
        return (SKIPPED, reason, None, inter)
    if pair > base_p:
        return (HOLDS, None, "hypothesis not met; implication vacuous", inter)
    return _outcome(base_p >= pooled, **inter)


STATEMENTS = {
    TheoremId.T1_PRECISION_CHANGE: t1,
    TheoremId.CLAIM1_APPENDIX: claim1,
    TheoremId.T2_EDNS: t2,
    TheoremId.T3_RECALL_REDUCTION: t3,
    TheoremId.COROLLARY_SUPPORT_BOUND: corollary,
    TheoremId.EQ7_RESIDUAL: eq7,
    TheoremId.T4_RECLASS_LIMIT: t4,
}


def oracle(theorem_id, c):
    """(verdict, skip_reason, note, intermediates) for one statement."""
    q = base(c)
    verdict, reason, note, inter = STATEMENTS[theorem_id](c, q)
    if theorem_id is not TheoremId.T4_RECLASS_LIMIT:
        inter = {**q, **inter}
    return verdict, reason, note, inter


def reference_pairs(seed, trials, max_records=30, max_labels=4, max_conditions=3):
    """Each (trial, trial seed, log, α, β, condition, count tuple) of
    ``errata.sweep``, in its order, from ``random_log`` and ``joint_counts``."""
    labels = label_alphabet(max_labels)
    conditions = condition_alphabet(max_conditions)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    for trial in range(trials):
        trial_seed = int(trial_seeds[trial])
        log = random_log(trial_seed, max_records=max_records, max_labels=max_labels,
                         max_conditions=max_conditions)
        for i, alpha in enumerate(labels):
            beta = labels[(i + 1) % len(labels)]
            for cid in conditions:
                c = joint_counts(log, alpha, (cid,), beta, model_id="m")
                yield trial, trial_seed, log, alpha, beta, cid, c


def reference_sweep(seed, trials, max_records=30, max_labels=4, max_conditions=3):
    """``errata.sweep``'s result, counting and reporting every pair on its own."""
    counts = {tid: {v: 0 for v in TheoremVerdict} for tid in TheoremId}
    violations = []
    bounds = (max_records, max_labels, max_conditions)
    for trial, trial_seed, log, alpha, beta, cid, c in reference_pairs(seed, trials, *bounds):
        for tid in theorems.STATEMENTS:
            verdict = theorems._outcome(tid, c)[0]
            counts[tid][verdict] += 1
            if verdict is VIOLATED:
                report = theorems._report(tid, c, "m", alpha, (cid,), beta)
                violations.append(theorems.SweepViolation(
                    trial, trial_seed, tid, alpha, cid, report.correction_class,
                    report, serialize_log(log)))
    return theorems.SweepResult(seed, trials, *bounds, counts, tuple(violations))
