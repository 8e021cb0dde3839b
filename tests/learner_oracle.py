"""Reference learners: the greedy detection learner scored with
``Fraction`` arithmetic through ``joint_counts`` on every candidate, the
greedy correction learner scored with ``Fraction`` arithmetic by walking
the model's records for every candidate pair set, and the subset oracle by
brute force over every subset, each with the tie rules of the library.
``learn_detection`` and ``learn_correction`` return the same
``LearnReport`` the library builds; ``exhaustive_oracle`` the same
(body, value) pair.
"""

from fractions import Fraction
from itertools import combinations

from errata import (
    ConditionBody,
    CorrectionRule,
    DetectionRule,
    GuardCheck,
    LearnConfig,
    LearnReport,
    LearnStep,
    Objective,
    PairGuard,
    Probability,
    joint_counts,
    metric_bundle,
)
from errata.learning import INFEASIBLE, NO_ADMISSIBLE_PAIR, NO_IMPROVEMENT, UNDEFINED_BASE


def objective_value(objective, n_pred, n_pred_gt, n_gt, pred_body, pred_body_gt):
    """Objective of a body from its counts, as the paper states it; None
    when undefined."""
    if objective is Objective.SUPPORT_TIMES_CONFIDENCE:
        return Fraction(pred_body - pred_body_gt, n_pred)
    if pred_body == n_pred:
        return None  # every prediction erased: post-rule precision undefined
    post_precision = Fraction(n_pred_gt - pred_body_gt, n_pred - pred_body)
    if objective is Objective.PRECISION_GAIN:
        return post_precision - Fraction(n_pred_gt, n_pred)
    if n_gt == 0:
        return None
    post_recall = Fraction(n_pred_gt - pred_body_gt, n_gt)
    if post_precision + post_recall == 0:
        return None
    return 2 * post_precision * post_recall / (post_precision + post_recall)


def _value(cfg, c):
    return objective_value(cfg.objective, c.pred, c.pred_gt, c.gt, c.pred_body, c.pred_body_gt)


def learn_detection(log, model_id, alpha, candidates, cfg=None):
    cfg = cfg or LearnConfig()
    candidate_ids = sorted(set(candidates))
    base = joint_counts(log, alpha, model_id=model_id)
    if base.pred == 0:
        report = LearnReport(
            objective=cfg.objective, epsilon=cfg.epsilon, outcome="NONE",
            reason=UNDEFINED_BASE, baseline_objective=None,
        )
        return None, report

    residual = 1 - Fraction(base.pred_gt, base.pred)
    guards = []
    for cid in candidate_ids:
        c = joint_counts(log, alpha, (cid,), model_id=model_id)
        confidence = Probability(c.pred_body - c.pred_body_gt, c.pred_body)
        improves = None if confidence.value is None else confidence.value > residual
        guards.append(GuardCheck(cid, confidence, residual, improves))

    baseline = _value(cfg, base)
    body, current, steps = [], baseline, []
    first_step_had_feasible = False
    while cfg.max_body_size is None or len(body) < cfg.max_body_size:
        best = None
        for cid in candidate_ids:
            if cid in body:
                continue
            c = joint_counts(log, alpha, (*body, cid), model_id=model_id)
            reduction = Fraction(c.pred_body_gt, c.gt) if c.gt else None
            if reduction is not None and reduction > cfg.epsilon:
                continue
            if not body:
                first_step_had_feasible = True
            value = _value(cfg, c)
            if value is None or (current is not None and value <= current):
                continue
            if best is None or value > best[0]:
                best = (value, cid, reduction)
        if best is None:
            break
        value, cid, reduction = best
        steps.append(LearnStep(cid, current, value, reduction))
        body.append(cid)
        current = value

    if not body:
        reason = NO_IMPROVEMENT if first_step_had_feasible or not candidate_ids else INFEASIBLE
        report = LearnReport(
            objective=cfg.objective, epsilon=cfg.epsilon, outcome="NONE", reason=reason,
            baseline_objective=baseline, guards=tuple(guards),
        )
        return None, report

    rule = DetectionRule(model_id, alpha, ConditionBody(frozenset(body)))
    report = LearnReport(
        objective=cfg.objective, epsilon=cfg.epsilon, outcome="RULE", reason=None,
        baseline_objective=baseline, steps=tuple(steps), guards=tuple(guards),
        final_metrics=metric_bundle(log, model_id, alpha, rule.body),
    )
    return rule, report


def learn_correction(log, model_id, beta, candidate_pairs, cfg=None):
    """A pair is admissible when beta's precision over the records it fires
    on beats beta's base precision (any positive precision when the base is
    undefined); each step adds the admissible pair whose union with the
    chosen ones has the strictly highest precision, the first in sorted
    order on a tie, while that strictly beats the current precision."""
    cfg = cfg or LearnConfig()
    records = [r for r in log.records if r.model_id == model_id]

    def precision(pair_set):
        """beta's precision over the records where some pair fires."""
        firing = [
            r for r in records
            if any(c in r.conditions and t in r.predicted for c, t in pair_set)
        ]
        return Probability(sum(beta in r.ground_truth for r in firing), len(firing))

    predicted = [r for r in records if beta in r.predicted]
    base = Probability(sum(beta in r.ground_truth for r in predicted), len(predicted))
    bar = base.value if base.defined else Fraction(0)
    guards, admissible = [], []
    for pair in sorted(set(candidate_pairs)):
        pair_precision = precision({pair})
        ok = pair_precision.defined and pair_precision.value > bar
        guards.append(PairGuard(*pair, pair_precision, base, ok))
        if ok:
            admissible.append(pair)

    chosen, current, steps = [], None, []
    while cfg.max_body_size is None or len(chosen) < cfg.max_body_size:
        best = None
        for pair in admissible:
            if pair in chosen:
                continue
            value = precision({*chosen, pair}).value
            if value is None or (current is not None and value <= current):
                continue
            if best is None or value > best[0]:
                best = (value, pair)
        if best is None:
            break
        value, pair = best
        steps.append(LearnStep(pair, current, value, None))
        chosen.append(pair)
        current = value

    if not chosen:
        report = LearnReport(
            outcome="NONE", reason=NO_ADMISSIBLE_PAIR, baseline_objective=base.value,
            pair_guards=tuple(guards), base_precision=base,
        )
        return None, report
    report = LearnReport(
        outcome="RULE", reason=None, baseline_objective=base.value, steps=tuple(steps),
        pair_guards=tuple(guards), base_precision=base, final_precision=precision(chosen),
    )
    return CorrectionRule(model_id, beta, frozenset(chosen)), report


def exhaustive_oracle(log, model_id, alpha, candidates, cfg=None):
    """Every nonempty subset by size, then in lexicographic id order; the
    first maximum wins."""
    cfg = cfg or LearnConfig()
    ids = sorted(set(candidates))
    base = joint_counts(log, alpha, model_id=model_id)
    if base.pred == 0:
        return None, None
    baseline = _value(cfg, base)
    best_body = best_value = None
    for size in range(1, len(ids) + 1):
        if cfg.max_body_size is not None and size > cfg.max_body_size:
            break
        for subset in combinations(ids, size):
            c = joint_counts(log, alpha, subset, model_id=model_id)
            if c.gt and Fraction(c.pred_body_gt, c.gt) > cfg.epsilon:
                continue
            value = _value(cfg, c)
            if value is None or (baseline is not None and value <= baseline):
                continue
            if best_value is None or value > best_value:
                best_body, best_value = frozenset(subset), value
    return best_body, best_value
