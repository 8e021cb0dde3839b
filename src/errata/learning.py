"""Greedy rule learning with exact-rational scoring.

Detection rules are grown one condition at a time: each step adds the
candidate that maximizes the objective of the enlarged body among the
candidates that keep the class's recall reduction within the epsilon
budget, and stops when no feasible candidate strictly improves. Ties
always break toward the lexicographically smallest condition id (then
trigger class), so learning is deterministic regardless of candidate
iteration order. An exhaustive subset oracle is provided for small
candidate sets to audit greedy quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .estimators import (
    ConditionBody,
    MetricBundle,
    Probability,
    joint_counts,
    metric_bundle,
)
from .logs import InputError, PredictionLog
from .rational import as_fraction, format_rational
from .rules import CorrectionRule, DetectionRule


class Objective(str, Enum):
    PRECISION_GAIN = "PRECISION_GAIN"
    SUPPORT_TIMES_CONFIDENCE = "SUPPORT_TIMES_CONFIDENCE"
    F1 = "F1"


# NONE reasons
UNDEFINED_BASE = "UNDEFINED_BASE"
INFEASIBLE = "INFEASIBLE"
NO_IMPROVEMENT = "NO_IMPROVEMENT"
NO_ADMISSIBLE_PAIR = "NO_ADMISSIBLE_PAIR"


@dataclass(frozen=True)
class LearnConfig:
    """Learner settings; epsilon bounds the allowed recall reduction and is
    read exactly (the float 0.1 is 1/10)."""

    objective: Objective = Objective.PRECISION_GAIN
    epsilon: Fraction = Fraction(1, 20)
    max_body_size: int | None = None

    def __post_init__(self):
        if not isinstance(self.objective, Objective):
            object.__setattr__(self, "objective", Objective(self.objective))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.epsilon < 0:
            raise InputError("epsilon must be nonnegative")
        if self.max_body_size is not None and self.max_body_size < 1:
            raise ValueError("max_body_size must be positive")


@dataclass(frozen=True, slots=True)
class LearnStep:
    added: str | tuple[str, str]
    objective_before: Fraction | None
    objective_after: Fraction | None
    recall_reduction: Fraction | None

    def to_dict(self) -> dict:
        added = (
            {"condition": self.added[0], "trigger_class": self.added[1]}
            if isinstance(self.added, tuple)
            else self.added
        )
        return {
            "added": added,
            "objective_before": format_rational(self.objective_before),
            "objective_after": format_rational(self.objective_after),
            "recall_reduction": format_rational(self.recall_reduction),
        }


@dataclass(frozen=True, slots=True)
class GuardCheck:
    """Per-candidate precision-improvement guard, singleton body.

    Erasing on the condition raises precision iff its confidence exceeds
    the model's residual; ``improves_precision`` is None when either side
    is undefined.
    """

    condition_id: str
    confidence: Probability
    residual: Fraction | None
    improves_precision: bool | None

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "confidence": self.confidence.to_dict(),
            "residual": format_rational(self.residual),
            "improves_precision": self.improves_precision,
        }


@dataclass(frozen=True, slots=True)
class PairGuard:
    """Admissibility of one correction pair against the base precision."""

    condition_id: str
    trigger_class: str
    pair_precision: Probability
    base_precision: Probability
    admissible: bool

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "trigger_class": self.trigger_class,
            "pair_precision": self.pair_precision.to_dict(),
            "base_precision": self.base_precision.to_dict(),
            "admissible": self.admissible,
        }


@dataclass(frozen=True)
class LearnReport:
    outcome: str                        # "RULE" or "NONE"
    reason: str | None
    baseline_objective: Fraction | None
    # Detection settings; None (and absent from to_dict) for correction
    # reports, whose learner reads neither.
    objective: Objective | None = None
    epsilon: Fraction | None = None
    steps: tuple[LearnStep, ...] = ()
    guards: tuple[GuardCheck, ...] = ()
    pair_guards: tuple[PairGuard, ...] = ()
    final_metrics: MetricBundle | None = None
    base_precision: Probability | None = None
    final_precision: Probability | None = None

    def to_dict(self) -> dict:
        out = {} if self.objective is None else {
            "objective": self.objective.value,
            "epsilon": format_rational(self.epsilon),
        }
        out.update({
            "outcome": self.outcome,
            "reason": self.reason,
            "baseline_objective": format_rational(self.baseline_objective),
            "steps": [s.to_dict() for s in self.steps],
            "guards": [g.to_dict() for g in self.guards],
            "pair_guards": [g.to_dict() for g in self.pair_guards],
            "final_metrics": None if self.final_metrics is None else self.final_metrics.to_dict(),
            "base_precision": None if self.base_precision is None else self.base_precision.to_dict(),
            "final_precision": None if self.final_precision is None else self.final_precision.to_dict(),
        })
        if self.objective is Objective.F1:
            out["objective_note"] = (
                "F1 objective scores the post-rule F1 of the target class; it is a "
                "stand-in, not a ratio-maximization formulation"
            )
        return out


# ---------------------------------------------------------------------------
# Detection learning
# ---------------------------------------------------------------------------

def _objective_value(
    objective: Objective,
    n_pred: int,
    n_pred_gt: int,
    n_gt: int,
    pred_body: int,
    pred_body_gt: int,
) -> Fraction | None:
    """Objective of a body from its counts; None when undefined.

    SUPPORT_TIMES_CONFIDENCE collapses to (body-covered errors)/predictions,
    which makes the zero-support case an exact 0 rather than undefined.
    """
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


def learn_detection(
    log: PredictionLog,
    model_id: str,
    alpha: str,
    candidates,
    cfg: LearnConfig | None = None,
) -> tuple[DetectionRule | None, LearnReport]:
    """Grow a detection body greedily under the recall-reduction budget.

    Returns (None, report) when alpha is never predicted on the slice
    (UNDEFINED_BASE), when no candidate fits the budget (INFEASIBLE), or
    when nothing strictly improves the objective (NO_IMPROVEMENT). A class
    absent from the ground truth has no recall to lose, so its budget is
    vacuously satisfied.
    """
    cfg = cfg or LearnConfig()
    candidate_ids = sorted(set(candidates))
    base = joint_counts(log, alpha, model_id=model_id)
    if base.pred == 0:
        report = LearnReport(
            objective=cfg.objective,
            epsilon=cfg.epsilon,
            outcome="NONE",
            reason=UNDEFINED_BASE,
            baseline_objective=None,
        )
        return None, report

    residual = 1 - Fraction(base.pred_gt, base.pred)
    guards = []
    for cid in candidate_ids:
        c = joint_counts(log, alpha, (cid,), model_id=model_id)
        confidence = Probability(c.pred_body - c.pred_body_gt, c.pred_body)
        improves = None if confidence.value is None else confidence.value > residual
        guards.append(GuardCheck(cid, confidence, residual, improves))

    baseline = _objective_value(cfg.objective, base.pred, base.pred_gt, base.gt, 0, 0)

    body: list[str] = []
    current = baseline
    steps: list[LearnStep] = []
    first_step_had_feasible = False
    while cfg.max_body_size is None or len(body) < cfg.max_body_size:
        best: tuple[Fraction, str, Fraction | None] | None = None
        for cid in candidate_ids:
            if cid in body:
                continue
            c = joint_counts(log, alpha, (*body, cid), model_id=model_id)
            reduction = Fraction(c.pred_body_gt, c.gt) if c.gt else None
            if reduction is not None and reduction > cfg.epsilon:
                continue
            if not body:
                first_step_had_feasible = True
            value = _objective_value(
                cfg.objective, c.pred, c.pred_gt, c.gt, c.pred_body, c.pred_body_gt
            )
            if value is None:
                continue
            if current is not None and value <= current:
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
            objective=cfg.objective,
            epsilon=cfg.epsilon,
            outcome="NONE",
            reason=reason,
            baseline_objective=baseline,
            guards=tuple(guards),
        )
        return None, report

    rule = DetectionRule(model_id, alpha, ConditionBody(frozenset(body)))
    report = LearnReport(
        objective=cfg.objective,
        epsilon=cfg.epsilon,
        outcome="RULE",
        reason=None,
        baseline_objective=baseline,
        steps=tuple(steps),
        guards=tuple(guards),
        final_metrics=metric_bundle(log, model_id, alpha, rule.body),
    )
    return rule, report


# ---------------------------------------------------------------------------
# Correction learning
# ---------------------------------------------------------------------------

def learn_correction(
    log: PredictionLog,
    model_id: str,
    beta: str,
    candidate_pairs,
    cfg: LearnConfig | None = None,
) -> tuple[CorrectionRule | None, LearnReport]:
    """Grow a correction pair set under the relabeling precision guard.

    A pair (condition, trigger) is admissible only when the precision of
    beta over the pair's firing event strictly exceeds beta's base
    precision (with an undefined base, any pair of positive precision).
    Each step adds the admissible pair maximizing the combined-body
    precision; learning stops when nothing improves it. Pair statistics
    are measured on the given (pre-detection) log, matching the trigger
    semantics of rule application.
    """
    cfg = cfg or LearnConfig()
    pairs = sorted(set(candidate_pairs))
    ix = log.index
    scope = ix.scope(model_id)
    beta_gt = ix.ground_truth.get(beta, 0)

    def precision(records: int) -> Probability:
        """Precision of beta over a mask of (relabeled) records."""
        return Probability((records & beta_gt).bit_count(), records.bit_count())

    base = precision(scope & ix.predicted.get(beta, 0))
    fires: dict[tuple[str, str], int] = {}
    pair_guards = []
    admissible: list[tuple[str, str]] = []
    for cond, trig in pairs:
        fires[(cond, trig)] = scope & ix.predicted.get(trig, 0) & ix.conditions.get(cond, 0)
        pair_prec = precision(fires[(cond, trig)])
        if base.value is not None:
            ok = pair_prec.value is not None and pair_prec.value > base.value
        else:
            ok = pair_prec.value is not None and pair_prec.value > 0
        pair_guards.append(PairGuard(cond, trig, pair_prec, base, ok))
        if ok:
            admissible.append((cond, trig))

    chosen: list[tuple[str, str]] = []
    covered = 0  # records where some chosen pair fires
    current: Fraction | None = None
    steps: list[LearnStep] = []
    while cfg.max_body_size is None or len(chosen) < cfg.max_body_size:
        best = None
        for pair in admissible:
            if pair in chosen:
                continue
            value = precision(covered | fires[pair]).value
            if value is None:
                continue
            if current is not None and value <= current:
                continue
            if best is None or value > best[0]:
                best = (value, pair)
        if best is None:
            break
        value, pair = best
        steps.append(LearnStep(pair, current, value, None))
        covered |= fires[pair]
        chosen.append(pair)
        current = value

    if not chosen:
        report = LearnReport(
            outcome="NONE",
            reason=NO_ADMISSIBLE_PAIR,
            baseline_objective=base.value,
            pair_guards=tuple(pair_guards),
            base_precision=base,
        )
        return None, report

    rule = CorrectionRule(model_id, beta, frozenset(chosen))
    report = LearnReport(
        outcome="RULE",
        reason=None,
        baseline_objective=base.value,
        steps=tuple(steps),
        pair_guards=tuple(pair_guards),
        base_precision=base,
        final_precision=precision(covered),
    )
    return rule, report


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def exhaustive_oracle(
    log: PredictionLog,
    model_id: str,
    alpha: str,
    candidates,
    cfg: LearnConfig | None = None,
) -> tuple[frozenset[str] | None, Fraction | None]:
    """Best feasible body by brute force over every nonempty subset.

    Returns (None, None) when no feasible subset strictly beats the
    empty-body objective. Ties break toward the smaller body, then the
    lexicographically smaller id tuple; subsets are visited in that order,
    so the first maximum wins. Candidate sets above 20 ids are rejected.
    """
    cfg = cfg or LearnConfig()
    ids = sorted(set(candidates))
    if len(ids) > 20:
        raise ValueError(f"candidate set too large for enumeration ({len(ids)} > 20)")

    base = joint_counts(log, alpha, model_id=model_id)
    if base.pred == 0:
        return None, None

    baseline = _objective_value(cfg.objective, base.pred, base.pred_gt, base.gt, 0, 0)
    best_body: frozenset[str] | None = None
    best_value: Fraction | None = None
    for size in range(1, len(ids) + 1):
        if cfg.max_body_size is not None and size > cfg.max_body_size:
            break
        for subset in combinations(ids, size):
            c = joint_counts(log, alpha, subset, model_id=model_id)
            if c.gt and Fraction(c.pred_body_gt, c.gt) > cfg.epsilon:
                continue
            value = _objective_value(
                cfg.objective, c.pred, c.pred_gt, c.gt, c.pred_body, c.pred_body_gt
            )
            if value is None:
                continue
            if baseline is not None and value <= baseline:
                continue
            if best_value is None or value > best_value:
                best_body, best_value = frozenset(subset), value
    return best_body, best_value
