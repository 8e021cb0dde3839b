"""Exact conditional-probability estimation over prediction logs.

All estimates are plain empirical frequencies: count(event ∧ given) over
count(given), kept as integer count pairs. A zero conditioning count makes
the estimate UNDEFINED — a value, not an error — and undefinedness
propagates through derived quantities. Every count comes from
``joint_counts``, which reads the log's bitset index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .logs import PredictionLog, PredictionRecord
from .rational import format_rational


class Verdict(str, Enum):
    """Three-valued answer for checks whose inputs may be undefined."""

    YES = "YES"
    NO = "NO"
    UNDEFINED = "UNDEFINED"


@dataclass(frozen=True, slots=True)
class Probability:
    """Empirical conditional probability as an exact count ratio.

    ``denominator == 0`` encodes UNDEFINED (the conditioning event never
    occurs); the ``value`` property then returns None.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator < 0 or self.denominator < 0:
            raise ValueError("event counts must be nonnegative")
        if self.numerator > self.denominator:
            raise ValueError("numerator count exceeds denominator count")

    @property
    def defined(self) -> bool:
        return self.denominator > 0

    @property
    def value(self) -> Fraction | None:
        if self.denominator == 0:
            return None
        return Fraction(self.numerator, self.denominator)

    def to_dict(self) -> dict:
        return {
            "numerator": self.numerator,
            "denominator": self.denominator,
            "value": format_rational(self.value),
        }


@dataclass(frozen=True, slots=True)
class ConditionBody:
    """Disjunctive set of condition ids.

    The body holds for a record when at least one of its ids is among the
    record's observed conditions; ids the log never observed simply never
    hold (zero support).
    """

    condition_ids: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.condition_ids, frozenset):
            object.__setattr__(self, "condition_ids", frozenset(self.condition_ids))
        if not self.condition_ids:
            raise ValueError("a condition body must name at least one condition")
        if not all(isinstance(c, str) and c for c in self.condition_ids):
            raise ValueError("condition ids must be nonempty strings")

    @classmethod
    def of(cls, *ids: str) -> "ConditionBody":
        return cls(frozenset(ids))

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.condition_ids))

    def holds_for(self, record: PredictionRecord) -> bool:
        return not self.condition_ids.isdisjoint(record.conditions)


@dataclass(frozen=True, slots=True)
class MetricBundle:
    """Headline statistics for one (model, class, body) triple.

    rule_precision / rule_recall are the post-erasure figures: what
    precision and recall become if every prediction of the class made
    while the body holds is withdrawn. k_factor is support / (1 − support)
    and is UNDEFINED at support = 1; residual is 1 − precision.
    """

    precision: Probability
    recall: Probability
    rule_precision: Probability
    rule_recall: Probability
    support: Probability
    confidence: Probability
    k_factor: Fraction | None
    residual: Fraction | None

    def to_dict(self) -> dict:
        return {
            "precision": self.precision.to_dict(),
            "recall": self.recall.to_dict(),
            "rule_precision": self.rule_precision.to_dict(),
            "rule_recall": self.rule_recall.to_dict(),
            "support": self.support.to_dict(),
            "confidence": self.confidence.to_dict(),
            "k_factor": format_rational(self.k_factor),
            "residual": format_rational(self.residual),
        }


@dataclass(frozen=True, slots=True)
class JointCounts:
    """Event counts for (class α, body[, correction class β]) over one scope."""

    total: int
    gt: int              # α ∈ gt
    pred: int            # α predicted
    pred_gt: int         # α predicted ∧ α ∈ gt
    pred_body: int       # α predicted ∧ body holds
    pred_body_gt: int    # ... ∧ α ∈ gt
    beta_pred: int = 0           # β predicted
    beta_pred_beta_gt: int = 0   # β predicted ∧ β ∈ gt
    pred_body_beta_gt: int = 0   # α predicted ∧ body ∧ β ∈ gt
    union: int = 0               # β predicted ∨ (α predicted ∧ body)
    union_beta_gt: int = 0       # ... ∧ β ∈ gt


def joint_counts(
    log: PredictionLog,
    alpha: str,
    body: ConditionBody | Iterable[str] | None = None,
    beta: str | None = None,
    *,
    model_id: str | None = None,
    distribution: str | None = None,
) -> JointCounts:
    """Counts over the records of ``model_id`` (every model for None),
    narrowed to one distribution tag when one is given.

    The body holds where any of its condition ids does; an empty or None
    body never holds. The β fields stay 0 unless ``beta`` is given.
    """
    ids = body.condition_ids if isinstance(body, ConditionBody) else body or ()
    ix = log.index
    scope = ix.scope(model_id, distribution)
    gt = ix.ground_truth.get(alpha, 0) & scope
    pred = ix.predicted.get(alpha, 0) & scope
    body_mask = 0
    for cid in ids:
        body_mask |= ix.conditions.get(cid, 0)
    pred_body = pred & body_mask
    masks = [scope, gt, pred, pred & gt, pred_body, pred_body & gt]
    if beta is not None:
        beta_gt = ix.ground_truth.get(beta, 0)
        beta_pred = ix.predicted.get(beta, 0) & scope
        union = beta_pred | pred_body
        masks += [beta_pred, beta_pred & beta_gt, pred_body & beta_gt, union, union & beta_gt]
    return JointCounts(*(mask.bit_count() for mask in masks))


def bundle_from_counts(c: JointCounts) -> MetricBundle:
    precision = Probability(c.pred_gt, c.pred)
    recall = Probability(c.pred_gt, c.gt)
    support = Probability(c.pred_body, c.pred)
    confidence = Probability(c.pred_body - c.pred_body_gt, c.pred_body)
    rule_precision = Probability(c.pred_gt - c.pred_body_gt, c.pred - c.pred_body)
    rule_recall = Probability(c.pred_gt - c.pred_body_gt, c.gt)
    s = support.value
    k_factor = None if s is None or s == 1 else s / (1 - s)
    p = precision.value
    residual = None if p is None else 1 - p
    return MetricBundle(
        precision=precision,
        recall=recall,
        rule_precision=rule_precision,
        rule_recall=rule_recall,
        support=support,
        confidence=confidence,
        k_factor=k_factor,
        residual=residual,
    )


def metric_bundle(
    log: PredictionLog, model_id: str, alpha: str, body: ConditionBody
) -> MetricBundle:
    """All eight statistics for one class and body on the model's records."""
    return bundle_from_counts(joint_counts(log, alpha, body, model_id=model_id))


def f1_value(precision: Probability, recall: Probability) -> Fraction | None:
    """Harmonic mean 2PR/(P+R); UNDEFINED when either side is, or P+R = 0."""
    p, r = precision.value, recall.value
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def error_detecting_from_counts(c: JointCounts) -> Verdict:
    if c.pred == 0 or c.pred_body == 0:
        return Verdict.UNDEFINED
    # Non-strict by definition: equality still counts as error detecting.
    conditioned = Fraction(c.pred_body_gt, c.pred_body)
    base = Fraction(c.pred_gt, c.pred)
    return Verdict.YES if conditioned <= base else Verdict.NO


def is_error_detecting(
    log: PredictionLog,
    model_id: str,
    alpha: str,
    body: ConditionBody,
    distribution: str | None = None,
) -> Verdict:
    """Does the body's truth fail to raise conditional precision for alpha?

    YES iff P(alpha ∈ gt | alpha predicted, body) ≤ P(alpha ∈ gt | alpha
    predicted) on the (model, distribution) slice; UNDEFINED when either
    side has a zero conditioning count.
    """
    c = joint_counts(log, alpha, body, model_id=model_id, distribution=distribution)
    return error_detecting_from_counts(c)


@dataclass(frozen=True, slots=True)
class InvarianceRow:
    distribution: str
    verdict: Verdict
    confidence: Probability
    confidence_gap: Fraction | None

    def to_dict(self) -> dict:
        return {
            "distribution": self.distribution,
            "verdict": self.verdict.value,
            "confidence": self.confidence.to_dict(),
            "confidence_gap": format_rational(self.confidence_gap),
        }


@dataclass(frozen=True)
class InvarianceProfile:
    """Per-distribution error-detecting verdicts for one condition body.

    ``invariant`` is True iff every *defined* verdict is YES. The gap
    column is |per-distribution confidence − pooled confidence|, i.e. how
    far each distribution sits from the unsliced estimate.
    """

    rows: tuple[InvarianceRow, ...]
    pooled_confidence: Probability
    invariant: bool

    def row_for(self, distribution: str) -> InvarianceRow:
        for row in self.rows:
            if row.distribution == distribution:
                return row
        raise KeyError(distribution)

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "pooled_confidence": self.pooled_confidence.to_dict(),
            "invariant": self.invariant,
        }


def invariance_profile(
    log: PredictionLog, model_id: str, alpha: str, body: ConditionBody
) -> InvarianceProfile:
    pooled = joint_counts(log, alpha, body, model_id=model_id)
    pooled_conf = bundle_from_counts(pooled).confidence
    rows = []
    for tag in sorted(log.distribution_universe):
        c = joint_counts(log, alpha, body, model_id=model_id, distribution=tag)
        conf = bundle_from_counts(c).confidence
        gap = None
        if conf.value is not None and pooled_conf.value is not None:
            gap = abs(conf.value - pooled_conf.value)
        rows.append(InvarianceRow(tag, error_detecting_from_counts(c), conf, gap))
    invariant = all(row.verdict is not Verdict.NO for row in rows)
    return InvarianceProfile(tuple(rows), pooled_conf, invariant)
