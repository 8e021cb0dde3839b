"""Exact conditional-probability estimation over prediction logs.

All estimates are plain empirical frequencies: count(event ∧ given) over
count(given), kept as integer count pairs. A zero conditioning count makes
the estimate UNDEFINED — a value, not an error — and undefinedness
propagates through derived quantities. Every count is a ``bit_count`` on
masks of one view of the log's index (``LogIndex.view``), through
``joint_counts`` or a mask read from a view: a count over class α's
predictions alone from α's view, whose masks span only the rows
predicting α, and a count that involves a correction class β from the
view of the whole scope.

Counting comes first, judging second. A decision (is a body error
detecting, does it raise precision, which candidate scores higher) is
made on counts already taken, comparing unreduced integer ``(num, den)``
ratios by cross-multiplication: the learners judge each body from its
two counts (the predictions it erases and the correct ones among them),
and ``bundle_from_counts`` builds a bundle from counts a caller already
holds. ``Fraction`` and ``Probability`` are built only for values a
report carries.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .logs import _NO_COUNTS, PredictionLog, _Frozen, _set
from .rational import format_rational

if TYPE_CHECKING:
    from .bundles import MetricBundle


# ---------------------------------------------------------------------------
# Integer ratios: (num, den) pairs, den > 0, never reduced
# ---------------------------------------------------------------------------

Ratio = tuple[int, int]
_ZERO: Ratio = (0, 1)
_ONE: Ratio = (1, 1)


def _sub(x: Ratio, y: Ratio) -> Ratio:
    return (x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def _mul(x: Ratio, y: Ratio) -> Ratio:
    return (x[0] * y[0], x[1] * y[1])


def _div(x: Ratio, y: Ratio) -> Ratio:
    # Callers divide only by a positive ratio, so the denominator stays
    # positive.
    return (x[0] * y[1], x[1] * y[0])


def _eq(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def _le(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _lt(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] < y[0] * x[1]


def _fraction(r: Ratio | None) -> Fraction | None:
    return None if r is None else Fraction(*r)


class Verdict(str, Enum):
    """Three-valued answer for checks whose inputs may be undefined."""

    YES = "YES"
    NO = "NO"
    UNDEFINED = "UNDEFINED"


class Probability(_Frozen):
    """Empirical conditional probability as an exact count ratio.

    ``denominator == 0`` encodes UNDEFINED (the conditioning event never
    occurs); the ``value`` property then returns None.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if numerator < 0 or denominator < 0:
            raise ValueError("event counts must be nonnegative")
        if numerator > denominator:
            raise ValueError("numerator count exceeds denominator count")
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)

    @property
    def defined(self) -> bool:
        return self.denominator > 0

    @property
    def value(self) -> Fraction | None:
        if self.denominator == 0:
            return None
        return Fraction(self.numerator, self.denominator)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "value": format_rational(self.value)}


class ConditionBody(_Frozen):
    """Disjunctive set of condition ids.

    The body holds for a record when at least one of its ids is among the
    record's observed conditions; ids the log never observed simply never
    hold (zero support).
    """

    __slots__ = ("condition_ids",)

    def __init__(self, condition_ids: Iterable[str]):
        condition_ids = frozenset(condition_ids)
        if not condition_ids:
            raise ValueError("a condition body must name at least one condition")
        if not all(isinstance(c, str) and c for c in condition_ids):
            raise ValueError("condition ids must be nonempty strings")
        _set(self, "condition_ids", condition_ids)

    @classmethod
    def of(cls, *ids: str) -> "ConditionBody":
        return cls(frozenset(ids))

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.condition_ids))


class JointCounts(NamedTuple):
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


def body_mask(conditions: dict[str, int], ids: Iterable[str]) -> int:
    """The OR of the ids' masks in ``conditions``, a view's: where any of
    the condition ids holds. Ids without a mask hold nowhere."""
    mask = 0
    for cid in ids:
        mask |= conditions.get(cid, 0)
    return mask


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
    body never holds. The β fields stay 0 unless ``beta`` is given: then
    every count is read from the view of the whole scope.
    """
    ids = body.condition_ids if isinstance(body, ConditionBody) else body or ()
    if beta is None:  # without β, α's view holds every count
        view = log.index.view(model_id, alpha)
        pred_body = body_mask(view.conditions, ids)
        if distribution is not None:
            pred_body &= view.distributions.get(distribution, 0)
        return JointCounts(*view.counts.get(distribution, _NO_COUNTS),
                           pred_body.bit_count(), (pred_body & view.correct).bit_count())
    view = log.index.view(model_id, None)
    pred, gt = view.predicted.get(alpha, 0), view.ground_truth.get(alpha, 0)
    beta_pred, beta_gt = view.predicted.get(beta, 0), view.ground_truth.get(beta, 0)
    if distribution is not None:  # every count below ands one of these three
        rows = view.distributions.get(distribution, 0)
        pred, gt, beta_pred = pred & rows, gt & rows, beta_pred & rows
    pred_body = pred & body_mask(view.conditions, ids)
    union = beta_pred | pred_body
    return JointCounts(
        view.counts.get(distribution, _NO_COUNTS)[0], gt.bit_count(), pred.bit_count(),
        (pred & gt).bit_count(), pred_body.bit_count(), (pred_body & gt).bit_count(),
        beta_pred.bit_count(), (beta_pred & beta_gt).bit_count(), (pred_body & beta_gt).bit_count(),
        union.bit_count(), (union & beta_gt).bit_count(),
    )


class _Base(NamedTuple):
    """The count ratios that judge a rule, each None when undefined: the
    only definition of precision, post-rule precision, support,
    confidence, K and residual. Every check but T4 reads and reports them,
    in this order."""

    precision: Ratio | None
    rule_precision: Ratio | None
    support: Ratio | None
    confidence: Ratio | None
    k_factor: Ratio | None
    residual: Ratio | None


def _base_ratios(c: JointCounts) -> _Base:
    """The ratios of ``_base``, with a zero denominator where ``_base`` has
    None; on count columns (numpy arrays) as on counts."""
    n, b = c.pred, c.pred_body
    precision, support = (c.pred_gt, n), (b, n)
    return _Base(precision, (c.pred_gt - c.pred_body_gt, n - b), support, (b - c.pred_body_gt, b),
                 _div(support, _sub(_ONE, support)), _sub(_ONE, precision))


def _base(c: JointCounts) -> _Base:
    return _Base._make([r if r[1] else None for r in _base_ratios(c)])


def _probability(r: Ratio | None) -> Probability:
    # An undefined ratio of ``_base`` has a zero numerator count as well.
    return Probability(*(r or (0, 0)))


def _recall_ratios(c: JointCounts) -> tuple[Ratio, Ratio]:
    """Recall of α before and after the rule erases α where the body
    holds: the only definition of both, with a zero denominator when α is
    never in the ground truth; on count columns as on counts."""
    return (c.pred_gt, c.gt), (c.pred_gt - c.pred_body_gt, c.gt)


def _recalls(c: JointCounts) -> tuple[Ratio | None, Ratio | None]:
    """``_recall_ratios``, each None when α is never in the ground truth."""
    return _recall_ratios(c) if c.gt else (None, None)


_MetricBundle = None  # bundles.MetricBundle, imported by the first bundle_from_counts call


def bundle_from_counts(c: JointCounts) -> MetricBundle:
    """The ratios of ``_base`` as report values, with recall before and
    after the rule. ``errata.bundles`` is imported by the first call and
    kept, so that only a bundle's caller loads ``dataclasses``."""
    global _MetricBundle
    if _MetricBundle is None:
        from .bundles import MetricBundle as _MetricBundle

    q = _base(c)
    recall, rule_recall = _recalls(c)
    return _MetricBundle(
        _probability(q.precision), _probability(recall), _probability(q.rule_precision),
        _probability(rule_recall), _probability(q.support), _probability(q.confidence),
        _fraction(q.k_factor), _fraction(q.residual),
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


def _error_detecting(pred: int, pred_gt: int, pred_body: int, pred_body_gt: int) -> Verdict:
    """YES iff P(α ∈ gt | α predicted, body) ≤ P(α ∈ gt | α predicted):
    the body's truth does not raise α's precision. UNDEFINED when either
    side has a zero conditioning count."""
    if pred == 0 or pred_body == 0:
        return Verdict.UNDEFINED
    # Non-strict by definition: equality still counts as error detecting.
    conditioned_le_base = pred_body_gt * pred <= pred_gt * pred_body
    return Verdict.YES if conditioned_le_base else Verdict.NO


class InvarianceRow(_Frozen):
    __slots__ = ("distribution", "verdict", "confidence", "confidence_gap")
    _rationals = ("confidence_gap",)


class InvarianceProfile(_Frozen):
    """Per-distribution error-detecting verdicts for one condition body.

    ``invariant`` is True iff every *defined* verdict is YES. The gap
    column is |per-distribution confidence − pooled confidence|, i.e. how
    far each distribution sits from the unsliced estimate.
    """

    __slots__ = ("rows", "pooled_confidence", "invariant")

    def row_for(self, distribution: str) -> InvarianceRow:
        for row in self.rows:
            if row.distribution == distribution:
                return row
        raise KeyError(distribution)


def invariance_profile(
    log: PredictionLog, model_id: str, alpha: str, body: ConditionBody
) -> InvarianceProfile:
    """Each tag's counts are the pooled body masks of α's view narrowed
    by the tag's mask."""
    view = log.index.view(model_id, alpha)
    pred_body = body_mask(view.conditions, body.condition_ids)
    pred_body_gt = pred_body & view.correct
    pb, pbg = pred_body.bit_count(), pred_body_gt.bit_count()
    pooled_conf = Probability(pb - pbg, pb)
    rows = []
    for tag in log.index.tags:
        d = view.distributions.get(tag, 0)
        b, bg = (pred_body & d).bit_count(), (pred_body_gt & d).bit_count()
        conf = Probability(b - bg, b)
        # |(b - bg)/b - (pb - pbg)/pb|, cross-multiplied
        gap = Fraction(abs((b - bg) * pb - (pb - pbg) * b), b * pb) if b and pb else None
        _, _, pred, pred_gt = view.counts.get(tag, _NO_COUNTS)
        verdict = _error_detecting(pred, pred_gt, b, bg)
        rows.append(InvarianceRow(tag, verdict, conf, gap))
    invariant = all(row.verdict is not Verdict.NO for row in rows)
    return InvarianceProfile(tuple(rows), pooled_conf, invariant)
