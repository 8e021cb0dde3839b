"""Greedy rule learning with exact-rational scoring.

Detection rules are grown one condition at a time: each step adds the
candidate that maximizes the objective of the enlarged body among the
candidates that keep the class's recall reduction within the epsilon
budget, and stops when no feasible candidate strictly improves. Ties
always break toward the lexicographically smallest condition id (then
trigger class), so learning is deterministic regardless of candidate
iteration order.

Every detection decision is made on integer counts read from the
class's view of the log's index, whose masks span only the rows that
predict the class: a body's mask is the OR of its conditions' masks, and
feasibility and every objective comparison are cross-multiplications of
unreduced ``(num, den)`` ratios. ``Fraction`` values are built only for
the report. A subset oracle, exact by branch
and bound, audits greedy quality on candidate sets of up to 20 ids.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .estimators import (
    _ZERO,
    ConditionBody,
    Probability,
    Ratio,
    _eq,
    _fraction,
    _le,
    _lt,
    _sub,
    metric_bundle,
)
from .logs import InputError, PredictionLog, _Frozen, _set
from .rational import as_fraction, format_rational
from .rules import CorrectionRule, DetectionRule

if TYPE_CHECKING:
    from .bundles import MetricBundle


class Objective(str, Enum):
    PRECISION_GAIN = "PRECISION_GAIN"
    SUPPORT_TIMES_CONFIDENCE = "SUPPORT_TIMES_CONFIDENCE"
    F1 = "F1"


# NONE reasons
UNDEFINED_BASE = "UNDEFINED_BASE"
INFEASIBLE = "INFEASIBLE"
NO_IMPROVEMENT = "NO_IMPROVEMENT"
NO_ADMISSIBLE_PAIR = "NO_ADMISSIBLE_PAIR"


class LearnConfig(_Frozen):
    """Learner settings; epsilon bounds the allowed recall reduction and is
    read exactly (the float 0.1 is 1/10)."""

    __slots__ = ("objective", "epsilon", "max_body_size")

    def __init__(self, objective: Objective = Objective.PRECISION_GAIN,
                 epsilon: Fraction = Fraction(1, 20), max_body_size: int | None = None):
        objective = objective if isinstance(objective, Objective) else Objective(objective)
        epsilon = as_fraction(epsilon, "epsilon")
        if epsilon < 0:
            raise InputError("epsilon must be nonnegative")
        if max_body_size is not None and max_body_size < 1:
            raise ValueError("max_body_size must be positive")
        _set(self, "objective", objective)
        _set(self, "epsilon", epsilon)
        _set(self, "max_body_size", max_body_size)


class LearnStep(_Frozen):
    __slots__ = ("added", "objective_before", "objective_after", "recall_reduction")

    def __init__(self, added: str | tuple[str, str], objective_before: Fraction | None,
                 objective_after: Fraction | None, recall_reduction: Fraction | None):
        _set(self, "added", added)
        _set(self, "objective_before", objective_before)
        _set(self, "objective_after", objective_after)
        _set(self, "recall_reduction", recall_reduction)

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


class GuardCheck(_Frozen):
    """Per-candidate precision-improvement guard, singleton body.

    Erasing on the condition raises precision iff its confidence exceeds
    the model's residual; ``improves_precision`` is None when either side
    is undefined.
    """

    __slots__ = ("condition_id", "confidence", "residual", "improves_precision")

    def __init__(self, condition_id: str, confidence: Probability, residual: Fraction | None,
                 improves_precision: bool | None):
        _set(self, "condition_id", condition_id)
        _set(self, "confidence", confidence)
        _set(self, "residual", residual)
        _set(self, "improves_precision", improves_precision)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "confidence": self.confidence.to_dict(),
            "residual": format_rational(self.residual),
            "improves_precision": self.improves_precision,
        }


class PairGuard(_Frozen):
    """Admissibility of one correction pair against the base precision."""

    __slots__ = ("condition_id", "trigger_class", "pair_precision", "base_precision", "admissible")

    def __init__(self, condition_id: str, trigger_class: str, pair_precision: Probability,
                 base_precision: Probability, admissible: bool):
        _set(self, "condition_id", condition_id)
        _set(self, "trigger_class", trigger_class)
        _set(self, "pair_precision", pair_precision)
        _set(self, "base_precision", base_precision)
        _set(self, "admissible", admissible)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "trigger_class": self.trigger_class,
            "pair_precision": self.pair_precision.to_dict(),
            "base_precision": self.base_precision.to_dict(),
            "admissible": self.admissible,
        }


class LearnReport(_Frozen):
    """What a learner did: its outcome ("RULE" or "NONE"), the reason for
    NONE and every step and guard. The detection settings ``objective``
    and ``epsilon`` are None (and absent from to_dict) for correction
    reports, whose learner reads neither."""

    __slots__ = ("outcome", "reason", "baseline_objective", "objective", "epsilon", "steps",
                 "guards", "pair_guards", "final_metrics", "base_precision", "final_precision")

    def __init__(self, outcome: str, reason: str | None, baseline_objective: Fraction | None,
                 objective: Objective | None = None, epsilon: Fraction | None = None,
                 steps: tuple[LearnStep, ...] = (), guards: tuple[GuardCheck, ...] = (),
                 pair_guards: tuple[PairGuard, ...] = (),
                 final_metrics: MetricBundle | None = None,
                 base_precision: Probability | None = None,
                 final_precision: Probability | None = None):
        _set(self, "outcome", outcome)
        _set(self, "reason", reason)
        _set(self, "baseline_objective", baseline_objective)
        _set(self, "objective", objective)
        _set(self, "epsilon", epsilon)
        _set(self, "steps", steps)
        _set(self, "guards", guards)
        _set(self, "pair_guards", pair_guards)
        _set(self, "final_metrics", final_metrics)
        _set(self, "base_precision", base_precision)
        _set(self, "final_precision", final_precision)

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

def _objective_ratio(
    objective: Objective,
    n_pred: int,
    n_pred_gt: int,
    n_gt: int,
    pred_body: int,
    pred_body_gt: int,
) -> Ratio | None:
    """Objective of a body from its counts, as an unreduced ratio with a
    positive denominator (given n_pred > 0); None when undefined.

    SUPPORT_TIMES_CONFIDENCE collapses to (body-covered errors)/predictions,
    which makes the zero-support case an exact 0 rather than undefined.
    With kept = n_pred − pred_body predictions left and kept_gt =
    n_pred_gt − pred_body_gt of them correct, the precision gain is
    kept_gt/kept − n_pred_gt/n_pred and F1 is 2·kept_gt/(kept + n_gt).
    """
    if objective is Objective.SUPPORT_TIMES_CONFIDENCE:
        return (pred_body - pred_body_gt, n_pred)
    kept = n_pred - pred_body
    if kept == 0:
        return None  # every prediction erased: post-rule precision undefined
    if objective is Objective.PRECISION_GAIN:
        return (n_pred_gt * pred_body - pred_body_gt * n_pred, n_pred * kept)
    kept_gt = n_pred_gt - pred_body_gt
    if n_gt == 0 or kept_gt == 0:
        return None  # recall undefined, or precision + recall = 0
    return (2 * kept_gt, kept + n_gt)


def _objective_value(
    objective: Objective,
    n_pred: int,
    n_pred_gt: int,
    n_gt: int,
    pred_body: int,
    pred_body_gt: int,
) -> Fraction | None:
    """Objective of a body from its counts; None when undefined."""
    return _fraction(_objective_ratio(objective, n_pred, n_pred_gt, n_gt, pred_body, pred_body_gt))


class _Kernel:
    """Scoring of condition bodies for one (log, model, class α).

    Reads α's view of the model's rows (``LogIndex.view``): ``mask`` gives
    a condition's mask over α's predictions, so a body's mask is the OR of
    its conditions' masks and its counts are two ``bit_count`` calls.
    """

    __slots__ = ("objective", "epsilon", "conditions", "pred_gt", "n_pred", "n_pred_gt", "n_gt")

    def __init__(self, log: PredictionLog, model_id: str, alpha: str, cfg: LearnConfig):
        view = log.index.view(model_id, alpha)
        self.objective = cfg.objective
        self.epsilon = (cfg.epsilon.numerator, cfg.epsilon.denominator)
        self.conditions = view.conditions
        self.pred_gt = view.correct
        _, self.n_gt, self.n_pred, self.n_pred_gt = view.counts[None]

    def mask(self, cid: str) -> int:
        return self.conditions.get(cid, 0)

    def counts(self, mask: int) -> tuple[int, int]:
        """(pred_body, pred_body_gt) of a body mask."""
        return mask.bit_count(), (mask & self.pred_gt).bit_count()

    def feasible(self, pred_body_gt: int) -> bool:
        """Recall reduction pred_body_gt/gt within epsilon; a class absent
        from the ground truth has no recall to lose."""
        num, den = self.epsilon
        return pred_body_gt * den <= num * self.n_gt

    def value(self, pred_body: int, pred_body_gt: int) -> Ratio | None:
        return _objective_ratio(
            self.objective, self.n_pred, self.n_pred_gt, self.n_gt, pred_body, pred_body_gt
        )


def _grow(masks: dict, score, start: Ratio | None, max_size: int | None):
    """The greedy step loop of both learners.

    ``masks`` maps each candidate, in sorted order, to the records it
    covers. A step adds the candidate whose union with the covered mask
    scores strictly highest, and strictly above the current value (at
    first ``start``, the value of the empty set; None when undefined);
    ``score(mask)`` returns None when that union may not be chosen. Ties
    go to the candidate met first, and at most ``max_size`` steps are
    taken. Returns (chosen candidates, steps), each step (candidate,
    value before, value after, covered mask after).
    """
    chosen: list = []
    steps = []
    covered = 0
    current = start
    while max_size is None or len(chosen) < max_size:
        best = None
        for key, mask in masks.items():
            if key in chosen:
                continue
            union = covered | mask
            value = score(union)
            if value is None or current is not None and _le(value, current):
                continue
            if best is None or _lt(best[0], value):
                best = (value, key, union)
        if best is None:
            break
        value, key, covered = best
        steps.append((key, current, value, covered))
        chosen.append(key)
        current = value
    return chosen, steps


def _grow_body(k: _Kernel, ids: list[str], max_body_size: int | None):
    """``_grow`` over condition ids under the recall-reduction budget."""

    def score(mask: int) -> Ratio | None:
        pb, pbg = k.counts(mask)
        return k.value(pb, pbg) if k.feasible(pbg) else None

    return _grow({cid: k.mask(cid) for cid in ids}, score, k.value(0, 0), max_body_size)


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
    k = _Kernel(log, model_id, alpha, cfg)
    if k.n_pred == 0:
        report = LearnReport(
            objective=cfg.objective,
            epsilon=cfg.epsilon,
            outcome="NONE",
            reason=UNDEFINED_BASE,
            baseline_objective=None,
        )
        return None, report

    # Erasing on a condition raises precision iff its confidence
    # (pb − pbg)/pb exceeds the residual (n_pred − n_pred_gt)/n_pred.
    residual_num = k.n_pred - k.n_pred_gt
    residual = Fraction(residual_num, k.n_pred)
    guards = []
    any_feasible = False  # is some body of one condition within the budget?
    for cid in candidate_ids:
        pb, pbg = k.counts(k.mask(cid))
        any_feasible = any_feasible or k.feasible(pbg)
        improves = None if pb == 0 else (pb - pbg) * k.n_pred > residual_num * pb
        guards.append(GuardCheck(cid, Probability(pb - pbg, pb), residual, improves))

    baseline = _fraction(k.value(0, 0))
    body, ratio_steps = _grow_body(k, candidate_ids, cfg.max_body_size)

    if not body:
        reason = NO_IMPROVEMENT if any_feasible or not candidate_ids else INFEASIBLE
        report = LearnReport(
            objective=cfg.objective,
            epsilon=cfg.epsilon,
            outcome="NONE",
            reason=reason,
            baseline_objective=baseline,
            guards=tuple(guards),
        )
        return None, report

    steps = tuple(
        LearnStep(cid, _fraction(before), _fraction(after),
                  Fraction(k.counts(mask)[1], k.n_gt) if k.n_gt else None)
        for cid, before, after, mask in ratio_steps
    )
    rule = DetectionRule(model_id, alpha, ConditionBody(frozenset(body)))
    report = LearnReport(
        objective=cfg.objective,
        epsilon=cfg.epsilon,
        outcome="RULE",
        reason=None,
        baseline_objective=baseline,
        steps=steps,
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

    def precision(records: int) -> Ratio:
        """Precision of beta over a mask of (relabeled) records, as
        (correct, records); undefined when records is 0."""
        return (records & beta_gt).bit_count(), records.bit_count()

    base_ratio = precision(scope & ix.predicted.get(beta, 0))
    base = Probability(*base_ratio)
    # With an undefined base, any pair of positive precision is admissible.
    bar = base_ratio if base_ratio[1] else _ZERO
    pair_guards = []
    admissible: dict[tuple[str, str], int] = {}  # pair → records it fires on
    for cond, trig in pairs:
        fires = scope & ix.predicted.get(trig, 0) & ix.conditions.get(cond, 0)
        pair_prec = precision(fires)
        ok = pair_prec[1] > 0 and _lt(bar, pair_prec)
        pair_guards.append(PairGuard(cond, trig, Probability(*pair_prec), base, ok))
        if ok:
            admissible[(cond, trig)] = fires

    # Every union of admissible pairs fires somewhere, so each may be chosen.
    chosen, ratio_steps = _grow(admissible, precision, None, cfg.max_body_size)
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
        steps=tuple(
            LearnStep(pair, _fraction(before), Fraction(*after), None)
            for pair, before, after, _ in ratio_steps
        ),
        pair_guards=tuple(pair_guards),
        base_precision=base,
        final_precision=Probability(*ratio_steps[-1][2]),
    )
    return rule, report


# ---------------------------------------------------------------------------
# Subset oracle
# ---------------------------------------------------------------------------

def _upper_bound(k: _Kernel, pred_body_gt: int, errors_reachable: int) -> Ratio:
    """Bound on the objective of every body between S and U = S ∪ R.

    Adding a condition never un-erases a prediction, so such a body erases
    at least the x_S = ``pred_body_gt`` correct predictions S erases and
    at most the e_U = ``errors_reachable`` errors U covers. Precision
    after the rule is at most (n_pred_gt − x_S)/(n_pred_gt − x_S + errors
    − e_U), support × confidence at most e_U/n_pred, and F1 at most
    2(n_pred_gt − x_S)/(n_pred − x_S − e_U + n_gt). A zero denominator
    leaves no correct prediction, so the bound on precision and F1 is 0.
    """
    n_pred = k.n_pred
    if k.objective is Objective.SUPPORT_TIMES_CONFIDENCE:
        return (errors_reachable, n_pred)
    kept_gt = k.n_pred_gt - pred_body_gt
    kept = n_pred - pred_body_gt - errors_reachable
    if k.objective is Objective.PRECISION_GAIN:
        post = (kept_gt, kept) if kept else _ZERO
        return _sub(post, (k.n_pred_gt, n_pred))
    return (2 * kept_gt, kept + k.n_gt) if kept + k.n_gt else _ZERO


def exhaustive_oracle(
    log: PredictionLog,
    model_id: str,
    alpha: str,
    candidates,
    cfg: LearnConfig | None = None,
) -> tuple[frozenset[str] | None, Fraction | None]:
    """Best feasible body over every nonempty subset, by branch and bound.

    Returns (None, None) when no feasible subset strictly beats the
    empty-body objective. Ties break toward the smaller body, then the
    lexicographically smaller id tuple. Candidate sets above 20 ids are
    rejected.

    The search is depth-first, seeded with the greedy body, and visits
    each subset once. Feasibility is anti-monotone (a superset erases at
    least as many correct predictions), so an infeasible subset ends its
    subtree, and an extension infeasible beside a body is dropped from the
    body's whole subtree. A subtree is skipped when its upper bound
    (``_upper_bound``) is at most the empty-body objective, or strictly
    below the best body found, or equal to it while every body in the
    subtree is larger. These cuts drop only bodies that would lose, and
    ties are decided by explicit comparison, so the visiting order (the
    extensions covering the most errors first) does not change the result.

    Candidates with equal masks over α's predictions (twins, such as ids
    that never fire) are merged first into the one first in sorted order:
    a body that holds a twin in its place scores the same and has a larger
    sorted id tuple, and one that holds both scores as it does without the
    later id.
    """
    cfg = cfg or LearnConfig()
    ids = sorted(set(candidates))
    if len(ids) > 20:
        raise ValueError(f"candidate set too large for enumeration ({len(ids)} > 20)")

    k = _Kernel(log, model_id, alpha, cfg)
    if k.n_pred == 0:
        return None, None
    twins: dict[int, str] = {}  # mask → the first id with it
    for cid in ids:
        twins.setdefault(k.mask(cid), cid)
    ids = list(twins.values())

    baseline = k.value(0, 0)
    errors = ((1 << k.n_pred) - 1) ^ k.pred_gt  # every prediction of α not in its truth

    body, steps = _grow_body(k, ids, cfg.max_body_size)
    best_value = steps[-1][2] if steps else None
    best_body = tuple(sorted(body))

    def beats(value: Ratio, subset: tuple[str, ...]) -> bool:
        """(value, smaller body, smaller ids) order against the best."""
        if best_value is None or _lt(best_value, value):
            return True
        if not _eq(value, best_value):
            return False
        subset = tuple(sorted(subset))
        return (len(subset), subset) < (len(best_body), best_body)

    def search(extensions: list[tuple[str, int]], covered: int, subset: tuple[str, ...]) -> None:
        """Visit subset ∪ {c} for each (c, mask of c) of ``extensions``, and
        under it the subsets that add extensions visited after c."""
        nonlocal best_value, best_body
        children = []
        for cid, cmask in extensions:
            mask = covered | cmask
            pb, pbg = k.counts(mask)
            if k.feasible(pbg):  # no superset of an infeasible body is feasible
                children.append((pbg - pb, cid, cmask, mask, pb, pbg))
        children.sort()  # most errors covered first: later subtrees reach fewer
        reachable = [0] * (len(children) + 1)  # reachable[i]: OR of children[i:]
        for i in range(len(children) - 1, -1, -1):
            reachable[i] = reachable[i + 1] | children[i][3]
        for i, (_, cid, _, mask, pb, pbg) in enumerate(children):
            node = subset + (cid,)
            value = k.value(pb, pbg)
            if value is not None and (baseline is None or _lt(baseline, value)) and beats(value, node):
                best_value, best_body = value, tuple(sorted(node))
            if len(node) == cfg.max_body_size or i + 1 == len(children):
                continue
            bound = _upper_bound(k, pbg, ((reachable[i + 1] | mask) & errors).bit_count())
            # A body under node has more ids than node, so it loses a tie
            # with a best body no larger than node.
            if best_value is not None and (
                _lt(bound, best_value) or _eq(bound, best_value) and len(node) >= len(best_body)
            ):
                continue
            if baseline is not None and _le(bound, baseline):
                continue
            search([(c[1], c[2]) for c in children[i + 1:]], mask, node)

    search([(cid, k.mask(cid)) for cid in ids], 0, ())
    if best_value is None:
        return None, None
    return frozenset(best_body), Fraction(*best_value)
