"""Greedy rule learning with exact-rational scoring.

Detection rules are grown one condition at a time: each step adds the
candidate that maximizes the objective of the enlarged body among the
candidates that keep the class's recall reduction within the epsilon
budget, and stops when no feasible candidate strictly improves. Ties
always break toward the lexicographically smallest condition id (then
trigger class), so learning is deterministic regardless of candidate
iteration order.

Every body is counted, then judged. Detection counts read the class's
view of the log's index, whose masks span only the rows that predict
the class: a body's mask is the OR of its conditions' masks, and its two
counts are the predictions it erases and the correct ones among them.
One score function per objective judges those two counts: it checks
the budget (a count against the largest count ε allows) and returns the
objective as an unreduced ``(num, den)`` ratio, compared by
cross-multiplication. The same function scores each greedy step, each
oracle node and each oracle subtree's bound, and the steps' counts give
the recall reductions and the final metrics. Correction pairs are
counted on the view of the model's whole scope, against β's truth, and
judged by their precision. ``Fraction`` values are built only for the
report. A subset oracle, exact by branch and bound, audits greedy
quality on candidate sets of up to 20 ids.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .estimators import (
    _ZERO,
    ConditionBody,
    JointCounts,
    Probability,
    Ratio,
    _eq,
    _fraction,
    _le,
    _lt,
    bundle_from_counts,
)
from .logs import InputError, PredictionLog, _Frozen, _set
from .rational import as_fraction
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


class LearnConfig(_Frozen):
    """Learner settings; epsilon bounds the allowed recall reduction and is
    read exactly (the float 0.1 is 1/10). A body is admitted while it
    erases at most ⌊ε·gt⌋ correct predictions; ε may exceed 1, and any
    ε ≥ 1 admits every body, as ε = 1 does."""

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
    _rationals = ("objective_before", "objective_after", "recall_reduction")

    def to_dict(self) -> dict:
        out = super().to_dict()
        if isinstance(self.added, tuple):  # a correction step's (condition, trigger class)
            out["added"] = dict(zip(("condition", "trigger_class"), self.added))
        return out


class GuardCheck(_Frozen):
    """Per-candidate precision-improvement guard, singleton body.

    Erasing on the condition raises precision iff its confidence exceeds
    the model's residual; ``improves_precision`` is None when either side
    is undefined.
    """

    __slots__ = ("condition_id", "confidence", "residual", "improves_precision")
    _rationals = ("residual",)


class PairGuard(_Frozen):
    """Admissibility of one correction pair against the base precision."""

    __slots__ = ("condition_id", "trigger_class", "pair_precision", "base_precision", "admissible")


class LearnReport(_Frozen):
    """What a learner did: its outcome ("RULE" or "NONE"), the reason for
    NONE and every step and guard. The detection settings ``objective``
    and ``epsilon`` are None (and absent from to_dict) for correction
    reports, whose learner reads neither."""

    __slots__ = ("outcome", "reason", "baseline_objective", "objective", "epsilon", "steps",
                 "guards", "pair_guards", "final_metrics", "base_precision", "final_precision")
    _defaults = (None, None, (), (), (), None, None, None)  # objective ... final_precision
    _rationals = ("baseline_objective",)

    def to_dict(self) -> dict:
        out = super().to_dict()
        settings = {name: out.pop(name) for name in ("objective", "epsilon")}
        if self.objective is not None:  # the settings lead the report
            out = {**settings, **out}
        if self.objective is Objective.F1:
            out["objective_note"] = (
                "F1 objective scores the post-rule F1 of the target class; it is a "
                "stand-in, not a ratio-maximization formulation"
            )
        return out


# ---------------------------------------------------------------------------
# Detection learning
# ---------------------------------------------------------------------------

def _score_function(cfg: LearnConfig, counts: tuple[int, int, int, int]):
    """The objective's ``score(pb, pbg)`` for class α, and its budget.

    ``counts`` are (total, gt, pred, pred_gt) of α's view of the model's
    rows (``LogIndex.view``), with pred > 0. A body erasing pb of α's
    predictions, pbg of them correct, is within the ε budget when its
    recall reduction pbg/gt is at most ε, that is when pbg ≤ ``limit`` =
    ⌊ε·gt⌋; a class absent from the ground truth has no recall to lose.

    ``score`` returns None when the body is over budget or the objective
    is undefined there, and otherwise the objective as an unreduced
    ``(num, den)`` ratio with a positive denominator; ``score(0, 0)`` is
    the empty body's. A body that adds conditions erases no fewer
    predictions and no fewer correct ones, so a body scored None has no
    superset scored otherwise.

    SUPPORT_TIMES_CONFIDENCE collapses to (body-covered errors)/predictions,
    which makes the zero-support case an exact 0 rather than undefined.
    With kept = pred − pb predictions left and kept_gt = pred_gt − pbg of
    them correct, the precision gain is kept_gt/kept − pred_gt/pred and F1
    is 2·kept_gt/(kept + gt). Returns (score, limit).
    """
    _, n_gt, n_pred, n_pred_gt = counts
    limit = cfg.epsilon.numerator * n_gt // cfg.epsilon.denominator
    if cfg.objective is Objective.SUPPORT_TIMES_CONFIDENCE:
        def score(pb: int, pbg: int) -> Ratio | None:
            return None if pbg > limit else (pb - pbg, n_pred)
    elif cfg.objective is Objective.PRECISION_GAIN:
        def score(pb: int, pbg: int) -> Ratio | None:
            if pbg > limit or pb == n_pred:
                return None  # over budget, or every prediction erased
            return (n_pred_gt * pb - pbg * n_pred, n_pred * (n_pred - pb))
    else:
        def score(pb: int, pbg: int) -> Ratio | None:
            if pbg > limit or pbg == n_pred_gt:
                return None  # over budget, or no correct prediction kept: P + R = 0
            return (2 * (n_pred_gt - pbg), n_pred - pb + n_gt)
    return score, limit


def _grow(masks: dict, hits: int, score, start: Ratio | None, max_size: int | None):
    """The greedy step loop of both learners.

    ``masks`` maps each candidate, in sorted order, to the records it
    covers. A step adds the candidate whose union with the covered mask
    scores strictly highest, and strictly above the current value (at
    first ``start``, the value of the empty set; None when undefined).
    Each union is counted once, its records pb and its records in the
    ``hits`` mask pbg, and judged by ``score(pb, pbg)``: the union's value
    as a ``(num, den)`` ratio with a positive denominator, compared here
    by cross-multiplication, or None when that union may not be chosen.
    Ties go to the candidate met first, and at most ``max_size`` steps
    are taken. Returns (chosen candidates, steps), each step (candidate,
    value after, (pb, pbg) after).
    """
    remaining = dict(masks)
    chosen: list = []
    steps = []
    covered = 0
    current = start
    while max_size is None or len(chosen) < max_size:
        best = None
        bar = current  # the value to beat: the current one, then the best union's
        for key, mask in remaining.items():
            union = covered | mask
            pb, pbg = union.bit_count(), (union & hits).bit_count()
            value = score(pb, pbg)
            if value is not None and (bar is None or bar[0] * value[1] < value[0] * bar[1]):
                bar, best, best_union, best_counts = value, key, union, (pb, pbg)
        if best is None:
            break
        steps.append((best, bar, best_counts))
        chosen.append(best)
        del remaining[best]
        covered, current = best_union, bar
    return chosen, steps


def _learn_steps(start: Fraction | None, steps) -> tuple[LearnStep, ...]:
    """``LearnStep``s from (added, value after as a ratio, recall
    reduction) triples: each step's value before is the previous step's
    value after, the first one's ``start``, each normalized once."""
    out = []
    for added, after, recall_reduction in steps:
        after = Fraction(*after)
        out.append(LearnStep(added, start, after, recall_reduction))
        start = after
    return tuple(out)


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
    view = log.index.view(model_id, alpha)
    _, n_gt, n_pred, n_pred_gt = base = view.counts[None]
    if n_pred == 0:
        report = LearnReport(
            objective=cfg.objective,
            epsilon=cfg.epsilon,
            outcome="NONE",
            reason=UNDEFINED_BASE,
            baseline_objective=None,
        )
        return None, report

    score, limit = _score_function(cfg, base)
    correct = view.correct
    # Erasing on a condition raises precision iff its confidence
    # (pb − pbg)/pb exceeds the residual (n_pred − n_pred_gt)/n_pred.
    residual_num = n_pred - n_pred_gt
    residual = Fraction(residual_num, n_pred)
    guards = []
    masks = {}
    any_feasible = False  # is some body of one condition within the budget?
    for cid in candidate_ids:
        mask = masks[cid] = view.conditions.get(cid, 0)
        pb, pbg = mask.bit_count(), (mask & correct).bit_count()
        any_feasible = any_feasible or pbg <= limit
        improves = None if pb == 0 else (pb - pbg) * n_pred > residual_num * pb
        guards.append(GuardCheck(cid, Probability(pb - pbg, pb), residual, improves))

    start = score(0, 0)
    baseline = _fraction(start)
    body, ratio_steps = _grow(masks, correct, score, start, cfg.max_body_size)

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

    steps = _learn_steps(baseline, [
        (cid, after, Fraction(pbg, n_gt) if n_gt else None) for cid, after, (_, pbg) in ratio_steps])
    rule = DetectionRule(model_id, alpha, ConditionBody(frozenset(body)))
    report = LearnReport(
        objective=cfg.objective,
        epsilon=cfg.epsilon,
        outcome="RULE",
        reason=None,
        baseline_objective=baseline,
        steps=steps,
        guards=tuple(guards),
        final_metrics=bundle_from_counts(JointCounts(*base, *ratio_steps[-1][2])),  # the body's counts
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
    view = log.index.view(model_id, None)
    beta_gt = view.ground_truth.get(beta, 0)

    def precision(pb: int, pbg: int) -> Ratio:
        """Precision of beta over pb (relabeled) records, pbg of them with
        beta in their ground truth; undefined when pb is 0."""
        return pbg, pb

    predicted = view.predicted.get(beta, 0)
    base_ratio = precision(predicted.bit_count(), (predicted & beta_gt).bit_count())
    base = Probability(*base_ratio)
    # With an undefined base, any pair of positive precision is admissible.
    bar = base_ratio if base_ratio[1] else _ZERO
    pair_guards = []
    admissible: dict[tuple[str, str], int] = {}  # pair → records it fires on
    for cond, trig in pairs:
        fires = view.predicted.get(trig, 0) & view.conditions.get(cond, 0)
        pair_prec = precision(fires.bit_count(), (fires & beta_gt).bit_count())
        ok = pair_prec[1] > 0 and _lt(bar, pair_prec)
        pair_guards.append(PairGuard(cond, trig, Probability(*pair_prec), base, ok))
        if ok:
            admissible[(cond, trig)] = fires

    # Every union of admissible pairs fires somewhere, so each may be chosen.
    chosen, ratio_steps = _grow(admissible, beta_gt, precision, None, cfg.max_body_size)
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
        steps=_learn_steps(None, [(pair, after, None) for pair, after, _ in ratio_steps]),
        pair_guards=tuple(pair_guards),
        base_precision=base,
        final_precision=Probability(*ratio_steps[-1][1]),
    )
    return rule, report


# ---------------------------------------------------------------------------
# Subset oracle
# ---------------------------------------------------------------------------

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
    each subset once, scored from the counts its parent took. A body the
    score rejects has no accepted superset, so it ends its subtree, and
    an extension rejected beside a body is dropped from the body's whole
    subtree. A body under a node S erases at least the x_S correct
    predictions S erases and at most the e_U errors that S and the
    extensions left to it cover; every objective falls with erased correct
    predictions and rises with erased errors, so ``score(x_S + e_U, x_S)``
    bounds the subtree. S is within the budget, so None there means no
    prediction, or no correct one, is left: no body under S beats the
    empty body. A subtree is skipped when its bound is None or at most the
    empty-body objective, or strictly below the best body found, or equal
    to it while every body in the subtree is larger. These cuts drop only
    bodies that would lose, and ties are decided by explicit comparison,
    so the visiting order (the extensions covering the most errors first)
    does not change the result.

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

    view = log.index.view(model_id, alpha)
    base = view.counts[None]
    n_pred = base[2]
    if n_pred == 0:
        return None, None
    twins: dict[int, str] = {}  # mask → the first id with it
    for cid in ids:
        twins.setdefault(view.conditions.get(cid, 0), cid)
    masks = {cid: mask for mask, cid in twins.items()}

    score, _ = _score_function(cfg, base)
    correct = view.correct
    baseline = score(0, 0)
    errors = ((1 << n_pred) - 1) ^ correct  # every prediction of α not in its truth

    body, steps = _grow(masks, correct, score, baseline, cfg.max_body_size)
    best_value = steps[-1][1] if steps else None
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
            pb, pbg = mask.bit_count(), (mask & correct).bit_count()
            value = score(pb, pbg)
            if value is not None:  # no superset of a rejected body is accepted
                children.append((pbg - pb, cid, cmask, mask, pbg, value))
        children.sort()  # most errors covered first: later subtrees reach fewer
        reachable = [0] * (len(children) + 1)  # reachable[i]: OR of children[i:]
        for i in range(len(children) - 1, -1, -1):
            reachable[i] = reachable[i + 1] | children[i][3]
        for i, (_, cid, _, mask, pbg, value) in enumerate(children):
            node = subset + (cid,)
            if (baseline is None or _lt(baseline, value)) and beats(value, node):
                best_value, best_body = value, tuple(sorted(node))
            if len(node) == cfg.max_body_size or i + 1 == len(children):
                continue
            bound = score(pbg + ((reachable[i + 1] | mask) & errors).bit_count(), pbg)
            # A body under node has more ids than node, so it loses a tie
            # with a best body no larger than node.
            if bound is None or best_value is not None and (
                _lt(bound, best_value) or _eq(bound, best_value) and len(node) >= len(best_body)
            ):
                continue
            if baseline is not None and _le(bound, baseline):
                continue
            search([(c[1], c[2]) for c in children[i + 1:]], mask, node)

    search(list(masks.items()), 0, ())
    if best_value is None:
        return None, None
    return frozenset(best_body), Fraction(*best_value)
