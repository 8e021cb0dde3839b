"""Machine checks of the exact identities, equivalences, and bounds that
relate pre- and post-rule precision/recall to support and confidence.

Every check is evaluated on plain count ratios with exact rational
arithmetic, so an identity can only come out VIOLATED if the
implementation itself is wrong; the sweep over random logs treats any
VIOLATED verdict as a fatal self-test failure and captures the offending
log for replay. Checks whose conditioning events never occur report
SKIPPED (a first-class verdict) rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .estimators import ConditionBody, JointCounts, joint_counts
from .logs import serialize_log
from .rational import format_rational, parse_rational


class TheoremId(str, Enum):
    T1_PRECISION_CHANGE = "T1_PRECISION_CHANGE"
    T2_EDNS = "T2_EDNS"
    T3_RECALL_REDUCTION = "T3_RECALL_REDUCTION"
    T4_RECLASS_LIMIT = "T4_RECLASS_LIMIT"
    COROLLARY_SUPPORT_BOUND = "COROLLARY_SUPPORT_BOUND"
    EQ7_RESIDUAL = "EQ7_RESIDUAL"
    CLAIM1_APPENDIX = "CLAIM1_APPENDIX"


class TheoremVerdict(str, Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class TheoremReport:
    """Structured verdict with every quantity the checked statement names."""

    theorem_id: TheoremId
    verdict: TheoremVerdict
    model_id: str
    target_class: str
    condition_ids: tuple[str, ...]
    intermediates: dict[str, Fraction | None] = field(default_factory=dict)
    correction_class: str | None = None
    skip_reason: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id.value,
            "verdict": self.verdict.value,
            "model_id": self.model_id,
            "target_class": self.target_class,
            "condition_ids": list(self.condition_ids),
            "correction_class": self.correction_class,
            "skip_reason": self.skip_reason,
            "note": self.note,
            "intermediates": {
                name: format_rational(value)
                for name, value in self.intermediates.items()
            },
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TheoremReport":
        intermediates = {
            name: None if text == "UNDEFINED" else parse_rational(text)
            for name, text in obj["intermediates"].items()
        }
        return cls(
            theorem_id=TheoremId(obj["theorem_id"]),
            verdict=TheoremVerdict(obj["verdict"]),
            model_id=obj["model_id"],
            target_class=obj["target_class"],
            condition_ids=tuple(obj["condition_ids"]),
            intermediates=intermediates,
            correction_class=obj.get("correction_class"),
            skip_reason=obj.get("skip_reason"),
            note=obj.get("note"),
        )


def _body_ids(body) -> frozenset[str]:
    if isinstance(body, ConditionBody):
        return body.condition_ids
    return frozenset(body)


def _base_quantities(c: JointCounts) -> dict[str, Fraction | None]:
    precision = Fraction(c.pred_gt, c.pred) if c.pred else None
    support = Fraction(c.pred_body, c.pred) if c.pred else None
    confidence = (
        Fraction(c.pred_body - c.pred_body_gt, c.pred_body) if c.pred_body else None
    )
    rule_precision = (
        Fraction(c.pred_gt - c.pred_body_gt, c.pred - c.pred_body)
        if c.pred - c.pred_body > 0
        else None
    )
    k_factor = None
    if support is not None and support != 1:
        k_factor = support / (1 - support)
    return {
        "precision": precision,
        "rule_precision": rule_precision,
        "support": support,
        "confidence": confidence,
        "k_factor": k_factor,
        "residual": None if precision is None else 1 - precision,
    }


# ---------------------------------------------------------------------------
# Individual checks (counts-level, shared by the public API and the sweep)
# ---------------------------------------------------------------------------

def _report(theorem_id, verdict, model_id, alpha, ids, inter, **kw) -> TheoremReport:
    return TheoremReport(
        theorem_id=theorem_id,
        verdict=verdict,
        model_id=model_id,
        target_class=alpha,
        condition_ids=tuple(sorted(ids)),
        intermediates=inter,
        **kw,
    )


def _check_t1(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    if c.pred == 0:
        return _report(
            TheoremId.T1_PRECISION_CHANGE, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="class never predicted",
        )
    if c.pred_body == c.pred:
        return _report(
            TheoremId.T1_PRECISION_CHANGE, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="support is 1; post-rule precision undefined",
        )
    precision = inter["precision"]
    rule_precision = inter["rule_precision"]
    support = inter["support"]
    lhs = rule_precision - precision
    if c.pred_body == 0:
        # Zero support annihilates the right-hand side: K = 0.
        rhs = Fraction(0)
        closed_form = precision
    else:
        rhs = inter["k_factor"] * (inter["confidence"] - inter["residual"])
        closed_form = (precision - (1 - inter["confidence"]) * support) / (1 - support)
    inter["lhs"] = lhs
    inter["rhs"] = rhs
    # Closed form of post-rule precision; its failure would equally be an
    # implementation bug, so it shares the verdict.
    inter["closed_form_rule_precision"] = closed_form
    verdict = (
        TheoremVerdict.HOLDS
        if lhs == rhs and rule_precision == closed_form
        else TheoremVerdict.VIOLATED
    )
    return _report(TheoremId.T1_PRECISION_CHANGE, verdict, model_id, alpha, ids, inter)


def _check_claim1(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    if c.pred == 0:
        return _report(
            TheoremId.CLAIM1_APPENDIX, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="class never predicted",
        )
    if c.pred_body == c.pred:
        return _report(
            TheoremId.CLAIM1_APPENDIX, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="support is 1; post-rule precision undefined",
        )
    precision = inter["precision"]
    support = inter["support"]
    if c.pred_body == 0:
        expected = precision
    else:
        correct_under_body = 1 - inter["confidence"]
        expected = (precision - correct_under_body * support) / (1 - support)
    inter["expected_rule_precision"] = expected
    verdict = (
        TheoremVerdict.HOLDS
        if inter["rule_precision"] == expected
        else TheoremVerdict.VIOLATED
    )
    return _report(TheoremId.CLAIM1_APPENDIX, verdict, model_id, alpha, ids, inter)


def _check_t2(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    if c.pred == 0:
        return _report(
            TheoremId.T2_EDNS, TheoremVerdict.SKIPPED, model_id, alpha, ids, inter,
            skip_reason="class never predicted",
        )
    if c.pred_body == 0:
        return _report(
            TheoremId.T2_EDNS, TheoremVerdict.SKIPPED, model_id, alpha, ids, inter,
            skip_reason="condition never co-occurs with a prediction",
        )
    if c.pred_body == c.pred:
        return _report(
            TheoremId.T2_EDNS, TheoremVerdict.SKIPPED, model_id, alpha, ids, inter,
            skip_reason="support is 1; post-rule precision undefined",
        )
    correct_under_body = 1 - inter["confidence"]
    error_detecting = correct_under_body <= inter["precision"]
    no_worse = inter["rule_precision"] >= inter["precision"]
    inter["correct_rate_under_body"] = correct_under_body
    verdict = (
        TheoremVerdict.HOLDS if error_detecting == no_worse else TheoremVerdict.VIOLATED
    )
    return _report(
        TheoremId.T2_EDNS, verdict, model_id, alpha, ids, inter,
        note=f"error_detecting={'YES' if error_detecting else 'NO'}",
    )


def _check_t3(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    recall = Fraction(c.pred_gt, c.gt) if c.gt else None
    rule_recall = Fraction(c.pred_gt - c.pred_body_gt, c.gt) if c.gt else None
    inter["recall"] = recall
    inter["rule_recall"] = rule_recall
    inter["correct_rate_under_body"] = (
        Fraction(c.pred_body_gt, c.pred_body) if c.pred_body else None
    )
    if c.gt == 0:
        return _report(
            TheoremId.T3_RECALL_REDUCTION, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="class never in ground truth",
        )
    if c.pred == 0:
        return _report(
            TheoremId.T3_RECALL_REDUCTION, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="class never predicted",
        )
    lhs = recall - rule_recall
    if c.pred_body == 0:
        rhs = Fraction(0)  # zero support: nothing erased
    elif c.pred_gt == 0:
        return _report(
            TheoremId.T3_RECALL_REDUCTION, TheoremVerdict.SKIPPED, model_id, alpha,
            ids, inter, skip_reason="precision is zero (division by zero on the right)",
        )
    else:
        rhs = (
            inter["correct_rate_under_body"]
            * inter["support"]
            * recall
            / inter["precision"]
        )
    inter["lhs"] = lhs
    inter["rhs"] = rhs
    verdict = TheoremVerdict.HOLDS if lhs == rhs else TheoremVerdict.VIOLATED
    return _report(TheoremId.T3_RECALL_REDUCTION, verdict, model_id, alpha, ids, inter)


def _check_t4(
    c: JointCounts, model_id: str, alpha: str, beta: str, ids
) -> TheoremReport:
    # The conclusion pools the two prediction events with multiplicity
    # (native β predictions plus relabel decisions): a record satisfying
    # both events contributes to both counts. On multi-label logs the
    # plain set union of the events is *not* bounded by the base
    # precision; it is reported as an informative extra.
    inter: dict[str, Fraction | None] = {}
    base = Fraction(c.beta_pred_beta_gt, c.beta_pred) if c.beta_pred else None
    pair = Fraction(c.pred_body_beta_gt, c.pred_body) if c.pred_body else None
    pooled_den = c.beta_pred + c.pred_body
    pooled = (
        Fraction(c.beta_pred_beta_gt + c.pred_body_beta_gt, pooled_den)
        if pooled_den
        else None
    )
    inter["base_precision"] = base
    inter["pair_precision"] = pair
    inter["combined_precision"] = pooled
    inter["set_union_precision"] = (
        Fraction(c.union_beta_gt, c.union) if c.union else None
    )
    kwargs = {"correction_class": beta}
    if base is None:
        return _report(
            TheoremId.T4_RECLASS_LIMIT, TheoremVerdict.SKIPPED, model_id, alpha, ids,
            inter, skip_reason="correction class never predicted", **kwargs,
        )
    if pair is None:
        return _report(
            TheoremId.T4_RECLASS_LIMIT, TheoremVerdict.SKIPPED, model_id, alpha, ids,
            inter, skip_reason="pair event never occurs", **kwargs,
        )
    hypothesis = pair <= base
    conclusion = base >= pooled
    if not hypothesis:
        return _report(
            TheoremId.T4_RECLASS_LIMIT, TheoremVerdict.HOLDS, model_id, alpha, ids,
            inter, note="hypothesis not met; implication vacuous", **kwargs,
        )
    verdict = TheoremVerdict.HOLDS if conclusion else TheoremVerdict.VIOLATED
    return _report(
        TheoremId.T4_RECLASS_LIMIT, verdict, model_id, alpha, ids, inter, **kwargs
    )


def _check_corollary(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    if c.pred == 0 or c.pred_body == 0:
        return _report(
            TheoremId.COROLLARY_SUPPORT_BOUND, TheoremVerdict.SKIPPED, model_id,
            alpha, ids, inter, skip_reason="error-detecting verdict undefined",
        )
    correct_under_body = 1 - inter["confidence"]
    inter["correct_rate_under_body"] = correct_under_body
    if correct_under_body > inter["precision"]:
        return _report(
            TheoremId.COROLLARY_SUPPORT_BOUND, TheoremVerdict.HOLDS, model_id, alpha,
            ids, inter, note="condition not error detecting; bound vacuous",
        )
    errors = c.pred - c.pred_gt
    if errors == 0:
        return _report(
            TheoremId.COROLLARY_SUPPORT_BOUND, TheoremVerdict.SKIPPED, model_id,
            alpha, ids, inter, skip_reason="class always correct; bound side undefined",
        )
    bound = Fraction(c.pred_body - c.pred_body_gt, errors)
    inter["support_bound"] = bound
    verdict = (
        TheoremVerdict.HOLDS if inter["support"] <= bound else TheoremVerdict.VIOLATED
    )
    return _report(TheoremId.COROLLARY_SUPPORT_BOUND, verdict, model_id, alpha, ids, inter)


def _check_eq7(c: JointCounts, model_id: str, alpha: str, ids) -> TheoremReport:
    inter = _base_quantities(c)
    if c.pred == 0:
        return _report(
            TheoremId.EQ7_RESIDUAL, TheoremVerdict.SKIPPED, model_id, alpha, ids,
            inter, skip_reason="class never predicted",
        )
    if c.pred_body == 0:
        return _report(
            TheoremId.EQ7_RESIDUAL, TheoremVerdict.SKIPPED, model_id, alpha, ids,
            inter, skip_reason="condition never co-occurs with a prediction",
        )
    if c.pred_body == c.pred:
        return _report(
            TheoremId.EQ7_RESIDUAL, TheoremVerdict.SKIPPED, model_id, alpha, ids,
            inter, skip_reason="support is 1; post-rule precision undefined",
        )
    improves = inter["confidence"] > inter["residual"]
    gained = inter["rule_precision"] > inter["precision"]
    verdict = TheoremVerdict.HOLDS if improves == gained else TheoremVerdict.VIOLATED
    return _report(TheoremId.EQ7_RESIDUAL, verdict, model_id, alpha, ids, inter)


# ---------------------------------------------------------------------------
# Public check API
# ---------------------------------------------------------------------------

def check_precision_change(log, model_id, alpha, body) -> TheoremReport:
    """Identity: post-rule precision change equals K × (confidence − residual)."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_t1(c, model_id, alpha, ids)


def check_claim1(log, model_id, alpha, body) -> TheoremReport:
    """Closed form of post-rule precision from precision, support, confidence."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_claim1(c, model_id, alpha, ids)


def check_edns(log, model_id, alpha, body) -> TheoremReport:
    """Biconditional: error detecting ⟺ post-rule precision ≥ precision."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_t2(c, model_id, alpha, ids)


def check_recall_reduction(log, model_id, alpha, body) -> TheoremReport:
    """Identity: recall loss equals the four-factor product form."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_t3(c, model_id, alpha, ids)


def check_reclassification_limit(log, model_id, alpha, beta, body) -> TheoremReport:
    """Implication: a pair no more precise than the base class cannot raise
    the base class's pooled precision by relabeling."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, beta, model_id=model_id)
    return _check_t4(c, model_id, alpha, beta, ids)


def check_support_bound(log, model_id, alpha, body) -> TheoremReport:
    """Bound: for an error-detecting condition, support is at most the
    condition's rate among erroneous predictions."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_corollary(c, model_id, alpha, ids)


def check_residual(log, model_id, alpha, body) -> TheoremReport:
    """Biconditional: confidence exceeds residual ⟺ precision strictly improves."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, model_id=model_id)
    return _check_eq7(c, model_id, alpha, ids)



# ---------------------------------------------------------------------------
# Random sweep
# ---------------------------------------------------------------------------

class SweepViolationError(AssertionError):
    """A sweep produced a VIOLATED verdict (implementation self-test failure)."""


@dataclass(frozen=True)
class SweepViolation:
    trial: int
    trial_seed: int
    theorem_id: TheoremId
    alpha: str
    condition_id: str
    correction_class: str | None
    report: TheoremReport
    log_text: str


@dataclass(frozen=True)
class SweepResult:
    seed: int
    trials: int
    max_records: int
    max_labels: int
    max_conditions: int
    verdict_counts: dict[TheoremId, dict[TheoremVerdict, int]]
    violations: tuple[SweepViolation, ...]

    @property
    def total_verdicts(self) -> int:
        return sum(sum(v.values()) for v in self.verdict_counts.values())

    def count(self, theorem_id: TheoremId, verdict: TheoremVerdict) -> int:
        return self.verdict_counts[theorem_id][verdict]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "bounds": {
                "max_records": self.max_records,
                "max_labels": self.max_labels,
                "max_conditions": self.max_conditions,
            },
            "total_verdicts": self.total_verdicts,
            "verdicts": {
                tid.value: {v.value: n for v, n in counts.items()}
                for tid, counts in self.verdict_counts.items()
            },
            "violations": len(self.violations),
        }


def sweep(
    seed: int,
    trials: int,
    max_records: int = 30,
    max_labels: int = 4,
    max_conditions: int = 3,
    raise_on_violation: bool = False,
) -> SweepResult:
    """Check every statement on ``trials`` random logs.

    Each trial draws one log and runs all checks for every (class,
    condition) pair of the fixed alphabets implied by the bounds; the
    reclassification check uses the cyclically next label as the
    correction class, so each theorem contributes exactly one verdict per
    pair per trial. Per-trial seeds derive from the master seed via
    numpy's SeedSequence, making the aggregate table reproducible.
    """
    import numpy as np  # deferred: importing errata must not load numpy

    from .synth import condition_alphabet, label_alphabet, random_log

    if trials < 1:
        raise ValueError("trial count must be at least 1")
    labels = label_alphabet(max_labels)
    conditions = condition_alphabet(max_conditions)
    counts: dict[TheoremId, dict[TheoremVerdict, int]] = {
        tid: {v: 0 for v in TheoremVerdict} for tid in TheoremId
    }
    violations: list[SweepViolation] = []
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    for trial in range(trials):
        trial_seed = int(trial_seeds[trial])
        log = random_log(
            trial_seed,
            max_records=max_records,
            max_labels=max_labels,
            max_conditions=max_conditions,
        )
        for i, alpha in enumerate(labels):
            beta = labels[(i + 1) % len(labels)]
            for cid in conditions:
                ids = frozenset((cid,))
                c = joint_counts(log, alpha, ids, beta, model_id="m")
                reports = (
                    _check_t1(c, "m", alpha, ids),
                    _check_claim1(c, "m", alpha, ids),
                    _check_t2(c, "m", alpha, ids),
                    _check_t3(c, "m", alpha, ids),
                    _check_t4(c, "m", alpha, beta, ids),
                    _check_corollary(c, "m", alpha, ids),
                    _check_eq7(c, "m", alpha, ids),
                )
                for report in reports:
                    counts[report.theorem_id][report.verdict] += 1
                    if report.verdict is TheoremVerdict.VIOLATED:
                        violations.append(
                            SweepViolation(
                                trial,
                                trial_seed,
                                report.theorem_id,
                                alpha,
                                cid,
                                report.correction_class,
                                report,
                                serialize_log(log),
                            )
                        )
    result = SweepResult(
        seed, trials, max_records, max_labels, max_conditions, counts, tuple(violations)
    )
    if raise_on_violation and violations:
        first = violations[0]
        raise SweepViolationError(
            f"{first.theorem_id.value} VIOLATED on trial {first.trial} "
            f"(seed {first.trial_seed}, alpha={first.alpha!r}, condition={first.condition_id!r})"
        )
    return result
