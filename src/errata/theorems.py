"""Machine checks of the exact identities, equivalences, and bounds that
relate pre- and post-rule precision/recall to support and confidence.

Every statement is one entry of the ordered ``CHECKS`` registry, a pure
function of a ``JointCounts`` tuple and of its base quantities (precision,
post-rule precision, support, confidence, K and residual), which are
computed once per tuple. A ratio is an integer ``(num, den)`` pair with a
positive denominator; each side of an identity is evaluated as written and
the two are compared by integer cross-multiplication, so no float and no
``Fraction`` reaches a verdict, and a wrong formula still comes out
VIOLATED. Reports (from the public ``check_*`` functions, ``errata verify``
and any VIOLATED verdict of the sweep) carry the same quantities as exact
``Fraction`` values. The sweep over random logs only counts verdicts; it
treats any VIOLATED verdict as a fatal self-test failure and captures the
offending log for replay. Checks whose conditioning events never occur
report SKIPPED (a first-class verdict) rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .estimators import ConditionBody, JointCounts, joint_counts
from .logs import InputError, serialize_log
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
    # Every divisor below is positive (1 − support with support < 1, or a
    # nonzero precision), so the denominator stays positive.
    return (x[0] * y[1], x[1] * y[0])


def _eq(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def _le(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _lt(x: Ratio, y: Ratio) -> bool:
    return x[0] * y[1] < y[0] * x[1]


class _Base(NamedTuple):
    """The quantities every check but T4 reads and reports, in report order."""

    precision: Ratio | None
    rule_precision: Ratio | None
    support: Ratio | None
    confidence: Ratio | None
    k_factor: Ratio | None
    residual: Ratio | None


def _base(c: JointCounts) -> _Base:
    n, b = c.pred, c.pred_body
    precision = (c.pred_gt, n) if n else None
    support = (b, n) if n else None
    return _Base(
        precision,
        (c.pred_gt - c.pred_body_gt, n - b) if n > b else None,
        support,
        (b - c.pred_body_gt, b) if b else None,
        _div(support, _sub(_ONE, support)) if n and n != b else None,
        _sub(_ONE, precision) if n else None,
    )


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

HOLDS, VIOLATED, SKIPPED = TheoremVerdict.HOLDS, TheoremVerdict.VIOLATED, TheoremVerdict.SKIPPED

# An outcome is (verdict, skip_reason, note, extras): extras names the
# statement's own quantities, in report order, beyond the base ones.
Outcome = tuple[TheoremVerdict, str | None, str | None, tuple[tuple[str, Ratio | None], ...]]
Check = Callable[[JointCounts, _Base], Outcome]

_NEVER_PREDICTED: Outcome = (SKIPPED, "class never predicted", None, ())
_NO_COOCCURRENCE: Outcome = (SKIPPED, "condition never co-occurs with a prediction", None, ())
_SUPPORT_ONE: Outcome = (SKIPPED, "support is 1; post-rule precision undefined", None, ())


def _verdict(holds: bool) -> TheoremVerdict:
    return HOLDS if holds else VIOLATED


def _closed_form(q: _Base) -> Ratio:
    """Post-rule precision from precision, support and confidence."""
    correct_under_body = _sub(_ONE, q.confidence)
    return _div(
        _sub(q.precision, _mul(correct_under_body, q.support)), _sub(_ONE, q.support)
    )


def _t1(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred:
        return _NEVER_PREDICTED
    if c.pred_body == c.pred:
        return _SUPPORT_ONE
    lhs = _sub(q.rule_precision, q.precision)
    if not c.pred_body:
        # Zero support annihilates the right-hand side: K = 0.
        rhs, closed_form = _ZERO, q.precision
    else:
        rhs = _mul(q.k_factor, _sub(q.confidence, q.residual))
        closed_form = _closed_form(q)
    # Closed form of post-rule precision; its failure would equally be an
    # implementation bug, so it shares the verdict.
    holds = _eq(lhs, rhs) and _eq(q.rule_precision, closed_form)
    extras = (("lhs", lhs), ("rhs", rhs), ("closed_form_rule_precision", closed_form))
    return (_verdict(holds), None, None, extras)


def _claim1(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred:
        return _NEVER_PREDICTED
    if c.pred_body == c.pred:
        return _SUPPORT_ONE
    expected = q.precision if not c.pred_body else _closed_form(q)
    holds = _eq(q.rule_precision, expected)
    return (_verdict(holds), None, None, (("expected_rule_precision", expected),))


def _t2(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred:
        return _NEVER_PREDICTED
    if not c.pred_body:
        return _NO_COOCCURRENCE
    if c.pred_body == c.pred:
        return _SUPPORT_ONE
    correct_under_body = _sub(_ONE, q.confidence)
    error_detecting = _le(correct_under_body, q.precision)
    no_worse = _le(q.precision, q.rule_precision)
    note = f"error_detecting={'YES' if error_detecting else 'NO'}"
    extras = (("correct_rate_under_body", correct_under_body),)
    return (_verdict(error_detecting == no_worse), None, note, extras)


def _t3(c: JointCounts, q: _Base) -> Outcome:
    recall = (c.pred_gt, c.gt) if c.gt else None
    rule_recall = (c.pred_gt - c.pred_body_gt, c.gt) if c.gt else None
    correct_under_body = (c.pred_body_gt, c.pred_body) if c.pred_body else None
    extras = (
        ("recall", recall),
        ("rule_recall", rule_recall),
        ("correct_rate_under_body", correct_under_body),
    )
    if not c.gt:
        return (SKIPPED, "class never in ground truth", None, extras)
    if not c.pred:
        return (SKIPPED, "class never predicted", None, extras)
    lhs = _sub(recall, rule_recall)
    if not c.pred_body:
        rhs = _ZERO  # zero support: nothing erased
    elif not c.pred_gt:
        reason = "precision is zero (division by zero on the right)"
        return (SKIPPED, reason, None, extras)
    else:
        rhs = _div(_mul(_mul(correct_under_body, q.support), recall), q.precision)
    return (_verdict(_eq(lhs, rhs)), None, None, extras + (("lhs", lhs), ("rhs", rhs)))


def _corollary(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred or not c.pred_body:
        return (SKIPPED, "error-detecting verdict undefined", None, ())
    correct_under_body = _sub(_ONE, q.confidence)
    extras = (("correct_rate_under_body", correct_under_body),)
    if _lt(q.precision, correct_under_body):
        return (HOLDS, None, "condition not error detecting; bound vacuous", extras)
    errors = c.pred - c.pred_gt
    if not errors:
        reason = "class always correct; bound side undefined"
        return (SKIPPED, reason, None, extras)
    bound = (c.pred_body - c.pred_body_gt, errors)
    return (_verdict(_le(q.support, bound)), None, None, extras + (("support_bound", bound),))


def _eq7(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred:
        return _NEVER_PREDICTED
    if not c.pred_body:
        return _NO_COOCCURRENCE
    if c.pred_body == c.pred:
        return _SUPPORT_ONE
    improves = _lt(q.residual, q.confidence)
    gained = _lt(q.precision, q.rule_precision)
    return (_verdict(improves == gained), None, None, ())


def _t4(c: JointCounts, q: _Base) -> Outcome:
    # The conclusion pools the two prediction events with multiplicity
    # (native β predictions plus relabel decisions): a record satisfying
    # both events contributes to both counts. On multi-label logs the
    # plain set union of the events is *not* bounded by the base
    # precision; it is reported as an informative extra.
    base = (c.beta_pred_beta_gt, c.beta_pred) if c.beta_pred else None
    pair = (c.pred_body_beta_gt, c.pred_body) if c.pred_body else None
    pooled_den = c.beta_pred + c.pred_body
    pooled = (c.beta_pred_beta_gt + c.pred_body_beta_gt, pooled_den) if pooled_den else None
    extras = (
        ("base_precision", base),
        ("pair_precision", pair),
        ("combined_precision", pooled),
        ("set_union_precision", (c.union_beta_gt, c.union) if c.union else None),
    )
    if base is None:
        return (SKIPPED, "correction class never predicted", None, extras)
    if pair is None:
        return (SKIPPED, "pair event never occurs", None, extras)
    if not _le(pair, base):
        return (HOLDS, None, "hypothesis not met; implication vacuous", extras)
    return (_verdict(_le(pooled, base)), None, None, extras)


# One entry per statement; the public ``check_*`` functions below state
# each. Registry order is the report order of ``errata verify``; T4 runs
# last and only when a correction class is given.
CHECKS: dict[TheoremId, Check] = {
    TheoremId.T1_PRECISION_CHANGE: _t1,
    TheoremId.CLAIM1_APPENDIX: _claim1,
    TheoremId.T2_EDNS: _t2,
    TheoremId.T3_RECALL_REDUCTION: _t3,
    TheoremId.COROLLARY_SUPPORT_BOUND: _corollary,
    TheoremId.EQ7_RESIDUAL: _eq7,
    TheoremId.T4_RECLASS_LIMIT: _t4,
}
_T4 = TheoremId.T4_RECLASS_LIMIT


def _fraction(r: Ratio | None) -> Fraction | None:
    return None if r is None else Fraction(*r)


def _report(
    theorem_id, outcome: Outcome, q: _Base, model_id, alpha, ids, beta
) -> TheoremReport:
    verdict, skip_reason, note, extras = outcome
    named = extras if theorem_id is _T4 else (*zip(_Base._fields, q), *extras)
    return TheoremReport(
        theorem_id=theorem_id,
        verdict=verdict,
        model_id=model_id,
        target_class=alpha,
        condition_ids=tuple(sorted(ids)),
        intermediates={name: _fraction(r) for name, r in named},
        correction_class=beta if theorem_id is _T4 else None,
        skip_reason=skip_reason,
        note=note,
    )


# ---------------------------------------------------------------------------
# Public check API
# ---------------------------------------------------------------------------

def _check(theorem_id, log, model_id, alpha, body, beta=None) -> TheoremReport:
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, beta, model_id=model_id)
    q = _base(c)
    return _report(theorem_id, CHECKS[theorem_id](c, q), q, model_id, alpha, ids, beta)


def check_precision_change(log, model_id, alpha, body) -> TheoremReport:
    """Identity: post-rule precision change equals K × (confidence − residual)."""
    return _check(TheoremId.T1_PRECISION_CHANGE, log, model_id, alpha, body)


def check_claim1(log, model_id, alpha, body) -> TheoremReport:
    """Closed form of post-rule precision from precision, support, confidence."""
    return _check(TheoremId.CLAIM1_APPENDIX, log, model_id, alpha, body)


def check_edns(log, model_id, alpha, body) -> TheoremReport:
    """Biconditional: error detecting ⟺ post-rule precision ≥ precision."""
    return _check(TheoremId.T2_EDNS, log, model_id, alpha, body)


def check_recall_reduction(log, model_id, alpha, body) -> TheoremReport:
    """Identity: recall loss equals the four-factor product form."""
    return _check(TheoremId.T3_RECALL_REDUCTION, log, model_id, alpha, body)


def check_reclassification_limit(log, model_id, alpha, beta, body) -> TheoremReport:
    """Implication: a pair no more precise than the base class cannot raise
    the base class's pooled precision by relabeling."""
    return _check(TheoremId.T4_RECLASS_LIMIT, log, model_id, alpha, body, beta)


def check_support_bound(log, model_id, alpha, body) -> TheoremReport:
    """Bound: for an error-detecting condition, support is at most the
    condition's rate among erroneous predictions."""
    return _check(TheoremId.COROLLARY_SUPPORT_BOUND, log, model_id, alpha, body)


def check_residual(log, model_id, alpha, body) -> TheoremReport:
    """Biconditional: confidence exceeds residual ⟺ precision strictly improves."""
    return _check(TheoremId.EQ7_RESIDUAL, log, model_id, alpha, body)


def check_all(log, model_id, alpha, body, beta=None) -> list[TheoremReport]:
    """One report per registry entry, in registry order, from one count of
    the log; the reclassification check runs only when ``beta`` is given."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, beta, model_id=model_id)
    q = _base(c)
    return [
        _report(tid, check(c, q), q, model_id, alpha, ids, beta)
        for tid, check in CHECKS.items()
        if beta is not None or tid is not _T4
    ]



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

    Each trial draws one log and runs every registry check for every
    (class, condition) pair of the fixed alphabets implied by the bounds;
    the reclassification check uses the cyclically next label as the
    correction class, so each theorem contributes exactly one verdict per
    pair per trial. Verdicts are only counted: a report is built for a
    VIOLATED verdict alone. Per-trial seeds derive from the master seed via
    numpy's SeedSequence, making the aggregate table reproducible.
    """
    import numpy as np  # deferred: importing errata must not load numpy

    from .synth import condition_alphabet, label_alphabet, random_log

    if trials < 1:
        raise InputError("trial count must be at least 1")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    labels = label_alphabet(max_labels)
    conditions = condition_alphabet(max_conditions)
    counts: dict[TheoremId, dict[TheoremVerdict, int]] = {
        tid: {v: 0 for v in TheoremVerdict} for tid in TheoremId
    }
    checks = tuple(CHECKS.items())
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
                c = joint_counts(log, alpha, (cid,), beta, model_id="m")
                q = _base(c)
                for tid, check in checks:
                    outcome = check(c, q)
                    counts[tid][outcome[0]] += 1
                    if outcome[0] is VIOLATED:
                        report = _report(tid, outcome, q, "m", alpha, (cid,), beta)
                        violations.append(
                            SweepViolation(
                                trial,
                                trial_seed,
                                tid,
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
