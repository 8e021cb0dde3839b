"""Machine checks of the exact identities, equivalences, and bounds that
relate pre- and post-rule precision/recall to support and confidence.

Every statement is one entry of the ordered ``CHECKS`` registry, a pure
function of a ``JointCounts`` tuple and of its base quantities (precision,
post-rule precision, support, confidence, K and residual), which
``estimators._base`` computes once per tuple. A ratio is an integer
``(num, den)`` pair with a positive denominator; each side of an identity
is evaluated as written and the two are compared by integer
cross-multiplication, so no float and no ``Fraction`` reaches a verdict,
and a wrong formula still comes out VIOLATED. Reports (from the public
``check_*`` functions, ``errata verify`` and any VIOLATED verdict of the
sweep) carry the same quantities as exact ``Fraction`` values. Beside
each check is its column form (``COLUMN_CHECKS``): the same statement over
the count columns of many rows at once, numpy integer arrays, with the
same unreduced ratios, skips and cross-multiplication, giving each row's
verdict code. The sweep over random logs only counts verdicts: it counts
a chunk of trials at once from the random draws of their logs,
zero-padded into one numpy block, with one batched matrix product, then
runs the column forms once over the chunk and tallies their codes. A
VIOLATED verdict is an implementation bug; only then does the sweep run
the registry on that row, build the trial's log and keep each
occurrence's report and the log's text for replay. Checks whose
conditioning events never occur report SKIPPED (a first-class verdict)
rather than guessing.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable

from .estimators import (
    _ONE,
    _ZERO,
    ConditionBody,
    JointCounts,
    Ratio,
    _Base,
    _base,
    _base_ratios,
    _div,
    _eq,
    _fraction,
    _le,
    _lt,
    _mul,
    _recall_ratios,
    _recalls,
    _sub,
    joint_counts,
)
from .logs import InputError, _Frozen, _set, serialize_log
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


class TheoremReport(_Frozen):
    """Structured verdict with every quantity the checked statement names."""

    __slots__ = ("theorem_id", "verdict", "model_id", "target_class", "condition_ids",
                 "intermediates", "correction_class", "skip_reason", "note")

    def __init__(self, theorem_id: TheoremId, verdict: TheoremVerdict, model_id: str,
                 target_class: str, condition_ids: tuple[str, ...],
                 intermediates: dict[str, Fraction | None] | None = None,
                 correction_class: str | None = None, skip_reason: str | None = None,
                 note: str | None = None):
        _set(self, "theorem_id", theorem_id)
        _set(self, "verdict", verdict)
        _set(self, "model_id", model_id)
        _set(self, "target_class", target_class)
        _set(self, "condition_ids", condition_ids)
        _set(self, "intermediates", {} if intermediates is None else intermediates)
        _set(self, "correction_class", correction_class)
        _set(self, "skip_reason", skip_reason)
        _set(self, "note", note)

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
# Check registry
# ---------------------------------------------------------------------------

HOLDS, VIOLATED, SKIPPED = TheoremVerdict.HOLDS, TheoremVerdict.VIOLATED, TheoremVerdict.SKIPPED

# An outcome is (verdict, skip_reason, note, extras): extras names the
# statement's own quantities, in report order, beyond the base ones.
Outcome = tuple[TheoremVerdict, str | None, str | None, tuple[tuple[str, Ratio | None], ...]]
Check = Callable[[JointCounts, _Base], Outcome]

# A column form states a check over the count columns of many rows: it
# takes a ``JointCounts`` of numpy integer arrays and ``_base_ratios`` of
# it, and returns each row's verdict code, the index of its verdict in
# ``_VERDICTS``. It evaluates every side on every row as the check writes
# it. A zero denominator stands where the check has None; on those rows
# an earlier case (a skip) decides the code, as the check returns early.
ColumnCheck = Callable[[JointCounts, _Base], object]  # → a numpy array of codes
_VERDICTS = tuple(TheoremVerdict)
_H, _V, _S = (_VERDICTS.index(v) for v in (HOLDS, VIOLATED, SKIPPED))

_NEVER_PREDICTED: Outcome = (SKIPPED, "class never predicted", None, ())
_NO_COOCCURRENCE: Outcome = (SKIPPED, "condition never co-occurs with a prediction", None, ())
_SUPPORT_ONE: Outcome = (SKIPPED, "support is 1; post-rule precision undefined", None, ())


def _verdict(holds: bool) -> TheoremVerdict:
    return HOLDS if holds else VIOLATED


def _select(cases, holds):
    """Each row's verdict code: the code of the first case whose condition
    holds on the row, as the check returns early, else HOLDS or VIOLATED
    as ``holds``. A case is a (condition column, code) pair."""
    import numpy as np  # deferred: importing errata must not load numpy

    codes = np.where(holds, _H, _V)
    for cond, code in reversed(cases):  # np.select, without its set-up cost
        codes = np.where(cond, code, codes)
    return codes


def _where(cond, x: Ratio, y: Ratio) -> Ratio:
    """The ratio ``x`` on the rows where ``cond`` holds, else ``y``."""
    import numpy as np

    return np.where(cond, x[0], y[0]), np.where(cond, x[1], y[1])


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


def _t1_columns(c: JointCounts, q: _Base):
    zero = c.pred_body == 0
    lhs = _sub(q.rule_precision, q.precision)
    rhs = _where(zero, _ZERO, _mul(q.k_factor, _sub(q.confidence, q.residual)))
    closed_form = _where(zero, q.precision, _closed_form(q))
    holds = _eq(lhs, rhs) & _eq(q.rule_precision, closed_form)
    return _select([(c.pred == 0, _S), (c.pred_body == c.pred, _S)], holds)


def _claim1(c: JointCounts, q: _Base) -> Outcome:
    if not c.pred:
        return _NEVER_PREDICTED
    if c.pred_body == c.pred:
        return _SUPPORT_ONE
    expected = q.precision if not c.pred_body else _closed_form(q)
    holds = _eq(q.rule_precision, expected)
    return (_verdict(holds), None, None, (("expected_rule_precision", expected),))


def _claim1_columns(c: JointCounts, q: _Base):
    expected = _where(c.pred_body == 0, q.precision, _closed_form(q))
    return _select([(c.pred == 0, _S), (c.pred_body == c.pred, _S)],
                   _eq(q.rule_precision, expected))


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


def _biconditional_skips(c: JointCounts) -> list:
    """The skips of both biconditionals, T2 and EQ7, as column cases."""
    return [(c.pred == 0, _S), (c.pred_body == 0, _S), (c.pred_body == c.pred, _S)]


def _t2_columns(c: JointCounts, q: _Base):
    correct_under_body = _sub(_ONE, q.confidence)
    error_detecting = _le(correct_under_body, q.precision)
    return _select(_biconditional_skips(c), error_detecting == _le(q.precision, q.rule_precision))


def _t3(c: JointCounts, q: _Base) -> Outcome:
    recall, rule_recall = _recalls(c)
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


def _t3_columns(c: JointCounts, q: _Base):
    recall, rule_recall = _recall_ratios(c)
    correct_under_body = (c.pred_body_gt, c.pred_body)
    zero = c.pred_body == 0
    lhs = _sub(recall, rule_recall)
    rhs = _where(zero, _ZERO,
                 _div(_mul(_mul(correct_under_body, q.support), recall), q.precision))
    return _select([(c.gt == 0, _S), (c.pred == 0, _S), (~zero & (c.pred_gt == 0), _S)],
                   _eq(lhs, rhs))


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


def _corollary_columns(c: JointCounts, q: _Base):
    errors = c.pred - c.pred_gt
    cases = [((c.pred == 0) | (c.pred_body == 0), _S),
             (_lt(q.precision, _sub(_ONE, q.confidence)), _H), (errors == 0, _S)]
    return _select(cases, _le(q.support, (c.pred_body - c.pred_body_gt, errors)))


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


def _eq7_columns(c: JointCounts, q: _Base):
    improves = _lt(q.residual, q.confidence)
    return _select(_biconditional_skips(c), improves == _lt(q.precision, q.rule_precision))


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


def _t4_columns(c: JointCounts, q: _Base):
    base, pair = (c.beta_pred_beta_gt, c.beta_pred), (c.pred_body_beta_gt, c.pred_body)
    pooled = (c.beta_pred_beta_gt + c.pred_body_beta_gt, c.beta_pred + c.pred_body)
    cases = [(c.beta_pred == 0, _S), (c.pred_body == 0, _S), (~_le(pair, base), _H)]
    return _select(cases, _le(pooled, base))


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
# The column form of each entry, in the same order: what the sweep runs.
COLUMN_CHECKS: dict[TheoremId, ColumnCheck] = {
    TheoremId.T1_PRECISION_CHANGE: _t1_columns,
    TheoremId.CLAIM1_APPENDIX: _claim1_columns,
    TheoremId.T2_EDNS: _t2_columns,
    TheoremId.T3_RECALL_REDUCTION: _t3_columns,
    TheoremId.COROLLARY_SUPPORT_BOUND: _corollary_columns,
    TheoremId.EQ7_RESIDUAL: _eq7_columns,
    TheoremId.T4_RECLASS_LIMIT: _t4_columns,
}
_T4 = TheoremId.T4_RECLASS_LIMIT


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

class SweepViolation(_Frozen):
    __slots__ = ("trial", "trial_seed", "theorem_id", "alpha", "condition_id", "correction_class",
                 "report", "log_text")

    def __init__(self, trial: int, trial_seed: int, theorem_id: TheoremId, alpha: str,
                 condition_id: str, correction_class: str | None, report: TheoremReport,
                 log_text: str):
        _set(self, "trial", trial)
        _set(self, "trial_seed", trial_seed)
        _set(self, "theorem_id", theorem_id)
        _set(self, "alpha", alpha)
        _set(self, "condition_id", condition_id)
        _set(self, "correction_class", correction_class)
        _set(self, "report", report)
        _set(self, "log_text", log_text)


class SweepResult(_Frozen):
    __slots__ = ("seed", "trials", "max_records", "max_labels", "max_conditions",
                 "verdict_counts", "violations")

    def __init__(self, seed: int, trials: int, max_records: int, max_labels: int,
                 max_conditions: int, verdict_counts: dict[TheoremId, dict[TheoremVerdict, int]],
                 violations: tuple[SweepViolation, ...]):
        _set(self, "seed", seed)
        _set(self, "trials", trials)
        _set(self, "max_records", max_records)
        _set(self, "max_labels", max_labels)
        _set(self, "max_conditions", max_conditions)
        _set(self, "verdict_counts", verdict_counts)
        _set(self, "violations", violations)

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


# A sweep counts its trials a chunk at a time, as many trials as fit this
# many cells of padded draws, so memory stays bounded for any bounds.
_CHUNK_CELLS = 1 << 16
# A sweep decides its verdicts on int64 columns while max_records is at
# most this bound, else on exact Python ints (dtype=object). Every count
# is at most N = max_records. Each subtraction in a column form takes two
# nonnegative products of d counts, so every value built from products of
# d counts (a part of a ratio, a side of a cross-multiplication) is at
# most N**d in size; T4 alone adds two counts, and its sides stay below
# 2 * N**2. The largest degree is 6: lhs (degree 2) times rhs (degree 4)
# in T1 and in T3. 1448**6 < 2**63 <= 1449**6.
_INT64_RECORDS = 1448


def _chunk_trials(max_records: int, max_labels: int, max_conditions: int) -> int:
    cells = max_records * (max_labels + max_conditions) + max_labels * max_conditions
    return max(1, _CHUNK_CELLS // cells)


def _chunk_counts(trial_seeds, max_records: int, labels: int, conditions: int):
    """The ``JointCounts`` fields, one int64 row per field, of every (trial,
    class, condition) pair of the sweep's alphabets, a column per pair,
    trial-major then class-major, with the cyclically next label as β, on
    ``random_log(s, max_records, labels, conditions)`` for each s in
    ``trial_seeds`` (uint64 values): all counted at once. The draws come
    from ``synth._fuzz_draws`` in one batch and are scattered into the
    block with one assignment per round; only a trial it cannot draw goes
    through ``synth._fuzz_draw``."""
    import numpy as np  # deferred: importing errata must not load numpy

    from .synth import _fuzz_draw, _fuzz_draws

    trial_seeds = np.asarray(trial_seeds, np.uint64)
    trials = len(trial_seeds)
    # Per trial, rows of predicted labels, true labels and conditions over
    # the records, then a row that holds on every record. Zero padding: a
    # padded record, or a name outside the trial's alphabets, holds nowhere.
    block = np.zeros((trials, 2 * labels + conditions + 1, max_records), bool)
    block[:, -1] = True
    n, k, m, redraw, rounds = _fuzz_draws(trial_seeds, max_records, labels, conditions)
    # A trial's uniforms fill its predicted, true-label and condition
    # matrices in turn, each a row per record. Per trial and matrix: its
    # first uniform, its width, its first cell in the block (its first
    # row, record 0), and the bound below which a uniform marks the cell.
    nk = n * k
    starts = np.stack((0 * nk, nk, 2 * nk), 1).ravel()
    widths = np.stack((k, k, m), 1).ravel()
    firsts = (np.arange(trials)[:, None] * block[0].size
              + np.array([0, labels, 2 * labels]) * max_records).ravel()
    below = np.tile([0.45, 0.45, 0.5], trials)
    cells = block.reshape(-1)
    for trial, index, uniforms in rounds:
        matrix = 3 * trial + (index >= nk[trial]) + (index >= 2 * nk[trial])
        offset, width = index - starts[matrix], widths[matrix]
        record = offset // width
        cells[firsts[matrix] + (offset - record * width) * max_records + record] = (
            uniforms < below[matrix])
    for t in np.flatnonzero(redraw).tolist():
        n[t], *draws = _fuzz_draw(int(trial_seeds[t]), max_records, labels, conditions)
        for first, draw in zip((0, labels, 2 * labels), draws):
            block[t, first:first + draw.shape[1], :len(draw)] = draw.T
    # Six events per class α: α ∈ gt, α predicted, ... ∧ α ∈ gt, ... ∧ β ∈ gt,
    # α and β predicted, ... ∧ β ∈ gt.
    pred, gt = block[:, :labels], block[:, labels:2 * labels]
    beta_pred, beta_gt = np.roll(pred, -1, 1), np.roll(gt, -1, 1)
    both = pred & beta_pred
    events = np.concatenate((gt, pred, pred & gt, pred & beta_gt, both, both & beta_gt), 1)
    # Each event's count under each condition, then on every record (exact:
    # float64 holds every count below 2**53), event-major.
    hits = np.matmul(events.astype(float), block[:, 2 * labels:].transpose(0, 2, 1).astype(float))
    hits = hits.astype(np.int64).reshape(trials, 6, labels, conditions + 1).swapaxes(0, 1)
    head, body = hits[..., conditions:], hits[..., :conditions]
    out = np.empty((len(JointCounts._fields), trials, labels, conditions), np.int64)
    out[0], out[1:4], out[6:8] = n[:, None, None], head[:3], np.roll(head[1:3], -1, 2)
    out[4], out[5], out[8] = body[1], body[2], body[3]
    # |β ∨ (α ∧ body)| = |β| + |α ∧ body| − |α ∧ β ∧ body|, and the same ∧ β ∈ gt.
    out[9], out[10] = out[6] + body[1] - body[4], out[7] + body[3] - body[5]
    return out.reshape(len(JointCounts._fields), -1)


def sweep(
    seed: int,
    trials: int,
    max_records: int = 30,
    max_labels: int = 4,
    max_conditions: int = 3,
) -> SweepResult:
    """Check every statement on ``trials`` random logs.

    Each trial is one ``random_log`` and counts the verdicts of every
    registry check for every (class, condition) pair of the fixed
    alphabets implied by the bounds; the reclassification check uses the
    cyclically next label as the correction class, so each theorem
    contributes exactly one verdict per pair per trial. Trial t's seed is
    uint64 word t of numpy's ``SeedSequence(seed).generate_state``,
    computed a chunk at a time from the seed's pool, so no trial count
    builds an array of every trial's seed. Trials are counted from their
    logs' draws, a chunk of trials (at most ``_CHUNK_CELLS`` padded cells)
    at once with a few numpy operations; ``synth._fuzz_draws`` computes a
    chunk's draws in one batch, equal bit for bit to numpy's. The column
    forms decide the verdicts of a chunk's pairs at once, on int64 columns
    up to ``_INT64_RECORDS`` records and on exact Python ints above, and
    one ``np.bincount`` tallies them. A pair that a column form finds VIOLATED
    goes through ``CHECKS`` again, which builds its reports, in (trial,
    class, condition, registry) order; a log is built only for their
    replay text. If ``CHECKS`` gives that pair other verdicts, the sweep
    raises ``RuntimeError``: a bug, never an input error. The aggregate
    table is reproducible from the seed and the bounds.
    """
    import numpy as np  # deferred: importing errata must not load numpy

    from .synth import _integers, _state_words, condition_alphabet, label_alphabet, random_log

    _integers(seed=seed, trials=trials, max_records=max_records, max_labels=max_labels,
              max_conditions=max_conditions)
    if trials < 1:
        raise InputError("trial count must be at least 1")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if max_records < 1 or max_labels < 1 or max_conditions < 0:
        raise InputError("bounds must be positive (conditions may be 0)")
    labels = label_alphabet(max_labels)
    pairs = [(alpha, labels[(i + 1) % len(labels)], cid)  # (α, β, condition), as _chunk_counts
             for i, alpha in enumerate(labels) for cid in condition_alphabet(max_conditions)]
    columns = [COLUMN_CHECKS[tid] for tid in CHECKS]
    # Check i's verdict code v is tallied at i * len(_VERDICTS) + v.
    offsets = np.arange(len(columns))[:, None] * len(_VERDICTS)
    tally = np.zeros(len(columns) * len(_VERDICTS), np.int64)
    violations: list[SweepViolation] = []
    pool = np.random.SeedSequence(seed).pool
    bounds, replay = (max_records, max_labels, max_conditions), (None, None)
    chunk = _chunk_trials(*bounds)
    for first in range(0, trials if pairs else 0, chunk):
        chunk_seeds = _state_words(pool, first, min(chunk, trials - first))
        counts = _chunk_counts(chunk_seeds, *bounds)
        c = JointCounts._make(counts if max_records <= _INT64_RECORDS else counts.astype(object))
        q = _base_ratios(c)
        codes = np.stack([column(c, q) for column in columns])
        tally += np.bincount((codes + offsets).ravel(), minlength=len(tally))
        for row in np.flatnonzero((codes == _V).any(0)).tolist():
            t, pair = divmod(row, len(pairs))
            trial, trial_seed, (alpha, beta, cid) = first + t, int(chunk_seeds[t]), pairs[pair]
            c_row = JointCounts._make(counts[:, row].tolist())
            q_row = _base(c_row)
            outcomes = [check(c_row, q_row) for check in CHECKS.values()]
            if [_VERDICTS.index(o[0]) for o in outcomes] != codes[:, row].tolist():
                raise RuntimeError(f"column and registry checks disagree on {c_row}")
            if replay[0] != trial:  # (trial, its serialized log)
                replay = (trial, serialize_log(random_log(trial_seed, *bounds)))
            for tid, outcome in zip(CHECKS, outcomes):
                if outcome[0] is VIOLATED:
                    report = _report(tid, outcome, q_row, "m", alpha, (cid,), beta)
                    violations.append(SweepViolation(
                        trial, trial_seed, tid, alpha, cid, report.correction_class,
                        report, replay[1]))
    by_check = dict(zip(CHECKS, tally.reshape(len(columns), len(_VERDICTS)).tolist()))
    verdict_counts = {tid: dict(zip(_VERDICTS, by_check[tid])) for tid in TheoremId}
    return SweepResult(
        seed, trials, max_records, max_labels, max_conditions, verdict_counts, tuple(violations)
    )
