"""Machine checks of the exact identities, equivalences, and bounds that
relate pre- and post-rule precision/recall to support and confidence.

Each statement is written once, as one entry of the ordered ``STATEMENTS``
registry: a function of an evaluator, a ``JointCounts`` tuple and its base
ratios (precision, post-rule precision, support, confidence, K and
residual, from ``estimators._base_ratios``). It declares its cases in
order (a skip, or a vacuous HOLDS), names the quantities its report
carries, and returns its verdict expression. A ratio is an unreduced
integer ``(num, den)`` pair; each side of an identity is evaluated as
written and the two are compared by integer cross-multiplication, so no
float and no ``Fraction`` reaches a verdict, and a wrong formula still
comes out VIOLATED.

One evaluator runs a statement on one count tuple of Python ints: the
first case that holds decides, and the report (``check``, ``check_all``,
``errata verify``, a VIOLATED verdict of the sweep) carries the named
quantities as exact ``Fraction`` values, None where undefined. The other
runs it on count columns, numpy integer arrays of many rows, and gives
each row's verdict code. The sweep over random logs only counts verdicts:
it counts a chunk of trials at once from the random draws of their logs,
zero-padded into one numpy block, with one batched matrix product, runs
the column evaluation once over the chunk and tallies its codes. A
VIOLATED verdict is an implementation bug; only then does the sweep
evaluate that row on ints, build the trial's log and keep each
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
    _base_ratios,
    _div,
    _eq,
    _le,
    _lt,
    _mul,
    _recall_ratios,
    _sub,
    joint_counts,
)
from .logs import InputError, _Frozen, _json, _set, serialize_log
from .rational import parse_rational


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
    _rationals = ("intermediates",)

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
        out = super().to_dict()
        out["intermediates"] = out.pop("intermediates")  # last, after the scalar fields
        return out

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
# Statements
# ---------------------------------------------------------------------------

HOLDS, VIOLATED, SKIPPED = TheoremVerdict.HOLDS, TheoremVerdict.VIOLATED, TheoremVerdict.SKIPPED

# A statement is a function ``(e, c, q)`` of an evaluator ``e``, a
# ``JointCounts`` ``c`` and its ``_base_ratios`` ``q``. It declares its
# cases in order (``e.case``, ``e.skip``: the first that holds decides),
# names the quantities its report carries (``e.let``), and returns its
# verdict expression, true where it holds. It compares ratios with
# ``e.eq``, ``e.le`` and ``e.lt``. Its conditions use only ==, !=, & and |
# (never ~, not, and, or), so that they read the same on Python ints and
# on numpy columns.
Statement = Callable[..., object]
_VERDICTS = tuple(TheoremVerdict)
_H, _V = _VERDICTS.index(HOLDS), _VERDICTS.index(VIOLATED)

_NEVER_PREDICTED = "class never predicted"
_NO_COOCCURRENCE = "condition never co-occurs with a prediction"
_SUPPORT_ONE = "support is 1; post-rule precision undefined"


def _closed_form(q: _Base) -> Ratio:
    """Post-rule precision from precision, support and confidence."""
    correct_under_body = _sub(_ONE, q.confidence)
    return _div(_sub(q.precision, _mul(correct_under_body, q.support)), _sub(_ONE, q.support))


def _t1(e, c: JointCounts, q: _Base):
    e.skip(c.pred == 0, _NEVER_PREDICTED)
    e.skip(c.pred_body == c.pred, _SUPPORT_ONE)
    zero = c.pred_body == 0  # zero support annihilates the right-hand side: K = 0
    lhs = e.let("lhs", _sub(q.rule_precision, q.precision))
    rhs = e.let("rhs", e.where(zero, _ZERO, _mul(q.k_factor, _sub(q.confidence, q.residual))))
    # Closed form of post-rule precision; its failure would equally be an
    # implementation bug, so it shares the verdict.
    closed_form = e.let("closed_form_rule_precision", e.where(zero, q.precision, _closed_form(q)))
    return e.eq(lhs, rhs) & e.eq(q.rule_precision, closed_form)


def _claim1(e, c: JointCounts, q: _Base):
    e.skip(c.pred == 0, _NEVER_PREDICTED)
    e.skip(c.pred_body == c.pred, _SUPPORT_ONE)
    expected = e.where(c.pred_body == 0, q.precision, _closed_form(q))
    return e.eq(q.rule_precision, e.let("expected_rule_precision", expected))


def _t2(e, c: JointCounts, q: _Base):
    e.skip(c.pred == 0, _NEVER_PREDICTED)
    e.skip(c.pred_body == 0, _NO_COOCCURRENCE)
    e.skip(c.pred_body == c.pred, _SUPPORT_ONE)
    correct_under_body = e.let("correct_rate_under_body", _sub(_ONE, q.confidence))
    error_detecting = e.le(correct_under_body, q.precision)
    e.note(error_detecting, "error_detecting=YES", "error_detecting=NO")
    return error_detecting == e.le(q.precision, q.rule_precision)


def _t3(e, c: JointCounts, q: _Base):
    recall, rule_recall = _recall_ratios(c)
    e.let("recall", recall)
    e.let("rule_recall", rule_recall)
    correct_under_body = e.let("correct_rate_under_body", (c.pred_body_gt, c.pred_body))
    e.skip(c.gt == 0, "class never in ground truth")
    e.skip(c.pred == 0, _NEVER_PREDICTED)
    zero = c.pred_body == 0  # zero support: nothing erased
    e.skip((c.pred_body != 0) & (c.pred_gt == 0), "precision is zero (division by zero on the right)")
    lhs = e.let("lhs", _sub(recall, rule_recall))
    rhs = _div(_mul(_mul(correct_under_body, q.support), recall), q.precision)
    return e.eq(lhs, e.let("rhs", e.where(zero, _ZERO, rhs)))


def _corollary(e, c: JointCounts, q: _Base):
    e.skip((c.pred == 0) | (c.pred_body == 0), "error-detecting verdict undefined")
    correct_under_body = e.let("correct_rate_under_body", _sub(_ONE, q.confidence))
    e.case(e.lt(q.precision, correct_under_body), HOLDS,
           note="condition not error detecting; bound vacuous")
    errors = c.pred - c.pred_gt
    e.skip(errors == 0, "class always correct; bound side undefined")
    return e.le(q.support, e.let("support_bound", (c.pred_body - c.pred_body_gt, errors)))


def _eq7(e, c: JointCounts, q: _Base):
    e.skip(c.pred == 0, _NEVER_PREDICTED)
    e.skip(c.pred_body == 0, _NO_COOCCURRENCE)
    e.skip(c.pred_body == c.pred, _SUPPORT_ONE)
    return e.lt(q.residual, q.confidence) == e.lt(q.precision, q.rule_precision)


def _t4(e, c: JointCounts, q: _Base):
    # The conclusion pools the two prediction events with multiplicity
    # (native β predictions plus relabel decisions): a record satisfying
    # both events contributes to both counts. On multi-label logs the
    # plain set union of the events is *not* bounded by the base
    # precision; it is reported as an informative extra.
    base = e.let("base_precision", (c.beta_pred_beta_gt, c.beta_pred))
    pair = e.let("pair_precision", (c.pred_body_beta_gt, c.pred_body))
    pooled = e.let("combined_precision",
                   (c.beta_pred_beta_gt + c.pred_body_beta_gt, c.beta_pred + c.pred_body))
    e.let("set_union_precision", (c.union_beta_gt, c.union))
    e.skip(c.beta_pred == 0, "correction class never predicted")
    e.skip(c.pred_body == 0, "pair event never occurs")
    e.case(e.lt(base, pair), HOLDS, note="hypothesis not met; implication vacuous")
    return e.le(pooled, base)


# One entry per statement. Registry order is the report order of ``errata
# verify``; T4 runs last and only when a correction class is given.
STATEMENTS: dict[TheoremId, Statement] = {
    TheoremId.T1_PRECISION_CHANGE: _t1,
    TheoremId.CLAIM1_APPENDIX: _claim1,
    TheoremId.T2_EDNS: _t2,
    TheoremId.T3_RECALL_REDUCTION: _t3,
    TheoremId.COROLLARY_SUPPORT_BOUND: _corollary,
    TheoremId.EQ7_RESIDUAL: _eq7,
    TheoremId.T4_RECLASS_LIMIT: _t4,
}
_T4 = TheoremId.T4_RECLASS_LIMIT


# ---------------------------------------------------------------------------
# The two evaluations: on one count tuple, and on count columns
# ---------------------------------------------------------------------------

class _Evaluator:
    """What the two evaluations share. A comparison is integer
    cross-multiplication, which finds a ratio with a zero denominator
    equal to, and no greater than, any ratio, so a statement must skip
    every tuple on which it would compare one. A comparison that sees a
    zero denominator where no case declared before it decides
    (``_undecided`` gives the first such pair of ratios) raises
    ``RuntimeError``: the statement lacks a skip, an implementation bug."""

    __slots__ = ("theorem_id",)

    def _compare(self, compare, x, y):
        undecided = self._undecided(x, y)
        if undecided is not None:
            raise RuntimeError(f"{self.theorem_id.value} compares an undefined ratio "
                               "({}/{} with {}/{}) that no case skips".format(*undecided))
        return compare(x, y)

    def eq(self, x, y):
        return self._compare(_eq, x, y)

    def le(self, x, y):
        return self._compare(_le, x, y)

    def lt(self, x, y):
        return self._compare(_lt, x, y)

    def skip(self, cond, reason):
        self.case(cond, SKIPPED, reason)


class _Scalar(_Evaluator):
    """Evaluates a statement on one count tuple of Python ints: the first
    case that holds decides, else the verdict expression. ``named`` keeps
    the quantities named before the deciding case."""

    __slots__ = ("decided", "named", "final_note")

    def __init__(self, theorem_id: TheoremId, named: list):
        self.theorem_id, self.decided, self.named, self.final_note = theorem_id, None, named, None

    def _undecided(self, x: Ratio, y: Ratio):
        return (*x, *y) if self.decided is None and not (x[1] and y[1]) else None

    def case(self, cond, verdict, reason=None, note=None):
        if cond and self.decided is None:
            self.decided = (verdict, reason, note)

    def let(self, name, r):
        if self.decided is None:
            self.named.append((name, r))
        return r

    def where(self, cond, x, y):
        return x if cond else y

    def note(self, cond, yes, no):
        """The verdict expression's note: ``yes`` where ``cond`` holds, else ``no``."""
        self.final_note = yes if cond else no


class _Columns(_Evaluator):
    """Evaluates a statement on count columns (numpy integer arrays, one
    row per count tuple): each case is kept as (condition column, verdict
    code), and its reasons, names and notes are dropped. ``open`` holds
    the rows no case declared so far decides."""

    __slots__ = ("cases", "open")

    def __init__(self, theorem_id: TheoremId):
        self.theorem_id, self.cases, self.open = theorem_id, [], True

    def _undecided(self, x, y):
        import numpy as np  # deferred: importing errata must not load numpy

        undefined = self.open & ((x[1] == 0) | (y[1] == 0))
        if not np.any(undefined):
            return None
        undefined, *sides = np.broadcast_arrays(undefined, *x, *y)
        row = np.flatnonzero(undefined)[0]
        return tuple(side.ravel()[row] for side in sides)

    def case(self, cond, verdict, reason=None, note=None):
        self.cases.append((cond, _VERDICTS.index(verdict)))
        self.open = self.open & ~cond

    def let(self, name, r):
        return r

    def where(self, cond, x, y):
        import numpy as np  # deferred: importing errata must not load numpy

        return np.where(cond, x[0], y[0]), np.where(cond, x[1], y[1])

    def note(self, cond, yes, no):
        pass


def _outcome(theorem_id: TheoremId, c: JointCounts):
    """(verdict, skip reason, note, named ratios) of one statement on one
    count tuple; every statement but T4 names the base ratios first."""
    q = _base_ratios(c)
    e = _Scalar(theorem_id, [] if theorem_id is _T4 else list(zip(_Base._fields, q)))
    holds = STATEMENTS[theorem_id](e, c, q)
    return (*(e.decided or (HOLDS if holds else VIOLATED, None, e.final_note)), e.named)


def _codes(theorem_id: TheoremId, c: JointCounts, q: _Base):
    """Each row's verdict code, the index of its verdict in ``_VERDICTS``:
    the code of the first case that holds on the row, else HOLDS or
    VIOLATED as the verdict expression. Every side is evaluated on every
    row; a zero denominator stands where a report has None, and on those
    rows an earlier case (a skip) decides, or the statement lacks a skip
    and ``_Columns`` raises ``RuntimeError``."""
    import numpy as np  # deferred: importing errata must not load numpy

    e = _Columns(theorem_id)
    codes = np.where(STATEMENTS[theorem_id](e, c, q), _H, _V)
    for cond, code in reversed(e.cases):  # np.select, without its set-up cost
        codes = np.where(cond, code, codes)
    return codes


def _report(theorem_id: TheoremId, c: JointCounts, model_id, alpha, ids, beta) -> TheoremReport:
    verdict, skip_reason, note, named = _outcome(theorem_id, c)
    intermediates = {name: Fraction(*r) if r[1] else None for name, r in named}
    return TheoremReport(theorem_id, verdict, model_id, alpha, tuple(sorted(ids)), intermediates,
                         beta if theorem_id is _T4 else None, skip_reason, note)


# ---------------------------------------------------------------------------
# Public check API
# ---------------------------------------------------------------------------

def check(theorem_id, log, model_id, alpha, body, beta=None) -> TheoremReport:
    """The report of one statement for class ``alpha`` and condition body
    ``body`` (a ``ConditionBody`` or condition ids) on the records of
    ``model_id``; T4 needs its correction class ``beta``."""
    theorem_id = TheoremId(theorem_id)
    if theorem_id is _T4 and beta is None:
        raise ValueError(f"{theorem_id.value} needs a correction class (beta)")
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, beta, model_id=model_id)
    return _report(theorem_id, c, model_id, alpha, ids, beta)


def check_precision_change(log, model_id, alpha, body) -> TheoremReport:
    """Identity: post-rule precision change equals K × (confidence − residual)."""
    return check(TheoremId.T1_PRECISION_CHANGE, log, model_id, alpha, body)


def check_recall_reduction(log, model_id, alpha, body) -> TheoremReport:
    """Identity: recall loss equals the four-factor product form."""
    return check(TheoremId.T3_RECALL_REDUCTION, log, model_id, alpha, body)


def check_support_bound(log, model_id, alpha, body) -> TheoremReport:
    """Bound: for an error-detecting condition, support is at most the
    condition's rate among erroneous predictions."""
    return check(TheoremId.COROLLARY_SUPPORT_BOUND, log, model_id, alpha, body)


def check_all(log, model_id, alpha, body, beta=None) -> list[TheoremReport]:
    """One report per registry entry, in registry order, from one count of
    the log; the reclassification check runs only when ``beta`` is given."""
    ids = _body_ids(body)
    c = joint_counts(log, alpha, ids, beta, model_id=model_id)
    return [_report(tid, c, model_id, alpha, ids, beta)
            for tid in STATEMENTS if beta is not None or tid is not _T4]


# ---------------------------------------------------------------------------
# Random sweep
# ---------------------------------------------------------------------------

class SweepViolation(_Frozen):
    __slots__ = ("trial", "trial_seed", "theorem_id", "alpha", "condition_id", "correction_class",
                 "report", "log_text")


class SweepResult(_Frozen):
    __slots__ = ("seed", "trials", "max_records", "max_labels", "max_conditions",
                 "verdict_counts", "violations")

    @property
    def total_verdicts(self) -> int:
        return sum(sum(v.values()) for v in self.verdict_counts.values())

    def count(self, theorem_id: TheoremId, verdict: TheoremVerdict) -> int:
        return self.verdict_counts[theorem_id][verdict]

    def to_dict(self) -> dict:
        bounds = {name: getattr(self, name) for name in ("max_records", "max_labels", "max_conditions")}
        return {"seed": self.seed, "trials": self.trials, "bounds": bounds,
                "total_verdicts": self.total_verdicts, "verdicts": _json(self.verdict_counts),
                "violations": len(self.violations)}


# A sweep counts its trials a chunk at a time, as many trials as fit this
# many cells of padded draws, so memory stays bounded for any bounds.
_CHUNK_CELLS = 1 << 16
# A sweep decides its verdicts on int64 columns while max_records is at
# most this bound, else on exact Python ints (dtype=object). Every count
# is at most N = max_records. Each subtraction in a statement takes two
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
    from ``draws._fuzz_draws`` in one batch and are scattered into the
    block with one assignment per round; only a trial it cannot draw goes
    through ``synth._fuzz_draw``."""
    import numpy as np  # deferred: importing errata must not load numpy

    from .draws import _fuzz_draws
    from .synth import _MARK_BELOW, _fuzz_draw

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
    below = np.tile(_MARK_BELOW, trials)
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
    statement for every (class, condition) pair of the fixed
    alphabets implied by the bounds; the reclassification check uses the
    cyclically next label as the correction class, so each theorem
    contributes exactly one verdict per pair per trial. Trial t's seed is
    uint64 word t of numpy's ``SeedSequence(seed).generate_state``,
    computed a chunk at a time from the seed's pool, so no trial count
    builds an array of every trial's seed. Trials are counted from their
    logs' draws, a chunk of trials (at most ``_CHUNK_CELLS`` padded cells)
    at once with a few numpy operations; ``draws._fuzz_draws`` computes a
    chunk's draws in one batch, equal bit for bit to numpy's. The column
    evaluation decides the verdicts of a chunk's pairs at once, on int64
    columns up to ``_INT64_RECORDS`` records and on exact Python ints
    above, and one ``np.bincount`` tallies them. A pair found VIOLATED is
    evaluated again on Python ints, which builds its reports, in (trial,
    class, condition, registry) order; a log is built only for their
    replay text. If the two evaluations give that pair other verdicts (an
    int64 overflow, or numpy and ints parting ways), or if a statement
    compares an undefined ratio on a row no case decides, the sweep raises
    ``RuntimeError``: a bug, never an input error. The aggregate
    table is reproducible from the seed and the bounds.
    """
    import numpy as np  # deferred: importing errata must not load numpy

    from .draws import _pool, _state_words
    from .synth import _integers, condition_alphabet, label_alphabet, random_log

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
    # Statement i's verdict code v is tallied at i * len(_VERDICTS) + v.
    offsets = np.arange(len(STATEMENTS))[:, None] * len(_VERDICTS)
    tally = np.zeros(len(STATEMENTS) * len(_VERDICTS), np.int64)
    violations: list[SweepViolation] = []
    pool = np.array(_pool(seed), np.uint32)
    bounds, replay = (max_records, max_labels, max_conditions), (None, None)
    chunk = _chunk_trials(*bounds)
    for first in range(0, trials if pairs else 0, chunk):
        chunk_seeds = _state_words(pool, first, min(chunk, trials - first))
        counts = _chunk_counts(chunk_seeds, *bounds)
        c = JointCounts._make(counts if max_records <= _INT64_RECORDS else counts.astype(object))
        q = _base_ratios(c)
        codes = np.stack([_codes(theorem_id, c, q) for theorem_id in STATEMENTS])
        tally += np.bincount((codes + offsets).ravel(), minlength=len(tally))
        for row in np.flatnonzero((codes == _V).any(0)).tolist():
            t, pair = divmod(row, len(pairs))
            trial, trial_seed, (alpha, beta, cid) = first + t, int(chunk_seeds[t]), pairs[pair]
            c_row = JointCounts._make(counts[:, row].tolist())
            reports = [_report(tid, c_row, "m", alpha, (cid,), beta) for tid in STATEMENTS]
            if [_VERDICTS.index(r.verdict) for r in reports] != codes[:, row].tolist():
                raise RuntimeError(f"scalar and column evaluations disagree on {c_row}")
            if replay[0] != trial:  # (trial, its serialized log)
                replay = (trial, serialize_log(random_log(trial_seed, *bounds)))
            violations += [SweepViolation(trial, trial_seed, r.theorem_id, alpha, cid,
                                          r.correction_class, r, replay[1])
                           for r in reports if r.verdict is VIOLATED]
    by_statement = dict(zip(STATEMENTS, tally.reshape(len(STATEMENTS), len(_VERDICTS)).tolist()))
    verdict_counts = {tid: dict(zip(_VERDICTS, by_statement[tid])) for tid in TheoremId}
    return SweepResult(
        seed, trials, max_records, max_labels, max_conditions, verdict_counts, tuple(violations)
    )
