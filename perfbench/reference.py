"""Independent recount over raw JSONL dicts.

This module imports nothing from ``errata``: it re-derives every count the
benchmark checks straight from the log text, with the standard library
only, so that a bug shared by the program and its own helpers cannot make
a wrong output look right. Counts follow the definitions in the README:
a body holds when any of its condition ids is among a record's
conditions; a zero conditioning count is UNDEFINED (``None``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_DISTRIBUTION = "default"


@dataclass(frozen=True, slots=True)
class Rec:
    sample_id: str
    model_id: str
    predicted: frozenset
    truth: frozenset
    conditions: frozenset
    distribution: str


def parse_records(lines) -> list[Rec]:
    """Raw JSONL lines to records; blank lines are skipped."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        out.append(
            Rec(
                obj["sample_id"],
                obj["model_id"],
                frozenset(obj["predicted"]),
                frozenset(obj["ground_truth"]),
                frozenset(obj["conditions"]),
                obj.get("distribution", DEFAULT_DISTRIBUTION),
            )
        )
    return out


def read_records(path) -> list[Rec]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_records(handle)


def ratio(num: int, den: int) -> Fraction | None:
    return Fraction(num, den) if den else None


# ---------------------------------------------------------------------------
# Class/body counts and the statistics derived from them
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Counts:
    gt: int
    pred: int
    pred_gt: int
    pred_body: int
    pred_body_gt: int


def bundle(c: Counts) -> dict:
    """The eight statistics of a metric bundle.

    Probabilities are (numerator, denominator) count pairs; ``k_factor``
    and ``residual`` are Fractions or None.
    """
    support = ratio(c.pred_body, c.pred)
    precision = ratio(c.pred_gt, c.pred)
    return {
        "precision": (c.pred_gt, c.pred),
        "recall": (c.pred_gt, c.gt),
        "rule_precision": (c.pred_gt - c.pred_body_gt, c.pred - c.pred_body),
        "rule_recall": (c.pred_gt - c.pred_body_gt, c.gt),
        "support": (c.pred_body, c.pred),
        "confidence": (c.pred_body - c.pred_body_gt, c.pred_body),
        "k_factor": None if support is None or support == 1 else support / (1 - support),
        "residual": None if precision is None else 1 - precision,
    }


def recall_reduction(c: Counts) -> Fraction | None:
    """Share of the class's true instances a detection body erases."""
    return ratio(c.pred_body_gt, c.gt)


def objective(name: str, c: Counts) -> Fraction | None:
    """Learner objective of a body, from its counts (README definitions)."""
    if c.pred == 0:
        return None
    if name == "SUPPORT_TIMES_CONFIDENCE":
        return Fraction(c.pred_body - c.pred_body_gt, c.pred)
    if c.pred_body == c.pred:
        return None
    post_precision = Fraction(c.pred_gt - c.pred_body_gt, c.pred - c.pred_body)
    if name == "PRECISION_GAIN":
        return post_precision - Fraction(c.pred_gt, c.pred)
    if name != "F1":
        raise ValueError(f"unknown objective {name!r}")
    if c.gt == 0:
        return None
    post_recall = Fraction(c.pred_gt - c.pred_body_gt, c.gt)
    if post_precision + post_recall == 0:
        return None
    return 2 * post_precision * post_recall / (post_precision + post_recall)


class ClassCounter:
    """Body counts for one (model, class), pooled or per distribution tag,
    memoized per query."""

    def __init__(self, records, model_id, alpha):
        self.alpha = alpha
        self.gt = {None: 0}
        # (in_gt, conditions, distribution) per prediction. Conditions are
        # kept as a tuple of strings, which the garbage collector stops
        # tracking, so the recount does not lengthen the program's
        # collections when it shares a process with it.
        self.predicted = []
        for r in records:
            if r.model_id != model_id:
                continue
            in_gt = alpha in r.truth
            self.gt[None] += in_gt
            self.gt[r.distribution] = self.gt.get(r.distribution, 0) + in_gt
            if alpha in r.predicted:
                self.predicted.append((in_gt, tuple(r.conditions), r.distribution))
        self._memo: dict = {}

    def counts(self, body, distribution=None) -> Counts:
        key = (frozenset(body), distribution)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        body = key[0]
        pred = pred_gt = pred_body = pred_body_gt = 0
        for in_gt, conditions, tag in self.predicted:
            if distribution is not None and tag != distribution:
                continue
            pred += 1
            pred_gt += in_gt
            if not body.isdisjoint(conditions):
                pred_body += 1
                pred_body_gt += in_gt
        result = Counts(self.gt.get(distribution, 0), pred, pred_gt, pred_body, pred_body_gt)
        self._memo[key] = result
        return result


def error_detecting(c: Counts) -> str:
    """YES iff precision under the body is at most the base precision."""
    if c.pred == 0 or c.pred_body == 0:
        return "UNDEFINED"
    return "YES" if Fraction(c.pred_body_gt, c.pred_body) <= Fraction(c.pred_gt, c.pred) else "NO"


def pair_admissible(records, model_id, beta, pair) -> bool:
    """Correction-pair guard: β's precision where the pair fires strictly
    exceeds β's base precision (any positive precision when the base is
    undefined)."""
    cond, trigger = pair
    base_num = base_den = fire_num = fire_den = 0
    for r in records:
        if r.model_id != model_id:
            continue
        in_gt = beta in r.truth
        if beta in r.predicted:
            base_den += 1
            base_num += in_gt
        if trigger in r.predicted and cond in r.conditions:
            fire_den += 1
            fire_num += in_gt
    fire = ratio(fire_num, fire_den)
    base = ratio(base_num, base_den)
    if fire is None:
        return False
    return fire > base if base is not None else fire > 0


# ---------------------------------------------------------------------------
# Rule application and before/after metrics
# ---------------------------------------------------------------------------

def apply_rules(records, rules: dict):
    """Detection then correction, as the README specifies.

    ``rules`` is the parsed rule file. Returns (predicted sets after, in
    record order; erasure count; addition count; conflict count).
    """
    detections = [
        (d["model_id"], d["target_class"], frozenset(d["conditions"]))
        for d in rules.get("detections", ())
    ]
    corrections = [
        (
            c["model_id"],
            c["target_class"],
            [(p["condition"], p["trigger_class"]) for p in c["pairs"]],
        )
        for c in rules.get("corrections", ())
    ]
    after = []
    erasures = additions = conflicts = 0
    for r in records:
        fired = [
            target
            for model, target, body in detections
            if model == r.model_id and target in r.predicted and not body.isdisjoint(r.conditions)
        ]
        erasures += len(fired)
        gone = set(fired)
        predicted = r.predicted - gone
        if gone:
            targets = {
                target
                for model, target, pairs in corrections
                if model == r.model_id
                and any(c in r.conditions and t in r.predicted for c, t in pairs)
            }
            if len(targets) > 1:
                conflicts += 1
            elif targets:
                (beta,) = targets
                if beta not in predicted:
                    additions += 1
                    predicted = predicted | {beta}
        after.append(predicted)
    return after, erasures, additions, conflicts


def class_metrics(pairs, label) -> tuple[Fraction | None, Fraction | None]:
    """(precision, recall) of one label over (predicted, truth) pairs."""
    pred = pred_gt = gt = 0
    for predicted, truth in pairs:
        in_gt = label in truth
        gt += in_gt
        if label in predicted:
            pred += 1
            pred_gt += in_gt
    return ratio(pred_gt, pred), ratio(pred_gt, gt)


def delta_cells(records, after_predicted) -> dict:
    """(model, label) → (P before, P after, R before, R after)."""
    out = {}
    for model in sorted({r.model_id for r in records}):
        idx = [i for i, r in enumerate(records) if r.model_id == model]
        labels = set()
        for i in idx:
            labels |= records[i].predicted | records[i].truth | after_predicted[i]
        before_pairs = [(records[i].predicted, records[i].truth) for i in idx]
        after_pairs = [(after_predicted[i], records[i].truth) for i in idx]
        for label in sorted(labels):
            p_b, r_b = class_metrics(before_pairs, label)
            p_a, r_a = class_metrics(after_pairs, label)
            out[(model, label)] = (p_b, p_a, r_b, r_a)
    return out


def parse_cell(text: str) -> Fraction | None:
    return None if text == "UNDEFINED" else Fraction(text)
