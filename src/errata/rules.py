"""Executable detection and correction rules with per-record traces.

Detection rules erase a predicted label when any of their body conditions
holds; correction rules then relabel records that lost a label. The two
stages always run in that order. Application is record-local: every rule
is evaluated against the input records, so results do not depend on rule
order, and rule indices in traces refer to positions in the RuleSet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .estimators import (
    ConditionBody,
    Probability,
    bundle_from_counts,
    f1_value,
    joint_counts,
)
from .logs import PredictionLog
from .rational import format_rational, sub


class UnknownConditionError(ValueError):
    """A rule references a condition id the log has never observed."""


class LogMismatchError(ValueError):
    """Two logs that must share sample keys and ground truths do not."""


class TraceMismatchError(ValueError):
    """A trace does not line up with the log it is applied against."""


@dataclass(frozen=True, slots=True)
class DetectionRule:
    """Erase target_class from a record's predictions when the body holds."""

    model_id: str
    target_class: str
    body: ConditionBody

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "target_class": self.target_class,
            "conditions": list(self.body.sorted_ids()),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DetectionRule":
        return cls(obj["model_id"], obj["target_class"], ConditionBody.of(*obj["conditions"]))


@dataclass(frozen=True, slots=True)
class CorrectionRule:
    """Add target_class when some (condition, trigger_class) pair fires.

    A pair fires when its condition holds for the record and the trigger
    class was in the record's original (pre-erasure) prediction set.
    """

    model_id: str
    target_class: str
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs", frozenset(self.pairs))
        if not self.pairs:
            raise ValueError("a correction rule needs at least one (condition, trigger) pair")

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.pairs))

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "target_class": self.target_class,
            "pairs": [
                {"condition": c, "trigger_class": t} for c, t in self.sorted_pairs()
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CorrectionRule":
        pairs = frozenset((p["condition"], p["trigger_class"]) for p in obj["pairs"])
        return cls(obj["model_id"], obj["target_class"], pairs)


@dataclass(frozen=True)
class RuleSet:
    detections: tuple[DetectionRule, ...] = ()
    corrections: tuple[CorrectionRule, ...] = ()

    def __post_init__(self):
        if not isinstance(self.detections, tuple):
            object.__setattr__(self, "detections", tuple(self.detections))
        if not isinstance(self.corrections, tuple):
            object.__setattr__(self, "corrections", tuple(self.corrections))

    def to_dict(self) -> dict:
        return {
            "detections": [r.to_dict() for r in self.detections],
            "corrections": [r.to_dict() for r in self.corrections],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RuleSet":
        return cls(
            tuple(DetectionRule.from_dict(r) for r in obj.get("detections", ())),
            tuple(CorrectionRule.from_dict(r) for r in obj.get("corrections", ())),
        )


def dumps_rules(rules: RuleSet) -> str:
    """Canonical rule-file text (round-trips bit-exact)."""
    return json.dumps(rules.to_dict(), indent=2) + "\n"


_RULE_KEYS = {
    "detections": ("model_id", "target_class", "conditions"),
    "corrections": ("model_id", "target_class", "pairs"),
}
_PAIR_KEYS = ("condition", "trigger_class")


def _require_object(obj, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")


def _require_list(value, where: str) -> None:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where}: expected a nonempty array")


def _require_id(value, where: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: expected a nonempty string")


def loads_rules(text: str) -> RuleSet:
    """Parse a rule file strictly: unknown keys, wrong types, empty ids and
    repeated condition ids or pairs within a rule are rejected with an
    error naming the rule list, index and key."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed rule file: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ValueError("rule file must contain a JSON object")
    unknown = sorted(set(obj) - set(_RULE_KEYS))
    if unknown:
        raise ValueError(f"rule file has unknown key(s) {unknown}")
    for kind, keys in _RULE_KEYS.items():
        entries = obj.get(kind, [])
        if not isinstance(entries, list):
            raise ValueError(f"{kind}: expected an array")
        for i, entry in enumerate(entries):
            where = f"{kind}[{i}]"
            _require_object(entry, keys, where)
            _require_id(entry["model_id"], f"{where}.model_id")
            _require_id(entry["target_class"], f"{where}.target_class")
            body_key = keys[2]
            _require_list(entry[body_key], f"{where}.{body_key}")
            seen = set()
            for j, item in enumerate(entry[body_key]):
                item_where = f"{where}.{body_key}[{j}]"
                if kind == "detections":
                    _require_id(item, item_where)
                    what, ident = "id", item
                else:
                    _require_object(item, _PAIR_KEYS, item_where)
                    for key in _PAIR_KEYS:
                        _require_id(item[key], f"{item_where}.{key}")
                    what, ident = "pair", (item["condition"], item["trigger_class"])
                if ident in seen:
                    raise ValueError(f"{item_where}: duplicate {what} {ident!r}")
                seen.add(ident)
    return RuleSet.from_dict(obj)


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RecordTrace:
    """What happened to one record: (label, rule index) per event."""

    sample_id: str
    model_id: str
    erased: tuple[tuple[str, int], ...] = ()
    added: tuple[tuple[str, int], ...] = ()
    conflict: frozenset[str] = frozenset()

    @property
    def erased_labels(self) -> frozenset[str]:
        return frozenset(label for label, _ in self.erased)

    @property
    def added_labels(self) -> frozenset[str]:
        return frozenset(label for label, _ in self.added)

    @property
    def reinstated(self) -> frozenset[str]:
        """Labels a detection erased and a correction re-added (mutually
        canceling rule pairs; permitted, recorded as both events)."""
        return self.erased_labels & self.added_labels

    def to_dict(self) -> dict:
        out: dict = {"sample_id": self.sample_id, "model_id": self.model_id}
        if self.erased:
            out["erased"] = [[label, idx] for label, idx in self.erased]
        if self.added:
            out["added"] = [[label, idx] for label, idx in self.added]
        if self.conflict:
            out["conflict"] = sorted(self.conflict)
        if self.reinstated:
            out["mutually_canceling"] = sorted(self.reinstated)
        return out


@dataclass(frozen=True)
class ApplicationTrace:
    """One entry per log record, in log order."""

    entries: tuple[RecordTrace, ...]

    def nonempty(self) -> tuple[RecordTrace, ...]:
        return tuple(e for e in self.entries if e.erased or e.added or e.conflict)

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.nonempty()]}


def _require_known_conditions(condition_ids, log: PredictionLog, kind: str) -> None:
    unknown = sorted(set(condition_ids) - set(log.condition_universe))
    if unknown:
        raise UnknownConditionError(
            f"{kind} rule references condition id(s) absent from the log: {unknown}"
        )


def apply_detection(
    log: PredictionLog, rules: RuleSet
) -> tuple[PredictionLog, ApplicationTrace]:
    """Erase every prediction a matching detection rule flags.

    Rules for the same (model, class) combine disjunctively. The input log
    is unchanged; the trace records each erasure with its rule index.
    """
    _require_known_conditions(
        (cid for rule in rules.detections for cid in rule.body.condition_ids),
        log,
        "detection",
    )
    new_records = []
    entries = []
    for rec in log.records:
        erased = [
            (rule.target_class, idx)
            for idx, rule in enumerate(rules.detections)
            if rule.model_id == rec.model_id
            and rule.target_class in rec.predicted
            and rule.body.holds_for(rec)
        ]
        if erased:
            gone = frozenset(label for label, _ in erased)
            new_records.append(replace(rec, predicted=rec.predicted - gone))
        else:
            new_records.append(rec)
        entries.append(RecordTrace(rec.sample_id, rec.model_id, tuple(sorted(erased))))
    return PredictionLog(tuple(new_records)), ApplicationTrace(tuple(entries))


def apply_correction(
    detected_log: PredictionLog,
    trace: ApplicationTrace,
    original_log: PredictionLog,
    rules: RuleSet,
    *,
    only_erased: bool = True,
) -> tuple[PredictionLog, ApplicationTrace]:
    """Relabel records the detection stage touched.

    Pairs test their trigger class against the *original* predictions
    (erasure is an overlay, not a change to what the model said). When
    distinct rules propose different classes for one record, none is
    applied and the competing classes are recorded as a conflict. With
    ``only_erased`` (the default, matching the standard pipeline) records
    without erasures are never modified.
    """
    _require_known_conditions(
        (c for rule in rules.corrections for c, _ in rule.pairs),
        detected_log,
        "correction",
    )
    if len(detected_log.records) != len(original_log.records) or len(
        trace.entries
    ) != len(detected_log.records):
        raise TraceMismatchError("trace/log lengths differ")
    new_records = []
    entries = []
    for rec_orig, rec_det, entry in zip(
        original_log.records, detected_log.records, trace.entries
    ):
        if rec_orig.key != rec_det.key or rec_orig.key != (entry.sample_id, entry.model_id):
            raise TraceMismatchError(
                f"record keys out of alignment at {rec_orig.key!r}"
            )
        eligible = bool(entry.erased) or not only_erased
        firing: list[tuple[int, str]] = []
        if eligible:
            for idx, rule in enumerate(rules.corrections):
                if rule.model_id != rec_det.model_id:
                    continue
                if any(
                    cond in rec_det.conditions and trig in rec_orig.predicted
                    for cond, trig in rule.pairs
                ):
                    firing.append((idx, rule.target_class))
        targets = {target for _, target in firing}
        if len(targets) > 1:
            entries.append(replace(entry, conflict=frozenset(targets)))
            new_records.append(rec_det)
        elif len(targets) == 1:
            beta = next(iter(targets))
            if beta not in rec_det.predicted:
                added = tuple(sorted((beta, idx) for idx, _ in firing))
                entries.append(replace(entry, added=added))
                new_records.append(replace(rec_det, predicted=rec_det.predicted | {beta}))
            else:
                # Already predicted and not erased: the rule is a no-op.
                entries.append(entry)
                new_records.append(rec_det)
        else:
            entries.append(entry)
            new_records.append(rec_det)
    return PredictionLog(tuple(new_records)), ApplicationTrace(tuple(entries))


def apply_rules(
    log: PredictionLog, rules: RuleSet, *, only_erased: bool = True
) -> tuple[PredictionLog, ApplicationTrace]:
    """Full pipeline: detection first, then correction."""
    detected, trace = apply_detection(log, rules)
    return apply_correction(detected, trace, log, rules, only_erased=only_erased)


# ---------------------------------------------------------------------------
# Before/after evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DeltaRow:
    """Per-(model, label) before/after metrics with exact deltas."""

    model_id: str
    label: str
    precision_before: Probability
    precision_after: Probability
    recall_before: Probability
    recall_after: Probability
    f1_before: Fraction | None
    f1_after: Fraction | None
    precision_delta: Fraction | None
    recall_delta: Fraction | None
    f1_delta: Fraction | None

    @property
    def skipped(self) -> bool:
        """True when any delta is undefined (zero denominator on a side)."""
        return (
            self.precision_delta is None
            or self.recall_delta is None
            or self.f1_delta is None
        )

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "label": self.label,
            "precision_before": self.precision_before.to_dict(),
            "precision_after": self.precision_after.to_dict(),
            "recall_before": self.recall_before.to_dict(),
            "recall_after": self.recall_after.to_dict(),
            "f1_before": format_rational(self.f1_before),
            "f1_after": format_rational(self.f1_after),
            "precision_delta": format_rational(self.precision_delta),
            "recall_delta": format_rational(self.recall_delta),
            "f1_delta": format_rational(self.f1_delta),
            "skipped": self.skipped,
        }


def evaluate_delta(before: PredictionLog, after: PredictionLog) -> tuple[DeltaRow, ...]:
    """Exact per-(model, label) precision/recall/F1 deltas.

    The two logs must share (sample_id, model_id) key sets and ground
    truths; otherwise the comparison is meaningless and is rejected.
    """
    before_keys = before.by_key()
    after_keys = after.by_key()
    if set(before_keys) != set(after_keys):
        missing = sorted(set(before_keys) ^ set(after_keys))[:3]
        raise LogMismatchError(f"sample keys differ between logs (e.g. {missing})")
    for key, rec in before_keys.items():
        if rec.ground_truth != after_keys[key].ground_truth:
            raise LogMismatchError(f"ground truth differs for {key!r}")

    rows = []
    for model_id in sorted(before.index.models):
        for label in sorted(before.label_universe | after.label_universe):
            counts = [joint_counts(log, label, model_id=model_id) for log in (before, after)]
            if not any(c.pred or c.gt for c in counts):
                continue  # the label never occurs on this model's records
            b, a = (bundle_from_counts(c) for c in counts)
            f_b = f1_value(b.precision, b.recall)
            f_a = f1_value(a.precision, a.recall)
            rows.append(
                DeltaRow(
                    model_id=model_id,
                    label=label,
                    precision_before=b.precision,
                    precision_after=a.precision,
                    recall_before=b.recall,
                    recall_after=a.recall,
                    f1_before=f_b,
                    f1_after=f_a,
                    precision_delta=sub(a.precision.value, b.precision.value),
                    recall_delta=sub(a.recall.value, b.recall.value),
                    f1_delta=sub(f_a, f_b),
                )
            )
    return tuple(rows)
