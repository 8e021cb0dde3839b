"""Executable detection and correction rules with per-record traces.

Detection rules erase a predicted label when any of their body conditions
holds; correction rules then relabel records that lost a label.
``apply_rules`` runs both in one pass over the records, detection first
within each record. Application is record-local: every rule is evaluated
against the input record, so results do not depend on rule order, and
rule indices in traces refer to positions in the RuleSet.
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
from .logs import InputError, PredictionLog
from .rational import format_rational, sub


class UnknownConditionError(InputError):
    """A rule references a condition id the log has never observed."""


class LogMismatchError(InputError):
    """Two logs that must share sample keys and ground truths do not."""


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
        raise InputError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {unknown}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise InputError(f"{where}: missing key(s) {missing}")


def _require_list(value, where: str) -> None:
    if not isinstance(value, list) or not value:
        raise InputError(f"{where}: expected a nonempty array")


def _require_id(value, where: str) -> None:
    if not isinstance(value, str) or not value:
        raise InputError(f"{where}: expected a nonempty string")


def loads_rules(text: str) -> RuleSet:
    """Parse a rule file strictly: unknown keys, wrong types, empty ids and
    repeated condition ids or pairs within a rule are rejected with an
    error naming the rule list, index and key."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed rule file: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InputError("rule file must contain a JSON object")
    unknown = sorted(set(obj) - set(_RULE_KEYS))
    if unknown:
        raise InputError(f"rule file has unknown key(s) {unknown}")
    for kind, keys in _RULE_KEYS.items():
        entries = obj.get(kind, [])
        if not isinstance(entries, list):
            raise InputError(f"{kind}: expected an array")
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
                    raise InputError(f"{item_where}: duplicate {what} {ident!r}")
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


def apply_rules(log: PredictionLog, rules: RuleSet) -> tuple[PredictionLog, ApplicationTrace]:
    """Apply detection, then correction, in one pass over the records.

    A detection rule erases its target class from a record of its model
    when the class was predicted and the body holds; rules for the same
    (model, class) combine disjunctively. Only a record that lost a label
    is offered to the correction rules. A correction pair fires when its
    condition holds and its trigger class is among the record's original
    predictions (erasure is an overlay, not a change to what the model
    said), so a correction may reinstate an erased label; the trace then
    records both events. When distinct rules propose different classes for
    one record, none is applied and the competing classes are recorded as a
    conflict; a proposed class the record still predicts is a no-op. The
    input log is unchanged; the trace has one entry per record, in log
    order.
    """
    _require_known_conditions(
        (cid for rule in rules.detections for cid in rule.body.condition_ids),
        log,
        "detection",
    )
    _require_known_conditions(
        (c for rule in rules.corrections for c, _ in rule.pairs), log, "correction"
    )
    new_records = []
    entries = []
    for rec in log.records:
        erased = sorted(
            (rule.target_class, idx)
            for idx, rule in enumerate(rules.detections)
            if rule.model_id == rec.model_id
            and rule.target_class in rec.predicted
            and rule.body.holds_for(rec)
        )
        if not erased:
            new_records.append(rec)
            entries.append(RecordTrace(rec.sample_id, rec.model_id))
            continue
        predicted = rec.predicted - {label for label, _ in erased}
        firing = [
            (rule.target_class, idx)
            for idx, rule in enumerate(rules.corrections)
            if rule.model_id == rec.model_id
            and any(
                cond in rec.conditions and trig in rec.predicted for cond, trig in rule.pairs
            )
        ]
        targets = frozenset(target for target, _ in firing)
        added: tuple[tuple[str, int], ...] = ()
        conflict: frozenset[str] = frozenset()
        if len(targets) > 1:
            conflict = targets
        elif targets and not targets <= predicted:
            added = tuple(sorted(firing))
            predicted |= targets
        new_records.append(replace(rec, predicted=predicted))
        entries.append(RecordTrace(rec.sample_id, rec.model_id, tuple(erased), added, conflict))
    return PredictionLog(tuple(new_records)), ApplicationTrace(tuple(entries))


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
