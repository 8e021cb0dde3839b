"""Executable detection and correction rules with per-shape traces.

Detection rules erase a predicted label when any of their body conditions
holds; correction rules then relabel records that lost a label.
Application is record-local: every rule is evaluated against the input
record, so results do not depend on rule order, and rule indices in
traces refer to positions in the RuleSet. What a record's model,
predicted set and conditions are fixes what every rule does to it, so
``apply_rules`` decides it once per shape of the log (see
``errata.logs``), detection first, and keeps those per-shape outcomes as
its trace; a record's trace entry is built from its shape's on demand.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterator

from .estimators import (
    ConditionBody,
    _base,
    _probability,
    _recalls,
    f1_value,
    joint_counts,
)
from .logs import (
    _CHUNK_ROWS, InputError, PredictionLog, _entries, _Frozen, _json, _object, _set, _strict_json,
    _string,
)
from .rational import sub


class UnknownConditionError(InputError):
    """A rule references a condition id the log has never observed."""


class LogMismatchError(InputError):
    """Two logs that must share sample keys and ground truths do not."""


class DetectionRule(_Frozen):
    """Erase target_class from a record's predictions when the body holds."""

    __slots__ = ("model_id", "target_class", "body")

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["conditions"] = out.pop("body")["condition_ids"]
        return out


class CorrectionRule(_Frozen):
    """Add target_class when some (condition, trigger_class) pair fires.

    A pair fires when its condition holds for the record and the trigger
    class was in the record's original (pre-erasure) prediction set.
    """

    __slots__ = ("model_id", "target_class", "pairs")

    def __init__(self, model_id: str, target_class: str, pairs):
        pairs = frozenset(pairs)
        if not pairs:
            raise ValueError("a correction rule needs at least one (condition, trigger) pair")
        _set(self, "model_id", model_id)
        _set(self, "target_class", target_class)
        _set(self, "pairs", pairs)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["pairs"] = [dict(zip(("condition", "trigger_class"), pair)) for pair in out["pairs"]]
        return out


class RuleSet(_Frozen):
    __slots__ = ("detections", "corrections")

    def __init__(self, detections=(), corrections=()):
        _set(self, "detections", tuple(detections))
        _set(self, "corrections", tuple(corrections))


def dumps_rules(rules: RuleSet) -> str:
    """Canonical rule-file text (round-trips bit-exact)."""
    return json.dumps(rules.to_dict(), indent=2) + "\n"


_RULE_LISTS = frozenset({"detections", "corrections"})
_DETECTION_KEYS = frozenset({"model_id", "target_class", "conditions"})
_CORRECTION_KEYS = frozenset({"model_id", "target_class", "pairs"})
_PAIR_KEYS = frozenset({"condition", "trigger_class"})


def _pair(item, where: str) -> tuple[str, str]:
    _object(item, where, _PAIR_KEYS)
    return (_string(item["condition"], f"{where}.condition"),
            _string(item["trigger_class"], f"{where}.trigger_class"))


def _unique(items, where: str, read, what: str) -> frozenset:
    """``read(item, path)`` of each item of a nonempty JSON array, as a set;
    an item read twice is rejected."""
    if not isinstance(items, list) or not items:
        raise InputError(f"{where}: expected a nonempty array, got {items!r}")
    seen = set()
    for j, item in enumerate(items):
        path = f"{where}[{j}]"
        ident = read(item, path)
        if ident in seen:
            raise InputError(f"{path}: duplicate {what} {ident!r}")
        seen.add(ident)
    return frozenset(seen)


def loads_rules(text: str) -> RuleSet:
    """Parse a rule file strictly: a repeated, unknown or missing key, a
    wrong type, an empty id and a condition id or pair repeated within a
    rule are rejected with an error naming the rule list, index and key.
    Each rule is built as it is checked."""
    obj = _object(_strict_json(text, "rule file", InputError), "rule file", frozenset(), _RULE_LISTS)
    detections = tuple(
        DetectionRule(
            _string(entry["model_id"], f"{where}.model_id"),
            _string(entry["target_class"], f"{where}.target_class"),
            ConditionBody(_unique(entry["conditions"], f"{where}.conditions", _string, "id")),
        )
        for where, entry in _entries(obj.get("detections", []), "detections", _DETECTION_KEYS)
    )
    corrections = tuple(
        CorrectionRule(
            _string(entry["model_id"], f"{where}.model_id"),
            _string(entry["target_class"], f"{where}.target_class"),
            _unique(entry["pairs"], f"{where}.pairs", _pair, "pair"),
        )
        for where, entry in _entries(obj.get("corrections", []), "corrections", _CORRECTION_KEYS)
    )
    return RuleSet(detections, corrections)


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

class RecordTrace(_Frozen):
    """What happened to one record: (label, rule index) per event."""

    __slots__ = ("sample_id", "model_id", "erased", "added", "conflict")
    _defaults = ((), (), frozenset())

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
        # erased, added and conflict are left out when empty
        out = {name: value for name, value in super().to_dict().items() if value != []}
        if self.reinstated:
            out["mutually_canceling"] = sorted(self.reinstated)
        return out


_ENTRY_HEAD = '{\n      "sample_id": '
_encode_str = json.encoder.encode_basestring_ascii


class ApplicationTrace(_Frozen):
    """What ``apply_rules`` did to a log: the input log and, per shape code,
    the (model_id, erased, added, conflict) of its records, or None where no
    detection rule touched. Traces with equal logs and tables are equal, so
    a table follows its log's shape codes. Record traces are built on demand."""

    __slots__ = ("log", "outcomes")
    _hidden = ("log",)

    @property
    def touched(self) -> tuple[RecordTrace, ...]:
        """A RecordTrace for each record a detection rule touched, in log order."""
        outcomes = self.outcomes
        return tuple(RecordTrace(sample_id, *outcomes[code])
                     for sample_id, code in zip(self.log.sample_ids, self.log.codes) if outcomes[code])

    @property
    def entries(self) -> tuple[RecordTrace, ...]:
        """One entry per record of the log, in log order."""
        shapes = self.log.shapes
        return tuple(RecordTrace(sample_id, *(self.outcomes[code] or (shapes[code][0],)))
                     for sample_id, code in zip(self.log.sample_ids, self.log.codes))

    def to_dict(self) -> dict:
        return {"entries": _json(self.touched)}

    def to_json(self) -> str:
        """The text ``json.dumps(self.to_dict(), indent=2)`` gives: the join
        of ``_json_chunks``, the text the CLI writes chunk by chunk."""
        return "".join(self._json_chunks())

    def _json_chunks(self) -> Iterator[str]:
        """``to_json``'s text, ``_CHUNK_ROWS`` entries per chunk after the
        first chunk's head; the last chunk closes the document.

        The indenting ``json`` encoder is pure Python. Each distinct outcome
        is encoded once, with an empty id, and each entry's id is spliced
        into its outcome's text by the C string encoder the indenting
        encoder itself uses for strings.
        """
        texts = {}
        for outcome in set(self.outcomes) - {None}:
            # The entry with an empty id, indented two levels deep (a raw
            # newline in the encoding is always an indent).
            text = json.dumps(RecordTrace("", *outcome).to_dict(), indent=2)
            texts[outcome] = text.replace("\n", "\n    ")[len(_ENTRY_HEAD) + 2:]
        rests = [texts.get(outcome) for outcome in self.outcomes]
        entries = (_ENTRY_HEAD + _encode_str(sample_id) + rests[code]
                   for sample_id, code in zip(self.log.sample_ids, self.log.codes) if rests[code])
        separator = '{\n  "entries": [\n    '  # what comes before a chunk's first entry
        while chunk := list(islice(entries, _CHUNK_ROWS)):
            yield separator + ",\n    ".join(chunk)
            separator = ",\n    "
        # The close, or with no entry the whole empty document.
        yield "\n  ]\n}" if separator == ",\n    " else '{\n  "entries": []\n}'


def _require_known_conditions(rules: RuleSet, log: PredictionLog) -> None:
    """Reject the first rule that names a condition id the log never
    observed, by its key path in the rule file."""
    known = log.condition_universe
    bodies = [(f"detections[{i}].conditions", r.body.condition_ids) for i, r in enumerate(rules.detections)]
    bodies += [(f"corrections[{i}].pairs", {c for c, _ in r.pairs}) for i, r in enumerate(rules.corrections)]
    for path, ids in bodies:
        if not ids <= known:
            raise UnknownConditionError(f"{path}: condition id(s) absent from the log: {sorted(ids - known)}")


def apply_rules(log: PredictionLog, rules: RuleSet) -> tuple[PredictionLog, ApplicationTrace]:
    """Apply detection, then correction, to the records the rules touch.

    A detection rule erases its target class from a record of its model
    when the class was predicted and the body holds; rules for the same
    (model, class) combine disjunctively. Only a record that lost a label
    is offered to the correction rules. A correction pair fires when its
    condition holds and its trigger class is among the record's original
    predictions (erasure is an overlay, not a change to what the model
    said), so a correction may reinstate an erased label; the trace then
    records both events. When distinct rules propose different classes for
    one record, none is applied and the competing classes are recorded as a
    conflict; a proposed class the record still predicts is a no-op.

    The outcome is decided once per shape. The new log shares the sample
    ids and shape codes of the input: only the shapes a detection rule
    touches are replaced. The input log is unchanged.
    """
    _require_known_conditions(rules, log)
    shapes = list(log.shapes)
    outcomes: list[tuple | None] = [None] * len(shapes)  # per shape code, its trace fields
    for code, (model_id, predicted, ground_truth, conditions, distribution) in enumerate(log.shapes):
        erased = tuple(sorted(
            (rule.target_class, idx) for idx, rule in enumerate(rules.detections)
            if rule.model_id == model_id and rule.target_class in predicted
            and not rule.body.condition_ids.isdisjoint(conditions)
        ))
        if not erased:
            continue
        kept = predicted - {label for label, _ in erased}
        firing = [
            (rule.target_class, idx) for idx, rule in enumerate(rules.corrections)
            if rule.model_id == model_id
            and any(c in conditions and t in predicted for c, t in rule.pairs)
        ]
        targets = frozenset(target for target, _ in firing)
        added: tuple[tuple[str, int], ...] = ()
        conflict: frozenset[str] = frozenset()
        if len(targets) > 1:
            conflict = targets
        elif targets and not targets <= kept:
            added = tuple(sorted(firing))
            kept |= targets
        shapes[code] = (model_id, kept, ground_truth, conditions, distribution)
        outcomes[code] = (model_id, erased, added, conflict)
    trace = ApplicationTrace(log, tuple(outcomes))
    if not any(outcomes):
        return log, trace
    return PredictionLog._columns(log.sample_ids, log.codes, shapes), trace


# ---------------------------------------------------------------------------
# Before/after evaluation
# ---------------------------------------------------------------------------

class DeltaRow(_Frozen):
    """Per-(model, label) before/after metrics with exact deltas."""

    __slots__ = ("model_id", "label", "precision_before", "precision_after", "recall_before",
                 "recall_after", "f1_before", "f1_after", "precision_delta", "recall_delta",
                 "f1_delta")
    _rationals = ("f1_before", "f1_after", "precision_delta", "recall_delta", "f1_delta")

    @property
    def skipped(self) -> bool:
        """True when any delta is undefined (zero denominator on a side)."""
        return (
            self.precision_delta is None
            or self.recall_delta is None
            or self.f1_delta is None
        )

    def to_dict(self) -> dict:
        return {**super().to_dict(), "skipped": self.skipped}


def _truths_by_key(log: PredictionLog) -> dict[tuple[str, str], frozenset[str]]:
    shapes = log.shapes
    return {(sample_id, shapes[code][0]): shapes[code][2]
            for sample_id, code in zip(log.sample_ids, log.codes)}


def evaluate_delta(before: PredictionLog, after: PredictionLog) -> tuple[DeltaRow, ...]:
    """Exact per-(model, label) precision/recall/F1 deltas.

    The two logs must share (sample_id, model_id) key sets and ground
    truths; otherwise the comparison is meaningless and is rejected.
    """
    b, a = before.shapes, after.shapes  # rows in the same order: compare per pair of shapes
    if before.sample_ids != after.sample_ids or any(
        b[i][0] != a[j][0] or b[i][2] != a[j][2] for i, j in set(zip(before.codes, after.codes))
    ):
        before_gt, after_gt = _truths_by_key(before), _truths_by_key(after)
        if before_gt != after_gt:
            if before_gt.keys() != after_gt.keys():
                missing = sorted(before_gt.keys() ^ after_gt.keys())[:3]
                raise LogMismatchError(f"sample keys differ between logs (e.g. {missing})")
            key = next(k for k, gt in before_gt.items() if gt != after_gt[k])
            raise LogMismatchError(f"ground truth differs for {key!r}")

    rows = []
    for model_id in sorted(before.index.models):
        for label in sorted(before.label_universe | after.label_universe):
            counts = [joint_counts(log, label, model_id=model_id) for log in (before, after)]
            if not any(c.pred or c.gt for c in counts):
                continue  # the label never occurs on this model's records
            # Precision and recall of each log, read from its counts.
            (p_b, r_b), (p_a, r_a) = (
                (_probability(_base(c).precision), _probability(_recalls(c)[0])) for c in counts)
            f_b = f1_value(p_b, r_b)
            f_a = f1_value(p_a, r_a)
            rows.append(
                DeltaRow(
                    model_id=model_id,
                    label=label,
                    precision_before=p_b,
                    precision_after=p_a,
                    recall_before=r_b,
                    recall_after=r_a,
                    f1_before=f_b,
                    f1_after=f_a,
                    precision_delta=sub(p_a.value, p_b.value),
                    recall_delta=sub(r_a.value, r_b.value),
                    f1_delta=sub(f_a, f_b),
                )
            )
    return tuple(rows)
