"""A record-built reference for ``PredictionLog``.

The package stores a log by column: sample ids, a shape code per row and
a table of shapes. This module holds a log the plain way, as a tuple of
``PredictionRecord``s compared and hashed as a tuple, and answers each
question about it by walking the records: what a JSONL text parses to,
what it serializes to, how many rows carry each key, and what rules do
to it and what its trace says. The tests hold the column log equal to it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from errata import DEFAULT_DISTRIBUTION, PredictionRecord


@dataclass(frozen=True)
class RecordLog:
    records: tuple[PredictionRecord, ...]

    def key_counts(self) -> dict[str, dict[str, int]]:
        """Per field, key → the number of records that carry it."""
        out = {name: defaultdict(int) for name in KEY_FIELDS}
        for r in self.records:
            out["models"][r.model_id] += 1
            out["distributions"][r.distribution] += 1
            for name, keys in (("predicted", r.predicted), ("ground_truth", r.ground_truth),
                               ("conditions", r.conditions)):
                for key in keys:
                    out[name][key] += 1
        return {name: dict(counts) for name, counts in out.items()}

    def universes(self) -> tuple[frozenset, frozenset, frozenset]:
        """Labels, condition ids and tags the records carry."""
        return (
            frozenset(label for r in self.records for label in r.predicted | r.ground_truth),
            frozenset(cid for r in self.records for cid in r.conditions),
            frozenset(r.distribution for r in self.records),
        )


KEY_FIELDS = ("models", "distributions", "predicted", "ground_truth", "conditions")


def parse(text: str) -> RecordLog:
    """The records of a valid JSONL text, one ``json.loads`` per line; lines
    end at "\\n", "\\r\\n" or "\\r", as in a text-mode file."""
    records = []
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if line.strip():
            obj = json.loads(line)
            records.append(PredictionRecord(
                obj["sample_id"], obj["model_id"], frozenset(obj["predicted"]),
                frozenset(obj["ground_truth"]), frozenset(obj["conditions"]),
                obj.get("distribution", DEFAULT_DISTRIBUTION),
            ))
    return RecordLog(tuple(records))


def serialize(log: RecordLog) -> str:
    """One dict per record through ``JSONEncoder(separators=(",", ":"))``."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = []
    for r in log.records:
        obj = {
            "sample_id": r.sample_id,
            "model_id": r.model_id,
            "predicted": sorted(r.predicted),
            "ground_truth": sorted(r.ground_truth),
            "conditions": sorted(r.conditions),
        }
        if r.distribution != DEFAULT_DISTRIBUTION:
            obj["distribution"] = r.distribution
        lines.append(encode(obj) + "\n")
    return "".join(lines)


def two_stage(log, rules):
    """Reference semantics of rule application, stage by stage: erase on
    every record, then offer each record that lost a label to the
    correction rules, with triggers read from the original predictions.
    Returns per record the final predicted set and the (erased, added,
    conflict) trace fields."""
    detected = []
    for r in log:
        erased = tuple(sorted(
            (d.target_class, i)
            for i, d in enumerate(rules.detections)
            if d.model_id == r.model_id
            and d.target_class in r.predicted
            and r.conditions & d.body.condition_ids
        ))
        detected.append((r.predicted - {label for label, _ in erased}, erased))
    out = []
    for r, (predicted, erased) in zip(log, detected):
        added, conflict = (), frozenset()
        if erased:
            firing = [
                (c.target_class, i)
                for i, c in enumerate(rules.corrections)
                if c.model_id == r.model_id
                and any(cond in r.conditions and trig in r.predicted for cond, trig in c.pairs)
            ]
            targets = {target for target, _ in firing}
            if len(targets) > 1:
                conflict = frozenset(targets)
            elif targets and not targets <= predicted:
                added = tuple(sorted(firing))
                predicted = predicted | targets
        out.append((predicted, erased, added, conflict))
    return out


def apply(log: RecordLog, rules) -> tuple[RecordLog, list[tuple]]:
    """The log after ``rules`` and, per record a detection rule touched,
    (sample_id, model_id, erased, added, conflict)."""
    records, touched = [], []
    for r, (predicted, erased, added, conflict) in zip(log.records, two_stage(log.records, rules)):
        records.append(PredictionRecord(r.sample_id, r.model_id, predicted, r.ground_truth,
                                        r.conditions, r.distribution))
        if erased:
            touched.append((r.sample_id, r.model_id, erased, added, conflict))
    return RecordLog(tuple(records)), touched


def trace_data(touched: list[tuple]) -> dict:
    """``trace.json``'s data for ``apply``'s touched records: per record
    its ids, each nonempty event list and the labels both erased and added
    (mutually canceling)."""
    entries = []
    for sample_id, model_id, erased, added, conflict in touched:
        entry = {"sample_id": sample_id, "model_id": model_id}
        if erased:
            entry["erased"] = [list(event) for event in erased]
        if added:
            entry["added"] = [list(event) for event in added]
        if conflict:
            entry["conflict"] = sorted(conflict)
        canceling = {label for label, _ in erased} & {label for label, _ in added}
        if canceling:
            entry["mutually_canceling"] = sorted(canceling)
        entries.append(entry)
    return {"entries": entries}
