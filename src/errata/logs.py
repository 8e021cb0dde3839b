"""Prediction-log data model and JSONL ingestion.

A log is an immutable, order-preserving sequence of per-sample classifier
outcomes: the label set a model produced, the ground-truth label set, the
boolean side-conditions observed for the sample, and a distribution tag.
Every probability this package reports is an exact ratio of record counts
over such a log. The counts come from the log's ``index``, built once per
log on first use: one bitset per model id, distribution tag, predicted
label, ground-truth label and condition id, so that a count is ``&``,
``|`` and ``int.bit_count()``. The tests check the index against a
record-walking reference, ``tests/event_oracle.py``.

JSONL schema (one object per line, strict — unknown fields are rejected):

    sample_id     string, required
    model_id      string, required
    predicted     array of strings, required; treated as a set
    ground_truth  array of strings, required; treated as a set
    conditions    array of strings, required; treated as a set
    distribution  string, optional; absent means the "default" distribution

Duplicate keys inside a JSON object, duplicate entries inside an array
and duplicate (sample_id, model_id) pairs across lines are all rejected.
``serialize_log`` emits a canonical form (sorted set fields, default tag
omitted) so that serialization is deterministic and
``load_log(serialize_log(log)) == log``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

DEFAULT_DISTRIBUTION = "default"

PREDICTED = "predicted"
GROUND_TRUTH = "ground_truth"
CONDITIONS = "conditions"
DISTRIBUTION = "distribution"

_SET_FIELDS = (PREDICTED, GROUND_TRUTH, CONDITIONS)
_REQUIRED_FIELDS = ("sample_id", "model_id") + _SET_FIELDS
_SCHEMA_FIELDS = _REQUIRED_FIELDS + (DISTRIBUTION,)
_REQUIRED_SET = frozenset(_REQUIRED_FIELDS)
_SCHEMA_SET = frozenset(_SCHEMA_FIELDS)


class InputError(ValueError):
    """Input from outside the program is malformed: a log, a rule file, a
    synth config or a command-line value. The CLI reports these, and only
    these, as input errors (exit 2)."""


class LogFormatError(InputError):
    """A log line or record violates the schema."""


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """One sample's outcome for one model."""

    sample_id: str
    model_id: str
    predicted: frozenset[str]
    ground_truth: frozenset[str]
    conditions: frozenset[str]
    distribution: str = DEFAULT_DISTRIBUTION

    def __post_init__(self):
        if (
            isinstance(self.predicted, frozenset)
            and isinstance(self.ground_truth, frozenset)
            and isinstance(self.conditions, frozenset)
        ):
            return
        for name in _SET_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, frozenset):
                object.__setattr__(self, name, frozenset(value))

    @property
    def key(self) -> tuple[str, str]:
        return (self.sample_id, self.model_id)


def _bitset(n: int, positions: list[int]) -> int:
    """Int with bit i set for each i in positions, built in O(n)."""
    buf = bytearray((n + 7) >> 3)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class LogIndex:
    """Bitsets over a record sequence: bit i of a key's mask is set iff
    record i carries the key. Keys the records never carry have no entry;
    read them as the empty mask 0."""

    __slots__ = ("all", "models", "distributions", "predicted", "ground_truth", "conditions")

    def __init__(self, records: Sequence[PredictionRecord]):
        keyed = tuple(defaultdict(list) for _ in range(5))
        models, distributions, predicted, ground_truth, conditions = keyed
        for i, rec in enumerate(records):
            models[rec.model_id].append(i)
            distributions[rec.distribution].append(i)
            for label in rec.predicted:
                predicted[label].append(i)
            for label in rec.ground_truth:
                ground_truth[label].append(i)
            for cid in rec.conditions:
                conditions[cid].append(i)
        n = len(records)
        self.all = (1 << n) - 1
        bitsets = [{key: _bitset(n, pos) for key, pos in by_key.items()} for by_key in keyed]
        (self.models, self.distributions, self.predicted, self.ground_truth,
         self.conditions) = bitsets

    def scope(self, model_id: str | None = None, distribution: str | None = None) -> int:
        """Records of one model (every model for None), narrowed to one
        distribution tag when one is given."""
        mask = self.all if model_id is None else self.models.get(model_id, 0)
        if distribution is not None:
            mask &= self.distributions.get(distribution, 0)
        return mask


@dataclass(frozen=True)
class PredictionLog:
    """Immutable collection of prediction records.

    Universes are recomputed from the records at construction, and a
    duplicate (sample_id, model_id) pair is rejected, so a constructed log
    is always internally consistent. All operations are pure: slicing and
    rule application produce new logs.
    """

    records: tuple[PredictionRecord, ...] = ()
    label_universe: frozenset[str] = field(init=False, compare=False)
    condition_universe: frozenset[str] = field(init=False, compare=False)
    distribution_universe: frozenset[str] = field(init=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.records, tuple):
            object.__setattr__(self, "records", tuple(self.records))
        labels: set[str] = set()
        conditions: set[str] = set()
        distributions: set[str] = set()
        seen: set[tuple[str, str]] = set()
        for rec in self.records:
            key = (rec.sample_id, rec.model_id)
            if key in seen:
                raise LogFormatError(f"duplicate (sample_id, model_id) pair {key!r}")
            seen.add(key)
            labels.update(rec.predicted)
            labels.update(rec.ground_truth)
            conditions.update(rec.conditions)
            distributions.add(rec.distribution)
        object.__setattr__(self, "label_universe", frozenset(labels))
        object.__setattr__(self, "condition_universe", frozenset(conditions))
        object.__setattr__(self, "distribution_universe", frozenset(distributions))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)

    def slice(self, model_id: str, distribution: str | None = None) -> "PredictionLog":
        """Sub-log for one model, optionally narrowed to one distribution tag.

        An empty result is legal. Slicing on "default" selects records
        that carried no explicit tag.
        """
        keep = tuple(
            r
            for r in self.records
            if r.model_id == model_id
            and (distribution is None or r.distribution == distribution)
        )
        return PredictionLog(keep)

    @cached_property
    def index(self) -> LogIndex:
        """Bitset index of the records, built on first use and kept for the
        life of the log; equality and hashing ignore it."""
        return LogIndex(self.records)

    def by_key(self) -> dict[tuple[str, str], PredictionRecord]:
        return {r.key: r for r in self.records}


# ---------------------------------------------------------------------------
# JSONL ingestion / serialization
# ---------------------------------------------------------------------------

def _parse_set_field(value, name: str, lineno: int) -> frozenset[str]:
    if isinstance(value, list):
        try:
            "".join(value)  # TypeError unless every entry is a str
        except TypeError:
            pass
        else:
            unique = frozenset(value)
            if len(unique) == len(value) and "" not in unique:
                return unique
    if not isinstance(value, list):
        raise LogFormatError(f"line {lineno}: field {name!r} must be an array of strings")
    items: set[str] = set()
    for item in value:
        if not isinstance(item, str) or not item:
            raise LogFormatError(
                f"line {lineno}: field {name!r} entries must be nonempty strings"
            )
        if item in items:
            raise LogFormatError(
                f"line {lineno}: duplicate entry {item!r} in field {name!r}"
            )
        items.add(item)
    return frozenset(items)


def _parse_record(obj: dict, lineno: int) -> PredictionRecord:
    keys = obj.keys()
    if not keys <= _SCHEMA_SET:
        unknown = sorted(set(obj) - _SCHEMA_SET)
        raise LogFormatError(f"line {lineno}: unknown field(s) {unknown}")
    if not keys >= _REQUIRED_SET:
        missing = [name for name in _REQUIRED_FIELDS if name not in obj]
        raise LogFormatError(f"line {lineno}: missing field(s) {missing}")
    for name in ("sample_id", "model_id"):
        if not isinstance(obj[name], str) or not obj[name]:
            raise LogFormatError(f"line {lineno}: field {name!r} must be a nonempty string")
    distribution = obj.get(DISTRIBUTION, DEFAULT_DISTRIBUTION)
    if not isinstance(distribution, str) or not distribution:
        raise LogFormatError(f"line {lineno}: field 'distribution' must be a nonempty string")
    return PredictionRecord(
        obj["sample_id"],
        obj["model_id"],
        _parse_set_field(obj[PREDICTED], PREDICTED, lineno),
        _parse_set_field(obj[GROUND_TRUTH], GROUND_TRUTH, lineno),
        _parse_set_field(obj[CONDITIONS], CONDITIONS, lineno),
        distribution,
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Object hook of the line decoder: a key may appear once per object."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise LogFormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_log(source: str | Iterable[str]) -> PredictionLog:
    """Parse line-delimited JSON into a validated log.

    Rejection errors carry the 1-based line number of the offending line.
    Blank lines are skipped; an empty source yields an empty log.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    records: list[PredictionRecord] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            # raw_decode skips decode's two whitespace scans: the line is
            # stripped, so anything after the value is extra data.
            obj, end = _DECODER.raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            msg = exc.msg
            if line.startswith("\ufeff"):  # json.loads names the BOM; raw_decode does not
                msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise LogFormatError(f"line {lineno}: malformed JSON ({msg})") from exc
        except LogFormatError as exc:
            raise LogFormatError(f"line {lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise LogFormatError(f"line {lineno}: expected a JSON object")
        record = _parse_record(obj, lineno)
        key = (record.sample_id, record.model_id)
        if key in seen:
            raise LogFormatError(
                f"line {lineno}: duplicate (sample_id, model_id) {key!r}"
                f" first seen on line {seen[key]}"
            )
        seen[key] = lineno
        records.append(record)
    return PredictionLog(tuple(records))


def load_log_file(path) -> PredictionLog:
    with open(path, "r", encoding="utf-8") as handle:
        return load_log(handle)


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def serialize_log(log: PredictionLog) -> str:
    """Canonical JSONL for a log; record order is preserved."""
    lines = []
    for rec in log.records:
        obj = {
            "sample_id": rec.sample_id,
            "model_id": rec.model_id,
            "predicted": sorted(rec.predicted),
            "ground_truth": sorted(rec.ground_truth),
            "conditions": sorted(rec.conditions),
        }
        if rec.distribution != DEFAULT_DISTRIBUTION:
            obj["distribution"] = rec.distribution
        lines.append(_ENCODE(obj))
    return "\n".join(lines) + ("\n" if lines else "")
