"""Prediction-log data model and JSONL ingestion.

A log is an immutable, order-preserving sequence of per-sample classifier
outcomes: the label set a model produced, the ground-truth label set, the
boolean side-conditions observed for the sample, and a distribution tag.
Every probability this package reports is an exact ratio of record counts
over such a log. The counts come from the log's ``index``, built once per
log on first use: one bitset per model id, distribution tag, predicted
label, ground-truth label and condition id, so that a count is ``&``,
``|`` and ``int.bit_count()``. The label, condition and distribution
universes are the index's keys. The tests check the index against a
record-walking reference, ``tests/event_oracle.py``.

``load_log`` interns set fields: equal arrays within one load share one
frozenset, and only arrays that passed validation are reused, so every
line is still checked and its errors still carry its line number.

It also parses each distinct line *tail* once per load. A canonical line
(as ``serialize_log`` writes it) starts ``{"sample_id":"``, and its tail
is the text after the id string. A tail is remembered only after a whole
line ending in it has passed the full parse and validation; a later
canonical line with a nonempty id and a remembered tail takes that line's
validated fields and keeps its own id. This is sound because what the
decoder does after the id string does not depend on the id: the later
line parses to the same keys and values apart from ``sample_id``, so it
passes every check the earlier line passed. A tail that repeats the
``"sample_id"`` key fails its first line and is never remembered. Any
other line takes the full parse, so its errors are unchanged, and the
(sample_id, model_id) duplicate check runs on every line.

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
from dataclasses import dataclass
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


# Strict readers of the JSON objects in rule files and synth configs. Each
# raises the ``error`` class its caller names, with the path of the value.

def _object(value, where: str, required: frozenset, optional: frozenset = frozenset(),
            error: type[InputError] = InputError) -> dict:
    """``value``, once it is a JSON object with every ``required`` key and
    no key outside ``required | optional``. The error names the path and
    the first unknown key, or else the first missing one."""
    prefix = f"{where}: " if where else ""
    if not isinstance(value, dict):
        raise error(f"{prefix}expected an object, got {value!r}")
    if not value.keys() <= required | optional:
        raise error(f"{prefix}unknown key {min(value.keys() - required - optional, key=str)!r}")
    if not required <= value.keys():
        raise error(f"{prefix}missing key {min(required - value.keys())!r}")
    return value


def _entries(rows, where: str, required: frozenset, optional: frozenset = frozenset(),
             error: type[InputError] = InputError):
    """(path, object) for each object of a JSON array, each checked by
    ``_object`` as it is read."""
    if not isinstance(rows, list):
        raise error(f"{where}: expected an array, got {rows!r}")
    for i, entry in enumerate(rows):
        path = f"{where}[{i}]"
        yield path, _object(entry, path, required, optional, error)


def _string(value, where: str, error: type[InputError] = InputError) -> str:
    if not isinstance(value, str) or not value:
        raise error(f"{where}: expected a nonempty string, got {value!r}")
    return value


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

    A duplicate (sample_id, model_id) pair is rejected at construction, so
    a constructed log is always internally consistent. The universes are
    read from the keys of the index. All operations are pure: slicing and
    rule application produce new logs.
    """

    records: tuple[PredictionRecord, ...] = ()

    def __post_init__(self):
        if not isinstance(self.records, tuple):
            object.__setattr__(self, "records", tuple(self.records))
        seen: set[tuple[str, str]] = set()
        for rec in self.records:
            key = (rec.sample_id, rec.model_id)
            if key in seen:
                raise LogFormatError(f"duplicate (sample_id, model_id) pair {key!r}")
            seen.add(key)

    @classmethod
    def _unchecked(cls, records: tuple[PredictionRecord, ...]) -> "PredictionLog":
        """A log over records whose keys the caller already knows are unique."""
        log = object.__new__(cls)
        object.__setattr__(log, "records", records)
        return log

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
        return PredictionLog._unchecked(keep)

    @cached_property
    def index(self) -> LogIndex:
        """Bitset index of the records, built on first use and kept for the
        life of the log; equality and hashing ignore it."""
        return LogIndex(self.records)

    # Every label, condition id and tag the records carry: the index's keys.
    label_universe = cached_property(
        lambda self: frozenset(self.index.predicted).union(self.index.ground_truth)
    )
    condition_universe = cached_property(lambda self: frozenset(self.index.conditions))
    distribution_universe = cached_property(lambda self: frozenset(self.index.distributions))


# ---------------------------------------------------------------------------
# JSONL ingestion / serialization
# ---------------------------------------------------------------------------

_new_object = object.__new__
(_set_sample_id, _set_model_id, _set_predicted, _set_ground_truth, _set_conditions,
 _set_distribution) = (PredictionRecord.__dict__[name].__set__ for name in _SCHEMA_FIELDS)


def _record(sample_id, model_id, predicted, ground_truth, conditions, distribution):
    """A ``PredictionRecord`` over validated fields, filled through its slot
    descriptors: the frozen ``__init__`` and ``__post_init__`` would only
    redo checks these fields passed."""
    record = _new_object(PredictionRecord)
    _set_sample_id(record, sample_id)
    _set_model_id(record, model_id)
    _set_predicted(record, predicted)
    _set_ground_truth(record, ground_truth)
    _set_conditions(record, conditions)
    _set_distribution(record, distribution)
    return record


def _parse_set_field(value, name: str, lineno: int, interned: dict) -> frozenset[str]:
    """The set a JSON array stands for, shared by equal arrays of one load.
    Only arrays that passed validation enter ``interned``."""
    if not isinstance(value, list):
        raise LogFormatError(f"line {lineno}: field {name!r} must be an array of strings")
    key = tuple(value)
    try:
        return interned[key]
    except (KeyError, TypeError):  # not seen yet, or an unhashable entry
        pass
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
    unique = interned[key] = frozenset(items)
    return unique


def _parse_record(obj: dict, lineno: int, interned: dict) -> PredictionRecord:
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
    return _record(
        obj["sample_id"],
        obj["model_id"],
        _parse_set_field(obj[PREDICTED], PREDICTED, lineno, interned),
        _parse_set_field(obj[GROUND_TRUTH], GROUND_TRUTH, lineno, interned),
        _parse_set_field(obj[CONDITIONS], CONDITIONS, lineno, interned),
        distribution,
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Object hook of every decoder of input files: a key may appear once
    per object."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _strict_json(text: str, what: str, error: type[InputError]):
    """The JSON value of a whole rule file or synth config; a key repeated
    within an object is rejected as in a log line. ``what`` names the
    format in the ``error`` raised."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc}") from exc
    except InputError as exc:  # a repeated key
        raise error(f"{what}: {exc}") from None


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_scanstring = json.decoder.scanstring  # the decoder's own string scanner
_CANONICAL_HEAD = '{"sample_id":"'  # how every serialize_log line starts
_ID_START = len(_CANONICAL_HEAD)


def _decode_line(line: str, lineno: int) -> dict:
    """The JSON object on one stripped, nonblank line."""
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
    except InputError as exc:  # a repeated key
        raise LogFormatError(f"line {lineno}: {exc}") from None
    if not isinstance(obj, dict):
        raise LogFormatError(f"line {lineno}: expected a JSON object")
    return obj


def load_log(source: str | Iterable[str]) -> PredictionLog:
    """Parse line-delimited JSON into a validated log.

    Rejection errors carry the 1-based line number of the offending line.
    Blank lines are skipped; an empty source yields an empty log. A
    canonical line whose tail an earlier line already validated is not
    parsed again (see the module docstring).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    records: list[PredictionRecord] = []
    seen: dict[tuple[str, str], int] = {}
    interned: dict[tuple[str, ...], frozenset[str]] = {}
    # Tail text -> the first record whose line ended in it. The record holds
    # the validated fields and is kept anyway, so the cache adds no object
    # for the garbage collector to trace.
    tails: dict[str, PredictionRecord] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tail = like = None
        if line.startswith(_CANONICAL_HEAD):
            try:
                sample_id, end = _scanstring(line, _ID_START)
            except json.JSONDecodeError:
                pass  # the full parse reports it
            else:
                tail = line[end:]
                if sample_id:
                    like = tails.get(tail)
        if like is None:
            record = _parse_record(_decode_line(line, lineno), lineno, interned)
            if tail is not None:
                tails[tail] = record
        else:
            record = _record(sample_id, like.model_id, like.predicted, like.ground_truth,
                             like.conditions, like.distribution)
        key = (record.sample_id, record.model_id)
        if key in seen:
            raise LogFormatError(
                f"line {lineno}: duplicate (sample_id, model_id) {key!r}"
                f" first seen on line {seen[key]}"
            )
        seen[key] = lineno
        records.append(record)
    return PredictionLog._unchecked(tuple(records))


def load_log_file(path) -> PredictionLog:
    with open(path, "r", encoding="utf-8") as handle:
        return load_log(handle)


_ENCODE_STR = json.encoder.encode_basestring_ascii


class _ArrayText(dict):
    """Set → its canonical JSON array text, encoded on first lookup."""

    def __missing__(self, value: frozenset[str]) -> str:
        text = self[value] = "[" + ",".join(map(_ENCODE_STR, sorted(value))) + "]"
        return text


def serialize_log(log: PredictionLog) -> str:
    """Canonical JSONL for a log; record order is preserved. Each line has
    the bytes ``JSONEncoder(separators=(",", ":"))`` gives for the record's
    dict; each distinct set is encoded once per call."""
    arrays = _ArrayText()
    lines = []
    for rec in log.records:
        tail = "}"
        if rec.distribution != DEFAULT_DISTRIBUTION:
            tail = f',"distribution":{_ENCODE_STR(rec.distribution)}}}'
        lines.append(
            f'{{"sample_id":{_ENCODE_STR(rec.sample_id)},"model_id":{_ENCODE_STR(rec.model_id)},'
            f'"predicted":{arrays[rec.predicted]},"ground_truth":{arrays[rec.ground_truth]},'
            f'"conditions":{arrays[rec.conditions]}{tail}'
        )
    if lines:
        lines.append("")  # a final newline, without copying the joined text again
    return "\n".join(lines)
