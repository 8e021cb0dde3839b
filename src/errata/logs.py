"""Prediction-log data model and JSONL ingestion.

A log is an immutable, order-preserving sequence of per-sample classifier
outcomes: the label set a model produced, the ground-truth label set, the
boolean side-conditions observed for the sample, and a distribution tag.
Every probability this package reports is an exact ratio of record counts
over such a log.

A log is stored by column. A record's *shape* is all of it but the sample
id: (model_id, predicted, ground_truth, conditions, distribution). The
log holds the sample ids, one shape code per row and a table of the
shapes. A count asks how many rows of a scope carry a label, a truth or
a condition, and a rule fires on a row by the model, predicted set and
conditions the row carries; the id only names the row. So every count
and every rule firing is fixed by the shape, and is decided once per
shape, however many rows share it: a 100,000-record log synthesized with
three labels and three planted conditions has 14 shapes.
``PredictionRecord`` objects are built only when ``records`` is read or
the log is iterated.

The counts come from the log's ``index``, built once per log on first
use: one bitset per model id, distribution tag, predicted label,
ground-truth label and condition id, so that a count is ``&``, ``|`` and
``int.bit_count()``. A key's bitset holds the rows whose shape carries
the key. The label, condition and distribution universes are the index's
keys. The tests check the index against a record-walking reference,
``tests/event_oracle.py``, and the whole log against a record-built one,
``tests/record_log.py``.

Counts over one class α's predictions, which are most of what rule
learning asks, come from the index's *view* of α
(``LogIndex.view(model_id, alpha)``), also built on first use and kept:
a bit space of only the scope's rows that predict α, with one mask for
the correct predictions, one per condition id and one per distribution
tag. Its bits are grouped by shape, one run per shape as long as the
shape's row count, so each mask is built by string joins from per-shape
runs, without a loop over rows. A view mask is only ever counted: it is
never compared or combined with a row mask, and never used to find rows.

``load_log`` interns set fields: equal arrays within one load share one
frozenset, and only arrays that passed validation are reused, so every
line is still checked and its errors still carry its line number.

It also parses each distinct line *tail* once per load. A canonical line
(as ``serialize_log`` writes it) starts ``{"sample_id":"``, and its tail
is the text after the id string. A tail is remembered, with its shape
code, only after a whole line ending in it has passed the full parse and
validation; a later canonical line with a nonempty id and a remembered
tail takes that shape and keeps its own id. This is sound because what
the decoder does after the id string does not depend on the id: the
later line parses to the same keys and values apart from ``sample_id``,
so it passes every check the earlier line passed. A tail that repeats
the ``"sample_id"`` key fails its first line and is never remembered.
Any other line takes the full parse and is then mapped to its shape, so
its errors are unchanged. The (sample_id, model_id) pairs are checked for
duplicates in one pass after the last line, or at the first bad line, so
that a duplicate is still reported before any later line's error.

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
from bisect import bisect_right
from collections import Counter, defaultdict
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Iterator

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


_set = object.__setattr__  # how a value type's __init__ sets a field


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in the order its
    ``__init__`` takes them, and sets each one with ``_set``. Values of one
    class are equal when their fields are, and the hash agrees; the repr is
    ``Name(field=value, ...)`` over the fields not in ``_hidden``.
    Assignment and deletion raise ``AttributeError``. Copy and pickle
    rebuild a value through its constructor, so a changed copy is built the
    same way: ``Probability(p.numerator, 7)``.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PredictionRecord(_Frozen):
    """One sample's outcome for one model; the set fields are frozensets."""

    __slots__ = ("sample_id", "model_id", "predicted", "ground_truth", "conditions", "distribution")

    def __init__(self, sample_id: str, model_id: str, predicted: Iterable[str],
                 ground_truth: Iterable[str], conditions: Iterable[str],
                 distribution: str = DEFAULT_DISTRIBUTION):
        _set(self, "sample_id", sample_id)
        _set(self, "model_id", model_id)
        _set(self, "predicted", frozenset(predicted))  # a frozenset is kept as it is
        _set(self, "ground_truth", frozenset(ground_truth))
        _set(self, "conditions", frozenset(conditions))
        _set(self, "distribution", distribution)

    @property
    def key(self) -> tuple[str, str]:
        return (self.sample_id, self.model_id)


def _bitset(n: int, positions: Iterable[int]) -> int:
    """Int with bit i set for each i in positions, built in O(n)."""
    buf = bytearray((n + 7) >> 3)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


_ZEROS = b"0" * 256  # a translate table that maps every row code to "0"
_NO_COUNTS = (0, 0, 0, 0)


class ClassView:
    """The rows of one scope that predict one class α, as a bit space of
    their own, for counting α's rule bodies.

    Bits are grouped by shape: each shape of the scope that predicts α is
    one run of bits, as long as the number of rows it has. ``correct``
    holds the runs of shapes whose ground truth has α, and
    ``conditions[cid]`` and ``distributions[tag]`` the runs of shapes that
    carry the key; absent keys read as 0. ``counts[tag]`` is (total, gt,
    pred, pred_gt) of the scope narrowed to the tag: its rows, those with
    α in the ground truth, those predicting α and those predicting it
    correctly; ``counts[None]`` is the same over every tag.
    """

    __slots__ = ("correct", "conditions", "distributions", "counts")

    def __init__(self, shapes: tuple[tuple, ...], shape_rows: Counter,
                 model_id: str | None, alpha: str):
        runs: list[int] = []  # rows of each shape predicting α, in code order
        correct: list[int] = []  # per key, the runs of the shapes that carry it
        conditions, distributions = defaultdict(list), defaultdict(list)
        counts = defaultdict(lambda: [0, 0, 0, 0])
        for code, (model, labels, truth, condition_ids, tag) in enumerate(shapes):
            if model_id is not None and model != model_id:
                continue
            n, tally, hit = shape_rows[code], counts[tag], alpha in truth
            tally[0] += n
            if hit:
                tally[1] += n
            if alpha in labels:
                run = len(runs)
                runs.append(n)
                tally[2] += n
                if hit:
                    tally[3] += n
                    correct.append(run)
                for cid in condition_ids:
                    conditions[cid].append(run)
                distributions[tag].append(run)
        zeros = ["0" * n for n in runs]

        def mask(chosen: list[int]) -> int:
            if not chosen:
                return 0  # also the empty view: int("", 2) raises
            bits = zeros.copy()
            for run in chosen:
                bits[run] = "1" * runs[run]
            return int("".join(bits), 2)

        self.correct = mask(correct)
        self.conditions = {cid: mask(chosen) for cid, chosen in conditions.items()}
        self.distributions = {tag: mask(chosen) for tag, chosen in distributions.items()}
        self.counts = {tag: tuple(tally) for tag, tally in counts.items()}
        # _NO_COUNTS keeps the four columns when the scope has no rows.
        self.counts[None] = tuple(sum(column) for column in zip(_NO_COUNTS, *self.counts.values()))


class LogIndex:
    """Bitsets over a log's rows: bit i of a key's mask is set iff row i
    carries the key. Keys no row carries have no entry; read them as the
    empty mask 0.

    Each key's mask is the rows whose shape carries it. With at most 256
    shapes, the row codes are one byte each: one ``bytes.translate`` turns
    them into "1" for the key's shapes and "0" elsewhere, which
    ``int(…, 2)`` reads as the mask. With more shapes, the key's mask is
    built from the row positions of its shapes.

    ``view(model_id, alpha)`` is the ``ClassView`` of the scope's rows
    that predict α, built on first use and kept. Its masks are as wide as
    α has predictions in the scope, so a count over them costs O(rows
    predicting α), not O(rows). Its bit space is its own, grouped by
    shape, so its masks are only counted: they are never compared or
    combined with a row mask, and never used to find rows. The runs take
    the shapes' row counts, read once per log by one ``Counter`` pass over
    the row codes.
    """

    __slots__ = ("all", "models", "distributions", "predicted", "ground_truth", "conditions",
                 "_shapes", "_codes", "_shape_rows", "_views")

    def __init__(self, log: "PredictionLog"):
        self._shapes, self._codes, self._shape_rows, self._views = log.shapes, log.codes, None, {}
        keyed = tuple(defaultdict(list) for _ in range(5))
        models, distributions, predicted, ground_truth, conditions = keyed
        for code, (model_id, labels, truth, condition_ids, tag) in enumerate(log.shapes):
            models[model_id].append(code)
            distributions[tag].append(code)
            for label in labels:
                predicted[label].append(code)
            for label in truth:
                ground_truth[label].append(code)
            for cid in condition_ids:
                conditions[cid].append(code)
        n, codes, n_shapes = len(log), log.codes, len(log.shapes)
        self.all = (1 << n) - 1
        if n_shapes <= 256:
            last_first = codes[::-1]  # int(…, 2) reads the most significant bit first

            def rows(shapes: list[int]) -> int:
                table = bytearray(_ZEROS)
                for code in shapes:
                    table[code] = 49  # "1"
                return int(last_first.translate(table), 2)
        else:
            positions: list[list[int]] = [[] for _ in range(n_shapes)]
            for i, code in enumerate(codes):
                positions[code].append(i)

            def rows(shapes: list[int]) -> int:
                return _bitset(n, chain.from_iterable(map(positions.__getitem__, shapes)))
        # Every shape is some row's, so a key on every shape is on every row.
        bitsets = [
            {key: self.all if len(shapes) == n_shapes else rows(shapes) for key, shapes in by_key.items()}
            for by_key in keyed
        ]
        (self.models, self.distributions, self.predicted, self.ground_truth,
         self.conditions) = bitsets

    def scope(self, model_id: str | None = None, distribution: str | None = None) -> int:
        """Records of one model (every model for None), narrowed to one
        distribution tag when one is given."""
        mask = self.all if model_id is None else self.models.get(model_id, 0)
        if distribution is not None:
            mask &= self.distributions.get(distribution, 0)
        return mask

    def view(self, model_id: str | None, alpha: str) -> ClassView:
        """The rows of ``scope(model_id)`` that predict α, as a bit space
        of their own; built on first use and kept."""
        view = self._views.get((model_id, alpha))
        if view is None:
            if self._shape_rows is None:
                self._shape_rows = Counter(self._codes)
            view = self._views[model_id, alpha] = ClassView(
                self._shapes, self._shape_rows, model_id, alpha)
        return view


class PredictionLog:
    """Immutable collection of prediction records, held by column.

    ``sample_ids`` has one id per row and ``codes`` one shape code per
    row: a ``bytes`` while there are at most 256 shapes, else an
    ``array("I")``. ``shapes[code]`` is the code's (model_id, predicted,
    ground_truth, conditions, distribution). Every shape is some row's;
    two codes may stand for equal shapes. ``records`` are built on first
    use and then kept.

    A duplicate (sample_id, model_id) pair is rejected at construction, so
    a constructed log is always internally consistent. Two logs are equal
    when their records are, in order, however their shapes are numbered;
    the hash agrees. All operations are pure: rule application produces a
    new log.
    """

    def __new__(cls, records: Iterable[PredictionRecord] = ()):
        records = tuple(records)
        seen: set[tuple[str, str]] = set()
        shapes: dict[tuple, int] = {}
        codes = []
        for rec in records:
            key = (rec.sample_id, rec.model_id)
            if key in seen:
                raise LogFormatError(f"duplicate (sample_id, model_id) pair {key!r}")
            seen.add(key)
            shape = (rec.model_id, rec.predicted, rec.ground_truth, rec.conditions, rec.distribution)
            codes.append(shapes.setdefault(shape, len(shapes)))
        log = cls._columns([rec.sample_id for rec in records], codes, shapes)
        log.__dict__["records"] = records
        return log

    @classmethod
    def _columns(cls, sample_ids: Iterable[str], codes: Iterable[int],
                 shapes: Iterable[tuple]) -> "PredictionLog":
        """A log over columns whose (sample_id, model_id) pairs the caller
        already knows are unique, and whose shapes are each some row's."""
        log = object.__new__(cls)
        shapes = tuple(shapes)
        if len(shapes) <= 256:
            codes = bytes(codes)
        else:
            from array import array  # deferred: most logs, a sweep's among them, need no array
            codes = array("I", codes)
        log.__dict__.update(sample_ids=tuple(sample_ids), codes=codes, shapes=shapes)
        return log

    def __reduce__(self):  # copy and pickle rebuild the columns, not the records
        return PredictionLog._columns, (self.sample_ids, self.codes, self.shapes)

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)

    @cached_property
    def records(self) -> tuple[PredictionRecord, ...]:
        shapes = self.shapes
        return tuple(PredictionRecord(sample_id, *shapes[code])
                     for sample_id, code in zip(self.sample_ids, self.codes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.sample_ids != other.sample_ids:
            return False
        mine, theirs = self.shapes, other.shapes
        return all(mine[a] == theirs[b] for a, b in set(zip(self.codes, other.codes)))

    def __hash__(self) -> int:
        shape_hashes = list(map(hash, self.shapes))  # equal shapes hash alike
        return hash((self.sample_ids, tuple(map(shape_hashes.__getitem__, self.codes))))

    def __repr__(self) -> str:
        return f"PredictionLog(records={self.records!r})"

    @cached_property
    def index(self) -> LogIndex:
        """Bitset index of the rows, built on first use and kept for the
        life of the log; equality and hashing ignore it."""
        return LogIndex(self)

    # Every label, condition id and tag the records carry: the index's keys.
    label_universe = cached_property(
        lambda self: frozenset(self.index.predicted).union(self.index.ground_truth)
    )
    condition_universe = cached_property(lambda self: frozenset(self.index.conditions))
    distribution_universe = cached_property(lambda self: frozenset(self.index.distributions))


# ---------------------------------------------------------------------------
# JSONL ingestion / serialization
# ---------------------------------------------------------------------------

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


def _parse_record(obj: dict, lineno: int, interned: dict) -> tuple[str, tuple]:
    """The sample id and the shape of one decoded line, once both pass
    every check."""
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
    return obj["sample_id"], (
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
    except RecursionError:
        raise error(f"malformed {what}: nested too deeply") from None
    except ValueError:  # an integer past Python's int-text digit limit
        raise error(f"malformed {what}: integer has too many digits") from None


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_scanstring = json.decoder.scanstring  # the decoder's own string scanner
_HEAD = '{"sample_id":'
_CANONICAL_HEAD = _HEAD + '"'  # how every serialize_log line starts
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
    except RecursionError:
        raise LogFormatError(f"line {lineno}: malformed JSON (nested too deeply)") from None
    except ValueError:  # an integer past Python's int-text digit limit
        raise LogFormatError(f"line {lineno}: malformed JSON (integer has too many digits)") from None
    if not isinstance(obj, dict):
        raise LogFormatError(f"line {lineno}: expected a JSON object")
    return obj


def load_log(source: str | Iterable[str]) -> PredictionLog:
    """Parse line-delimited JSON into a validated log.

    Rejection errors carry the 1-based line number of the offending line.
    Blank lines are skipped; an empty source yields an empty log. A text
    is split into lines as a text-mode file is: at "\n", "\r\n" and "\r"
    only. A canonical line whose tail an earlier line already validated
    is not parsed again (see the module docstring).
    """
    if isinstance(source, str):
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    sample_ids: list[str] = []
    codes: list[int] = []
    shapes: dict[tuple, int] = {}  # shape → its code
    tails: dict[str, int] = {}  # tail text → the shape of the first line ending in it
    blanks: list[int] = []  # the number of rows read at each blank line
    interned: dict[tuple[str, ...], frozenset[str]] = {}
    try:
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                blanks.append(len(sample_ids))
                continue
            code = tail = None
            if line.startswith(_CANONICAL_HEAD):
                try:
                    sample_id, end = _scanstring(line, _ID_START)
                except json.JSONDecodeError:
                    pass  # the full parse reports it
                else:
                    tail = line[end:]
                    if sample_id:
                        code = tails.get(tail)
            if code is None:
                sample_id, shape = _parse_record(_decode_line(line, lineno), lineno, interned)
                code = shapes.setdefault(shape, len(shapes))
                if tail is not None:
                    tails[tail] = code
            sample_ids.append(sample_id)
            codes.append(code)
    except ValueError:  # a bad line, or text that does not decode
        _check_unique(sample_ids, codes, shapes, blanks)  # an earlier duplicate is reported first
        raise
    _check_unique(sample_ids, codes, shapes, blanks)
    return PredictionLog._columns(sample_ids, codes, shapes)


def _check_unique(sample_ids: list[str], codes: list[int], shapes: dict[tuple, int],
                  blanks: list[int]) -> None:
    """Reject the first row whose (sample_id, model_id) pair an earlier row
    has, naming both lines; ``blanks`` places the skipped blank lines."""
    # dict.fromkeys, not set: a set's table can be five times the size
    # (2 MB against 0.4 MB for 20,000 ids), which shows in the peak RSS.
    if len(dict.fromkeys(sample_ids)) == len(sample_ids):
        return
    model_of = [None] * len(shapes)
    for shape, code in shapes.items():
        model_of[code] = shape[0]
    keys = list(zip(sample_ids, map(model_of.__getitem__, codes)))
    if len(dict.fromkeys(keys)) == len(keys):
        return
    first: dict[tuple[str, str], int] = {}
    for row, key in enumerate(keys):
        earlier = first.setdefault(key, row)
        if earlier != row:
            lineno, first_lineno = (r + 1 + bisect_right(blanks, r) for r in (row, earlier))
            raise LogFormatError(
                f"line {lineno}: duplicate (sample_id, model_id) {key!r} first seen on line {first_lineno}"
            )


def load_log_file(path) -> PredictionLog:
    with open(path, "r", encoding="utf-8") as handle:
        return load_log(handle)


_ENCODE_STR = json.encoder.encode_basestring_ascii


def serialize_log(log: PredictionLog) -> str:
    """Canonical JSONL for a log; record order is preserved. Each line has
    the bytes ``JSONEncoder(separators=(",", ":"))`` gives for the record's
    dict. The text after the id is encoded once per shape, and each
    distinct set once, per call."""
    @cache
    def array(values: frozenset[str]) -> str:
        return "[" + ",".join(map(_ENCODE_STR, sorted(values))) + "]"

    tails = []
    for model_id, predicted, ground_truth, conditions, distribution in log.shapes:
        end = "}\n"
        if distribution != DEFAULT_DISTRIBUTION:
            end = f',"distribution":{_ENCODE_STR(distribution)}}}\n'
        tails.append(
            f',"model_id":{_ENCODE_STR(model_id)},"predicted":{array(predicted)},'
            f'"ground_truth":{array(ground_truth)},"conditions":{array(conditions)}{end}'
        )
    if not tails:
        return ""
    lines = map(str.__add__, map(_ENCODE_STR, log.sample_ids), map(tails.__getitem__, log.codes))
    return _HEAD + _HEAD.join(lines)
