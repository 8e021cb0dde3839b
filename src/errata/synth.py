"""Deterministic synthetic prediction logs with planted conditions.

The generator draws, per record: a distribution tag, a true label, a
predicted label set from the per-truth confusion table, and then marks
each planted condition with a probability calibrated so that the
condition's expected support and confidence hit their targets (a
per-distribution confidence override shifts only that coupling).
Calibration is by expected value, not quota sampling; bookkeeping reports
the realized statistics measured on the emitted log so tests can assert
against what actually happened.

Randomness is the stream that numpy's ``Generator(PCG64(seed))`` draws
for the config seed, computed bit for bit by ``errata.draws`` without
``numpy.random``. The draw order is fixed: one call draws every uniform,
split in turn into a run each of tags (only when the config has
distributions), truths and predicted sets, then one record-major n × P
block for the P planted conditions, a row per record and a column per
condition in config order. While numpy is unloaded, a log of at most
``_INT_DRAWS`` uniforms is drawn and classified on Python ints
(``_draw_ints``), so drawing it imports no numpy; otherwise on numpy
arrays (``_draw_arrays``). Both search the same clamped tables and fold
each record's cell and marks into the same int key, and one decoder
turns the sorted distinct keys into shapes: so both give the same log,
and a config reproduces its log bit for bit across runs and platforms.
``random_log`` draws an unstructured fuzz log from its own stream (its
sizes as numpy's bounded integers, then its uniforms); the sweep computes
many such draws at once with ``errata.draws`` and marks its cells by the
same ``_MARK_BELOW`` bounds.
"""

from __future__ import annotations

import sys
from bisect import bisect
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, partial
from math import inf
from operator import add
from typing import Mapping, Sequence

from .estimators import JointCounts, _base, _probability
from .logs import (
    DEFAULT_DISTRIBUTION,
    InputError,
    PredictionLog,
    _entries,
    _Frozen,
    _object,
    _set,
    _string,
)
from .rational import as_fraction


class SynthConfigError(InputError):
    """A synthetic-log config is malformed or its targets are unsatisfiable."""


# Largest n_records a config may ask for; checked before anything is drawn,
# since a Python log costs several hundred bytes per record.
MAX_RECORDS = 10_000_000


_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")


def label_alphabet(k: int) -> tuple[str, ...]:
    """First k fuzz labels: a, b, c, ... then l9, l10, ..."""
    return tuple(_LABELS[i] if i < len(_LABELS) else f"l{i + 1}" for i in range(k))


def condition_alphabet(k: int) -> tuple[str, ...]:
    return tuple(f"c{i + 1}" for i in range(k))


class PlantedCondition(_Frozen):
    __slots__ = ("condition_id", "target_class", "target_support", "target_confidence")


class DistributionSpec(_Frozen):
    __slots__ = ("tag", "record_fraction", "confidence_override")

    def __init__(self, tag: str, record_fraction: Fraction,
                 confidence_override: Mapping[str, Fraction] | None = None):
        _set(self, "tag", tag)
        _set(self, "record_fraction", record_fraction)
        _set(self, "confidence_override", {} if confidence_override is None else confidence_override)


_CONFIG_KEYS = frozenset({"seed", "n_records", "model_id", "labels", "class_priors", "confusion"})
_CONFIG_OPTIONAL = frozenset({"planted_conditions", "distributions"})
_CONFUSION_KEYS = frozenset({"predicted", "weight"})
_PLANTED_KEYS = frozenset({"condition_id", "target_class", "target_support", "target_confidence"})
_DISTRIBUTION_KEYS = frozenset({"tag", "record_fraction"})
_DISTRIBUTION_OPTIONAL = frozenset({"confidence_override"})


def _rational(value, where: str) -> Fraction:
    try:
        return as_fraction(value)
    except (InputError, TypeError, ValueError):  # ValueError: a NaN or infinite float
        raise SynthConfigError(
            f'{where}: expected a rational (a number or "num/den" text), got {value!r}'
        ) from None


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SynthConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _rationals(value, where: str) -> dict[str, Fraction]:
    """A JSON object whose values are rationals, such as ``class_priors``."""
    return {key: _rational(v, f"{where}.{key}") for key, v in _mapping(value, where).items()}


def _strings(value, where: str) -> tuple[str, ...]:
    """A JSON array of nonempty strings; a string is not split into its
    characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise SynthConfigError(f"{where}: expected an array of nonempty strings, got {value!r}")
    return tuple(value)


class SynthConfig(_Frozen):
    """Generator settings; see from_dict for the file shape."""

    __slots__ = ("seed", "n_records", "model_id", "labels", "class_priors", "confusion",
                 "planted_conditions", "distributions")

    def __init__(self, seed: int, n_records: int, model_id: str, labels: tuple[str, ...],
                 class_priors: Mapping[str, Fraction],
                 confusion: Mapping[str, Sequence[tuple[frozenset[str], Fraction]]],
                 planted_conditions: tuple[PlantedCondition, ...] = (),
                 distributions: tuple[DistributionSpec, ...] = ()):
        _set(self, "seed", seed)
        _set(self, "n_records", n_records)
        _set(self, "model_id", model_id)
        _set(self, "labels", labels)
        _set(self, "class_priors", class_priors)
        _set(self, "confusion", confusion)
        _set(self, "planted_conditions", planted_conditions)
        _set(self, "distributions", distributions)
        _integers(SynthConfigError, seed=self.seed, n_records=self.n_records)
        if self.seed < 0:
            raise SynthConfigError("seed: must be nonnegative")
        if self.n_records < 1:
            raise SynthConfigError("n_records: must be at least 1")
        if self.n_records > MAX_RECORDS:
            raise SynthConfigError(f"n_records: must be at most {MAX_RECORDS}")
        if not self.model_id:
            raise SynthConfigError("model_id: must be a nonempty string")
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise SynthConfigError("labels: must be nonempty and unique")
        label_set = set(self.labels)
        prior_total = Fraction(0)
        for label, weight in self.class_priors.items():
            if label not in label_set:
                raise SynthConfigError(f"class_priors: prior for unknown label {label!r}")
            if not 0 <= weight <= 1:
                raise SynthConfigError(f"class_priors: prior for {label!r} outside [0, 1]")
            prior_total += weight
        if prior_total != 1:
            raise SynthConfigError(f"class_priors: priors sum to {prior_total}, not 1")
        for label, entries in self.confusion.items():
            if label not in label_set:
                raise SynthConfigError(f"confusion: row for unknown label {label!r}")
            total = Fraction(0)
            for predicted, weight in entries:
                if not predicted <= label_set:
                    raise SynthConfigError(
                        f"confusion: row {label!r} predicts unknown labels "
                        f"{sorted(predicted - label_set)}"
                    )
                if not 0 <= weight <= 1:
                    raise SynthConfigError(f"confusion: weight for {label!r} outside [0, 1]")
                total += weight
            if total != 1:
                raise SynthConfigError(f"confusion: row {label!r} sums to {total}, not 1")
        for label, weight in self.class_priors.items():
            if weight > 0 and label not in self.confusion:
                raise SynthConfigError(f"confusion: label {label!r} has prior mass but no row")
        seen_conditions = set()
        for i, pc in enumerate(self.planted_conditions):
            where = f"planted_conditions[{i}]"
            if not pc.condition_id or pc.condition_id in seen_conditions:
                raise SynthConfigError(f"{where}: condition id {pc.condition_id!r} empty or repeated")
            seen_conditions.add(pc.condition_id)
            if pc.target_class not in label_set:
                raise SynthConfigError(
                    f"{where}: condition {pc.condition_id!r} targets unknown class "
                    f"{pc.target_class!r}"
                )
            for name, value in (
                ("target_support", pc.target_support),
                ("target_confidence", pc.target_confidence),
            ):
                if not 0 <= value <= 1:
                    raise SynthConfigError(
                        f"{where}.{name}: condition {pc.condition_id!r} outside [0, 1]"
                    )
        if self.distributions:
            tags = [d.tag for d in self.distributions]
            if len(set(tags)) != len(tags) or not all(tags):
                raise SynthConfigError("distributions: tags must be nonempty and unique")
            total = sum((d.record_fraction for d in self.distributions), Fraction(0))
            if total != 1:
                raise SynthConfigError(f"distributions: fractions sum to {total}, not 1")
            for j, d in enumerate(self.distributions):
                where = f"distributions[{j}].confidence_override"
                for cid, value in d.confidence_override.items():
                    if cid not in seen_conditions:
                        raise SynthConfigError(
                            f"{where}: distribution {d.tag!r} overrides unknown condition {cid!r}"
                        )
                    if not 0 <= value <= 1:
                        raise SynthConfigError(
                            f"{where}: override for {cid!r} under {d.tag!r} outside [0, 1]"
                        )

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        """Parse the JSON config shape.

        ``seed`` and ``n_records`` are JSON integers, ``n_records`` at most
        ``MAX_RECORDS``. ``model_id``, ``condition_id``, ``target_class``
        and ``tag`` are nonempty strings, and ``labels`` and ``predicted``
        arrays of them. ``planted_conditions``, ``distributions`` and
        ``confidence_override`` may be left out; every other key below is
        required. A missing key, a key not shown below, or a value of the
        wrong type is rejected with its path
        (``confusion.a[0]: unknown key 'typo'``,
        ``confusion.a[0]: missing key 'weight'``). Rationals may be numbers
        or "num/den" strings::

            {"seed": 1, "n_records": 100, "model_id": "m",
             "labels": ["a", "b"],
             "class_priors": {"a": "1/2", "b": "1/2"},
             "confusion": {"a": [{"predicted": ["a"], "weight": "4/5"},
                                  {"predicted": ["b"], "weight": "1/5"}],
                           "b": [{"predicted": ["b"], "weight": 1}]},
             "planted_conditions": [{"condition_id": "c1", "target_class": "a",
                                      "target_support": 0.5,
                                      "target_confidence": 0.9}],
             "distributions": [{"tag": "d1", "record_fraction": "1/2",
                                 "confidence_override": {}},
                                {"tag": "d2", "record_fraction": "1/2",
                                 "confidence_override": {"c1": 0}}]}
        """
        _object(obj, "", _CONFIG_KEYS, _CONFIG_OPTIONAL, SynthConfigError)
        return cls(
            seed=obj["seed"],
            n_records=obj["n_records"],
            model_id=_string(obj["model_id"], "model_id", SynthConfigError),
            labels=_strings(obj["labels"], "labels"),
            class_priors=_rationals(obj["class_priors"], "class_priors"),
            confusion={
                label: tuple(
                    (
                        frozenset(_strings(entry["predicted"], f"{where}.predicted")),
                        _rational(entry["weight"], f"{where}.weight"),
                    )
                    for where, entry in _entries(
                        rows, f"confusion.{label}", _CONFUSION_KEYS, error=SynthConfigError
                    )
                )
                for label, rows in _mapping(obj["confusion"], "confusion").items()
            },
            planted_conditions=tuple(
                PlantedCondition(
                    _string(pc["condition_id"], f"{where}.condition_id", SynthConfigError),
                    _string(pc["target_class"], f"{where}.target_class", SynthConfigError),
                    _rational(pc["target_support"], f"{where}.target_support"),
                    _rational(pc["target_confidence"], f"{where}.target_confidence"),
                )
                for where, pc in _entries(
                    obj.get("planted_conditions", []), "planted_conditions", _PLANTED_KEYS,
                    error=SynthConfigError,
                )
            ),
            distributions=tuple(
                DistributionSpec(
                    _string(d["tag"], f"{where}.tag", SynthConfigError),
                    _rational(d["record_fraction"], f"{where}.record_fraction"),
                    _rationals(d.get("confidence_override", {}), f"{where}.confidence_override"),
                )
                for where, d in _entries(
                    obj.get("distributions", []), "distributions",
                    _DISTRIBUTION_KEYS, _DISTRIBUTION_OPTIONAL, SynthConfigError,
                )
            ),
        )

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["confusion"] = {label: [dict(zip(("predicted", "weight"), row)) for row in rows]
                            for label, rows in out["confusion"].items()}
        return out


class BookkeepingRow(_Frozen):
    """Realized support and confidence of one planted condition; a
    ``distribution`` of None means pooled over all tags."""

    __slots__ = ("condition_id", "target_class", "distribution", "support", "confidence")


class SynthBookkeeping(_Frozen):
    """Realized support/confidence per condition, measured on the output log."""

    __slots__ = ("rows",)

    def for_condition(self, condition_id: str, distribution: str | None = None) -> BookkeepingRow:
        for row in self.rows:
            if row.condition_id == condition_id and row.distribution == distribution:
                return row
        raise KeyError((condition_id, distribution))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def _class_precision(cfg: SynthConfig, alpha: str) -> Fraction | None:
    """Analytic P(alpha ∈ gt | alpha predicted) implied by priors × confusion."""
    pred = Fraction(0)
    pred_gt = Fraction(0)
    for label, prior in cfg.class_priors.items():
        if prior == 0:
            continue
        rate = sum((w for predicted, w in cfg.confusion[label] if alpha in predicted), Fraction(0))
        pred += prior * rate
        if label == alpha:
            pred_gt += prior * rate
    if pred == 0:
        return None
    return pred_gt / pred


def _mark_probabilities(
    cfg: SynthConfig,
) -> dict[tuple[str, str], tuple[Fraction, Fraction]]:
    """(condition, tag) → (P(mark | error), P(mark | correct)).

    Raises SynthConfigError when a target pair is unsatisfiable, i.e. when
    either probability would have to exceed 1 (support × confidence can
    never exceed the class's error rate, nor support × (1 − confidence)
    its correct rate).
    """
    tags = [d.tag for d in cfg.distributions] or [DEFAULT_DISTRIBUTION]
    overrides = {d.tag: d.confidence_override for d in cfg.distributions}
    out: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}
    for i, pc in enumerate(cfg.planted_conditions):
        where = f"planted_conditions[{i}]: condition {pc.condition_id!r}"
        precision = _class_precision(cfg, pc.target_class)
        for tag in tags:
            confidence = overrides.get(tag, {}).get(pc.condition_id, pc.target_confidence)
            support = pc.target_support
            if precision is None:
                if support != 0:
                    raise SynthConfigError(
                        f"{where}: target class "
                        f"{pc.target_class!r} is never predicted, support target unreachable"
                    )
                out[(pc.condition_id, tag)] = (Fraction(0), Fraction(0))
                continue
            error_rate = 1 - precision
            err_mass = confidence * support
            ok_mass = (1 - confidence) * support
            if err_mass == 0:
                q_err = Fraction(0)
            elif error_rate == 0:
                raise SynthConfigError(
                    f"{where} under {tag!r}: target confidence "
                    f"{confidence} needs errors, but the confusion yields none for "
                    f"{pc.target_class!r}"
                )
            else:
                q_err = err_mass / error_rate
            if ok_mass == 0:
                q_ok = Fraction(0)
            elif precision == 0:
                raise SynthConfigError(
                    f"{where} under {tag!r}: targets need correct "
                    f"predictions of {pc.target_class!r}, but the confusion yields none"
                )
            else:
                q_ok = ok_mass / precision
            if q_err > 1 or q_ok > 1:
                raise SynthConfigError(
                    f"{where} under {tag!r}: unsatisfiable "
                    f"support/confidence targets (support {support} × confidence "
                    f"{confidence} exceeds the class error rate {error_rate})"
                    if q_err > 1
                    else f"{where} under {tag!r}: unsatisfiable "
                    f"support/confidence targets (support {support} × (1 − confidence) "
                    f"exceeds the class correct rate {precision})"
                )
            out[(pc.condition_id, tag)] = (q_err, q_ok)
    return out


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _cumulative(weights: Sequence[Fraction]) -> list[float]:
    total = 0.0
    out = []
    for w in weights:
        total += float(w)
        out.append(total)
    return out


def _clamped(weights: Sequence[Fraction]) -> list[float]:
    """The cumulative table of ``weights`` with its last bound raised to
    infinity: ``bisect`` and ``np.searchsorted(side="right")`` on it give
    ``min(bisect(_cumulative(weights), x), len(weights) - 1)``, so a uniform
    at or past a float total below 1.0 lands in the last bin."""
    return _cumulative(weights)[:-1] + [inf]


def _names(names: tuple[str, ...], key: Sequence[int]) -> frozenset[str]:
    """The ``names`` whose columns a row of 0s and 1s (a bytes view of a
    boolean row or a list of bits) marks."""
    return frozenset(name for name, hit in zip(names, key) if hit)


# While numpy is unloaded, a log of at most this many uniforms is drawn on
# Python ints: a fresh process draws and classifies it faster than it imports
# numpy and peaks about 10 MB lower. A fresh synth child took 139 ms on ints
# against 173 ms on arrays at 80k uniforms, 165 against 180 at 120k and 178
# against 175 at 160k, so they break even at about 120–160k; 2**17 would sit
# too close to that. Otherwise it is drawn on numpy arrays.
_INT_DRAWS = 1 << 16


def generate(cfg: SynthConfig) -> tuple[PredictionLog, SynthBookkeeping]:
    """Draw the configured log; deterministic for a fixed config.

    While numpy is unloaded, a log of at most ``_INT_DRAWS`` uniforms
    (n_records × (planted conditions + 2, + 1 with distributions)) is drawn
    and classified on Python ints, so drawing it imports no numpy; otherwise
    on numpy arrays. Both give the same log and bookkeeping, bit for bit.
    Cost: at 10k records (50,000 uniforms) ints take about 24–27 ms, arrays
    4 ms (CPython 3.11, a 2-vCPU VM), so a caller with numpy gets arrays."""
    plan = _Plan(cfg, _mark_probabilities(cfg))
    ints = plan.count <= _INT_DRAWS and "numpy" not in sys.modules
    tags, codes, shapes, counts = (_draw_ints if ints else _draw_arrays)(plan)
    # Sample ids s1..sn are distinct, and every shape is some row's.
    log = PredictionLog._columns([f"s{i}" for i in range(1, cfg.n_records + 1)], codes, shapes)
    return log, _bookkeeping(cfg, shapes, counts, tags)


class _Plan:
    """What both draw paths read: the uniform count, the clamped tables
    they search (each cumulative table with its last bound raised to
    infinity, ``tag_cum`` None without distributions) and the mark
    thresholds; ``result`` decodes their shape keys into shapes."""

    def __init__(self, cfg: SynthConfig,
                 marks: Mapping[tuple[str, str], tuple[Fraction, Fraction]]):
        self.cfg, self.n, planted = cfg, cfg.n_records, cfg.planted_conditions
        self.names = tuple(pc.condition_id for pc in planted)
        self.count = self.n * (bool(cfg.distributions) + 2 + len(planted))
        self.tags = [d.tag for d in cfg.distributions] or [DEFAULT_DISTRIBUTION]
        self.tag_cum = (_clamped([d.record_fraction for d in cfg.distributions])
                        if cfg.distributions else None)
        self.prior_labels = [label for label, w in cfg.class_priors.items() if w > 0]
        self.prior_cum = _clamped([cfg.class_priors[label] for label in self.prior_labels])
        # Number the (truth, confusion row) outcomes, one block per truth
        # class in prior order (``rows``: each block's start and clamped
        # table); a record's cell is its outcome in its tag's block of
        # outcomes. A config built in code may hold plain sets, so each
        # predicted set is frozen here.
        self.outcomes = [(truth, frozenset(predicted))
                         for truth in self.prior_labels for predicted, _ in cfg.confusion[truth]]
        self.rows, start = [], 0
        for truth in self.prior_labels:
            self.rows.append((start, _clamped([w for _, w in cfg.confusion[truth]])))
            start += len(cfg.confusion[truth])
        # Record i carries condition j when its uniform for j falls below
        # thresholds[j][its cell]: the condition's mark probability there,
        # or -1 where the target class is not predicted, so those records
        # are never marked.
        self.thresholds = [
            [float(q_ok if truth == pc.target_class else q_err) if pc.target_class in predicted
             else -1.0
             for q_err, q_ok in (marks[(pc.condition_id, tag)] for tag in self.tags)
             for truth, predicted in self.outcomes]
            for pc in planted
        ]

    def result(self, keys: list[int], codes: Sequence[int],
               counts: list[int]) -> tuple[list[str], Sequence[int], list[tuple], list[int]]:
        """The tags of ``generate``, then its log as a shape code per row,
        the shapes and the number of rows of each shape. ``keys`` holds the
        distinct shape keys in sorted order, a code numbering each: a key
        is its records' cell followed by a bit per condition they carry,
        condition 0 highest."""
        truth_sets = {label: frozenset((label,)) for label in self.prior_labels}
        cells = [(predicted, truth_sets[truth], tag)
                 for tag in self.tags for truth, predicted in self.outcomes]
        planted, mask = len(self.names), ~(-1 << len(self.names))
        shifts = range(planted - 1, -1, -1)  # condition 0's bit first
        # Each mark pattern's condition set is built once, for all its cells.
        conditions = cache(lambda bits: _names(self.names, [bits >> s & 1 for s in shifts]))
        shapes = []
        for key in keys:
            predicted, truth, tag = cells[key >> planted]
            shapes.append((self.cfg.model_id, predicted, truth, conditions(key & mask), tag))
        return self.tags, codes, shapes, counts


def _draw_ints(plan: _Plan) -> tuple[list[str], Sequence[int], list[tuple], list[int]]:
    """``_Plan.result`` of the log, drawn on Python ints and classified a
    column of uniforms at a time."""
    from .draws import _Stream

    n, planted = plan.n, len(plan.names)
    # One stream, drawn at once and read in draw order.
    u = _Stream(plan.cfg.seed).random(plan.count)
    if plan.tag_cum:
        tags = list(map(partial(bisect, plan.tag_cum), u[:n]))
        del u[:n]
    truths = list(map(partial(bisect, plan.prior_cum), u[:n]))
    # A record's cell: its truth's first outcome, plus its outcome in that
    # truth's confusion row, in its tag's block of outcomes.
    starts, rows = zip(*plan.rows)
    outcomes = map(bisect, map(rows.__getitem__, truths), u[n:2 * n])
    cells = list(map(add, map(starts.__getitem__, truths), outcomes))
    if plan.tag_cum:
        width = len(plan.outcomes)
        cells = [tag * width + cell for tag, cell in zip(tags, cells)]
    # Each condition's column doubles the keys and adds its marks: a mark
    # is a uniform below its cell's threshold.
    keys = cells
    for j, thresholds in enumerate(plan.thresholds):
        marks = map(float.__lt__, u[2 * n + j::planted], map(thresholds.__getitem__, cells))
        keys = list(map(add, map(add, keys, keys), marks))
    del u
    counted = Counter(keys)
    order = sorted(counted)
    code = {key: i for i, key in enumerate(order)}
    return plan.result(order, list(map(code.__getitem__, keys)), [counted[key] for key in order])


def _draw_arrays(plan: _Plan) -> tuple[list[str], Sequence[int], list[tuple], list[int]]:
    """``_Plan.result`` of the log, drawn column-wise on numpy arrays."""
    import numpy as np  # deferred: importing errata must not load numpy

    from .draws import _seeded, _uniforms

    n, planted = plan.n, len(plan.names)
    # One stream, drawn at once and split in draw order.
    u = _uniforms(*_seeded(plan.cfg.seed), plan.count)
    if plan.tag_cum:
        cells = np.searchsorted(plan.tag_cum, u[:n], side="right") * len(plan.outcomes)
        u = u[n:]
    else:
        cells = np.zeros(n, dtype=np.intp)
    truths = np.searchsorted(plan.prior_cum, u[:n], side="right")
    u_pred = u[n:2 * n]
    # Add each record's outcome to its tag's block of cells with one search
    # per truth class.
    for r, (start, cum) in enumerate(plan.rows):
        in_class = truths == r
        cells[in_class] += start + np.searchsorted(cum, u_pred[in_class], side="right")
    del truths, u_pred, in_class

    # _draw_ints' keys, folded a column at a time: int64 while the largest
    # fits, else exact Python ints.
    wide = len(plan.tags) * len(plan.outcomes) << planted > 1 << 63
    keys = cells.astype(object) if wide else cells.copy()
    cond_u = u[2 * n:].reshape(n, planted)
    for j, thresholds in enumerate(plan.thresholds):
        keys <<= 1
        keys += cond_u[:, j] < np.take(thresholds, cells)
    del u, cond_u, cells
    distinct, codes, counts = np.unique(keys, return_inverse=True, return_counts=True)
    del keys
    return plan.result(distinct.tolist(),
                       codes.astype(np.uint8) if len(distinct) <= 256 else codes.tolist(),
                       counts.tolist())


def _bookkeeping(cfg: SynthConfig, shapes: Sequence[tuple], counts: Sequence[int],
                 tags: Sequence[str]) -> SynthBookkeeping:
    """Realized support and confidence of each planted condition, pooled
    and per tag, summed from the number of rows of each shape."""
    cells: dict[tuple, int] = defaultdict(int)  # (tag, predicted, truth) → rows
    marked: dict[tuple, int] = defaultdict(int)  # ... and a condition id they hold → rows
    for (_, predicted, truth, conditions, tag), k in zip(shapes, counts):
        cells[tag, predicted, truth] += k
        for cid in conditions:
            marked[tag, predicted, truth, cid] += k
    rows = []
    for pc in cfg.planted_conditions:
        alpha = pc.target_class
        by_tag: dict[str, list[int]] = defaultdict(lambda: [0] * 6)  # tag → JointCounts fields
        for (tag, predicted, truth), k in cells.items():
            pred, gt = alpha in predicted, alpha in truth
            body = pred * marked.get((tag, predicted, truth, pc.condition_id), 0)
            fields = by_tag[tag]
            for i, n in enumerate((k, k * gt, k * pred, k * pred * gt, body, body * gt)):
                fields[i] += n
        for scope in [None, *tags] if cfg.distributions else [None]:
            c = map(sum, zip(*by_tag.values())) if scope is None else by_tag[scope]
            q = _base(JointCounts(*c))
            rows.append(BookkeepingRow(pc.condition_id, alpha, scope, _probability(q.support),
                                       _probability(q.confidence)))
    return SynthBookkeeping(tuple(rows))


def _integers(error: type[InputError] = InputError, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that is not an ``int``
    (a ``bool`` is not one)."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise error(f"{name}: expected an integer, got {value!r}")


# A fuzz log's uniform below the bound marks a predicted label, a true
# label or a condition.
_MARK_BELOW = (0.45, 0.45, 0.5)


def _fuzz_draw(seed: int, max_records: int, max_labels: int, max_conditions: int):
    """The draws of ``random_log``, in draw order: the record count n, the
    label and condition alphabet sizes k and m, then the n × k predicted,
    n × k true-label and n × m condition matrices (boolean, a row per
    record). Returns n and the three matrices."""
    _integers(seed=seed, max_records=max_records, max_labels=max_labels,
              max_conditions=max_conditions)
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if max_records < 1 or max_labels < 1 or max_conditions < 0:
        raise InputError("bounds must be positive (conditions may be 0)")
    from .draws import _Stream, _uniforms  # deferred: importing errata must not load numpy

    stream = _Stream(seed)
    n = stream.integers(1, max_records + 1)
    k, m = stream.integers(1, max_labels + 1), stream.integers(0, max_conditions + 1)
    # The three matrices' uniforms come in turn, from where the sizes left
    # the stream.
    u = _uniforms(stream.state, stream.inc, n * (2 * k + m))
    below_p, below_g, below_c = _MARK_BELOW
    return (n, u[:n * k].reshape(n, k) < below_p, u[n * k:2 * n * k].reshape(n, k) < below_g,
            u[2 * n * k:].reshape(n, m) < below_c)


def random_log(
    seed: int,
    max_records: int = 30,
    max_labels: int = 4,
    max_conditions: int = 3,
) -> PredictionLog:
    """Unstructured fuzz log for sweeps; deterministic per seed.

    Record count, label-alphabet size, and condition-alphabet size are
    drawn uniformly within the bounds; memberships are drawn per record
    (no planted signal). Model id is always "m".
    """
    n, predicted, truth, marks = _fuzz_draw(seed, max_records, max_labels, max_conditions)
    labels = label_alphabet(predicted.shape[1])
    conditions = condition_alphabet(marks.shape[1])
    # Each row of each matrix as bytes (a view drops trailing zero bytes,
    # i.e. unmarked last columns, which _names would not reach anyway).
    keys = [hits.view(f"S{hits.shape[1]}").ravel().tolist() if hits.shape[1] else [b""] * n
            for hits in (predicted, truth, marks)]
    patterns: dict[tuple[bytes, bytes, bytes], int] = {}  # a row's three keys → its shape code
    codes = [patterns.setdefault(row, len(patterns)) for row in zip(*keys)]
    shapes = [("m", _names(labels, p), _names(labels, g), _names(conditions, c), DEFAULT_DISTRIBUTION)
              for p, g, c in patterns]
    # Sample ids r1..rn are distinct, and every shape is some row's.
    return PredictionLog._columns([f"r{i}" for i in range(1, n + 1)], codes, shapes)
