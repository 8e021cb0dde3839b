"""Deterministic synthetic prediction logs with planted conditions.

The generator draws, per record: a distribution tag, a true label, a
predicted label set from the per-truth confusion table, and then marks
each planted condition with a probability calibrated so that the
condition's expected support and confidence hit their targets (a
per-distribution confidence override shifts only that coupling).
Calibration is by expected value, not quota sampling; bookkeeping reports
the realized statistics measured on the emitted log so tests can assert
against what actually happened.

Randomness comes from numpy's PCG64 generator seeded with the config
seed; the draw order is fixed (one array each of tags, truths and
predicted sets, then one record-major n × P block for the P planted
conditions, a row per record and a column per condition in config order),
so a config reproduces its log bit for bit across runs and platforms.
``_fuzz_draws`` computes ``random_log``'s draws for many seeds at once
from numpy's algorithms (SeedSequence, PCG64, Lemire's bounded integers),
equal bit for bit to numpy's own streams; the sweep counts from them.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .estimators import JointCounts, Probability, _base, _probability
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
from .rational import as_fraction, format_rational


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

    def __init__(self, condition_id: str, target_class: str, target_support: Fraction,
                 target_confidence: Fraction):
        _set(self, "condition_id", condition_id)
        _set(self, "target_class", target_class)
        _set(self, "target_support", target_support)
        _set(self, "target_confidence", target_confidence)


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
            raise SynthConfigError("seed must be nonnegative")
        if self.n_records < 1:
            raise SynthConfigError("n_records must be at least 1")
        if self.n_records > MAX_RECORDS:
            raise SynthConfigError(f"n_records must be at most {MAX_RECORDS}")
        if not self.model_id:
            raise SynthConfigError("model_id must be a nonempty string")
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise SynthConfigError("labels must be nonempty and unique")
        label_set = set(self.labels)
        prior_total = Fraction(0)
        for label, weight in self.class_priors.items():
            if label not in label_set:
                raise SynthConfigError(f"prior for unknown label {label!r}")
            if not 0 <= weight <= 1:
                raise SynthConfigError(f"prior for {label!r} outside [0, 1]")
            prior_total += weight
        if prior_total != 1:
            raise SynthConfigError(f"class priors sum to {prior_total}, not 1")
        for label, entries in self.confusion.items():
            if label not in label_set:
                raise SynthConfigError(f"confusion row for unknown label {label!r}")
            total = Fraction(0)
            for predicted, weight in entries:
                if not predicted <= label_set:
                    raise SynthConfigError(
                        f"confusion row {label!r} predicts unknown labels {sorted(predicted - label_set)}"
                    )
                if not 0 <= weight <= 1:
                    raise SynthConfigError(f"confusion weight for {label!r} outside [0, 1]")
                total += weight
            if total != 1:
                raise SynthConfigError(f"confusion row {label!r} sums to {total}, not 1")
        for label, weight in self.class_priors.items():
            if weight > 0 and label not in self.confusion:
                raise SynthConfigError(f"label {label!r} has prior mass but no confusion row")
        seen_conditions = set()
        for pc in self.planted_conditions:
            if not pc.condition_id or pc.condition_id in seen_conditions:
                raise SynthConfigError(f"condition id {pc.condition_id!r} empty or repeated")
            seen_conditions.add(pc.condition_id)
            if pc.target_class not in label_set:
                raise SynthConfigError(
                    f"condition {pc.condition_id!r} targets unknown class {pc.target_class!r}"
                )
            for name, value in (
                ("target_support", pc.target_support),
                ("target_confidence", pc.target_confidence),
            ):
                if not 0 <= value <= 1:
                    raise SynthConfigError(
                        f"condition {pc.condition_id!r}: {name} outside [0, 1]"
                    )
        if self.distributions:
            tags = [d.tag for d in self.distributions]
            if len(set(tags)) != len(tags) or not all(tags):
                raise SynthConfigError("distribution tags must be nonempty and unique")
            total = sum((d.record_fraction for d in self.distributions), Fraction(0))
            if total != 1:
                raise SynthConfigError(f"distribution fractions sum to {total}, not 1")
            for d in self.distributions:
                for cid, value in d.confidence_override.items():
                    if cid not in seen_conditions:
                        raise SynthConfigError(
                            f"distribution {d.tag!r} overrides unknown condition {cid!r}"
                        )
                    if not 0 <= value <= 1:
                        raise SynthConfigError(
                            f"override for {cid!r} under {d.tag!r} outside [0, 1]"
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
        return {
            "seed": self.seed,
            "n_records": self.n_records,
            "model_id": self.model_id,
            "labels": list(self.labels),
            "class_priors": {
                label: format_rational(w) for label, w in self.class_priors.items()
            },
            "confusion": {
                label: [
                    {"predicted": sorted(predicted), "weight": format_rational(w)}
                    for predicted, w in rows
                ]
                for label, rows in self.confusion.items()
            },
            "planted_conditions": [
                {
                    "condition_id": pc.condition_id,
                    "target_class": pc.target_class,
                    "target_support": format_rational(pc.target_support),
                    "target_confidence": format_rational(pc.target_confidence),
                }
                for pc in self.planted_conditions
            ],
            "distributions": [
                {
                    "tag": d.tag,
                    "record_fraction": format_rational(d.record_fraction),
                    "confidence_override": {
                        cid: format_rational(v)
                        for cid, v in d.confidence_override.items()
                    },
                }
                for d in self.distributions
            ],
        }


class BookkeepingRow(_Frozen):
    """Realized support and confidence of one planted condition; a
    ``distribution`` of None means pooled over all tags."""

    __slots__ = ("condition_id", "target_class", "distribution", "support", "confidence")

    def __init__(self, condition_id: str, target_class: str, distribution: str | None,
                 support: Probability, confidence: Probability):
        _set(self, "condition_id", condition_id)
        _set(self, "target_class", target_class)
        _set(self, "distribution", distribution)
        _set(self, "support", support)
        _set(self, "confidence", confidence)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "target_class": self.target_class,
            "distribution": self.distribution,
            "support": self.support.to_dict(),
            "confidence": self.confidence.to_dict(),
        }


class SynthBookkeeping(_Frozen):
    """Realized support/confidence per condition, measured on the output log."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[BookkeepingRow, ...]):
        _set(self, "rows", rows)

    def for_condition(self, condition_id: str, distribution: str | None = None) -> BookkeepingRow:
        for row in self.rows:
            if row.condition_id == condition_id and row.distribution == distribution:
                return row
        raise KeyError((condition_id, distribution))

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows]}


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
    for pc in cfg.planted_conditions:
        precision = _class_precision(cfg, pc.target_class)
        for tag in tags:
            confidence = overrides.get(tag, {}).get(pc.condition_id, pc.target_confidence)
            support = pc.target_support
            if precision is None:
                if support != 0:
                    raise SynthConfigError(
                        f"condition {pc.condition_id!r}: target class "
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
                    f"condition {pc.condition_id!r} under {tag!r}: target confidence "
                    f"{confidence} needs errors, but the confusion yields none for "
                    f"{pc.target_class!r}"
                )
            else:
                q_err = err_mass / error_rate
            if ok_mass == 0:
                q_ok = Fraction(0)
            elif precision == 0:
                raise SynthConfigError(
                    f"condition {pc.condition_id!r} under {tag!r}: targets need correct "
                    f"predictions of {pc.target_class!r}, but the confusion yields none"
                )
            else:
                q_ok = ok_mass / precision
            if q_err > 1 or q_ok > 1:
                raise SynthConfigError(
                    f"condition {pc.condition_id!r} under {tag!r}: unsatisfiable "
                    f"support/confidence targets (support {support} × confidence "
                    f"{confidence} exceeds the class error rate {error_rate})"
                    if q_err > 1
                    else f"condition {pc.condition_id!r} under {tag!r}: unsatisfiable "
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


def _names(names: tuple[str, ...], key: bytes) -> frozenset[str]:
    """The ``names`` whose columns a bytes view of a boolean row marks."""
    return frozenset(name for name, hit in zip(names, key) if hit)


def generate(cfg: SynthConfig) -> tuple[PredictionLog, SynthBookkeeping]:
    """Draw the configured log; deterministic for a fixed config."""
    tags, codes, shapes, counts = _draw(cfg, _mark_probabilities(cfg))
    # Sample ids s1..sn are distinct, and every shape is some row's.
    log = PredictionLog._columns([f"s{i}" for i in range(1, cfg.n_records + 1)], codes, shapes)
    return log, _bookkeeping(cfg, shapes, counts, tags)


def _draw(
    cfg: SynthConfig, marks: Mapping[tuple[str, str], tuple[Fraction, Fraction]]
) -> tuple[list[str], Sequence[int], list[tuple], list[int]]:
    """The tags of ``generate``, then its log as a shape code per row, the
    shapes and the number of rows of each shape, drawn column-wise."""
    import numpy as np  # deferred: importing errata must not load numpy

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_records

    if cfg.distributions:
        tags = [d.tag for d in cfg.distributions]
        tag_cum = _cumulative([d.record_fraction for d in cfg.distributions])
        cell_idx = np.minimum(np.searchsorted(tag_cum, rng.random(n), side="right"), len(tags) - 1)
    else:
        tags = [DEFAULT_DISTRIBUTION]
        cell_idx = np.zeros(n, dtype=np.intp)

    prior_labels = [label for label, w in cfg.class_priors.items() if w > 0]
    prior_cum = _cumulative([cfg.class_priors[label] for label in prior_labels])
    truth_idx = np.minimum(
        np.searchsorted(prior_cum, rng.random(n), side="right"), len(prior_labels) - 1
    )
    u_pred = rng.random(n)
    planted = cfg.planted_conditions
    cond_u = rng.random((n, len(planted)))

    # Number the (truth, confusion row) outcomes, one block per truth class
    # in prior order, and add each record's outcome to its tag's block of
    # cells with one search per truth class. A config built in code may
    # hold plain sets, so each predicted set is frozen here.
    outcomes = [
        (truth, frozenset(predicted)) for truth in prior_labels for predicted, _ in cfg.confusion[truth]
    ]
    cell_idx *= len(outcomes)
    start = 0
    for r, truth in enumerate(prior_labels):
        rows = cfg.confusion[truth]
        in_class = truth_idx == r
        found = np.searchsorted(_cumulative([w for _, w in rows]), u_pred[in_class], side="right")
        np.minimum(found, len(rows) - 1, out=found)
        cell_idx[in_class] += start + found
        start += len(rows)
    del truth_idx, u_pred, in_class, found

    # Record i carries condition j when cond_u[i, j] falls below the
    # condition's mark probability in the record's cell; -1 where the
    # target class is not predicted, so those records are never marked.
    hits = np.empty((n, len(planted)), dtype=bool)
    for j, pc in enumerate(planted):
        thresholds = []
        for tag in tags:
            q_err, q_ok = marks[(pc.condition_id, tag)]
            for truth, predicted in outcomes:
                q = q_ok if truth == pc.target_class else q_err
                thresholds.append(float(q) if pc.target_class in predicted else -1.0)
        np.less(cond_u[:, j], np.take(thresholds, cell_idx), out=hits[:, j])
    del cond_u

    # A row's shape is fixed by its cell and its row of marks: number the
    # (cell, mark pattern) pairs that occur.
    names = tuple(pc.condition_id for pc in planted)
    if names:
        # A bytes view drops trailing zero bytes, i.e. unmarked last
        # columns, which _names would not reach anyway.
        patterns, pattern_idx = np.unique(hits.view(f"S{len(names)}").ravel(), return_inverse=True)
        condition_sets = [_names(names, key) for key in patterns.tolist()]
    else:
        pattern_idx, condition_sets = 0, [frozenset()]
    del hits
    pairs, codes, counts = np.unique(
        cell_idx * len(condition_sets) + pattern_idx, return_inverse=True, return_counts=True
    )
    del cell_idx, pattern_idx

    truth_sets = {label: frozenset((label,)) for label in prior_labels}
    cells = [(predicted, truth_sets[truth], tag) for tag in tags for truth, predicted in outcomes]
    shapes = []
    for pair in pairs.tolist():
        predicted, truth, tag = cells[pair // len(condition_sets)]
        shapes.append((cfg.model_id, predicted, truth, condition_sets[pair % len(condition_sets)], tag))
    codes = codes.astype(np.uint8) if len(shapes) <= 256 else codes.tolist()
    return tags, codes, shapes, counts.tolist()


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
    import numpy as np  # deferred: importing errata must not load numpy

    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, max_records + 1))
    k, m = int(rng.integers(1, max_labels + 1)), int(rng.integers(0, max_conditions + 1))
    # One call draws the three matrices' uniforms in turn, as three calls would.
    u = rng.random(n * (2 * k + m))
    return (n, u[:n * k].reshape(n, k) < 0.45, u[n * k:2 * n * k].reshape(n, k) < 0.45,
            u[2 * n * k:].reshape(n, m) < 0.5)


# numpy's SeedSequence hashes its entropy words into a pool of four uint32
# words (hashmix j xors with _HASH_A[j] and multiplies by _HASH_A[j + 1];
# mix combines two words), and generate_state hashes pool word i % 4 into
# output word i with _INIT_B * _MULT_B**i mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_HASH_A = [_INIT_A * pow(_MULT_A, j, 1 << 32) & _MASK32 for j in range(17)]
# PCG64 steps its 128-bit state s to s * _PCG_MULT + inc mod 2**128. The
# batched draws jump at most _JUMPS steps from a known state, so they draw
# a trial's uniforms at most _JUMPS at a time.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_JUMPS = 4096


def _hashmix(x, xor, mult):
    x = (x ^ xor) * mult
    return x ^ (x >> 16)


def _seed_pools(seeds):
    """``SeedSequence(s).pool`` of each s in the uint64 array ``seeds``, a
    column each of a 4-row uint32 array."""
    import numpy as np  # deferred: importing errata must not load numpy

    consts = np.array(_HASH_A, np.uint32)[:, None]
    # The entropy words are s's low and high halves (a seed below 2**32 has
    # one word, and the pool hashes a missing word as 0), then two zeros.
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0], pool[1] = seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = _hashmix(pool, consts[:4], consts[1:5])
    for src in range(4):
        # Each other word, in order, mixes in word src hashed anew.
        dst, j = [i for i in range(4) if i != src], 4 + 3 * src
        hashed = _hashmix(pool[src], consts[j:j + 3], consts[j + 1:j + 4])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    return pool


def _state_words(pool, first: int, count: int):
    """uint64 words first, ..., first + count − 1 of
    ``SeedSequence.generate_state(n, np.uint64)`` on ``pool``: a uint32
    array of four rows, each a scalar or a column per trial. ``first`` may
    be any nonnegative int. uint64 word i joins uint32 words 2i (low) and
    2i + 1 (high)."""
    import numpy as np

    consts = np.full(2 * count + 1, _MULT_B, np.uint32)
    consts[0] = _INIT_B * pow(_MULT_B, 2 * first, 1 << 32) & _MASK32
    consts = np.multiply.accumulate(consts, dtype=np.uint32).reshape(-1, *[1] * (pool.ndim - 1))
    words = (pool[(np.arange(2 * count) + 2 * (first % 2)) % 4] ^ consts[:-1]) * consts[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def _mul128(a, b):
    """a × b mod 2**128 of (high, low) pairs of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    # The high word of al × bl from four 32-bit products (none overflows).
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = (mid & _MASK32) + a0 * b1
    high = a1 * b1 + (mid >> 32) + (carry >> 32) + ah * bl + al * bh
    return high, al * bl


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _jump(jumps, r, state, inc):
    """The states r + 1 PCG64 steps on from ``state``: A[r]·state + C[r]·inc."""
    a_hi, a_lo, c_hi, c_lo = jumps
    return _add128(_mul128((a_hi[r], a_lo[r]), state), _mul128((c_hi[r], c_lo[r]), inc))


def _pcg_output(state):
    """PCG64's XSL-RR output of each 128-bit state."""
    x, rot = state[0] ^ state[1], state[0] >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


@cache
def _jumps() -> tuple:
    """A and C of 1, ..., _JUMPS PCG64 steps, as high and low uint64
    arrays (A high, A low, C high, C low): r + 1 steps take a state s to
    A[r]·s + C[r]·inc."""
    import numpy as np

    a = np.array([_PCG_MULT >> 64], np.uint64), np.array([_PCG_MULT & _MASK64], np.uint64)
    c = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while len(a[0]) < _JUMPS:  # h + s steps are s steps after h steps
        a_h, c_h = (a[0][-1:], a[1][-1:]), (c[0][-1:], c[1][-1:])
        c = tuple(map(np.concatenate, zip(c, _add128(_mul128(a, c_h), c))))
        a = tuple(map(np.concatenate, zip(a, _mul128(a, a_h))))
    for table in (*a, *c):
        table.flags.writeable = False  # shared by every call
    return (*a, *c)


def _fuzz_draws(seeds, max_records: int, max_labels: int, max_conditions: int):
    """``_fuzz_draw``'s draws for each seed of the uint64 array ``seeds``,
    from numpy's algorithms (SeedSequence, PCG64, Lemire's bounded
    integers, 53-bit uniforms) without building a generator.

    Returns n, k and m (int64 arrays), ``redraw`` and ``rounds``.
    ``redraw`` marks the trials whose bounded draw numpy rejects and
    repeats, and every trial when a bound needs more than a 32-bit draw;
    their n, k and m are placeholders, and ``_fuzz_draw`` must draw them.
    ``rounds`` yields (trials, index, uniforms) arrays, at most ``_JUMPS``
    uniforms of each trial a round: uniform ``index`` of trial ``trials``
    is element ``index`` of ``_fuzz_draw``'s ``rng.random(n * (2k + m))``.
    Every uniform of the other trials comes once."""
    import numpy as np

    jumps = _jumps()
    trials = len(seeds)
    ranges = (max_records, max_labels, max_conditions + 1)  # of n, k and m
    if max(ranges) > _MASK32:
        ones = np.ones(trials, np.int64)
        return ones, ones, ones, np.ones(trials, bool), iter(())
    words = _state_words(_seed_pools(seeds), 0, 4)
    # PCG64's srandom: inc is the odd stream word; the state steps from 0
    # to inc, adds the seed word and steps again to the seeded state. So
    # r + 1 steps on from that sum is the seeded state (r = 0), then the
    # state of output r − 1.
    inc = words[2] << 1 | words[3] >> 63, words[3] << 1 | 1
    start = _add128((words[0], words[1]), inc)
    # Each drawn bound takes the next 32-bit half, low half first, of the
    # first outputs; a range of 1 draws nothing.
    drawn = sum(r > 1 for r in ranges)
    states = _jump(jumps, np.arange((drawn + 1) // 2 + 1)[:, None], start, inc)
    heads = _pcg_output((states[0][1:], states[1][1:]))
    halves = [half for out in heads for half in (out & _MASK32, out >> 32)]
    values, redraw = [], np.zeros(trials, bool)
    for r in ranges:
        if r == 1:
            values.append(np.zeros(trials, np.int64))
            continue
        x = halves.pop(0) * r
        values.append((x >> 32).astype(np.int64))
        redraw |= (x & _MASK32) < (1 << 32) % r  # numpy's Lemire rejection
    n, k, m = values[0] + 1, values[1] + 1, values[2]
    sizes = np.where(redraw, 0, n * (2 * k + m))
    most = int(sizes.max(initial=0))

    def rounds(state):
        for first in range(0, most, _JUMPS):
            count = np.clip(sizes - first, 0, _JUMPS)
            trial = np.repeat(np.arange(trials), count)
            r = np.arange(len(trial)) - np.repeat(np.cumsum(count) - count, count)
            inc_t = inc[0][trial], inc[1][trial]
            out = _pcg_output(_jump(jumps, r, (state[0][trial], state[1][trial]), inc_t))
            yield trial, first + r, (out >> 11) * 2.0 ** -53
            if first + _JUMPS < most:
                state = _jump(jumps, slice(_JUMPS - 1, None), state, inc)

    return n, k, m, redraw, rounds((states[0][-1], states[1][-1]))


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
