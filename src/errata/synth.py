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
seed; the draw order is fixed (tags, truths, predicted sets, then one
array per planted condition in config order), so a config reproduces its
log bit for bit across runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .estimators import Probability, bundle_from_counts, joint_counts
from .logs import DEFAULT_DISTRIBUTION, InputError, PredictionLog, PredictionRecord
from .rational import as_fraction, format_rational


class SynthConfigError(InputError):
    """A synthetic-log config is malformed or its targets are unsatisfiable."""


_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")


def label_alphabet(k: int) -> tuple[str, ...]:
    """First k fuzz labels: a, b, c, ... then l9, l10, ..."""
    return tuple(_LABELS[i] if i < len(_LABELS) else f"l{i + 1}" for i in range(k))


def condition_alphabet(k: int) -> tuple[str, ...]:
    return tuple(f"c{i + 1}" for i in range(k))


@dataclass(frozen=True, slots=True)
class PlantedCondition:
    condition_id: str
    target_class: str
    target_support: Fraction
    target_confidence: Fraction


@dataclass(frozen=True)
class DistributionSpec:
    tag: str
    record_fraction: Fraction
    confidence_override: Mapping[str, Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; see from_dict for the file shape."""

    seed: int
    n_records: int
    model_id: str
    labels: tuple[str, ...]
    class_priors: Mapping[str, Fraction]
    confusion: Mapping[str, Sequence[tuple[frozenset[str], Fraction]]]
    planted_conditions: tuple[PlantedCondition, ...] = ()
    distributions: tuple[DistributionSpec, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise SynthConfigError("seed must be nonnegative")
        if self.n_records < 1:
            raise SynthConfigError("n_records must be at least 1")
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

        Rationals may be written as numbers or "num/den" strings::

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
        try:
            confusion = {
                label: tuple(
                    (frozenset(entry["predicted"]), as_fraction(entry["weight"]))
                    for entry in rows
                )
                for label, rows in obj["confusion"].items()
            }
            return cls(
                seed=int(obj["seed"]),
                n_records=int(obj["n_records"]),
                model_id=obj["model_id"],
                labels=tuple(obj["labels"]),
                class_priors={
                    label: as_fraction(w) for label, w in obj["class_priors"].items()
                },
                confusion=confusion,
                planted_conditions=tuple(
                    PlantedCondition(
                        pc["condition_id"],
                        pc["target_class"],
                        as_fraction(pc["target_support"]),
                        as_fraction(pc["target_confidence"]),
                    )
                    for pc in obj.get("planted_conditions", ())
                ),
                distributions=tuple(
                    DistributionSpec(
                        d["tag"],
                        as_fraction(d["record_fraction"]),
                        {
                            cid: as_fraction(v)
                            for cid, v in d.get("confidence_override", {}).items()
                        },
                    )
                    for d in obj.get("distributions", ())
                ),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SynthConfigError):
                raise
            raise SynthConfigError(f"malformed synth config: {exc}") from exc

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


@dataclass(frozen=True, slots=True)
class BookkeepingRow:
    condition_id: str
    target_class: str
    distribution: str | None  # None means pooled over all tags
    support: Probability
    confidence: Probability

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "target_class": self.target_class,
            "distribution": self.distribution,
            "support": self.support.to_dict(),
            "confidence": self.confidence.to_dict(),
        }


@dataclass(frozen=True)
class SynthBookkeeping:
    """Realized support/confidence per condition, measured on the output log."""

    rows: tuple[BookkeepingRow, ...]

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


def generate(cfg: SynthConfig) -> tuple[PredictionLog, SynthBookkeeping]:
    """Draw the configured log; deterministic for a fixed config."""
    import numpy as np  # deferred: importing errata must not load numpy

    marks = _mark_probabilities(cfg)  # validates satisfiability
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_records

    if cfg.distributions:
        tags = [d.tag for d in cfg.distributions]
        tag_cum = _cumulative([d.record_fraction for d in cfg.distributions])
        tag_idx = np.minimum(
            np.searchsorted(tag_cum, rng.random(n), side="right"), len(tags) - 1
        )
    else:
        tags = [DEFAULT_DISTRIBUTION]
        tag_idx = np.zeros(n, dtype=np.intp)

    prior_labels = [label for label, w in cfg.class_priors.items() if w > 0]
    prior_cum = _cumulative([cfg.class_priors[label] for label in prior_labels])
    truth_idx = np.minimum(
        np.searchsorted(prior_cum, rng.random(n), side="right"), len(prior_labels) - 1
    )

    confusion_tables = {
        label: (
            [predicted for predicted, _ in rows],
            _cumulative([w for _, w in rows]),
        )
        for label, rows in cfg.confusion.items()
    }
    u_pred = rng.random(n)
    cond_u = rng.random((n, len(cfg.planted_conditions))) if cfg.planted_conditions else None

    mark_floats = {key: (float(qe), float(qo)) for key, (qe, qo) in marks.items()}
    truth_sets = {label: frozenset((label,)) for label in prior_labels}
    planted = cfg.planted_conditions

    records = []
    for i in range(n):
        tag = tags[tag_idx[i]]
        truth = prior_labels[truth_idx[i]]
        sets, cum = confusion_tables[truth]
        predicted = sets[min(bisect_right(cum, u_pred[i]), len(sets) - 1)]
        conditions: list[str] = []
        for j, pc in enumerate(planted):
            if pc.target_class in predicted:
                q_err, q_ok = mark_floats[(pc.condition_id, tag)]
                threshold = q_ok if pc.target_class == truth else q_err
                if cond_u[i, j] < threshold:
                    conditions.append(pc.condition_id)
        records.append(
            PredictionRecord(
                sample_id=f"s{i + 1}",
                model_id=cfg.model_id,
                predicted=predicted,
                ground_truth=truth_sets[truth],
                conditions=frozenset(conditions),
                distribution=tag,
            )
        )
    log = PredictionLog(tuple(records))
    return log, _bookkeeping(cfg, log, tags)


def _bookkeeping(cfg: SynthConfig, log: PredictionLog, tags: Sequence[str]) -> SynthBookkeeping:
    rows = []
    scopes = [None, *tags] if cfg.distributions else [None]
    for pc in cfg.planted_conditions:
        for tag in scopes:
            bundle = bundle_from_counts(
                joint_counts(
                    log, pc.target_class, (pc.condition_id,),
                    model_id=cfg.model_id, distribution=tag,
                )
            )
            rows.append(
                BookkeepingRow(
                    condition_id=pc.condition_id,
                    target_class=pc.target_class,
                    distribution=tag,
                    support=bundle.support,
                    confidence=bundle.confidence,
                )
            )
    return SynthBookkeeping(tuple(rows))


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
    if max_records < 1 or max_labels < 1 or max_conditions < 0:
        raise ValueError("bounds must be positive (conditions may be 0)")
    import numpy as np  # deferred: importing errata must not load numpy

    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, max_records + 1))
    labels = label_alphabet(int(rng.integers(1, max_labels + 1)))
    conditions = condition_alphabet(int(rng.integers(0, max_conditions + 1)))
    pred_m = rng.random((n, len(labels))) < 0.45
    gt_m = rng.random((n, len(labels))) < 0.45
    cond_m = rng.random((n, len(conditions))) < 0.5 if conditions else None
    records = []
    for i in range(n):
        records.append(
            PredictionRecord(
                sample_id=f"r{i + 1}",
                model_id="m",
                predicted=frozenset(l for l, hit in zip(labels, pred_m[i]) if hit),
                ground_truth=frozenset(l for l, hit in zip(labels, gt_m[i]) if hit),
                conditions=frozenset(
                    c for c, hit in zip(conditions, cond_m[i]) if hit
                )
                if conditions
                else frozenset(),
            )
        )
    return PredictionLog(tuple(records))
