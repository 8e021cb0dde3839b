"""Reference generators for the synth tests: ``generate`` and
``random_log`` as record-by-record loops over the same draws, in the same
order, as the library. Each record's outcome is found by ``bisect`` on the
cumulative confusion weights and each planted condition is tested one
record at a time, so the library's array work can be checked against
them byte for byte. The bookkeeping is counted on the emitted log's
index, not from per-shape counts as the library counts it.
"""

from bisect import bisect_right

import numpy as np

from errata import DEFAULT_DISTRIBUTION, PredictionLog, PredictionRecord, joint_counts
from errata.estimators import bundle_from_counts
from errata.synth import (
    BookkeepingRow,
    SynthBookkeeping,
    _cumulative,
    _mark_probabilities,
    condition_alphabet,
    label_alphabet,
)


def generate(cfg):
    marks = _mark_probabilities(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_records

    if cfg.distributions:
        tags = [d.tag for d in cfg.distributions]
        tag_cum = _cumulative([d.record_fraction for d in cfg.distributions])
        tag_idx = [min(bisect_right(tag_cum, u), len(tags) - 1) for u in rng.random(n).tolist()]
    else:
        tags = [DEFAULT_DISTRIBUTION]
        tag_idx = [0] * n

    prior_labels = [label for label, w in cfg.class_priors.items() if w > 0]
    prior_cum = _cumulative([cfg.class_priors[label] for label in prior_labels])
    truth_idx = [
        min(bisect_right(prior_cum, u), len(prior_labels) - 1) for u in rng.random(n).tolist()
    ]
    u_pred = rng.random(n).tolist()
    planted = cfg.planted_conditions
    cond_u = rng.random((n, len(planted))).tolist()

    records = []
    for i in range(n):
        tag = tags[tag_idx[i]]
        truth = prior_labels[truth_idx[i]]
        rows = cfg.confusion[truth]
        cum = _cumulative([w for _, w in rows])
        predicted = frozenset(rows[min(bisect_right(cum, u_pred[i]), len(rows) - 1)][0])
        conditions = []
        for j, pc in enumerate(planted):
            if pc.target_class in predicted:
                q_err, q_ok = marks[(pc.condition_id, tag)]
                threshold = q_ok if pc.target_class == truth else q_err
                if cond_u[i][j] < float(threshold):
                    conditions.append(pc.condition_id)
        records.append(
            PredictionRecord(
                sample_id=f"s{i + 1}",
                model_id=cfg.model_id,
                predicted=predicted,
                ground_truth=frozenset((truth,)),
                conditions=frozenset(conditions),
                distribution=tag,
            )
        )
    log = PredictionLog(tuple(records))
    return log, _bookkeeping(cfg, log, tags)


def _bookkeeping(cfg, log, tags):
    rows = []
    for pc in cfg.planted_conditions:
        for tag in [None, *tags] if cfg.distributions else [None]:
            bundle = bundle_from_counts(joint_counts(
                log, pc.target_class, (pc.condition_id,), model_id=cfg.model_id, distribution=tag
            ))
            rows.append(BookkeepingRow(pc.condition_id, pc.target_class, tag,
                                       bundle.support, bundle.confidence))
    return SynthBookkeeping(tuple(rows))


def random_log(seed, max_records=30, max_labels=4, max_conditions=3):
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
                conditions=frozenset(c for c, hit in zip(conditions, cond_m[i]) if hit)
                if conditions
                else frozenset(),
            )
        )
    return PredictionLog(tuple(records))
