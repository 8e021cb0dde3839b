"""Workload ``library-audit-20k``: many exact queries against one shared log.

Set-up generates, serializes and loads one planted log of 20,000 records
(4 labels, multi-label predictions, 3 distribution tags with one
confidence override, 16 planted conditions). One op audits one class α
with partner β, the next label: the greedy learner under each objective
over all 16 candidates, the subset oracle over 8, a metric bundle and an
invariance profile per candidate, a correction rule toward β, and three
checks on the learned body. The op is pure counting and slicing over a
log already in memory, so it judges an index or cache for counts.

Only the names the acceptance suite imports from top-level ``errata``
are called.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference as ref
from common import SETUP_REPS, OpResult, SetupTimes, import_times, own_peak_rss_mb, probe

LABELS = ("a", "b", "c", "d")
EPSILON = Fraction(3, 20)
OBJECTIVES = ("PRECISION_GAIN", "SUPPORT_TIMES_CONFIDENCE", "F1")
# Per class: an error marker, two weaker markers and a benign condition,
# as (support, confidence) targets.
CONDITION_SHAPES = (("1/5", "9/10"), ("3/20", "4/5"), ("1/10", "7/10"), ("1/5", "1/10"))


def class_conditions(label: str) -> tuple[str, ...]:
    k = LABELS.index(label) * len(CONDITION_SHAPES)
    return tuple(f"c{k + j + 1}" for j in range(len(CONDITION_SHAPES)))


ALL_CONDITIONS = tuple(c for label in LABELS for c in class_conditions(label))


def synth_config(seed: int, n_records: int) -> dict:
    """Each truth X is predicted as {X}, as its predecessor alone, or with
    its predecessor or successor added, so a wrong α is most often a
    true successor of α."""
    def shifted(label, step):
        return LABELS[(LABELS.index(label) + step) % len(LABELS)]

    return {
        "seed": seed,
        "n_records": n_records,
        "model_id": "m",
        "labels": list(LABELS),
        "class_priors": {label: "1/4" for label in LABELS},
        "confusion": {
            x: [
                {"predicted": [x], "weight": "11/20"},
                {"predicted": [shifted(x, -1)], "weight": "1/5"},
                {"predicted": [x, shifted(x, -1)], "weight": "3/20"},
                {"predicted": [x, shifted(x, 1)], "weight": "1/10"},
            ]
            for x in LABELS
        },
        "planted_conditions": [
            {"condition_id": cid, "target_class": label,
             "target_support": support, "target_confidence": confidence}
            for label in LABELS
            for cid, (support, confidence) in zip(class_conditions(label), CONDITION_SHAPES)
        ],
        "distributions": [
            {"tag": "d1", "record_fraction": "2/5", "confidence_override": {}},
            {"tag": "d2", "record_fraction": "2/5", "confidence_override": {}},
            {"tag": "d3", "record_fraction": "1/5", "confidence_override": {"c1": "1/10"}},
        ],
    }


def audit(errata, log, alpha: str, beta: str) -> dict:
    """One op: every library call made for one audited class, with the
    speed probe run after each call."""

    def call(fn, *args):
        result = fn(*args)
        probe()
        return result

    cfg = errata.LearnConfig(epsilon=EPSILON)
    oracle_candidates = class_conditions(alpha) + class_conditions(beta)
    out = {
        "detect": {
            objective: call(
                errata.learn_detection,
                log, "m", alpha, ALL_CONDITIONS, errata.LearnConfig(objective=objective, epsilon=EPSILON),
            )
            for objective in OBJECTIVES
        },
        "greedy8": call(errata.learn_detection, log, "m", alpha, oracle_candidates, cfg),
        "oracle8": call(errata.exhaustive_oracle, log, "m", alpha, oracle_candidates, cfg),
        "bundles": {},
        "profiles": {},
    }
    for cid in ALL_CONDITIONS:
        body = errata.ConditionBody.of(cid)
        out["bundles"][cid] = call(errata.metric_bundle, log, "m", alpha, body)
        out["profiles"][cid] = call(errata.invariance_profile, log, "m", alpha, body)
    pairs = [(cid, alpha) for cid in class_conditions(alpha)]
    out["correction"] = call(errata.learn_correction, log, "m", beta, pairs, cfg)
    rule = out["detect"]["PRECISION_GAIN"][0]
    out["checks"] = []
    if rule is not None:
        out["checks"] = [
            call(check, log, "m", alpha, rule.body)
            for check in (errata.check_precision_change, errata.check_recall_reduction, errata.check_support_bound)
        ]
    return out


def _probability(p) -> tuple[int, int]:
    return (p.numerator, p.denominator)


class LibraryAudit:
    name = "library-audit-20k"
    items = "(class, candidate) pairs"

    def __init__(self, seed: int, workdir: Path, src: Path, n_records: int = 20_000):
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.n_records = n_records
        self.log_path = workdir / "log.jsonl"
        self._verified: dict[str, tuple[str, list[str]]] = {}  # class: (results, errors)

    @property
    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def close(self) -> None:
        pass

    def setup(self, tracer=None) -> tuple[float, float]:
        """As measured and rescaled: import time (median of five fresh
        interpreters importing errata) plus the median of five rounds of
        generate → serialize → write → load_log. The reference is built
        afterwards, untimed."""
        import errata

        self.errata = errata
        imports = import_times(self.src, "errata")
        if tracer is not None:
            tracer.install()
        rounds, texts = SetupTimes(), set()
        for _ in range(SETUP_REPS):
            if tracer is not None:
                tracer.begin("setup")
            t0 = perf_counter()
            log, _ = errata.generate(errata.SynthConfig.from_dict(synth_config(self.seed, self.n_records)))
            text = errata.serialize_log(log)
            self.log_path.write_text(text, encoding="utf-8")
            with open(self.log_path, "r", encoding="utf-8") as handle:
                self.log = errata.load_log(handle)
            seconds = perf_counter() - t0
            if tracer is not None:
                tracer.end()
            rounds.add(seconds)
            texts.add(text)
        if len(texts) != 1 or self.log != log:
            raise RuntimeError("set-up rounds disagree: generate/serialize/load is not deterministic")
        records = ref.read_records(self.log_path)
        self.counters = {label: ref.ClassCounter(records, "m", label) for label in LABELS}
        self.admissible = {
            (beta, pair): ref.pair_admissible(records, "m", beta, pair)
            for i, alpha in enumerate(LABELS)
            for beta in [LABELS[(i + 1) % len(LABELS)]]
            for pair in [(cid, alpha) for cid in class_conditions(alpha)]
        }
        self.tags = sorted({r.distribution for r in records})
        return tuple(a + b for a, b in zip(imports.medians(), rounds.medians()))

    def run_op(self, index: int, tracer=None, op_id=None) -> OpResult:
        """Op on input ``index``; ``op_id`` (default ``index``) labels its spans."""
        op_id = index if op_id is None else op_id
        alpha = LABELS[index % len(LABELS)]
        beta = LABELS[(index + 1) % len(LABELS)]
        if tracer is not None:
            tracer.begin(op_id)
        t0 = perf_counter()
        out = audit(self.errata, self.log, alpha, beta)
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        errors = self._check(alpha, beta, out)
        return OpResult(wall, len(ALL_CONDITIONS), errors)

    def _check(self, alpha: str, beta: str, out: dict) -> list[str]:
        """Full checks on the first op of a class; a later op whose results
        are identical to it inherits its verdict, and one whose results
        differ fails and is checked in full."""
        digest = _semantic_text(out)
        if alpha in self._verified:
            first_digest, first_errors = self._verified[alpha]
            if digest == first_digest:
                return list(first_errors)
            return [f"{alpha}: outputs differ from an earlier op on the same class"] + self._full_check(
                alpha, beta, out
            )
        errors = self._full_check(alpha, beta, out)
        self._verified[alpha] = (digest, errors)
        return list(errors)

    def _full_check(self, alpha: str, beta: str, out: dict) -> list[str]:
        counter = self.counters[alpha]
        errors = []
        for objective, (rule, _) in out["detect"].items():
            if rule is None:
                continue
            body = rule.body.condition_ids
            c = counter.counts(body)
            reduction = ref.recall_reduction(c)
            if reduction is not None and reduction > EPSILON:
                errors.append(f"{alpha} {objective}: recall reduction {reduction} > {EPSILON}")
            base = ref.objective(objective, counter.counts(()))
            value = ref.objective(objective, c)
            if value is None or (base is not None and value <= base):
                errors.append(f"{alpha} {objective}: body {sorted(body)} does not beat the empty body")
        greedy, _ = out["greedy8"]
        oracle_body, oracle_value = out["oracle8"]
        if oracle_body is not None:
            c = counter.counts(oracle_body)
            if oracle_value != ref.objective("PRECISION_GAIN", c):
                errors.append(f"{alpha} oracle: value {oracle_value} disagrees with the recount")
            reduction = ref.recall_reduction(c)
            if reduction is not None and reduction > EPSILON:
                errors.append(f"{alpha} oracle: recall reduction {reduction} > {EPSILON}")
        if greedy is not None:
            greedy_value = ref.objective("PRECISION_GAIN", counter.counts(greedy.body.condition_ids))
            if oracle_value is None or oracle_value < greedy_value:
                errors.append(f"{alpha}: oracle {oracle_value} below greedy {greedy_value}")
        for cid, got in out["bundles"].items():
            want = ref.bundle(counter.counts((cid,)))
            have = {
                name: _probability(getattr(got, name))
                for name in ("precision", "recall", "rule_precision", "rule_recall", "support", "confidence")
            }
            have["k_factor"] = got.k_factor
            have["residual"] = got.residual
            if have != want:
                errors.append(f"{alpha}/{cid}: metric bundle {have} != reference {want}")
        for cid, profile in out["profiles"].items():
            pooled = counter.counts((cid,))
            if _probability(profile.pooled_confidence) != (pooled.pred_body - pooled.pred_body_gt, pooled.pred_body):
                errors.append(f"{alpha}/{cid}: pooled confidence disagrees with the recount")
            rows = {row.distribution: row for row in profile.rows}
            if sorted(rows) != self.tags:
                errors.append(f"{alpha}/{cid}: profile tags {sorted(rows)} != {self.tags}")
                continue
            for tag, row in rows.items():
                c = counter.counts((cid,), tag)
                if _probability(row.confidence) != (c.pred_body - c.pred_body_gt, c.pred_body) or (
                    row.verdict.value != ref.error_detecting(c)
                ):
                    errors.append(f"{alpha}/{cid}/{tag}: invariance row disagrees with the recount")
        correction, _ = out["correction"]
        admissible = {pair for (b, pair), ok in self.admissible.items() if b == beta and ok}
        if correction is None:
            if admissible:
                errors.append(f"{alpha}→{beta}: no correction rule, but {sorted(admissible)} are admissible")
        elif correction.target_class != beta or not set(correction.pairs) <= admissible:
            errors.append(f"{alpha}→{beta}: correction pairs {sorted(correction.pairs)} not all admissible")
        for report in out["checks"]:
            if report.verdict.value == "VIOLATED":
                errors.append(f"{alpha}: {report.theorem_id.value} VIOLATED")
        return errors


def _semantic_text(out: dict) -> str:
    """Canonical text of an op's results, for the repeat-identity check."""
    def body(rule):
        return None if rule is None else sorted(rule.body.condition_ids)

    oracle_body, oracle_value = out["oracle8"]
    correction = out["correction"][0]
    return json.dumps(
        {
            "detect": {k: body(rule) for k, (rule, _) in out["detect"].items()},
            "greedy8": body(out["greedy8"][0]),
            "oracle8": [None if oracle_body is None else sorted(oracle_body), str(oracle_value)],
            "bundles": {k: v.to_dict() for k, v in out["bundles"].items()},
            "profiles": {k: v.to_dict() for k, v in out["profiles"].items()},
            "correction": None if correction is None else sorted(correction.pairs),
            "checks": [r.to_dict() for r in out["checks"]],
        },
        sort_keys=True,
    )
