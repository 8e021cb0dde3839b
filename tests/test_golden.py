"""Golden digests: sha256 pins of generated logs, the sweep table, library
results and one CLI chain's outputs.

The README promises identical logs, reports and output bytes across runs
and platforms for identical seeds and configs. These pins hold that
promise across refactors: a change that alters any pinned byte fails
here, naming the pin. ``manifest.json`` is not pinned (it echoes the
command line). To re-derive a pin after an intended output change, print
``_digests(...)`` for the affected case and update the table.
"""

import hashlib
import json

from errata import (
    ConditionBody,
    LearnConfig,
    Objective,
    PredictionLog,
    RuleSet,
    SynthConfig,
    apply_rules,
    check_claim1,
    check_edns,
    check_precision_change,
    check_recall_reduction,
    check_reclassification_limit,
    check_residual,
    check_support_bound,
    dumps_rules,
    evaluate_delta,
    exhaustive_oracle,
    generate,
    invariance_profile,
    is_error_detecting,
    learn_correction,
    learn_detection,
    loads_rules,
    metric_bundle,
    random_log,
    serialize_log,
    sweep,
)
from errata.cli import main
from errata.rational import format_rational


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _planted(seed, n_records=2000):
    """The acceptance suite's planted shape (A4) at a small n."""
    return {
        "seed": seed,
        "n_records": n_records,
        "model_id": "m",
        "labels": ["a", "b", "c"],
        "class_priors": {"a": "1/5", "b": "2/5", "c": "2/5"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [
                {"predicted": ["a"], "weight": "1/2"},
                {"predicted": ["b"], "weight": "1/2"},
            ],
            "c": [{"predicted": ["c"], "weight": 1}],
        },
        "planted_conditions": [
            {"condition_id": "c1", "target_class": "a",
             "target_support": "1/2", "target_confidence": "9/10"},
            {"condition_id": "c2", "target_class": "a",
             "target_support": "3/10", "target_confidence": "2/5"},
            {"condition_id": "c3", "target_class": "a",
             "target_support": "1/5", "target_confidence": "0"},
        ],
    }


def _multi_tag(seed, model_id="m", n_records=2000):
    """Three tags (one confidence override), multi-label predictions, four
    planted conditions over two classes."""
    return {
        "seed": seed,
        "n_records": n_records,
        "model_id": model_id,
        "labels": ["a", "b", "c"],
        "class_priors": {"a": "1/3", "b": "1/3", "c": "1/3"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": "3/5"},
                  {"predicted": ["a", "b"], "weight": "1/5"},
                  {"predicted": [], "weight": "1/5"}],
            "b": [{"predicted": ["a"], "weight": "1/2"},
                  {"predicted": ["b"], "weight": "1/2"}],
            "c": [{"predicted": ["c"], "weight": "3/4"},
                  {"predicted": ["b", "c"], "weight": "1/4"}],
        },
        "planted_conditions": [
            {"condition_id": "c1", "target_class": "a",
             "target_support": "2/5", "target_confidence": "4/5"},
            {"condition_id": "c2", "target_class": "a",
             "target_support": "1/5", "target_confidence": "1/2"},
            {"condition_id": "c3", "target_class": "b",
             "target_support": "1/4", "target_confidence": "3/5"},
            {"condition_id": "c4", "target_class": "a",
             "target_support": "1/10", "target_confidence": "0"},
        ],
        "distributions": [
            {"tag": "d1", "record_fraction": "1/2"},
            {"tag": "d2", "record_fraction": "1/4",
             "confidence_override": {"c1": "1/10"}},
            {"tag": "d3", "record_fraction": "1/4"},
        ],
    }


def _digests(outputs: dict) -> dict:
    return {name: _sha(text) for name, text in outputs.items()}


def _assert_pinned(outputs: dict, expected: dict) -> None:
    got = _digests(outputs)
    changed = sorted(name for name in expected if got.get(name) != expected[name])
    assert not changed, f"golden output changed: {changed}"
    assert set(got) == set(expected)


# ---------------------------------------------------------------------------
# Generated logs
# ---------------------------------------------------------------------------

GOLDEN_SYNTH = {
    "planted-42000": "a0fc1491400caeb1b0869bc3ad140ce8988f9fcd51bcdf19dec4a78ea5b1609e",
    "planted-1": "67624869cc962c5356ce6db122c2ac64db5a2cf00f329cfc554d64cc89c10ffd",
    "multi-tag-7": "10ba74c3bb321fa814635d263540431ee7113083b3ea5d5ce440cd735ab43e47",
    "multi-tag-7-bookkeeping": "f523961dc6313b81b1fb678fe392016826206118bf774d2134170d5c09ece23d",
}

GOLDEN_RANDOM = {
    "random-0": "afc9c2c7d0a29f744b94f0f9e8466027b6b0312676a62d01e5e30245e912b3a4",
    "random-1": "17f57e33b83d07d5f103f8115609f8e0e92f7282707240a639721bd6cddb11eb",
    "random-2": "a00243897df43c374147d2acbdf6f31bf9aa7e06b0b396b293636a274bd5d6e4",
    "random-3": "a472ca8c2241fb2172e711cfe9a67afd7509f6442053c43feb8065bb0fb47b63",
    "random-4": "b605bbd94358f1c6116cf875acff6ac8ddf760c534b6431b6450009eef23bc55",
}


def test_synth_logs_pinned():
    outputs = {}
    for seed in (42000, 1):
        log, _ = generate(SynthConfig.from_dict(_planted(seed)))
        outputs[f"planted-{seed}"] = serialize_log(log)
    log, book = generate(SynthConfig.from_dict(_multi_tag(7)))
    outputs["multi-tag-7"] = serialize_log(log)
    outputs["multi-tag-7-bookkeeping"] = _canonical(book.to_dict())
    _assert_pinned(outputs, GOLDEN_SYNTH)


def test_random_logs_pinned():
    outputs = {f"random-{seed}": serialize_log(random_log(seed)) for seed in range(5)}
    _assert_pinned(outputs, GOLDEN_RANDOM)


GOLDEN_SWEEP = {
    "sweep-1-1000": "c1cca94d22b7edfa0dd05a139a4fb7428dc81553f85ca475dd2da006e4d7c51d",
}


def test_sweep_table_pinned():
    table = json.dumps(sweep(1, 1000).to_dict(), sort_keys=True)
    _assert_pinned({"sweep-1-1000": table}, GOLDEN_SWEEP)


# ---------------------------------------------------------------------------
# Library results on a two-model, multi-tag log
# ---------------------------------------------------------------------------

GOLDEN_LIBRARY = {
    "metric_bundle": "788a402f981bcb2003b4690c5785e6accaa707320a131479e5979b9ca301a576",
    "invariance_profile": "8b216938bbcbf23f13b6b08e3bd2fca50d226ef1ffbf559bd74117d87a35bbc5",
    "is_error_detecting": "5a4cc879f7cd4a54b70642779ee9cfa15cfb0bf62b299145ade6ca255a12b3d6",
    "learn_detection": "24c734dd4284d5c0be4187c7b3e802da582336289a1524301173265864ba3a50",
    "exhaustive_oracle": "4a5d8b4d874850a68bfc16d791dfd96a28b429ded8afac8a9d9ad0aebe6c8648",
    "learn_correction": "0a6ddbda3b348130704d4fddab0160ce791ecde276d01ffbea8f10ec61b358e2",
    "checks": "3c053017817484d700e52bec11f2aa54da1adb98313ee4f264323caa1e851be9",
    "evaluate_delta": "9f2e8595c8efab3ebc4ec099707b11329cf319e08fb78c83bc12cb013b6c7b43",
}


def _library_log() -> PredictionLog:
    """Model "m" and model "n" share sample ids, so every count must be
    scoped to one model."""
    log_m, _ = generate(SynthConfig.from_dict(_multi_tag(11, "m")))
    log_n, _ = generate(SynthConfig.from_dict(_multi_tag(12, "n", 1500)))
    return PredictionLog(log_m.records + log_n.records)


def _report_dict(rule, report):
    return {"rule": None if rule is None else rule.to_dict(), "report": report.to_dict()}


def test_library_results_pinned():
    log = _library_log()
    conditions = ("c1", "c2", "c3", "c4", "c9")
    bodies = [ConditionBody.of(c) for c in conditions] + [
        ConditionBody.of("c1", "c2"),
        ConditionBody.of("c2", "c3", "c4"),
    ]
    outputs = {name: [] for name in GOLDEN_LIBRARY}
    for model in ("m", "n", "x"):
        for alpha in ("a", "b", "c"):
            beta = {"a": "b", "b": "c", "c": "a"}[alpha]
            for body in bodies:
                ids = list(body.sorted_ids())
                outputs["metric_bundle"].append(
                    [model, alpha, ids, metric_bundle(log, model, alpha, body).to_dict()]
                )
                outputs["invariance_profile"].append(
                    [model, alpha, ids, invariance_profile(log, model, alpha, body).to_dict()]
                )
                for tag in (None, "d1", "d2", "d3", "default"):
                    outputs["is_error_detecting"].append(
                        [model, alpha, ids, tag,
                         is_error_detecting(log, model, alpha, body, tag).value]
                    )
                checks = [
                    check(log, model, alpha, body)
                    for check in (
                        check_precision_change, check_claim1, check_edns,
                        check_recall_reduction, check_support_bound, check_residual,
                    )
                ]
                checks.append(check_reclassification_limit(log, model, alpha, beta, body))
                outputs["checks"].append([r.to_dict() for r in checks])
            for objective in Objective:
                for epsilon in ("1/20", "3/20", "1/2"):
                    cfg = LearnConfig(objective=objective, epsilon=epsilon)
                    outputs["learn_detection"].append(
                        _report_dict(*learn_detection(log, model, alpha, conditions, cfg))
                    )
                    body, value = exhaustive_oracle(log, model, alpha, conditions, cfg)
                    outputs["exhaustive_oracle"].append(
                        [model, alpha, objective.value, epsilon,
                         None if body is None else sorted(body), format_rational(value)]
                    )
            pairs = [(c, t) for c in conditions for t in ("a", "b", "c") if t != beta]
            outputs["learn_correction"].append(
                _report_dict(*learn_correction(log, model, beta, pairs))
            )
    rules = RuleSet(
        detections=tuple(
            rule
            for model in ("m", "n")
            for rule in (learn_detection(log, model, "a", conditions)[0],)
            if rule is not None
        ),
        corrections=tuple(
            rule
            for model in ("m", "n")
            for rule in (learn_correction(log, model, "b", [("c1", "a"), ("c2", "a")])[0],)
            if rule is not None
        ),
    )
    after, _ = apply_rules(log, rules)
    outputs["evaluate_delta"] = [row.to_dict() for row in evaluate_delta(log, after)]
    _assert_pinned({k: _canonical(v) for k, v in outputs.items()}, GOLDEN_LIBRARY)


# ---------------------------------------------------------------------------
# CLI chain at 2k records
# ---------------------------------------------------------------------------

GOLDEN_CLI = {
    "synth/log.jsonl": "8e9dde2c52da3da0ed50eab3fc444182a8ab418b544270bc815b6ba1d47a4391",
    "synth/bookkeeping.json": "8fe06646b66eac1cb30d316a66613b2f11b8e6f0829263358cf2c98a87d0be30",
    "detect/rules.json": "a5db875235d3595e741d85e4d915dc3f964d8742b0fe649e1be4f6582f2d831c",
    "detect/learn_report.json": "829a3993aa8189cb9b0b76c71be07d06930f1d719416ccd38450e9d51486583f",
    "correct/rules.json": "241351e32586cc587a7a213e36623c7f4d7752b097f3436cdb55cc0a9e23765c",
    "correct/learn_report.json": "32076425a8701d3f37a536b48ef1f6467ab77aed2115e5c9833119b67f601368",
    "rules.json": "3ce03ce088f56f4942b99515ddf2eee5dd7dfc8a8c782266a1e923ade9e95a72",
    "apply/applied.jsonl": "a3693a9f0a4abf18af5c20090a54738fe9c4c2d1250d0369d05b0d47a83518ca",
    "apply/trace.json": "0b122d255df43b052aa36286db8d2bfc493f40d0f80c125a9975ed355fec93d4",
    "eval/deltas.csv": "408c93d8aff4b2187c7144520bc7c7c66dc2eb231f90d2e11488627d6b35156b",
    "verify/reports.json": "e2389b7d43dc74fe494e618ad7a2b3cb82dc8fbe63013b0cc92cd18ad641b3f3",
    "verify/reports.txt": "10657bbdf7783c2f15e0c1d0384de776ac69e18a355547bd08edd9b925bfc158",
}


def _chain_config():
    # Class c is sometimes predicted as b, so b's base precision sits below
    # the (c1, a) pair's and the correction learner admits the pair.
    cfg = _planted(2718)
    cfg["confusion"]["c"] = [
        {"predicted": ["c"], "weight": "3/4"},
        {"predicted": ["b"], "weight": "1/4"},
    ]
    cfg["distributions"] = [
        {"tag": "d1", "record_fraction": "1/2"},
        {"tag": "d2", "record_fraction": "1/2", "confidence_override": {"c2": "1/10"}},
    ]
    return cfg


def test_cli_chain_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(_chain_config()) + "\n", encoding="utf-8")
    log = "synth/log.jsonl"
    assert main(["synth", "--config", "config.json", "--out", "synth"]) == 0
    assert main(["learn-detection", "--log", log, "--model", "m", "--class", "a",
                 "--condition", "c1", "--condition", "c2", "--condition", "c3",
                 "--epsilon", "3/20", "--out", "detect"]) == 0
    assert main(["learn-correction", "--log", log, "--model", "m", "--target-class", "b",
                 "--condition", "c1", "--trigger-class", "a", "--out", "correct"]) == 0
    detect = loads_rules((tmp_path / "detect/rules.json").read_text(encoding="utf-8"))
    correct = loads_rules((tmp_path / "correct/rules.json").read_text(encoding="utf-8"))
    assert detect.detections and correct.corrections
    merged = RuleSet(detect.detections, correct.corrections)
    (tmp_path / "rules.json").write_text(dumps_rules(merged), encoding="utf-8")
    assert main(["apply", "--log", log, "--rules", "rules.json", "--out", "apply"]) == 0
    assert main(["eval", "--before", log, "--after", "apply/applied.jsonl", "--out", "eval"]) == 0
    body = [a for c in detect.detections[0].body.sorted_ids() for a in ("--condition", c)]
    assert main(["verify", "--log", log, "--model", "m", "--class", "a", *body,
                 "--target-class", "b", "--out", "verify"]) == 0
    capsys.readouterr()
    outputs = {name: (tmp_path / name).read_bytes() for name in GOLDEN_CLI}
    _assert_pinned(outputs, GOLDEN_CLI)
