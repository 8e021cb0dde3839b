"""One chain, one answer: the files of ``synth → learn-detection → apply →
eval`` and ``verify`` on the learned body agree with each other.

Each number is computed on its own path (the learner's final metrics, the
trace of the rules applied, the measured deltas between the two logs and
the theorem checks), so the test compares them as the exact rational text
the files hold, not as recomputed values.
"""

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from errata import SynthConfig
from errata.cli import EXIT_ALL_SKIPPED, EXIT_OK, main
from errata.rational import format_rational
from errata.synth import _class_precision
from test_cli import read_json
from test_synth import synth_configs_st

UNDEFINED = "UNDEFINED"
SUMMARY = re.compile(
    r"apply: (\d+) erasures, (\d+) additions, (\d+) conflicts, (\d+) mutually-canceling relabel\(s\)\n")


def _run(*argv, codes=(EXIT_OK,)) -> str:
    """``errata argv`` in-process, which must exit with one of ``codes``; its stdout."""
    with redirect_stdout(io.StringIO()) as stdout:
        code = main(list(argv))
    assert code in codes, (argv, code)
    return stdout.getvalue()


def _rooms(obj) -> list[Fraction]:
    """Per planted condition of a config, the largest support it may take:
    the lesser of its class's precision and error rate (0 for a class
    never predicted)."""
    cfg = SynthConfig.from_dict(obj)
    precisions = (_class_precision(cfg, pc["target_class"]) for pc in obj["planted_conditions"])
    return [Fraction(0) if p is None else min(p, 1 - p) for p in precisions]


@st.composite
def chains_st(draw):
    """A synth config, the target class of one of its planted conditions as
    α, and a recall budget for the learner. α has both correct and wrong
    predictions. Half the time the condition marks only errors, on half of
    α's error rate, so that the learner usually takes it."""
    configs = synth_configs_st(max_records=200, min_planted=1, max_planted=3)
    obj = draw(configs.filter(lambda obj: any(_rooms(obj))))
    planted, rooms = obj["planted_conditions"], _rooms(obj)
    j = draw(st.sampled_from([i for i, room in enumerate(rooms) if room]))
    if draw(st.booleans()):
        support = rooms[j] / 2
        planted[j] = {**planted[j], "target_support": f"{support.numerator}/{support.denominator}",
                      "target_confidence": "1"}
    return obj, planted[j]["target_class"], draw(st.sampled_from(("1/10", "1/2", "1/1")))


@given(chain=chains_st())
@settings(max_examples=40, deadline=None)
def test_chain_files_agree(tmp_path_factory, chain):
    obj, alpha, epsilon = chain
    out = tmp_path_factory.mktemp("chain")
    config, log, rules, applied = (out / "config.json", out / "synth" / "log.jsonl",
                                   out / "detect" / "rules.json", out / "apply" / "applied.jsonl")
    config.write_text(json.dumps(obj), encoding="utf-8")
    model = obj["model_id"]
    candidates = [a for pc in obj["planted_conditions"] for a in ("--condition", pc["condition_id"])]

    _run("synth", "--config", str(config), "--out", str(out / "synth"))
    _run("learn-detection", "--log", str(log), "--model", model, "--class", alpha, *candidates,
         "--epsilon", epsilon, "--out", str(out / "detect"))
    summary = _run("apply", "--log", str(log), "--rules", str(rules), "--out", str(out / "apply"))
    _run("eval", "--before", str(log), "--after", str(applied), "--out", str(out / "eval"))

    report = read_json(out / "detect" / "learn_report.json")
    entries = read_json(out / "apply" / "trace.json")["entries"]
    header, *lines = (out / "eval" / "deltas.csv").read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    deltas = {(row["model_id"], row["label"]): row for row in rows}

    # apply's summary counts what trace.json holds, one record at a time.
    recount = (sum(len(e.get("erased", ())) for e in entries), sum(len(e.get("added", ())) for e in entries),
               sum(1 for e in entries if "conflict" in e),
               sum(len(e.get("mutually_canceling", ())) for e in entries))
    assert tuple(map(int, SUMMARY.fullmatch(summary).groups())) == recount

    # Only the learned rule's (model, α) row may move.
    for key, row in deltas.items():
        if key == (model, alpha) and report["final_metrics"] is not None:
            continue
        for metric in ("precision", "recall", "f1"):
            before = row[f"{metric}_before"]
            assert row[f"{metric}_after"] == before, (key, metric)
            assert row[f"{metric}_delta"] == (UNDEFINED if before == UNDEFINED else "0/1"), (key, metric)

    metrics = report["final_metrics"]
    if metrics is None:  # no rule: nothing erased
        assert report["outcome"] == "NONE" and recount[0] == 0
        return
    # The learner's before and after metrics are eval's measured ones, and
    # its support numerator counts the erasures the trace records.
    row = deltas[model, alpha]
    assert (row["precision_before"], row["precision_after"], row["recall_before"], row["recall_after"]) == tuple(
        metrics[name]["value"] for name in ("precision", "rule_precision", "recall", "rule_recall"))
    assert metrics["support"]["numerator"] == recount[0]

    # T1's right side is the measured precision change, and T3's left side
    # the measured recall loss.
    body = [a for cid in read_json(rules)["detections"][0]["conditions"] for a in ("--condition", cid)]
    _run("verify", "--log", str(log), "--model", model, "--class", alpha, *body, "--out", str(out / "verify"),
         codes=(EXIT_OK, EXIT_ALL_SKIPPED))
    reports = {r["theorem_id"]: r for r in read_json(out / "verify" / "reports.json")}
    t1, t3 = reports["T1_PRECISION_CHANGE"], reports["T3_RECALL_REDUCTION"]
    if t1["verdict"] == "HOLDS":
        assert t1["intermediates"]["rhs"] == row["precision_delta"]
    else:
        assert row["precision_delta"] == UNDEFINED
    if t3["verdict"] == "HOLDS":
        loss = Fraction(row["recall_before"]) - Fraction(row["recall_after"])
        assert t3["intermediates"]["lhs"] == format_rational(loss)
    else:
        assert row["recall_delta"] == UNDEFINED
