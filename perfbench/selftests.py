"""Self-tests of the benchmark (outside the tier-1 suite).

Run from the repository root:

    python3 -m pytest perfbench/selftests.py -q

They check that the independent recount agrees with errata on the README
fixture and on small synthetic logs, that a corrupted output is counted
as a failed op, and that every workload completes a short op, traced and
untraced.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import errata  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from cli_pipeline import CliPipeline  # noqa: E402
from library_audit import LABELS, LibraryAudit, synth_config  # noqa: E402
from spans import Tracer  # noqa: E402
from theorem_sweep import TheoremSweep  # noqa: E402

# The README's five-record fixture, with its hand-counted values for class
# a and body {c1}.
LOG_A_TEXT = """\
{"sample_id":"r1","model_id":"m","predicted":["a"],"ground_truth":["a"],"conditions":[]}
{"sample_id":"r2","model_id":"m","predicted":["a"],"ground_truth":["b"],"conditions":["c1"]}
{"sample_id":"r3","model_id":"m","predicted":["a"],"ground_truth":["a"],"conditions":["c1"]}
{"sample_id":"r4","model_id":"m","predicted":["b"],"ground_truth":["b"],"conditions":[]}
{"sample_id":"r5","model_id":"m","predicted":[],"ground_truth":["a"],"conditions":[]}
"""


def _errata_bundle(b) -> dict:
    out = {
        name: (getattr(b, name).numerator, getattr(b, name).denominator)
        for name in ("precision", "recall", "rule_precision", "rule_recall", "support", "confidence")
    }
    out["k_factor"] = b.k_factor
    out["residual"] = b.residual
    return out


def test_reference_matches_readme_fixture():
    records = ref.parse_records(LOG_A_TEXT.splitlines())
    want = ref.bundle(ref.ClassCounter(records, "m", "a").counts({"c1"}))
    assert want["precision"] == (2, 3)
    assert want["recall"] == (2, 3)
    assert want["support"] == (2, 3)
    assert want["confidence"] == (1, 2)
    assert want["rule_precision"] == (1, 1)
    assert want["rule_recall"] == (1, 3)
    got = errata.metric_bundle(errata.load_log(LOG_A_TEXT), "m", "a", errata.ConditionBody.of("c1"))
    assert _errata_bundle(got) == want


def test_reference_matches_errata_on_small_synth_log():
    log, _ = errata.generate(errata.SynthConfig.from_dict(synth_config(5, 2000)))
    records = ref.parse_records(errata.serialize_log(log).splitlines())
    conditions = sorted(log.condition_universe)
    for label in LABELS:
        counter = ref.ClassCounter(records, "m", label)
        for cid in conditions:
            body = errata.ConditionBody.of(cid)
            assert _errata_bundle(errata.metric_bundle(log, "m", label, body)) == ref.bundle(counter.counts({cid}))
            for row in errata.invariance_profile(log, "m", label, body).rows:
                c = counter.counts({cid}, row.distribution)
                assert (row.confidence.numerator, row.confidence.denominator) == (
                    c.pred_body - c.pred_body_gt,
                    c.pred_body,
                )
                assert row.verdict.value == ref.error_detecting(c)
    rule, _ = errata.learn_detection(log, "m", "a", conditions, errata.LearnConfig(epsilon=Fraction(3, 20)))
    correction, _ = errata.learn_correction(log, "m", "b", [("c1", "a"), ("c2", "a")])
    rules = errata.RuleSet(detections=(rule,), corrections=(correction,) if correction else ())
    applied, trace = errata.apply_rules(log, rules)
    after, erasures, additions, conflicts = ref.apply_rules(records, json.loads(errata.dumps_rules(rules)))
    assert [r.predicted for r in applied] == after
    assert erasures == sum(len(e.erased) for e in trace.entries)
    assert additions == sum(len(e.added) for e in trace.entries)
    assert conflicts == sum(1 for e in trace.entries if e.conflict)
    cells = ref.delta_cells(records, after)
    rows = errata.evaluate_delta(log, applied)
    assert {(r.model_id, r.label) for r in rows} == set(cells)
    for r in rows:
        got = (r.precision_before.value, r.precision_after.value, r.recall_before.value, r.recall_after.value)
        assert got == cells[(r.model_id, r.label)]


@pytest.fixture
def workdir(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    return path


def _one_op(workload, tracer=None):
    try:
        workload.setup(tracer)
        return workload.run_op(0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()


@pytest.mark.parametrize(
    "make",
    [
        lambda d: CliPipeline(1, d, ROOT / "src", n_records=2000),
        lambda d: LibraryAudit(1, d, ROOT / "src", n_records=2000),
        lambda d: TheoremSweep(1, d, ROOT / "src", trials=20),
    ],
    ids=["cli-pipeline", "library-audit", "theorem-sweep"],
)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workload_completes_a_short_op(make, traced, workdir):
    tracer = Tracer() if traced else None
    op = _one_op(make(workdir), tracer)
    assert op.ok, op.errors
    assert op.wall_s > 0 and op.items > 0
    if traced:
        assert tracer.spans, "a traced op records spans"
        metrics = run.per_layer(tracer, {0: op}, [op], 0.1)
        assert set(metrics) == {name for name, _ in run.PER_LAYER}
        assert metrics["trace.accounted_s"] > 0


def test_corrupted_cli_output_is_a_failed_op(workdir, monkeypatch):
    original = CliPipeline._check

    def corrupt_then_check(self, opdir):
        deltas = opdir / "eval" / "deltas.csv"
        lines = deltas.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[2] = "0/1" if cells[2] != "0/1" else "1/1"  # precision_before of the first row
        lines[1] = ",".join(cells)
        deltas.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return original(self, opdir)

    monkeypatch.setattr(CliPipeline, "_check", corrupt_then_check)
    op = _one_op(CliPipeline(1, workdir, ROOT / "src", n_records=2000))
    assert not op.ok
    assert any("eval" in e for e in op.errors)


def test_corrupted_applied_log_is_a_failed_op(workdir, monkeypatch):
    original = CliPipeline._check

    def corrupt_then_check(self, opdir):
        applied = opdir / "apply" / "applied.jsonl"
        lines = applied.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["predicted"] = sorted(set(first["predicted"]) ^ {"c"})
        lines[0] = json.dumps(first, separators=(",", ":"))
        applied.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return original(self, opdir)

    monkeypatch.setattr(CliPipeline, "_check", corrupt_then_check)
    op = _one_op(CliPipeline(1, workdir, ROOT / "src", n_records=2000))
    assert any("apply" in e for e in op.errors)


def test_wrong_library_result_is_a_failed_op(workdir, monkeypatch):
    import library_audit

    original = library_audit.audit

    def tampered(*args):
        out = original(*args)
        cid = next(iter(out["bundles"]))
        out["bundles"][cid] = dataclasses.replace(out["bundles"][cid], residual=Fraction(-1))
        return out

    monkeypatch.setattr(library_audit, "audit", tampered)
    op = _one_op(LibraryAudit(1, workdir, ROOT / "src", n_records=2000))
    assert any("metric bundle" in e for e in op.errors)


def test_failed_ops_reach_the_result_line(monkeypatch, capsys):
    from common import OpResult

    monkeypatch.setattr(TheoremSweep, "run_op", lambda self, index, tracer=None, op_id=None: OpResult(0.01, 1, ["wrong"]))
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "theorem-sweep", "--seed", "1", "--seconds", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_each_op_is_rescaled_by_its_own_probes():
    from common import PROBE_REF_S, OpResult

    calm = OpResult(1.0, 10, probes=[PROBE_REF_S])
    busy = OpResult(2.0, 10, probes=[2 * PROBE_REF_S, 2 * PROBE_REF_S])
    metrics = run.end_to_end(0.5, [calm, busy, busy], 42.0)
    assert metrics["wall_p50_ref_s"] == pytest.approx(1.0)
    assert metrics["items_per_ref_s"] == pytest.approx(10.0)
    assert metrics["setup_s"] == 0.5 and metrics["peak_rss_mb"] == 42.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
