import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import CHUNK_CASES, K, LOG_A_TEXT, rows_log
from errata import cli
from errata.cli import _BUILTIN_HASH_MAX, _HASH_BLOCK, _Run, _sha256, main, report_render
from errata import (
    ConditionBody,
    DetectionRule,
    InputError,
    LearnConfig,
    RuleSet,
    SynthConfig,
    TheoremId,
    apply_rules,
    check,
    check_precision_change,
    dumps_rules,
    generate,
    load_log,
    serialize_log,
)
from errata.logs import _log_chunks
from errata.synth import _INT_DRAWS
from errata.rational import parse_rational

SYNTH_CONFIG = {
    "seed": 11,
    "n_records": 500,
    "model_id": "m",
    "labels": ["a", "b"],
    "class_priors": {"a": "1/2", "b": "1/2"},
    "confusion": {
        "a": [{"predicted": ["a"], "weight": 1}],
        "b": [{"predicted": ["a"], "weight": "1/2"}, {"predicted": ["b"], "weight": "1/2"}],
    },
    "planted_conditions": [
        {"condition_id": "c1", "target_class": "a", "target_support": "1/4", "target_confidence": "9/10"}
    ],
    "distributions": [],
}


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(LOG_A_TEXT, encoding="utf-8")
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_log_a(tmp_path, log_file, capsys):
    out = tmp_path / "out"
    code = main(
        ["verify", "--log", str(log_file), "--model", "m", "--class", "a",
         "--condition", "c1", "--out", str(out)]
    )
    assert code == 0
    reports = read_json(out / "reports.json")
    t1 = next(r for r in reports if r["theorem_id"] == "T1_PRECISION_CHANGE")
    assert t1["verdict"] == "HOLDS"
    assert t1["intermediates"]["lhs"] == "1/3"
    assert t1["intermediates"]["rhs"] == "1/3"
    assert (out / "manifest.json").exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "verify"
    assert str(log_file) in manifest["inputs"]
    assert "reports.json" in manifest["outputs"]
    assert "T1_PRECISION_CHANGE" in capsys.readouterr().out


def test_verify_with_correction_class(tmp_path, log_file):
    out = tmp_path / "out"
    code = main(
        ["verify", "--log", str(log_file), "--model", "m", "--class", "a",
         "--condition", "c1", "--target-class", "b", "--out", str(out)]
    )
    assert code == 0
    reports = read_json(out / "reports.json")
    assert any(r["theorem_id"] == "T4_RECLASS_LIMIT" for r in reports)


def test_verify_all_skipped_exit_3(tmp_path, log_file):
    out = tmp_path / "out"
    code = main(
        ["verify", "--log", str(log_file), "--model", "m", "--class", "zz",
         "--condition", "c1", "--out", str(out)]
    )
    assert code == 3
    reports = read_json(out / "reports.json")
    assert all(r["verdict"] == "SKIPPED" for r in reports)


def test_verify_malformed_log_exit_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("nonsense\n", encoding="utf-8")
    code = main(
        ["verify", "--log", str(bad), "--model", "m", "--class", "a",
         "--condition", "c1", "--out", str(tmp_path / "out")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# apply / eval
# ---------------------------------------------------------------------------

def _rules_file(tmp_path, conditions=("c1",)):
    rules = {
        "detections": [
            {"model_id": "m", "target_class": "a", "conditions": list(conditions)}
        ],
        "corrections": [],
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules, indent=2) + "\n", encoding="utf-8")
    return path


def test_apply_and_eval(tmp_path, log_file):
    rules = _rules_file(tmp_path)
    out = tmp_path / "applied"
    assert main(["apply", "--log", str(log_file), "--rules", str(rules), "--out", str(out)]) == 0
    applied = load_log((out / "applied.jsonl").read_text(encoding="utf-8"))
    assert sum(1 for r in applied if "a" in r.predicted) == 1
    trace = read_json(out / "trace.json")
    assert {e["sample_id"] for e in trace["entries"]} == {"r2", "r3"}

    out2 = tmp_path / "deltas"
    assert main(
        ["eval", "--before", str(log_file), "--after", str(out / "applied.jsonl"),
         "--out", str(out2)]
    ) == 0
    csv_text = (out2 / "deltas.csv").read_text(encoding="utf-8")
    row = next(line for line in csv_text.splitlines() if line.startswith("m,a,"))
    assert ",1/3," in row  # precision delta +1/3
    assert ",-1/3," in row  # recall delta -1/3


def test_apply_unknown_condition_exit_2(tmp_path, log_file, capsys):
    rules = _rules_file(tmp_path, conditions=("c1", "ghost"))
    out = tmp_path / "applied"
    code = main(["apply", "--log", str(log_file), "--rules", str(rules), "--out", str(out)])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_eval_key_mismatch_exit_2(tmp_path, log_file):
    other = tmp_path / "other.jsonl"
    other.write_text(
        '{"sample_id":"zz","model_id":"m","predicted":[],"ground_truth":[],"conditions":[]}\n',
        encoding="utf-8",
    )
    code = main(["eval", "--before", str(log_file), "--after", str(other), "--out", str(tmp_path / "o")])
    assert code == 2


# ---------------------------------------------------------------------------
# synth / learn
# ---------------------------------------------------------------------------

def test_synth_learn_pipeline(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SYNTH_CONFIG, indent=2) + "\n", encoding="utf-8")
    synth_out = tmp_path / "synth"
    assert main(["synth", "--config", str(config), "--out", str(synth_out)]) == 0
    assert (synth_out / "log.jsonl").exists()
    assert (synth_out / "bookkeeping.json").exists()
    manifest = read_json(synth_out / "manifest.json")
    assert manifest["seeds"] == [11]

    learn_out = tmp_path / "learn"
    code = main(
        ["learn-detection", "--log", str(synth_out / "log.jsonl"), "--model", "m",
         "--class", "a", "--condition", "c1", "--objective", "precision-gain",
         "--epsilon", "1/10", "--out", str(learn_out)]
    )
    assert code == 0
    rules = read_json(learn_out / "rules.json")
    assert rules["detections"][0]["conditions"] == ["c1"]
    report = read_json(learn_out / "learn_report.json")
    assert report["outcome"] == "RULE"
    assert report["guards"][0]["improves_precision"] is True


def test_learn_correction_cli(tmp_path):
    lines = [
        {"sample_id": "b1", "model_id": "m", "predicted": ["b"], "ground_truth": ["b"], "conditions": []},
        {"sample_id": "b2", "model_id": "m", "predicted": ["b"], "ground_truth": [], "conditions": []},
        {"sample_id": "p1", "model_id": "m", "predicted": ["a"], "ground_truth": ["b"], "conditions": ["c1"]},
        {"sample_id": "p2", "model_id": "m", "predicted": ["a"], "ground_truth": ["b"], "conditions": ["c1"]},
    ]
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["learn-correction", "--log", str(log), "--model", "m", "--target-class", "b",
         "--condition", "c1", "--trigger-class", "a", "--out", str(out)]
    )
    assert code == 0
    rules = read_json(out / "rules.json")
    assert rules["corrections"][0]["pairs"] == [{"condition": "c1", "trigger_class": "a"}]
    # The correction learner has no objective or recall budget to report.
    assert {"objective", "epsilon"}.isdisjoint(read_json(out / "learn_report.json"))


@pytest.mark.parametrize("flag", [["--epsilon", "1/10"], ["--objective", "f1"]])
def test_learn_correction_rejects_detection_flags(tmp_path, log_file, flag):
    # learn-correction has no recall budget or objective to set.
    code = main(
        ["learn-correction", "--log", str(log_file), "--model", "m", "--target-class", "b",
         "--condition", "c1", "--trigger-class", "a", *flag, "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_learn_correction_pair_mismatch_exit_2(tmp_path, log_file):
    code = main(
        ["learn-correction", "--log", str(log_file), "--model", "m", "--target-class", "b",
         "--condition", "c1", "--condition", "c1", "--trigger-class", "a",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# Chunked outputs and hashed inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, n_shapes", CHUNK_CASES)
def test_apply_writes_the_joined_chunks(tmp_path, n, n_shapes):
    log = rows_log(n, n_shapes)
    rules = RuleSet((DetectionRule("m", "a", ConditionBody.of("c1")),) if n else ())
    log_path, rules_path, out = tmp_path / "log.jsonl", tmp_path / "rules.json", tmp_path / "out"
    log_path.write_text(serialize_log(log), encoding="utf-8")
    rules_path.write_text(dumps_rules(rules), encoding="utf-8")
    assert main(["apply", "--log", str(log_path), "--rules", str(rules_path), "--out", str(out)]) == 0
    applied, trace = apply_rules(log, rules)
    assert (out / "applied.jsonl").read_bytes() == serialize_log(applied).encode()
    assert (out / "trace.json").read_bytes() == (trace.to_json() + "\n").encode()


@pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 2 * K + 1])
def test_synth_writes_the_joined_chunks(tmp_path, n):
    config = {**SYNTH_CONFIG, "n_records": n}
    argv = _synth_file(tmp_path, json.dumps(config)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    log, _ = generate(SynthConfig.from_dict(config))
    assert (tmp_path / "out" / "log.jsonl").read_bytes() == serialize_log(log).encode()


def _data(size):
    data = bytes(range(256)) * (size // 256) + b"\r\n\xff"[: size % 256] + bytes(max(0, size % 256 - 3))
    assert len(data) == size
    return data


@pytest.mark.parametrize("size", [0, 1, _HASH_BLOCK - 1, _HASH_BLOCK, _HASH_BLOCK + 1,
                                  2 * _HASH_BLOCK - 1, 2 * _HASH_BLOCK, 2 * _HASH_BLOCK + 1,
                                  2 * _HASH_BLOCK + 7,
                                  _BUILTIN_HASH_MAX - 1, _BUILTIN_HASH_MAX, _BUILTIN_HASH_MAX + 1])
def test_manifest_digests_hash_the_whole_input(tmp_path, size):
    data = _data(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    run = _Run("test", str(tmp_path / "out"), [str(path)], None, None)
    run.finish()
    digests = read_json(tmp_path / "out" / "manifest.json")["inputs"]
    assert digests == {str(path): "sha256:" + hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("sizes", [(_BUILTIN_HASH_MAX // 2, _BUILTIN_HASH_MAX // 2),
                                   (_BUILTIN_HASH_MAX // 2, _BUILTIN_HASH_MAX // 2 + 1)])
def test_digest_module_follows_the_inputs_total(tmp_path, monkeypatch, sizes):
    # Two inputs of _BUILTIN_HASH_MAX bytes in all are hashed by the
    # built-in module, one byte more by hashlib's.
    totals = []
    monkeypatch.setattr(cli, "_sha256", lambda total: totals.append(total) or _sha256(total))
    paths = [tmp_path / f"input{i}.bin" for i in range(len(sizes))]
    for path, size in zip(paths, sizes):
        path.write_bytes(_data(size))
    assert cli._digests([str(p) for p in paths]) == {
        str(p): "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert totals == [sum(sizes)]
    assert (_sha256(sum(sizes)) is hashlib.sha256) == (sum(sizes) > _BUILTIN_HASH_MAX)


def test_small_inputs_hash_with_this_pythons_builtin_module():
    # CPython 3.12 merged _sha256 into _sha2. A module renamed again must
    # fail here, not fall back to OpenSSL unseen.
    module = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert _sha256(0) is _sha256(_BUILTIN_HASH_MAX) is module.sha256
    assert _sha256(_BUILTIN_HASH_MAX + 1) is hashlib.sha256


@pytest.mark.parametrize("size", [0, 1, 2 * _HASH_BLOCK, _BUILTIN_HASH_MAX])
def test_digests_fall_back_to_hashlib_without_a_builtin_module(tmp_path, monkeypatch, size):
    # A None entry in sys.modules makes its import raise ImportError.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert _sha256(size) is hashlib.sha256
    data = _data(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert cli._digests([str(path)]) == {str(path): "sha256:" + hashlib.sha256(data).hexdigest()}


def test_an_input_overwritten_by_an_output_keeps_its_digest(tmp_path, log_file):
    # apply writes applied.jsonl over its own --log: the manifest records
    # the bytes that were read, not the file left behind.
    out = tmp_path / "out"
    out.mkdir()
    log = out / "applied.jsonl"
    log.write_bytes(log_file.read_bytes())
    rules = _rules_file(tmp_path)
    assert main(["apply", "--log", str(log), "--rules", str(rules), "--out", str(out)]) == 0
    assert log.read_bytes() != log_file.read_bytes()
    assert read_json(out / "manifest.json")["inputs"] == {
        str(log): "sha256:" + hashlib.sha256(log_file.read_bytes()).hexdigest(),
        str(rules): "sha256:" + hashlib.sha256(rules.read_bytes()).hexdigest(),
    }


def test_a_log_is_written_without_holding_its_text(tmp_path):
    # 16 chunks: the writer holds one chunk (and its encoding) at a time.
    log = rows_log(16 * K)
    size = len(serialize_log(log))
    run = _Run("test", str(tmp_path / "out"), [], None, None)
    tracemalloc.start()
    try:
        run.write("log.jsonl", _log_chunks(log))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "log.jsonl").stat().st_size == size
    assert peak < size / 4, (peak, size)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--seed", "5", "--trials", "30", "--out", str(out)])
    assert code == 0
    data = read_json(out / "sweep.json")
    assert data["violations"] == 0
    assert data["trials"] == 30
    assert (out / "sweep.txt").exists()


def test_sweep_cli_violation_writes_replay_and_exits_1(tmp_path, monkeypatch):
    # No honest input can produce a VIOLATED verdict, so fabricate one to
    # exercise the replay path.
    import errata.theorems
    from errata import TheoremId, TheoremReport, TheoremVerdict
    from errata.theorems import SweepResult, SweepViolation

    # Two pairs of one trial found VIOLATED by one theorem: their replay
    # reports used to share one file name, and the manifest listed it twice.
    violations = tuple(
        SweepViolation(3, 77, TheoremId.T2_EDNS, alpha, cid, None, TheoremReport(
            theorem_id=TheoremId.T2_EDNS,
            verdict=TheoremVerdict.VIOLATED,
            model_id="m",
            target_class=alpha,
            condition_ids=(cid,),
            intermediates={},
        ), '{"sample_id":"r1"}\n')
        for alpha, cid in (("a", "c1"), ("b", "c2"))
    )
    counts = {tid: {v: 0 for v in TheoremVerdict} for tid in TheoremId}
    counts[TheoremId.T2_EDNS][TheoremVerdict.VIOLATED] = 2
    fake = SweepResult(5, 30, 30, 4, 3, counts, violations)
    monkeypatch.setattr(errata.theorems, "sweep", lambda seed, trials: fake)

    out = tmp_path / "sweep"
    code = main(["sweep", "--seed", "5", "--trials", "30", "--out", str(out)])
    assert code == 1
    assert (out / "replay_3.jsonl").read_text(encoding="utf-8") == '{"sample_id":"r1"}\n'
    for alpha, cid in (("a", "c1"), ("b", "c2")):
        replay = read_json(out / f"replay_3_T2_EDNS_{alpha}_{cid}.json")
        assert (replay["trial_seed"], replay["alpha"], replay["condition_id"]) == (77, alpha, cid)
    outputs = read_json(out / "manifest.json")["outputs"]
    assert outputs == ["replay_3.jsonl", "replay_3_T2_EDNS_a_c1.json", "replay_3_T2_EDNS_b_c2.json",
                       "sweep.json", "sweep.txt"]
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_report_render_empty_is_header_only():
    text = report_render([])
    assert text.splitlines()[0] == "theorem reports"
    assert len(text.splitlines()) == 2


def test_report_render_mixed_verdicts(log_a):
    reports = [
        check_precision_change(log_a, "m", "a", ConditionBody.of("c1")),
        check(TheoremId.EQ7_RESIDUAL, log_a, "m", "zz", ConditionBody.of("c1")),
    ]
    text = report_render(reports)
    assert "T1_PRECISION_CHANGE — HOLDS" in text
    assert "EQ7_RESIDUAL — SKIPPED" in text
    assert "skipped: class never predicted" in text
    assert "2/3" in text and "0.666666666667" in text


def _src_env():
    """Environment for a child interpreter that imports errata from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


_FRESH = """
import json, sys
watched, args = json.loads(sys.argv[1])
if isinstance(args, str):
    exec(args)
    code = 0
else:
    from errata.cli import main
    code = main(args)
print(json.dumps([code, sorted(m for m in watched if m in sys.modules)]))
"""


def _fresh_run(args, watched=(), cwd=None):
    """Run ``errata <args>`` (a list), or Python source (a str), in a fresh
    interpreter, as a CLI child runs: its exit code, the ``watched`` modules
    it has loaded when it ends, and its stderr. A run that blocks fails."""
    result = subprocess.run([sys.executable, "-c", _FRESH, json.dumps([list(watched), args])],
                            capture_output=True, text=True, env=_src_env(), cwd=cwd,
                            timeout=60, check=True)
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    return code, loaded, result.stderr


def _buffered_env(unbuffered=False):
    """``_src_env`` with stdout block-buffered, as on a terminal-less run,
    or unbuffered (``PYTHONUNBUFFERED=1``)."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# Starts errata as a tool that saves data at exit (coverage, for one) does.
_RUNPY_WITH_ATEXIT = """
import atexit, runpy, sys
atexit.register(print, "atexit marker")
sys.argv = ["errata", *sys.argv[1:]]
runpy.run_module("errata", run_name="__main__")
"""


@pytest.mark.parametrize("case, code, via_runpy", [
    pytest.param("ok", 0, False, id="ok"),
    pytest.param("missing-log", 2, False, id="missing-log"),
    pytest.param("all-skipped", 3, False, id="all-skipped"),
    pytest.param("ok", 0, True, id="runpy-atexit"),
])
def test_module_entrypoint_smoke(tmp_path, log_file, capsys, case, code, via_runpy):
    # `python -m errata` ends with os._exit, after the exit handlers and a
    # flush: its stdout (block-buffered here, so a missing flush would
    # show), stderr, exit code and files equal an in-process main's, and
    # an exit handler's output still comes last.
    def argv(out):
        log = tmp_path / "missing.jsonl" if case == "missing-log" else log_file
        label = "zz" if case == "all-skipped" else "a"
        return ["verify", "--log", str(log), "--model", "m", "--class", label,
                "--condition", "c1", "--out", str(out)]

    assert main(argv(tmp_path / "main")) == code
    expected = capsys.readouterr()
    launch = ["-c", _RUNPY_WITH_ATEXIT] if via_runpy else ["-m", "errata"]
    child = subprocess.run([sys.executable, *launch, *argv(tmp_path / "child")],
                           capture_output=True, text=True, env=_buffered_env(), timeout=60)
    marker = "atexit marker\n" if via_runpy else ""
    assert (child.returncode, child.stdout, child.stderr) == (code, expected.out + marker, expected.err)
    assert _files(tmp_path / "child") == _files(tmp_path / "main")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["verify", "learn-detection"])
def test_closed_stdout_exits_120(tmp_path, log_file, command, unbuffered):
    # A reader that went away is not bad input (exit 2), and a lost output
    # is not success: unbuffered, the print in main fails; buffered, the
    # final flush does. Both exit 120, CPython's status for a failed flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "errata", command, "--log", str(log_file), "--model", "m",
             "--class", "a", "--condition", "c1", "--out", str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_buffered_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 120, child.stderr


def test_numpy_is_imported_only_to_draw():
    # generate draws a log of at most _INT_DRAWS uniforms on Python ints and
    # a larger one on numpy arrays; only that draw, random_log and sweep
    # load numpy. Each size runs in a fresh interpreter. With no planted
    # conditions and no distributions a record takes two uniforms.
    loaded = {}
    for n_records in (1, _INT_DRAWS // 2, _INT_DRAWS // 2 + 1):
        config = {"seed": 1, "n_records": n_records, "model_id": "m", "labels": ["a"],
                  "class_priors": {"a": 1}, "confusion": {"a": [{"predicted": ["a"], "weight": 1}]}}
        code, loaded[n_records], _ = _fresh_run(f"""
import errata, errata.cli
assert "numpy" not in sys.modules
errata.generate(errata.SynthConfig.from_dict({config!r}))
""", ["numpy"])
        assert code == 0
    assert loaded == {1: [], _INT_DRAWS // 2: [], _INT_DRAWS // 2 + 1: ["numpy"]}


def test_apply_and_eval_load_only_what_they_run(tmp_path, log_file):
    # apply and eval read logs and rules only: learning, synth, theorems
    # and numpy stay unloaded in their process.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"detections": [
        {"model_id": "m", "target_class": "a", "conditions": ["c1"]}
    ]}), encoding="utf-8")
    watched = ("errata.learning", "errata.synth", "errata.theorems", "numpy")
    runs = [["apply", "--log", str(log_file), "--rules", str(rules), "--out", str(tmp_path / "applied")],
            ["eval", "--before", str(log_file), "--after", str(tmp_path / "applied" / "applied.jsonl"),
             "--out", str(tmp_path / "eval")]]
    assert [_fresh_run(args, watched)[:2] for args in runs] == [(0, []), (0, [])]


# The six commands of the batch chain, each with its arguments but --out,
# run from one directory in this order.
_CHAIN = (
    ("synth", ["--config", "config.json"]),
    ("learn-detection", ["--log", "synth/log.jsonl", "--model", "m", "--class", "a",
                         "--condition", "c1", "--epsilon", "1/5"]),
    ("learn-correction", ["--log", "synth/log.jsonl", "--model", "m", "--target-class", "b",
                          "--condition", "c1", "--trigger-class", "a"]),
    ("apply", ["--log", "synth/log.jsonl", "--rules", "learn-detection/rules.json"]),
    ("eval", ["--before", "synth/log.jsonl", "--after", "apply/applied.jsonl"]),
    ("verify", ["--log", "synth/log.jsonl", "--model", "m", "--class", "a",
                "--condition", "c1", "--target-class", "b"]),
)


def test_chain_commands_start_without_dataclasses_or_numpy(tmp_path):
    # Each command runs in a fresh interpreter, as a CLI child does. Only
    # learn-detection builds a MetricBundle, the one dataclass, so only it
    # loads dataclasses, and with it inspect; only synth draws, so only it
    # loads errata.draws, and its log is small enough to draw on Python
    # ints, so no command loads numpy.
    (tmp_path / "config.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    watched = ("dataclasses", "inspect", "numpy", "errata.draws")
    loaded = {}
    for command, args in _CHAIN:
        exit_code, loaded[command], err = _fresh_run([command, *args, "--out", command], watched, tmp_path)
        assert exit_code == 0, (command, err)
    assert read_json(tmp_path / "learn-detection" / "rules.json")["detections"]
    assert [c for c, names in loaded.items() if "dataclasses" in names] == ["learn-detection"]
    assert [c for c, names in loaded.items() if "numpy" in names] == []
    assert [c for c, names in loaded.items() if "errata.draws" in names] == ["synth"]
    assert [c for c, names in loaded.items() if "inspect" in names] == ["learn-detection"]


def test_no_errata_process_imports_numpy_random(tmp_path):
    # errata computes numpy's PCG64 streams itself (errata.draws), so the
    # processes that draw on arrays load numpy but neither numpy.random nor
    # secrets, which numpy.random imports, and synth on a small config
    # loads no numpy at all. numpy before 2.0 loads numpy.random with numpy
    # itself, so each process that loads numpy is held to what
    # "import numpy" loads.
    (tmp_path / "config.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    # Three uniforms a record: just over _INT_DRAWS, so drawn on arrays.
    big = dict(SYNTH_CONFIG, n_records=_INT_DRAWS // 3 + 1)
    (tmp_path / "big.json").write_text(json.dumps(big), encoding="utf-8")
    runs = {"numpy": "import numpy", "random_log": "import errata; errata.random_log(7)",
            "synth": ["synth", "--config", "config.json", "--out", "synth"],
            "big synth": ["synth", "--config", "big.json", "--out", "big"],
            "sweep": ["sweep", "--seed", "1", "--trials", "20", "--out", "sweep"]}
    loaded = {}
    for name, args in runs.items():
        code, loaded[name], err = _fresh_run(args, ("numpy", "numpy.random", "secrets"), tmp_path)
        assert code == 0, (name, err)
    plain = loaded.pop("numpy")
    if int(np.__version__.split(".")[0]) >= 2:
        assert plain == ["numpy"]
    assert loaded == {"random_log": plain, "synth": [], "big synth": plain, "sweep": plain}


def _benchmark_config(monkeypatch, seed):
    """The synth config of the benchmark's 10k-record CLI chain."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("cli_pipeline").synth_config(seed, 10_000)


def test_only_inputs_over_the_builtin_bound_load_openssl(tmp_path, monkeypatch):
    # Every command of a chain on the benchmark's 10k-record config hashes
    # its inputs with CPython's built-in SHA-256 and sweep hashes none, so
    # none loads OpenSSL (_hashlib); an eval whose two logs total one byte
    # over _BUILTIN_HASH_MAX is hashed by hashlib. numpy before 2.0 loads
    # hashlib itself (numpy.random imports secrets, which imports hmac), so
    # sweep, which imports numpy, is held to what "import numpy" loads;
    # synth on a 10k config imports no numpy.
    (tmp_path / "config.json").write_text(json.dumps(_benchmark_config(monkeypatch, 1)), encoding="utf-8")
    text = serialize_log(rows_log(9_000))  # ASCII: a byte a character
    pad = _BUILTIN_HASH_MAX - 2 * len(text)
    assert pad > 0
    first, rest = text.split("\n", 1)
    (tmp_path / "before.jsonl").write_text(text, encoding="utf-8")
    for name, spaces in (("at.jsonl", pad), ("over.jsonl", pad + 1)):
        (tmp_path / name).write_text(first + " " * spaces + "\n" + rest, encoding="utf-8")
    runs = {"numpy": "import numpy"}
    runs.update((command, [command, *args, "--out", command]) for command, args in _CHAIN)
    runs.update({"sweep": ["sweep", "--seed", "1", "--trials", "20", "--out", "sweep"],
                 "eval at the bound": ["eval", "--before", "before.jsonl", "--after", "at.jsonl",
                                       "--out", "at"],
                 "eval over the bound": ["eval", "--before", "before.jsonl", "--after", "over.jsonl",
                                         "--out", "over"]})
    loaded = {}
    for name, args in runs.items():
        code, loaded[name], err = _fresh_run(args, ("hashlib", "_hashlib"), tmp_path)
        assert code == 0, (name, err)
    plain = loaded.pop("numpy")
    if int(np.__version__.split(".")[0]) >= 2:
        assert plain == []
    assert loaded == {**{command: [] for command, _ in _CHAIN}, "sweep": plain,
                      "eval at the bound": [], "eval over the bound": ["_hashlib", "hashlib"]}


@pytest.mark.parametrize("seed", [1, 977])
def test_the_10k_chains_inputs_fit_the_builtin_bound(tmp_path, monkeypatch, seed):
    # The traffic that sizes _BUILTIN_HASH_MAX: each command of the
    # benchmark's 10k-record chain hashes at most that many bytes (eval's
    # log and applied log are the most), so none of its children loads
    # OpenSSL. A log format that grows fails here, not in a benchmark.
    config = _benchmark_config(monkeypatch, seed)
    chain = importlib.import_module("cli_pipeline")
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    totals = {}

    def hashed(total):
        totals[command] = total
        return _sha256(total)

    monkeypatch.setattr(cli, "_sha256", hashed)
    log = ["--log", "synth/log.jsonl", "--model", "m"]
    for command, args in (
        ("synth", ["--config", "config.json"]),
        ("learn-detection", [*log, "--class", "a", "--epsilon", chain.EPSILON,
                             *[a for c in chain.CANDIDATES for a in ("--condition", c)]]),
        ("learn-correction", [*log, "--target-class", "b", "--condition", "c1", "--trigger-class", "a"]),
        ("apply", ["--log", "synth/log.jsonl", "--rules", "rules.json"]),
        ("eval", ["--before", "synth/log.jsonl", "--after", "apply/applied.jsonl"]),
        ("verify", [*log, "--class", "a", "--target-class", "b"]),
    ):
        if command == "apply":
            chain._merge_rules(Path("learn-detection/rules.json"), Path("learn-correction/rules.json"),
                               Path("rules.json"))
        if command == "verify":
            args += chain._body_args(Path("learn-detection/rules.json"))
        assert main([command, *args, "--out", command]) == 0, command
    sizes = {name: Path(name).stat().st_size for name in ("synth/log.jsonl", "apply/applied.jsonl")}
    assert totals["eval"] == sum(sizes.values())
    assert max(totals.values()) == totals["eval"] <= _BUILTIN_HASH_MAX
    assert list(totals) == [command for command, _ in _CHAIN]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_numpy_commands_start_one_blas_thread(tmp_path, command, preset, expected):
    # errata never calls BLAS; a value the user set is kept.
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    argv = {
        "synth": ["synth", "--config", str(config)],
        "sweep": ["sweep", "--seed", "1", "--trials", "1"],
    }[command] + ["--out", str(tmp_path / "out")]
    code = f"""
import json, os
from errata.cli import main
code = main({argv!r})
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [0, expected]


def test_usage_error_returns_2():
    assert main(["verify", "--log"]) == 2
    assert main(["no-such-command"]) == 2


# ---------------------------------------------------------------------------
# Exit 2 means bad input only
# ---------------------------------------------------------------------------

def _synth_file(tmp_path, text):
    path = tmp_path / "synth.json"
    path.write_text(text, encoding="utf-8")
    return ["synth", "--config", str(path)]


def _rules_text(tmp_path, text):
    path = tmp_path / "rules.json"
    path.write_text(text, encoding="utf-8")
    return path


def _bytes_file(tmp_path, data):
    path = tmp_path / "raw.jsonl"
    path.write_bytes(data)
    return path


BAD_INPUTS = {
    "malformed rule file": lambda tmp, log: [
        "apply", "--log", log, "--rules", str(_rules_text(tmp, "{nope"))],
    "rule file with a string body": lambda tmp, log: [
        "apply", "--log", log, "--rules",
        str(_rules_text(tmp, '{"detections": [{"model_id": "m", "target_class": "a", "conditions": "c1"}]}'))],
    "epsilon not a rational": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "m", "--class", "a",
        "--condition", "c1", "--epsilon", "x"],
    "epsilon over zero": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "m", "--class", "a",
        "--condition", "c1", "--epsilon", "1/0"],
    "negative epsilon": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "m", "--class", "a",
        "--condition", "c1", "--epsilon=-1/2"],
    "negative epsilon taken for a flag": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "m", "--class", "a",
        "--condition", "c1", "--epsilon", "-1/20"],
    "empty condition (verify)": lambda tmp, log: [
        "verify", "--log", log, "--model", "m", "--class", "a", "--condition", ""],
    "empty condition (learn-detection)": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "m", "--class", "a",
        "--condition", "c1", "--condition", ""],
    "empty condition (learn-correction)": lambda tmp, log: [
        "learn-correction", "--log", log, "--model", "m", "--target-class", "b",
        "--condition", "", "--trigger-class", "a"],
    "empty model (learn-detection)": lambda tmp, log: [
        "learn-detection", "--log", log, "--model", "", "--class", "a", "--condition", "c1"],
    "empty class (verify)": lambda tmp, log: [
        "verify", "--log", log, "--model", "m", "--class", "", "--condition", "c1"],
    "empty target class (verify)": lambda tmp, log: [
        "verify", "--log", log, "--model", "m", "--class", "a", "--condition", "c1",
        "--target-class", ""],
    "empty target class (learn-correction)": lambda tmp, log: [
        "learn-correction", "--log", log, "--model", "m", "--target-class", "",
        "--condition", "c1", "--trigger-class", "a"],
    "empty trigger class": lambda tmp, log: [
        "learn-correction", "--log", log, "--model", "m", "--target-class", "b",
        "--condition", "c1", "--trigger-class", ""],
    "unpaired trigger class": lambda tmp, log: [
        "learn-correction", "--log", log, "--model", "m", "--target-class", "b",
        "--condition", "c1", "--trigger-class", "a", "--trigger-class", "b"],
    "zero sweep trials": lambda tmp, log: ["sweep", "--seed", "1", "--trials", "0"],
    "negative sweep seed": lambda tmp, log: ["sweep", "--seed", "-1", "--trials", "1"],
    "malformed synth config JSON": lambda tmp, log: _synth_file(tmp, "{nope"),
    "synth config with a list for a table": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, confusion=[1]))),
    "negative synth seed": lambda tmp, log: _synth_file(tmp, json.dumps(dict(SYNTH_CONFIG, seed=-1))),
    "fractional synth seed": lambda tmp, log: _synth_file(tmp, json.dumps(dict(SYNTH_CONFIG, seed=1.5))),
    "boolean synth seed": lambda tmp, log: _synth_file(tmp, json.dumps(dict(SYNTH_CONFIG, seed=True))),
    "string n_records": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, n_records="5"))),
    "synth labels as a string": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, labels="ab"))),
    "synth predicted as a string": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, confusion=dict(
            SYNTH_CONFIG["confusion"], a=[{"predicted": "ab", "weight": 1}])))),
    "numeric synth model_id": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, model_id=5))),
    "numeric synth tag": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, distributions=[
            {"tag": 3, "record_fraction": 1, "confidence_override": {}}]))),
    "n_records over the cap": lambda tmp, log: _synth_file(
        tmp, json.dumps(dict(SYNTH_CONFIG, n_records=1_000_000_000_000))),
    "log not UTF-8": lambda tmp, log: [
        "verify", "--log", str(_bytes_file(tmp, b"\xff\xfe{}\n")), "--model", "m",
        "--class", "a", "--condition", "c1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, log_file, capsys, case):
    argv = BAD_INPUTS[case](tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if err.startswith(f"usage: errata {argv[0]} "):  # argparse's own error follows its usage
        err = err[err.index(f"\nerrata {argv[0]}: error: ") + 1:]
    assert err.startswith(f"errata {argv[0]}: ")


def test_inputs_must_be_regular_files(tmp_path, log_file):
    # A pipe (as "--log <(cat log.jsonl)" passes) would be drained by the
    # load and then hash as empty, and /dev/null reads as an empty file:
    # each is rejected before anything is read, so a FIFO with no writer
    # cannot block the run. Each runs in a child, with a timeout, in case
    # it does.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    commands = {
        "--log": ["verify", "--log", "{}", "--model", "m", "--class", "a", "--condition", "c1"],
        "--before": ["eval", "--before", "{}", "--after", str(log_file)],
        "--after": ["eval", "--before", str(log_file), "--after", "{}"],
        "--rules": ["apply", "--log", str(log_file), "--rules", "{}"],
        "--config": ["synth", "--config", "{}"],
    }
    cases = [(flag, path, [a.replace("{}", path) for a in argv] + ["--out", f"out-{i}"])
             for flag, argv in commands.items()
             for i, path in enumerate([str(fifo), os.devnull, str(tmp_path), str(tmp_path / "missing")])]
    for flag, path, argv in cases:
        exit_code, _, err = _fresh_run(argv, cwd=tmp_path)
        reason = "[Errno 2] No such file or directory" if path.endswith("missing") else "not a regular file"
        assert exit_code == 2, (argv, err)
        assert err.startswith(f"errata {argv[0]}: {flag}: {reason}"), (argv, err)
        assert not (tmp_path / argv[-1]).exists()


@pytest.mark.parametrize(
    "case, flag",
    [
        ("empty model (learn-detection)", "--model"),
        ("empty class (verify)", "--class"),
        ("empty target class (verify)", "--target-class"),
        ("empty target class (learn-correction)", "--target-class"),
        ("empty trigger class", "--trigger-class"),
    ],
)
def test_empty_flag_value_is_named(tmp_path, log_file, capsys, case, flag):
    # These used to run: an empty --model learned NONE (UNDEFINED_BASE) and
    # an empty verify --target-class dropped the T4 check, both exit 0.
    argv = BAD_INPUTS[case](tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"errata {argv[0]}: {flag}: expected a nonempty ")
    assert not (tmp_path / "out").exists()


def _valued_flags():
    """(command, flag) for each flag of each command that takes a value."""
    (commands,) = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]
    return [(command, action.option_strings[0]) for command, parser in commands.items()
            for action in parser._actions if action.option_strings and action.nargs != 0]


@pytest.mark.parametrize("command, flag", _valued_flags())
def test_a_flag_given_double_dash_is_named(tmp_path, log_file, capsys, monkeypatch, command, flag):
    # CPython 3.10-3.12's argparse reads --flag=-- as [] (and a repeatable
    # flag's as [[]]), which ended every command in a TypeError or an
    # AttributeError; 3.13 keeps "--" as the value.
    monkeypatch.chdir(tmp_path)  # where 3.13 writes --out=--
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    log = str(log_file)
    values = {
        "synth": {"--config": str(config)},
        "learn-detection": {"--log": log, "--model": "m", "--class": "a", "--condition": "c1"},
        "learn-correction": {"--log": log, "--model": "m", "--target-class": "b",
                             "--condition": "c1", "--trigger-class": "a"},
        "apply": {"--log": log, "--rules": str(_rules_file(tmp_path))},
        "eval": {"--before": log, "--after": log},
        "verify": {"--log": log, "--model": "m", "--class": "a", "--condition": "c1"},
        "sweep": {"--seed": "1", "--trials": "2"},
    }[command]
    values = {**values, "--out": str(tmp_path / "out"), flag: None}
    argv = [command] + [a for name, value in values.items()
                        for a in ([f"{name}=--"] if name == flag else [name, value])]
    code = main(argv)
    assert code in (0, 2, 3), argv
    probe = argparse.ArgumentParser()
    probe.add_argument("--flag")
    if probe.parse_args(["--flag=--"]).flag == []:
        assert code == 2
        assert capsys.readouterr().err == f"errata {command}: {flag}: expected a value, got '--'\n"


def _without(path):
    """SYNTH_CONFIG with the key at ``path`` removed."""
    config = json.loads(json.dumps(SYNTH_CONFIG))
    target = config
    for step in path[:-1]:
        target = target[step]
    del target[path[-1]]
    return config


def _with(path, value):
    """SYNTH_CONFIG, with one tag overriding c1, and ``value`` at ``path``."""
    config = json.loads(json.dumps(dict(SYNTH_CONFIG, distributions=[
        {"tag": "d1", "record_fraction": 1, "confidence_override": {"c1": "1/2"}}])))
    target = config
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return config


@pytest.mark.parametrize(
    "config, message",
    [
        # Each of these used to give "malformed synth config: ..." with no path.
        pytest.param(_without(("confusion", "a", 0, "weight")),
                     "confusion.a[0]: missing key 'weight'", id="missing weight"),
        pytest.param(_with(("confusion", "a", 0, "weight"), True),
                     "confusion.a[0].weight: expected a rational (a number or \"num/den\" text), got True",
                     id="boolean weight"),
        pytest.param(_with(("class_priors",), ["a", "b"]),
                     "class_priors: expected an object, got ['a', 'b']", id="list of priors"),
        pytest.param(_with(("distributions", 0, "confidence_override", "c1"), "x"),
                     "distributions[0].confidence_override.c1: expected a rational "
                     "(a number or \"num/den\" text), got 'x'", id="text override"),
        pytest.param(_with(("planted_conditions", 0, "target_support"), None),
                     "planted_conditions[0].target_support: expected a rational "
                     "(a number or \"num/den\" text), got None", id="null support"),
    ],
)
def test_synth_config_errors_name_their_path(tmp_path, capsys, config, message):
    argv = _synth_file(tmp_path, json.dumps(config)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"errata synth: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(
            lambda tmp, log: ["apply", "--log", log, "--rules", str(_rules_text(
                tmp, '{"detections": [{"model_id": "m", "target_class": "a",'
                     ' "conditions": ["c1"], "conditions": ["c2"]}]}'))],
            "rule file: line 1: duplicate key 'conditions'", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, json.dumps(SYNTH_CONFIG)[:-1] + ', "seed": 2}'),
            "synth config: line 1: duplicate key 'seed'", id="synth config"),
    ],
)
def test_repeated_keys_exit_2(tmp_path, log_file, capsys, command, message):
    # Both formats used to keep the last value and exit 0.
    argv = command(tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"errata {argv[0]}: {message}\n"
    assert not (tmp_path / "out").exists()


DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(
            lambda tmp, log: ["apply", "--log", str(_bytes_file(tmp, (
                LOG_A_TEXT.splitlines()[0] + "\n"
                + '{"sample_id": "deep", "model_id": "m", "predicted": [], "ground_truth": [],'
                  ' "conditions": ' + DEEP + "}\n").encode())),
                "--rules", str(_rules_text(tmp, '{"detections": []}'))],
            "line 2: malformed JSON (nested too deeply)", id="log line"),
        pytest.param(
            lambda tmp, log: ["apply", "--log", log, "--rules", str(_rules_text(
                tmp, '{"detections": ' + DEEP + "}"))],
            "malformed rule file: line 1: nested too deeply", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, '{"seed": ' + DEEP + "}"),
            "malformed synth config: line 1: nested too deeply", id="synth config"),
    ],
)
def test_deeply_nested_json_exits_2(tmp_path, log_file, capsys, command, message):
    # A RecursionError from the decoder used to end in a traceback and exit 1.
    argv = command(tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"errata {argv[0]}: {message}\n"
    assert not (tmp_path / "out").exists()


HUGE = "7" * 5000  # past Python's 4300-digit limit on int text


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(
            lambda tmp, log: ["verify", "--log", str(_bytes_file(tmp, (
                LOG_A_TEXT.splitlines()[0] + "\n"
                + '{"sample_id": "huge", "model_id": "m", "predicted": [], "ground_truth": [],'
                  ' "conditions": [], "weight": ' + HUGE + "}\n").encode())),
                "--model", "m", "--class", "a", "--condition", "c1"],
            "line 2: malformed JSON (integer has too many digits)", id="log line"),
        pytest.param(
            lambda tmp, log: ["apply", "--log", log, "--rules", str(_rules_text(
                tmp, '{"detections": [], "corrections": ' + HUGE + "}"))],
            "malformed rule file: line 1: integer has too many digits", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, '{"seed": ' + HUGE + "}"),
            "malformed synth config: line 1: integer has too many digits", id="synth config"),
    ],
)
def test_huge_json_integer_exits_2(tmp_path, log_file, capsys, command, message):
    # json raised a bare ValueError past the digit limit: a traceback, exit 1.
    argv = command(tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"errata {argv[0]}: {message}\n"
    assert not (tmp_path / "out").exists()


# A rule file and a synth config whose bytes past the decoder's first 8 KB
# chunk, after CRLF, CR and LF line ends, are not UTF-8.
_PADDING = "".join(" " * 40 + ("\r\n", "\r", "\n")[i % 3] for i in range(300))


def test_rule_file_not_utf8_names_its_line(tmp_path, log_file, capsys):
    # Found with a rule file holding a 0xff byte: the message named an
    # offset into the decoder's chunk and no line.
    data = ('{"detections": [],' + _PADDING + '"corrections": [').encode() + b"\xff]}"
    argv = ["apply", "--log", str(log_file), "--rules", str(_bytes_file(tmp_path, data)),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"errata apply: rule file: line 301: not UTF-8 (invalid start byte at byte {len(data) - 3})\n")
    assert not (tmp_path / "out").exists()


def test_synth_config_not_utf8_names_its_line(tmp_path, capsys):
    # As for rule files: the message named no line.
    data = ('{"seed": 1,' + _PADDING + '"model_id": "').encode() + b'\xe2\x82"}'
    argv = ["synth", "--config", str(_bytes_file(tmp_path, data)), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "errata synth: synth config: line 301: not UTF-8 "
        f"(invalid continuation byte at byte {len(data) - 4})\n")
    assert not (tmp_path / "out").exists()


def test_unknown_condition_names_its_rule(tmp_path, log_file, capsys):
    # Found by the mutated-rule-file fuzz test: the message named neither a
    # line nor a key path.
    rules = {"detections": [{"model_id": "m", "target_class": "a", "conditions": ["c1"]}],
             "corrections": [{"model_id": "m", "target_class": "b",
                              "pairs": [{"condition": "ghost", "trigger_class": "a"}]}]}
    argv = ["apply", "--log", str(log_file), "--rules", str(_rules_text(tmp_path, json.dumps(rules))),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "errata apply: corrections[0].pairs: condition id(s) absent from the log: ['ghost']\n")


@pytest.mark.parametrize("epsilon", ["1e-999999","1e1000", "1/" + "9" * 1001, "2e-99999999999999999999",
                                     "0." + "0" * 999 + "1", "1" + "0" * 1000,
                                     "1/" + "9" * 5000, "0." + "0" * 5000 + "1"])
def test_oversized_epsilon_exits_2(tmp_path, log_file, capsys, epsilon):
    # 1e-999999 used to pass parsing and crash writing the report (Python
    # writes at most 4300 digits of an integer as text), with exit 1. Text
    # with an exponent is now no rational at all; the rest is too long, also
    # past the 4300 digits Python reads into an integer.
    argv = ["learn-detection", "--log", str(log_file), "--model", "m", "--class", "a",
            "--condition", "c1", "--epsilon", epsilon, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    reason = "--epsilon: " + ("not a rational number: " if "e" in epsilon
                              else "more than 1000 digits in the numerator or denominator of ")
    assert capsys.readouterr().err == f"errata learn-detection: {reason}{epsilon!r}\n"
    assert not (tmp_path / "out").exists()


def test_epsilon_above_one_learns_as_epsilon_one(tmp_path, log_file):
    # Any ε ≥ 1 gives a budget ⌊ε·gt⌋ ≥ gt, which admits every body; c1
    # costs one of class a's three correct predictions in ground truth.
    rules = {}
    for epsilon in ("1", "2"):
        out = tmp_path / epsilon
        assert main(["learn-detection", "--log", str(log_file), "--model", "m", "--class", "a",
                     "--condition", "c1", "--epsilon", epsilon, "--out", str(out)]) == 0
        rules[epsilon] = (out / "rules.json").read_bytes()
    assert rules["2"] == rules["1"]
    assert json.loads(rules["2"])["detections"][0]["conditions"] == ["c1"]


def test_rationals_up_to_the_digit_bound_parse_exactly():
    # The grammar: an optional sign, ASCII digits, and an optional
    # "/digits" or ".digits".
    assert parse_rational("1" + "0" * 999) == 10 ** 999
    assert parse_rational("0." + "0" * 998 + "1") == Fraction(1, 10 ** 999)
    assert parse_rational("1" + "0" * 1500 + "/" + "1" + "0" * 1000) == 10 ** 500
    assert parse_rational("-3/6") == Fraction(-1, 2) and parse_rational("+0.25") == Fraction(1, 4)
    assert parse_rational("007") == 7
    for text in ("1e999", "1e-3", "1/2e99999", "e99999", "x", "", "1_000/2", "\uff11/\uff12",
                 " 1/2", "1/2 ", "1/2\n", "1/-2", "1/+2", ".5", "5.", "1.5/2", "1/2/3", "--1",
                 "inf", "nan", "1/0"):
        with pytest.raises(InputError, match="^not a rational number"):
            parse_rational(text)
    with pytest.raises(InputError, match="^epsilon: more than 1000 digits"):
        LearnConfig(epsilon="0." + "0" * 999 + "1")
    with pytest.raises(InputError, match="^epsilon: more than 1000 digits"):
        LearnConfig(epsilon="1/1" + "0" * 1000)


def test_internal_value_error_is_not_an_input_error(tmp_path, log_file, monkeypatch):
    # A bug that raises ValueError deep inside a command must surface, not
    # be reported as bad input.
    def broken(*args, **kwargs):
        raise ValueError("numerator count exceeds denominator count")

    monkeypatch.setattr("errata.theorems.check_all", broken)
    with pytest.raises(ValueError, match="numerator count"):
        main(["verify", "--log", str(log_file), "--model", "m", "--class", "a",
              "--condition", "c1", "--out", str(tmp_path / "out")])


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_after(text: str, marker: str) -> str:
    """The body of the first fenced block after ``marker``."""
    start = text.index("\n", text.index("```", text.index(marker))) + 1
    return text[start:text.index("```", start)]


def test_readme_examples_run_on_log_a(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    (tmp_path / "log.jsonl").write_text(LOG_A_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    quick_start = _fenced_after(readme, "## Library quick start")
    exec(compile(quick_start, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "2/3 1/2" and quick_start.count("# 2/3 1/2") == 1
    assert [line.rsplit(".", 1)[-1] for line in printed[-2:]] == ["HOLDS", "HOLDS"]
    # The verify example: its command, then its output up to the "...".
    command = _fenced_after(readme, "## Command line").split()
    assert command[0] == "errata"
    shown = _fenced_after(readme, "`verify` runs every check")
    assert main(command[1:]) == 0
    assert capsys.readouterr().out.startswith(shown.split("...\n")[0])
