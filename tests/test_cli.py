import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import LOG_A_TEXT
from errata.cli import main, report_render
from errata import (
    ConditionBody,
    InputError,
    LearnConfig,
    check_precision_change,
    check_residual,
    load_log,
)
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

    report = TheoremReport(
        theorem_id=TheoremId.T2_EDNS,
        verdict=TheoremVerdict.VIOLATED,
        model_id="m",
        target_class="a",
        condition_ids=("c1",),
        intermediates={},
    )
    violation = SweepViolation(3, 77, TheoremId.T2_EDNS, "a", "c1", None, report, "")
    counts = {tid: {v: 0 for v in TheoremVerdict} for tid in TheoremId}
    counts[TheoremId.T2_EDNS][TheoremVerdict.VIOLATED] = 1
    fake = SweepResult(5, 30, 30, 4, 3, counts, (violation,))
    monkeypatch.setattr(errata.theorems, "sweep", lambda seed, trials: fake)

    out = tmp_path / "sweep"
    code = main(["sweep", "--seed", "5", "--trials", "30", "--out", str(out)])
    assert code == 1
    assert (out / "replay_3_T2_EDNS.jsonl").exists()
    assert read_json(out / "replay_3_T2_EDNS.json")["trial_seed"] == 77


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
        check_residual(log_a, "m", "zz", ConditionBody.of("c1")),
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


def test_module_entrypoint_smoke(tmp_path, log_file):
    result = subprocess.run(
        [sys.executable, "-m", "errata", "verify", "--log", str(log_file),
         "--model", "m", "--class", "a", "--condition", "c1",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 0
    assert "T1_PRECISION_CHANGE" in result.stdout


def test_numpy_is_imported_only_to_draw():
    # Only synth/generate, random_log and sweep draw random numbers; every
    # other subcommand must start without paying for the numpy import.
    code = """
import json, sys
import errata, errata.cli
at_import = "numpy" in sys.modules
errata.generate(errata.SynthConfig.from_dict({
    "seed": 1, "n_records": 1, "model_id": "m", "labels": ["a"],
    "class_priors": {"a": 1}, "confusion": {"a": [{"predicted": ["a"], "weight": 1}]},
}))
print(json.dumps([at_import, "numpy" in sys.modules]))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert json.loads(result.stdout) == [False, True]


def test_apply_and_eval_load_only_what_they_run(tmp_path, log_file):
    # apply and eval read logs and rules only: learning, synth, theorems
    # and numpy stay unloaded in their process.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"detections": [
        {"model_id": "m", "target_class": "a", "conditions": ["c1"]}
    ]}), encoding="utf-8")
    code = f"""
import json, sys
from errata.cli import main
codes = [
    main(["apply", "--log", {str(log_file)!r}, "--rules", {str(rules)!r},
          "--out", {str(tmp_path / "applied")!r}]),
    main(["eval", "--before", {str(log_file)!r},
          "--after", {str(tmp_path / "applied" / "applied.jsonl")!r},
          "--out", {str(tmp_path / "eval")!r}]),
]
print(json.dumps([codes, sorted(
    name for name in ("errata.learning", "errata.synth", "errata.theorems", "numpy")
    if name in sys.modules
)]))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0], []]


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
    # loads numpy. numpy itself loads inspect, so synth is not checked for
    # inspect.
    (tmp_path / "config.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    code = """
import json, sys
from errata.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in ("dataclasses", "inspect", "numpy") if m in sys.modules)]))
"""
    loaded = {}
    for command, args in _CHAIN:
        result = subprocess.run(
            [sys.executable, "-c", code, command, *args, "--out", command],
            capture_output=True, text=True, env=_src_env(), cwd=tmp_path, check=True,
        )
        exit_code, loaded[command] = json.loads(result.stdout.splitlines()[-1])
        assert exit_code == 0, (command, result.stderr)
    assert read_json(tmp_path / "learn-detection" / "rules.json")["detections"]
    assert [c for c, names in loaded.items() if "dataclasses" in names] == ["learn-detection"]
    assert [c for c, names in loaded.items() if "numpy" in names] == ["synth"]
    assert [c for c, names in loaded.items() if "inspect" in names and c != "synth"] == [
        "learn-detection"
    ]


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
    assert capsys.readouterr().err.startswith(f"errata {argv[0]}: ")


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
            "rule file: duplicate key 'conditions'", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, json.dumps(SYNTH_CONFIG)[:-1] + ', "seed": 2}'),
            "synth config: duplicate key 'seed'", id="synth config"),
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
            "malformed rule file: nested too deeply", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, '{"seed": ' + DEEP + "}"),
            "malformed synth config: nested too deeply", id="synth config"),
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
            "malformed rule file: integer has too many digits", id="rule file"),
        pytest.param(
            lambda tmp, log: _synth_file(tmp, '{"seed": ' + HUGE + "}"),
            "malformed synth config: integer has too many digits", id="synth config"),
    ],
)
def test_huge_json_integer_exits_2(tmp_path, log_file, capsys, command, message):
    # json raised a bare ValueError past the digit limit: a traceback, exit 1.
    argv = command(tmp_path, str(log_file)) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"errata {argv[0]}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilon", ["1e-999999","1e1000", "1/" + "9" * 1001, "2e-99999999999999999999"])
def test_oversized_epsilon_exits_2(tmp_path, log_file, capsys, epsilon):
    # 1e-999999 used to pass parsing and crash writing the report (Python
    # writes at most 4300 digits of an integer as text), with exit 1.
    argv = ["learn-detection", "--log", str(log_file), "--model", "m", "--class", "a",
            "--condition", "c1", "--epsilon", epsilon, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "errata learn-detection: --epsilon: more than 1000 digits in the numerator or "
        f"denominator of {epsilon!r}\n")
    assert not (tmp_path / "out").exists()


def test_rationals_up_to_the_digit_bound_parse_exactly():
    assert parse_rational("1e999") == 10 ** 999
    assert parse_rational("1e-999") == Fraction(1, 10 ** 999)
    assert parse_rational("1" + "0" * 1500 + "e-1000") == 10 ** 500
    assert parse_rational("0e-99999999999") == 0 and parse_rational(" 1e1_0 ") == 10 ** 10
    for text in ("1/2e99999", "e99999", "x"):
        with pytest.raises(InputError, match="^not a rational number"):
            parse_rational(text)
    with pytest.raises(InputError, match="^epsilon: more than 1000 digits"):
        LearnConfig(epsilon="1e-1000")


def test_internal_value_error_is_not_an_input_error(tmp_path, log_file, monkeypatch):
    # A bug that raises ValueError deep inside a command must surface, not
    # be reported as bad input.
    def broken(*args, **kwargs):
        raise ValueError("numerator count exceeds denominator count")

    monkeypatch.setattr("errata.theorems.check_all", broken)
    with pytest.raises(ValueError, match="numerator count"):
        main(["verify", "--log", str(log_file), "--model", "m", "--class", "a",
              "--condition", "c1", "--out", str(tmp_path / "out")])
