"""Mutated input documents never crash the CLI.

Each test starts from a valid document (a log, a rule file or a synth
config), applies a few byte-level mutations and runs the CLI in-process.
The exit code must be 0, 2 or 3 (never 1, which reports a VIOLATED check,
nor a traceback); an exit 2 must name the offending line or key path, and
the strict reader must agree: it accepts exactly the texts the command
accepted, and the command writes what it gives for them.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

from conftest import LOG_A_TEXT, logs_st, make_log, rec
from errata import (
    InputError, SynthConfig, apply_rules, generate, load_log_file, loads_rules, serialize_log,
)
from errata.cli import main
from errata.logs import _strict_json
from errata.synth import SynthConfigError
from test_rules import rule_sets_st
from test_synth import synth_configs_st

# The keys each format's mutations drop, duplicate or retype.
_FIELDS = ("sample_id", "model_id", "predicted", "ground_truth", "conditions", "distribution")
_RULE_FIELDS = ("detections", "corrections", "model_id", "target_class", "conditions", "pairs",
                "condition", "trigger_class")
_SYNTH_FIELDS = ("seed", "n_records", "model_id", "labels", "class_priors", "confusion", "predicted",
                 "weight", "planted_conditions", "condition_id", "target_class", "target_support",
                 "target_confidence", "distributions", "tag", "record_fraction", "confidence_override")
# Values of the wrong JSON type for some field, and JSON that Python's
# reader takes apart in its own ways: NaN and the infinities are accepted
# by json, a 5,000-digit integer is past the int-text digit limit, and a
# deep array is past the recursion limit.
_ODD_VALUES = (
    "null", "true", "7", "-0.5", '"x"', '""', "[]", "[1]", '["a", 2]', "{}", '{"a": []}',
    "NaN", "Infinity", "-Infinity", "9" * 5000, "[" * 3000 + "]" * 3000,
)
_BAD_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf")


# Stands in for the edited object while the rest of its line is written.
_MARK = "\x00edited object\x00"


def _edit_object(data: bytes, index: int, edit) -> bytes:
    """``data`` with one JSON object of line ``index`` (mod the line count)
    changed by ``edit`` into a list of (key, value text) pairs and written
    again: the object ``index`` (mod their count) of the line's objects in
    document order, so the line itself when it is a flat object. A line
    that holds no JSON object is left as it is."""
    lines = data.split(b"\n")
    i = index % len(lines)
    try:
        value = json.loads(lines[i])
    except (ValueError, RecursionError):
        return data
    slots = []  # (container, key) of each object, (None, None) for the line's own value

    def collect(v, container, key):
        if isinstance(v, dict):
            slots.append((container, key))
            children = v.items()
        elif isinstance(v, list):
            children = enumerate(v)
        else:
            return
        for k, child in children:
            collect(child, v, k)

    collect(value, None, None)
    if not slots:
        return data
    container, key = slots[index % len(slots)]
    obj = value if container is None else container[key]
    pairs = edit([(k, json.dumps(v)) for k, v in obj.items()])
    text = "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in pairs) + "}"
    if container is not None:
        container[key] = _MARK
        text = json.dumps(value).replace(json.dumps(_MARK), text, 1)
    lines[i] = text.encode()
    return b"\n".join(lines)


@st.composite
def _mutation(draw, data: bytes, fields=_FIELDS) -> bytes:
    where = draw(st.integers(0, max(len(data), 1)))
    field = draw(st.sampled_from(fields))
    kind = draw(st.sampled_from(
        ["truncate", "drop", "duplicate", "retype", "splice", "bom", "cr", "utf8"]))
    if kind == "truncate":
        return data[:where]
    if kind == "drop":
        return _edit_object(data, where, lambda pairs: [p for p in pairs if p[0] != field])
    if kind == "duplicate":
        return _edit_object(data, where, lambda pairs: pairs + [p for p in pairs if p[0] == field])
    if kind == "retype":
        value = draw(st.sampled_from(_ODD_VALUES))
        return _edit_object(data, where, lambda pairs: [
            (k, value if k == field else v) for k, v in pairs] + ([] if pairs else [(field, value)]))
    if kind == "splice":
        byte = bytes([draw(st.integers(0, 255))])
        return data[:where] + byte + data[where + draw(st.integers(0, 1)):]
    if kind == "bom":
        starts = [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A]
        at = starts[where % len(starts)]
        return data[:at] + b"\xef\xbb\xbf" + data[at:]
    if kind == "cr":
        return data[:where] + draw(st.sampled_from([b"\r", b"\r\n"])) + data[where:]
    return data[:where] + draw(st.sampled_from(_BAD_UTF8)) + data[where:]


@st.composite
def mutated_logs_st(draw) -> bytes:
    data = serialize_log(draw(logs_st(max_records=6))).encode()
    for _ in range(draw(st.integers(1, 3))):
        data = draw(_mutation(data))
    return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_logs_st(), st.sampled_from([[], ["--target-class", "b"]]))
def test_verify_on_a_mutated_log_exits_0_2_or_3(data, beta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        argv = ["verify", "--log", str(path), "--model", "m", "--class", "a",
                "--condition", "c1", *beta, "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        try:
            load_log_file(path)
        except InputError as exc:
            assert code == 2, (code, exc)
            assert re.match(r"errata verify: line \d+: ", err.getvalue()), err.getvalue()
        else:
            assert code in (0, 3), (code, err.getvalue())


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    return code, err.getvalue()


def _names_a_line_or_key(message: str, command: str, root: str) -> bool:
    """Does an exit-2 message name a line, a key, or a key path (the
    document's root, named ``root``, or a path within it)? An error in the
    document's JSON (malformed, nested too deeply, an integer past the
    digit limit, a repeated key) must name its line."""
    detail = message.removeprefix(f"errata {command}: ")
    if re.match(rf"malformed {root}: |{root}: (line \d+: )?duplicate key ", detail):
        return bool(re.search(r"\bline \d+", detail))
    return bool(re.search(r"\bline \d+|\bkey '", detail) or re.match(
        rf"{root}: |[\w-]+(\[\d+\]|\.[^\s:]+)*: ", detail))


def _document(draw, text: str, fields) -> bytes:
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        data = draw(_mutation(data, fields))
    return data


def _read(path: Path) -> str | None:
    """The file's text as the CLI reads it; None when it is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None


def _log_for(rules):
    """A log on which every condition id of ``rules`` is observed: one
    record per rule, of its model, predicting its target class (and the
    pairs' trigger classes) under each of its condition ids."""
    records = [rec("r0", {"a"}, {"a"}, {"c1"})]
    for i, rule in enumerate(rules.detections):
        records.append(rec(f"d{i}", {rule.target_class}, (), rule.body.condition_ids, rule.model_id))
    for i, rule in enumerate(rules.corrections):
        records.append(rec(f"c{i}", {t for _, t in rule.pairs}, {rule.target_class},
                           {c for c, _ in rule.pairs}, rule.model_id))
    return make_log(*records)


@st.composite
def mutated_rule_files_st(draw):
    rules = draw(rule_sets_st)
    text = json.dumps(rules.to_dict(), indent=draw(st.sampled_from([None, 2])))
    return rules, _document(draw, text, _RULE_FIELDS)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_rule_files_st())
def test_apply_on_a_mutated_rule_file_exits_0_2_or_3(case):
    rules, data = case
    log = _log_for(rules)
    with tempfile.TemporaryDirectory() as tmp:
        log_path, path, out = Path(tmp) / "log.jsonl", Path(tmp) / "rules.json", Path(tmp) / "out"
        log_path.write_text(serialize_log(log), encoding="utf-8")
        path.write_bytes(data)
        code, err = _run(["apply", "--log", str(log_path), "--rules", str(path), "--out", str(out)])
        text = _read(path)
        try:
            if text is None:
                raise InputError("not UTF-8")
            applied, trace = apply_rules(log, loads_rules(text))
        except InputError as exc:
            assert code == 2, (code, exc)
            assert _names_a_line_or_key(err, "apply", "rule file"), err
        else:
            assert code == 0, (code, err)
            assert (out / "applied.jsonl").read_text(encoding="utf-8") == serialize_log(applied)
            assert (out / "trace.json").read_text(encoding="utf-8") == trace.to_json() + "\n"


def _n_records(data: bytes):
    """``n_records`` of a config that parses as a JSON object, else None."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return obj.get("n_records") if isinstance(obj, dict) else None


@st.composite
def mutated_synth_configs_st(draw):
    text = json.dumps(draw(synth_configs_st()), indent=draw(st.sampled_from([None, 2])))
    return _document(draw, text, _SYNTH_FIELDS)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_synth_configs_st())
def test_synth_on_a_mutated_config_exits_0_2_or_3(data):
    # A mutation may ask for up to MAX_RECORDS records; a few hundred suffice.
    n = _n_records(data)
    assume(not isinstance(n, int) or n <= 300)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_bytes(data)
        code, err = _run(["synth", "--config", str(path), "--out", str(out)])
        text = _read(path)
        try:
            if text is None:
                raise InputError("not UTF-8")
            log, bookkeeping = generate(SynthConfig.from_dict(
                _strict_json(text, "synth config", SynthConfigError)))
        except InputError as exc:
            assert code == 2, (code, exc)
            assert _names_a_line_or_key(err, "synth", "synth config"), err
        else:
            assert code == 0, (code, err)
            assert (out / "log.jsonl").read_text(encoding="utf-8") == serialize_log(log)
            assert (out / "bookkeeping.json").read_text(encoding="utf-8") == (
                json.dumps(bookkeeping.to_dict(), indent=2) + "\n")


# Each command's valid flag values, which the flag test mutates one at a time.
_FLAGS = {
    "learn-detection": {"--model": "m", "--class": "a", "--condition": "c1", "--epsilon": "1/20"},
    "verify": {"--model": "m", "--class": "a", "--condition": "c1", "--target-class": "b"},
    "sweep": {"--seed": "1", "--trials": "2"},
}
# Characters of integers, rationals and ids, and of what argparse and int()
# read in their own ways: signs, "_", blanks, an Arabic-Indic and a
# full-width digit. Values stay short, so a seed or trial count stays small.
_FLAG_CHARS = "0129-+/._ ea٣１"


@st.composite
def mutated_flags_st(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    values = dict(_FLAGS[command])
    flag = draw(st.sampled_from(sorted(values)))
    base = values[flag]
    where = draw(st.integers(0, len(base)))
    char = draw(st.sampled_from(_FLAG_CHARS))
    values[flag] = draw(st.sampled_from([
        base[:where] + char + base[where:],  # a character inserted
        base[:where] + char + base[where + 1:],  # replaced
        base[:where] + base[where + 1:],  # or dropped
        draw(st.text(_FLAG_CHARS, max_size=3)),  # or a new value
    ]))
    joined = draw(st.booleans())  # --flag=value, so a value may begin with "-"
    argv = [command]
    for name, value in values.items():
        argv += [f"{name}={value}"] if joined and name == flag else [name, value]
    return flag, argv


def _flag_value(argv: list[str], flag: str) -> str:
    for i, item in enumerate(argv):
        if item == flag:
            return argv[i + 1]
        if item.startswith(flag + "="):
            return item[len(flag) + 1:]
    raise KeyError(flag)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_flags_st())
# Each of these ran and exited 0 when argparse read the two flags with int().
@example(("--seed", ["sweep", "--seed", "1_0", "--trials", "2"]))
@example(("--seed", ["sweep", "--seed", " 1", "--trials", "2"]))
@example(("--trials", ["sweep", "--seed", "1", "--trials", "٣"]))
@example(("--trials", ["sweep", "--seed", "1", "--trials=+2"]))
# CPython 3.10-3.12's argparse reads --flag=-- as [], which raised TypeError.
@example(("--class", ["learn-detection", "--model", "m", "--class=--", "--condition", "c1",
                      "--epsilon", "1/20"]))
def test_mutated_flag_values_exit_0_2_or_3_and_name_the_flag(case):
    flag, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_text(LOG_A_TEXT, encoding="utf-8")
        if argv[0] != "sweep":
            argv = argv[:1] + ["--log", str(log)] + argv[1:]
        code, err = _run(argv + ["--out", str(Path(tmp) / "out")])
    assert "Traceback" not in err, err
    if code == 2:
        # argparse's own error follows its usage line.
        assert err.splitlines()[-1].startswith(f"errata {argv[0]}: "), err
        assert flag in err.splitlines()[-1], (flag, err)
    if argv[0] == "sweep":
        # --seed and --trials take ASCII digits only, and at least 1 trial.
        value = _flag_value(argv, flag)
        valid = value.isascii() and value.isdigit() and (flag == "--seed" or int(value) >= 1)
        assert (code == 0) == valid, (argv, code, err)
