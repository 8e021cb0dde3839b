"""Mutated input documents never crash the CLI.

Each test starts from a valid document, applies a few byte-level
mutations and runs the CLI in-process. The exit code must be 0, 2 or 3
(never 1, which reports a VIOLATED check, nor a traceback); an exit 2
must name the offending line, and the strict reader must agree: it
accepts exactly the texts the command accepted.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from conftest import logs_st
from errata import InputError, load_log_file, serialize_log
from errata.cli import main

_FIELDS = ("sample_id", "model_id", "predicted", "ground_truth", "conditions", "distribution")
# Values of the wrong JSON type for some field, and JSON that Python's
# reader takes apart in its own ways: NaN and the infinities are accepted
# by json, a 5,000-digit integer is past the int-text digit limit, and a
# deep array is past the recursion limit.
_ODD_VALUES = (
    "null", "true", "7", "-0.5", '"x"', '""', "[]", "[1]", '["a", 2]', "{}", '{"a": []}',
    "NaN", "Infinity", "-Infinity", "9" * 5000, "[" * 3000 + "]" * 3000,
)
_BAD_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf")


def _edit_object(data: bytes, index: int, edit) -> bytes:
    """``data`` with line ``index`` (mod the line count) parsed, changed by
    ``edit`` into a list of (key, value text) pairs and written again; a
    line that is not a JSON object is left as it is."""
    lines = data.split(b"\n")
    i = index % len(lines)
    try:
        obj = json.loads(lines[i])
    except (ValueError, RecursionError):
        return data
    if not isinstance(obj, dict):
        return data
    pairs = edit([(key, json.dumps(value)) for key, value in obj.items()])
    lines[i] = ("{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in pairs) + "}").encode()
    return b"\n".join(lines)


@st.composite
def _mutation(draw, data: bytes) -> bytes:
    where = draw(st.integers(0, max(len(data), 1)))
    field = draw(st.sampled_from(_FIELDS))
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
