import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CHUNK_CASES, LOG_A_TEXT, K, conjunctions_st, logs_st, make_log, queries_st, rec, rows_log,
)
from errata import (
    DEFAULT_DISTRIBUTION,
    LogFormatError,
    PredictionLog,
    PredictionRecord,
    load_log,
    serialize_log,
)
from errata.logs import load_log_file
from errata import logs as logs_module
from event_oracle import Atom, EventQuery, count, predicted_has, slice_log, truth_has


def line(**kw):
    base = {"sample_id": "s1", "model_id": "m", "predicted": [], "ground_truth": [], "conditions": []}
    base.update(kw)
    return json.dumps(base)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_load_two_lines_builds_universes():
    text = line(sample_id="s1", predicted=["a"], ground_truth=["b"]) + "\n" + line(
        sample_id="s2", predicted=["c"], ground_truth=["a"], conditions=["c1"]
    )
    log = load_log(text)
    assert len(log) == 2
    assert log.label_universe == {"a", "b", "c"}
    assert log.condition_universe == {"c1"}
    assert log.distribution_universe == {DEFAULT_DISTRIBUTION}


def test_load_empty_input():
    log = load_log("")
    assert len(log) == 0
    assert log.label_universe == frozenset()
    assert log.condition_universe == frozenset()


def test_duplicate_key_cites_line():
    text = line() + "\n" + line()
    with pytest.raises(LogFormatError, match="line 2"):
        load_log(text)


@pytest.mark.parametrize("canonical", [False, True], ids=["full parse", "canonical"])
@pytest.mark.parametrize("bad_line", ["not json", line(sample_id="s9", predicted="a")])
def test_duplicate_is_reported_before_a_later_bad_line(canonical, bad_line):
    def render(sample_id, model_id):
        if canonical:
            return serialize_log(make_log(rec(sample_id, model=model_id))).strip()
        return line(sample_id=sample_id, model_id=model_id)

    lines = [render("s1", "m"), render("s1", "n"), "", render("s2", "m"), render("s1", "n"), bad_line]
    with pytest.raises(LogFormatError) as raised:
        load_log("\n".join(lines))
    assert str(raised.value) == "line 5: duplicate (sample_id, model_id) ('s1', 'n') first seen on line 2"


@pytest.mark.parametrize("bad, reason", [
    (b"\xff", "invalid start byte"),
    (b"\xe2\x82", "invalid continuation byte"),
])
def test_log_not_utf8_names_its_line(tmp_path, bad, reason):
    # Found by the mutated-log fuzz test: the error named no line, only an
    # offset within the decoder's chunk. Here the bytes lie past the first
    # chunk, after lines that end in each of the three line breaks.
    head = "".join(line(sample_id=f"s{i}") + ("\r\n", "\r", "\n")[i % 3] for i in range(300)).encode()
    path = tmp_path / "log.jsonl"
    path.write_bytes(head + b'{"sample_id":"s' + bad + b'"}\n')
    with pytest.raises(LogFormatError) as raised:
        load_log_file(path)
    assert str(raised.value) == f"line 301: not UTF-8 ({reason} at byte {len(head) + 15})"
    # An error on an earlier line is reported first, as for a decoded file.
    path.write_bytes(head + b"not json\n" + bad + b"\n")
    with pytest.raises(LogFormatError, match="^line 301: malformed JSON"):
        load_log_file(path)


def test_one_sample_id_under_two_models_loads():
    log = load_log(line(model_id="m") + "\n\n" + line(model_id="n") + "\n")
    assert [r.key for r in log] == [("s1", "m"), ("s1", "n")]


def test_malformed_line_cites_line_number():
    text = line() + "\nnot json\n"
    with pytest.raises(LogFormatError, match="line 2"):
        load_log(text)


def test_unknown_field_rejected():
    with pytest.raises(LogFormatError, match="unknown field"):
        load_log(line()[:-1] + ', "extra": 1}')


def test_missing_field_rejected():
    obj = json.loads(line())
    del obj["conditions"]
    with pytest.raises(LogFormatError, match="missing field"):
        load_log(json.dumps(obj))


def test_duplicate_array_entry_rejected():
    with pytest.raises(LogFormatError, match="duplicate entry"):
        load_log(line(predicted=["a", "a"]))


@pytest.mark.parametrize(
    "value, message",
    [
        ("a", "field 'ground_truth' must be an array of strings"),
        (["a", 1], "field 'ground_truth' entries must be nonempty strings"),
        (["a", ["b"]], "field 'ground_truth' entries must be nonempty strings"),
        (["a", ""], "field 'ground_truth' entries must be nonempty strings"),
        (["a", "b", "a"], "duplicate entry 'a' in field 'ground_truth'"),
    ],
)
def test_set_field_error_messages(value, message):
    with pytest.raises(LogFormatError) as err:
        load_log(line(ground_truth=value))
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize(
    "cached, value, message",
    [
        (["a"], ["a", "a"], "duplicate entry 'a' in field 'ground_truth'"),
        (["a"], ["a", ""], "field 'ground_truth' entries must be nonempty strings"),
        (["a"], [1], "field 'ground_truth' entries must be nonempty strings"),
        (["x"], [["x"]], "field 'ground_truth' entries must be nonempty strings"),
        (["a"], "a", "field 'ground_truth' must be an array of strings"),
    ],
)
def test_interned_values_do_not_hide_a_bad_line(cached, value, message):
    # Equal valid arrays share one set within a load; a later bad value
    # that looks like a cached one must still be rejected with its own line.
    text = "\n".join([
        line(sample_id="s1", predicted=cached, ground_truth=cached),
        line(sample_id="s2", ground_truth=cached, conditions=cached),
        line(sample_id="s3", ground_truth=value),
    ])
    with pytest.raises(LogFormatError) as err:
        load_log(text)
    assert str(err.value) == f"line 3: {message}"


def test_equal_set_values_are_shared_within_a_load():
    log = load_log(line(sample_id="s1", predicted=["a"]) + "\n" + line(sample_id="s2", ground_truth=["a"]))
    assert log.records[0].predicted is log.records[1].ground_truth


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sample_id": "s1"} x', "Extra data"),
        ("\ufeff" + line(), "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("{nope", "Expecting property name enclosed in double quotes"),
    ],
)
def test_malformed_json_messages(text, message):
    with pytest.raises(LogFormatError) as err:
        load_log(text)
    assert str(err.value) == f"line 1: malformed JSON ({message})"


def test_duplicate_json_key_rejected():
    # The last key used to win: this line loaded as sample r9.
    text = line() + "\n" + line(sample_id="r1")[:-1] + ', "sample_id": "r9"}'
    with pytest.raises(LogFormatError, match="line 2: duplicate key 'sample_id'"):
        load_log(text)


def test_non_object_line_rejected():
    with pytest.raises(LogFormatError, match="line 1"):
        load_log("[1, 2]")


def test_empty_string_entry_rejected():
    with pytest.raises(LogFormatError, match="nonempty"):
        load_log(line(predicted=[""]))
    with pytest.raises(LogFormatError, match="nonempty"):
        load_log(line(sample_id=""))


def test_blank_lines_are_skipped():
    text = line() + "\n\n" + line(sample_id="s2") + "\n"
    assert len(load_log(text)) == 2


def test_absent_distribution_is_default():
    log = load_log(line() + "\n" + line(sample_id="s2", distribution="default"))
    assert {r.distribution for r in log} == {DEFAULT_DISTRIBUTION}
    # Explicit "default" and absent are the same record value.
    assert log.records[0].distribution == log.records[1].distribution


def test_record_order_preserved():
    text = "\n".join(line(sample_id=f"s{i}") for i in range(5))
    assert [r.sample_id for r in load_log(text)] == [f"s{i}" for i in range(5)]


# str.splitlines() also breaks lines at these; a text-mode file does not.
SPLITLINES_ONLY = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _fields(r: PredictionRecord) -> tuple:
    return (r.sample_id, r.model_id, r.predicted, r.ground_truth, r.conditions, r.distribution)


def _load_outcome(load, source):
    try:
        return [_fields(r) for r in load(source)]
    except LogFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("char", SPLITLINES_ONLY, ids=ascii)
@pytest.mark.parametrize("where", ["in an id", "between objects"])
@pytest.mark.parametrize("last", ["", "\nnot json"], ids=["", "bad last line"])
def test_text_splits_lines_as_a_file_does(tmp_path, char, where, last):
    if where == "in an id":
        text = line(sample_id="s1") + "\n" + line(sample_id="s@2").replace("@", char)
    else:
        text = line(sample_id="s1") + char + line(sample_id="s2")
    text += "\r\n" + line(sample_id="s3") + "\r" + line(sample_id="s4") + last
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    got = _load_outcome(load_log, text)
    assert got == _load_outcome(load_log_file, path)
    if where == "between objects":
        assert got == "line 1: malformed JSON (Extra data)"
    elif char in "\u2028\u2029\x85":  # legal raw in a JSON string
        assert got == ("line 5: malformed JSON (Expecting value)" if last
                       else [(f"s{i}", "m", frozenset(), frozenset(), frozenset(), DEFAULT_DISTRIBUTION)
                             for i in ("1", f"{char}2", "3", "4")])
    else:
        assert got.startswith("line 2: malformed JSON (Invalid control character at")


# ---------------------------------------------------------------------------
# Canonical lines: a tail that an earlier line validated is not parsed again.
# Build these with serialize_log; line() writes ": " separators, which never
# take that path.
# ---------------------------------------------------------------------------

TAILS = [
    dict(predicted={"a"}, ground_truth={"a"}, conditions=set()),
    dict(predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
    dict(predicted=set(), ground_truth={"b"}, conditions={"c1", "c2"}, distribution="d1"),
]


def canonical_lines(n, tails=TAILS):
    log = make_log(*(rec(f"s{i}", **tails[i % len(tails)]) for i in range(n)))
    return log, serialize_log(log).splitlines()


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    parse = logs_module._parse_record

    def counted(obj, lineno, interned):
        calls.append(lineno)
        return parse(obj, lineno, interned)

    monkeypatch.setattr(logs_module, "_parse_record", counted)
    return calls


def test_repeated_tails_are_parsed_once(parse_calls):
    log, lines = canonical_lines(100)
    assert load_log("\n".join(lines)) == log
    assert parse_calls == [1, 2, 3]


def test_empty_id_on_a_cached_tail_rejected():
    _, lines = canonical_lines(2, TAILS[:1])
    lines[1] = lines[1].replace('"sample_id":"s1"', '"sample_id":""')
    with pytest.raises(LogFormatError) as err:
        load_log("\n".join(lines))
    assert str(err.value) == "line 2: field 'sample_id' must be a nonempty string"


def test_tail_with_a_second_sample_id_is_never_cached(parse_calls):
    _, lines = canonical_lines(4, TAILS[:1])
    lines[2] = lines[2][:-1] + ',"sample_id":"r9"}'
    lines[3] = lines[3][:-1] + ',"sample_id":"r9"}'
    with pytest.raises(LogFormatError) as err:
        load_log("\n".join(lines))
    assert str(err.value) == "line 3: duplicate key 'sample_id'"
    assert parse_calls == [1]


@pytest.mark.parametrize("id_text", ['a\\"b', "\u00e9", "\\u00e9", "\\\\", "a\x01b", "\\ud800", "a\\x"])
def test_cached_tail_decodes_ids_like_json_loads(id_text):
    # Line 1 caches the tail; line 2 reuses it with an awkward id.
    _, lines = canonical_lines(1, TAILS[1:2])
    second = lines[0].replace('"s0"', f'"{id_text}"', 1)
    try:
        expected = json.loads(second)["sample_id"]
    except json.JSONDecodeError as exc:
        with pytest.raises(LogFormatError) as err:
            load_log(lines[0] + "\n" + second)
        assert str(err.value) == f"line 2: malformed JSON ({exc.msg})"
    else:
        assert load_log(lines[0] + "\n" + second).records[1].sample_id == expected


# ---------------------------------------------------------------------------
# Slicing and counting (LOG-A hand counts)
# ---------------------------------------------------------------------------

def test_slice_whole_model(log_a):
    assert len(slice_log(log_a, "m")) == 5
    assert slice_log(log_a, "m") == log_a


def test_slice_unknown_model_empty(log_a):
    assert len(slice_log(log_a, "other")) == 0


def test_slice_by_distribution():
    log = make_log(
        rec("s1", distribution="d1"),
        rec("s2", distribution="d2"),
        rec("s3", distribution="d1"),
    )
    assert [r.sample_id for r in slice_log(log, "m", "d1")] == ["s1", "s3"]
    assert len(slice_log(log, "m", "default")) == 0


def test_count_predicted(log_a):
    assert count(log_a, EventQuery.conjunction(predicted_has("a"))) == 3


def test_count_conjunction(log_a):
    q = EventQuery.conjunction(predicted_has("a"), truth_has("a"))
    assert count(log_a, q) == 2


def test_count_empty_query_is_record_count(log_a):
    assert count(log_a, EventQuery.match_all()) == 5


def test_count_disjunction(log_a):
    q = EventQuery.conjunction(predicted_has("a")).or_(
        EventQuery.conjunction(predicted_has("b"))
    )
    assert count(log_a, q) == 4  # r1, r2, r3, r4


def test_zero_clause_query_matches_nothing(log_a):
    assert count(log_a, EventQuery(())) == 0


def test_atom_field_validated():
    with pytest.raises(ValueError):
        Atom("nope", "x")


# ---------------------------------------------------------------------------
# Immutability
# ---------------------------------------------------------------------------

def test_log_and_records_frozen(log_a):
    with pytest.raises(AttributeError):
        log_a.records = ()
    with pytest.raises(AttributeError):
        log_a.records[0].predicted = frozenset()


def test_duplicate_key_rejected_on_direct_construction():
    with pytest.raises(LogFormatError):
        make_log(rec("s1"), rec("s1"))


def test_universes_match_record_unions(log_a):
    assert log_a.label_universe == {"a", "b"}
    assert log_a.condition_universe == {"c1"}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(logs_st())
def test_roundtrip_bit_exact(log):
    text = serialize_log(log)
    again = load_log(text)
    assert again == log
    assert all(_fields(a) == _fields(b) for a, b in zip(again, log))
    assert serialize_log(again) == text


def _serialize_oracle(log, separators=(",", ":")):
    """serialize_log as first written: one dict per record through
    ``JSONEncoder(separators=(",", ":"))``."""
    encode = json.JSONEncoder(separators=separators).encode
    lines = []
    for r in log:
        obj = {
            "sample_id": r.sample_id,
            "model_id": r.model_id,
            "predicted": sorted(r.predicted),
            "ground_truth": sorted(r.ground_truth),
            "conditions": sorted(r.conditions),
        }
        if r.distribution != DEFAULT_DISTRIBUTION:
            obj["distribution"] = r.distribution
        lines.append(encode(obj))
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("n, n_shapes", CHUNK_CASES)
def test_log_chunks_join_to_the_serialized_log(n, n_shapes):
    log = rows_log(n, n_shapes)
    assert (type(log.codes) is bytes) == (n_shapes <= 256)
    chunks = list(logs_module._log_chunks(log))
    # K lines per chunk, the last chunk the rest, no empty chunk.
    assert [chunk.count("\n") for chunk in chunks] == [min(K, n - start) for start in range(0, n, K)]
    assert "".join(chunks) == serialize_log(log) == _serialize_oracle(log)
    assert load_log(serialize_log(log)) == log


@given(logs_st())
def test_canonical_and_full_parse_load_the_same_log(log):
    # json.dumps's default ", "/": " separators never take the tail path.
    assert load_log(serialize_log(log)) == log
    assert load_log(_serialize_oracle(log, separators=(", ", ": "))) == log


# Quotes, backslashes, control characters and non-ASCII text, which the
# encoder escapes.
awkward_text_st = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    min_size=1,
    max_size=6,
)
awkward_sets_st = st.frozensets(awkward_text_st, max_size=3)
awkward_records_st = st.builds(
    PredictionRecord,
    awkward_text_st,
    st.sampled_from(("m", "n\u00e9", 'q"\\')),
    awkward_sets_st,
    awkward_sets_st,
    awkward_sets_st,
    st.one_of(st.just(DEFAULT_DISTRIBUTION), awkward_text_st),
)


@given(st.lists(awkward_records_st, max_size=8, unique_by=lambda r: r.key))
def test_serialize_log_matches_encoder_oracle(records):
    log = PredictionLog(tuple(records))
    text = serialize_log(log)
    assert text == _serialize_oracle(log)
    assert load_log(text) == log


@given(logs_st(), queries_st(), queries_st())
def test_inclusion_exclusion(log, q1, q2):
    union = count(log, q1.or_(q2))
    both = count(log, q1.and_(q2))
    assert union == count(log, q1) + count(log, q2) - both


@given(logs_st(), conjunctions_st())
def test_negation_partitions(log, q):
    assert count(log, q) + count(log, q.negated()) == len(log)


@given(logs_st())
def test_count_is_pure(log):
    q = EventQuery.conjunction(predicted_has("a"))
    assert count(log, q) == count(log, q)


def test_serialize_log_a_roundtrip_textually(log_a):
    # LOG-A's canonical serialization parses back to the same log.
    assert load_log(serialize_log(log_a)) == log_a
    assert load_log(LOG_A_TEXT) == log_a
