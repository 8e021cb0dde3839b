import dataclasses
import json

import pytest
from hypothesis import given

from conftest import LOG_A_TEXT, conjunctions_st, logs_st, make_log, queries_st, rec
from errata import DEFAULT_DISTRIBUTION, LogFormatError, load_log, serialize_log
from event_oracle import Atom, EventQuery, count, predicted_has, truth_has


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


# ---------------------------------------------------------------------------
# Slicing and counting (LOG-A hand counts)
# ---------------------------------------------------------------------------

def test_slice_whole_model(log_a):
    assert len(log_a.slice("m")) == 5
    assert log_a.slice("m") == log_a


def test_slice_unknown_model_empty(log_a):
    assert len(log_a.slice("other")) == 0


def test_slice_by_distribution():
    log = make_log(
        rec("s1", distribution="d1"),
        rec("s2", distribution="d2"),
        rec("s3", distribution="d1"),
    )
    assert [r.sample_id for r in log.slice("m", "d1")] == ["s1", "s3"]
    assert len(log.slice("m", "default")) == 0


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
    with pytest.raises(dataclasses.FrozenInstanceError):
        log_a.records = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
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
    assert all(dataclasses.asdict(a) == dataclasses.asdict(b) for a, b in zip(again, log))
    assert serialize_log(again) == text


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
