"""The column-first ``PredictionLog`` against a record-built reference.

A log holds sample ids, a shape code per row and a shape table; every
operation that builds one (``load_log``, ``PredictionLog(records)``,
``apply_rules``, ``generate``, ``random_log``) must give the log that the
records of ``record_log`` describe: the same records, index, universes,
serialization, equality and hash, however the shapes are numbered.
"""

import copy
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import record_log
import synth_oracle
from errata import (
    DEFAULT_DISTRIBUTION,
    ConditionBody,
    CorrectionRule,
    DetectionRule,
    PredictionLog,
    PredictionRecord,
    RuleSet,
    SynthConfig,
    UnknownConditionError,
    apply_rules,
    generate,
    load_log,
    random_log,
    serialize_log,
)
from record_log import INDEX_FIELDS, RecordLog
from test_synth import synth_configs_st

MODELS = ("m", "n", "pé")
LABELS = ("a", "b", "c", "d")
CONDITIONS = ("c1", "c2", "c3", "c4")
TAGS = (DEFAULT_DISTRIBUTION, "d1", "d2")


def _subset(rng, items):
    return frozenset(item for item in items if rng.random() < 0.4)


def _records(n_shapes, n_extra, seed):
    """Rows over ``n_shapes`` distinct shapes, each shape on at least one
    row, in a shuffled order; sample ids repeat across models."""
    rng = random.Random(seed)
    shapes, seen = [], set()
    while len(shapes) < n_shapes:
        shape = (rng.choice(MODELS), _subset(rng, LABELS), _subset(rng, LABELS),
                 _subset(rng, CONDITIONS), rng.choice(TAGS))
        if shape not in seen:
            seen.add(shape)
            shapes.append(shape)
    rows = shapes + [rng.choice(shapes) for _ in range(n_extra if shapes else 0)]
    rng.shuffle(rows)
    records, keys = [], set()
    for i, shape in enumerate(rows):
        sample_id = f"s{i % max(1, len(rows) // 2)}"
        if (sample_id, shape[0]) in keys:
            sample_id = f"t{i}"
        keys.add((sample_id, shape[0]))
        records.append(PredictionRecord(sample_id, *shape))
    return records


@st.composite
def record_lists_st(draw):
    n_shapes = draw(st.one_of(st.integers(0, 12), st.integers(250, 300)))
    return _records(n_shapes, draw(st.integers(0, 40)), draw(st.integers(0, 2**32 - 1)))


def _line(record, style):
    """One JSONL line for a record: canonical (as ``serialize_log`` writes
    it), with spaced separators, with its keys reversed and the default tag
    written out, or canonical inside blanks."""
    canonical = record_log.serialize(RecordLog((record,))).rstrip("\n")
    if style == 0:
        return canonical
    obj = json.loads(canonical)
    if style == 1:
        return json.dumps(obj)
    if style == 2:
        obj.setdefault("distribution", DEFAULT_DISTRIBUTION)
        return json.dumps(dict(reversed(list(obj.items()))), separators=(",", ":"))
    return " \t" + canonical + "  "


def _render(records, seed):
    rng = random.Random(seed)
    parts = []
    for record in records:
        if rng.random() < 0.1:
            parts.append(rng.choice(["", "   "]) + rng.choice(["\n", "\r\n", "\r"]))
        parts.append(_line(record, rng.choice([0, 0, 0, 1, 2, 3])) + rng.choice(["\n", "\r\n", "\r"]))
    return "".join(parts)


def assert_matches(log: PredictionLog, ref: RecordLog) -> None:
    assert len(log) == len(ref.records)
    assert isinstance(log.codes, bytes) == (len(log.shapes) <= 256)
    assert {name: getattr(log.index, name) for name in INDEX_FIELDS} == ref.index()
    assert log.index.all == (1 << len(ref.records)) - 1
    assert (log.label_universe, log.condition_universe, log.distribution_universe) == ref.universes()
    assert serialize_log(log) == record_log.serialize(ref)
    twin = PredictionLog(ref.records)
    assert log == twin and twin == log and hash(log) == hash(twin)
    for copied in (copy.copy(log), pickle.loads(pickle.dumps(log))):
        assert copied.records == ref.records
    assert log.records == ref.records


@given(record_lists_st(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_load_log_matches_the_record_reference(records, style_seed):
    text = _render(records, style_seed)
    ref = record_log.parse(text)
    assert ref.records == tuple(records)
    log = load_log(text)
    assert_matches(log, ref)
    again = load_log(serialize_log(log))
    assert again == log and hash(again) == hash(log)


@pytest.mark.parametrize("n_shapes", [1, 256, 257, 600])
def test_both_index_paths_match_the_record_reference(n_shapes):
    records = _records(n_shapes, n_shapes, seed=n_shapes)
    log = load_log(_render(records, seed=n_shapes))
    assert len(log.shapes) == n_shapes
    assert_matches(log, RecordLog(tuple(records)))


_CHANGES = ("none", "swap two rows", "drop a row", "rename a row", "relabel a row", "retag a row")


@given(record_lists_st(), st.sampled_from(_CHANGES), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_equality_and_hash_follow_the_records(records, change, seed):
    rng = random.Random(seed)
    other = list(records)
    if other and change != "none":
        i, j = rng.randrange(len(other)), rng.randrange(len(other))
        r = other[i]
        if change == "swap two rows":
            other[i], other[j] = other[j], other[i]
        elif change == "drop a row":
            del other[i]
        elif change == "rename a row":
            other[i] = PredictionRecord("renamed", r.model_id, r.predicted, r.ground_truth,
                                        r.conditions, r.distribution)
        elif change == "relabel a row":
            other[i] = PredictionRecord(r.sample_id, r.model_id, r.predicted ^ {"a"},
                                        r.ground_truth, r.conditions, r.distribution)
        else:
            other[i] = PredictionRecord(r.sample_id, r.model_id, r.predicted, r.ground_truth,
                                        r.conditions, "d9")
    mine = PredictionLog(records)
    theirs = load_log(_render(other, seed))  # numbers its shapes in its own order
    assert (mine == theirs) == (records == other) == (theirs == mine)
    if records == other:
        assert hash(mine) == hash(theirs)


def _rules_st(models, labels, conditions):
    detections = st.lists(st.builds(
        DetectionRule, st.sampled_from(models), st.sampled_from(labels),
        st.sets(st.sampled_from(conditions), min_size=1, max_size=2).map(ConditionBody),
    ), max_size=4)
    pairs = st.frozensets(st.tuples(st.sampled_from(conditions), st.sampled_from(labels)),
                          min_size=1, max_size=3)
    corrections = st.lists(st.builds(
        CorrectionRule, st.sampled_from(models), st.sampled_from(labels), pairs,
    ), max_size=3)
    return st.builds(RuleSet, detections.map(tuple), corrections.map(tuple))


@given(record_lists_st(), _rules_st(MODELS + ("x",), LABELS + ("e",), CONDITIONS))
@example(  # s1's shape after the erasure equals the untouched s2's
    [PredictionRecord("s1", "m", frozenset("ab"), frozenset("b"), frozenset(["c1"])),
     PredictionRecord("s2", "m", frozenset("b"), frozenset("b"), frozenset(["c1"]))],
    RuleSet((DetectionRule("m", "a", ConditionBody.of("c1")),)),
)
@example(  # the correction proposes b, which s1 still predicts: no addition
    [PredictionRecord("s1", "m", frozenset("ab"), frozenset("b"), frozenset(["c1"]))],
    RuleSet((DetectionRule("m", "a", ConditionBody.of("c1")),),
            (CorrectionRule("m", "b", {("c1", "a")}),)),
)
@settings(max_examples=80, deadline=None)
def test_apply_rules_matches_the_record_reference(records, rules):
    log = PredictionLog(records)
    needed = {c for d in rules.detections for c in d.body.condition_ids}
    needed |= {c for r in rules.corrections for c, _ in r.pairs}
    if not needed <= log.condition_universe:
        with pytest.raises(UnknownConditionError):
            apply_rules(log, rules)
        return
    after, trace = apply_rules(log, rules)
    ref_after, ref_touched = record_log.apply(RecordLog(tuple(records)), rules)
    assert_matches(after, ref_after)
    assert [(e.sample_id, e.model_id, e.erased, e.added, e.conflict) for e in trace.touched] == ref_touched
    assert log.records == tuple(records)  # the input is unchanged


@pytest.mark.parametrize(
    "configs",
    [
        pytest.param(synth_configs_st(), id="any"),
        pytest.param(synth_configs_st(max_records=600, min_planted=8, max_planted=10),
                     id="hundreds of shapes"),
    ],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_generate_matches_the_record_reference(configs, data):
    cfg = SynthConfig.from_dict(data.draw(configs))
    log, _ = generate(cfg)
    assert_matches(log, RecordLog(synth_oracle.generate(cfg)[0].records))
    again = load_log(serialize_log(log))  # numbers its shapes in line order
    assert again == log and hash(again) == hash(log)


@given(
    seed=st.integers(0, 2**64 - 1),
    max_records=st.integers(1, 300),
    max_labels=st.integers(1, 6),
    max_conditions=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_random_log_matches_the_record_reference(seed, max_records, max_labels, max_conditions):
    bounds = (seed, max_records, max_labels, max_conditions)
    assert_matches(random_log(*bounds), RecordLog(synth_oracle.random_log(*bounds).records))
