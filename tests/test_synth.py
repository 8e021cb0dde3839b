import importlib
import json
import sys
from bisect import bisect
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import synth_oracle
from errata.logs import _strict_json
from errata import synth
from errata.draws import _INT_LANES, _JUMPS, _LANES, _Stream, _fuzz_draws, _pool, _seeded, _uniforms
from errata.synth import (
    _INT_DRAWS,
    MAX_RECORDS,
    _clamped,
    _class_precision,
    _cumulative,
    _draw_arrays,
    _draw_ints,
    _mark_probabilities,
    _Plan,
)
from errata import (
    ConditionBody,
    InputError,
    SynthConfig,
    SynthConfigError,
    Verdict,
    generate,
    invariance_profile,
    load_log,
    random_log,
    serialize_log,
)


def base_config(**overrides):
    obj = {
        "seed": 7,
        "n_records": 400,
        "model_id": "m",
        "labels": ["a", "b"],
        "class_priors": {"a": "1/2", "b": "1/2"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [{"predicted": ["a"], "weight": "1/2"}, {"predicted": ["b"], "weight": "1/2"}],
        },
        "planted_conditions": [
            {
                "condition_id": "c1",
                "target_class": "a",
                "target_support": "1/4",
                "target_confidence": "9/10",
            }
        ],
        "distributions": [],
    }
    obj.update(overrides)
    return obj


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = SynthConfig.from_dict(base_config())
    again = SynthConfig.from_dict(cfg.to_dict())
    assert again == cfg


def _weights(draw, k):
    """k nonnegative rationals summing to 1."""
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return [Fraction(w, sum(raw)) for w in raw]


def _text(draw, value: Fraction):
    """``value`` as a config may spell it: "num/den" text, an int, or a
    float whose shortest decimal is exact."""
    forms = [f"{value.numerator}/{value.denominator}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    elif Fraction(str(float(value))) == value:
        forms.append(float(value))
    return draw(st.sampled_from(forms))


@st.composite
def synth_configs_st(draw, max_records=40, min_planted=0, max_planted=6):
    """Valid synth configs in their JSON shape: zero-prior labels, empty and
    repeated predicted sets, zero-weight confusion rows, distribution tags
    with confidence overrides, and planted targets scaled to be satisfiable."""
    labels = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True))
    priors = [_text(draw, w) for w in _weights(draw, len(labels))]
    predicted_pool = draw(st.lists(st.sets(st.sampled_from(labels)), min_size=1, max_size=3))
    confusion = {}
    for label in labels:
        n_rows = draw(st.integers(1, 3))
        confusion[label] = [
            {"predicted": sorted(draw(st.sampled_from(predicted_pool))), "weight": _text(draw, w)}
            for w in _weights(draw, n_rows)
        ]
    obj = {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "n_records": draw(st.integers(1, max_records)),
        "model_id": "m",
        "labels": labels,
        "class_priors": dict(zip(labels, priors)),
        "confusion": confusion,
    }
    shape = SynthConfig.from_dict(obj)
    planted = []
    for j in range(draw(st.integers(min_planted, max_planted))):
        target = draw(st.sampled_from(labels))
        precision = _class_precision(shape, target)
        # Any confidence is satisfiable once support is at most the class's
        # error rate and its precision.
        room = 0 if precision is None else min(precision, 1 - precision)
        planted.append({
            "condition_id": f"c{j + 1}",
            "target_class": target,
            "target_support": _text(draw, room * Fraction(draw(st.integers(0, 4)), 4)),
            "target_confidence": _text(draw, Fraction(draw(st.integers(0, 10)), 10)),
        })
    obj["planted_conditions"] = planted
    if draw(st.booleans()):
        tags = draw(st.lists(st.sampled_from(["d1", "d2", "d3"]), min_size=1, unique=True))
        obj["distributions"] = [
            {
                "tag": tag,
                "record_fraction": _text(draw, w),
                "confidence_override": {
                    pc["condition_id"]: _text(draw, Fraction(draw(st.integers(0, 4)), 4))
                    for pc in planted
                    if draw(st.booleans())
                },
            }
            for tag, w in zip(tags, _weights(draw, len(tags)))
        ]
    return obj


@given(synth_configs_st())
def test_config_roundtrip_property(obj):
    cfg = SynthConfig.from_dict(obj)
    assert SynthConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_bad_priors():
    with pytest.raises(SynthConfigError, match="sum"):
        SynthConfig.from_dict(base_config(class_priors={"a": "1/2", "b": "1/3"}))


_PLANTED_C1 = {"condition_id": "c1", "target_class": "a", "target_support": "1/4",
               "target_confidence": "9/10"}


@pytest.mark.parametrize("change, message", [
    ({"seed": -1}, "seed: must be nonnegative"),
    ({"n_records": 0}, "n_records: must be at least 1"),
    ({"labels": ["a", "b", "a"]}, "labels: must be nonempty and unique"),
    ({"class_priors": {"a": "1/2", " b": "1/2"}}, "class_priors: prior for unknown label ' b'"),
    ({"class_priors": {"a": "3/2", "b": "-1/2"}}, "class_priors: prior for 'a' outside [0, 1]"),
    ({"class_priors": {"a": "0", "b": "0"}}, "class_priors: priors sum to 0, not 1"),
    ({"confusion": {"a": [{"predicted": ["a"], "weight": 1}]}},
     "confusion: label 'b' has prior mass but no row"),
    ({"planted_conditions": [_PLANTED_C1, _PLANTED_C1]},
     "planted_conditions[1]: condition id 'c1' empty or repeated"),
    ({"planted_conditions": [{**_PLANTED_C1, "target_support": "5/4"}]},
     "planted_conditions[0].target_support: condition 'c1' outside [0, 1]"),
    ({"distributions": [{"tag": "d1", "record_fraction": "1/2"}]},
     "distributions: fractions sum to 1/2, not 1"),
    ({"distributions": [{"tag": "d1", "record_fraction": 1, "confidence_override": {"c1": 2}}]},
     "distributions[0].confidence_override: override for 'c1' under 'd1' outside [0, 1]"),
    ({"planted_conditions": [{**_PLANTED_C1, "target_class": "b"}]},
     "planted_conditions[0]: condition 'c1' under 'default': target confidence 9/10 needs"
     " errors, but the confusion yields none for 'b'"),
])
def test_config_value_errors_name_their_key_path(change, message):
    # Found by the synth config fuzz test: these named no key.
    with pytest.raises(SynthConfigError) as caught:
        generate(SynthConfig.from_dict(base_config(**change)))
    assert str(caught.value) == message


def test_config_rejects_unknown_label():
    cfg = base_config()
    cfg["planted_conditions"][0]["target_class"] = "zz"
    with pytest.raises(SynthConfigError, match="unknown class"):
        SynthConfig.from_dict(cfg)


def test_config_rejects_bad_confusion_row():
    cfg = base_config()
    cfg["confusion"]["a"] = [{"predicted": ["a"], "weight": "2/3"}]
    with pytest.raises(SynthConfigError, match="sums to"):
        SynthConfig.from_dict(cfg)


def test_config_rejects_duplicate_tags():
    cfg = base_config(
        distributions=[
            {"tag": "d1", "record_fraction": "1/2"},
            {"tag": "d1", "record_fraction": "1/2"},
        ]
    )
    with pytest.raises(SynthConfigError, match="unique"):
        SynthConfig.from_dict(cfg)


def test_config_rejects_override_for_unknown_condition():
    cfg = base_config(
        distributions=[
            {"tag": "d1", "record_fraction": "1", "confidence_override": {"zz": "0"}},
        ]
    )
    with pytest.raises(SynthConfigError, match="unknown condition"):
        SynthConfig.from_dict(cfg)


def test_config_rejects_nonpositive_records():
    with pytest.raises(SynthConfigError):
        SynthConfig.from_dict(base_config(n_records=0))


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("seed", True), ("n_records", "5"), ("n_records", 5.0), ("n_records", False)],
)
def test_config_integer_fields_are_strict(key, value):
    with pytest.raises(SynthConfigError) as err:
        SynthConfig.from_dict(base_config(**{key: value}))
    assert str(err.value) == f"{key}: expected an integer, got {value!r}"


def _with_value(path, value):
    cfg = base_config(distributions=[{"tag": "d1", "record_fraction": 1, "confidence_override": {}}])
    target = cfg
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "path, value, message",
    [
        # A string used to be split into one-letter labels, and the run went on.
        (("labels",), "ab", "labels: expected an array of nonempty strings, got 'ab'"),
        (("labels",), ["a", 2], "labels: expected an array of nonempty strings, got ['a', 2]"),
        (("confusion", "a", 0, "predicted"), "ab",
         "confusion.a[0].predicted: expected an array of nonempty strings, got 'ab'"),
        (("confusion", "b", 1, "predicted"), [""],
         "confusion.b[1].predicted: expected an array of nonempty strings, got ['']"),
        # A number used to end in a TypeError traceback.
        (("model_id",), 5, "model_id: expected a nonempty string, got 5"),
        (("distributions", 0, "tag"), 3, "distributions[0].tag: expected a nonempty string, got 3"),
        (("planted_conditions", 0, "condition_id"), ["c1"],
         "planted_conditions[0].condition_id: expected a nonempty string, got ['c1']"),
        (("planted_conditions", 0, "target_class"), None,
         "planted_conditions[0].target_class: expected a nonempty string, got None"),
    ],
)
def test_config_string_fields_are_strict(path, value, message):
    with pytest.raises(SynthConfigError) as err:
        SynthConfig.from_dict(_with_value(path, value))
    assert str(err.value) == message


def _with_typo(path, key="typo"):
    cfg = base_config(distributions=[{"tag": "d1", "record_fraction": 1, "confidence_override": {}}])
    target = cfg
    for step in path:
        target = target[step]
    target[key] = 1
    return cfg


@pytest.mark.parametrize(
    "path, key, message",
    [
        ((), "extra", "unknown key 'extra'"),
        ((), "planted_conditons", "unknown key 'planted_conditons'"),
        (("confusion", "a", 0), "typo", "confusion.a[0]: unknown key 'typo'"),
        (("confusion", "b", 1), "typo", "confusion.b[1]: unknown key 'typo'"),
        (("planted_conditions", 0), "target_suport", "planted_conditions[0]: unknown key 'target_suport'"),
        (("distributions", 0), "fraction", "distributions[0]: unknown key 'fraction'"),
    ],
)
def test_config_rejects_unknown_keys(path, key, message):
    # Each of these used to be ignored: a misspelled "planted_conditons"
    # silently gave a log with no planted conditions.
    with pytest.raises(SynthConfigError) as err:
        SynthConfig.from_dict(_with_typo(path, key))
    assert str(err.value) == message


def test_config_names_the_first_unknown_key():
    with pytest.raises(SynthConfigError) as err:
        SynthConfig.from_dict(base_config(zeta=1, extra=2))
    assert str(err.value) == "unknown key 'extra'"


def test_config_text_rejects_repeated_keys():
    # The last value used to win: "seed": 1, "seed": 2 ran as seed 2.
    text = json.dumps(base_config(seed=1))[:-1] + ', "seed": 2}'
    with pytest.raises(SynthConfigError) as err:
        _strict_json(text, "synth config", SynthConfigError)
    assert str(err.value) == "synth config: line 1: duplicate key 'seed'"
    nested = json.dumps(base_config()).replace('"weight": 1}', '"weight": 1, "weight": 0}')
    with pytest.raises(SynthConfigError, match="duplicate key 'weight'"):
        _strict_json(nested, "synth config", SynthConfigError)


def test_config_caps_n_records_before_drawing():
    with pytest.raises(SynthConfigError, match=f"^n_records: must be at most {MAX_RECORDS}$"):
        SynthConfig.from_dict(base_config(n_records=1_000_000_000_000))
    assert SynthConfig.from_dict(base_config(n_records=MAX_RECORDS)).n_records == MAX_RECORDS


# ---------------------------------------------------------------------------
# Unsatisfiable targets
# ---------------------------------------------------------------------------

def test_unsatisfiable_support_confidence_rejected():
    """support × confidence can never exceed the class error rate.

    With per-class precision 4/5, targets (support 1/2, confidence 9/10)
    would need P(mark | error) = 9/4 > 1; the generator must refuse.
    """
    cfg = base_config(
        confusion={
            "a": [{"predicted": ["a"], "weight": "4/5"}, {"predicted": ["b"], "weight": "1/5"}],
            "b": [{"predicted": ["b"], "weight": "4/5"}, {"predicted": ["a"], "weight": "1/5"}],
        },
        planted_conditions=[
            {
                "condition_id": "c1",
                "target_class": "a",
                "target_support": "1/2",
                "target_confidence": "9/10",
            }
        ],
    )
    with pytest.raises(SynthConfigError, match="c1"):
        generate(SynthConfig.from_dict(cfg))


def test_confidence_target_without_errors_rejected():
    cfg = base_config(
        confusion={
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [{"predicted": ["b"], "weight": 1}],
        },
    )
    with pytest.raises(SynthConfigError, match="errors"):
        generate(SynthConfig.from_dict(cfg))


def test_never_predicted_target_rejected():
    cfg = base_config(
        labels=["a", "b", "q"],
        planted_conditions=[
            {
                "condition_id": "c1",
                "target_class": "q",
                "target_support": "1/4",
                "target_confidence": "1/2",
            }
        ],
    )
    with pytest.raises(SynthConfigError, match="never predicted"):
        generate(SynthConfig.from_dict(cfg))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_generate_deterministic():
    cfg = SynthConfig.from_dict(base_config())
    log1, book1 = generate(cfg)
    log2, book2 = generate(cfg)
    assert log1 == log2
    assert serialize_log(log1) == serialize_log(log2)
    assert book1 == book2


def test_generate_single_record():
    cfg = SynthConfig.from_dict(base_config(n_records=1))
    log, book = generate(cfg)
    assert len(log) == 1
    row = book.for_condition("c1")
    assert row.support.value in (None, Fraction(0), Fraction(1))
    assert row.confidence.value in (None, Fraction(0), Fraction(1))


def test_generated_log_passes_validation():
    cfg = SynthConfig.from_dict(base_config())
    log, _ = generate(cfg)
    assert load_log(serialize_log(log)) == log


def test_generate_realized_statistics_near_targets():
    """n = 10,000 with targets support 1/2, confidence 9/10 on a model whose
    pooled (micro) precision is 4/5 while the planted class's own precision
    is 1/2; binomial concentration keeps realizations within 0.05."""
    cfg = SynthConfig.from_dict(
        {
            "seed": 20240807,
            "n_records": 10000,
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
                {
                    "condition_id": "c1",
                    "target_class": "a",
                    "target_support": "1/2",
                    "target_confidence": "9/10",
                }
            ],
        }
    )
    log, book = generate(cfg)
    row = book.for_condition("c1")
    assert abs(row.support.value - Fraction(1, 2)) < Fraction(5, 100)
    assert abs(row.confidence.value - Fraction(9, 10)) < Fraction(5, 100)
    # Pooled micro precision of the model sits at the configured 0.8.
    pred = sum(len(r.predicted) for r in log)
    correct = sum(len(r.predicted & r.ground_truth) for r in log)
    assert abs(Fraction(correct, pred) - Fraction(4, 5)) < Fraction(5, 100)


@pytest.mark.parametrize(
    "configs",
    [
        pytest.param(synth_configs_st(), id="any"),
        pytest.param(synth_configs_st(max_planted=0), id="no planted conditions"),
        pytest.param(synth_configs_st(min_planted=65, max_planted=70), id="over 64 planted"),
        pytest.param(synth_configs_st(max_records=1), id="one record"),
    ],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generate_matches_record_loop(configs, data):
    cfg = SynthConfig.from_dict(data.draw(configs))
    log, book = generate(cfg)
    ref_log, ref_book = synth_oracle.generate(cfg)
    assert serialize_log(log) == serialize_log(ref_log)
    assert book.to_dict() == ref_book.to_dict()


def _draws_config(n_records, planted, distributions):
    """base_config with ``planted`` copies of its condition (c1, c2, ...)
    and, if ``distributions``, two tags, the second overriding c1's
    confidence: n_records × (planted + 2 + distributions) uniforms."""
    override = {"c1": "0"} if planted else {}
    return base_config(
        seed=n_records, n_records=n_records,
        planted_conditions=[{**_PLANTED_C1, "condition_id": f"c{j + 1}"} for j in range(planted)],
        distributions=[{"tag": "d1", "record_fraction": "1/3"},
                       {"tag": "d2", "record_fraction": "2/3", "confidence_override": override}]
        if distributions else [],
    )


# Ten priors of 1/10 sum to 0.9999999999999999 in floats, so the prior
# table ends below 1.0; every truth but a has a confusion row that never
# predicts the planted class a.
_TEN_LABELS = list("abcdefghij")
_TEN_PRIORS = base_config(
    n_records=3000, labels=_TEN_LABELS, class_priors={label: "1/10" for label in _TEN_LABELS},
    confusion={"a": [{"predicted": ["a"], "weight": 1}],
               **{label: [{"predicted": ["a"], "weight": "1/3"}, {"predicted": [label], "weight": "2/3"}]
                  for label in _TEN_LABELS[1:]}},
)


def _assert_draw_paths_equal(obj):
    cfg = SynthConfig.from_dict(obj)
    plan = _Plan(cfg, _mark_probabilities(cfg))
    tags, codes, shapes, counts = _draw_ints(plan)
    want_tags, want_codes, want_shapes, want_counts = _draw_arrays(plan)
    assert (tags, shapes, counts) == (want_tags, want_shapes, want_counts)
    assert list(codes) == list(want_codes)  # uint8 codes, or a list past 256 shapes
    return plan, shapes


# 65,537 = _INT_DRAWS + 1 is prime, and every record draws at least two
# uniforms, so no config draws exactly one uniform past the bound.
@given(obj=st.one_of(
    synth_configs_st(),
    synth_configs_st(max_planted=0),
    synth_configs_st(min_planted=65, max_planted=70),
    synth_configs_st(max_records=600, min_planted=8, max_planted=10),
))
@example(obj=_draws_config(21845, 1, False))  # _INT_DRAWS - 1 uniforms
@example(obj=_draws_config(16384, 1, True))  # _INT_DRAWS
@example(obj=_draws_config(32768, 0, False))  # _INT_DRAWS
@example(obj=_draws_config(21846, 0, True))  # _INT_DRAWS + 2
@example(obj=_draws_config(300, 0, True))
@example(obj=_draws_config(300, 61, False))  # 3 cells << 61: the last keys in int64
@example(obj=_draws_config(300, 62, False))  # 3 cells << 62: the first past int64
@example(obj=_draws_config(300, 66, False))  # keys past int64
@example(obj=_draws_config(2000, 10, True))  # 391 shapes, past uint8 codes
@example(obj=_TEN_PRIORS)
@example(obj=base_config(labels=["a", "b", "c"], class_priors={"a": "1/3", "b": "1/3", "c": "1/3"},
                         confusion={**base_config()["confusion"],
                                    "c": [{"predicted": ["c"], "weight": 1}]}))  # c never predicts a
@example(obj=_draws_config(205, 3, False))  # 1,025 uniforms: _INT_LANES + 1
@example(obj=_draws_config(819, 3, False))  # 4,095: 4 × _INT_LANES - 1
@example(obj=_draws_config(683, 1, False))  # 2,049: 2 × _INT_LANES + 1
@settings(max_examples=60, deadline=None)
def test_draw_paths_give_the_same_log(obj):
    # generate takes _draw_ints up to _INT_DRAWS uniforms and _draw_arrays
    # above: each path is called here directly, whatever the size.
    _assert_draw_paths_equal(obj)


@given(weights=st.lists(st.integers(0, 5), min_size=1, max_size=12).filter(any), data=st.data())
@settings(max_examples=60, deadline=None)
def test_clamped_search_equals_the_array_paths(weights, data):
    # Both paths search the clamped table as it is, bisect on ints and
    # searchsorted on arrays: each equals the clamped search of the plain
    # table, so a uniform at or past its float total, which can end below
    # 1.0, lands in the last bin.
    fractions = [Fraction(w, sum(weights)) for w in weights]
    cum = _cumulative(fractions)
    x = data.draw(st.one_of(st.sampled_from(cum), st.floats(0, 1, exclude_max=True),
                            st.just(np.nextafter(cum[-1], 2.0))))
    want = np.minimum(np.searchsorted(cum, [x], side="right"), len(cum) - 1)[0]
    table = _clamped(fractions)
    assert bisect(table, x) == np.searchsorted(table, [x], side="right")[0] == want


@pytest.mark.parametrize("seed", [1, 977])
@pytest.mark.parametrize("workload, uniforms, many_shapes", [
    ("cli_pipeline", 50_000, False),  # 10k records: drawn on Python ints
    ("library_audit", 380_000, True),  # 20k records: drawn on arrays
])
def test_draw_paths_give_the_same_benchmark_logs(monkeypatch, workload, uniforms, many_shapes, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    module = importlib.import_module(workload)
    n_records = 10_000 if workload == "cli_pipeline" else 20_000
    plan, shapes = _assert_draw_paths_equal(module.synth_config(seed, n_records))
    assert plan.count == uniforms and (plan.count <= _INT_DRAWS) is (workload == "cli_pipeline")
    assert (len(shapes) > 256) is many_shapes


@pytest.mark.parametrize("seed", [1, 977])
def test_a_process_with_numpy_draws_small_logs_on_arrays(monkeypatch, seed):
    # This process has numpy (the module imports it), so generate draws even
    # a log under _INT_DRAWS uniforms on arrays, about ten times faster than
    # on ints; a fresh process keeps the int path (test_cli.py's
    # test_numpy_is_imported_only_to_draw).
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    cfg = SynthConfig.from_dict(importlib.import_module("cli_pipeline").synth_config(seed, 10_000))
    drawn = []
    monkeypatch.setattr(synth, "_draw_arrays", lambda plan: drawn.append(plan.count) or _draw_arrays(plan))
    monkeypatch.setattr(synth, "_draw_ints", None)
    log, book = generate(cfg)
    assert "numpy" in sys.modules and drawn == [50_000] and 50_000 <= _INT_DRAWS
    monkeypatch.setattr(synth, "_draw_arrays", _draw_ints)
    int_log, int_book = generate(cfg)
    assert serialize_log(log) == serialize_log(int_log)
    assert book.to_dict() == int_book.to_dict()


def test_bookkeeping_has_per_distribution_rows():
    cfg = SynthConfig.from_dict(
        base_config(
            n_records=600,
            distributions=[
                {"tag": "d1", "record_fraction": "1/2"},
                {"tag": "d2", "record_fraction": "1/2"},
            ],
        )
    )
    log, book = generate(cfg)
    assert {row.distribution for row in book.rows} == {None, "d1", "d2"}
    assert log.distribution_universe == {"d1", "d2"}


def test_invariance_witness_via_override():
    """Planted shift: the condition detects errors under d1 but marks only
    correct predictions under d2, so the profile must flag non-invariance."""
    cfg = SynthConfig.from_dict(
        base_config(
            seed=99,
            n_records=4000,
            distributions=[
                {"tag": "d1", "record_fraction": "1/2"},
                {"tag": "d2", "record_fraction": "1/2", "confidence_override": {"c1": "0"}},
            ],
        )
    )
    log, book = generate(cfg)
    profile = invariance_profile(log, "m", "a", ConditionBody.of("c1"))
    assert profile.row_for("d1").verdict is Verdict.YES
    assert profile.row_for("d2").verdict is Verdict.NO
    assert profile.invariant is False
    assert book.for_condition("c1", "d2").confidence.value == 0
    assert abs(book.for_condition("c1", "d1").confidence.value - Fraction(9, 10)) < Fraction(5, 100)


# ---------------------------------------------------------------------------
# random_log
# ---------------------------------------------------------------------------

def test_random_log_deterministic():
    a = random_log(7)
    b = random_log(7)
    assert a == b
    assert serialize_log(a) == serialize_log(b)


def test_random_log_respects_bounds():
    for seed in range(20):
        log = random_log(seed, max_records=30, max_labels=4, max_conditions=3)
        assert 1 <= len(log) <= 30
        assert log.label_universe <= {"a", "b", "c", "d"}
        assert log.condition_universe <= {"c1", "c2", "c3"}


def test_random_log_degenerate_bounds():
    log = random_log(3, max_records=1, max_labels=1, max_conditions=0)
    assert len(log) == 1
    assert log.condition_universe == frozenset()
    assert log.label_universe <= {"a"}


def test_random_log_distinct_seeds_validate():
    a, b = random_log(1), random_log(2)
    assert load_log(serialize_log(a)) == a
    assert load_log(serialize_log(b)) == b


@given(
    seed=st.integers(0, 2**64 - 1),
    max_records=st.integers(1, 40),
    max_labels=st.integers(1, 12),
    max_conditions=st.integers(0, 10),
)
@example(seed=2**64 - 1, max_records=30, max_labels=12, max_conditions=0)
@example(seed=2**63, max_records=1, max_labels=9, max_conditions=10)
@example(seed=2**64, max_records=30, max_labels=4, max_conditions=3)
@example(seed=2**200 + 3, max_records=30, max_labels=4, max_conditions=3)
# numpy rejects seed 40921's first Lemire draw at 69,921 records and draws again.
@example(seed=40921, max_records=69921, max_labels=1, max_conditions=1)
@settings(max_examples=150, deadline=None)
def test_random_log_matches_record_loop(seed, max_records, max_labels, max_conditions):
    bounds = (seed, max_records, max_labels, max_conditions)
    assert serialize_log(random_log(*bounds)) == serialize_log(synth_oracle.random_log(*bounds))


def test_random_log_rejects_bad_bounds():
    with pytest.raises(ValueError):
        random_log(1, max_records=0)


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_random_log_rejects_a_negative_seed_as_input_error(seed):
    # As sweep does, before numpy's generator sees the seed.
    with pytest.raises(InputError, match="^seed must be nonnegative$"):
        random_log(seed)


# ---------------------------------------------------------------------------
# Batched draws of the sweep, against numpy's own generator
# ---------------------------------------------------------------------------

def _numpy_draws(seed, max_records, max_labels, max_conditions):
    """n, k, m and the uniforms of ``_fuzz_draw``, drawn by numpy."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, max_records + 1))
    k, m = int(rng.integers(1, max_labels + 1)), int(rng.integers(0, max_conditions + 1))
    return n, k, m, rng.random(n * (2 * k + m))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
MANY_SEEDS = EDGE_SEEDS + list(range(2, 1000)) + np.random.default_rng(18).integers(
    0, 2**64, 2000, dtype=np.uint64, endpoint=False).tolist()


@pytest.mark.parametrize("bounds, seeds", [
    ((30, 4, 3), MANY_SEEDS),
    ((30, 3, 3), MANY_SEEDS),  # Lemire thresholds 2**32 % 30 and 2**32 % 3 are nonzero
    ((1, 1, 0), MANY_SEEDS),  # nothing drawn before the uniforms
    ((7, 1, 1), MANY_SEEDS[:500]),  # two draws: the first output's two halves
    ((1, 5, 2), MANY_SEEDS[:500]),
    ((5000, 2, 1), EDGE_SEEDS + list(range(2, 30))),  # up to 25,000 uniforms a trial
])
def test_fuzz_draws_equal_numpy_bit_for_bit(bounds, seeds):
    n, k, m, redraw, rounds = _fuzz_draws(np.array(seeds, np.uint64), *bounds)
    trials, index, uniforms = [], [], []
    for trial, at, drawn in rounds:
        assert np.bincount(trial).max() <= _JUMPS  # a trial's draws come in slices
        trials.append(trial), index.append(at), uniforms.append(drawn)
    trials, index, uniforms = map(np.concatenate, (trials, index, uniforms))
    order = np.lexsort((index, trials))
    sizes = np.bincount(trials, minlength=len(seeds))
    assert index[order].tolist() == [i for size in sizes.tolist() for i in range(size)]
    per_trial = np.split(uniforms[order], np.cumsum(sizes)[:-1])
    assert not redraw.any()  # a rejection has odds of at most 3 * 30 / 2**32 here
    for t, seed in enumerate(seeds):
        want_n, want_k, want_m, want = _numpy_draws(seed, *bounds)
        assert (n[t], k[t], m[t]) == (want_n, want_k, want_m)
        assert np.array_equal(per_trial[t].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bounds", [
    (1, 2**31 + 1, 0),  # 2**32 % bound = 2**31 - 1: about half of all first draws reject
    (2**32 - 1, 3, 2**31),  # 2**32 % (2**32 - 1) = 1, then a 2**31 - 1 threshold
    (2**31 + 1, 2**31 + 1, 2**31),  # three draws that each reject half the time
])
def test_fuzz_draws_flag_exactly_the_trials_numpy_redraws(bounds):
    # n, k and m only: at these bounds a trial has too many uniforms to draw.
    seeds = EDGE_SEEDS + list(range(2, 300))
    n, k, m, redraw, _ = _fuzz_draws(np.array(seeds, np.uint64), *bounds)
    assert 0 < redraw.sum() < len(seeds)
    drawn = sum(r > 1 for r in (bounds[0], bounds[1], bounds[2] + 1))  # 32-bit halves
    for t, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        heads = (int(rng.integers(1, bounds[0] + 1)), int(rng.integers(1, bounds[1] + 1)),
                 int(rng.integers(0, bounds[2] + 1)))
        # Without a rejection numpy uses exactly ``drawn`` halves, low half first.
        plain = np.random.PCG64(seed)
        plain.advance((drawn + 1) // 2)
        state = rng.bit_generator.state
        rejected = (state["state"], state["has_uint32"]) != (plain.state["state"], drawn % 2)
        assert bool(redraw[t]) == rejected
        if not rejected:
            assert (n[t], k[t], m[t]) == heads
        # _fuzz_draw's stream draws the same sizes, redrawn or not, and
        # leaves the same state and buffered half.
        assert _stream_sizes(seed, bounds) == (heads, _numpy_stream(state))


def _stream_sizes(seed, bounds):
    """n, k and m as ``_fuzz_draw`` draws them from its ``_Stream``, and the
    stream's state, increment and buffered half after them."""
    stream = _Stream(seed)
    sizes = (stream.integers(1, bounds[0] + 1), stream.integers(1, bounds[1] + 1),
             stream.integers(0, bounds[2] + 1))
    return sizes, (stream.state, stream.inc, stream.half)


def _numpy_stream(state):
    """A numpy PCG64 state dict as (state, inc, buffered half or None)."""
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


@pytest.mark.parametrize("bounds", [(2**32, 4, 3), (30, 2**40, 3), (30, 4, 2**32 - 1)])
def test_fuzz_draws_leave_draws_past_32_bits_to_fuzz_draw(bounds):
    # numpy draws these bounds with a full 32- or 64-bit word, not Lemire's.
    n, k, m, redraw, rounds = _fuzz_draws(np.array(EDGE_SEEDS, np.uint64), *bounds)
    assert redraw.all() and list(rounds) == []
    for seed in EDGE_SEEDS + list(range(2, 100)):
        rng = np.random.Generator(np.random.PCG64(seed))
        heads = (int(rng.integers(1, bounds[0] + 1)), int(rng.integers(1, bounds[1] + 1)),
                 int(rng.integers(0, bounds[2] + 1)))
        assert _stream_sizes(seed, bounds) == (heads, _numpy_stream(rng.bit_generator.state))


# ---------------------------------------------------------------------------
# Single streams (generate, random_log), against numpy's own generator
# ---------------------------------------------------------------------------

@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(2**64, 2**300), st.integers(0, 2**64 - 1)),
    # Lanes fill by doubling, then step _LANES states at a time.
    count=st.one_of(st.sampled_from([0, 1, 4094, 4095, 4096, _LANES - 1, _LANES, _LANES + 1]),
                    st.integers(2, 3 * _LANES + 7)),
)
@example(seed=2**64, count=3 * _LANES)
@example(seed=2**128 + 1, count=2 * _LANES + 1)
@settings(max_examples=80, deadline=None)
def test_stream_uniforms_equal_numpy_bit_for_bit(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    assert _pool(seed) == np.random.SeedSequence(seed).pool.tolist()
    assert _seeded(seed) == _numpy_stream(rng.bit_generator.state)[:2]
    got = _uniforms(*_seeded(seed), count)
    assert np.array_equal(got.view(np.uint64), rng.random(count).view(np.uint64))


@pytest.mark.parametrize("counts, seeds", [
    ((0, 1, 2), EDGE_SEEDS + [2**64, 2**100] + list(range(2, 300))),
    ((_LANES + 1,), EDGE_SEEDS + [2**64, 2**100]),  # past the array path's lanes
    # Around the int path's blocks of lanes, and the 10k chain's 50,000.
    ((_INT_LANES - 1, _INT_LANES, _INT_LANES + 1, 2 * _INT_LANES + 1, 50_000), EDGE_SEEDS + [2**64, 2**100]),
])
def test_stream_random_equals_numpy_bit_for_bit(counts, seeds):
    for seed, count in ((seed, count) for seed in seeds for count in counts):
        stream, rng = _Stream(seed), np.random.Generator(np.random.PCG64(seed))
        got = np.array(stream.random(count), np.float64)
        assert np.array_equal(got.view(np.uint64), rng.random(count).view(np.uint64))
        assert (stream.state, stream.inc, stream.half) == _numpy_stream(rng.bit_generator.state)


def test_stream_random_keeps_a_buffered_half_as_numpy_does():
    for seed in EDGE_SEEDS + list(range(2, 100)):
        stream, rng = _Stream(seed), np.random.Generator(np.random.PCG64(seed))
        # A 32-bit draw leaves its output's high half buffered; the uniforms
        # step past it, and the next 32-bit draw takes it.
        assert stream.integers(0, 5) == int(rng.integers(0, 5))
        assert stream.half is not None
        for count in (3, _INT_LANES + 5):  # within a block, then across two
            got = np.array(stream.random(count), np.float64)
            assert np.array_equal(got.view(np.uint64), rng.random(count).view(np.uint64))
            assert (stream.state, stream.inc, stream.half) == _numpy_stream(rng.bit_generator.state)
        assert stream.integers(0, 2**31 + 1) == int(rng.integers(0, 2**31 + 1))


@pytest.mark.parametrize("spans", [
    (2**32 - 1, 2**32, 2**32 + 1, 5),  # Lemire on halves, a whole half, 64-bit words, a half
    (2**31 + 1, 2**40, 2**31 + 1),  # rejected halves around a 64-bit draw
    (2**62 + 1, 2**63 - 1, 2**63, 1),  # 64-bit rejections; a range of one draws nothing
])
def test_stream_integers_equal_numpy(spans):
    for seed in EDGE_SEEDS + [2**64, 2**100] + list(range(2, 200)):
        rng, stream = np.random.Generator(np.random.PCG64(seed)), _Stream(seed)
        for i, span in enumerate(spans):
            low = i % 2  # each range ends at or below 2**63, as int64 bounds must
            assert stream.integers(low, low + span) == int(rng.integers(low, low + span))
        assert (stream.state, stream.inc, stream.half) == _numpy_stream(rng.bit_generator.state)
        # The uniforms go on from where the bounded draws left the stream.
        got = _uniforms(stream.state, stream.inc, 5)
        assert np.array_equal(got.view(np.uint64), rng.random(5).view(np.uint64))


def test_stream_integers_reject_a_bound_past_int64_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.Generator(np.random.PCG64(1)).integers(0, 2**63 + 1)
    with pytest.raises(ValueError):
        _Stream(1).integers(0, 2**63 + 1)
