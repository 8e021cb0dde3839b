from fractions import Fraction

import pytest

from errata.synth import MAX_RECORDS
from errata import (
    ConditionBody,
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


def test_config_rejects_bad_priors():
    with pytest.raises(SynthConfigError, match="sum"):
        SynthConfig.from_dict(base_config(class_priors={"a": "1/2", "b": "1/3"}))


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


def test_config_caps_n_records_before_drawing():
    with pytest.raises(SynthConfigError, match=f"n_records must be at most {MAX_RECORDS}"):
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


def test_random_log_rejects_bad_bounds():
    with pytest.raises(ValueError):
        random_log(1, max_records=0)
