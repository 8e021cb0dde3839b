import json
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import synth_oracle
from errata.logs import _strict_json
from errata.synth import _JUMPS, MAX_RECORDS, _class_precision, _fuzz_draws
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
    assert str(err.value) == "synth config: duplicate key 'seed'"
    nested = json.dumps(base_config()).replace('"weight": 1}', '"weight": 1, "weight": 0}')
    with pytest.raises(SynthConfigError, match="duplicate key 'weight'"):
        _strict_json(nested, "synth config", SynthConfigError)


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


@pytest.mark.parametrize("bounds", [(2**32, 4, 3), (30, 2**40, 3), (30, 4, 2**32 - 1)])
def test_fuzz_draws_leave_draws_past_32_bits_to_fuzz_draw(bounds):
    # numpy draws these bounds with a full 32- or 64-bit word, not Lemire's.
    n, k, m, redraw, rounds = _fuzz_draws(np.array(EDGE_SEEDS, np.uint64), *bounds)
    assert redraw.all() and list(rounds) == []
