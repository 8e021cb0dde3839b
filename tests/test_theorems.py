import json
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LOG_A_TEXT, labels_st, logs_st, make_log, rec
from errata import (
    ConditionBody,
    InputError,
    TheoremId,
    TheoremReport,
    TheoremVerdict,
    check_claim1,
    check_edns,
    check_precision_change,
    check_recall_reduction,
    check_reclassification_limit,
    check_residual,
    check_support_bound,
    joint_counts,
    load_log,
    random_log,
    sweep,
)
from errata import synth, theorems
from errata.cli import main
from errata.estimators import JointCounts
from errata.synth import condition_alphabet, label_alphabet
from errata.theorems import _VERDICTS, CHECKS, COLUMN_CHECKS
from theorem_oracle import oracle, reference_pairs, reference_sweep

BODY_C1 = ConditionBody.of("c1")
HOLDS = TheoremVerdict.HOLDS
SKIPPED = TheoremVerdict.SKIPPED
VIOLATED = TheoremVerdict.VIOLATED


# ---------------------------------------------------------------------------
# Precision-change identity (LOG-A frozen values)
# ---------------------------------------------------------------------------

def test_t1_log_a(log_a):
    rep = check_precision_change(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["lhs"] == Fraction(1, 3)
    assert rep.intermediates["rhs"] == Fraction(1, 3)
    assert rep.intermediates["k_factor"] == 2
    assert rep.intermediates["support"] == Fraction(2, 3)
    assert rep.intermediates["confidence"] == Fraction(1, 2)
    assert rep.intermediates["residual"] == Fraction(1, 3)


def test_t1_zero_support_holds(log_a):
    rep = check_precision_change(log_a, "m", "a", ConditionBody.of("cz"))
    assert rep.verdict is HOLDS
    assert rep.intermediates["lhs"] == 0
    assert rep.intermediates["rhs"] == 0
    assert rep.intermediates["k_factor"] == 0


def test_t1_support_one_skipped():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
    )
    rep = check_precision_change(log, "m", "a", BODY_C1)
    assert rep.verdict is SKIPPED
    assert "support is 1" in rep.skip_reason


def test_t1_never_predicted_skipped(log_a):
    rep = check_precision_change(log_a, "m", "zz", BODY_C1)
    assert rep.verdict is SKIPPED


def test_claim1_log_a(log_a):
    rep = check_claim1(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["expected_rule_precision"] == 1


# ---------------------------------------------------------------------------
# Error-detection equivalence
# ---------------------------------------------------------------------------

def test_t2_log_a(log_a):
    rep = check_edns(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.note == "error_detecting=YES"
    assert rep.intermediates["rule_precision"] >= rep.intermediates["precision"]


def test_t2_both_sides_false_holds():
    # Condition sits only on correct predictions, base precision < 1: the
    # condition is not error detecting and post-rule precision drops.
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}),
    )
    rep = check_edns(log, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.note == "error_detecting=NO"
    assert rep.intermediates["rule_precision"] < rep.intermediates["precision"]


def test_t2_zero_support_skipped(log_a):
    assert check_edns(log_a, "m", "a", ConditionBody.of("cz")).verdict is SKIPPED


# ---------------------------------------------------------------------------
# Recall-reduction identity
# ---------------------------------------------------------------------------

def test_t3_log_a(log_a):
    rep = check_recall_reduction(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["lhs"] == Fraction(1, 3)
    assert rep.intermediates["rhs"] == Fraction(1, 3)
    # The four factors of the right-hand side are all reported.
    assert rep.intermediates["correct_rate_under_body"] == Fraction(1, 2)
    assert rep.intermediates["support"] == Fraction(2, 3)
    assert rep.intermediates["recall"] == Fraction(2, 3)
    assert rep.intermediates["precision"] == Fraction(2, 3)


def test_t3_zero_support_holds(log_a):
    rep = check_recall_reduction(log_a, "m", "a", ConditionBody.of("cz"))
    assert rep.verdict is HOLDS
    assert rep.intermediates["lhs"] == 0 and rep.intermediates["rhs"] == 0


def test_t3_zero_precision_skipped():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}),
        rec("s3", predicted={}, ground_truth={"a"}),
    )
    rep = check_recall_reduction(log, "m", "a", BODY_C1)
    assert rep.verdict is SKIPPED
    assert "precision is zero" in rep.skip_reason


def test_t3_never_in_truth_skipped():
    log = make_log(rec("s1", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}))
    rep = check_recall_reduction(log, "m", "a", BODY_C1)
    assert rep.verdict is SKIPPED


# ---------------------------------------------------------------------------
# Reclassification limit
# ---------------------------------------------------------------------------

def test_t4_hypothesis_met_holds():
    # Pair precision 1/4 <= base 1/2: relabeling cannot raise pooled precision.
    records = [
        rec("d1", predicted={"d"}, ground_truth={"d"}),
        rec("d2", predicted={"d"}, ground_truth={"f"}),
    ] + [
        rec(
            f"t{i}",
            predicted={"t"},
            ground_truth={"d"} if i == 0 else {"f"},
            conditions={"c1"},
        )
        for i in range(4)
    ]
    rep = check_reclassification_limit(make_log(*records), "m", "t", "d", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["pair_precision"] == Fraction(1, 4)
    assert rep.intermediates["base_precision"] == Fraction(1, 2)
    assert rep.intermediates["combined_precision"] == Fraction(2, 6)
    assert rep.note is None


def test_t4_hypothesis_not_met_vacuous():
    records = [
        rec("d1", predicted={"d"}, ground_truth={"d"}),
        rec("d2", predicted={"d"}, ground_truth={"f"}),
        rec("t1", predicted={"t"}, ground_truth={"d"}, conditions={"c1"}),
    ]
    rep = check_reclassification_limit(make_log(*records), "m", "t", "d", BODY_C1)
    assert rep.verdict is HOLDS
    assert "vacuous" in rep.note


def test_t4_beta_never_predicted_skipped():
    log = make_log(rec("s1", predicted={"t"}, ground_truth={"d"}, conditions={"c1"}))
    rep = check_reclassification_limit(log, "m", "t", "d", BODY_C1)
    assert rep.verdict is SKIPPED


def test_t4_pair_event_never_occurs_skipped():
    log = make_log(
        rec("s1", predicted={"d"}, ground_truth={"d"}, conditions={"c1"}),
        rec("s2", predicted={"t"}, ground_truth={"d"}),
    )
    rep = check_reclassification_limit(log, "m", "t", "d", BODY_C1)
    assert rep.verdict is SKIPPED


def test_t4_overlap_regression():
    """Multi-label overlap: the set union of the two events can beat the base
    precision, the pooled (decision-level) combination never does."""
    records = [
        rec("s1", predicted={"a", "b"}, ground_truth=set(), conditions={"c1"}),
        rec("s2", predicted={"b"}, ground_truth={"b"}),
        rec("s3", predicted={"b"}, ground_truth={"b"}),
        rec("s4", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
    ]
    rep = check_reclassification_limit(make_log(*records), "m", "a", "b", BODY_C1)
    assert rep.intermediates["base_precision"] == Fraction(2, 3)
    assert rep.intermediates["pair_precision"] == Fraction(1, 2)
    assert rep.intermediates["set_union_precision"] == Fraction(3, 4)  # > base!
    assert rep.intermediates["combined_precision"] == Fraction(3, 5)
    assert rep.verdict is HOLDS


# ---------------------------------------------------------------------------
# Support bound
# ---------------------------------------------------------------------------

def test_corollary_log_a(log_a):
    rep = check_support_bound(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["support"] == Fraction(2, 3)
    assert rep.intermediates["support_bound"] == 1


def test_corollary_not_error_detecting_vacuous():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}),
    )
    rep = check_support_bound(log, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert "vacuous" in rep.note


def test_corollary_always_correct_skipped():
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"a"}),
    )
    rep = check_support_bound(log, "m", "a", BODY_C1)
    assert rep.verdict is SKIPPED
    assert "always correct" in rep.skip_reason


# ---------------------------------------------------------------------------
# Residual comparison
# ---------------------------------------------------------------------------

def test_eq7_log_a(log_a):
    rep = check_residual(log_a, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["confidence"] > rep.intermediates["residual"]
    assert rep.intermediates["rule_precision"] > rep.intermediates["precision"]


def test_eq7_boundary_equality_holds():
    # confidence == residual forces post-rule precision == precision: the
    # biconditional is two false strict inequalities.
    log = make_log(
        rec("s1", predicted={"a"}, ground_truth={"a"}, conditions={"c1"}),
        rec("s2", predicted={"a"}, ground_truth={"b"}, conditions={"c1"}),
        rec("s3", predicted={"a"}, ground_truth={"a"}),
        rec("s4", predicted={"a"}, ground_truth={"b"}),
    )
    rep = check_residual(log, "m", "a", BODY_C1)
    assert rep.verdict is HOLDS
    assert rep.intermediates["confidence"] == rep.intermediates["residual"] == Fraction(1, 2)
    assert rep.intermediates["rule_precision"] == rep.intermediates["precision"]


def test_eq7_zero_support_skipped(log_a):
    assert check_residual(log_a, "m", "a", ConditionBody.of("cz")).verdict is SKIPPED


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def test_report_roundtrip(log_a):
    rep = check_precision_change(log_a, "m", "a", BODY_C1)
    text = json.dumps(rep.to_dict(), indent=2)
    again = TheoremReport.from_dict(json.loads(text))
    assert again == rep
    assert json.dumps(again.to_dict(), indent=2) == text


T1_SYMBOLS = {"precision", "rule_precision", "k_factor", "support", "confidence", "residual"}
T3_SYMBOLS = {"correct_rate_under_body", "support", "recall", "precision"}


@given(logs_st(max_records=10), labels_st)
@settings(max_examples=60)
def test_intermediates_contain_every_symbol(log, alpha):
    t1 = check_precision_change(log, "m", alpha, BODY_C1)
    assert T1_SYMBOLS <= set(t1.intermediates)
    t3 = check_recall_reduction(log, "m", alpha, BODY_C1)
    assert T3_SYMBOLS <= set(t3.intermediates)


@given(logs_st(max_records=12), labels_st, st.sampled_from(("c1", "c2", "c3")))
@settings(max_examples=120, deadline=None)
def test_identities_never_violated(log, alpha, cid):
    body = ConditionBody.of(cid)
    for check in (check_precision_change, check_claim1, check_recall_reduction):
        assert check(log, "m", alpha, body).verdict is not VIOLATED
    for check in (check_edns, check_support_bound, check_residual):
        assert check(log, "m", alpha, body).verdict is not VIOLATED
    assert check_reclassification_limit(log, "m", alpha, "b", body).verdict is not VIOLATED


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_sweep_rejects_zero_trials():
    with pytest.raises(ValueError):
        sweep(1, 0)


@pytest.mark.parametrize("bounds", [{"max_records": 0}, {"max_labels": 0}, {"max_conditions": -1},
                                    {"max_records": 0, "max_conditions": 0}])
def test_bad_sweep_bounds_are_input_errors(bounds):
    with pytest.raises(InputError, match="bounds must be positive"):
        sweep(1, 2, **bounds)
    with pytest.raises(InputError, match="bounds must be positive"):
        random_log(1, **bounds)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.0), ("seed", True), ("trials", 2.0), ("trials", True),
    ("max_records", 2.5), ("max_records", True), ("max_labels", 2.0),
    ("max_conditions", 1.0), ("max_conditions", False),
])
def test_non_integer_sweep_arguments_are_input_errors(name, value):
    args = {"seed": 1, "trials": 2, name: value}
    with pytest.raises(InputError, match=f"^{name}: expected an integer"):
        sweep(**args)
    if name != "trials":
        del args["trials"]
        with pytest.raises(InputError, match=f"^{name}: expected an integer"):
            random_log(**args)


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    max_records=st.integers(1, 150),
    max_labels=st.integers(1, 10),
    max_conditions=st.integers(0, 5),
)
@example(seeds=[5, 6], max_records=100, max_labels=1, max_conditions=3)
@example(seeds=[2**64 - 1, 0, 7, 8, 9], max_records=200, max_labels=9, max_conditions=5)
@example(seeds=[0], max_records=30, max_labels=4, max_conditions=0)
@example(seeds=[2**32 - 1, 2**32, 2**32 + 1, 2**32 - 2], max_records=30, max_labels=3,
         max_conditions=3)  # seeds of one and of two entropy words
@example(seeds=[2**33 + 7, 2**31], max_records=150, max_labels=10, max_conditions=5)
@settings(max_examples=150, deadline=None)
def test_sweep_trial_counts_match_joint_counts_on_the_trial_log(
    seeds, max_records, max_labels, max_conditions
):
    # Trials of different record counts and alphabet sizes share one chunk.
    bounds = (max_records, max_labels, max_conditions)
    assert theorems._chunk_counts(seeds, *bounds).T.tolist() == _trial_counts(seeds, *bounds)


def _trial_counts(seeds, max_records, max_labels, max_conditions):
    """The sweep's count tuples of each trial log, from ``joint_counts``."""
    labels = label_alphabet(max_labels)
    expected = []
    for seed in seeds:
        log = random_log(seed, max_records, max_labels, max_conditions)
        expected += [
            list(joint_counts(log, alpha, (cid,), labels[(i + 1) % max_labels], model_id="m"))
            for i, alpha in enumerate(labels)
            for cid in condition_alphabet(max_conditions)
        ]
    return expected


def test_chunk_counts_redraw_a_rejected_trial_through_fuzz_draw():
    # Found by searching seeds with the batched draws' first outputs: at
    # 69,921 records numpy's Lemire draw of n rejects seed 40921's first
    # 32-bit word (2**32 % 69921 = 69871 leftovers reject) and draws again.
    bounds, seeds = (69921, 1, 1), [40921, 7]
    first = int(np.random.PCG64(40921).random_raw()) & 0xFFFFFFFF
    assert first * 69921 % 2**32 < 2**32 % 69921
    assert synth._fuzz_draws(np.array(seeds, np.uint64), *bounds)[3].tolist() == [True, False]
    assert theorems._chunk_counts(seeds, *bounds).T.tolist() == _trial_counts(seeds, *bounds)


def test_chunk_counts_redraw_every_flagged_trial(monkeypatch):
    batched = synth._fuzz_draws

    def redraw_all(seeds, *bounds):
        n, k, m, redraw, rounds = batched(seeds, *bounds)
        return n, k, m, np.ones_like(redraw), iter(())

    monkeypatch.setattr(synth, "_fuzz_draws", redraw_all)
    seeds = [3, 2**32, 2**64 - 1, 0]
    assert theorems._chunk_counts(seeds, 30, 4, 3).T.tolist() == _trial_counts(seeds, 30, 4, 3)


def _generate_state_word(pool, i):
    """uint64 word i of ``SeedSequence.generate_state``, in pure Python:
    uint32 word j hashes pool word j % 4 with 0x8B51F9DD * 0x58F38DED**j."""
    halves = []
    for j in (2 * i, 2 * i + 1):
        const = 0x8B51F9DD * pow(0x58F38DED, j, 2**32) % 2**32
        word = (pool[j % 4] ^ const) * (const * 0x58F38DED % 2**32) % 2**32
        halves.append(word ^ word >> 16)
    return halves[0] | halves[1] << 32


@pytest.mark.parametrize("seed", [0, 1, 977, 2**32, 2**64 - 1, 2**100])
def test_sweep_trial_seeds_match_generate_state(seed):
    pool = np.random.SeedSequence(seed).pool
    want = np.random.SeedSequence(seed).generate_state(700, np.uint64).tolist()
    assert [_generate_state_word(pool.tolist(), i) for i in range(700)] == want
    for first, count in [(0, 700), (0, 1), (5, 295), (295, 295), (699, 1)]:
        assert synth._state_words(pool, first, count).tolist() == want[first:first + count]


def test_sweep_trial_seeds_past_2_32_match_the_pure_python_words():
    pool = np.random.SeedSequence(1).pool
    for first in [2**32 - 3, 2**32 + 5, 2**62 - 2, 2**64 + 1]:
        words = [_generate_state_word(pool.tolist(), first + i) for i in range(6)]
        assert synth._state_words(pool, first, 6).tolist() == words


class _FirstChunk(Exception):
    pass


def test_sweep_of_2_62_trials_reaches_its_first_chunk(monkeypatch, tmp_path):
    # No array of every trial's seed is built up front.
    def first_chunk(trial_seeds, *bounds):
        raise _FirstChunk(trial_seeds.tolist())

    monkeypatch.setattr(theorems, "_chunk_counts", first_chunk)
    chunk = theorems._chunk_trials(30, 4, 3)
    want = np.random.SeedSequence(1).generate_state(chunk, np.uint64).tolist()
    for trials in [2**62, 2**60]:
        with pytest.raises(_FirstChunk) as caught:
            sweep(1, trials)
        assert caught.value.args[0] == want
    with pytest.raises(_FirstChunk):
        main(["sweep", "--seed", "1", "--trials", str(2**62), "--out", str(tmp_path / "out")])


def test_sweep_chunks_fit_their_cell_budget():
    for bounds in [(30, 4, 3), (1, 1, 0), (150, 10, 5), (10**6, 4, 3)]:
        size = theorems._chunk_trials(*bounds)
        records, labels, conditions = bounds
        cells = records * (labels + conditions) + labels * conditions
        fills = size * cells <= theorems._CHUNK_CELLS < (size + 1) * cells
        assert fills or (size == 1 and cells > theorems._CHUNK_CELLS)


def test_sweep_deterministic():
    a = sweep(11, 40)
    b = sweep(11, 40)
    assert a.verdict_counts == b.verdict_counts
    assert a.to_dict() == b.to_dict()


def test_sweep_counts_scale_with_trials():
    result = sweep(3, 25)
    pairs = 4 * 3  # fixed label × condition alphabets from the bounds
    for tid in TheoremId:
        assert sum(result.verdict_counts[tid].values()) == 25 * pairs
    assert result.total_verdicts == 25 * pairs * len(TheoremId)


def test_sweep_zero_violations():
    result = sweep(5, 300)
    assert not result.violations
    assert result.count(TheoremId.T1_PRECISION_CHANGE, VIOLATED) == 0


# ---------------------------------------------------------------------------
# Check registry: exhaustive bounded verification and the Fraction oracle
# ---------------------------------------------------------------------------

T4 = TheoremId.T4_RECLASS_LIMIT
PUBLIC_CHECKS = {
    TheoremId.T1_PRECISION_CHANGE: check_precision_change,
    TheoremId.CLAIM1_APPENDIX: check_claim1,
    TheoremId.T2_EDNS: check_edns,
    TheoremId.T3_RECALL_REDUCTION: check_recall_reduction,
    TheoremId.COROLLARY_SUPPORT_BOUND: check_support_bound,
    TheoremId.EQ7_RESIDUAL: check_residual,
}


def _run(tid, c):
    return CHECKS[tid](c, theorems._base(c))


def _columns(tuples, dtype):
    """Count tuples as columns of ``dtype``: int64, or object for exact
    Python ints."""
    return JointCounts._make(np.array(tuples, dtype).T)


def _column_verdicts(tid, c):
    """The verdicts of the column form of ``tid`` on count columns."""
    return [_VERDICTS[code] for code in COLUMN_CHECKS[tid](c, theorems._base_ratios(c)).tolist()]


def _cells(k, bound):
    """Every k-tuple of nonnegative counts whose total is at most ``bound``."""
    if k == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _cells(k - 1, bound - first):
            yield (first, *rest)


def alpha_tuple(tp_body, tp_rest, fp_body, fp_rest, fn, tn):
    """The counts of a 6-cell contingency: α predicted × α in truth × body
    holds, plus not predicted × in truth / not in truth."""
    tp = tp_body + tp_rest
    return JointCounts(
        total=tp + fp_body + fp_rest + fn + tn,
        gt=tp + fn,
        pred=tp + fp_body + fp_rest,
        pred_gt=tp,
        pred_body=tp_body + fp_body,
        pred_body_gt=tp_body,
    )


def alpha_counts(bound):
    """Counts of every 6-cell contingency with total <= bound."""
    for cells in _cells(6, bound):
        yield alpha_tuple(*cells)


def beta_counts(beta_gt, beta_wrong, pair_gt, pair_wrong, both_gt=0, both_wrong=0):
    """T4 counts from records predicted β only, firing the pair only, or
    both (multi-label overlap), each split by β ∈ ground truth."""
    pair = pair_gt + pair_wrong + both_gt + both_wrong
    return JointCounts(
        total=beta_gt + beta_wrong + pair,
        gt=0,
        pred=pair,
        pred_gt=0,
        pred_body=pair,
        pred_body_gt=0,
        beta_pred=beta_gt + beta_wrong + both_gt + both_wrong,
        beta_pred_beta_gt=beta_gt + both_gt,
        pred_body_beta_gt=pair_gt + both_gt,
        union=beta_gt + beta_wrong + pair,
        union_beta_gt=beta_gt + pair_gt + both_gt,
    )


def test_registry_exhaustive_bounded_verification():
    """Small-scope proof: no count tuple up to the bound violates a
    statement, and each column form gives every tuple its check's verdict,
    on int64 and on exact (object) columns."""
    tuples = list(alpha_counts(16))
    assert len(tuples) == 74_613  # C(16 + 6, 6)
    t4_tuples = [beta_counts(*cells) for cells in _cells(4, 20)]
    assert len(t4_tuples) == 10_626  # C(20 + 4, 4)
    alpha_bases, t4_bases = ([theorems._base(c) for c in cases] for cases in (tuples, t4_tuples))
    columns = {dtype: (_columns(tuples, dtype), _columns(t4_tuples, dtype))
               for dtype in (np.int64, object)}
    seen = {}
    for tid, check in CHECKS.items():
        cases, bases = (t4_tuples, t4_bases) if tid is T4 else (tuples, alpha_bases)
        verdicts = [check(c, q)[0] for c, q in zip(cases, bases)]
        for dtype in (np.int64, object):
            assert _column_verdicts(tid, columns[dtype][tid is T4]) == verdicts, (tid, dtype)
        seen[tid] = Counter(verdicts)
    assert all(counts[VIOLATED] == 0 for counts in seen.values()), seen
    assert all(counts[HOLDS] > 0 for counts in seen.values()), seen


def test_registry_matches_fraction_oracle():
    tuples, t4_tuples = list(alpha_counts(8)), [beta_counts(*cells) for cells in _cells(6, 8)]
    for tid in CHECKS:
        cases = t4_tuples if tid is T4 else tuples
        expected = [oracle(tid, c)[:3] for c in cases]
        assert [_run(tid, c)[:3] for c in cases] == expected, tid
        for dtype in (np.int64, object):
            assert _column_verdicts(tid, _columns(cases, dtype)) == [e[0] for e in expected], (tid, dtype)


def test_column_forms_are_exact_at_the_int64_bound():
    n = theorems._INT64_RECORDS
    assert n ** 6 < 2 ** 63 <= (n + 1) ** 6  # the largest count whose degree-6 products fit
    values = (0, 1, n // 2, n - 1, n)
    cells = [c for c in product(values, repeat=6) if sum(c) <= n]
    tuples = [alpha_tuple(*c) for c in cells]
    t4_tuples = [beta_counts(*c) for c in cells]
    assert max(max(c) for c in tuples + t4_tuples) == n
    for tid, check in CHECKS.items():
        cases = t4_tuples if tid is T4 else tuples
        verdicts = [check(c, theorems._base(c))[0] for c in cases]
        for dtype in (np.int64, object):
            assert _column_verdicts(tid, _columns(cases, dtype)) == verdicts, (tid, dtype)


def test_public_reports_carry_oracle_intermediates():
    for seed in range(60):
        log = random_log(seed, max_records=12, max_labels=3, max_conditions=2)
        for alpha in ("a", "b", "c"):
            for body in (ConditionBody.of("c1"), ConditionBody.of("c1", "c2")):
                c = joint_counts(log, alpha, body, model_id="m")
                for tid, check in PUBLIC_CHECKS.items():
                    rep = check(log, "m", alpha, body)
                    verdict, reason, note, inter = oracle(tid, c)
                    assert (rep.verdict, rep.skip_reason, rep.note) == (verdict, reason, note)
                    assert list(rep.intermediates.items()) == list(inter.items())
                    assert all(type(v) is Fraction for v in rep.intermediates.values() if v is not None)
                for beta in ("a", "b", "c"):
                    rep = check_reclassification_limit(log, "m", alpha, beta, body)
                    verdict, reason, note, inter = oracle(
                        T4, joint_counts(log, alpha, body, beta, model_id="m")
                    )
                    assert (rep.verdict, rep.skip_reason, rep.note) == (verdict, reason, note)
                    assert list(rep.intermediates.items()) == list(inter.items())
                    assert rep.correction_class == beta


def _sweep_counts(seed, trials):
    """Every count tuple of ``sweep(seed, trials)``, one per (trial, class,
    condition), counted on the trial's ``random_log``."""
    return [c for *_, c in reference_pairs(seed, trials)]


def _rig(monkeypatch, tid, fails):
    """Make statement ``tid`` VIOLATED wherever ``fails(c)`` holds, in its
    registry check and in its column form alike; ``fails`` maps a count
    tuple to a bool and count columns to a bool column."""
    honest, honest_columns = CHECKS[tid], COLUMN_CHECKS[tid]

    def rigged(c, q):
        outcome = honest(c, q)
        return (VIOLATED, *outcome[1:]) if fails(c) else outcome

    def rigged_columns(c, q):
        return np.where(fails(c), theorems._V, honest_columns(c, q))

    monkeypatch.setitem(CHECKS, tid, rigged)
    monkeypatch.setitem(COLUMN_CHECKS, tid, rigged_columns)


def _fires_once(c):  # the body fires on one prediction of α
    return c.pred_body == 1


def test_sweep_captures_violation_with_full_report(monkeypatch):
    honest = CHECKS[T4]
    clean = sweep(7, 30)
    seen = _sweep_counts(7, 30)
    holding = [c for c in seen if honest(c, theorems._base(c))[:3] == (HOLDS, None, None)]
    chosen = max(holding, key=seen.count)
    occurrences = seen.count(chosen)
    assert occurrences >= 2  # every occurrence is reported

    _rig(monkeypatch, T4, lambda c: reduce(and_, (x == y for x, y in zip(c, chosen))))
    result = sweep(7, 30)
    seen = _sweep_counts(7, 30)
    assert seen.count(chosen) == occurrences
    assert len(result.violations) == occurrences == result.count(T4, VIOLATED)
    assert result.count(T4, HOLDS) == clean.count(T4, HOLDS) - occurrences
    for violation in result.violations:
        assert violation.theorem_id is T4
        log = load_log(violation.log_text)
        body = ConditionBody.of(violation.condition_id)
        beta = violation.correction_class
        assert beta is not None and violation.report.correction_class == beta
        assert joint_counts(log, violation.alpha, body, beta, model_id="m") == chosen
        expected = check_reclassification_limit(log, "m", violation.alpha, beta, body)
        assert violation.report == TheoremReport(
            expected.theorem_id, VIOLATED, expected.model_id, expected.target_class,
            expected.condition_ids, expected.intermediates, expected.correction_class,
            expected.skip_reason, expected.note,
        )
        assert None not in violation.report.intermediates.values()


def _assert_sweeps_equal(got, want):
    assert got.to_dict() == want.to_dict()
    assert got.violations == want.violations


@pytest.mark.parametrize("seed, trials, bounds", [
    (1, 40, {}),
    (8, 50, {}),
    (977, 50, {}),
    (20240802, 30, {"max_records": 12, "max_labels": 3, "max_conditions": 2}),
    (2, 30, {"max_records": 1}),
    (3, 30, {"max_labels": 1}),
    (4, 30, {"max_conditions": 0}),
    (5, 30, {"max_records": 1, "max_labels": 1, "max_conditions": 1}),
    (6, 4, {"max_records": theorems._INT64_RECORDS + 1}),  # exact ints, past the int64 bound
])
def test_sweep_matches_per_pair_reference(seed, trials, bounds):
    _assert_sweeps_equal(sweep(seed, trials, **bounds), reference_sweep(seed, trials, **bounds))


@pytest.mark.parametrize("cells", [1, 4096])  # one trial a chunk; 18 trials a chunk
def test_sweep_matches_per_pair_reference_on_a_rigged_registry(monkeypatch, cells):
    monkeypatch.setattr(theorems, "_CHUNK_CELLS", cells)
    _rig(monkeypatch, TheoremId.T1_PRECISION_CHANGE, _fires_once)
    result = sweep(8, 40)
    _assert_sweeps_equal(result, reference_sweep(8, 40))
    reports = [json.dumps(v.report.to_dict()) for v in result.violations]
    assert len(set(reports)) < len(reports)  # some violating tuple repeats


@pytest.mark.parametrize("size", [1, 3, None])
def test_sweep_chunk_size_changes_no_result(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(theorems, "_chunk_trials", lambda *bounds: size)
    _rig(monkeypatch, TheoremId.T1_PRECISION_CHANGE, _fires_once)
    for seed, trials, bounds in [(8, 40, {}), (3, 10, {"max_records": 7, "max_labels": 2})]:
        result = sweep(seed, trials, **bounds)
        assert len({v.trial for v in result.violations}) >= 5  # across chunks when small
        _assert_sweeps_equal(result, reference_sweep(seed, trials, **bounds))


def test_sweep_disagreeing_column_form_is_an_internal_error(monkeypatch, tmp_path):
    # Only the column form fails: the registry check does not confirm it.
    honest = COLUMN_CHECKS[T4]
    monkeypatch.setitem(COLUMN_CHECKS, T4,
                        lambda c, q: np.where(_fires_once(c), theorems._V, honest(c, q)))
    with pytest.raises(RuntimeError, match="column and registry checks disagree"):
        sweep(8, 40)
    with pytest.raises(RuntimeError, match="column and registry checks disagree"):  # not exit 2
        main(["sweep", "--seed", "8", "--trials", "40", "--out", str(tmp_path / "out")])


def test_verify_and_sweep_share_the_registry(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(LOG_A_TEXT, encoding="utf-8")
    out = tmp_path / "verify"
    main(["verify", "--log", str(log), "--model", "m", "--class", "a",
          "--condition", "c1", "--target-class", "b", "--out", str(out)])
    reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    ids = [r["theorem_id"] for r in reports]
    assert ids == [tid.value for tid in CHECKS]
    assert set(ids) == {tid.value for tid in TheoremId}
    assert set(sweep(1, 2).verdict_counts) == set(CHECKS) == set(TheoremId)
