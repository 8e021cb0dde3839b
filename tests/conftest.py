import hypothesis.strategies as st
import pytest

from errata import DEFAULT_DISTRIBUTION, PredictionLog, PredictionRecord, load_log
from errata.logs import _CHUNK_ROWS
from event_oracle import (
    EventQuery,
    condition_absent,
    condition_holds,
    distribution_is,
    predicted_has,
    predicted_lacks,
    truth_has,
    truth_lacks,
)

# Five-record fixture used throughout: model "m", no distribution tags.
# Hand-counted reference values (oracle = direct enumeration):
#   precision(a) = 2/3, recall(a) = 2/3, support(c1|a) = 2/3,
#   confidence = 1/2, rule_precision = 1/1, rule_recall = 1/3.
LOG_A_TEXT = """\
{"sample_id":"r1","model_id":"m","predicted":["a"],"ground_truth":["a"],"conditions":[]}
{"sample_id":"r2","model_id":"m","predicted":["a"],"ground_truth":["b"],"conditions":["c1"]}
{"sample_id":"r3","model_id":"m","predicted":["a"],"ground_truth":["a"],"conditions":["c1"]}
{"sample_id":"r4","model_id":"m","predicted":["b"],"ground_truth":["b"],"conditions":[]}
{"sample_id":"r5","model_id":"m","predicted":[],"ground_truth":["a"],"conditions":[]}
"""


@pytest.fixture
def log_a() -> PredictionLog:
    return load_log(LOG_A_TEXT)


def rec(
    sample_id,
    predicted=(),
    ground_truth=(),
    conditions=(),
    model="m",
    distribution=None,
):
    return PredictionRecord(
        sample_id=sample_id,
        model_id=model,
        predicted=frozenset(predicted),
        ground_truth=frozenset(ground_truth),
        conditions=frozenset(conditions),
        distribution=distribution or DEFAULT_DISTRIBUTION,
    )


def make_log(*records) -> PredictionLog:
    return PredictionLog(tuple(records))


# (rows, shapes) of the chunked-output tests: row counts around the chunk
# size K, and logs of 300 shapes, whose codes are held in an array.
K = _CHUNK_ROWS
CHUNK_CASES = [(n, 14) for n in (0, 1, K - 1, K, K + 1, 2 * K + 1)] + [(K, 300), (2 * K + 1, 300)]


def rows_log(n: int, n_shapes: int = 14) -> PredictionLog:
    """A log of ``n`` rows over ``min(n, n_shapes)`` shapes, taken in turn.
    Every shape predicts a under condition c1, so a detection of a on c1
    touches every row; truths, extra conditions and tags tell them apart."""
    shapes = [("m", frozenset({"a"}), frozenset({"a" if i % 2 else "b"}), frozenset({"c1", f"x{i}"}),
               DEFAULT_DISTRIBUTION if i % 3 else f"d{i}") for i in range(min(n, n_shapes))]
    codes = [i % len(shapes) for i in range(n)]
    return PredictionLog._columns([f"sample-{i:06d}" for i in range(n)], codes, shapes)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

LABELS = ("a", "b", "c", "d")
CONDITIONS = ("c1", "c2", "c3")
TAGS = (DEFAULT_DISTRIBUTION, "d1", "d2")

labels_st = st.sampled_from(LABELS)
conditions_st = st.sampled_from(CONDITIONS)


@st.composite
def logs_st(draw, max_records=12, models=("m",), with_tags=True):
    n = draw(st.integers(min_value=0, max_value=max_records))
    tags = TAGS if with_tags else (DEFAULT_DISTRIBUTION,)
    records = []
    for i in range(n):
        records.append(
            PredictionRecord(
                sample_id=f"s{i}",
                model_id=draw(st.sampled_from(models)),
                predicted=frozenset(draw(st.sets(labels_st, max_size=3))),
                ground_truth=frozenset(draw(st.sets(labels_st, max_size=3))),
                conditions=frozenset(draw(st.sets(conditions_st, max_size=3))),
                distribution=draw(st.sampled_from(tags)),
            )
        )
    return PredictionLog(tuple(records))


atoms_st = st.one_of(
    st.builds(predicted_has, labels_st),
    st.builds(predicted_lacks, labels_st),
    st.builds(truth_has, labels_st),
    st.builds(truth_lacks, labels_st),
    st.builds(condition_holds, conditions_st),
    st.builds(condition_absent, conditions_st),
    st.builds(distribution_is, st.sampled_from(TAGS)),
)


@st.composite
def queries_st(draw, max_clauses=3, max_atoms=3):
    n_clauses = draw(st.integers(min_value=1, max_value=max_clauses))
    clauses = tuple(
        frozenset(draw(st.lists(atoms_st, max_size=max_atoms)))
        for _ in range(n_clauses)
    )
    return EventQuery(clauses)


@st.composite
def conjunctions_st(draw, max_atoms=3):
    return EventQuery.conjunction(*draw(st.lists(atoms_st, max_size=max_atoms)))
