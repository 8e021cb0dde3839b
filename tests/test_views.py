"""Class views of the count index against the record walk.

``LogIndex.view(model_id, alpha)`` holds, over its own bit space of the
rows of a scope that predict α, a mask for the correct predictions, one
per condition id and one per distribution tag, and the body-free counts
of the scope per tag. Every count read from it must be the count
``tests/event_oracle.py`` gets by walking the records.
"""

import copy
import pickle

from hypothesis import given, settings

from errata import DEFAULT_DISTRIBUTION, ConditionBody, PredictionLog
from errata.estimators import body_mask
from event_oracle import EventQuery, body_query, count, predicted_has, truth_has
from test_columns import CONDITIONS, LABELS, MODELS, TAGS, record_lists_st

BODIES = [(cid,) for cid in CONDITIONS + ("c9",)] + [("c1", "c3"), ("c2", "c9")]


def _scope(log: PredictionLog, model_id, tag) -> PredictionLog:
    """The records of one model (every model for None) with one tag
    (every tag for None), as a log of their own."""
    return PredictionLog(
        r for r in log.records
        if model_id in (None, r.model_id) and tag in (None, r.distribution)
    )


def assert_view_counts(log: PredictionLog, model_id, alpha: str) -> None:
    view = log.index.view(model_id, alpha)
    assert log.index.view(model_id, alpha) is view
    width = view.counts[None][2]
    masks = [view.correct, *view.conditions.values(), *view.distributions.values()]
    assert all(mask >> width == 0 for mask in masks)
    pred, gt = predicted_has(alpha), truth_has(alpha)
    for tag in (None,) + TAGS + ("d9",):
        scope = _scope(log, model_id, tag)

        def n(*atoms, body=()):
            query = EventQuery.conjunction(*atoms)
            return count(scope, query.and_(body_query(ConditionBody(body))) if body else query)

        assert view.counts.get(tag, (0, 0, 0, 0)) == (len(scope), n(gt), n(pred), n(pred, gt))
        rows = (1 << width) - 1 if tag is None else view.distributions.get(tag, 0)
        assert rows.bit_count() == n(pred)
        assert (rows & view.correct).bit_count() == n(pred, gt)
        for body in BODIES:
            mask = body_mask(view.conditions, body) & rows
            assert mask.bit_count() == n(pred, body=body)
            assert (mask & view.correct).bit_count() == n(pred, gt, body=body)


@given(record_lists_st())
@settings(max_examples=40, deadline=None)
def test_views_count_as_the_record_walk(records):
    log = PredictionLog(records)
    for model_id in MODELS + (None, "x"):
        for alpha in LABELS + ("e",):
            assert_view_counts(log, model_id, alpha)


def test_view_of_an_empty_log():
    log = PredictionLog(())
    view = log.index.view(None, "a")
    assert (view.correct, view.conditions, view.distributions) == (0, {}, {})
    assert view.counts == {None: (0, 0, 0, 0)}
    assert_view_counts(log, "m", "a")


def test_view_of_a_class_never_predicted(log_a):
    view = log_a.index.view("m", "c")
    assert (view.correct, view.conditions, view.distributions) == (0, {}, {})
    assert view.counts == {DEFAULT_DISTRIBUTION: (5, 0, 0, 0), None: (5, 0, 0, 0)}
    assert log_a.index.view("x", "a").counts == {None: (0, 0, 0, 0)}


@given(record_lists_st())
@settings(max_examples=30, deadline=None)
def test_views_leave_equality_hash_copy_and_pickle_alone(records):
    log, twin = PredictionLog(records), PredictionLog(records)
    before = (hash(log), pickle.dumps(log))
    for model_id in MODELS + (None,):
        for alpha in LABELS:
            log.index.view(model_id, alpha)
    assert (hash(log), pickle.dumps(log)) == before
    assert log == twin and hash(log) == hash(twin)
    for other in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert other == log and hash(other) == hash(log)
        assert "index" not in vars(other)
