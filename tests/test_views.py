"""Views of the count index against the record walk.

``LogIndex.view(model_id, alpha)`` holds, over its own bit space of the
rows of a scope that predict α, a mask for the correct predictions, one
per condition id and one per distribution tag, and the body-free counts
of the scope per tag. ``view(model_id, None)``, over every row of the
scope, also holds a mask per predicted and per true label. Every count
read from a view must be the count ``tests/event_oracle.py`` gets by
walking the records.
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
    # The layout: rows with a condition take the low bits, correct ones
    # lowest, so that no body mask, or its correct part, reaches above them.
    scope = [r for r in _scope(log, model_id, None).records if alpha in r.predicted and r.conditions]
    with_condition, correct_with_condition = len(scope), sum(alpha in r.ground_truth for r in scope)
    for mask in view.conditions.values():
        assert mask >> with_condition == 0
        assert (mask & view.correct) >> correct_with_condition == 0
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


def assert_scope_view_counts(log: PredictionLog, model_id) -> None:
    view = log.index.view(model_id, None)
    assert log.index.view(model_id, None) is view
    width = view.counts[None][0]
    assert view.correct == 0
    masks = [*view.predicted.values(), *view.ground_truth.values(), *view.conditions.values(),
             *view.distributions.values()]
    assert all(mask >> width == 0 for mask in masks)
    for tag in (None,) + TAGS + ("d9",):
        scope = _scope(log, model_id, tag)
        assert view.counts.get(tag, (0, 0, 0, 0)) == (len(scope), 0, 0, 0)
        rows = (1 << width) - 1 if tag is None else view.distributions.get(tag, 0)
        assert rows.bit_count() == len(scope)
        for alpha in LABELS + ("e",):
            pred = view.predicted.get(alpha, 0) & rows
            gt = view.ground_truth.get(alpha, 0) & rows
            assert pred.bit_count() == count(scope, EventQuery.conjunction(predicted_has(alpha)))
            assert gt.bit_count() == count(scope, EventQuery.conjunction(truth_has(alpha)))
            assert (pred & gt).bit_count() == count(
                scope, EventQuery.conjunction(predicted_has(alpha), truth_has(alpha)))
            for body in BODIES:
                mask = body_mask(view.conditions, body)
                assert (mask & rows).bit_count() == count(scope, body_query(ConditionBody(body)))
                assert (mask & pred & gt).bit_count() == count(
                    scope, EventQuery.conjunction(predicted_has(alpha), truth_has(alpha))
                    .and_(body_query(ConditionBody(body))))


@given(record_lists_st())
@settings(max_examples=40, deadline=None)
def test_views_count_as_the_record_walk(records):
    log = PredictionLog(records)
    for model_id in MODELS + (None, "x"):
        for alpha in LABELS + ("e",):
            assert_view_counts(log, model_id, alpha)
        assert_scope_view_counts(log, model_id)


def test_view_of_an_empty_log():
    log = PredictionLog(())
    for alpha in ("a", None):
        view = log.index.view(None, alpha)
        assert (view.correct, view.predicted, view.ground_truth, view.conditions,
                view.distributions) == (0, {}, {}, {}, {})
        assert view.counts == {None: (0, 0, 0, 0)}
    assert_view_counts(log, "m", "a")
    assert_scope_view_counts(log, "m")


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
        for alpha in LABELS + (None,):
            log.index.view(model_id, alpha)
    assert (hash(log), pickle.dumps(log)) == before
    assert log == twin and hash(log) == hash(twin)
    for other in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert other == log and hash(other) == hash(log)
        assert "index" not in vars(other)
