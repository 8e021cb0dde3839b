"""Reference event semantics: the independent oracle for the count index.

Every count the package reports comes from ``PredictionLog.index`` (bitsets
and ``int.bit_count()``). This module answers the same questions the slow,
obvious way: an event is a disjunction of conjunctions of atoms, and a
count walks the records and tests each one. The tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from errata import ConditionBody, PredictionLog, PredictionRecord, Probability

PREDICTED = "predicted"
GROUND_TRUTH = "ground_truth"
CONDITIONS = "conditions"
DISTRIBUTION = "distribution"


@dataclass(frozen=True, slots=True)
class Atom:
    """One literal: membership in a set field, or a distribution tag test."""

    field: str
    value: str
    negated: bool = False

    def __post_init__(self):
        if self.field not in (PREDICTED, GROUND_TRUTH, CONDITIONS, DISTRIBUTION):
            raise ValueError(f"unknown atom field {self.field!r}")

    def matches(self, record: PredictionRecord) -> bool:
        if self.field == DISTRIBUTION:
            hit = record.distribution == self.value
        elif self.field == PREDICTED:
            hit = self.value in record.predicted
        elif self.field == GROUND_TRUTH:
            hit = self.value in record.ground_truth
        else:
            hit = self.value in record.conditions
        return hit is not self.negated

    def negate(self) -> "Atom":
        return replace(self, negated=not self.negated)


def predicted_has(label: str) -> Atom:
    return Atom(PREDICTED, label)


def predicted_lacks(label: str) -> Atom:
    return Atom(PREDICTED, label, negated=True)


def truth_has(label: str) -> Atom:
    return Atom(GROUND_TRUTH, label)


def truth_lacks(label: str) -> Atom:
    return Atom(GROUND_TRUTH, label, negated=True)


def condition_holds(condition_id: str) -> Atom:
    return Atom(CONDITIONS, condition_id)


def condition_absent(condition_id: str) -> Atom:
    return Atom(CONDITIONS, condition_id, negated=True)


def distribution_is(tag: str) -> Atom:
    return Atom(DISTRIBUTION, tag)


@dataclass(frozen=True)
class EventQuery:
    """Disjunction of conjunctions of atoms.

    The default query — a single empty conjunction — matches every record.
    A query with no clauses matches none (the empty disjunction), which is
    what negating a match-all query yields.
    """

    clauses: tuple[frozenset[Atom], ...] = (frozenset(),)

    @classmethod
    def conjunction(cls, *atoms: Atom) -> "EventQuery":
        return cls((frozenset(atoms),))

    @classmethod
    def match_all(cls) -> "EventQuery":
        return cls()

    def matches(self, record: PredictionRecord) -> bool:
        return any(
            all(atom.matches(record) for atom in clause) for clause in self.clauses
        )

    def and_(self, other: "EventQuery") -> "EventQuery":
        return EventQuery(
            tuple(c1 | c2 for c1 in self.clauses for c2 in other.clauses)
        )

    def or_(self, other: "EventQuery") -> "EventQuery":
        return EventQuery(self.clauses + other.clauses)

    def negated(self) -> "EventQuery":
        """Atom-wise De Morgan negation of a single-conjunction query."""
        if len(self.clauses) != 1:
            raise ValueError("negation is defined for single-conjunction queries only")
        (clause,) = self.clauses
        return EventQuery(tuple(frozenset((atom.negate(),)) for atom in clause))


def count(log: PredictionLog, query: EventQuery) -> int:
    """Number of records satisfying the query, by walking the records."""
    return sum(1 for r in log.records if query.matches(r))


def body_query(body: ConditionBody) -> EventQuery:
    """Event "some body condition holds": a disjunction of condition atoms."""
    return EventQuery(tuple(frozenset((condition_holds(c),)) for c in body.sorted_ids()))


def cond_prob(log: PredictionLog, event: EventQuery, given: EventQuery) -> Probability:
    """count(event ∧ given) / count(given); UNDEFINED when count(given) = 0."""
    return Probability(count(log, given.and_(event)), count(log, given))
