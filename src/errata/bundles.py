"""``MetricBundle``, the one dataclass of the package.

Every other value type is a plain slotted class (``errata.logs._Frozen``),
because decorating a dataclass, and importing ``dataclasses`` with the
``inspect`` and ``ast`` modules it loads, is a large share of a CLI
child's start-up. A bundle stays a frozen, slotted dataclass so that
``dataclasses.replace`` builds a changed copy of it. Its ``__slots__`` are
declared by hand rather than with ``slots=True``: that option rebuilds the
class, and the frozen ``__setattr__`` made before it then raises
``TypeError`` (not ``AttributeError``) for a name that is not a field. The
module is loaded by ``estimators.bundle_from_counts`` on its first call,
so only a command that builds a bundle (``learn-detection``) pays for
``dataclasses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .estimators import Probability
from .rational import format_rational


@dataclass(frozen=True)
class MetricBundle:
    """Headline statistics for one (model, class, body) triple.

    rule_precision / rule_recall are the post-erasure figures: what
    precision and recall become if every prediction of the class made
    while the body holds is withdrawn. k_factor is support / (1 − support)
    and is UNDEFINED at support = 1; residual is 1 − precision.
    """

    __slots__ = ("precision", "recall", "rule_precision", "rule_recall", "support",
                 "confidence", "k_factor", "residual")

    precision: Probability
    recall: Probability
    rule_precision: Probability
    rule_recall: Probability
    support: Probability
    confidence: Probability
    k_factor: Fraction | None
    residual: Fraction | None

    def __reduce__(self):  # copy and unpickle through the constructor, as frozen
        return (MetricBundle, tuple(getattr(self, name) for name in self.__slots__))

    def to_dict(self) -> dict:
        return {
            "precision": self.precision.to_dict(),
            "recall": self.recall.to_dict(),
            "rule_precision": self.rule_precision.to_dict(),
            "rule_recall": self.rule_recall.to_dict(),
            "support": self.support.to_dict(),
            "confidence": self.confidence.to_dict(),
            "k_factor": format_rational(self.k_factor),
            "residual": format_rational(self.residual),
        }
