"""Spans and counters recorded around calls into errata's public functions.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces, at run
time, every binding of each listed function inside the loaded ``errata``
modules (and ``PredictionLog.slice`` on its class) with a wrapper that
records one span per call. A span is [name, start, end, parent index,
op id]; counters are recorded at the same boundaries, computed from the
call's arguments and result after the span has closed. Garbage
collector pauses are recorded as ``py.gc`` spans through ``gc.callbacks``,
so they are subtracted from the self time of whichever span they
interrupted. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

GC_SPAN = "py.gc"

# Layer self times, in the order they are reported.
LAYERS = ("cli", "logs", "synth", "estimators", "learning", "rules", "theorems", "py")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _greedy_scored(n_candidates: int, accepted: int, max_body_size) -> int:
    """Candidate evaluations a greedy run makes: every round scores each
    candidate not yet in the body, and a round that accepts nothing ends
    the run (no final round once the body is full or at its cap)."""
    full = accepted == n_candidates or (max_body_size is not None and accepted == max_body_size)
    rounds = accepted if full else accepted + 1
    return sum(n_candidates - k for k in range(rounds))


def _count_learn_detection(args, kwargs, result):
    candidates = set(_arg(args, kwargs, 3, "candidates", ()))
    cfg = _arg(args, kwargs, 4, "cfg")
    rule, report = result
    accepted = len(rule.body.condition_ids) if rule is not None else 0
    scored = 0
    if report.reason != "UNDEFINED_BASE":
        cap = getattr(cfg, "max_body_size", None)
        scored = _greedy_scored(len(candidates), accepted, cap)
    return {"calls": 1, "candidates_scored": scored, "steps_accepted": accepted}


def _count_oracle(args, kwargs, result):
    n = len(set(_arg(args, kwargs, 3, "candidates", ())))
    return {"calls": 1, "subsets": 2**n - 1}


def _count_apply(args, kwargs, result):
    log = _arg(args, kwargs, 0, "log")
    _, trace = result
    entries = trace.entries
    return {
        "calls": 1,
        "records": len(log),
        "erasures": sum(len(e.erased) for e in entries),
        "additions": sum(len(e.added) for e in entries),
        "conflicts": sum(1 for e in entries if e.conflict),
    }


def _count_sweep(args, kwargs, result):
    verdicts = skipped = violated = 0
    for by_verdict in result.verdict_counts.values():
        for verdict, n in by_verdict.items():
            verdicts += n
            skipped += n if verdict.value == "SKIPPED" else 0
            violated += n if verdict.value == "VIOLATED" else 0
    return {
        "calls": 1,
        "trials": result.trials,
        "verdicts": verdicts,
        "skipped": skipped,
        "violated": violated,
    }


# (module, attribute, span name, counter). Counters return increments.
TARGETS = (
    ("errata.logs", "load_log", "logs.load_log", lambda a, k, r: {"calls": 1, "records": len(r)}),
    ("errata.logs", "serialize_log", "logs.serialize_log", lambda a, k, r: {"calls": 1, "bytes": len(r.encode())}),
    ("errata.logs", "PredictionLog.slice", "logs.slice", lambda a, k, r: {"calls": 1}),
    ("errata.synth", "generate", "synth.generate", lambda a, k, r: {"calls": 1, "records": len(r[0])}),
    ("errata.synth", "random_log", "synth.random_log", lambda a, k, r: {"calls": 1}),
    ("errata.estimators", "metric_bundle", "estimators.metric_bundle", lambda a, k, r: {"calls": 1}),
    ("errata.estimators", "invariance_profile", "estimators.invariance_profile", lambda a, k, r: {"calls": 1}),
    ("errata.learning", "learn_detection", "learning.learn_detection", _count_learn_detection),
    ("errata.learning", "exhaustive_oracle", "learning.exhaustive_oracle", _count_oracle),
    (
        "errata.learning",
        "learn_correction",
        "learning.learn_correction",
        lambda a, k, r: {"calls": 1, "pairs": len(set(_arg(a, k, 3, "candidate_pairs", ())))},
    ),
    ("errata.rules", "apply_rules", "rules.apply_rules", _count_apply),
    ("errata.rules", "evaluate_delta", "rules.evaluate_delta", lambda a, k, r: {"calls": 1, "rows": len(r)}),
    ("errata.theorems", "sweep", "theorems.sweep", _count_sweep),
    ("errata.cli", "main", "cli.main", None),
)


def _check_targets():
    """Every public ``check_*`` function of errata.theorems is one layer
    entry, ``theorems.check``; the set is read at run time so that checks
    may be added, merged or removed without editing the benchmark."""
    module = sys.modules.get("errata.theorems")
    if module is None:
        return []
    return [
        ("errata.theorems", name, "theorems.check", lambda a, k, r: {"calls": 1})
        for name, value in vars(module).items()
        if name.startswith("check_") and inspect.isfunction(value)
    ]


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)  # op id → counter name → value
        self.op = None
        self._stack: list[int] = []
        self._restore: list = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def begin(self, op) -> None:
        self.op = op
        self._stack.clear()

    def end(self) -> None:
        self.op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        # A collection may run (and append its own span) while the list
        # above is allocated, so the index is taken only after the append.
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span[1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            op = tracer.op
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                bucket = tracer.counts[op]
                for key, value in counter(args, kwargs, result).items():
                    bucket[f"{name}.{key}"] += value
            return result

        return traced

    def _on_gc(self, phase, info) -> None:
        if self.op is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([GC_SPAN, self._gc_start, perf_counter(), parent, self.op])
        if info.get("generation") == 2:
            self.counts[self.op][f"{GC_SPAN}.gen2_collections"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that the loaded errata modules define."""
        modules = [m for n, m in list(sys.modules.items()) if n == "errata" or n.startswith("errata.")]
        for module_name, attr, span, counter in TARGETS + tuple(_check_targets()):
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    continue
                setattr(cls, method, self.wrap(original, span, counter))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, span, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover.

    Spans of one process nest (single thread), so children are disjoint
    sub-intervals of their parent.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
