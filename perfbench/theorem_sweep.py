"""Workload ``theorem-sweep``: the randomized self-test over thousands of tiny logs.

One op is ``sweep(seed, 50)`` at the acceptance bounds (30 records, 4
labels, 3 conditions). Per-log fixed costs and the exact check arithmetic
dominate, so the workload judges the check registry, and it shows as a
regression any index that speeds up large logs but costs time on every
log built.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from common import SETUP_REPS, OpResult, SetupTimes, import_times, own_peak_rss_mb, probe

# Short ops, so that a run's median op time rests on hundreds of ops.
TRIALS = 50
# Verdicts per theorem per trial: one per (label, condition) pair at the
# default bounds of 4 labels and 3 conditions.
PAIRS_PER_TRIAL = 4 * 3
# Ops cycle through this many sweep seeds, so each input repeats in a run.
SEED_CYCLE = 4


class TheoremSweep:
    name = "theorem-sweep"
    items = "trials"

    def __init__(self, seed: int, workdir: Path, src: Path, trials: int = TRIALS):
        self.seed = seed
        self.src = src
        self.trials = trials
        self._digests: dict[int, str] = {}

    @property
    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def _sweep_seed(self, index: int) -> int:
        return self.seed * 2 * SEED_CYCLE + index % SEED_CYCLE

    def close(self) -> None:
        pass

    def setup(self, tracer=None) -> tuple[float, float]:
        """As measured and rescaled: import time (median of five fresh
        interpreters importing errata) plus the median of five warm-up
        sweeps of a tenth of an op, on seeds the ops never use (lazy
        imports and first-call costs land here). The warm-ups are not
        traced, so layer metrics describe ops only."""
        import errata

        self.errata = errata
        imports = import_times(self.src, "errata")
        rounds = SetupTimes()
        for rep in range(SETUP_REPS):
            t0 = perf_counter()
            errata.sweep(self.seed * 2 * SEED_CYCLE + SEED_CYCLE + rep, max(1, self.trials // 10))
            rounds.add(perf_counter() - t0)
        if tracer is not None:
            tracer.install()
        return tuple(a + b for a, b in zip(imports.medians(), rounds.medians()))

    def run_op(self, index: int, tracer=None, op_id=None) -> OpResult:
        """Op on input ``index``; ``op_id`` (default ``index``) labels its spans."""
        op_id = index if op_id is None else op_id
        seed = self._sweep_seed(index)
        if tracer is not None:
            tracer.begin(op_id)
        t0 = perf_counter()
        result = self.errata.sweep(seed, self.trials)
        probe()
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        errors = []
        for theorem, by_verdict in result.verdict_counts.items():
            total = sum(by_verdict.values())
            if total != self.trials * PAIRS_PER_TRIAL:
                errors.append(f"{theorem.value}: {total} verdicts, expected {self.trials * PAIRS_PER_TRIAL}")
            violated = sum(n for v, n in by_verdict.items() if v.value == "VIOLATED")
            if violated:
                errors.append(f"{theorem.value}: {violated} VIOLATED")
        if result.violations:
            errors.append(f"{len(result.violations)} violations captured")
        digest = json.dumps(result.to_dict(), sort_keys=True)
        if self._digests.setdefault(seed, digest) != digest:
            errors.append(f"sweep({seed}) differs from an earlier op on the same seed")
        return OpResult(wall, self.trials, errors)
