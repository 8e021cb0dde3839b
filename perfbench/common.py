"""Pieces shared by the workloads: op results, child processes, statistics,
and the speed probe."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
# Probes run after each set-up step: a run has one set-up time, so its
# rescaling needs more probes than an op's, which is one of many.
SETUP_PROBES = 3
# A child process that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 150.0

# The speed probe: fixed pure-Python work of the kinds errata does. Half
# of it parses JSONL records, builds frozensets and dicts and sums
# Fractions (ingest, checks); half scans a list of records held in memory
# for set membership (counting over a loaded log), a working set larger
# than a core's private caches. On a shared host the same work runs up
# to 2x slower while neighbours are busy, in swings of seconds to
# minutes. The probe runs after every part of an op (a CLI child, a
# library call, a sweep) and every set-up step, and a time is rescaled by
# the probe's mean time around it to a machine on which the probe takes
# PROBE_REF_S.
PROBE_ITERATIONS = 500
PROBE_RECORDS = 4000
PROBE_SCANS = 13
PROBE_REF_S = 0.005
_PROBE_LINE = json.dumps({"sample_id": "s1", "truth": ["a"], "predicted": ["a", "b"], "conditions": ["c1", "c2"]})
# Built at the first probe, not at import: launcher.py imports this module,
# and its memory would count in every child's peak RSS.
_probe_log: list[dict] = []
# Every probe time of the run, in order; an op's probes are the slice
# taken while it ran.
probes: list[float] = []


def probe(times: int = 1) -> None:
    """Run the probe ``times`` times and record each wall time."""
    if not _probe_log:
        _probe_log.extend(
            {"predicted": frozenset({i % 4, (i + 1) % 4}), "conditions": frozenset({i % 16, i * 7 % 16})}
            for i in range(PROBE_RECORDS)
        )
    for _ in range(times):
        t0 = perf_counter()
        seen = {}
        total = Fraction(0)
        for i in range(PROBE_ITERATIONS):
            record = json.loads(_PROBE_LINE)
            seen[i % 97] = frozenset(record["predicted"]) | {i}
            total += Fraction(i % 7, 13)
        for _ in range(PROBE_SCANS):
            sum(1 for r in _probe_log if 3 in r["conditions"] and 1 in r["predicted"])
        probes.append(perf_counter() - t0)


def at_reference_speed(seconds: float, samples) -> float:
    """``seconds`` measured while the probe took ``samples``, rescaled to
    the reference machine."""
    return seconds * PROBE_REF_S / statistics.fmean(samples)


@dataclass
class OpResult:
    wall_s: float
    items: int
    errors: list[str] = field(default_factory=list)
    # Probe times taken while the op ran (see probe()).
    probes: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    rss_mb: float
    stderr: str


def run_child(argv, env) -> ChildRun:
    """Run one child to completion; wall time and peak RSS via wait4."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # stderr is small (errors only); reading it to EOF before wait4
        # cannot block the child on a full pipe.
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stderr.close()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024, err.decode(errors="replace"))


class Launcher:
    """Children started through ``launcher.py``, a process that stays
    small, so that their peak RSS is their own (see launcher.py)."""

    def __init__(self, env: dict):
        argv = [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")]
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, argv) -> ChildRun:
        self._proc.stdin.write(json.dumps({"argv": list(argv)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return ChildRun(reply["returncode"], reply["wall_s"], reply["rss_mb"], reply["stderr"])

    def close(self) -> None:
        """Stop the launcher; one still running a child (the benchmark was
        interrupted mid-op) is terminated, and it stops that child."""
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class SetupTimes:
    """Times of repeated set-up steps, as measured and rescaled by the
    probes run right after each step."""

    def __init__(self):
        self.measured: list[float] = []
        self.rescaled: list[float] = []

    def add(self, seconds: float) -> None:
        probe(SETUP_PROBES)
        self.measured.append(seconds)
        self.rescaled.append(at_reference_speed(seconds, probes[-SETUP_PROBES:]))

    def medians(self) -> tuple[float, float]:
        return statistics.median(self.measured), statistics.median(self.rescaled)


def import_times(src: Path, module: str, reps: int = SETUP_REPS) -> SetupTimes:
    """Wall times of ``reps`` fresh interpreters importing ``module``."""
    argv = [sys.executable, "-c", f"import {module}"]
    times = SetupTimes()
    for _ in range(reps):
        run = run_child(argv, child_env(src))
        if run.returncode != 0:
            raise RuntimeError(f"import {module} failed: {run.stderr.strip()}")
        times.add(run.wall_s)
    return times


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tail(walls) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ten samples above it; with fewer than 21 samples that percentile would
    fall at or below the median, so the median is reported instead."""
    ordered = sorted(walls)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0
