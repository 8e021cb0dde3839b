"""errata benchmark: one closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-pipeline-10k, library-audit-20k, theorem-sweep, or
``all`` to run each in turn. The program under test is ``src/errata`` of
the current directory; nothing is installed. A run sets up (``setup_s``),
then runs ops one after another until ``--seconds`` have passed, checks
every op's outputs against an independent recount, and prints a table
followed by one JSON line.

With ``--trace 0`` the JSON metrics are the end-to-end ones. With
``--trace 1`` ops alternate untraced and traced, and the metrics are the
per-layer ones, including the tracing overhead and the share of the op
wall time that the layer self times leave unaccounted. See README.md for
the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from cli_pipeline import SUBCOMMANDS, CliPipeline
from common import PROBE_REF_S, SETUP_REPS, OpResult, at_reference_speed, import_times, probes, tail
from library_audit import LibraryAudit
from spans import LAYERS, Tracer, layer_of, self_times
from theorem_sweep import TheoremSweep

WORKLOADS = {w.name: w for w in (CliPipeline, LibraryAudit, TheoremSweep)}
DEFAULT_SEED = 1
# Held out: not used while the benchmark or a change is tuned; claims are
# confirmed on it.
HELD_OUT_SEED = 977

# Times are rescaled to reference machine speed (see common.probe).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_p50_ref_s", "s"),
    ("items_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_FUNCTIONS = (
    # (span name, counters reported alongside its time)
    ("logs.load_log", (("records", "count"),)),
    ("logs.serialize_log", (("bytes", "B"),)),
    ("logs.slice", (("calls", "count"),)),
    ("synth.generate", (("records", "count"),)),
    ("synth.random_log", (("calls", "count"),)),
    ("estimators.metric_bundle", (("calls", "count"),)),
    ("estimators.invariance_profile", (("calls", "count"),)),
    ("learning.learn_detection", (("calls", "count"), ("candidates_scored", "count"), ("steps_accepted", "count"))),
    ("learning.exhaustive_oracle", (("subsets", "count"),)),
    ("learning.learn_correction", (("pairs", "count"),)),
    ("rules.apply_rules", (("records", "count"), ("erasures", "count"), ("additions", "count"), ("conflicts", "count"))),
    ("rules.evaluate_delta", (("rows", "count"),)),
    ("theorems.check", (("calls", "count"),)),
    ("theorems.sweep", (("trials", "count"), ("verdicts", "count"), ("violated", "count"))),
)

PER_LAYER = (
    (("cli.import_s", "s"), ("cli.bytes_read", "B"), ("cli.bytes_written", "B"))
    + tuple((f"cli.{sub}.{kind}", unit) for sub in SUBCOMMANDS for kind, unit in (("s", "s"), ("rss_mb", "MB")))
    + tuple(
        metric
        for name, counters in _FUNCTIONS
        for metric in ((f"{name}.s", "s"),) + tuple((f"{name}.{c}", unit) for c, unit in counters)
    )
    + (
        ("logs.load_log.records_per_s", "1/s"),
        ("learning.learn_detection.accept_ratio", "ratio"),
        ("theorems.sweep.skipped_ratio", "ratio"),
        ("py.gc.s", "s"),
        ("py.gc.gen2_collections", "count"),
    )
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS if layer != "py")
    + (
        ("trace.ops", "count"),
        ("trace.spans_per_op", "count"),
        ("trace.op_wall_s", "s"),
        ("trace.traced_p50_s", "s"),
        ("trace.untraced_p50_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_s", "s"),
        ("trace.residual_s", "s"),
        ("trace.residual_ratio", "ratio"),
    )
)


def end_to_end(setup_s, ops, peak_rss_mb) -> dict:
    walls = [at_reference_speed(op.wall_s, op.probes) for op in ops]
    return {
        "setup_s": setup_s,
        "wall_p50_ref_s": statistics.median(walls),
        "items_per_ref_s": statistics.median(op.items / wall for op, wall in zip(ops, walls)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced, untraced, cli_import_s) -> dict:
    """Layer metrics per traced op; spans recorded during set-up (op id
    "setup") add their mean per set-up round to the function metrics."""
    n_ops = len(traced)
    weight = {index: 1.0 / n_ops for index in traced}
    weight["setup"] = 1.0 / SETUP_REPS
    values: dict = defaultdict(float)
    own = self_times(tracer.spans)
    for span, own_s in zip(tracer.spans, own):
        name, start, end, _, op = span
        if op not in weight:
            continue
        values[f"{name}.s"] += (end - start) * weight[op]
        if op != "setup":
            values[f"{layer_of(name)}.self_s"] += own_s * weight[op]
            values["trace.spans_per_op"] += weight[op]
    for op, counts in tracer.counts.items():
        for key, value in counts.items():
            values[key] += value * weight.get(op, 0.0)

    def share(num, den):
        return values[num] / values[den] if values[den] else 0.0

    values["cli.import_s"] = cli_import_s
    values["logs.load_log.records_per_s"] = share("logs.load_log.records", "logs.load_log.s")
    values["learning.learn_detection.accept_ratio"] = share(
        "learning.learn_detection.steps_accepted", "learning.learn_detection.candidates_scored"
    )
    values["theorems.sweep.skipped_ratio"] = share("theorems.sweep.skipped", "theorems.sweep.verdicts")
    traced_walls = [op.wall_s for op in traced.values()]
    mean_wall = sum(traced_walls) / n_ops
    accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.ops"] = n_ops
    values["trace.op_wall_s"] = mean_wall
    values["trace.traced_p50_s"] = statistics.median(traced_walls)
    values["trace.untraced_p50_s"] = statistics.median(op.wall_s for op in untraced)
    values["trace.overhead_s"] = values["trace.traced_p50_s"] - values["trace.untraced_p50_s"]
    values["trace.accounted_s"] = accounted
    values["trace.residual_s"] = mean_wall - accounted
    values["trace.residual_ratio"] = (mean_wall - accounted) / mean_wall
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def run(args, root: Path) -> dict:
    src = root / "src"
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        sys.path.insert(0, str(src))
        workload = WORKLOADS[args.workload](args.seed, workdir, src)
        try:
            return _measure(workload, args, root)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (root / ".perfbench_work").rmdir()


def _measure(workload, args, root: Path) -> dict:
    tracer = Tracer() if args.trace else None
    setup_measured_s, setup_s = workload.setup(tracer)
    ops, traced = [], {}
    start = perf_counter()
    index = 0
    while True:
        # Traced runs alternate untraced and traced ops on the same input.
        traced_op = bool(args.trace) and index % 2 == 1
        op_start = perf_counter()
        first_probe = len(probes)
        try:
            result = workload.run_op(
                index // 2 if args.trace else index, tracer if traced_op else None, op_id=index
            )
        except Exception as exc:  # an op that crashes counts as failed; the run goes on
            result = OpResult(perf_counter() - op_start, 0, [f"op raised {type(exc).__name__}: {exc}"])
        # An op's wall time includes the probes run inside it; they are taken out.
        result.probes = probes[first_probe:] or probes[-1:]
        result.wall_s -= sum(probes[first_probe:])
        if traced_op:
            traced[index] = result
        else:
            ops.append(result)
        index += 1
        if perf_counter() - start >= args.seconds and (not args.trace or index >= 2):
            break
    if tracer is not None:
        tracer.uninstall()
        spans_dir = root / ".perfbench_spans"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    everything = ops + list(traced.values())
    failures = [e for op in everything for e in op.errors]
    for error in failures[:10]:
        print(f"FAILED: {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, traced, ops, import_times(root / "src", "errata.cli").medians()[0])
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setup_s, ops, workload.peak_rss_mb)
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "setup_measured_s": setup_measured_s,
        "ops": everything,
        "untraced": ops,
        "metrics": metrics,
        "units": units,
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; their tables are
    relayed and one combined result line, metrics keyed by workload, ends
    the output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    root = Path.cwd()
    if not (root / "src" / "errata" / "__init__.py").is_file():
        print(f"perfbench: no src/errata under {root}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        out = run(args, root)
    except Exception as exc:
        print(f"perfbench: {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    ops = out["ops"]
    failed = sum(1 for op in ops if not op.ok)
    walls = [op.wall_s for op in out["untraced"]]
    tail_s, pct = tail(walls)
    run_probes = [p for op in out["untraced"] for p in op.probes]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops "
        f"({len(walls)} untraced; items are {out['workload'].items})"
    )
    for name, value in out["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {out['units'][name]}")
    # As measured, not rescaled: on a shared host these move with the neighbours' load.
    print(f"  {'setup_measured_s':<44} {out['setup_measured_s']:>16.6g} s")
    print(f"  {'wall_p50_s':<44} {statistics.median(walls):>16.6g} s (of {len(walls)} untraced ops)")
    print(f"  {'wall_tail_s':<44} {tail_s:>16.6g} s (p{pct:.1f} of {len(walls)} untraced ops)")
    items_per_s = sum(op.items for op in out["untraced"]) / sum(walls)
    print(f"  {'items_per_s':<44} {items_per_s:>16.6g} 1/s")
    print(f"  {'probe_p50_s':<44} {statistics.median(run_probes):>16.6g} s (of {len(run_probes)}; reference {PROBE_REF_S} s)")
    print(f"  {'failed_ops_ratio':<44} {failed / len(ops):>16.6g} ratio ({failed}/{len(ops)})")
    if args.trace:
        m = out["metrics"]
        print(
            f"  residual: {m['trace.residual_s']:.4g} s of a {m['trace.op_wall_s']:.4g} s traced op "
            f"({100 * m['trace.residual_ratio']:.2f}%) lies outside every layer span: benchmark "
            "glue and unwrapped calls, plus interpreter start-up in CLI children"
        )
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": out["units"][name]} for name, value in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still stops its children and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
