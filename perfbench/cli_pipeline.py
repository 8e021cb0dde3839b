"""Workload ``cli-pipeline-10k``: the whole batch CLI chain, as a user runs it.

One op runs ``synth`` (the acceptance suite's planted-config shape at
10,000 records), ``learn-detection`` (c1–c3, ε = 3/20),
``learn-correction`` (b ← (c1, a)), ``apply``, ``eval`` and ``verify
--target-class b``, each as its own ``errata`` child process, one at a
time. Each child starts an interpreter and imports ``errata``, and the
log is loaded six times per chain, so the workload is bound by start-up,
ingest and writes; it judges import and ingest work (JSONL parse, record
construction, serialization).

The log is 10,000 records, not 100,000, so that a chain takes seconds
and a run's median rests on a dozen chains: at 100,000 records a chain
takes about 20 s and a run sees two.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference as ref
from common import SETUP_REPS, Launcher, OpResult, SetupTimes, child_env, probe, sha256_file

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"

CANDIDATES = ("c1", "c2", "c3")
EPSILON = "3/20"
PLANTED = "c1"
# Probes run after each child: a child runs for a large share of a second,
# so one probe instant is a thin sample of the speed it ran at.
CHILD_PROBES = 2
SUBCOMMANDS = ("synth", "learn-detection", "learn-correction", "apply", "eval", "verify")
# Outputs whose bytes must repeat across the ops of a run. manifest.json
# and learn_report.json are left out: planned changes alter them.
SEMANTIC_OUTPUTS = (
    "synth/log.jsonl",
    "synth/bookkeeping.json",
    "detect/rules.json",
    "correct/rules.json",
    "apply/applied.jsonl",
    "apply/trace.json",
    "eval/deltas.csv",
    "verify/reports.json",
    "verify/reports.txt",
)


def synth_config(seed: int, n_records: int) -> dict:
    """The acceptance suite's planted shape: class a at precision 1/2,
    c1 an error marker (support 1/2, confidence 9/10)."""
    return {
        "seed": seed,
        "n_records": n_records,
        "model_id": "m",
        "labels": ["a", "b", "c"],
        "class_priors": {"a": "1/5", "b": "2/5", "c": "2/5"},
        "confusion": {
            "a": [{"predicted": ["a"], "weight": 1}],
            "b": [
                {"predicted": ["a"], "weight": "1/2"},
                {"predicted": ["b"], "weight": "1/2"},
            ],
            "c": [{"predicted": ["c"], "weight": 1}],
        },
        "planted_conditions": [
            {"condition_id": "c1", "target_class": "a",
             "target_support": "1/2", "target_confidence": "9/10"},
            {"condition_id": "c2", "target_class": "a",
             "target_support": "3/10", "target_confidence": "2/5"},
            {"condition_id": "c3", "target_class": "a",
             "target_support": "1/5", "target_confidence": "0"},
        ],
    }


class CliPipeline:
    name = "cli-pipeline-10k"
    items = "input records"

    def __init__(self, seed: int, workdir: Path, src: Path, n_records: int = 10_000):
        self.seed = seed
        self.workdir = workdir
        self.n_records = n_records
        self.launcher = Launcher(child_env(src))
        self.config_path = workdir / "synth_config.json"
        self.peak_rss_mb = 0.0
        self._verified: tuple[str, list[str]] | None = None  # first op: (digest, errors)

    # -- set-up --------------------------------------------------------------

    def setup(self, tracer=None) -> tuple[float, float]:
        """Median of five ``errata synth`` runs, as measured and rescaled;
        the reference recount of the log they write is built afterwards,
        untimed."""
        self.config_path.write_text(json.dumps(synth_config(self.seed, self.n_records)), encoding="utf-8")
        times, digests = SetupTimes(), set()
        for rep in range(SETUP_REPS):
            out = self.workdir / f"setup{rep}"
            child = self.launcher.run(self._argv(None, "synth", "--config", str(self.config_path), "--out", str(out)))
            if child.returncode != 0:
                raise RuntimeError(f"set-up synth failed ({child.returncode}): {child.stderr.strip()}")
            times.add(child.wall_s)
            digests.add(sha256_file(out / "log.jsonl"))
        if len(digests) != 1:
            raise RuntimeError("set-up synth runs wrote different logs")
        (self.log_digest,) = digests
        self.records = ref.read_records(self.workdir / "setup0" / "log.jsonl")
        self.counter_a = ref.ClassCounter(self.records, "m", "a")
        self.correction_admissible = ref.pair_admissible(self.records, "m", "b", ("c1", "a"))
        for rep in range(SETUP_REPS):
            shutil.rmtree(self.workdir / f"setup{rep}")
        return times.medians()

    def close(self) -> None:
        self.launcher.close()

    # -- one op --------------------------------------------------------------

    def _argv(self, spans_path, *args) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "errata", *args]
        return [sys.executable, str(CHILD), str(spans_path), *args]

    def run_op(self, index: int, tracer=None, op_id=None) -> OpResult:
        """Op on input ``index``; ``op_id`` (default ``index``) labels its spans."""
        op_id = index if op_id is None else op_id
        opdir = self.workdir / f"op{op_id}"
        opdir.mkdir()
        log = opdir / "synth" / "log.jsonl"
        rules = opdir / "rules.json"
        applied = opdir / "apply" / "applied.jsonl"
        steps = [  # (subcommand, output directory, input files, arguments)
            ("synth", "synth", [self.config_path], ["--config", str(self.config_path)]),
            ("learn-detection", "detect", [log], ["--log", str(log), "--model", "m", "--class", "a",
                                                  *[a for c in CANDIDATES for a in ("--condition", c)],
                                                  "--epsilon", EPSILON]),
            ("learn-correction", "correct", [log], ["--log", str(log), "--model", "m", "--target-class", "b",
                                                    "--condition", "c1", "--trigger-class", "a"]),
            ("apply", "apply", [log, rules], ["--log", str(log), "--rules", str(rules)]),
            ("eval", "eval", [log, applied], ["--before", str(log), "--after", str(applied)]),
            ("verify", "verify", [log], ["--log", str(log), "--model", "m", "--class", "a",
                                         "--target-class", "b"]),
        ]
        runs = []
        errors: list[str] = []
        t0 = perf_counter()
        for sub, out_name, inputs, args in steps:
            out = opdir / out_name
            if sub == "apply":
                _merge_rules(opdir / "detect" / "rules.json", opdir / "correct" / "rules.json", rules)
            if sub == "verify":
                args = args + _body_args(opdir / "detect" / "rules.json")
            spans_path = opdir / f"{out_name}.spans.json" if tracer is not None else None
            child = self.launcher.run(self._argv(spans_path, sub, *args, "--out", str(out)))
            probe(CHILD_PROBES)
            runs.append((sub, child, spans_path, inputs, out))
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
            if child.returncode != 0:
                errors.append(f"{sub} exited {child.returncode}: {child.stderr.strip()[-400:]}")
                break
        wall = perf_counter() - t0
        if not errors:
            errors = self._check(opdir)
        if tracer is not None:
            self._record_trace(tracer, op_id, runs)
        shutil.rmtree(opdir)
        return OpResult(wall, self.n_records, errors)

    # -- checks ----------------------------------------------------------------

    def _check(self, opdir: Path) -> list[str]:
        """Full checks on the first op; a later op whose semantic outputs
        are byte-identical to it inherits its verdict, and one whose
        outputs differ fails and is checked in full."""
        digest = hashlib.sha256()
        for name in SEMANTIC_OUTPUTS:
            digest.update(name.encode() + b"\0" + (opdir / name).read_bytes())
        if self._verified is not None:
            first_digest, first_errors = self._verified
            if digest.hexdigest() == first_digest:
                return list(first_errors)
            return ["outputs differ from the first op of this run"] + self._full_check(opdir)
        errors = self._full_check(opdir)
        self._verified = (digest.hexdigest(), errors)
        return list(errors)

    def _full_check(self, opdir: Path) -> list[str]:
        errors = []
        if sha256_file(opdir / "synth" / "log.jsonl") != self.log_digest:
            errors.append("synth: log differs from the set-up run's log")
        detect = json.loads((opdir / "detect" / "rules.json").read_text(encoding="utf-8"))
        correct = json.loads((opdir / "correct" / "rules.json").read_text(encoding="utf-8"))
        bodies = [d["conditions"] for d in detect.get("detections", ())]
        if len(bodies) != 1 or PLANTED not in bodies[0]:
            errors.append(f"learn-detection: rule {bodies} does not contain planted {PLANTED}")
        for body in bodies:
            reduction = ref.recall_reduction(self.counter_a.counts(body))
            if reduction is not None and reduction > Fraction(EPSILON):
                errors.append(f"learn-detection: body {body} reduces recall by {reduction} > {EPSILON}")
        if bool(correct.get("corrections")) != self.correction_admissible:
            errors.append(
                f"learn-correction: rule present={bool(correct.get('corrections'))}, "
                f"reference admissible={self.correction_admissible}"
            )
        merged = {"detections": detect.get("detections", []), "corrections": correct.get("corrections", [])}
        errors += self._check_apply_eval(opdir, merged)
        reports = json.loads((opdir / "verify" / "reports.json").read_text(encoding="utf-8"))
        violated = [r["theorem_id"] for r in reports if r["verdict"] == "VIOLATED"]
        if violated:
            errors.append(f"verify: VIOLATED {violated}")
        return errors

    def _check_apply_eval(self, opdir: Path, rules: dict) -> list[str]:
        after, erasures, _, _ = ref.apply_rules(self.records, rules)
        cells = ref.delta_cells(self.records, after)
        errors = []
        applied = ref.read_records(opdir / "apply" / "applied.jsonl")
        if len(applied) != len(self.records):
            errors.append(f"apply: {len(applied)} records written, {len(self.records)} expected")
        else:
            for got, orig, want in zip(applied, self.records, after):
                if got.predicted != want or (got.sample_id, got.truth, got.conditions) != (
                    orig.sample_id, orig.truth, orig.conditions
                ):
                    errors.append(f"apply: record {orig.sample_id} differs from the reference")
                    break
        trace = json.loads((opdir / "apply" / "trace.json").read_text(encoding="utf-8"))
        traced = sum(len(e.get("erased", ())) for e in trace["entries"])
        if traced != erasures:
            errors.append(f"apply: {traced} erasures traced, reference {erasures}")
        lines = (opdir / "eval" / "deltas.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        seen = set()
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            cell_key = (row["model_id"], row["label"])
            seen.add(cell_key)
            got = tuple(
                ref.parse_cell(row[name])
                for name in ("precision_before", "precision_after", "recall_before", "recall_after")
            )
            if cells.get(cell_key) != got:
                errors.append(f"eval: {cell_key} cells {got} != reference {cells.get(cell_key)}")
        if seen != set(cells):
            errors.append(f"eval: rows {sorted(seen)} != reference {sorted(cells)}")
        return errors

    # -- tracing ---------------------------------------------------------------

    def _record_trace(self, tracer, index, runs) -> None:
        bucket = tracer.counts[index]
        for sub, child, spans_path, inputs, out in runs:
            bucket[f"cli.{sub}.s"] += child.wall_s
            bucket[f"cli.{sub}.rss_mb"] += child.rss_mb
            bucket["cli.bytes_read"] += sum(p.stat().st_size for p in inputs if p.exists())
            if out.exists():
                bucket["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
            if spans_path is None or not spans_path.exists():
                continue
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            offset = len(tracer.spans)
            for name, start, end, parent, _ in child["spans"]:
                tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, index])
            for counts in child["counts"].values():
                for key, value in counts.items():
                    bucket[key] += value


def _merge_rules(detect: Path, correct: Path, out: Path) -> None:
    """One rule file from the two learners' outputs (the CLI has no merge
    subcommand; a user joins the two JSON lists)."""
    merged = {
        "detections": json.loads(detect.read_text(encoding="utf-8")).get("detections", []),
        "corrections": json.loads(correct.read_text(encoding="utf-8")).get("corrections", []),
    }
    out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")


def _body_args(detect_rules: Path) -> list[str]:
    """``--condition`` flags for the learned detection body (c1 if none)."""
    detections = json.loads(detect_rules.read_text(encoding="utf-8")).get("detections", [])
    body = detections[0]["conditions"] if detections else [PLANTED]
    return [a for c in body for a in ("--condition", c)]
