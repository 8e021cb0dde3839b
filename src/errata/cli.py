"""Batch command line: synthesize, learn, apply, evaluate, verify, sweep.

Every run reads file inputs (regular files only), writes its outputs plus
a single ``manifest.json`` (command, input digests, seeds, config echo,
output list) into ``--out``, and is byte-deterministic: rerunning with an
identical manifest reproduces identical outputs. Exit codes: 0 success,
1 violated check or failed assertion (replay data written), 2 bad input
(an ``InputError``, or a file that is missing, not a regular file, or
cannot be read or decoded), 3 every requested check was SKIPPED, 120
standard output closed (a write or the final flush of stdout or stderr
failed). The ``errata`` command (``run``) ends without interpreter
finalization, after its exit handlers and a flush of stdout and stderr.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from itertools import chain
from pathlib import Path
from stat import S_ISREG
from typing import Iterable, NoReturn

# learning, rules, synth and theorems are imported by the commands that run
# them, so that each command loads only the modules it uses.
from .estimators import ConditionBody
from .logs import InputError, _log_chunks, _read_text, _strict_json, load_log_file
from .rational import MAX_DIGITS, decimal_str, format_rational, parse_rational

_OBJECTIVES = {  # --objective value → learning.Objective member
    "precision-gain": "PRECISION_GAIN",
    "support-confidence": "SUPPORT_TIMES_CONFIDENCE",
    "f1": "F1",
}

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_ALL_SKIPPED = 3
EXIT_CLOSED_OUTPUT = 120  # CPython's own status when the final flush fails


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def report_render(reports) -> str:
    """Plain-text table of theorem reports, rationals and decimals side by side."""
    lines = ["theorem reports", "=" * 70]
    for rep in reports:
        lines.append("")
        head = f"{rep.theorem_id.value} — {rep.verdict.value}"
        lines.append(head)
        scope = f"  model={rep.model_id} class={rep.target_class} conditions={','.join(rep.condition_ids)}"
        if rep.correction_class is not None:
            scope += f" correction_class={rep.correction_class}"
        lines.append(scope)
        if rep.skip_reason:
            lines.append(f"  skipped: {rep.skip_reason}")
        if rep.note:
            lines.append(f"  note: {rep.note}")
        lines.append(f"  {'quantity':<28}{'exact':>18}{'decimal':>20}")
        for name, value in rep.intermediates.items():
            lines.append(
                f"  {name:<28}{format_rational(value):>18}{decimal_str(value):>20}"
            )
    return "\n".join(lines) + "\n"


def _delta_cells(row) -> list[str]:
    """One row of ``deltas.csv`` without its ``skipped`` cell; the eval
    table shows the same cells but ``f1_before`` and ``f1_after``."""
    return [row.model_id, row.label, *map(format_rational, (
        row.precision_before.value, row.precision_after.value, row.precision_delta,
        row.recall_before.value, row.recall_after.value, row.recall_delta,
        row.f1_before, row.f1_after, row.f1_delta,
    ))]


def render_deltas(rows) -> str:
    header = ("model", "label", "P before", "P after", "ΔP",
              "R before", "R after", "ΔR", "ΔF1", "status")
    table = [header]
    for row in rows:
        cells = _delta_cells(row)
        table.append((*cells[:8], cells[10], "SKIPPED" if row.skipped else "ok"))
    widths = [max(len(cell) for cell in col) for col in zip(*table)]
    lines = [
        "  ".join(cell.ljust(w) if i < 2 else cell.rjust(w)
                  for i, (cell, w) in enumerate(zip(line, widths))).rstrip()
        for line in table
    ]
    return "\n".join(lines) + "\n"


def deltas_csv(rows) -> str:
    header = (
        "model_id,label,precision_before,precision_after,precision_delta,"
        "recall_before,recall_after,recall_delta,f1_before,f1_after,f1_delta,skipped"
    )
    lines = [header]
    for row in rows:
        lines.append(",".join([*_delta_cells(row), "yes" if row.skipped else "no"]))
    return "\n".join(lines) + "\n"


def render_sweep(result) -> str:
    from .theorems import TheoremVerdict
    lines = [
        f"sweep seed={result.seed} trials={result.trials} "
        f"bounds=({result.max_records} records, {result.max_labels} labels, "
        f"{result.max_conditions} conditions)",
        f"{'theorem':<28}{'HOLDS':>10}{'SKIPPED':>10}{'VIOLATED':>10}",
    ]
    for tid, counts in result.verdict_counts.items():
        lines.append(
            f"{tid.value:<28}{counts[TheoremVerdict.HOLDS]:>10}"
            f"{counts[TheoremVerdict.SKIPPED]:>10}{counts[TheoremVerdict.VIOLATED]:>10}"
        )
    lines.append(f"total verdicts: {result.total_verdicts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run output helper
# ---------------------------------------------------------------------------

_HASH_BLOCK = 1 << 18  # bytes of an input file read per hash update
# Inputs of at most this many bytes in all are hashed by CPython's built-in
# SHA-256: about 4.4 ms per MiB against OpenSSL's 0.8, but a child that never
# imports hashlib starts 2.6 ms sooner and peaks 2.0 MB lower (ru_maxrss).
# The bound covers every input set of a 10k-record chain (the largest,
# eval's two logs, is 1.87 MB), so none of its children maps OpenSSL;
# 100k-record logs (9.4 MB each) keep hashlib, where its speed pays.
_BUILTIN_HASH_MAX = 1 << 21


def _sha256(total: int):
    """The SHA-256 constructor for inputs of ``total`` bytes: CPython's
    built-in module (the lean import ``random`` makes) up to
    ``_BUILTIN_HASH_MAX``, and ``hashlib``'s above it or where neither
    built-in module imports."""
    if total <= _BUILTIN_HASH_MAX:
        try:
            from _sha2 import sha256  # CPython 3.12+
            return sha256
        except ImportError:
            pass
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
            return sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


def _digests(paths: list[str]) -> dict[str, str]:
    """``"sha256:<hex>"`` of each file's bytes, by path in sorted order; a
    run with no inputs loads no hash module."""
    if not paths:
        return {}
    sha256 = _sha256(sum(map(os.path.getsize, paths)))
    digests = {}
    for path in sorted(paths):
        digest = sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(_HASH_BLOCK), b""):
                digest.update(block)
        digests[path] = "sha256:" + digest.hexdigest()
    return digests


class _Run:
    """Collects output files and emits the run manifest. The inputs are
    hashed when the run is made, before any output is written, so an output
    that replaces an input leaves the digest of the bytes that were read."""

    def __init__(self, command: str, out_dir: str, inputs: list[str], seeds, config):
        self.command = command
        self.digests = _digests(inputs)
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seeds = seeds
        self.config = config
        self.outputs: list[str] = []

    def write(self, name: str, text: str | Iterable[str]) -> None:
        """Write a text, or the chunks of one in order, to ``name``, opened
        as ``Path.write_text`` opens it, so no chunked text is held whole."""
        with (self.out / name).open("w", encoding="utf-8") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        self.outputs.append(name)

    def write_json(self, name: str, obj) -> None:
        self.write(name, json.dumps(obj, indent=2) + "\n")

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "inputs": self.digests,
            "seeds": self.seeds,
            "config": self.config,
            "outputs": sorted(self.outputs),
        }
        self.write_json("manifest.json", manifest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _learn_config(args):
    from .learning import LearnConfig, Objective
    objective = Objective[_OBJECTIVES[args.objective]]
    if args.epsilon is None:
        return LearnConfig(objective)
    try:
        return LearnConfig(objective, parse_rational(args.epsilon, "--epsilon"))
    except InputError as exc:  # not a rational, too long or negative
        raise InputError(f"--epsilon: {str(exc).removeprefix('--epsilon: ')}") from None


def _digits(text: str, flag: str) -> int:
    """An integer flag's value: ASCII digits only, as in ``--epsilon``, and
    at most ``MAX_DIGITS`` of them."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{flag}: expected ASCII digits, got {text!r}")
    if len(text) > MAX_DIGITS:
        raise InputError(f"{flag}: more than {MAX_DIGITS} digits")
    return int(text)


def _one_blas_thread() -> None:
    """Call before the first numpy import. errata never calls BLAS, but
    importing numpy starts OpenBLAS's thread pool, which costs a CLI child
    start-up time; a value the user set is kept."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _cmd_synth(args) -> int:
    _one_blas_thread()
    from .synth import SynthConfig, SynthConfigError, generate
    text = _read_text(args.config, "synth config", SynthConfigError)
    obj = _strict_json(text, "synth config", SynthConfigError)
    cfg = SynthConfig.from_dict(obj)
    log, bookkeeping = generate(cfg)
    run = _Run("synth", args.out, [args.config], [cfg.seed], cfg.to_dict())
    run.write("log.jsonl", _log_chunks(log))
    run.write_json("bookkeeping.json", bookkeeping.to_dict())
    run.finish()
    return EXIT_OK


def _cmd_learn_detection(args) -> int:
    from .learning import learn_detection
    from .rules import RuleSet, dumps_rules
    log = load_log_file(args.log)
    cfg = _learn_config(args)
    rule, report = learn_detection(log, args.model, args.class_label, args.condition, cfg)
    rules = RuleSet(detections=(rule,) if rule else ())
    run = _Run(
        "learn-detection",
        args.out,
        [args.log],
        None,
        {
            "model": args.model,
            "class": args.class_label,
            "candidates": sorted(set(args.condition)),
            "objective": cfg.objective.value,
            "epsilon": format_rational(cfg.epsilon),
        },
    )
    run.write("rules.json", dumps_rules(rules))
    run.write_json("learn_report.json", report.to_dict())
    run.finish()
    print(f"learn-detection: {report.outcome}" + (f" ({report.reason})" if report.reason else ""))
    return EXIT_OK


def _cmd_learn_correction(args) -> int:
    from .learning import learn_correction
    from .rules import RuleSet, dumps_rules
    log = load_log_file(args.log)
    conditions = args.condition or []
    triggers = args.trigger_class or []
    if len(conditions) != len(triggers) or not conditions:
        raise InputError("learn-correction needs matching --condition/--trigger-class pairs")
    pairs = list(zip(conditions, triggers))
    rule, report = learn_correction(log, args.model, args.target_class, pairs)
    rules = RuleSet(corrections=(rule,) if rule else ())
    run = _Run(
        "learn-correction",
        args.out,
        [args.log],
        None,
        {
            "model": args.model,
            "target_class": args.target_class,
            "candidate_pairs": [list(p) for p in sorted(set(pairs))],
        },
    )
    run.write("rules.json", dumps_rules(rules))
    run.write_json("learn_report.json", report.to_dict())
    run.finish()
    print(f"learn-correction: {report.outcome}" + (f" ({report.reason})" if report.reason else ""))
    return EXIT_OK


def _cmd_apply(args) -> int:
    from .rules import apply_rules, loads_rules
    log = load_log_file(args.log)
    rules = loads_rules(_read_text(args.rules, "rule file", InputError))
    applied, trace = apply_rules(log, rules)
    run = _Run("apply", args.out, [args.log, args.rules], None, None)
    run.write("applied.jsonl", _log_chunks(applied))
    run.write("trace.json", chain(trace._json_chunks(), ("\n",)))
    run.finish()
    touched = trace.nonempty()
    reinstated = sum(len(e.reinstated) for e in touched)
    conflicts = sum(1 for e in touched if e.conflict)
    print(
        f"apply: {sum(len(e.erased) for e in touched)} erasures, "
        f"{sum(len(e.added) for e in touched)} additions, "
        f"{conflicts} conflicts, {reinstated} mutually-canceling relabel(s)"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .rules import evaluate_delta
    before = load_log_file(args.before)
    after = load_log_file(args.after)
    rows = evaluate_delta(before, after)
    run = _Run("eval", args.out, [args.before, args.after], None, None)
    run.write("deltas.csv", deltas_csv(rows))
    run.finish()
    print(render_deltas(rows), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .theorems import TheoremVerdict, check_all
    log = load_log_file(args.log)
    body = ConditionBody.of(*args.condition)
    model, alpha = args.model, args.class_label
    reports = check_all(log, model, alpha, body, args.target_class or None)
    run = _Run(
        "verify",
        args.out,
        [args.log],
        None,
        {
            "model": model,
            "class": alpha,
            "conditions": sorted(set(args.condition)),
            "target_class": args.target_class,
        },
    )
    rendered = report_render(reports)
    run.write_json("reports.json", [r.to_dict() for r in reports])
    run.write("reports.txt", rendered)
    violated = [r for r in reports if r.verdict is TheoremVerdict.VIOLATED]
    if violated:
        run.write_json("violation.json", [r.to_dict() for r in violated])
    run.finish()
    print(rendered, end="")
    if violated:
        print(
            f"verify: {len(violated)} VIOLATED verdict(s) — this indicates an "
            "implementation bug; see violation.json",
            file=sys.stderr,
        )
        return EXIT_VIOLATED
    if all(r.verdict is TheoremVerdict.SKIPPED for r in reports):
        print("verify: every check was SKIPPED (nothing evaluable)", file=sys.stderr)
        return EXIT_ALL_SKIPPED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _one_blas_thread()
    from .theorems import sweep
    seed, trials = _digits(args.seed, "--seed"), _digits(args.trials, "--trials")
    if trials < 1:
        raise InputError("--trials: must be at least 1")
    result = sweep(seed, trials)
    run = _Run("sweep", args.out, [], [seed], {"trials": trials})
    run.write_json("sweep.json", result.to_dict())
    rendered = render_sweep(result)
    run.write("sweep.txt", rendered)
    for violation in result.violations:
        # A trial's log is written once; each violation of it is named by
        # its theorem, class and condition (the correction class follows
        # from the class).
        log_name = f"replay_{violation.trial}.jsonl"
        if log_name not in run.outputs:
            run.write(log_name, violation.log_text)
        run.write_json(
            f"replay_{violation.trial}_{violation.theorem_id.value}_{violation.alpha}"
            f"_{violation.condition_id}.json",
            {
                "trial": violation.trial,
                "trial_seed": violation.trial_seed,
                "alpha": violation.alpha,
                "condition_id": violation.condition_id,
                "correction_class": violation.correction_class,
                "report": violation.report.to_dict(),
            },
        )
    run.finish()
    print(rendered, end="")
    if result.violations:
        print(
            f"sweep: {len(result.violations)} VIOLATED verdict(s); replay files written",
            file=sys.stderr,
        )
        return EXIT_VIOLATED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errata",
        description="Error detecting and correcting rules over prediction logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic log from a config")
    p.add_argument("--config", required=True, help="synth config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("learn-detection", help="learn a detection rule")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--class", dest="class_label", required=True)
    p.add_argument(
        "--condition", action="append", required=True, help="candidate condition id (repeatable)"
    )
    p.add_argument("--objective", choices=sorted(_OBJECTIVES), default="precision-gain")
    p.add_argument("--epsilon", help='recall-reduction budget as "num/den"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn_detection)

    p = sub.add_parser("learn-correction", help="learn a correction rule")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target-class", required=True, help="class the rule assigns")
    p.add_argument(
        "--condition", action="append", required=True,
        help="pair condition id (repeatable, zipped with --trigger-class)",
    )
    p.add_argument(
        "--trigger-class", action="append", required=True,
        help="pair trigger class (repeatable, zipped with --condition)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn_correction)

    p = sub.add_parser("apply", help="apply a rule file (detection, then correction)")
    p.add_argument("--log", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("eval", help="exact metric deltas between two logs")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="check every identity on one class/body")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--class", dest="class_label", required=True)
    p.add_argument(
        "--condition", action="append", required=True,
        help="body condition id (repeatable, disjunctive)",
    )
    p.add_argument(
        "--target-class", help="also check the reclassification limit toward this class"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="randomized self-test over many logs")
    p.add_argument("--seed", required=True, help="nonnegative integer, ASCII digits")
    p.add_argument("--trials", required=True, help="positive integer, ASCII digits")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


# Flags that name an id or a label, as (flag, argparse dest, what it names):
# an empty value names nothing and is rejected.
_NONEMPTY_VALUES = (("--model", "model", "model id"), ("--class", "class_label", "class label"),
                    ("--target-class", "target_class", "class label"),
                    ("--condition", "condition", "condition id"),
                    ("--trigger-class", "trigger_class", "class label"))
# Flags that name an input file, as (flag, argparse dest). Each must name a
# regular file: a pipe would be drained by the load and hash as empty, and a
# device has no bytes to digest.
_INPUT_FILES = (("--log", "log"), ("--before", "before"), ("--after", "after"),
                ("--rules", "rules"), ("--config", "config"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A flag holds a string, or a list of them if repeatable; CPython
        # 3.10-3.12's argparse reads --flag=-- as [], or as [[]] repeated.
        (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
        for action in commands[args.command]._actions:
            value = getattr(args, action.dest, None)
            if value == [] or isinstance(value, list) and [] in value:
                raise InputError(f"{action.option_strings[0]}: expected a value, got '--'")
        for flag, dest, what in _NONEMPTY_VALUES:
            value = getattr(args, dest, None)
            if "" in (value if isinstance(value, list) else [value]):
                raise InputError(f"{flag}: expected a nonempty {what}")
        for flag, dest in _INPUT_FILES:
            path = getattr(args, dest, None)
            if path is None:
                continue
            try:
                mode = os.stat(path).st_mode
            except OSError as exc:
                raise InputError(f"{flag}: {exc}") from None
            if not S_ISREG(mode):
                raise InputError(f"{flag}: not a regular file: {path!r}")
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout or stderr went away: not bad input, and no
        # message would reach it.
        return EXIT_CLOSED_OUTPUT
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # Bad input only (an undecodable file is bad input too): any other
        # exception, a bare ValueError included, is a bug and propagates.
        print(f"errata {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT


# run skips interpreter finalization, which frees every module and object
# one at a time just before the OS reclaims the whole process. That is
# safe because every file errata opens is closed by a ``with`` block before
# main returns, and errata starts no Python thread, so nothing is left for
# finalization to close or join.
def run() -> NoReturn:
    """The ``errata`` command: ``main()`` on ``sys.argv``, then the exit
    handlers (registered with ``atexit``), a flush of stdout and stderr, and
    ``os._exit`` with main's code, or ``EXIT_CLOSED_OUTPUT`` if a flush
    fails. An exception from main propagates as from any script."""
    code = main()
    atexit._run_exitfuncs()  # private, in CPython 3.10-3.13
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when started with fd 1 or 2 closed
                stream.flush()
        except OSError:
            code = EXIT_CLOSED_OUTPUT
    os._exit(code)


if __name__ == "__main__":
    run()
