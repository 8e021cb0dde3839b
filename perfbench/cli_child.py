"""Run one ``errata`` subcommand in-process with spans recorded.

Usage: python perfbench/cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

The traced CLI pipeline starts this script in place of ``python -m
errata``: it imports ``errata.cli``, wraps the library functions the CLI
calls, runs ``errata.cli.main`` with the given arguments inside a
``cli.main`` span (after a ``cli.import`` span for the import), writes
the spans to SPANS_JSON and exits with the subcommand's exit code.
"""

import json
import sys
from time import perf_counter

from spans import Tracer


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import errata.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    # The import is the CLI's own start-up work: a span, so that it counts
    # in cli.self_s rather than the residual.
    tracer.spans.append(["cli.import", t0, t0 + import_s, -1, 0])
    tracer.install()
    tracer.begin(0)
    try:
        code = errata.cli.main(cli_args)
    finally:
        tracer.end()
        tracer.uninstall()
    record = tracer.export()
    record["import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
