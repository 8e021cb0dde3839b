"""Start child processes on behalf of a larger benchmark process.

A child's peak RSS as ``wait4`` reports it is never below the memory of
the process that forked it (Linux carries the forking address space's
high-water mark into the child at exec). The CLI workload holds the
log's reference recount in memory, so it asks this small process to
start each ``errata`` child instead: one JSON request per stdin line
({"argv": [...]}), one JSON reply per stdout line (exit code, wall time,
peak RSS, stderr). It exits when stdin closes.
"""

import json
import signal
import sys

from common import run_child


def main() -> int:
    # Terminated mid-request: run_child kills and reaps the child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        request = json.loads(line)
        run = run_child(request["argv"], env=None)
        reply = {"returncode": run.returncode, "wall_s": run.wall_s, "rss_mb": run.rss_mb, "stderr": run.stderr}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
