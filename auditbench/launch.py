"""Run one command and report its wall time and peak RSS.

    python3 -S auditbench/launch.py FD CPU ARGV...

runs ``ARGV`` as a child (stdin, stdout and stderr inherited), pinned to
CPU number ``CPU`` unless that is ``-``, reaps it with ``wait4`` and
writes ``{"started", "ended", "maxrss_kb"}`` as JSON to the file
descriptor ``FD``, then exits with the child's exit code (128 + N when
signal N killed it).

The benchmark starts its CLI children through this small process
rather than directly.  On Linux a process's ``ru_maxrss`` keeps the
peak RSS of the image it replaced at ``exec``, so a child forked from
the benchmark, which holds whole bundles and publisher spools, would
report the benchmark's own peak.  Forked from here, the floor is this
process's few megabytes.  The child's own children (an auditor's epoch
pool) count too: ``wait4`` folds in the peak of every descendant the
child reaped.
"""

import json
import os
import sys
import time


def main() -> int:
    report = int(sys.argv[1])
    cpu = sys.argv[2]
    argv = sys.argv[3:]
    os.set_inheritable(report, False)
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            if cpu != "-":
                os.sched_setaffinity(0, {int(cpu)})
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    ended = time.perf_counter()
    os.write(report, json.dumps({
        "started": started, "ended": ended,
        "maxrss_kb": usage.ru_maxrss,
    }).encode())
    os.close(report)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
