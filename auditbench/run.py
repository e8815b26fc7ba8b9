"""The audit benchmark: one command, three workloads, every verdict checked.

Run from the root of a checkout (the program is built from ``src/``)::

    python3 auditbench/run.py --workload wiki-dedup --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured through the
public CLI with tracing off; ``--trace 1`` runs the traced per-layer
pass instead (see ``layers.py``) and writes its spans as JSONL and the
workload's (n, alpha, ell) profile under ``.auditbench/``.  Bundles live
in a per-run directory there, removed when the run ends.  Each metric
is printed by name with its unit, then the last stdout line is one JSON
object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` declares;
a run that produces any other set counts as failed.  Exit status is 0
when every check passed, 1 when any failed, 2 when the checkout holds
no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from common import WORK_DIR, src_dir
from workloads import WORKLOADS


def _declared(mode: str) -> dict[str, str]:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(src_dir(), "repro", "__main__.py")):
        print(f"error: no program to benchmark: {src_dir()}/repro is "
              f"missing (run from the root of a checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir())
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-",
                               dir=WORK_DIR)
    started = time.perf_counter()
    try:
        if args.trace:
            from layers import run_traced

            outcome = run_traced(workload, args.seed, args.seconds, workdir)
            declared = _declared("per_layer")
        else:
            from endtoend import run_live, run_offline

            runner = run_live if workload.live else run_offline
            outcome = runner(workload, args.seed, args.seconds, workdir)
            declared = _declared("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    got = {name: unit for name, (_, unit) in outcome.metrics.items()}
    outcome.check(got == declared,
                  f"metrics differ from BENCHMARK.json: declared "
                  f"{sorted(declared.items())}, produced "
                  f"{sorted(got.items())}")
    print(f"workload {workload.name} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, "
          f"{time.perf_counter() - started:.1f} s)")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
