"""Live rate sweep for ``cart-live``: run once per baseline, not per check.

Replays one synthesized cart bundle open loop at each offered rate in
``RATES`` to ``repro audit --connect ... --epoch-workers 2`` and
reports, per rate, the verdict lag (median and p90 over the timed
epochs, timed as the end-to-end ``lag_p50_s`` is), how late the
generator ran, and whether the backlog grew.  The highest rate whose
p90 lag meets ``LAG_LIMIT_S`` without a growing backlog is the
auditor's sustainable rate::

    python3 auditbench/sweep.py --out auditbench/baseline/sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from common import (
    WORK_DIR,
    median,
    percentile,
    split_bundle,
    src_dir,
    truncate,
)
from endtoend import release_lags, replay_live
from workloads import WORKLOADS, Setup

#: Seed of the swept bundle.
SEED = 1
#: Offered rates, epochs per second.
RATES = (2.0, 5.0, 10.0, 20.0, 30.0, 40.0)
#: Seconds replayed at each rate, after the warm-up epochs.
SECONDS = 10.0
#: p90 verdict lag a sustainable rate must meet.
LAG_LIMIT_S = 0.25
#: A backlog grows when the last quarter's median lag exceeds the first
#: quarter's by more than this many seconds.
BACKLOG_GROWTH_S = 0.05


def sweep() -> dict:
    workload = WORKLOADS["cart-live"]
    # One epoch past the timed ones releases the last timed verdict.
    epochs_needed = workload.warmup_epochs + int(max(RATES) * SECONDS) + 1
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
    try:
        prep = Setup(workload, SEED, epochs_needed * workload.epoch_size,
                     workdir, timeout_s=600.0)
        prep.repeat()
        if prep.problems:
            raise SystemExit("setup failed: " + "; ".join(prep.problems))
        full = split_bundle(prep.bundle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows = []
    for rate in RATES:
        split = truncate(full,
                         workload.warmup_epochs + int(rate * SECONDS) + 1)
        stream = replay_live(workload, split, rate)
        timed = range(workload.warmup_epochs, len(split.bodies) - 1)
        missing = [k for k in timed if k not in stream.verdicts]
        lags = release_lags(stream, timed)
        quarter = max(1, len(lags) // 4)
        growth = (median(lags[-quarter:]) - median(lags[:quarter])
                  if lags else float("inf"))
        row = {
            "rate_epochs_per_s": rate,
            "rate_requests_per_s": rate * workload.epoch_size,
            "epochs": len(lags),
            "failed_epochs": len(missing),
            "exit_code": stream.run.returncode,
            "lag_p50_s": median(lags) if lags else None,
            "lag_p90_s": percentile(lags, 90) if lags else None,
            "backlog_growth_s": growth,
            "gen.late_max_s": max(stream.sent.late),
        }
        row["meets_limit"] = bool(
            lags and not missing and stream.run.returncode == 0
            and row["lag_p90_s"] <= LAG_LIMIT_S
            and growth <= BACKLOG_GROWTH_S)
        rows.append(row)
        print(json.dumps(row), flush=True)
    passing = [r["rate_requests_per_s"] for r in rows if r["meets_limit"]]
    return {
        "workload": workload.name, "seed": SEED, "seconds": SECONDS,
        "epoch_size": workload.epoch_size, "lag_limit_p90_s": LAG_LIMIT_S,
        "backlog_growth_limit_s": BACKLOG_GROWTH_S, "rates": rows,
        "max_rate_meeting_limit_requests_per_s":
            max(passing) if passing else None,
        "gen.late_max_s": max(r["gen.late_max_s"] for r in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(src_dir(), "repro")):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir())
    result = sweep()
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
