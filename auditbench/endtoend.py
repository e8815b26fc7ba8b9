"""End-to-end runs: the public CLI as a black box, tracing off.

* Offline workloads time ``repro audit BUNDLE`` from launch to exit,
  again and again for the run's ``--seconds``.
* The live workload replays its bundle epoch by epoch through a
  loopback ``BundlePublisher`` (the zero re-encode
  ``write_record_payload`` path) to ``repro audit --connect ...
  --epoch-workers 2`` children: back to back for its throughput, and
  open loop at a fixed offered rate for its verdict lag (see
  :func:`release_lags`).

Every verdict is checked: honest audits must ACCEPT with the same
deterministic stats every time, and the bundle's first epoch with one
response body flipped must be REJECTED through the same entry point.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field

from common import (
    Child,
    ChildRun,
    Published,
    SplitBundle,
    digest,
    last_json,
    median,
    percentile,
    publish_epochs,
    quietest_cpu,
    repro_cmd,
    run_child,
    split_bundle,
    supported_percentile,
    tampered,
    truncate,
    write_bundle,
)
from workloads import PACED_SHARE, SETUP_REPEATS, Setup, Workload

#: Offline runs audit at least this many times, however long it takes.
MIN_AUDITS = 3
#: Patience for one child (synth or audit).
CHILD_TIMEOUT_S = 120.0
#: Epoch-level concurrency of the live auditor.
LIVE_EPOCH_WORKERS = 2
#: Fewest back-to-back replays behind the live workload's ``audit_rps``.
MIN_BURSTS = 2

_EPOCH_LINE = re.compile(r"^epoch (\d+): ACCEPTED \((\d+) requests")


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines (sample counts, percentiles, profile).
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def add_setup(self, prep: Setup) -> None:
        self.attempted += len(prep.walls)
        self.failed += len(prep.problems)
        self.problems.extend(prep.problems)
        self.metrics["setup_s"] = (median(prep.walls), "s")
        self.notes.append(f"setup_s: median of {len(prep.walls)} synth "
                          f"runs {[round(w, 3) for w in prep.walls]}")


def _tail(run: ChildRun) -> str:
    return (f"exit {run.returncode}, timed out {run.timed_out}: "
            f"{run.stderr.strip()[-300:]}")


# -- offline ------------------------------------------------------------------


def _audit_file(workload: Workload, path: str) -> tuple[ChildRun, dict]:
    run = run_child(repro_cmd("audit", path, *workload.audit_args(),
                              "--json"), timeout=CHILD_TIMEOUT_S,
                    cpu=quietest_cpu())
    return run, last_json(run.stdout) or {}


def run_offline(workload: Workload, seed: int, seconds: float,
                workdir: str) -> Outcome:
    out = Outcome()
    prep = Setup(workload, seed, workload.requests, workdir,
                 CHILD_TIMEOUT_S)
    prep.repeat()
    if not prep.ok:
        out.add_setup(prep)
        return out
    split = split_bundle(prep.bundle)
    requests = sum(split.requests)
    out.check(requests == workload.requests,
              f"bundle holds {requests} requests, expected "
              f"{workload.requests}")

    # Verdict guard through the same entry point (also warms caches).
    path = write_bundle(tampered(truncate(split, 1)),
                        os.path.join(workdir, "tampered.jsonl"))
    run, payload = _audit_file(workload, path)
    out.check(run.returncode == 1 and payload.get("verdict") == "REJECTED",
              f"tampered epoch not REJECTED ({_tail(run)})")

    # The remaining setup repeats are spread over the audit window, so
    # the audits sample the host over a longer span at no extra cost
    # (its speed drifts in phases of tens of seconds).
    walls: list[float] = []
    rss: list[float] = []
    stats_digests: set[str] = set()
    audit_time = 0.0
    while len(walls) < MIN_AUDITS or audit_time < seconds:
        due = seconds * len(prep.walls) / SETUP_REPEATS
        if len(prep.walls) < SETUP_REPEATS and audit_time >= due:
            prep.repeat()
        run, payload = _audit_file(workload, prep.bundle)
        audit_time += run.wall_s
        if not out.check(run.returncode == 0
                         and payload.get("verdict") == "ACCEPTED",
                         f"honest audit not ACCEPTED ({_tail(run)})"):
            if not walls and out.failed > MIN_AUDITS:
                break
            continue
        stats_digests.add(digest(payload.get("stats")))
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
    while len(prep.walls) < SETUP_REPEATS:
        prep.repeat()
    out.add_setup(prep)
    out.check(len(stats_digests) <= 1,
              f"honest audits disagree: {len(stats_digests)} distinct "
              f"stats digests")
    if not walls:
        return out
    size = os.path.getsize(prep.bundle)
    # Work completed per second over the whole window (a throughput, not
    # a per-audit timing): slow and fast stretches of a noisy host
    # average out instead of flipping a median.
    out.metrics["audit_rps"] = (requests * len(walls) / sum(walls), "1/s")
    out.metrics["audit_rss_mb"] = (median(rss), "MB")
    out.metrics["bundle_bytes_per_req"] = (size / requests, "B")
    # An offline audit has one verdict, so its lag is the launch-to-
    # verdict wall: the same samples audit_rps sums, adding no gate of
    # their own.  Every workload reports every end-to-end metric, so it
    # is kept.
    out.metrics["lag_p50_s"] = (median(walls), "s")
    out.notes.append(
        f"{len(walls)} audits of {requests} requests "
        f"({len(split.bodies)} epochs, {size} bytes); walls "
        f"{[round(w, 3) for w in walls]}; stats digest "
        f"{next(iter(stats_digests), '-')}")
    out.notes.append(
        f"lag_p50_s: the same walls (launch to verdict); {len(walls)} "
        f"samples support p{supported_percentile(len(walls))} only")
    return out


# -- live ---------------------------------------------------------------------


@dataclass
class LiveStream:
    """Timings of one replay to a ``repro audit --connect`` child."""

    sent: Published
    #: Epoch index -> when its ACCEPTED line (with the right request
    #: count) was read.
    verdicts: dict[int, float]
    run: ChildRun


def replay_live(workload: Workload, split: SplitBundle,
                rate: float | None) -> LiveStream:
    """Replay every epoch (open loop at ``rate`` epochs/s, or back to
    back when ``rate`` is None) to a fresh ``repro audit --connect``
    child."""
    from repro.net import BundlePublisher

    with BundlePublisher("127.0.0.1:0") as publisher:
        child = Child(repro_cmd(
            "audit", "--connect", publisher.endpoint,
            *workload.audit_args(),
            "--epoch-workers", str(LIVE_EPOCH_WORKERS),
        ))
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        sent = publish_epochs(
            publisher, split, rate, Published(),
            give_up=lambda: child.eof or time.perf_counter() > deadline)
        run = child.finish(CHILD_TIMEOUT_S)
    verdicts: dict[int, float] = {}
    for stamp, line in run.lines:
        match = _EPOCH_LINE.match(line)
        if match and int(match.group(2)) == split.requests[
                int(match.group(1))]:
            verdicts[int(match.group(1))] = stamp
    return LiveStream(sent, verdicts, run)


def release_lags(stream: LiveStream, epochs) -> list[float]:
    """Per epoch k of ``epochs`` (each followed by another): from the
    due time of epoch k+1's closing record to epoch k's verdict line.

    The CLI prints epoch k's verdict once epoch k+1 has arrived: its
    feed loop settles finished epochs after each submit.  So from k's
    own closing record the lag is one offered period plus the auditor's
    work, and the period would swamp the work.  Timed from the record
    that releases the verdict, the lag is the auditor's work alone: wire
    delivery and decode of epoch k+1, its inline redo prepass and
    migration, and any wait for epoch k's pool audit.  A late generator
    still counts against it.
    """
    return [stream.verdicts[k] - stream.sent.due[k + 1] for k in epochs
            if k in stream.verdicts]


def _check_stream(out: Outcome, stream: LiveStream, split: SplitBundle,
                  label: str) -> None:
    run = stream.run
    out.check(run.returncode == 0 and any(
        line.startswith("ACCEPTED") for _, line in run.lines),
        f"{label} live audit did not end ACCEPTED ({_tail(run)})")
    for k in range(len(split.bodies)):
        out.check(k in stream.verdicts,
                  f"{label} epoch {k}: no ACCEPTED line for "
                  f"{split.requests[k]} requests")


def run_live(workload: Workload, seed: int, seconds: float,
             workdir: str) -> Outcome:
    out = Outcome()
    prep = Setup(workload, seed, workload.bundle_requests(seconds),
                 workdir, CHILD_TIMEOUT_S)
    for _ in range(SETUP_REPEATS):
        prep.repeat()
    out.add_setup(prep)
    if not prep.ok:
        return out
    split = split_bundle(prep.bundle)
    epochs = len(split.bodies)
    warmup = workload.warmup_epochs

    guard = replay_live(workload, tampered(truncate(split, 1)),
                        workload.rate)
    out.check(guard.run.returncode == 1 and any(
        line.startswith("REJECTED") for _, line in guard.run.lines),
        f"tampered live epoch not REJECTED ({_tail(guard.run)})")

    # Throughput: the whole bundle back to back, so the auditor is the
    # bottleneck; timed from the last warm-up epoch's verdict to the
    # last epoch's.  These replays fill the part of ``seconds`` the
    # open-loop replay leaves, half of them before it and half after,
    # so that both metrics sample the host over the whole run.
    spans: list[float] = []
    burst_wall = 0.0
    burst_budget = seconds * (1 - PACED_SHARE)
    stream = None
    while stream is None or burst_wall < burst_budget \
            or len(spans) < MIN_BURSTS:
        if stream is None and burst_wall >= burst_budget / 2 \
                and len(spans) >= MIN_BURSTS // 2:
            # Verdict lag: open loop at the offered rate.
            stream = replay_live(workload, split, workload.rate)
            _check_stream(out, stream, split, "open-loop replay:")
            continue
        burst = replay_live(workload, split, None)
        _check_stream(out, burst, split, f"back-to-back replay "
                                         f"{len(spans)}:")
        if warmup - 1 not in burst.verdicts \
                or epochs - 1 not in burst.verdicts:
            return out
        spans.append(burst.verdicts[epochs - 1]
                     - burst.verdicts[warmup - 1])
        burst_wall += burst.run.wall_s
    lags = release_lags(stream, range(warmup, epochs - 1))
    if not lags:
        return out
    size = os.path.getsize(prep.bundle)
    requests = sum(split.requests[warmup:])
    out.metrics["audit_rps"] = (requests * len(spans) / sum(spans), "1/s")
    out.metrics["audit_rss_mb"] = (stream.run.rss_mb, "MB")
    out.metrics["bundle_bytes_per_req"] = (size / sum(split.requests), "B")
    out.metrics["lag_p50_s"] = (median(lags), "s")
    out.notes.append(
        f"audit_rps: {len(spans)} back-to-back replays of {epochs} "
        f"epochs of {workload.epoch_size} requests, {requests} timed "
        f"requests each, in {[round(s, 3) for s in spans]} s")
    # The tail is printed, not gated: a slow spell of the shared host
    # lifts it for minutes (ten seeds of the same code spread 0.43 as
    # IQR/median at p90, against 0.11 at p50), so no bound within 0.25
    # holds for it.
    tail = supported_percentile(len(lags))
    out.notes.append(
        f"lag: {len(lags)} epochs at {workload.rate:g} epochs/s "
        f"({warmup} warm-up epochs and the last excluded), timed from "
        f"the next epoch's closing record; p{tail} (the highest "
        f"supported) {percentile(lags, tail):.4f} s, p90 "
        f"{percentile(lags, 90):.4f} s; gen.late_max_s "
        f"{max(stream.sent.late):.4f}")
    return out
