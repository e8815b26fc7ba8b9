"""Shared plumbing: child processes, statistics, bundle surgery.

The benchmark treats ``repro`` as a black box.  End-to-end numbers come
from its public CLI run as child processes (``python -m repro ...``
with ``PYTHONPATH=src``); this module launches them through
``launch.py``, which reaps them with ``wait4`` so their peak RSS is
known, cuts the on-disk JSONL bundles into epoch runs for tampering,
and replays those runs through a loopback publisher.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

#: Scale of every synthesized workload (app population size); the audit
#: rebuilds the trusted program from the same ``--workload``/``--scale``.
SCALE = 0.05

#: Where runs keep their trace and profile files, relative to the root of
#: the checkout the benchmark is started from; each run's bundles live
#: in a subdirectory removed when the run ends.
WORK_DIR = ".auditbench"


def src_dir() -> str:
    return os.path.abspath("src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir()
    # Verdict lines are timestamped as they arrive on the pipe.
    env["PYTHONUNBUFFERED"] = "1"
    # The CLI defaults are what is measured.
    env.pop("REPRO_BACKEND", None)
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


@dataclass
class ChildRun:
    """One finished child process."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    #: (perf_counter timestamp, line) for every stdout line, stamped as
    #: it was read.
    lines: list[tuple[float, str]] = field(default_factory=list)
    timed_out: bool = False


#: The small process every CLI child is started through (see launch.py).
_LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "launch.py")


class Child:
    """A running child whose stdout lines are timestamped on arrival.

    It runs under ``launch.py`` in a process group of its own, which
    times it, reaps it and reports its peak RSS; pinned to CPU ``cpu``
    when that is given.
    """

    def __init__(self, argv: list[str], cpu: int | None = None):
        self.lines: list[tuple[float, str]] = []
        self.started = time.perf_counter()
        self._report, write = os.pipe()
        pin = "-" if cpu is None else str(cpu)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", _LAUNCH, str(write), pin, *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env(), text=True, bufsize=1, pass_fds=(write,),
                start_new_session=True,
            )
        finally:
            os.close(write)
        self._err: list[str] = []
        self.eof = False
        self._readers = [
            threading.Thread(target=self._read_out, daemon=True),
            threading.Thread(target=self._read_err, daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    def _read_out(self) -> None:
        for line in self.proc.stdout:
            self.lines.append((time.perf_counter(), line.rstrip("\n")))
        self.eof = True

    def _read_err(self) -> None:
        for line in self.proc.stderr:
            self._err.append(line)

    def finish(self, timeout: float) -> ChildRun:
        """Wait for the child (killing its process group after
        ``timeout``) and collect it."""
        timed_out = False
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            timed_out = True
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        wall = time.perf_counter() - self.started
        for reader in self._readers:
            reader.join(timeout=5.0)
        self.proc.stdout.close()
        self.proc.stderr.close()
        chunks = []
        while chunk := os.read(self._report, 4096):
            chunks.append(chunk)
        os.close(self._report)
        report = json.loads(b"".join(chunks) or b"{}")
        if report:
            wall = report["ended"] - report["started"]
        return ChildRun(
            returncode=self.proc.returncode, wall_s=wall,
            # ru_maxrss is in KiB on Linux.
            rss_mb=report.get("maxrss_kb", 0) / 1024.0,
            stdout="\n".join(line for _, line in self.lines),
            stderr="".join(self._err), lines=list(self.lines),
            timed_out=timed_out,
        )


def run_child(argv: list[str], timeout: float,
              cpu: int | None = None) -> ChildRun:
    """Run ``argv`` to completion, measuring wall time and peak RSS."""
    return Child(argv, cpu).finish(timeout)


def _spin() -> None:
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i


def quietest_cpu() -> int | None:
    """The CPU this process may use that runs a short fixed loop fastest
    right now, or None when it may use only one.

    On a shared cloud host each vCPU slows down by up to ~1.8x,
    independently of the others, in phases lasting from under a second
    to tens of seconds, with no steal time reported.  A serial child
    pinned to the CPU that is fast at its launch runs in a slow phase
    less often than one the scheduler places: audits of one bundle
    interleaved on a 2-vCPU Xeon VM spread 0.065 (pinned) against 0.153
    (placed by the scheduler), as IQR/median of 8-audit means.  The
    probe takes a few milliseconds per CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    best: dict[int, float] = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for _ in range(3):
                started = time.perf_counter()
                _spin()
                took = time.perf_counter() - started
                best[cpu] = min(best.get(cpu, took), took)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def last_json(text: str) -> dict | None:
    """The JSON document at the end of a child's stdout (pretty-printed
    documents span lines, so parse from the first ``{`` at column 0)."""
    start = text.find("\n{")
    start = 0 if text.startswith("{") else (start + 1 if start >= 0 else -1)
    if start < 0:
        return None
    try:
        return json.loads(text[start:])
    except ValueError:
        return None


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; exact for one value)."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])


def supported_percentile(count: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    if count < 20:
        return 50
    return max(50, min(99, int(100 * (1 - 10 / count))))


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


# -- bundle surgery -----------------------------------------------------------


@dataclass
class SplitBundle:
    """A segmented JSONL bundle cut into replayable epoch runs."""

    header: bytes
    state: bytes
    #: Per epoch: its body lines (events + reports).
    bodies: list[list[bytes]]
    #: Per epoch: the record that closes it (the next epoch's opening
    #: ``epoch_mark``, or the final ``end``).
    closers: list[bytes]
    #: Requests per epoch.
    requests: list[int]


_REQUEST_PREFIX = b'{"kind": "event", "event": {"kind": "REQUEST"'


def _kind(line: bytes) -> str:
    prefix = b'{"kind": "'
    if not line.startswith(prefix):
        return ""
    end = line.index(b'"', len(prefix))
    return line[len(prefix):end].decode()


def split_bundle(path: str) -> SplitBundle:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    header, state = lines[0], lines[1]
    if _kind(state) != "state":
        raise ValueError(f"{path}: second line is not the state record")
    bodies: list[list[bytes]] = [[]]
    closers: list[bytes] = []
    requests = [0]
    for line in lines[2:]:
        kind = _kind(line)
        if kind in ("epoch_mark", "end"):
            closers.append(line)
            if kind == "end":
                break
            bodies.append([])
            requests.append(0)
            continue
        bodies[-1].append(line)
        if kind == "event" and line.startswith(_REQUEST_PREFIX):
            requests[-1] += 1
    if len(closers) != len(bodies):
        raise ValueError(f"{path}: bundle has no end record")
    return SplitBundle(header, state, bodies, closers, requests)


def truncate(split: SplitBundle, epochs: int) -> SplitBundle:
    """The first ``epochs`` epochs of a split bundle, ended cleanly (the
    first epoch's initial state is the bundle's, so any prefix is a
    bundle of its own)."""
    events = sum(1 for body in split.bodies[:epochs] for line in body
                 if _kind(line) == "event")
    end = json.dumps({"kind": "end", "events": events}).encode()
    return SplitBundle(split.header, split.state, split.bodies[:epochs],
                       split.closers[:epochs - 1] + [end],
                       split.requests[:epochs])


def tampered(split: SplitBundle) -> SplitBundle:
    """The same bundle with the first non-empty response body of its
    first epoch altered."""
    body = list(split.bodies[0])
    for i, line in enumerate(body):
        if _kind(line) != "event":
            continue
        record = json.loads(line)
        response = record["event"].get("response")
        if response and response.get("body"):
            response["body"] = response["body"] + " tampered"
            body[i] = json.dumps(record).encode()
            return replace(split, bodies=[body, *split.bodies[1:]])
    raise ValueError("first epoch has no response body to flip")


def write_bundle(split: SplitBundle, path: str) -> str:
    lines = [split.header, split.state]
    for body, closer in zip(split.bodies, split.closers):
        lines.extend(body)
        lines.append(closer)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    return path


# -- replay -------------------------------------------------------------------


@dataclass
class Published:
    """When each epoch of a replay went out, indexed by epoch."""

    #: When the epoch's closing record was due: on the open-loop
    #: schedule, or (back to back) when the epoch started going out.
    due: list[float] = field(default_factory=list)
    #: When the closing record was handed to the publisher.
    closing: list[float] = field(default_factory=list)
    #: How late the closing record went out.
    late: list[float] = field(default_factory=list)


def publish_epochs(publisher, split: SplitBundle, rate: float | None,
                   sent: Published, give_up=lambda: False) -> Published:
    """Replay ``split`` through a ``BundlePublisher``.

    Waits for a subscriber (or ``give_up()``), publishes the initial
    state, then each epoch's body and closing record with the zero
    re-encode ``write_record_payload``: open loop at ``rate`` epochs/s,
    or back to back when ``rate`` is None, as fast as the publisher's
    backpressure lets them out.  ``sent`` fills as epochs go out, so a
    caller on another thread can pass its own.
    """
    while publisher.subscriber_count < 1 and not give_up():
        time.sleep(0.005)
    publisher.write_record_payload(split.state)
    t0 = time.perf_counter()
    for k, body in enumerate(split.bodies):
        when = t0 + (k + 1) / rate if rate else time.perf_counter()
        pause = when - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        for line in body:
            publisher.write_record_payload(line)
        sent.due.append(when)
        sent.closing.append(time.perf_counter())
        publisher.write_record_payload(split.closers[k])
        sent.late.append(time.perf_counter() - when)
    return sent
