"""The traced run: per-layer numbers for one workload.

Spans come from this file, around calls into each module's public
functions; nothing inside ``src/`` is changed.  The stock
``AuditPhase`` objects are wrapped in an ``AuditPipeline`` of traced
phases, ``VersionedDB.do_select`` is wrapped to count the row versions
each SELECT scans, and ``Executor.serve``/``BundleWriter.write_*`` are
wrapped while ``synthesize`` runs.  The run:

1. synthesizes the bundle in-process (``synth.*``), times the CLI's
   import (``cli.import_s``) and decodes the bundle (``io.*``);
2. audits it untraced and traced along two paths: the one-shot path of
   ``repro audit BUNDLE`` and the per-epoch session path of ``repro
   audit --connect``.  Phase metrics come from the path the workload's
   end-to-end metric runs (one-shot for offline workloads, session for
   the live one); ``migrate.s`` always comes from the session path,
   the only one that migrates.  ``trace.overhead_x`` is traced over
   untraced wall on that path;
3. replays the bundle open loop through a loopback publisher to a
   ``RemoteBundleReader`` and an ``epoch_workers=2`` ``AuditSession``
   driven like the CLI drives it (``net.*``, ``session.*``);
4. runs the backend and epoch-driver matrices and the paper's
   reference numbers, requiring identical verdicts and produced-body
   digests everywhere.

``LAYERS`` lists every metric with the end-to-end metric and workload
it should move; ``BENCHMARK.json``'s ``per_layer`` holds the same
names and units.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager

from common import (
    SCALE,
    WORK_DIR,
    Published,
    digest,
    median,
    publish_epochs,
    run_child,
    split_bundle,
)
from endtoend import LIVE_EPOCH_WORKERS, Outcome
from tracing import Tracer
from workloads import Workload

#: (name, unit, better, which end-to-end metric it should move, where)
LAYERS = [
    ("cli.import_s", "s", "lower",
     "audit_rps on wiki-dedup, where the audit is short"),
    ("io.decode_s", "s", "lower",
     "audit_rps on wiki-dedup, lag_p50_s on cart-live"),
    ("io.bytes", "B", "lower",
     "audit_rps on wiki-dedup, lag_p50_s on cart-live"),
    ("trace_check.s", "s", "lower", "audit_rps everywhere (~1%)"),
    ("proc_op_reports.s", "s", "lower", "audit_rps on wiki-dedup"),
    ("proc_op_reports.graph_nodes", "count", "lower",
     "audit_rps on wiki-dedup"),
    ("proc_op_reports.graph_edges", "count", "lower",
     "audit_rps on wiki-dedup"),
    ("db_redo.s", "s", "lower",
     "lag_p50_s and audit_rps on cart-live, audit_rps on hotcrp-read"),
    ("db_redo.statements", "count", "lower",
     "lag_p50_s on cart-live, audit_rps on hotcrp-read"),
    ("db_redo.versions", "count", "lower",
     "lag_p50_s on cart-live, audit_rps on hotcrp-read"),
    ("reexec.s", "s", "lower", "audit_rps on every offline workload"),
    ("reexec.interp_s", "s", "lower",
     "audit_rps on every offline workload"),
    ("reexec.steps", "count", "lower",
     "audit_rps on every offline workload"),
    ("reexec.multi_steps", "count", "lower",
     "audit_rps on every offline workload"),
    ("reexec.groups", "count", "lower",
     "audit_rps on every offline workload"),
    ("reexec.grouped_requests", "count", "higher",
     "audit_rps on every offline workload"),
    ("reexec.fallback_requests", "count", "lower",
     "audit_rps on every offline workload"),
    ("reexec.divergences", "count", "lower",
     "audit_rps on every offline workload"),
    ("reexec.alpha_mean", "ratio", "higher",
     "audit_rps on every offline workload"),
    ("db_query.s", "s", "lower",
     "audit_rps on hotcrp-read; no change on wiki-dedup"),
    ("db_query.issued", "count", "lower",
     "audit_rps on hotcrp-read; no change on wiki-dedup"),
    ("db_query.versions_per_select", "count", "lower",
     "audit_rps on hotcrp-read; no change on wiki-dedup"),
    ("dedup.hits", "count", "higher",
     "audit_rps on wiki-dedup; no change on hotcrp-read"),
    ("dedup.misses", "count", "lower",
     "audit_rps on wiki-dedup; no change on hotcrp-read"),
    ("dedup.hit_rate", "ratio", "higher",
     "audit_rps on wiki-dedup; no change on hotcrp-read"),
    ("output_compare.s", "s", "lower", "audit_rps everywhere"),
    ("migrate.s", "s", "lower",
     "lag_p50_s and audit_rps on cart-live"),
    ("session.prepass_s", "s", "lower",
     "lag_p50_s and audit_rps on cart-live; no change offline"),
    ("session.epoch_audit_s", "s", "lower",
     "audit_rps and audit_rss_mb on cart-live (the pool audit); lag "
     "only once it outgrows the offered period; no change offline"),
    ("session.queue_wait_s", "s", "lower",
     "lag_p50_s on cart-live; no change offline"),
    ("net.deliver_s", "s", "lower",
     "lag_p50_s and audit_rps on cart-live; no change offline"),
    ("net.wire_bytes", "B", "lower",
     "lag_p50_s and audit_rps on cart-live; no change offline"),
    ("synth.serve_s", "s", "lower", "setup_s everywhere"),
    ("synth.write_s", "s", "lower", "setup_s everywhere"),
    ("profile.mean_n", "count", "higher",
     "audit_rps on wiki-dedup (larger groups)"),
    ("profile.mean_ell", "count", "lower",
     "audit_rps on every offline workload"),
    ("profile.singleton_fraction", "ratio", "lower",
     "audit_rps on every offline workload"),
    ("reexec.backend.interp_s", "s", "lower",
     "none (not the default); decides which backends stay"),
    ("reexec.backend.accinterp_s", "s", "lower",
     "audit_rps on every offline workload (the default backend)"),
    ("reexec.backend.compinterp_s", "s", "lower",
     "none (not the default); decides which backends stay"),
    ("reexec.backend.hybrid_s", "s", "lower",
     "none (not the default); decides which backends stay"),
    ("driver.serial_s", "s", "lower",
     "none (not the CLI default); decides which drivers stay"),
    ("driver.thread2_s", "s", "lower",
     "none (not the CLI default); decides which drivers stay"),
    ("driver.process2_s", "s", "lower",
     "lag_p50_s on cart-live (the live auditor's driver)"),
    ("ref.simple_reexec_s", "s", "lower",
     "none: the paper's simple re-execution baseline"),
    ("ref.speedup_vs_reexec", "x", "higher",
     "audit_rps on every offline workload"),
    ("server.record_overhead_x", "x", "lower",
     "setup_s everywhere (not gated: shares lang with the audit)"),
    ("trace.overhead_x", "x", "lower", "none: cost of this tracing"),
]

BACKENDS = ("interp", "accinterp", "compinterp", "hybrid")
DRIVERS = {
    "serial": {"epoch_workers": 1},
    "thread2": {"epoch_workers": 2, "epoch_processes": False},
    "process2": {"epoch_workers": 2, "epoch_processes": True},
}
#: Offered request rate of the traced live replay on workloads whose own
#: end-to-end run is offline (the live workload uses its own rate).
REPLAY_REQUEST_RATE = 1000.0
#: Requests served by each leg of the record-overhead comparison.
RECORD_REQUESTS = 1000


class TracedPhase:
    """A stock ``AuditPhase`` run inside a span of its own name."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def run(self, actx) -> None:
        with self.tracer.span("phase." + self.name):
            self.inner.run(actx)


def traced_pipeline(tracer: Tracer):
    from repro.core import AuditPipeline, default_pipeline

    return AuditPipeline([TracedPhase(phase, tracer)
                          for phase in default_pipeline().phases])


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for a while."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def spanned(tracer: Tracer, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)
        return wrapper
    return make


@contextmanager
def counting_selects(tracer: Tracer, prefix: str):
    """Count SELECT scans and the logical rows (version chains) each
    walks, under ``prefix``."""
    from repro.sql.versioned import VersionedDB

    def make(original):
        def do_select(self, stmt, ts):
            table = self.tables.get(stmt.table)
            tracer.count(prefix + "scans")
            tracer.count(prefix + "rows_scanned",
                         len(table.rows) if table is not None else 0)
            return original(self, stmt, ts)
        return do_select

    with patched(VersionedDB, "do_select", make):
        yield


def produced_digest(result) -> str:
    return digest(sorted(result.produced.items()))


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


# -- steps --------------------------------------------------------------------


def _synth(workload: Workload, seed: int, requests: int, path: str,
           tracer: Tracer) -> dict:
    from repro.io import BundleWriter
    from repro.scenarios import ScenarioSpec, synthesize
    from repro.server.executor import Executor

    spec = ScenarioSpec(workload=workload.app, requests=requests,
                        scale=SCALE, seed=seed,
                        epoch_size=workload.epoch_size)
    with tracer.span("synth") as root, \
            patched(Executor, "serve", spanned(tracer, "synth.serve")), \
            patched(BundleWriter, "write_epoch",
                    spanned(tracer, "synth.write")), \
            patched(BundleWriter, "write_state",
                    spanned(tracer, "synth.write")):
        summary = synthesize(spec, path)
    summary["serve_s"] = tracer.total("synth.serve", under=root)
    summary["write_s"] = tracer.total("synth.write", under=root)
    return summary


def _import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import repro.__main__; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(3):
        run = run_child([sys.executable, "-c", code], timeout=60.0)
        if run.returncode == 0:
            samples.append(float(run.stdout.strip().splitlines()[-1]))
    return median(samples) if samples else float("nan")


def _live_session(app, path: str, rate: float, tracer: Tracer) -> dict:
    """Replay the bundle open loop at ``rate`` epochs/s to an in-process
    ``epoch_workers=2`` session, settling verdicts as the CLI does."""
    from repro.core import AuditConfig, Auditor
    from repro.net import BundlePublisher, RemoteBundleReader

    split = split_bundle(path)
    sent = Published()
    yielded: dict[int, float] = {}
    settled: dict[int, float] = {}
    results: dict[int, object] = {}
    config = AuditConfig(epoch_workers=LIVE_EPOCH_WORKERS)
    with BundlePublisher("127.0.0.1:0") as publisher, \
            tracer.span("live") as root:
        generator = threading.Thread(
            target=publish_epochs, args=(publisher, split, rate, sent),
            name="bench-generator", daemon=True)
        with RemoteBundleReader(publisher.endpoint) as reader:
            generator.start()
            try:
                initial = reader.read_initial_state()
                auditor = Auditor(app, config)
                with auditor.session(initial) as session:
                    pending = []

                    def settle() -> None:
                        epoch = pending.pop(0).result()
                        settled[epoch.index] = time.perf_counter()
                        results[epoch.index] = epoch

                    for k, epoch_slice in enumerate(reader.epochs()):
                        yielded[k] = time.perf_counter()
                        with tracer.span("session.submit", epoch=k):
                            pending.append(session.submit_epoch(
                                epoch_slice.trace, epoch_slice.reports))
                        while pending and pending[0].done():
                            settle()
                    while pending:
                        settle()
                    final = session.close()
                wire_bytes = reader.wire_bytes_received
            finally:
                generator.join(timeout=120.0)
    epochs = sorted(results)
    for k in epochs:
        tracer.add("net.deliver", sent.closing[k], yielded[k], parent=root,
                   epoch=k)
        tracer.add("session.epoch_lag", sent.due[k], settled[k],
                   parent=root, epoch=k)
    submits = {s.attrs["epoch"]: s.seconds
               for s in tracer.find("session.submit", under=root)}
    deliver = {k: yielded[k] - sent.closing[k] for k in epochs}
    audit = [results[k].phases.get("total", 0.0) for k in epochs]
    # As in the end-to-end lag, epoch k is timed from the closing record
    # of epoch k+1, which releases its verdict; what the releasing
    # epoch's delivery and inline prepass leave of it is the wait on
    # epoch k's pool audit and on settling.
    released = [k for k in epochs if k + 1 in results]
    lag = {k: settled[k] - sent.due[k + 1] for k in released}
    wait = [lag[k] - deliver[k + 1] - submits[k + 1] for k in released]
    return {
        "result": final, "epochs": len(epochs),
        "accepted": all(results[k].accepted for k in epochs),
        "prepass_s": median(submits.values()),
        "epoch_audit_s": median(audit),
        "queue_wait_s": median(wait), "deliver_s": median(deliver.values()),
        "lag_p50_s": median(lag.values()), "wire_bytes": wire_bytes,
        "late_max_s": max(sent.late) if sent.late else 0.0,
    }


def _record_overhead(workload: Workload, seed: int) -> float:
    """Recorded over unrecorded ``Executor.serve`` on the same requests."""
    from repro.scenarios import ScenarioSpec, build_scenario_app
    from repro.scenarios.generator import TrafficStream
    from repro.server.executor import Executor
    from repro.server.nondet import NondetSource
    from repro.server.scheduler import RandomScheduler

    spec = ScenarioSpec(workload=workload.app, requests=RECORD_REQUESTS,
                        scale=SCALE, seed=seed)
    batch = TrafficStream(spec).take(RECORD_REQUESTS)
    app = build_scenario_app(workload.app, SCALE)
    walls: dict[bool, list[float]] = {True: [], False: []}
    # The first serve only warms up.
    for record in (True, False, True, False, True, False, True):
        executor = Executor(app, scheduler=RandomScheduler(seed + 1),
                            nondet=NondetSource(seed=seed + 20171028),
                            record=record)
        _, wall = _timed(lambda: executor.serve(batch))
        walls[record].append(wall)
    return median(walls[True][1:]) / median(walls[False])


# -- the run ------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, seconds: float,
               workdir: str) -> Outcome:
    from repro.core import AuditConfig, Auditor, group_profile, simple_audit
    from repro.io import BundleReader, load_audit_bundle_ex
    from repro.scenarios import build_scenario_app

    out = Outcome()
    m = out.metrics
    tracer = Tracer()
    requests = workload.bundle_requests(seconds)
    path = os.path.join(workdir, f"{workload.name}-{seed}.jsonl")
    app = build_scenario_app(workload.app, SCALE)

    def put(name: str, value: float) -> None:
        unit = _UNITS[name]
        m[name] = (float(value), unit)

    summary = _synth(workload, seed, requests, path, tracer)
    out.check(summary["requests"] == requests,
              f"synthesize wrote {summary['requests']} requests, "
              f"expected {requests}")
    put("synth.serve_s", summary["serve_s"])
    put("synth.write_s", summary["write_s"])
    put("cli.import_s", _import_seconds())

    with tracer.span("io.decode"):
        trace, reports, initial, marks = load_audit_bundle_ex(path)
    put("io.decode_s", tracer.find("io.decode")[0].seconds)
    put("io.bytes", os.path.getsize(path))
    with BundleReader(path) as reader:
        slices = [(s.trace, s.reports) for s in reader.epochs()]

    paths = {
        # What `repro audit BUNDLE` runs, and what `repro audit
        # --connect` runs per epoch (without the epoch pool).
        "oneshot": lambda pipeline=None: Auditor(
            app, AuditConfig(), pipeline=pipeline).audit(
                trace, reports, initial),
        "session": lambda pipeline=None: Auditor(
            app, AuditConfig(), pipeline=pipeline).audit_epochs(
                slices, initial),
    }
    walls: dict[str, list[float]] = {}
    plain: dict[str, object] = {}
    traced: dict[str, tuple] = {}

    def audit(kind: str, with_tracing: bool) -> None:
        key = kind + (".traced" if with_tracing else "")
        if not with_tracing:
            plain[kind], wall = _timed(paths[kind])
        else:
            with tracer.span(kind) as root, \
                    counting_selects(tracer, kind + "."):
                result, wall = _timed(
                    lambda: paths[kind](traced_pipeline(tracer)))
            traced[kind] = (result, root)
        walls.setdefault(key, []).append(wall)

    # A warm-up pass, then untraced/traced pairs: twice on the path the
    # workload's end-to-end metric runs (for trace.overhead_x), once on
    # the other.
    own = "session" if workload.live else "oneshot"
    paths["oneshot"]()
    for kind in (own, own, "oneshot" if workload.live else "session"):
        audit(kind, with_tracing=False)
        audit(kind, with_tracing=True)
    reference = produced_digest(plain["oneshot"])
    checked = [(f"{kind} audit", plain[kind]) for kind in paths]
    checked += [(f"traced {kind} audit", traced[kind][0]) for kind in paths]
    for label, result in checked:
        out.check(result.accepted
                  and produced_digest(result) == reference,
                  f"{label}: accepted={result.accepted}, produced digest "
                  f"{produced_digest(result)} vs {reference}")
    put("trace.overhead_x",
        median(walls[own + ".traced"]) / median(walls[own]))

    result, root = traced[own]
    prefix = own + "."
    stats = result.stats
    for phase in ("trace_check", "proc_op_reports", "db_redo", "reexec",
                  "output_compare"):
        put(f"{phase}.s", tracer.total("phase." + phase, under=root))
    put("migrate.s", tracer.total("phase.migrate",
                                  under=traced["session"][1]))
    put("proc_op_reports.graph_nodes", stats["graph_nodes"])
    put("proc_op_reports.graph_edges", stats["graph_edges"])
    put("db_redo.statements", stats["redo_statements"])
    put("db_redo.versions", stats["versioned_db_versions"])
    db_query = result.phases.get("db_query", 0.0)
    put("db_query.s", db_query)
    put("reexec.interp_s", m["reexec.s"][0] - db_query)
    for key in ("steps", "multi_steps", "groups", "grouped_requests",
                "fallback_requests", "divergences"):
        put(f"reexec.{key}", stats[key])
    put("db_query.issued", stats["db_queries_issued"])
    scans = tracer.counters.get(prefix + "scans", 0)
    put("db_query.versions_per_select",
        tracer.counters.get(prefix + "rows_scanned", 0) / max(1, scans))
    hits, misses = stats["dedup_hits"], stats["dedup_misses"]
    put("dedup.hits", hits)
    put("dedup.misses", misses)
    put("dedup.hit_rate", hits / max(1, hits + misses))
    profile = group_profile(stats, meta={
        "workload": workload.name, "seed": seed, "requests": requests,
        "epochs": len(slices), "dedup_hit_rate": hits / max(1, hits + misses),
    })
    put("reexec.alpha_mean", profile["summary"]["mean_alpha"])
    put("profile.mean_n", profile["summary"]["mean_n"])
    put("profile.mean_ell", profile["summary"]["mean_ell"])
    put("profile.singleton_fraction",
        profile["summary"]["singleton_fraction"])
    profile_path = os.path.join(WORK_DIR,
                                f"profile-{workload.name}-{seed}.json")
    with open(profile_path, "w") as fh:
        json.dump(profile, fh, indent=1, sort_keys=True)
    out.notes.append(
        f"profile: {requests} requests, {len(slices)} epochs, "
        f"{profile['groups']} groups, dedup hit rate "
        f"{hits / max(1, hits + misses):.3f}, (n, alpha, ell) summary "
        f"{json.dumps(profile['summary'], sort_keys=True)} -> "
        f"{profile_path}")

    # Live replay through the wire to an epoch_workers=2 session.
    rate = workload.rate or REPLAY_REQUEST_RATE / workload.epoch_size
    live = _live_session(app, path, rate, tracer)
    out.check(live["accepted"] and live["result"].accepted
              and live["epochs"] == len(slices)
              and produced_digest(live["result"]) == reference,
              f"live session: accepted={live['result'].accepted}, "
              f"{live['epochs']}/{len(slices)} epochs, produced digest "
              f"{produced_digest(live['result'])} vs {reference}")
    put("session.prepass_s", live["prepass_s"])
    put("session.epoch_audit_s", live["epoch_audit_s"])
    put("session.queue_wait_s", live["queue_wait_s"])
    put("net.deliver_s", live["deliver_s"])
    put("net.wire_bytes", live["wire_bytes"])
    out.notes.append(
        f"live replay at {rate:g} epochs/s: {live['epochs']} epochs, "
        f"per-epoch medians: lag from the next epoch's closing record "
        f"{live['lag_p50_s']:.4f} s (deliver {live['deliver_s']:.4f}, "
        f"prepass {live['prepass_s']:.4f}, wait "
        f"{live['queue_wait_s']:.4f}), pool audit "
        f"{live['epoch_audit_s']:.4f}; gen.late_max_s "
        f"{live['late_max_s']:.4f}")

    # Backend and driver matrices: same verdict, same produced bodies.
    for backend in BACKENDS:
        with tracer.span("backend." + backend):
            result, wall = _timed(lambda: Auditor(
                app, AuditConfig(backend=backend)).audit(
                    trace, reports, initial))
        put(f"reexec.backend.{backend}_s", wall)
        out.check(result.accepted and produced_digest(result) == reference,
                  f"backend {backend}: accepted={result.accepted}, "
                  f"produced digest differs")
    for name, knobs in DRIVERS.items():
        with tracer.span("driver." + name):
            result, wall = _timed(lambda: Auditor(
                app, AuditConfig(epoch_cuts=tuple(marks), **knobs)).audit(
                    trace, reports, initial))
        put(f"driver.{name}_s", wall)
        out.check(result.accepted and produced_digest(result) == reference,
                  f"driver {name}: accepted={result.accepted}, produced "
                  f"digest differs")

    # The paper's reference numbers (reported, not gated).
    with tracer.span("ref.simple_reexec"):
        simple = simple_audit(app, trace, reports, initial)
    out.check(simple.accepted, "simple re-execution baseline rejected")
    put("ref.simple_reexec_s", simple.seconds)
    put("ref.speedup_vs_reexec",
        simple.seconds / plain["oneshot"].phases["total"])
    with tracer.span("server.record_overhead"):
        put("server.record_overhead_x", _record_overhead(workload, seed))

    spans_path = os.path.join(WORK_DIR,
                              f"trace-{workload.name}-{seed}.jsonl")
    tracer.write_jsonl(spans_path)
    out.notes.append(f"{len(tracer.spans)} spans -> {spans_path}")
    return out


_UNITS = {name: unit for name, unit, _, _ in LAYERS}
