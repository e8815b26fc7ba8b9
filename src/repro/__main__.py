"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — serve a built-in workload, audit it, print the verdict and
  the acceleration stats;
* ``record`` — serve a built-in workload and save the audit bundle
  (trace + reports + initial state) to a file, as the legacy JSON blob,
  the streaming JSONL format (``--format jsonl``), or the per-epoch
  segmented JSONL layout (``--format jsonl-epochs``);
* ``serve`` — serve a built-in workload and *publish* the audit stream
  over TCP (``--listen HOST:PORT``) for remote auditors, epoch by
  epoch, via :class:`~repro.net.publisher.BundlePublisher`;
* ``audit`` — load a bundle (any format) and run the SSCO audit, tail
  a live JSONL bundle epoch by epoch (``--follow``), or attach to a
  remote ``serve`` publisher (``--connect HOST:PORT``) — both stream
  through an incremental :class:`~repro.core.auditor.AuditSession`.
  With ``--fleet-listen [HOST:]PORT`` the session additionally fans
  each epoch out to registered ``repro worker`` daemons (composes
  with ``--connect``: one auditor, N worker hosts, one recorder);
* ``worker`` — join a fleet coordinator (``--join HOST:PORT``) and
  execute dispatched epoch audits until dismissed (see
  :mod:`repro.fleet` and ``docs/fleet.md``);
* ``lint`` — run the static analyzer over a built-in application's
  weblang scripts and print the audit-soundness diagnostics (text or
  ``--json``; ``--fail-on`` gates the exit code — see
  ``docs/analysis.md``);
* ``query`` — time-travel forensics: reconstruct any SQL result, KV
  key, or register from a recorded bundle at any epoch boundary or
  request point (``--as-of <epoch|request-id>``), with producing
  requests attributed (see ``docs/forensics.md``);
* ``explain`` — targeted single-request re-audit: replay exactly one
  request's control-flow chunk plus its read-lineage closure and print
  a scoped ACCEPT/REJECT with the regenerated body.

Every auditing subcommand is driven by one validated
:class:`~repro.core.config.AuditConfig`: flags layer over an optional
``--config audit.json`` file, which layers over the defaults.  The
canonical scaling flag is ``--workers N`` (the old ``--parallel`` and
the audit subcommand's ``--concurrency`` remain as deprecated aliases);
``--epoch-size N`` makes the server drain every N requests
(``demo``/``record``) and the auditor shard at the resulting quiescent
cuts, ``--epoch-cuts "i,j,k"`` pins explicit cut positions,
``--epoch-workers N`` audits those epoch shards concurrently (a
redo-only state precompute materializes each shard's initial state
first), and ``--backend`` selects the registered re-execution engine.

The built-in workloads are the paper's three applications: ``wiki``,
``forum``, ``hotcrp``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.apps import (
    build_minicart,
    build_minicrp,
    build_miniforum,
    build_miniwiki,
)
from repro.bench import figure9_decomposition, render_table
from repro.bench.harness import run_audit_phase
from repro.common.errors import AuditInfrastructureError
from repro.core import Auditor, simple_audit
from repro.core.config import AuditConfig, parse_epoch_cuts
from repro.core.partition import partition_audit_inputs
from repro.core.reexec import available_backends
from repro.forensics import (
    AsOfError,
    Timeline,
    UnknownRequest,
    query_asof,
    reaudit_request,
)
from repro.lang.analysis import SEVERITIES, analyze_app
from repro.io import (
    BundleReader,
    BundleWriter,
    _enc,
    load_audit_bundle_ex,
    save_audit_bundle,
)
from repro.net import (
    BundlePublisher,
    ProtocolError,
    RemoteBundleReader,
    TransportError,
)
from repro.workloads import (
    cart_workload,
    forum_workload,
    hotcrp_workload,
    wiki_workload,
)

_WORKLOADS = {
    "wiki": wiki_workload,
    "forum": forum_workload,
    "hotcrp": hotcrp_workload,
    "cart": cart_workload,
}

_LINT_APPS = {
    "miniwiki": build_miniwiki,
    "miniforum": build_miniforum,
    "minicrp": build_minicrp,
    "minicart": build_minicart,
}
#: Workload-style names accepted as aliases by ``repro lint``.
_LINT_ALIASES = {"wiki": "miniwiki", "forum": "miniforum",
                 "hotcrp": "minicrp", "cart": "minicart"}


class _DeprecatedAlias(argparse.Action):
    """A flag kept for compatibility that warns and forwards its value."""

    def __init__(self, *args, preferred: str = "--workers", **kwargs):
        self.preferred = preferred
        super().__init__(*args, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(
            f"warning: {option_string} is deprecated; use "
            f"{self.preferred} instead",
            file=sys.stderr,
        )
        setattr(namespace, self.dest, values)


def _build(args):
    factory = _WORKLOADS[args.workload]
    return factory(scale=args.scale, seed=args.seed)


def _serve(workload, args):
    from repro.server import Executor, RandomScheduler
    from repro.server.nondet import NondetSource

    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(args.seed),
        max_concurrency=args.concurrency,
        nondet=NondetSource(seed=args.seed),
        epoch_size=args.epoch_size or 0,
    )
    return executor.serve(workload.requests)


def _fleet_endpoint(text: str) -> str:
    """``--fleet-listen`` accepts ``PORT`` or ``HOST:PORT``; a bare
    port listens on every interface (workers are remote hosts)."""
    return text if ":" in text else f"0.0.0.0:{text}"


def _config_from_args(parser, args) -> AuditConfig:
    """One validated config from defaults < ``--config`` < flags."""
    try:
        return AuditConfig.from_args(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def cmd_demo(args) -> int:
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    print(f"serving {len(workload.requests)} {workload.label} requests "
          f"(concurrency {args.concurrency}) ...")
    execution = _serve(workload, args)
    if execution.epoch_marks and config.epoch_cuts is None:
        config = config.replace(epoch_cuts=tuple(execution.epoch_marks))
    print(f"auditing ({config.describe()}) ...")
    run = run_audit_phase(workload, execution, config=config)
    audit = run.audit
    if not audit.accepted:
        print(f"REJECTED: {audit.reason.value}: {audit.detail}")
        return 1
    stats = audit.stats
    alpha = 1 - stats["multi_steps"] / max(1, stats["steps"])
    print(f"ACCEPTED in {audit.phases['total'] * 1e3:.1f} ms "
          f"(simple re-execution: {run.baseline_audit.seconds * 1e3:.1f}"
          f" ms, speedup "
          f"{run.baseline_audit.seconds / audit.phases['total']:.2f}x)")
    print(f"groups={stats['groups']} alpha={alpha:.3f} "
          f"dedup={stats['dedup_hits']}/"
          f"{stats['dedup_hits'] + stats['dedup_misses']}")
    if stats.get("shard_count"):
        print(f"shards={stats['shard_count']}: " + " ".join(
            f"[{s['shard']}] {s['requests']}req "
            f"{s['reexec_seconds'] * 1e3:.1f}ms"
            for s in stats["shards"]
        ))
    rows = [{"phase": k, "seconds": v}
            for k, v in figure9_decomposition(run).items()]
    print(render_table(rows, ["phase", "seconds"]))
    return 0


def cmd_record(args) -> int:
    workload = _build(args)
    print(f"serving {len(workload.requests)} {workload.label} requests ...")
    execution = _serve(workload, args)
    save_audit_bundle(args.out, execution.trace, execution.reports,
                      execution.initial_state,
                      epoch_marks=execution.epoch_marks,
                      format=args.format)
    epochs = len(execution.epoch_marks) + 1 if execution.epoch_marks else 1
    print(f"wrote {args.out} [{args.format}] "
          f"({len(execution.trace)} events, "
          f"{execution.reports.op_count_total()} logged ops, "
          f"{epochs} epoch(s))")
    return 0


def cmd_serve(args) -> int:
    """Record a workload and publish the audit stream over TCP."""
    config = _config_from_args(args._parser, args)
    if not config.listen:
        args._parser.error("serve requires --listen HOST:PORT "
                           "(port 0 binds an ephemeral port)")
    workload = _build(args)
    # Bind before the (long) recording run: a taken or privileged port
    # fails in milliseconds with a clean error, auditors can attach
    # early, and the --out mirror is not yet truncated.
    try:
        publisher = BundlePublisher(config.listen,
                                    stall_timeout=config.net_idle_timeout,
                                    spool_epochs=args.spool_epochs,
                                    batch_records=config.batch_records,
                                    batch_bytes=config.batch_bytes)
    except OSError as exc:
        print(f"error: cannot listen on {config.listen}: {exc}",
              file=sys.stderr)
        return 2
    writer = None
    try:
        with publisher:
            print(f"listening on {publisher.endpoint}", flush=True)
            print(f"serving {len(workload.requests)} {workload.label} "
                  f"requests (concurrency {args.concurrency}) ...")
            execution = _serve(workload, args)
            shards = partition_audit_inputs(execution.trace,
                                            execution.reports,
                                            cuts=execution.epoch_marks)
            if args.out:
                writer = BundleWriter(args.out, segmented=True)
                publisher.writer = writer
            print(f"publishing {len(shards)} epoch(s) on "
                  f"{publisher.endpoint} "
                  f"({len(execution.trace)} events, "
                  f"{execution.reports.op_count_total()} logged ops)",
                  flush=True)
            publisher.write_state(execution.initial_state)
            for shard in shards:
                publisher.write_epoch(shard.trace, shard.reports)
                if args.epoch_delay:
                    time.sleep(args.epoch_delay)
            publisher.write_end()
            drained = publisher.wait_drained(timeout=args.linger)
    finally:
        if writer is not None:
            writer.close()
    if drained:
        print("stream complete (auditor drained)")
    else:
        print("stream complete (no auditor drained the stream within "
              f"--linger {args.linger}s)")
    return 0


def cmd_audit(args) -> int:
    config = _config_from_args(args._parser, args)
    workload = _build(args)  # the program is the trusted input
    if config.connect:
        if args.bundle:
            args._parser.error(
                "give either a bundle file or --connect, not both"
            )
        if args.follow:
            args._parser.error(
                "--follow tails a bundle file; a --connect stream is "
                "already live (its patience is --net-idle-timeout)"
            )
        return _audit_connect(args, workload, config)
    if not args.bundle:
        args._parser.error(
            "audit needs a bundle file (or --connect HOST:PORT)"
        )
    if args.follow:
        return _audit_follow(args, workload, config)
    trace, reports, initial, epoch_marks = load_audit_bundle_ex(args.bundle)
    if (config.epoch_cuts is None and (config.epoch_size or 0) > 0
            and epoch_marks):
        # The recorded quiescent marks are the natural cut positions.
        config = config.replace(epoch_cuts=tuple(epoch_marks))
    if not args.json:
        print(f"auditing {len(trace.request_ids())} requests against "
              f"{workload.label} ({config.describe()}) ...")
    audit = Auditor(workload.app, config).audit(trace, reports, initial)
    if args.json:
        payload = _audit_summary(audit)
        if args.baseline:
            base = simple_audit(workload.app, trace, reports, initial)
            payload["baseline"] = {"accepted": base.accepted,
                                   "seconds": base.seconds}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if audit.accepted else 1
    if audit.accepted:
        shards = audit.stats.get("shard_count")
        suffix = f" across {shards} shard(s)" if shards else ""
        print(f"ACCEPTED in {audit.phases['total'] * 1e3:.1f} ms{suffix}")
    else:
        print(f"REJECTED: {audit.reason.value}"
              + (f": {audit.detail}" if audit.detail else ""))
    if args.baseline:
        base = simple_audit(workload.app, trace, reports, initial)
        verdict = "ACCEPTED" if base.accepted else "REJECTED"
        print(f"simple re-execution baseline: {verdict} in "
              f"{base.seconds * 1e3:.1f} ms")
    return 0 if audit.accepted else 1


def _audit_follow(args, workload, config: AuditConfig) -> int:
    """Tail a (possibly still-growing) JSONL bundle epoch by epoch
    through an incremental audit session — the paper's continuous
    deployment: audit epoch N while the server records epoch N+1."""
    timeout = args.follow_timeout
    try:
        # Waits out the startup race: the auditor may launch before the
        # recording server has flushed the bundle's header line.
        reader = BundleReader.open(args.bundle, follow=True,
                                   idle_timeout=timeout)
    except (OSError, ValueError) as exc:
        print(f"error: --follow needs a streaming JSONL bundle: {exc}",
              file=sys.stderr)
        return 2
    if not args.json:
        print(f"following {args.bundle} against {workload.label} "
              f"({config.describe()}) ...")
    try:
        return _drive_stream_session(reader, workload, config, timeout,
                                     as_json=args.json)
    except AuditInfrastructureError as exc:
        print(f"error: audit failed: {exc}", file=sys.stderr)
        return 2


def _audit_connect(args, workload, config: AuditConfig) -> int:
    """Attach to a remote ``repro serve`` publisher and audit its live
    stream — the paper's deployment with the verifier on its own
    machine, no shared filesystem."""
    try:
        reader = RemoteBundleReader(
            config.connect,
            connect_timeout=config.net_connect_timeout,
            idle_timeout=config.net_idle_timeout,
            reconnect=config.net_retries,
        )
    except (TransportError, ProtocolError, ValueError, OSError) as exc:
        print(f"error: cannot attach to publisher at {config.connect}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not args.json:
        print(f"auditing live stream from {config.connect} against "
              f"{workload.label} ({config.describe()}) ...")
    try:
        return _drive_stream_session(reader, workload, config,
                                     config.net_idle_timeout,
                                     as_json=args.json)
    except (TransportError, ProtocolError) as exc:
        print(f"error: live stream failed: {exc}", file=sys.stderr)
        return 2
    except AuditInfrastructureError as exc:
        print(f"error: audit failed: {exc}", file=sys.stderr)
        return 2


def cmd_worker(args) -> int:
    """Join a fleet coordinator and execute dispatched epoch audits."""
    from repro.fleet import FleetWorker

    try:
        worker = FleetWorker(args.join, name=args.name,
                             heartbeat_interval=args.heartbeat,
                             connect_timeout=args.connect_timeout)
    except ValueError as exc:
        args._parser.error(str(exc))
    print(f"joining fleet coordinator at {args.join} as {worker.name} "
          f"...", flush=True)
    try:
        worker.run()
    except (TransportError, ProtocolError) as exc:
        print(f"error: cannot join fleet at {args.join}: {exc}",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print(f"worker done: {worker.epochs_run} epoch(s) audited, "
          f"{worker.epochs_failed} failed")
    return 0


def cmd_synth(args) -> int:
    """Stream a synthetic Zipf-skewed workload into a bundle."""
    from repro.scenarios import ScenarioSpec, synthesize

    try:
        spec = ScenarioSpec(
            workload=args.workload,
            requests=args.requests,
            scale=args.scale,
            seed=args.seed,
            users=args.users,
            max_sessions=args.max_sessions,
            epoch_size=args.epoch_size or 500,
            concurrency=args.concurrency,
        )
    except ValueError as exc:
        args._parser.error(str(exc))
    checkpoint = None
    if args.resume:
        try:
            with open(args.resume) as fh:
                checkpoint = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read checkpoint {args.resume}: {exc}",
                  file=sys.stderr)
            return 2
    progress = None
    if not args.json:
        print(f"synthesizing {spec.requests} {args.workload} requests "
              f"(scale {spec.scale}, seed {spec.seed}, "
              f"{spec.users} users) into {args.out} ...")
        last = [time.monotonic()]

        def progress(p):
            now = time.monotonic()
            if now - last[0] < 2.0:
                return
            last[0] = now
            rate = p.requests / p.elapsed_seconds
            print(f"  epoch {p.epoch}: {p.requests} requests, "
                  f"{p.events} events, {rate:.0f} req/s", flush=True)

    try:
        summary = synthesize(
            spec, args.out,
            profile_path=args.profile,
            checkpoint=checkpoint,
            checkpoint_path=args.checkpoint_out,
            progress=progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary["bundle"] = args.out
    summary["profile"] = args.profile
    summary["checkpoint"] = args.checkpoint_out
    failed = summary["verified"] is False
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(f"wrote {summary['events']} events / {summary['epochs']} "
          f"epoch(s) in {summary['elapsed_seconds']:.1f}s "
          f"({summary['requests_per_second']:.0f} req/s)")
    if args.profile:
        print(f"profile: {summary['profile_groups']} groups -> "
              f"{args.profile}")
    if summary["verified"] is not None:
        print("self-audit:",
              "ACCEPTED" if summary["verified"] else "REJECTED")
    if args.checkpoint_out:
        print(f"checkpoint: {args.checkpoint_out}")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    """Tamper-fuzz a recorded bundle; every mutation must be REJECTED."""
    from repro.scenarios import build_scenario_app, fuzz_bundle

    operators = None
    if args.operators:
        operators = tuple(
            name.strip() for name in args.operators.split(",")
            if name.strip()
        )
    app = build_scenario_app(args.workload, args.scale)
    progress = None
    if not args.json:
        print(f"fuzzing {args.bundle} with {args.mutations} mutations "
              f"(seed {args.seed}) against {args.workload} "
              f"scale {args.scale} ...")

        def progress(outcome):
            if not outcome.rejected:
                print(f"  mutation {outcome.index} "
                      f"({outcome.operator}): ACCEPTED "
                      "<- soundness violation", flush=True)

    try:
        report = fuzz_bundle(
            args.bundle, app,
            mutations=args.mutations,
            seed=args.seed,
            operators=operators,
            splice_with=args.splice_with,
            shrink=not args.no_shrink,
            progress=progress,
        )
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json()
    payload["workload"] = args.workload
    payload["scale"] = args.scale
    accepted = report.accepted
    if accepted and args.reproducer_out:
        reproducer = {
            "bundle": args.bundle,
            "workload": args.workload,
            "scale": args.scale,
            "seed": args.seed,
            "mutations": [o.to_json() for o in accepted],
        }
        with open(args.reproducer_out, "w") as fh:
            json.dump(reproducer, fh, indent=2, sort_keys=True)
            fh.write("\n")
        payload["reproducer"] = args.reproducer_out
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if accepted else 0
    for name in sorted(payload["operators"]):
        stats = payload["operators"][name]
        print(f"  {name}: {stats['rejected']}/{stats['mutations']} "
              "rejected")
    channels = payload["channels"]
    print(f"channels: audit={channels['audit']} load={channels['load']} "
          f"wire={channels['wire']}")
    if accepted:
        print(f"SOUNDNESS VIOLATION: {len(accepted)} of "
              f"{report.mutations} mutations ACCEPTED")
        for outcome in accepted:
            edits = outcome.shrunk or outcome.edits
            print(f"  [{outcome.index}] {outcome.operator}: "
                  f"{len(edits)} edit(s) in minimal reproducer")
        if args.reproducer_out:
            print(f"reproducer: {args.reproducer_out}")
        return 1
    print(f"all {report.rejected}/{report.mutations} mutations REJECTED "
          f"in {report.elapsed_seconds:.1f}s")
    return 0


def cmd_lint(args) -> int:
    """Statically analyze one built-in app; print the diagnostics."""
    name = _LINT_ALIASES.get(args.app, args.app)
    app = _LINT_APPS[name]()
    reports = analyze_app(app)
    counts = {severity: 0 for severity in SEVERITIES}
    for report in reports.values():
        for severity, n in report.severity_counts().items():
            counts[severity] += n
    if args.json:
        payload = {
            "app": name,
            "scripts": {script: report.to_json()
                        for script, report in reports.items()},
            "summary": {"errors": counts["error"],
                        "warnings": counts["warning"],
                        "infos": counts["info"]},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for script in sorted(reports):
            for diag in sorted(reports[script].diagnostics,
                               key=lambda d: (d.nid, d.code)):
                print(diag.format())
        print(f"lint[{name}]: errors={counts['error']} "
              f"warnings={counts['warning']} infos={counts['info']}")
    threshold = SEVERITIES.index(args.fail_on)
    return 1 if any(counts[s] for s in SEVERITIES[threshold:]) else 0


def _load_timeline(args, workload, config) -> Timeline | None:
    """Build the forensic timeline for ``query``/``explain``; prints
    the error and returns ``None`` when the bundle cannot be primed."""
    try:
        return Timeline.from_bundle(args.bundle, workload.app,
                                    options=config.to_options())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load bundle {args.bundle}: {exc}",
              file=sys.stderr)
        return None


def _producer_json(producer) -> dict:
    return {
        "epoch": producer.epoch,
        "request": producer.rid,
        "object": producer.obj,
        "detail": producer.detail,
        "initial": producer.is_initial,
    }


def _producer_text(producer) -> str:
    if producer.is_initial:
        where = "initial state (pre-trace)"
    else:
        where = f"{producer.rid} (epoch {producer.epoch})"
    detail = f" [{producer.detail}]" if producer.detail else ""
    return f"{where}{detail}"


def cmd_query(args) -> int:
    """Reconstruct one value at an as-of point from a recorded bundle."""
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    timeline = _load_timeline(args, workload, config)
    if timeline is None:
        return 2
    try:
        result = query_asof(timeline, args.as_of, args.target)
    except (UnknownRequest, AsOfError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "kind": result.kind,
            "target": result.target,
            "as_of": {"epoch": result.point.epoch,
                      "request": result.point.rid},
            "rows": result.rows,
            "value": _enc(result.value),
            "producers": [_producer_json(p) for p in result.producers],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{result.target} as of {result.point.describe()}:")
    if result.kind == "sql":
        if not result.rows:
            print("  (no rows)")
        for row in result.rows or ():
            print("  row: " + ", ".join(f"{k}={v!r}"
                                        for k, v in row.items()))
    else:
        print(f"  value: {result.value!r}")
    for producer in result.producers:
        print(f"  produced by: {_producer_text(producer)}")
    return 0


def cmd_explain(args) -> int:
    """Scoped single-request re-audit of a recorded bundle."""
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    timeline = _load_timeline(args, workload, config)
    if timeline is None:
        return 2
    try:
        result = reaudit_request(timeline, args.request_id,
                                 backend=config.backend)
    except UnknownRequest as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    entry = timeline.entry(args.request_id)
    lineage = result.lineage
    body_matches = None
    if not entry.aborted and result.accepted:
        body_matches = result.body == result.expected_body
    if args.json:
        payload = {
            "request": result.rid,
            "epoch": result.epoch,
            "groups": list(entry.groups),
            "chunk": entry.chunk,
            "verdict": "ACCEPTED" if result.accepted else "REJECTED",
            "accepted": result.accepted,
            "reason": result.reason.value if result.reason else None,
            "detail": result.detail or "",
            "aborted": entry.aborted,
            "body_matches": body_matches,
            "lineage": {
                "requests": [list(node) for node in lineage.requests],
                "edges": len(lineage.edges),
                "initial_reads": lineage.initial_reads,
            },
            "replayed": {"requests": len(result.replayed),
                         "chunks": result.chunks_replayed},
            "stats": result.stats,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.accepted else 1
    groups = ", ".join(entry.groups) or "(none)"
    print(f"request {result.rid}: epoch {result.epoch}, "
          f"group {groups}, chunk {entry.chunk}, "
          f"{entry.op_count} claimed op(s)")
    print(f"lineage closure: {len(lineage.requests)} request(s), "
          f"{len(lineage.edges)} edge(s), "
          f"{lineage.initial_reads} initial-state read(s)")
    print(f"replayed {len(result.replayed)} request(s) in "
          f"{result.chunks_replayed} chunk(s), "
          f"{result.stats['steps']} step(s)")
    if result.accepted:
        suffix = ("aborted request, no body to compare"
                  if entry.aborted
                  else "regenerated body matches the trace")
        print(f"ACCEPTED: request {result.rid} scoped re-audit "
              f"({suffix})")
        return 0
    print(f"REJECTED: {result.reason.value}"
          + (f": {result.detail}" if result.detail else ""))
    return 1


def _audit_summary(audit) -> dict:
    """The machine-readable verdict payload of ``audit --json``.

    Stable schema: ``verdict``/``accepted``/``reason``/``detail``,
    per-phase seconds, the summed counter stats, the per-epoch shard
    summaries (``epochs``), and the first rejecting epoch's index
    (``rejecting_epoch``, ``null`` on a monolithic or accepted audit).
    """
    stats = {name: value for name, value in audit.stats.items()
             if name not in ("shards", "group_alphas")}
    epochs = audit.stats.get("shards")
    rejecting = None
    if epochs:
        for shard in epochs:
            if not shard.get("accepted", True):
                rejecting = shard["shard"]
                break
    elif not audit.accepted:
        rejecting = 0 if audit.stats.get("shard_count") else None
    return {
        "verdict": "ACCEPTED" if audit.accepted else "REJECTED",
        "accepted": audit.accepted,
        "reason": audit.reason.value if audit.reason else None,
        "detail": audit.detail or "",
        "phases": audit.phases,
        "stats": stats,
        "epochs": epochs,
        "rejecting_epoch": rejecting,
    }


def _print_epoch_verdict(epoch) -> bool:
    """Print one epoch's line; returns True when it rejected."""
    verdict = "ACCEPTED" if epoch.accepted else "REJECTED"
    print(f"epoch {epoch.index}: {verdict} "
          f"({epoch.requests} requests, "
          f"{epoch.phases.get('total', 0.0) * 1e3:.1f} ms)")
    return not epoch.accepted


def _drive_stream_session(reader, workload, config: AuditConfig,
                          timeout, as_json: bool = False) -> int:
    """The live audit loop shared by ``--follow`` (file tail) and
    ``--connect`` (socket): feed each arriving epoch slice into an
    incremental audit session, print per-epoch verdicts, merge.

    Feeding is asynchronous: with ``epoch_workers > 1`` the session
    audits in its own process while this loop keeps ingesting (bounded
    by the session's prepass-depth backpressure); verdicts are printed
    in epoch order as they settle, checked after each feed.  On a
    synchronous session every handle resolves immediately, so the loop
    degenerates to the strict feed-print alternation.  If that audit
    process dies, the callers exit 2 with the session's
    :class:`AuditInfrastructureError`.
    """
    def settle(epoch) -> bool:
        if as_json:
            return not epoch.accepted
        return _print_epoch_verdict(epoch)

    with reader:
        initial = reader.read_initial_state(follow=True,
                                            idle_timeout=timeout)
        auditor = Auditor(workload.app, config)
        rejected = False
        with auditor.session(initial) as session:
            pending = []
            for epoch_slice in reader.epochs(follow=True,
                                             idle_timeout=timeout):
                pending.append(session.submit_epoch(epoch_slice.trace,
                                                    epoch_slice.reports))
                while pending and pending[0].done():
                    if settle(pending.pop(0).result()):
                        rejected = True
                        break
                if rejected:
                    break
            while pending and not rejected:
                rejected = settle(pending.pop(0).result())
            audit = session.close()
    if session.child_unavailable:
        print(f"note: audited in-process; the audit process could not "
              f"start ({session.child_unavailable})", file=sys.stderr)
    if as_json:
        print(json.dumps(_audit_summary(audit), indent=2, sort_keys=True))
        return 0 if audit.accepted else 1
    if audit.accepted:
        print(f"ACCEPTED in {audit.phases['total'] * 1e3:.1f} ms "
              f"across {audit.stats['shard_count']} epoch(s)")
        return 0
    print(f"REJECTED: {audit.reason.value}"
          + (f": {audit.detail}" if audit.detail else ""))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SSCO/OROCHI reproduction: serve and audit web "
                    "application workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", choices=sorted(_WORKLOADS),
                       default="wiki")
        p.add_argument("--scale", type=float, default=0.02,
                       help="workload scale (1.0 = the paper's full size)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--epoch-size", type=int, default=None,
                       help="serve: drain every N requests and record an "
                            "epoch mark; audit: shard at quiescent cuts "
                            "(0 disables)")

    def audit_knobs(p):
        # Every knob defaults to None so AuditConfig.from_args can tell
        # "not given" from "given the default" (--config layering).
        p.add_argument("--strict", dest="strict", action="store_true",
                       default=None,
                       help="reject on in-group control-flow divergence "
                            "(default)")
        p.add_argument("--no-strict", dest="strict", action="store_false",
                       help="demote diverged groups to per-request "
                            "re-execution instead of rejecting")
        p.add_argument("--plan-hints", dest="plan_hints",
                       action="store_true", default=None,
                       help="consult the static analyzer's divergence "
                            "hazards during chunk planning (non-strict "
                            "audits only; see `repro lint`)")
        p.add_argument("--no-dedup", action="store_true", default=None,
                       help="disable read-query deduplication")
        p.add_argument("--no-collapse", action="store_true", default=None,
                       help="disable multivalue collapse")
        p.add_argument("--strict-registers", action="store_true",
                       default=None,
                       help="reject register reads with no logged write")
        p.add_argument("--max-group-size", type=int, default=None,
                       help="chunk re-execution groups beyond this size")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="fan group re-execution out over N worker "
                            "processes (1 = serial)")
        p.add_argument("--parallel", dest="workers", type=int, metavar="N",
                       action=_DeprecatedAlias,
                       help="deprecated alias for --workers")
        p.add_argument("--epoch-workers", type=int, default=None,
                       metavar="N",
                       help="bundle audits: audit epoch shards "
                            "concurrently, N at a time, on a shared "
                            "persistent process pool after a redo-only "
                            "state precompute (pair with --epoch-size/"
                            "--epoch-cuts); --follow/--connect: any N > 1 "
                            "audits in one resident process while this "
                            "one ingests (1 = serial epoch chain)")
        p.add_argument("--prepass-depth", type=int, default=None,
                       metavar="N",
                       help="bound on in-flight epochs: how far the "
                            "speculative state precompute, or the "
                            "slices sent to a live audit process, may "
                            "run ahead of the slowest unfinished epoch "
                            "audit (0 = 2 * epoch-workers)")
        p.add_argument("--epoch-threads", action="store_true",
                       default=None,
                       help="keep the thread-based epoch driver "
                            "instead of process-level epoch execution "
                            "(results are identical; for comparison)")
        p.add_argument("--backend", choices=available_backends(),
                       default=None,
                       help="registered re-execution backend "
                            "(default: accinterp)")
        p.add_argument("--epoch-cuts", type=parse_epoch_cuts, default=None,
                       metavar="I,J,K",
                       help="explicit cut positions (event indexes); "
                            "overrides --epoch-size")
        p.add_argument("--config", default=None, metavar="AUDIT.JSON",
                       help="audit config file (flags override its "
                            "fields; see AuditConfig.to_json)")

    demo = sub.add_parser("demo", help="serve + audit, print stats")
    common(demo)
    demo.add_argument("--concurrency", type=int, default=8,
                      help="server's max in-flight requests")
    audit_knobs(demo)
    demo.set_defaults(func=cmd_demo)

    record = sub.add_parser("record", help="serve and save a bundle")
    common(record)
    record.add_argument("--concurrency", type=int, default=8,
                        help="server's max in-flight requests")
    record.add_argument("--out", default="audit_bundle.json")
    record.add_argument("--format",
                        choices=("json", "jsonl", "jsonl-epochs"),
                        default="json",
                        help="bundle encoding: legacy JSON blob, "
                             "streaming JSONL, or per-epoch segmented "
                             "JSONL (tailable with audit --follow)")
    record.set_defaults(func=cmd_record)

    serve = sub.add_parser(
        "serve",
        help="serve a workload and publish the live audit stream "
             "over TCP (audit it with: audit --connect HOST:PORT)",
    )
    common(serve)
    serve.add_argument("--concurrency", type=int, default=8,
                       help="server's max in-flight requests")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="publish the framed audit stream here "
                            "(port 0 binds an ephemeral port; the bound "
                            "address is printed)")
    serve.add_argument("--out", default=None, metavar="BUNDLE.JSONL",
                       help="also mirror the stream to a segmented "
                            "JSONL bundle file")
    serve.add_argument("--epoch-delay", type=float, default=0.0,
                       metavar="SECONDS",
                       help="pause between published epochs (stands in "
                            "for a live recorder mid-stream)")
    serve.add_argument("--linger", type=float, default=30.0,
                       metavar="SECONDS",
                       help="after the end record, wait this long for "
                            "an auditor to drain the stream")
    serve.add_argument("--net-idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="drop a subscriber that lags this long "
                            "(it can reconnect and resume)")
    serve.add_argument("--batch-records", type=int, default=None,
                       dest="batch_records", metavar="N",
                       help="records per RECORD_BATCH wire frame "
                            "(default 64; 1 disables batching)")
    serve.add_argument("--batch-bytes", type=int, default=None,
                       dest="batch_bytes", metavar="BYTES",
                       help="flush the pending wire batch at this many "
                            "payload bytes (default 262144)")
    serve.add_argument("--spool-epochs", type=int, default=None,
                       metavar="N",
                       help="keep only the newest N sealed epochs for "
                            "late-connect/resume replay (bounds "
                            "publisher memory; default: keep all)")
    serve.add_argument("--config", default=None, metavar="AUDIT.JSON",
                       help="audit config file for the transport knobs "
                            "(listen, net_idle_timeout); flags override "
                            "its fields")
    serve.set_defaults(func=cmd_serve)

    audit = sub.add_parser("audit", help="audit a saved bundle or a "
                                         "live stream")
    common(audit)
    audit_knobs(audit)
    audit.add_argument("--concurrency", dest="workers", type=int,
                       metavar="N", action=_DeprecatedAlias,
                       help="deprecated alias for --workers")
    audit.add_argument("bundle", nargs="?", default=None)
    audit.add_argument("--baseline", action="store_true",
                       help="also run the simple re-execution baseline")
    audit.add_argument("--json", action="store_true",
                       help="emit a machine-readable verdict summary "
                            "(verdict, per-epoch stats, rejecting "
                            "epoch) instead of text")
    audit.add_argument("--follow", action="store_true",
                       help="tail a JSONL bundle epoch by epoch through "
                            "an incremental audit session")
    audit.add_argument("--follow-timeout", type=float, default=3.0,
                       metavar="SECONDS",
                       help="--follow: give up after this long without "
                            "new data (default 3s)")
    audit.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="audit the live stream of a `repro serve` "
                            "publisher instead of a bundle file")
    audit.add_argument("--net-connect-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="--connect: bound on connect + handshake "
                            "(refused connections are retried until it "
                            "expires; default 5s)")
    audit.add_argument("--net-idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="--connect: give up after this long without "
                            "a frame (default 30s)")
    audit.add_argument("--net-retries", type=int, default=None,
                       metavar="N",
                       help="--connect: resume attempts after a "
                            "mid-stream disconnect (default 3)")
    audit.add_argument("--fleet-listen", dest="fleet_listen",
                       type=_fleet_endpoint, default=None,
                       metavar="[HOST:]PORT",
                       help="listen for `repro worker` daemons and fan "
                            "epoch audits out to them (bare port = all "
                            "interfaces; composes with --connect)")
    audit.add_argument("--fleet-min-workers", dest="fleet_min_workers",
                       type=int, default=None, metavar="N",
                       help="wait for N registered workers before "
                            "dispatching the first epoch")
    audit.add_argument("--fleet-task-timeout", dest="fleet_task_timeout",
                       type=float, default=None, metavar="SECONDS",
                       help="per-epoch straggler deadline on a worker; "
                            "past it the epoch is re-dispatched")
    audit.add_argument("--fleet-redundancy", dest="fleet_redundancy",
                       type=int, default=None, metavar="K",
                       help="dispatch each epoch to K workers and "
                            "cross-check their verdicts (default 1)")
    audit.set_defaults(func=cmd_audit)

    lint = sub.add_parser(
        "lint",
        help="statically analyze a built-in app's weblang scripts "
             "(effect inference, state-key footprints, audit-soundness "
             "lint; see docs/analysis.md)",
    )
    lint.add_argument("app",
                      choices=sorted(_LINT_APPS) + sorted(_LINT_ALIASES),
                      help="application to lint (workload names are "
                           "accepted as aliases)")
    lint.add_argument("--json", action="store_true",
                      help="emit the full machine-readable report "
                           "(effects, footprints, diagnostics) instead "
                           "of text diagnostics")
    lint.add_argument("--fail-on", dest="fail_on", choices=SEVERITIES,
                      default="error",
                      help="exit nonzero when any diagnostic of this "
                           "severity (or worse) is found (default: "
                           "error)")
    lint.set_defaults(func=cmd_lint)

    synth = sub.add_parser(
        "synth",
        help="stream a synthetic Zipf-skewed workload (millions of "
             "simulated users) into a segmented bundle, with optional "
             "self-audit profile and checkpoint/resume (see "
             "docs/scenarios.md)",
    )
    common(synth)
    synth.add_argument("--requests", type=int, default=10_000,
                       help="requests to synthesize this run "
                            "(default 10000; resume adds on top)")
    synth.add_argument("--users", type=int, default=1_000_000,
                       help="simulated user population sampled with a "
                            "Zipf-like skew (default 1e6)")
    synth.add_argument("--max-sessions", type=int, default=64,
                       dest="max_sessions", metavar="N",
                       help="bound on concurrently active sessions "
                            "(the generator's working set; default 64)")
    synth.add_argument("--concurrency", type=int, default=8,
                       help="server's max in-flight requests")
    synth.add_argument("--out", default="synth_bundle.jsonl",
                       metavar="BUNDLE.JSONL",
                       help="segmented JSONL bundle to write")
    synth.add_argument("--profile", default=None, metavar="PROFILE.JSON",
                       help="self-audit each epoch while generating and "
                            "write the per-group (n, alpha, ell) "
                            "profile here")
    synth.add_argument("--resume", default=None, metavar="CKPT.JSON",
                       help="resume from a checkpoint written by a "
                            "previous run's --checkpoint-out")
    synth.add_argument("--checkpoint-out", dest="checkpoint_out",
                       default=None, metavar="CKPT.JSON",
                       help="write this run's final checkpoint for a "
                            "later --resume")
    synth.add_argument("--json", action="store_true",
                       help="emit the generation summary as JSON")
    synth.set_defaults(func=cmd_synth)

    fuzz = sub.add_parser(
        "fuzz",
        help="tamper-fuzz a recorded bundle: randomized mutations "
             "(drop/flip/reorder/splice/truncate/wire-corrupt) that "
             "the stock audit must REJECT; accepted mutations are "
             "shrunk to a minimal reproducer (see docs/scenarios.md)",
    )
    fuzz.add_argument("bundle", help="recorded bundle to attack "
                                     "(JSONL formats)")
    fuzz.add_argument("--workload", choices=sorted(_WORKLOADS),
                      default="cart",
                      help="the app the bundle was recorded against "
                           "(default: cart)")
    fuzz.add_argument("--scale", type=float, default=0.05,
                      help="the scale the bundle was recorded at "
                           "(default 0.05, the committed fixture's)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; every mutation derives from "
                           "(seed, index) and replays exactly")
    fuzz.add_argument("--mutations", type=int, default=100,
                      help="number of randomized mutations (default "
                           "100)")
    fuzz.add_argument("--operators", default=None, metavar="A,B,...",
                      help="restrict to these tamper operators "
                           "(comma-separated; default: all)")
    fuzz.add_argument("--splice-with", dest="splice_with", default=None,
                      metavar="BUNDLE.JSONL",
                      help="donor bundle for cross-bundle epoch "
                           "splices (default: swap epochs in place)")
    fuzz.add_argument("--no-shrink", dest="no_shrink",
                      action="store_true",
                      help="skip ddmin shrinking of accepted mutations")
    fuzz.add_argument("--reproducer-out", dest="reproducer_out",
                      default="fuzz_reproducer.json",
                      metavar="REPRO.JSON",
                      help="where to write the minimal reproducer if "
                           "any mutation is accepted")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the campaign report as JSON")
    fuzz.set_defaults(func=cmd_fuzz)

    query = sub.add_parser(
        "query",
        help="reconstruct a SQL result, KV key, or register from a "
             "recorded bundle at any epoch or request point "
             "(time-travel forensics; see docs/forensics.md)",
    )
    common(query)
    audit_knobs(query)
    query.add_argument("bundle", help="recorded audit bundle "
                                      "(any format)")
    query.add_argument("target",
                       help="a SELECT statement, `kv:<key>` (or a bare "
                            "KV key), or `reg:<name>`")
    query.add_argument("--as-of", dest="as_of", required=True,
                       metavar="EPOCH|REQUEST",
                       help="epoch index (state at the end of that "
                            "epoch) or request id (state as of its "
                            "observed response)")
    query.add_argument("--json", action="store_true",
                       help="emit the reconstruction as JSON")
    query.set_defaults(func=cmd_query)

    explain = sub.add_parser(
        "explain",
        help="scoped single-request re-audit: replay one request's "
             "control-flow chunk plus its read-lineage closure and "
             "print ACCEPT/REJECT with the regenerated body",
    )
    common(explain)
    audit_knobs(explain)
    explain.add_argument("bundle", help="recorded audit bundle "
                                        "(any format)")
    explain.add_argument("request_id", help="the request to re-audit")
    explain.add_argument("--json", action="store_true",
                         help="emit the scoped verdict as JSON")
    explain.set_defaults(func=cmd_explain)

    worker = sub.add_parser(
        "worker",
        help="join a fleet coordinator (audit --fleet-listen) and "
             "execute dispatched epoch audits",
    )
    worker.add_argument("--join", required=True, metavar="HOST:PORT",
                        help="the coordinator's fleet endpoint")
    worker.add_argument("--name", default=None,
                        help="worker name shown to the coordinator "
                             "(default: hostname-pid)")
    worker.add_argument("--heartbeat", type=float, default=2.0,
                        metavar="SECONDS",
                        help="heartbeat interval while an epoch runs "
                             "(default 2s)")
    worker.add_argument("--connect-timeout", type=float, default=30.0,
                        dest="connect_timeout", metavar="SECONDS",
                        help="bound on joining; refused connections are "
                             "retried until it expires (workers may "
                             "start before the coordinator binds)")
    worker.set_defaults(func=cmd_worker)

    args = parser.parse_args(argv)
    args._parser = parser
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
