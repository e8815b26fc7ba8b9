"""The auditing service API: :class:`Auditor` and :class:`AuditSession`.

The paper's deployment is *continuous* (§4.1): the verifier audits epoch
N while the server records epoch N+1, and only migrated state crosses
epoch boundaries.  ``ssco_audit`` — one function call over one complete
bundle — cannot express that.  This module redesigns the audit phase
around a long-lived service object:

* :class:`Auditor` binds the trusted program and a validated
  :class:`~repro.core.config.AuditConfig`.  :meth:`Auditor.audit` is the
  one-shot entry point (exactly ``ssco_audit``); :meth:`Auditor.session`
  opens an **incremental epoch session**.
* :class:`AuditSession` consumes one epoch at a time:
  :meth:`~AuditSession.feed_epoch` audits a (trace slice, reports slice)
  pair against the state migrated out of the previous epoch and returns
  a per-epoch :class:`EpochResult`; :meth:`~AuditSession.close` returns
  the merged :class:`~repro.core.pipeline.AuditResult`.  Feeding the
  epochs of a bundle one by one produces verdicts, produced bodies, and
  deterministic stats identical to the one-shot
  :func:`~repro.core.pipeline.sharded_audit` over the same cuts — the
  session *is* the sharded audit, unrolled over time.
* With ``session(pipelined=True)``, :meth:`~AuditSession.feed_epoch_async`
  returns a :class:`PendingEpoch` immediately and audits in a background
  thread: the caller ingests (reads, parses) epoch N+1 while epoch N
  re-executes — and with ``config.workers > 1`` the re-execution itself
  runs in the existing process pool, so ingest genuinely overlaps audit
  CPU.  Epochs still audit strictly in feed order (state chains).
* With ``config.epoch_workers > 1`` (local, the default
  ``epoch_processes``) ingest and audit split across two processes:
  one resident child (:mod:`repro.core.epochchild`) gets the program
  and the initial state once and runs this module's *serial* session
  chain over each slice it is sent, while the calling process only
  decodes, ships slices and settles verdicts.  Per-epoch and merged
  results are the serial session's by construction; at most
  ``prepass_depth`` (default ``2 * epoch_workers``) epochs are in
  flight.  A child that cannot start leaves the session on the
  in-process serial chain; one that dies mid-stream raises
  :class:`~repro.common.errors.AuditInfrastructureError`, never a
  verdict.
* With ``epoch_processes=False`` (``--epoch-threads``) or a fleet
  (``fleet_listen``) the chain itself is unrolled: at feed time only the
  cheap, serial part runs — the cross-epoch checks and the redo-only
  **state precompute**
  (:func:`~repro.core.pipeline.state_precompute_pipeline`), which
  migrates the next epoch's initial state without re-executing anything
  — and the heavy remainder (grouped re-execution, output comparison)
  runs on ``epoch_workers`` threads (or, as epoch work units, on fleet
  hosts).  Several epochs audit concurrently; results are merged
  strictly in feed order, so the per-epoch results and the merged
  outcome are bit-identical to the serial session (epochs after the
  first rejection come back *skipped* and their speculative audits are
  discarded).

Soundness across epochs: the session chains each epoch's §4.5 migrated
state into the next (acceptance is inductive, as for contiguous audit
epochs), and threads the ``uniqid()``-uniqueness plausibility check's
state across feeds so the §4.6 whole-stream check is preserved.  After a
rejected epoch the chain is broken and every further feed returns a
*skipped* result carrying the original verdict.

The streaming front end lives in :mod:`repro.io`:
``BundleReader.epochs(follow=True)`` tails a live JSONL bundle and
yields exactly the slices :meth:`~AuditSession.feed_epoch` consumes.
"""

from __future__ import annotations

import pickle
import threading
import time as _time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.common.errors import AuditReject, RejectReason
from repro.core.config import AuditConfig
from repro.core.epochchild import EpochChild
from repro.core.epochwork import epoch_worker_options
from repro.core.nondet import validate_nondet_reports
from repro.core.partition import make_shard_summary
from repro.core.pipeline import (
    AuditContext,
    AuditPipeline,
    AuditResult,
    _merge_shard_result,
    default_pipeline,
    finish_precomputed_audit,
    resolve_prepass_depth,
    run_audit,
    state_precompute_pipeline,
)
from repro.core.reexec import available_cpus, fork_inherits_context
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace, check_balanced


@dataclass
class EpochResult:
    """Outcome of auditing one epoch inside a session."""

    #: Zero-based feed position.
    index: int
    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    #: Requests / events in this epoch's slice.
    requests: int = 0
    events: int = 0
    #: Phase timers and stats of this epoch's pipeline pass (same keys
    #: as a one-shot :class:`~repro.core.pipeline.AuditResult`).
    phases: dict[str, float] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)
    #: rid -> produced body for this epoch.
    produced: dict[str, str] = field(default_factory=dict)
    #: True when the epoch was never audited because an earlier epoch
    #: already rejected (the chain's state is untrusted from there on).
    skipped: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


class PendingEpoch:
    """Handle for an epoch fed asynchronously; :meth:`result` blocks.

    In ``epoch_workers`` mode the handle resolves through a
    ``resolver``/``done_fn`` pair instead of a bare future: the audit
    process's in-order results, or the thread/fleet driver's in-order
    merge, so the result a caller sees is always the *normalized* one —
    e.g. *skipped* when an earlier epoch's concurrent audit rejected.
    """

    def __init__(self, index: int,
                 future: "Future[EpochResult]" | None = None,
                 resolver=None, done_fn=None):
        self.index = index
        self._future = future
        self._resolver = resolver
        self._done_fn = done_fn

    def result(self, timeout: float | None = None) -> EpochResult:
        if self._resolver is not None:
            return self._resolver(timeout)
        return self._future.result(timeout)

    def done(self) -> bool:
        if self._done_fn is not None:
            return self._done_fn()
        return self._future.done()


class AuditSession:
    """One continuous audit: epochs in, per-epoch verdicts out.

    Sessions are created by :meth:`Auditor.session` and consumed either
    synchronously (:meth:`feed_epoch`) or pipelined
    (:meth:`feed_epoch_async`).  The session owns the chain state: the
    initial state it was opened with, then each accepted epoch's
    migrated state (held by the audit process in local
    ``epoch_workers`` mode).  Use as a context manager to guarantee
    :meth:`close`, which also ends that process.
    """

    def __init__(
        self,
        auditor: Auditor,
        initial_state: InitialState,
        pipelined: bool = False,
    ):
        self._auditor = auditor
        self._state = initial_state
        self._pool: ThreadPoolExecutor | None = None
        self._epoch_pool: ThreadPoolExecutor | None = None
        config = auditor.config
        # Concurrent epoch mode needs the stock phase structure (the
        # prepass stands in for specific phases); custom pipelines keep
        # the serial chain.
        epoch_workers = (
            config.epoch_workers if auditor.pipeline is None else 1
        )
        fleet = (config.fleet_listen is not None
                 and auditor.pipeline is None)
        if fleet:
            # Fleet mode implies concurrent epochs: widen the driver so
            # every remote worker can hold an epoch even when
            # epoch_workers was left at 1.
            epoch_workers = max(epoch_workers,
                                config.fleet_min_workers, 2)
        # Backpressure: submit_epoch blocks once this many epochs are in
        # flight (speculatively primed, or sent to the audit process).
        depth_options = config.to_options()
        depth_options.epoch_workers = epoch_workers
        self._prepass_depth = resolve_prepass_depth(depth_options)
        self._process_pool = None
        self._child: EpochChild | None = None
        #: Why a local ``epoch_workers`` session audits in-process
        #: instead (its audit process could not start), else None.
        self.child_unavailable: str | None = None
        if epoch_workers > 1 and not fleet and config.epoch_processes:
            # Ingest/audit split: one resident child runs the serial
            # chain; this process only decodes, ships slices, settles.
            try:
                self._child = EpochChild(auditor.app, config, initial_state)
            except (OSError, ValueError, TypeError, AttributeError,
                    pickle.PickleError) as exc:
                self._use_serial_chain(f"{type(exc).__name__}: {exc}")
        elif epoch_workers > 1:
            # Concurrent epoch mode: the cheap redo-only prepass chains
            # state serially at submit time; the heavy audits run in
            # this pool and are merged back strictly in feed order.
            # (The pipelined single worker thread is superseded — the
            # epoch pool already decouples feeding from auditing.)
            self._epoch_pool = ThreadPoolExecutor(
                max_workers=epoch_workers,
                thread_name_prefix="audit-epoch",
            )
            if fleet:
                # Remote epochs: the coordinator runs each epoch work
                # unit on a fleet host (run_epoch/close/serial_fallbacks)
                # and the merge discipline below stays the same.
                # Imported lazily — the core layer only depends on the
                # fleet package when a fleet is actually requested.
                from repro.fleet.coordinator import FleetCoordinator

                self._process_pool = FleetCoordinator(
                    config.fleet_listen,
                    min_workers=config.fleet_min_workers,
                    task_timeout=config.fleet_task_timeout,
                    redundancy=config.fleet_redundancy,
                    heartbeat_timeout=config.net_idle_timeout,
                )
                self._offload = False
            else:
                # Thread driver: offload each epoch's serial re-exec to
                # a worker process only where fork lets it inherit the
                # built stores; a spawn pool would re-run the redo the
                # precompute just did.
                self._offload = (config.workers == 1
                                 and available_cpus() > 1
                                 and fork_inherits_context())
            self._precompute_seconds = 0.0
            #: Feed-order merge queue: ("skipped"|"precheck"|"rejected"|
            #: "audit", payload, requests, events) per fed epoch.
            self._entries: list[tuple] = []
            self._merged_upto = 0
            #: Speculative chain state (redo-only); ``_state`` remains
            #: the *certified* chain, advanced only at merge time.
            self._prepass_state = initial_state
            self._prepass_failed = False
            self._merge_lock = threading.RLock()
        elif pipelined:
            self._use_serial_chain(None)
        self._seen_uniq: set = set()
        self._epochs: list[EpochResult] = []
        self._summaries: list[dict[str, object]] = []
        self._merged = AuditResult(accepted=False)
        self._pending: list["Future[EpochResult]"] = []
        self._audit_seconds = 0.0
        self._failure: EpochResult | None = None
        self._fed = 0
        self._closed = False
        self._final: AuditResult | None = None
        #: Latched first crash (a non-AuditReject exception from an
        #: epoch's audit).  Every later drain/close re-raises it — a
        #: session that crashed can never fall through to ACCEPTED.
        self._crash: BaseException | None = None

    # -- feeding ----------------------------------------------------------

    def feed_epoch(self, trace: Trace, reports: Reports) -> EpochResult:
        """Audit the next epoch of the stream; returns its result.

        The slice must be self-contained: a balanced trace segment cut
        at a quiescent point, with the reports restricted to its
        requests (exactly what ``BundleReader.epochs()`` or
        :func:`repro.core.partition.partition_audit_inputs` yield).
        """
        return self.submit_epoch(trace, reports).result()

    def feed_epoch_async(self, trace: Trace,
                         reports: Reports) -> PendingEpoch:
        """Queue the next epoch and return immediately.

        Requires a ``pipelined=True`` session or an ``epoch_workers``
        session (which is natively asynchronous).  Epochs audit in feed
        order on the session's worker thread (concurrently, merged back
        in feed order, with ``epoch_workers``); the caller is free to
        ingest the next epoch meanwhile.
        """
        if (self._pool is None and self._epoch_pool is None
                and self._child is None):
            raise RuntimeError(
                "feed_epoch_async requires a pipelined session: "
                "auditor.session(state, pipelined=True) "
                "(or an epoch_workers > 1 config)"
            )
        return self.submit_epoch(trace, reports)

    def submit_epoch(self, trace: Trace, reports: Reports) -> PendingEpoch:
        """Common feed path: synchronous sessions run inline, pipelined
        sessions enqueue on the worker thread, local ``epoch_workers``
        sessions ship the slice to their audit process, and thread or
        fleet driven ones prepass inline and dispatch to the epoch
        pool."""
        if self._closed:
            raise RuntimeError("audit session is closed")
        index = self._fed
        self._fed += 1
        if self._child is not None:
            pending = self._submit_to_child(index, trace, reports)
            if pending is not None:
                return pending
        if self._epoch_pool is not None:
            return self._submit_epoch_concurrent(index, trace, reports)
        if self._pool is not None:
            # Prune completed, exception-free futures so a long follow
            # session does not pin every finished epoch's future for
            # the stream's lifetime; futures that crashed are kept so
            # close()/_drain can still re-raise them.
            self._pending = [
                f for f in self._pending
                if not f.done() or f.exception() is not None
            ]
            future = self._pool.submit(self._audit_epoch, index, trace,
                                       reports)
            # Remembered so close()/_drain can re-raise an unexpected
            # worker exception even if the caller drops the handle —
            # a session must never report ACCEPTED over an epoch whose
            # audit crashed.
            self._pending.append(future)
        else:
            future: Future[EpochResult] = Future()
            future.set_result(self._audit_epoch(index, trace, reports))
        return PendingEpoch(index, future)

    def _use_serial_chain(self, reason: str | None) -> None:
        """Audit in feed order on one worker thread of this process:
        the pipelined session, and a local ``epoch_workers`` session
        whose audit process could not start (``reason``)."""
        self.child_unavailable = reason
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="audit-session"
        )

    # -- the live ingest/audit split (local epoch_workers) ----------------

    def _submit_to_child(self, index: int, trace: Trace,
                         reports: Reports) -> PendingEpoch | None:
        """Ship one slice to the resident audit process.  Returns None
        when the process could not start: the session then runs the
        serial chain in-process, beginning with this epoch.

        Backpressure: at most ``prepass_depth`` epochs are in flight;
        past that, this waits for the oldest to settle.
        """
        child = self._child
        if index == 0 and not child.wait_ready():
            child.stop()
            self._child = None
            self._use_serial_chain(child.unavailable)
            return None
        child.wait_in_flight(self._prepass_depth)
        try:
            child.send_epoch(trace, reports)
        except BaseException as crash:
            # This epoch never reached the audit process: nothing may
            # settle past it.
            self._crash = crash
            raise
        return PendingEpoch(
            index,
            resolver=lambda timeout=None: child.result(index, timeout),
            done_fn=lambda: child.done(index),
        )

    # -- the concurrent (thread/fleet epoch driver) feed path -------------

    def _submit_epoch_concurrent(self, index: int, trace: Trace,
                                 reports: Reports) -> PendingEpoch:
        """Feed-order half of the concurrent mode.

        The parts that must run serially happen here, in the caller's
        thread: the cross-epoch checks (balance, the §4.6 uniqid
        seen-set) and the redo-only prepass that migrates the next
        epoch's initial state.  The heavy remainder goes to the epoch
        pool.  EpochResults are constructed at merge time, strictly in
        feed order, so verdicts and stats match the serial session even
        when a rejection is discovered after later epochs were fed.

        Backpressure: before priming another epoch, the speculative
        prepass is held back until fewer than ``prepass_depth`` primed
        epochs are in flight — a follow/connect session feeding faster
        than the pool audits blocks here instead of accumulating
        unbounded speculative state.
        """
        requests = len(trace.request_ids())
        events = len(trace)
        while True:
            with self._merge_lock:
                if (self._prepass_failed or self._failure is not None
                        or len(self._entries) - self._merged_upto
                        < self._prepass_depth):
                    break
                oldest = self._merged_upto
            # Settle (and release) the oldest in-flight epoch before
            # priming more; the wait happens outside the merge lock.
            self._resolve(oldest)
        with self._merge_lock:
            if self._prepass_failed or self._failure is not None:
                self._entries.append(("skipped", None, requests, events))
            else:
                try:
                    entry = self._prepass_epoch(trace, reports, requests,
                                                events)
                except BaseException as crash:
                    # Keep the merge queue aligned with epoch indexes: a
                    # crashed prepass still occupies its slot, and the
                    # crash resurfaces at merge/close time too (a
                    # session must never report ACCEPTED over an epoch
                    # whose audit crashed).
                    self._prepass_failed = True
                    self._entries.append(("crashed", crash, requests,
                                          events))
                    raise
                self._entries.append(entry)
        return PendingEpoch(
            index,
            resolver=lambda timeout=None: self._resolve(index, timeout),
            done_fn=lambda: self._entry_done(index),
        )

    def _prepass_epoch(self, trace: Trace, reports: Reports,
                       requests: int, events: int) -> tuple:
        """One epoch's serial half; returns its merge-queue entry."""
        try:
            check_balanced(trace)
            validate_nondet_reports(reports, self._seen_uniq)
        except AuditReject as reject:
            self._prepass_failed = True
            return ("precheck", reject, requests, events)
        options = self._auditor.config.to_options()
        options.epoch_size = 0
        options.epoch_cuts = None
        options.epoch_workers = 1
        options.migrate = True  # the chain always needs the next state
        options.offload_reexec = self._offload
        epoch_state = self._prepass_state
        actx = AuditContext(self._auditor.app, trace, reports,
                            epoch_state, options)
        prepass_start = _time.perf_counter()
        pre = state_precompute_pipeline().run(actx)
        self._precompute_seconds += _time.perf_counter() - prepass_start
        if not pre.accepted:
            # The full audit would reject at the same phase with the
            # same reason — the prepass *is* that prefix of it — so its
            # result already carries the epoch's verdict and stats.
            self._prepass_failed = True
            return ("rejected", pre, requests, events)
        self._prepass_state = pre.next_initial
        if self._process_pool is not None:
            # Whole-epoch work unit on a fleet host; the primed
            # context's stores are released here (the worker rebuilds
            # its own from the pickled slices) — only the migrated chain
            # state extracted above is kept.
            worker_options = epoch_worker_options(options)
            future = self._epoch_pool.submit(
                self._process_pool.run_epoch, self._auditor.app, trace,
                reports, epoch_state, worker_options)
        else:
            future = self._epoch_pool.submit(finish_precomputed_audit,
                                             actx)
        return ("audit", (future, pre.next_initial), requests, events)

    def _resolve(self, index: int,
                 timeout: float | None = None) -> EpochResult:
        """Merge entries in feed order up to ``index``; returns its
        normalized :class:`EpochResult`.

        Pool futures are waited on *outside* the merge lock, so feeding
        and ``done()`` polls stay responsive while an epoch audits; the
        merges themselves happen under the lock.  ``timeout`` is an
        overall deadline for the whole call, not per predecessor epoch.
        """
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        while True:
            with self._merge_lock:
                if index < self._merged_upto:
                    return self._epochs[index]
                kind, payload = self._entries[self._merged_upto][:2]
                if (self._failure is not None or kind != "audit"
                        or payload[0].done()):
                    self._merge_next_entry()
                    continue
                future = payload[0]
            remaining = (None if deadline is None
                         else deadline - _time.monotonic())
            try:
                # Lock-free wait; raises TimeoutError past the deadline.
                # The merge happens under the lock on the next loop turn
                # (re-checked — another thread may have merged it first).
                future.exception(remaining)
            except CancelledError:
                # An earlier epoch rejected and cancelled this one; the
                # next turn takes the skipped path.
                pass

    def _entry_done(self, index: int) -> bool:
        """True only when ``result()`` would not block: every entry up
        to ``index`` must be mergeable without waiting (after a
        recorded failure, merging never waits — later audits are
        cancelled, not joined)."""
        with self._merge_lock:
            if index < self._merged_upto:
                return True
            if self._failure is not None:
                return True
            for position in range(self._merged_upto, index + 1):
                kind, payload = self._entries[position][:2]
                if kind == "audit" and not payload[0].done():
                    return False
            return True

    def _merge_next_entry(self) -> None:
        """Merge the next queued epoch (lock held by the caller; any
        pool future involved is already done)."""
        index = self._merged_upto
        kind, payload, requests, events = self._entries[index]
        if self._failure is not None:
            # Everything after the first rejection mirrors the serial
            # session's *skipped* results; a speculative audit that is
            # already running is discarded unseen.
            if kind == "audit":
                future, _ = payload
                future.cancel()
                future.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
            self._epochs.append(EpochResult(
                index=index,
                accepted=False,
                reason=self._failure.reason,
                detail=f"skipped: epoch {self._failure.index} already "
                       f"rejected ({self._failure.detail})",
                requests=requests,
                events=events,
                skipped=True,
            ))
        elif kind == "crashed":
            # Re-raise the feed-time crash (see _submit_epoch_concurrent)
            # so close()/_drain can never report ACCEPTED past it.
            raise payload
        elif kind == "precheck":
            epoch = EpochResult(
                index=index, accepted=False, reason=payload.reason,
                detail=payload.detail, requests=requests, events=events,
            )
            self._epochs.append(epoch)
            self._failure = epoch
            self._merged.produced = {}
        else:  # "rejected" (a prepass verdict) or "audit" (pool future)
            if kind == "audit":
                future, next_state = payload
                result = future.result()
            else:
                result, next_state = payload, None
            epoch = EpochResult(
                index=index,
                accepted=result.accepted,
                reason=result.reason,
                detail=result.detail,
                requests=requests,
                events=events,
                phases=result.phases,
                stats=result.stats,
                produced=result.produced,
            )
            self._epochs.append(epoch)
            _merge_shard_result(self._merged, result)
            self._summaries.append(
                make_shard_summary(index, requests, events, result)
            )
            self._audit_seconds += result.phases.get("total", 0.0)
            if not epoch.accepted:
                self._failure = epoch
                self._merged.produced = {}
            else:
                # Certify the prepass state: this epoch's full audit
                # validated the very logs the prepass migrated.
                self._state = next_state
        # Release the merged entry's payload (future + migrated-state
        # snapshot): a long follow session must hold one chain state,
        # not one per epoch.  ("crashed" entries never reach this line
        # — they re-raise above and keep their exception.)
        self._entries[index] = (kind, None, requests, events)
        self._merged_upto += 1

    # -- the per-epoch audit (single-threaded by construction) ------------

    def _audit_epoch(self, index: int, trace: Trace,
                     reports: Reports) -> EpochResult:
        started = _time.perf_counter()
        try:
            return self._audit_epoch_inner(index, trace, reports)
        finally:
            # Time actually spent auditing — unlike wall-clock since
            # session start, this excludes waiting for epochs to arrive
            # (a follow session is mostly waiting).
            self._audit_seconds += _time.perf_counter() - started

    def _audit_epoch_inner(self, index: int, trace: Trace,
                           reports: Reports) -> EpochResult:
        if self._failure is not None:
            epoch = EpochResult(
                index=index,
                accepted=False,
                reason=self._failure.reason,
                detail=f"skipped: epoch {self._failure.index} already "
                       f"rejected ({self._failure.detail})",
                requests=len(trace.request_ids()),
                events=len(trace),
                skipped=True,
            )
            self._epochs.append(epoch)
            return epoch

        config = self._auditor.config
        # The §4.6 plausibility pre-check with whole-stream state: the
        # per-epoch pipeline re-checks internally, but only this shared
        # set catches a uniqid duplicated *across* epochs (sharded_audit
        # sees the whole report set at once and needs no threading).
        try:
            check_balanced(trace)
            validate_nondet_reports(reports, self._seen_uniq)
        except AuditReject as reject:
            epoch = EpochResult(
                index=index, accepted=False, reason=reject.reason,
                detail=reject.detail,
                requests=len(trace.request_ids()), events=len(trace),
            )
            self._record(epoch, None)
            return epoch

        options = config.to_options()
        options.epoch_size = 0
        options.epoch_cuts = None
        options.migrate = True  # the chain always needs the next state
        actx = AuditContext(self._auditor.app, trace, reports,
                            self._state, options)
        pipeline = self._auditor.pipeline or default_pipeline(options)
        result = pipeline.run(actx)
        epoch = EpochResult(
            index=index,
            accepted=result.accepted,
            reason=result.reason,
            detail=result.detail,
            requests=len(trace.request_ids()),
            events=len(trace),
            phases=result.phases,
            stats=result.stats,
            produced=result.produced,
        )
        self._record(epoch, result)
        return epoch

    def _record(self, epoch: EpochResult,
                result: AuditResult | None) -> None:
        self._epochs.append(epoch)
        if result is not None:
            _merge_shard_result(self._merged, result)
            self._summaries.append(make_shard_summary(
                epoch.index, epoch.requests, epoch.events, result
            ))
        if not epoch.accepted:
            self._failure = epoch
            self._merged.produced = {}
            return
        if result is not None:
            if result.next_initial is None:
                raise ValueError(
                    "audit session needs a MigratePhase in the pipeline "
                    "to chain epoch state"
                )
            self._state = result.next_initial

    # -- lifecycle --------------------------------------------------------

    @property
    def current_state(self) -> InitialState:
        """The state the *next* epoch will be audited against (the last
        accepted epoch's migrated state)."""
        self._drain()
        if self._child is not None and not self._closed:
            return self._child.state()
        return self._state

    @property
    def epochs(self) -> list[EpochResult]:
        """Per-epoch results so far (feed order)."""
        self._drain()
        return list(self._epochs)

    @property
    def rejected(self) -> bool:
        self._drain()
        return self._failure is not None

    def _drain(self) -> None:
        """Wait for queued epochs to finish, re-raising any unexpected
        exception an epoch's audit hit (rejections are results, not
        exceptions — only genuine crashes surface here).  A crash is
        latched: every later drain/close re-raises it, so a crashed
        session can never fall through to an ACCEPTED verdict.  In
        ``epoch_workers`` mode this performs the in-order merge of
        every fed epoch."""
        if self._crash is not None:
            raise self._crash
        try:
            self._drain_inner()
        except Exception as crash:
            self._crash = crash
            raise
        # KeyboardInterrupt/SystemExit raised in the *waiting* thread
        # propagate un-latched: no epoch audit crashed, and a later
        # drain can still deliver the real verdict.

    def _drain_inner(self) -> None:
        if self._closed:
            return
        if self._child is not None:
            if self._fed:
                self._child.result(self._fed - 1)
            self._epochs = self._child.results()
            self._failure = next(
                (epoch for epoch in self._epochs if not epoch.accepted),
                None)
            return
        if self._epoch_pool is not None:
            while True:
                with self._merge_lock:
                    total = len(self._entries)
                    if self._merged_upto >= total:
                        return
                self._resolve(total - 1)
        if self._pool is None:
            return
        pending, self._pending = self._pending, []
        for future in pending:
            future.result()

    def close(self) -> AuditResult:
        """Finish the session and return the merged result.

        The merged result has the same shape as one-shot
        ``ssco_audit(..., epoch_cuts=...)`` over the concatenated
        stream: summed phase timers and stats, per-epoch summaries under
        ``stats["shards"]``, the union of produced bodies, and — when
        the config asks for ``migrate`` — the final chained state in
        ``next_initial``.  ``phases["total"]`` is the summed per-epoch
        audit time, *not* wall-clock since the session opened (a follow
        session spends most of its life waiting for epochs).
        Idempotent.
        """
        if self._final is not None:
            return self._final
        try:
            self._drain()
            if self._child is not None:
                # The audit process's own serial session is the merged
                # result.
                try:
                    self._final, self._state = self._child.finish()
                except Exception as crash:
                    self._crash = crash
                    raise
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            if self._epoch_pool is not None:
                self._epoch_pool.shutdown(wait=True)
            if self._process_pool is not None:
                self._process_pool.close()
            if self._child is not None:
                self._child.stop()
            self._closed = True
        if self._final is not None:
            return self._final
        merged = self._merged
        if self._process_pool is not None:
            # Fleet workers re-time their own phases, so the parent-side
            # prepass is extra work the per-epoch results do not carry;
            # surface it like the one-shot driver does.  (The thread
            # driver's prepass timers already live inside each epoch's
            # result — no separate entry there.)
            merged.phases["state_precompute"] = self._precompute_seconds
        merged.accepted = self._failure is None
        if self._failure is not None:
            merged.reason = self._failure.reason
            merged.detail = self._failure.detail
        elif self._auditor.config.migrate:
            merged.next_initial = self._state
        merged.stats["shard_count"] = self._fed
        merged.stats["shards"] = self._summaries
        merged.phases["total"] = self._audit_seconds
        self._final = merged
        return merged

    #: ``result()`` is the reading most callers expect at the end.
    result = close

    def __enter__(self) -> AuditSession:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Auditor:
    """A long-lived audit service for one application.

    ``Auditor(app, config)`` binds the trusted program to a validated
    :class:`~repro.core.config.AuditConfig` (keyword knobs build one:
    ``Auditor(app, workers=4, backend="accinterp")``).

    * :meth:`audit` — one-shot, exactly ``ssco_audit``;
    * :meth:`session` — incremental epoch-by-epoch auditing;
    * :meth:`audit_epochs` — drive a session over any iterable of epoch
      slices (e.g. ``BundleReader.epochs(follow=True)``).

    A custom :class:`~repro.core.pipeline.AuditPipeline` may replace the
    stock phase sequence; sessions require it to keep a ``MigratePhase``
    (state must chain).
    """

    def __init__(
        self,
        app: Application,
        config: AuditConfig | None = None,
        pipeline: AuditPipeline | None = None,
        **knobs,
    ):
        if config is not None and knobs:
            raise ValueError(
                "pass either a config object or keyword knobs, not both"
            )
        self.app = app
        self.config = config or AuditConfig(**knobs)
        self.pipeline = pipeline

    def audit(
        self,
        trace: Trace,
        reports: Reports,
        initial_state: InitialState,
    ) -> AuditResult:
        """Audit one complete bundle under this auditor's config."""
        self.config.validate_for_trace(trace)
        return run_audit(self.app, trace, reports, initial_state,
                         self.config.to_options(), pipeline=self.pipeline)

    def session(
        self,
        initial_state: InitialState,
        pipelined: bool = False,
    ) -> AuditSession:
        """Open an incremental epoch session starting from
        ``initial_state`` (the verifier's trusted state at stream start,
        §4.1)."""
        return AuditSession(self, initial_state, pipelined=pipelined)

    def audit_epochs(
        self,
        epochs: Iterable,
        initial_state: InitialState,
        pipelined: bool = False,
    ) -> AuditResult:
        """Feed every epoch slice of ``epochs`` through a session.

        Items may be ``(trace, reports)`` pairs or objects with
        ``.trace`` / ``.reports`` attributes (``BundleReader``'s
        :class:`~repro.io.EpochSlice`, the partitioner's
        :class:`~repro.core.partition.Shard`).  The whole iterable is
        consumed — epochs after a rejection come back as cheap *skipped*
        results, so the merged outcome (verdict, stats, shard count) is
        identical to the one-shot sharded audit over the same cuts.
        With ``config.epoch_workers > 1`` the epochs audit in a
        resident audit process (or, with the thread driver or a fleet,
        concurrently after a redo-only state prepass) while this
        iterable keeps ingesting; the session bounds in-flight epochs
        to ``config.prepass_depth`` (default ``2 * epoch_workers``), so
        a long stream never holds more than a bounded number of epochs
        in memory.  Returns the merged result.
        """
        with self.session(initial_state, pipelined=pipelined) as session:
            for item in epochs:
                if isinstance(item, tuple):
                    trace, reports = item
                else:
                    trace, reports = item.trace, item.reports
                # Enqueues on pipelined/epoch_workers sessions (the
                # iterable keeps ingesting while earlier epochs audit,
                # subject to the session's prepass-depth backpressure);
                # inline on synchronous ones.
                session.submit_epoch(trace, reports)
            return session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Auditor app={self.app.name!r} "
                f"{self.config.describe()}>")
