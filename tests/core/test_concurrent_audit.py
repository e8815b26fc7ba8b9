"""Concurrent auditing: epoch-level parallelism and driver thread-safety.

Covers the concurrent epoch driver (redo-only state precompute +
``epoch_workers`` pool) and the re-exec process-pool driver's behaviour
under concurrency and worker loss:

* serial-vs-``epoch_workers`` equivalence (verdicts, produced bodies,
  deterministic stats, per-shard summaries) on accept *and* reject
  bundles, both one-shot (``sharded_audit``) and through sessions;
* the state-precompute pass itself: redo-only migrated states match the
  chained full audits' migrated states exactly;
* two pipelined sessions auditing simultaneously in one process with
  ``workers > 1`` (the pool-creation / initializer handoff race);
* a killed-worker chunk (``BrokenProcessPool``) falling back to serial
  re-execution instead of escaping ``ssco_audit``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.common.errors import RejectReason
from repro.core import (
    AuditConfig,
    Auditor,
    precompute_epoch_states,
    ssco_audit,
)
from repro.core.partition import partition_audit_inputs
from repro.core.pipeline import AuditOptions, run_audit
from repro.core.reexec import (
    _BACKENDS,
    PlainInterpBackend,
    register_reexec_backend,
)
from repro.io import state_to_json
from repro.server import Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests

#: Stats that must match exactly between serial and concurrent audits
#: (timers excluded: wall-clock is not deterministic).
_DET_STATS = (
    "shard_count", "graph_nodes", "graph_edges", "db_queries_issued",
    "dedup_hits", "dedup_misses", "groups", "grouped_requests",
    "fallback_requests", "divergences", "steps", "multi_steps",
    "group_alphas",
)

_SUMMARY_KEYS = ("shard", "requests", "events", "accepted", "groups")


def _epoch_execution(app, n=40, epoch_size=8, seed=7):
    executor = Executor(
        app,
        scheduler=RandomScheduler(seed),
        max_concurrency=4,
        nondet=NondetSource(seed=seed),
        epoch_size=epoch_size,
    )
    execution = executor.serve(counter_requests(n))
    assert len(execution.epoch_marks) >= 2, "need several quiescent cuts"
    return execution


def _assert_equivalent(serial, concurrent):
    assert concurrent.accepted == serial.accepted, (
        concurrent.reason, concurrent.detail)
    assert concurrent.reason == serial.reason
    assert concurrent.detail == serial.detail
    assert concurrent.produced == serial.produced
    for key in _DET_STATS:
        assert concurrent.stats.get(key) == serial.stats.get(key), key
    serial_shards = [
        {k: s[k] for k in _SUMMARY_KEYS}
        for s in serial.stats.get("shards", [])
    ]
    concurrent_shards = [
        {k: s[k] for k in _SUMMARY_KEYS}
        for s in concurrent.stats.get("shards", [])
    ]
    assert concurrent_shards == serial_shards


# -- one-shot: sharded_audit with epoch_workers -------------------------------


@pytest.mark.parametrize("epoch_processes", [True, False])
def test_epoch_workers_matches_serial_accept(counter_app,
                                             epoch_processes):
    execution = _epoch_execution(counter_app)
    serial = ssco_audit(counter_app, execution.trace, execution.reports,
                        execution.initial_state,
                        epoch_cuts=execution.epoch_marks)
    concurrent = ssco_audit(counter_app, execution.trace,
                            execution.reports, execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=4,
                            epoch_processes=epoch_processes)
    assert serial.accepted and serial.stats["shard_count"] > 1
    _assert_equivalent(serial, concurrent)
    assert "state_precompute" in concurrent.phases


@pytest.mark.parametrize("victim_epoch", ["first", "last"])
def test_epoch_workers_matches_serial_reject(counter_app, victim_epoch):
    """A tampered epoch rejects with the identical verdict, detail, and
    per-shard accounting — whether the rejection lands in the first
    epoch (everything after it discarded) or the last."""
    execution = _epoch_execution(counter_app)
    events = execution.trace.events
    if victim_epoch == "first":
        pool = events[:execution.epoch_marks[0]]
    else:
        pool = events[execution.epoch_marks[-1]:]
    victim = next(e.rid for e in pool if e.is_response and e.payload.body)
    tampered = tamper_response(execution.trace, victim, "forged!")
    serial = ssco_audit(counter_app, tampered, execution.reports,
                        execution.initial_state,
                        epoch_cuts=execution.epoch_marks)
    concurrent = ssco_audit(counter_app, tampered, execution.reports,
                            execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=4)
    assert not serial.accepted
    assert serial.reason is RejectReason.OUTPUT_MISMATCH
    _assert_equivalent(serial, concurrent)
    assert concurrent.produced == {}


def test_epoch_workers_migrated_state_matches_chain(counter_app):
    execution = _epoch_execution(counter_app)
    serial = ssco_audit(counter_app, execution.trace, execution.reports,
                        execution.initial_state, migrate=True,
                        epoch_cuts=execution.epoch_marks)
    concurrent = ssco_audit(counter_app, execution.trace,
                            execution.reports, execution.initial_state,
                            migrate=True, epoch_cuts=execution.epoch_marks,
                            epoch_workers=3)
    assert serial.accepted and concurrent.accepted
    assert state_to_json(concurrent.next_initial) == \
        state_to_json(serial.next_initial)


def test_state_precompute_matches_chained_migration(counter_app):
    """The tentpole invariant: the redo-only prepass materializes
    exactly the initial states the chained full audits migrate."""
    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    contexts = precompute_epoch_states(counter_app, shards,
                                       execution.initial_state)
    assert contexts is not None and len(contexts) == len(shards)
    state = execution.initial_state
    for index, (shard, actx) in enumerate(zip(shards, contexts)):
        assert state_to_json(actx.initial_state) == state_to_json(state)
        full = ssco_audit(counter_app, shard.trace, shard.reports, state,
                          migrate=True)
        assert full.accepted
        if index < len(shards) - 1:
            assert state_to_json(actx.result.next_initial) == \
                state_to_json(full.next_initial)
        state = full.next_initial


def test_prepass_reject_falls_back_to_serial_chain(counter_app):
    """When the redo-only prepass itself rejects (here: a truncated op
    log caught by ProcessOpReports), the concurrent driver defers to
    the serial chain and the verdict is still identical."""
    execution = _epoch_execution(counter_app)
    tampered = execution.reports.deep_copy()
    obj = next(o for o, log in tampered.op_logs.items() if len(log) > 2)
    tampered.op_logs[obj] = tampered.op_logs[obj][:-1]
    shards = partition_audit_inputs(execution.trace, tampered,
                                    cuts=execution.epoch_marks)
    assert precompute_epoch_states(
        counter_app, shards, execution.initial_state) is None
    serial = ssco_audit(counter_app, execution.trace, tampered,
                        execution.initial_state,
                        epoch_cuts=execution.epoch_marks)
    concurrent = ssco_audit(counter_app, execution.trace, tampered,
                            execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=4)
    assert not serial.accepted
    _assert_equivalent(serial, concurrent)


def test_epoch_workers_unsharded_is_single_pass(counter_app, honest_run):
    """Without cuts there is no chain to unroll; epoch_workers is inert
    and the ordinary single-pass audit runs."""
    plain = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state)
    inert = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state, epoch_workers=8)
    assert plain.accepted and inert.accepted
    assert inert.produced == plain.produced
    assert inert.stats["groups"] == plain.stats["groups"]


def test_offload_reexec_is_invisible(counter_app, honest_run):
    """offload_reexec routes chunks through a one-worker pool without
    changing the chunk plan: bodies and deterministic stats match the
    in-process serial driver exactly."""
    serial = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    offloaded = run_audit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, AuditOptions(offload_reexec=True),
    )
    assert serial.accepted and offloaded.accepted
    assert offloaded.produced == serial.produced
    for key in ("groups", "grouped_requests", "fallback_requests",
                "steps", "multi_steps", "dedup_hits", "dedup_misses",
                "db_queries_issued", "group_alphas"):
        assert offloaded.stats.get(key) == serial.stats.get(key), key


# -- sessions: epoch_workers mode ---------------------------------------------


@pytest.mark.parametrize("epoch_processes", [True, False])
def test_session_epoch_workers_matches_serial(counter_app,
                                              epoch_processes):
    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    concurrent = Auditor(counter_app, AuditConfig(
        epoch_workers=3, epoch_processes=epoch_processes,
    )).audit_epochs(shards, execution.initial_state)
    assert serial.accepted
    _assert_equivalent(serial, concurrent)


@pytest.mark.parametrize("pipelined", [False, True])
def test_session_epoch_workers_reject_and_skip(counter_app, pipelined):
    """Per-epoch results after a rejection are normalized to the serial
    session's *skipped* results, even though the concurrent session may
    have speculatively audited (or still be auditing) those epochs."""
    execution = _epoch_execution(counter_app)
    cut = execution.epoch_marks[0]
    victim = next(e.rid for e in execution.trace.events[cut:]
                  if e.is_response and e.payload.body)
    tampered = tamper_response(execution.trace, victim, "forged!")
    shards = partition_audit_inputs(tampered, execution.reports,
                                    cuts=execution.epoch_marks)
    assert len(shards) >= 3

    serial_auditor = Auditor(counter_app, AuditConfig())
    with serial_auditor.session(execution.initial_state) as session:
        serial_epochs = [session.feed_epoch(s.trace, s.reports)
                         for s in shards]
    serial_merged = session.close()

    auditor = Auditor(counter_app, AuditConfig(epoch_workers=3))
    with auditor.session(execution.initial_state,
                         pipelined=pipelined) as session:
        pending = [session.submit_epoch(s.trace, s.reports)
                   for s in shards]
        epochs = [p.result() for p in pending]
    merged = session.close()

    _assert_equivalent(serial_merged, merged)
    assert session.rejected
    for mine, ref in zip(epochs, serial_epochs):
        assert mine.accepted == ref.accepted
        assert mine.skipped == ref.skipped
        assert mine.reason == ref.reason
        assert mine.detail == ref.detail
    assert session.epochs == epochs


def test_session_epoch_workers_chains_certified_state(counter_app):
    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    serial = Auditor(counter_app, AuditConfig(migrate=True)) \
        .audit_epochs(shards, execution.initial_state)
    concurrent = Auditor(
        counter_app, AuditConfig(migrate=True, epoch_workers=2)
    ).audit_epochs(shards, execution.initial_state)
    assert concurrent.accepted
    assert state_to_json(concurrent.next_initial) == \
        state_to_json(serial.next_initial)


def test_session_epoch_workers_with_reexec_workers(counter_app):
    """epoch_workers combines with per-epoch process-pool re-execution:
    several epoch threads drive _reexec_parallel concurrently."""
    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    concurrent = Auditor(
        counter_app, AuditConfig(epoch_workers=2, workers=2)
    ).audit_epochs(shards, execution.initial_state)
    assert concurrent.accepted
    assert concurrent.produced == serial.produced


def test_epoch_workers_windowed_backpressure(counter_app):
    """More epochs than the 2*epoch_workers submission window: the
    windowed drivers (one-shot and audit_epochs) still merge in order
    and stay bit-identical to the serial chain."""
    execution = _epoch_execution(counter_app, n=120, epoch_size=8)
    assert len(execution.epoch_marks) + 1 > 2 * 2  # window is 4
    serial = ssco_audit(counter_app, execution.trace, execution.reports,
                        execution.initial_state,
                        epoch_cuts=execution.epoch_marks)
    concurrent = ssco_audit(counter_app, execution.trace,
                            execution.reports, execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=2)
    _assert_equivalent(serial, concurrent)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    session_serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    session_concurrent = Auditor(counter_app, AuditConfig(epoch_workers=2)) \
        .audit_epochs(shards, execution.initial_state)
    _assert_equivalent(session_serial, session_concurrent)


def test_feed_epoch_async_on_epoch_workers_session(counter_app):
    """An epoch_workers session is natively asynchronous: async feeding
    works without the pipelined flag, and handles resolve in order."""
    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    auditor = Auditor(counter_app, AuditConfig(epoch_workers=2))
    with auditor.session(execution.initial_state) as session:
        pending = [session.feed_epoch_async(s.trace, s.reports)
                   for s in shards]
        results = [p.result() for p in pending]
        assert all(p.done() for p in pending)
    assert [r.index for r in results] == list(range(len(shards)))
    assert all(r.accepted for r in results)
    assert session.epochs == results


class _KaboomBackend(PlainInterpBackend):
    """Crashes (a bug, not a verdict) on every chunk."""

    name = "kaboom"

    def run_chunk(self, *args, **kwargs):
        raise RuntimeError("kaboom")


@pytest.mark.parametrize("driver", ["process", "thread"])
def test_crashed_epoch_audit_never_reports_accepted(counter_app,
                                                    monkeypatch, driver):
    """A non-AuditReject crash inside a concurrent epoch audit is
    latched: close() raises it, and *every* later close()/result()/
    property access re-raises instead of falling through to ACCEPTED
    over unaudited epochs — whichever epoch driver ran the audit.

    The process driver's crash happens in the session's audit process
    (a backend that raises, inherited under fork) and is shipped back;
    under spawn the unregistered backend keeps the process from
    starting, and the in-process serial chain crashes the same way."""
    import repro.core.auditor as auditor_mod

    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)

    def _boom(*args, **kwargs):
        raise RuntimeError("kaboom")

    backend = "interp"
    if driver == "process":
        register_reexec_backend("kaboom", _KaboomBackend)
        monkeypatch.setitem(_BACKENDS, "kaboom", _KaboomBackend)
        backend = "kaboom"
    else:
        monkeypatch.setattr(auditor_mod, "finish_precomputed_audit",
                            _boom)
    auditor = Auditor(counter_app, AuditConfig(
        epoch_workers=2, epoch_processes=(driver == "process"),
        backend=backend))
    session = auditor.session(execution.initial_state)
    for shard in shards:
        session.submit_epoch(shard.trace, shard.reports)
    with pytest.raises(RuntimeError, match="kaboom"):
        session.close()
    with pytest.raises(RuntimeError, match="kaboom"):
        session.close()
    with pytest.raises(RuntimeError, match="kaboom"):
        session.result()
    with pytest.raises(RuntimeError, match="kaboom"):
        _ = session.rejected


def test_custom_pipeline_keeps_serial_session(counter_app):
    """A custom pipeline opts the session out of concurrent mode (the
    prepass only stands in for the stock phases)."""
    from repro.core.pipeline import default_pipeline

    execution = _epoch_execution(counter_app)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    auditor = Auditor(counter_app, AuditConfig(epoch_workers=4),
                      pipeline=default_pipeline())
    session = auditor.session(execution.initial_state)
    assert session._epoch_pool is None
    merged = auditor.audit_epochs(shards, execution.initial_state)
    session.close()
    assert merged.accepted


# -- two sessions auditing simultaneously in one process ----------------------


def test_two_pipelined_sessions_audit_concurrently(counter_app):
    """Two pipelined sessions with workers > 1 in one process: their
    per-epoch process pools are created and initialized concurrently on
    different threads, which must not cross wires (each pool's state is
    bound explicitly; creation is serialized by the module lock)."""
    runs = [_epoch_execution(counter_app, seed=7),
            _epoch_execution(counter_app, seed=23)]
    references = [
        ssco_audit(counter_app, ex.trace, ex.reports, ex.initial_state,
                   epoch_cuts=ex.epoch_marks)
        for ex in runs
    ]
    assert all(r.accepted for r in references)

    results = [None, None]
    errors = []

    def _drive(slot, execution):
        try:
            shards = partition_audit_inputs(
                execution.trace, execution.reports,
                cuts=execution.epoch_marks)
            auditor = Auditor(counter_app, AuditConfig(workers=2))
            results[slot] = auditor.audit_epochs(
                shards, execution.initial_state, pipelined=True)
        except BaseException as exc:  # surfaced in the main thread
            errors.append((slot, exc))

    threads = [threading.Thread(target=_drive, args=(slot, ex))
               for slot, ex in enumerate(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    for merged, reference in zip(results, references):
        assert merged.accepted, (merged.reason, merged.detail)
        assert merged.produced == reference.produced


# -- killed workers: BrokenProcessPool fallback -------------------------------


class _KamikazeBackend(PlainInterpBackend):
    """Dies instantly inside pool workers; behaves like ``interp`` in
    the parent process (the serial-fallback path)."""

    name = "kamikaze"

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(1)
        super().run_chunk(app, rids, requests, reports, ctx, strict,
                          dedup, produced, stats)


def test_killed_worker_falls_back_to_serial(counter_app, honest_run):
    """A worker killed mid-chunk (BrokenProcessPool) must not escape
    ssco_audit: the lost chunks re-run serially in the parent and the
    audit completes with the same bodies the reference backend makes.
    (Under a forced spawn start method the backend is unregistered in
    the fresh workers, which breaks the pool during initialization —
    the same fallback covers that, too.)"""
    register_reexec_backend("kamikaze", _KamikazeBackend)
    try:
        audit = ssco_audit(counter_app, honest_run.trace,
                           honest_run.reports, honest_run.initial_state,
                           workers=2, backend="kamikaze")
        reference = ssco_audit(counter_app, honest_run.trace,
                               honest_run.reports,
                               honest_run.initial_state, backend="interp")
        assert audit.accepted, (audit.reason, audit.detail)
        assert reference.accepted
        assert audit.produced == reference.produced
        assert audit.stats["fallback_requests"] == \
            reference.stats["fallback_requests"]
    finally:
        _BACKENDS.pop("kamikaze", None)


def test_killed_worker_fallback_still_rejects_tampering(counter_app,
                                                        honest_run):
    """The serial fallback is a full audit path: verdicts on tampered
    bundles are preserved, not silently accepted."""
    victim = next(e.rid for e in honest_run.trace.events
                  if e.is_response and e.payload.body)
    tampered = tamper_response(honest_run.trace, victim, "forged!")
    register_reexec_backend("kamikaze", _KamikazeBackend)
    try:
        audit = ssco_audit(counter_app, tampered, honest_run.reports,
                           honest_run.initial_state, workers=2,
                           backend="kamikaze")
        assert not audit.accepted
        assert audit.reason is RejectReason.OUTPUT_MISMATCH
    finally:
        _BACKENDS.pop("kamikaze", None)


# -- config / validation ------------------------------------------------------


def test_epoch_workers_validation():
    with pytest.raises(ValueError, match="epoch_workers"):
        AuditConfig(epoch_workers=0)
    with pytest.raises(ValueError, match="epoch_workers"):
        AuditConfig(epoch_workers=-2)
    config = AuditConfig(epoch_workers=4)
    assert config.to_options().epoch_workers == 4
    assert "epoch_workers=4" in config.describe()
    assert "epoch_workers" not in AuditConfig().describe()
    round_trip = AuditConfig.from_json(config.to_json())
    assert round_trip.epoch_workers == 4
