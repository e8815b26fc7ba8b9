"""Shared persistent epoch-pool lifecycle (offline process-level epochs).

Covers the ``sharded_audit`` driver invariants:

* one ``sharded_audit`` run creates exactly **one** persistent process
  pool, reused by every epoch of the run;
* a worker killed mid-epoch (``BrokenProcessPool``) recreates the
  shared pool for the remaining epochs while the lost epoch re-runs
  serially — verdicts still match the serial chain;
* ``prepass_depth`` bounds how far the speculative prepass runs ahead
  of the auditor in a follow-style (async-fed) thread-driver session.

Live sessions with ``epoch_workers > 1`` use no pool: see
``test_epochchild.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time


from repro.core import AuditConfig, Auditor, ssco_audit
from repro.core import epochpool
from repro.core.epochpool import EpochPool
from repro.core.partition import partition_audit_inputs
from repro.core.reexec import (
    _BACKENDS,
    PlainInterpBackend,
    fork_inherits_context,
    register_reexec_backend,
)
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests


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


# -- exactly one persistent pool per run --------------------------------------


def test_sharded_audit_creates_one_pool_for_all_epochs(counter_app):
    execution = _epoch_execution(counter_app)
    serial = ssco_audit(counter_app, execution.trace, execution.reports,
                        execution.initial_state,
                        epoch_cuts=execution.epoch_marks)
    before = epochpool.pools_created_total()
    concurrent = ssco_audit(counter_app, execution.trace,
                            execution.reports, execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=3)
    assert concurrent.accepted
    assert concurrent.produced == serial.produced
    assert concurrent.stats["shard_count"] >= 3
    assert epochpool.pools_created_total() - before == 1


# -- worker loss: recreate the shared pool, finish serially -------------------


class _KamikazePoolBackend(PlainInterpBackend):
    """Dies instantly inside pool worker processes; behaves like
    ``interp`` in the parent (the serial-fallback path)."""

    name = "kamikaze-pool"

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(1)
        super().run_chunk(app, rids, requests, reports, ctx, strict,
                          dedup, produced, stats)


def test_killed_epoch_worker_recreates_pool_and_matches_serial(
        counter_app, monkeypatch):
    """Every epoch's worker dies mid-audit: each falls back to a serial
    in-thread re-run, the shared pool is recreated for the epochs still
    to come, and the merged verdict/bodies match the serial chain's
    reference backend exactly."""
    execution = _epoch_execution(counter_app)
    pools = []
    create = EpochPool.__init__

    def tracked(self, *args, **kwargs):
        create(self, *args, **kwargs)
        pools.append(self)

    monkeypatch.setattr(EpochPool, "__init__", tracked)
    register_reexec_backend("kamikaze-pool", _KamikazePoolBackend)
    try:
        reference = ssco_audit(counter_app, execution.trace,
                               execution.reports,
                               execution.initial_state,
                               epoch_cuts=execution.epoch_marks,
                               backend="interp")
        merged = ssco_audit(counter_app, execution.trace,
                            execution.reports, execution.initial_state,
                            epoch_cuts=execution.epoch_marks,
                            epoch_workers=2, backend="kamikaze-pool")
        (pool,) = pools
        assert merged.accepted, (merged.reason, merged.detail)
        assert merged.produced == reference.produced
        assert merged.stats["fallback_requests"] == \
            reference.stats["fallback_requests"]
        # Infrastructure failure handled: the epochs re-ran serially.
        assert pool.serial_fallbacks >= 1
        if fork_inherits_context():
            # Fork platforms see the kamikaze exit as BrokenProcessPool,
            # so the shared pool was retired and recreated at least once
            # (under forced spawn the backend is simply unregistered in
            # the fresh workers — same fallback, healthy pool).
            assert pool.pools_created >= 2
    finally:
        _BACKENDS.pop("kamikaze-pool", None)


# -- prepass backpressure ------------------------------------------------------


def test_prepass_depth_bounds_inflight_primed_epochs(counter_app,
                                                     monkeypatch):
    """A follow-style thread-driver session feeding faster than its
    epochs audit: the speculative prepass stalls once
    ``prepass_depth`` primed epochs are in flight, instead of priming
    the whole stream ahead of the auditor."""
    import repro.core.auditor as auditor_mod

    execution = _epoch_execution(counter_app, n=80, epoch_size=8)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    assert len(shards) >= 5
    depth = 2
    gate = threading.Event()
    original = auditor_mod.finish_precomputed_audit

    def gated(*args, **kwargs):
        assert gate.wait(60), "gate never released"
        return original(*args, **kwargs)

    monkeypatch.setattr(auditor_mod, "finish_precomputed_audit", gated)
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)

    auditor = Auditor(counter_app, AuditConfig(
        epoch_workers=2, epoch_processes=False, prepass_depth=depth))
    session = auditor.session(execution.initial_state)
    assert session._prepass_depth == depth

    def _feed():
        for shard in shards:
            session.submit_epoch(shard.trace, shard.reports)

    feeder = threading.Thread(target=_feed)
    feeder.start()
    try:
        # The feeder primes `depth` epochs, then blocks in submit_epoch
        # (its next feed is counted in _fed before the backpressure
        # wait) — no matter how many epochs the stream still holds.
        deadline = time.monotonic() + 30
        while session._fed <= depth and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give a buggy prepass time to run ahead
        assert len(session._entries) == depth
        assert session._fed == depth + 1  # the stalled feed, no more
    finally:
        gate.set()
        feeder.join(timeout=60)
    assert not feeder.is_alive()
    merged = session.close()
    assert merged.accepted, (merged.reason, merged.detail)
    assert merged.produced == serial.produced
