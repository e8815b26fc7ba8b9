"""Process-level epoch execution for offline audits: one pool per run.

``sharded_audit`` with ``epoch_workers > 1`` (and the default
``epoch_processes``) audits a complete bundle's epochs concurrently.  A
redo-only prepass in the calling thread migrates each epoch's initial
state; the epoch itself is then the unit of process-level work:

* an **epoch work unit** is the pickled tuple ``(app, trace slice,
  reports slice, initial state, options)`` — exactly the prepass
  artifacts the redo-only state precompute materializes per epoch
  (``docs/epoch_workers.md`` documents the payload format);
* :class:`EpochPool` owns **one persistent**
  :class:`~concurrent.futures.ProcessPoolExecutor` shared by *all*
  epochs of one audit run.  Workers are stateless: each work unit
  carries everything the epoch's full pipeline pass needs, so the pool
  outlives any individual epoch and is created exactly once per run;
* the worker runs the stock pipeline over the slice with the *same
  chunk plan* the serial chain would use (``inline_reexec`` executes
  the plan serially in-process — epoch-level parallelism already owns
  the cores, so no nested re-exec pools are created) and ships back a
  plain :class:`~repro.core.pipeline.AuditResult`.  Verdicts, produced
  bodies, and deterministic stats are therefore bit-identical to the
  serial chain's per-epoch passes.

Live sessions do not use this pool: a streaming
:class:`~repro.core.auditor.AuditSession` keeps the program and the
chain state resident in one audit process instead of shipping them
with every epoch (:mod:`repro.core.epochchild`).  The fleet
(:mod:`repro.fleet`) implements the same ``run_epoch`` contract over
the network.

Failure policy: infrastructure failures are never verdicts.  A worker
killed mid-epoch (``BrokenProcessPool``) breaks the shared executor, so
:meth:`EpochPool.run_epoch` *recreates* the pool — generation-guarded,
exactly once per breakage, so concurrently failing epochs do not
thrash — and re-runs its own epoch serially in the calling thread.
Other epochs in flight on the broken pool observe the same
``BrokenProcessPool`` from their futures and take the same fallback:
no epoch's work is ever lost, and later epochs submit to the fresh
pool.  Unpicklable payloads and workers that cannot rebuild the
backend (e.g. one registered only in the parent, under a spawn start
method) degrade to the same serial re-run.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.epochwork import (
    encode_work_unit,
    epoch_worker_options,
    run_epoch_inline,
    run_work_unit,
)
from repro.core.reexec import _POOL_LOCK

__all__ = ["EpochPool", "epoch_worker_options", "pools_created_total"]

#: Pools ever created in this process — test instrumentation: the
#: lifecycle tests assert one audit run creates exactly one pool (plus
#: one per recreation after a worker loss).
_POOLS_CREATED = 0


def pools_created_total() -> int:
    """Process-wide pool creation count (monotonic; for tests)."""
    return _POOLS_CREATED


# The work-unit encoding and the inline executor live in
# repro.core.epochwork so the process pool, the serial fallback, and
# the distributed fleet all run byte-identical payloads through one
# entry point.


def _run_epoch_payload(payload: bytes):
    """Worker-process entry point: unpickle one epoch work unit and
    audit it.  Raises only on genuine crashes (a rejection is a result,
    never an exception — the pipeline converts :class:`AuditReject`).

    Kept as a module-level function (not just an alias) so the name
    submitted to the :class:`ProcessPoolExecutor` pickles by reference
    from this module, matching what historical worker processes import.
    """
    return run_work_unit(payload)


class EpochPool:
    """One persistent process pool shared by all epochs of a run.

    Thread-safe: the offline driver calls :meth:`run_epoch` from
    several epoch threads at once.  The underlying executor is created
    lazily on first use (under the re-exec module's pool lock, so epoch
    workers are never forked mid-way through another driver's chunk
    handoff) and replaced at most once per breakage.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max(1, max_workers)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._closed = False
        self._disabled = False
        #: Executors this instance created (tests assert 1 per run).
        self.pools_created = 0
        #: Epochs that fell back to a serial in-process re-run.
        self.serial_fallbacks = 0

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self):
        """The live executor and its generation, creating it if needed.
        Returns ``(None, generation)`` when process pools are unusable
        on this platform (the caller runs the epoch inline)."""
        global _POOLS_CREATED
        with self._lock:
            if self._closed:
                raise RuntimeError("epoch pool is closed")
            if self._pool is None and not self._disabled:
                try:
                    with _POOL_LOCK:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.max_workers)
                        # Bumped under the *global* lock: two pools
                        # creating executors concurrently must not
                        # lose an increment.
                        self.pools_created += 1
                        _POOLS_CREATED += 1
                except (OSError, ValueError):
                    # No process support at all: every epoch of this
                    # run degrades to the in-thread serial path.
                    self._disabled = True
            return self._pool, self._generation

    def _retire(self, generation: int) -> None:
        """Drop a broken executor so the next epoch gets a fresh one.

        Generation-guarded: when several in-flight epochs observe the
        same ``BrokenProcessPool``, only the first retires it; the rest
        see the bumped generation and leave the replacement alone.
        """
        with self._lock:
            if self._generation != generation or self._pool is None:
                return
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._generation += 1

    def close(self) -> None:
        """Shut the executor down.  Idempotent; callers must have
        drained their in-flight epochs first."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- the epoch work unit ----------------------------------------------

    def run_epoch(self, app, trace, reports, initial_state, options):
        """Audit one epoch slice on the shared pool; blocks for the
        result.  Returns the epoch's :class:`AuditResult`; never raises
        on infrastructure failure (worker loss, unpicklable payload) —
        those re-run the epoch serially in the calling thread.
        """
        try:
            payload = encode_work_unit(app, trace, reports, initial_state,
                                       options)
        except (pickle.PickleError, TypeError, AttributeError):
            return self._run_inline(app, trace, reports, initial_state,
                                    options)
        pool, generation = self._ensure_pool()
        if pool is None:
            return self._run_inline(app, trace, reports, initial_state,
                                    options)
        try:
            with _POOL_LOCK:
                # Workers are forked/spawned lazily at submit time;
                # serialize that moment against the chunk-level pools'
                # state handoffs (see repro.core.reexec).
                future = pool.submit(_run_epoch_payload, payload)
            return future.result()
        except BrokenProcessPool:
            # A worker died mid-epoch.  Recreate the shared pool for
            # everyone else, then finish *this* epoch serially —
            # infrastructure failures never become verdicts, and other
            # epochs' futures fail over through this same path.
            self._retire(generation)
            return self._run_inline(app, trace, reports, initial_state,
                                    options)
        except Exception:
            # The worker could not run the payload at all (e.g. a
            # backend registered only in the parent, under spawn).  The
            # serial re-run reproduces any genuine deterministic crash,
            # so real bugs still surface — from the fallback.
            return self._run_inline(app, trace, reports, initial_state,
                                    options)

    def _run_inline(self, app, trace, reports, initial_state, options):
        self.serial_fallbacks += 1
        return run_epoch_inline(app, trace, reports, initial_state,
                                options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EpochPool workers={self.max_workers} "
                f"created={self.pools_created} "
                f"fallbacks={self.serial_fallbacks}>")
