"""The live session's resident audit process and its pipe protocol.

A streaming :class:`~repro.core.auditor.AuditSession` with local
``epoch_workers > 1`` splits *ingest* from *audit*.  The calling process
receives and decodes the stream, pickles each epoch's ``(trace,
reports)`` slice into a pipe, and settles verdicts; one persistent child
process runs the stock **serial** session chain (with §4.5 migration)
over the slices in feed order.  The child gets the program and the
initial state once, at start (inherited under ``fork``, pickled once
under ``spawn``); after that only slices go in and per-epoch
:class:`~repro.core.auditor.EpochResult` objects come back.  The chain
state stays resident in the child, so nothing is re-shipped or re-done
per epoch — unlike the offline/fleet epoch work unit
(:mod:`repro.core.epochwork`), which must carry the program and the
epoch's initial state every time.

Because the child *is* the serial session, per-epoch verdicts, details,
produced bodies, stats and the merged ``close()`` result are those of
the serial session by construction.

Protocol: every message is one pickled tuple, framed by
:meth:`multiprocessing.connection.Connection.send_bytes`.

=====================  ==================================================
parent → child         meaning
=====================  ==================================================
``("epoch", t, r)``    audit the next epoch slice of the chain
``("state",)``         reply with the state the next epoch starts from
``("close",)``         close the session, reply with its result, exit
=====================  ==================================================

=========================  ==============================================
child → parent             meaning (replies come in request order)
=========================  ==============================================
``("ready", None)``        sent once, first: the session is built
``("unavailable", why)``   the child cannot audit here; it exits
``("epoch", result)``      one :class:`EpochResult` per slice
``("state", state)``       the chain state
``("closed", (m, s))``     merged :class:`AuditResult` + final state
``("crash", exc)``         an audit raised (not a verdict); it exits
=========================  ==============================================

The parent reads replies on a thread of its own.  It has to: a slice
can exceed the pipe buffer, and so can a result, so a parent that wrote
the next slice while the child sat blocked writing the previous result
would deadlock both sides.

Failure contract (``docs/epoch_workers.md``): a child that cannot start
is reported by :meth:`EpochChild.wait_ready` returning False, and the
session runs the serial chain in-process instead.  A child that dies
after that makes every unsettled epoch raise
:class:`~repro.common.errors.AuditInfrastructureError` naming the first
one — never a verdict.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import pickle
import signal
import threading
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeout

from repro.common.errors import AuditInfrastructureError

__all__ = ["EpochChild"]


def _dumps(message) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError
    carrying its type and message."""
    try:
        pickle.loads(_dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_main(app, config, initial_state, inbox, outbox) -> None:
    """The resident audit process: one serial session, fed slice by
    slice until the parent closes it (or goes away)."""
    # Interrupts are the parent's to handle; the child ends when its
    # inbox closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.core import reexec
    from repro.core.auditor import Auditor

    # Forked under the parent's pool lock: this process is single
    # threaded, so a fresh lock is the correct state for its own
    # re-execution pools.
    reexec._POOL_LOCK = threading.Lock()

    def reply(kind: str, body=None) -> None:
        outbox.send_bytes(_dumps((kind, body)))

    try:
        reexec.get_reexec_backend(config.backend)
        session = Auditor(app, config).session(initial_state)
    except Exception as exc:
        reply("unavailable", f"{type(exc).__name__}: {exc}")
        return
    reply("ready")
    while True:
        try:
            message = pickle.loads(inbox.recv_bytes())
        except EOFError:
            return  # the parent went away without closing
        try:
            if message[0] == "epoch":
                reply("epoch", session.feed_epoch(*message[1:]))
            elif message[0] == "state":
                reply("state", session.current_state)
            else:
                result = session.close()
                reply("closed", (result, session.current_state))
                return
        except Exception as exc:
            reply("crash", _portable(exc))
            return


class EpochChild:
    """Parent side of one resident audit process.

    Single feeder: :meth:`send_epoch`, :meth:`state` and :meth:`finish`
    are called from the session's feeding thread; :meth:`result` and
    :meth:`done` may be called from any thread.  Raises whatever
    :class:`multiprocessing.Process.start` raises when the process
    cannot be created at all.
    """

    def __init__(self, app, config, initial_state):
        from repro.core.reexec import _POOL_LOCK

        context = multiprocessing.get_context()
        inbox_r, self._inbox = context.Pipe(duplex=False)
        self._outbox, outbox_w = context.Pipe(duplex=False)
        child_config = config.replace(epoch_workers=1, prepass_depth=0,
                                      fleet_listen=None)
        # Not a daemon: with ``workers > 1`` the child forks its own
        # re-execution pool.  The finalizer stands in for the daemon
        # flag: an abandoned child is terminated at exit or collection.
        self.process = context.Process(
            target=_child_main, name="audit-epochs",
            args=(app, child_config, initial_state, inbox_r, outbox_w))
        # Serialized against the re-execution pools' forks, and the
        # child's pipe ends are closed here before anything else can
        # fork: a process that inherited them would hide the child's
        # exit from the reader.
        with _POOL_LOCK:
            try:
                self.process.start()
            except BaseException:
                self._inbox.close()
                self._outbox.close()
                raise
            finally:
                inbox_r.close()
                outbox_w.close()
        multiprocessing.util.Finalize(self, self.process.terminate,
                                      exitpriority=0)
        self._cond = threading.Condition()
        self._results: list = []
        self._replies: deque = deque()
        self._ready: bool | None = None
        #: Why the child could not start (set when wait_ready is False).
        self.unavailable: str | None = None
        self._eof = False
        self._error: BaseException | None = None
        self._sent = 0
        self._finished = False
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="audit-epochs-reader")
        self._reader.start()

    # -- the reader thread -------------------------------------------------

    def _read(self) -> None:
        while True:
            try:
                kind, body = pickle.loads(self._outbox.recv_bytes())
            except (EOFError, OSError):
                kind, body = "eof", None
            except Exception as exc:
                kind, body = "crash", RuntimeError(
                    f"undecodable reply from the audit process: {exc}")
            with self._cond:
                if kind == "epoch":
                    self._results.append(body)
                elif kind in ("ready", "unavailable"):
                    self._ready = kind == "ready"
                    self.unavailable = body
                elif kind == "crash":
                    self._error = self._error or body
                elif kind == "eof":
                    self._eof = True
                else:
                    self._replies.append(body)
                self._cond.notify_all()
            if kind in ("eof", "crash"):
                return

    def _failed(self) -> bool:
        return self._error is not None or self._eof

    def _raise(self, what: str | None = None):
        """Raise the child's crash, or (latched) an infrastructure
        error saying the process was lost before ``what`` (by default,
        before settling the first unsettled epoch)."""
        if self._error is None:
            what = what or f"settling epoch {len(self._results)}"
            self.process.join(5.0)
            code = self.process.exitcode
            if code is not None and code < 0:
                how = f"was killed by {signal.Signals(-code).name}"
            else:
                how = f"exited with status {code}"
            self._error = AuditInfrastructureError(
                f"the audit process (pid {self.process.pid}) {how} "
                f"before {what}")
        raise self._error

    # -- feeding -----------------------------------------------------------

    def wait_ready(self) -> bool:
        """Block until the child has built its session.  False when it
        cannot audit here (the caller audits in-process instead)."""
        with self._cond:
            self._cond.wait_for(lambda: self._ready is not None
                                or self._failed())
            if self._ready:
                return True
        if self.unavailable is None:
            self.process.join(5.0)
            self.unavailable = (f"exited with status "
                                f"{self.process.exitcode} at start")
        return False

    @property
    def in_flight(self) -> int:
        """Epochs sent and not yet settled."""
        with self._cond:
            return self._sent - len(self._results)

    def wait_in_flight(self, limit: int) -> None:
        """Block until fewer than ``limit`` epochs are in flight."""
        while (in_flight := self.in_flight) >= limit:
            self.result(self._sent - in_flight)

    def _send(self, message, what: str | None = None) -> None:
        try:
            self._inbox.send_bytes(_dumps(message))
        except OSError:
            with self._cond:
                # The pipe broke: the reader sees EOF momentarily.
                self._cond.wait_for(self._failed, 5.0)
            self._raise(what)

    def send_epoch(self, trace, reports) -> None:
        """Ship the next slice of the chain."""
        if self._failed():
            self._raise()
        self._send(("epoch", trace, reports))
        with self._cond:
            self._sent += 1

    # -- settling ----------------------------------------------------------

    def done(self, index: int) -> bool:
        """True when :meth:`result` for ``index`` would not block."""
        with self._cond:
            return index < len(self._results) or self._failed()

    def result(self, index: int, timeout: float | None = None):
        """The :class:`EpochResult` of epoch ``index``, waiting for it.
        Raises the child's crash or a lost-process error when the child
        cannot settle it, ``concurrent.futures.TimeoutError`` past
        ``timeout``."""
        with self._cond:
            if not self._cond.wait_for(
                    lambda: index < len(self._results) or self._failed(),
                    timeout):
                raise FuturesTimeout()
            if index < len(self._results):
                return self._results[index]
        self._raise()

    def results(self) -> list:
        with self._cond:
            return list(self._results)

    def _request(self, kind: str, what: str):
        self._send((kind,), what)
        with self._cond:
            self._cond.wait_for(lambda: self._replies or self._failed())
            if self._replies:
                return self._replies.popleft()
        self._raise(what)

    def state(self):
        """The chain state the next epoch would start from."""
        return self._request("state", "returning the chain state")

    def finish(self):
        """Close the child's session: ``(merged result, final state)``."""
        merged = self._request("close", "returning the merged result")
        self._finished = True
        return merged

    def stop(self) -> None:
        """Release the process and the pipes.  Idempotent."""
        self._inbox.close()
        if not self._finished:
            # Abandoned or broken: whatever it still holds is unwanted.
            self.process.terminate()
        self.process.join()
        self._reader.join()
        self._outbox.close()
