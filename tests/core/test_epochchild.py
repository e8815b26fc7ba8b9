"""The live ingest/audit split: local ``epoch_workers > 1`` sessions.

Such a session keeps one resident audit process that runs the stock
serial session chain; the calling process only ships slices and settles
verdicts.  Covered here:

* equivalence with the serial session on the cart fixture and a small
  wiki synth bundle, honest and with one response body flipped in a
  middle epoch: per-epoch verdict, reason, detail, produced bodies and
  deterministic stats, and the merged ``close()`` result;
* slices and results far larger than a pipe buffer (HotCRP 500-request
  epochs), which deadlock unless results are read on their own thread;
* the failure contract: a process that cannot start leaves the session
  on the in-process serial chain; one killed mid-stream raises
  :class:`AuditInfrastructureError` naming the first unsettled epoch,
  and ``audit --connect`` exits 2 without printing ACCEPTED;
* one resident process per session, and ``prepass_depth`` bounding the
  epochs in flight to it.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import signal
import threading
import time

import pytest

from repro.common.errors import AuditInfrastructureError
from repro.core import AuditConfig, Auditor, epochchild
from repro.core.auditor import AuditSession
from repro.core.partition import partition_audit_inputs
from repro.io import BundleReader
from repro.scenarios import ScenarioSpec, synthesize
from repro.scenarios.generator import build_scenario_app
from repro.server import Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests

CART_FIXTURE = str(pathlib.Path(__file__).resolve().parent.parent
                   / "data" / "cart_fixture.jsonl")

#: Generous bound on any one wait; a hang fails instead of blocking CI.
DEADLINE_S = 120.0


def _read_bundle(path):
    with BundleReader(path) as reader:
        initial = reader.read_initial_state()
        slices = [(s.trace, s.reports) for s in reader.epochs()]
    return initial, slices


@pytest.fixture(scope="module")
def cart_bundle():
    return build_scenario_app("cart", 0.05), *_read_bundle(CART_FIXTURE)


@pytest.fixture(scope="module")
def wiki_bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wiki") / "wiki.jsonl")
    synthesize(ScenarioSpec(workload="wiki", requests=300, scale=0.05,
                            seed=4, users=10_000, max_sessions=12,
                            epoch_size=60), path)
    return build_scenario_app("wiki", 0.05), *_read_bundle(path)


def _flip_middle(slices):
    """One response body flipped in the middle epoch."""
    middle = len(slices) // 2
    trace, reports = slices[middle]
    victim = next(e.rid for e in trace.events
                  if e.is_response and e.payload.body)
    flipped = list(slices)
    flipped[middle] = (tamper_response(trace, victim, "forged!"), reports)
    return middle, flipped


def _run(app, initial, slices, config):
    """Feed every slice asynchronously, then settle and close."""
    with Auditor(app, config).session(initial) as session:
        pending = [session.submit_epoch(t, r) for t, r in slices]
        if config.epoch_workers > 1:
            # The split really ran: no in-process fallback.
            assert session._child is not None, session.child_unavailable
        epochs = [p.result(DEADLINE_S) for p in pending]
    return epochs, session.close()


def _comparable_epoch(epoch):
    return (epoch.index, epoch.accepted, epoch.reason, epoch.detail,
            epoch.requests, epoch.events, epoch.skipped, epoch.produced,
            epoch.stats, sorted(epoch.phases))


def _comparable_merged(merged):
    stats = dict(merged.stats)
    # Per-epoch summaries carry one timer; everything else is exact.
    stats["shards"] = [{k: v for k, v in shard.items()
                        if k != "reexec_seconds"}
                       for shard in stats["shards"]]
    return (merged.accepted, merged.reason, merged.detail,
            merged.produced, stats, sorted(merged.phases))


def _assert_split_matches_serial(app, initial, slices, **knobs):
    serial = _run(app, initial, slices, AuditConfig(**knobs))
    split = _run(app, initial, slices,
                 AuditConfig(epoch_workers=2, **knobs))
    assert [_comparable_epoch(e) for e in split[0]] == \
        [_comparable_epoch(e) for e in serial[0]]
    assert _comparable_merged(split[1]) == _comparable_merged(serial[1])
    return split


# -- equivalence with the serial session ---------------------------------------


@pytest.mark.parametrize("bundle", ["cart_bundle", "wiki_bundle"])
def test_split_matches_serial_honest(request, bundle):
    app, initial, slices = request.getfixturevalue(bundle)
    assert len(slices) >= 3
    epochs, merged = _assert_split_matches_serial(app, initial, slices,
                                                  migrate=True)
    assert merged.accepted and all(e.accepted for e in epochs)
    assert merged.stats["shard_count"] == len(slices)
    assert merged.next_initial is not None


@pytest.mark.parametrize("bundle", ["cart_bundle", "wiki_bundle"])
def test_split_matches_serial_flipped_body(request, bundle):
    app, initial, slices = request.getfixturevalue(bundle)
    middle, flipped = _flip_middle(slices)
    epochs, merged = _assert_split_matches_serial(app, initial, flipped)
    assert all(e.accepted for e in epochs[:middle])
    assert not epochs[middle].accepted and not epochs[middle].skipped
    assert epochs[middle].reason.value == "output_mismatch"
    for later in epochs[middle + 1:]:
        assert later.skipped and not later.accepted
        assert later.reason is epochs[middle].reason
    assert not merged.accepted
    assert merged.reason is epochs[middle].reason


# -- slices and results larger than a pipe buffer ------------------------------


def test_large_slices_do_not_deadlock(tmp_path):
    """HotCRP 500-request epochs: every slice and every result is many
    times a 64 KB pipe buffer.  The feeder writes slice k+1 while the
    audit process writes result k; only a parent that reads results on
    their own thread gets through."""
    path = str(tmp_path / "hotcrp.jsonl")
    synthesize(ScenarioSpec(workload="hotcrp", requests=1000, scale=0.05,
                            seed=3, users=10_000, max_sessions=16,
                            epoch_size=500), path)
    app = build_scenario_app("hotcrp", 0.05)
    initial, slices = _read_bundle(path)
    assert len(slices) == 2
    for trace, reports in slices:
        assert len(pickle.dumps((trace, reports))) > 4 * 65536

    outcome = {}
    session = Auditor(app, AuditConfig(epoch_workers=2)).session(initial)

    def feed():
        pending = [session.submit_epoch(t, r) for t, r in slices]
        outcome["epochs"] = [p.result() for p in pending]
        outcome["merged"] = session.close()

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    feeder.join(DEADLINE_S)
    if feeder.is_alive():
        session._child.process.kill()
        pytest.fail("the split session deadlocked on large slices")
    assert outcome["merged"].accepted
    for epoch in outcome["epochs"]:
        assert epoch.accepted
        assert len(pickle.dumps(epoch)) > 2 * 65536


# -- failure contract ----------------------------------------------------------


def _epoch_execution(app, n=40, epoch_size=8, seed=7):
    execution = Executor(
        app, scheduler=RandomScheduler(seed), max_concurrency=4,
        nondet=NondetSource(seed=seed), epoch_size=epoch_size,
    ).serve(counter_requests(n))
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    assert len(shards) >= 3
    return execution.initial_state, [(s.trace, s.reports) for s in shards]


def _exit_at_start(*args):
    os._exit(3)


def test_child_that_exits_at_start_falls_back_to_serial(counter_app,
                                                        monkeypatch):
    initial, slices = _epoch_execution(counter_app)
    monkeypatch.setattr(epochchild, "_child_main", _exit_at_start)
    serial = _run(counter_app, initial, slices, AuditConfig())
    session = Auditor(counter_app,
                      AuditConfig(epoch_workers=2)).session(initial)
    pending = [session.submit_epoch(t, r) for t, r in slices]
    assert session._child is None
    assert "status 3" in session.child_unavailable
    epochs = [p.result(DEADLINE_S) for p in pending]
    merged = session.close()
    assert [_comparable_epoch(e) for e in epochs] == \
        [_comparable_epoch(e) for e in serial[0]]
    assert _comparable_merged(merged) == _comparable_merged(serial[1])


def test_follow_says_when_it_audited_in_process(capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setattr(epochchild, "_child_main", _exit_at_start)
    code = main(["audit", CART_FIXTURE, "--workload", "cart",
                 "--scale", "0.05", "--follow", "--epoch-workers", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ACCEPTED in" in captured.out
    assert "audited in-process" in captured.err
    assert "status 3" in captured.err


def test_child_that_cannot_be_created_falls_back_to_serial(counter_app,
                                                           monkeypatch):
    import repro.core.auditor as auditor_mod

    def no_processes(*args):
        raise OSError("no processes here")

    initial, slices = _epoch_execution(counter_app)
    monkeypatch.setattr(auditor_mod, "EpochChild", no_processes)
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(slices,
                                                              initial)
    session = Auditor(counter_app,
                      AuditConfig(epoch_workers=2)).session(initial)
    assert session.child_unavailable == "OSError: no processes here"
    pending = [session.feed_epoch_async(t, r) for t, r in slices]
    assert all(p.result(DEADLINE_S).accepted for p in pending)
    assert _comparable_merged(session.close()) == \
        _comparable_merged(serial)


def test_child_killed_mid_stream_raises_naming_the_epoch(counter_app):
    initial, slices = _epoch_execution(counter_app)
    session = Auditor(counter_app,
                      AuditConfig(epoch_workers=2)).session(initial)
    first = session.submit_epoch(*slices[0]).result(DEADLINE_S)
    assert first.accepted
    process = session._child.process
    os.kill(process.pid, signal.SIGKILL)
    process.join(DEADLINE_S)
    with pytest.raises(AuditInfrastructureError) as raised:
        session.submit_epoch(*slices[1]).result(DEADLINE_S)
    message = str(raised.value)
    assert "SIGKILL" in message and "before settling epoch 1" in message
    # Latched: nothing after the loss can read as a verdict.
    for attempt in (session.close, session.close, lambda: session.rejected):
        with pytest.raises(AuditInfrastructureError, match="epoch 1"):
            attempt()


def _publish_wiki(publisher, epochs_out):
    from repro.bench.harness import run_online_phase
    from repro.workloads import wiki_workload

    execution = run_online_phase(wiki_workload(scale=0.005), seed=1,
                                 epoch_size=20)
    shards = partition_audit_inputs(execution.trace, execution.reports,
                                    cuts=execution.epoch_marks)
    epochs_out.append(len(shards))
    publisher.write_state(execution.initial_state)
    for shard in shards:
        publisher.write_epoch(shard.trace, shard.reports)
    publisher.write_end()


def test_connect_exits_2_when_the_audit_process_dies(capsys, monkeypatch):
    """``audit --connect --epoch-workers 2`` whose audit process is
    killed once epoch 0 has settled: exit 2 with the infrastructure
    error on stderr, and no final ACCEPTED line."""
    from repro.__main__ import main
    from repro.net import BundlePublisher

    submit = AuditSession.submit_epoch

    def kill_before_second(self, trace, reports):
        if self._fed == 1 and self._child is not None:
            self._child.result(0)
            os.kill(self._child.process.pid, signal.SIGKILL)
            self._child.process.join(DEADLINE_S)
        return submit(self, trace, reports)

    monkeypatch.setattr(AuditSession, "submit_epoch", kill_before_second)
    epochs = []
    with BundlePublisher() as publisher:
        thread = threading.Thread(target=_publish_wiki,
                                  args=(publisher, epochs))
        thread.start()
        code = main(["audit", "--connect", publisher.endpoint,
                     "--workload", "wiki", "--scale", "0.005",
                     "--epoch-workers", "2"])
        thread.join(timeout=DEADLINE_S)
    assert epochs and epochs[0] >= 2
    captured = capsys.readouterr()
    assert code == 2
    assert "before settling epoch 1" in captured.err
    assert "SIGKILL" in captured.err
    assert "ACCEPTED in" not in captured.out
    assert "epoch 1:" not in captured.out


# -- lifecycle and backpressure ------------------------------------------------


def test_session_keeps_one_resident_process(counter_app):
    initial, slices = _epoch_execution(counter_app)
    with Auditor(counter_app, AuditConfig(epoch_workers=2)).session(
            initial) as session:
        process = session._child.process
        for trace, reports in slices:
            assert session.feed_epoch(trace, reports).accepted
            # The very same process audits every epoch ...
            assert session._child.process is process
            assert process.is_alive()
    assert session.close().accepted
    # ... and it exits cleanly once the session closes.
    assert process.exitcode == 0


def test_two_concurrent_sessions_get_independent_processes(counter_app):
    runs = [_epoch_execution(counter_app, seed=7),
            _epoch_execution(counter_app, seed=23)]
    references = [Auditor(counter_app, AuditConfig()).audit_epochs(
        slices, initial) for initial, slices in runs]
    results = [None, None]
    pids = [None, None]
    errors = []

    def drive(slot, initial, slices):
        try:
            auditor = Auditor(counter_app, AuditConfig(epoch_workers=2))
            with auditor.session(initial) as session:
                pids[slot] = session._child.process.pid
                for trace, reports in slices:
                    session.submit_epoch(trace, reports)
            results[slot] = session.close()
        except BaseException as exc:  # surfaced in the main thread
            errors.append((slot, exc))

    threads = [threading.Thread(target=drive, args=(slot, *run))
               for slot, run in enumerate(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(DEADLINE_S)
    assert not errors, errors
    assert None not in pids and pids[0] != pids[1]
    for merged, reference in zip(results, references):
        assert _comparable_merged(merged) == _comparable_merged(reference)


def test_prepass_depth_bounds_epochs_in_flight(counter_app):
    """With the audit process stopped, the feeder ships ``prepass_depth``
    slices and then blocks, however many the stream still holds."""
    initial, slices = _epoch_execution(counter_app, n=80)
    assert len(slices) >= 5
    depth = 2
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(slices,
                                                              initial)
    session = Auditor(counter_app, AuditConfig(
        epoch_workers=2, prepass_depth=depth)).session(initial)
    assert session.submit_epoch(*slices[0]).result(DEADLINE_S).accepted
    process = session._child.process
    os.kill(process.pid, signal.SIGSTOP)

    def feed():
        for trace, reports in slices[1:]:
            session.submit_epoch(trace, reports)

    feeder = threading.Thread(target=feed, daemon=True)
    try:
        feeder.start()
        deadline = time.monotonic() + 30
        while session._fed <= depth + 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give a missing bound time to show
        assert session._child.in_flight == depth
        assert session._fed == depth + 2  # epoch 0, `depth`, the stalled one
    finally:
        os.kill(process.pid, signal.SIGCONT)
    feeder.join(DEADLINE_S)
    assert not feeder.is_alive()
    assert _comparable_merged(session.close()) == _comparable_merged(serial)
