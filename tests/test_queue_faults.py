"""The work queue's failure semantics, each run once per transport.

Every test takes the ``transport`` fixture (``tests/conftest.py``):
``fs`` is the queue directory itself, ``http`` an in-process
coordinator serving that directory.  Dispatcher and workers sit on
the same transport, exactly as ``repro campaign`` and ``repro worker``
do.  Faults are injected without wall-clock races: stale leases are
made with ``os.utime(lease, (0, 0))``, and a :class:`Hooked` transport
runs a fault at a chosen point of a real call.  The rules under test
are written once, in :mod:`repro.backends.workqueue`.
"""

import os
import pickle
import threading
import time

import pytest

from repro.backends import FsTransport, QueueBackend, WorkUnit, worker_loop
from repro.backends import workqueue as wq
from repro.backends.workqueue import (
    CORRUPT_DIR,
    LEASES_DIR,
    RESULTS_DIR,
    TASKS_DIR,
)
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.fsio import atomic_write_bytes
from repro.telemetry import RecordingSink

TORN = b"\x80\x04 definitely not a pickle"

#: The journal's fault-recovery vocabulary.
FAULT_EVENTS = ("heartbeat_gap", "lease_expired", "requeue", "quarantine")


def missrate_spec():
    return ExperimentSpec(
        kind="missrate", seed=0x1234,
        params=(("policy", "modulo"), ("workload", "reuse")),
    )


class Hooked:
    """A transport whose named calls go through test hooks.

    Each hook receives the real bound method first, so it can act
    before, after or instead of the real call.
    """

    def __init__(self, inner, **hooks):
        self._inner = inner
        self._hooks = hooks

    def __getattr__(self, name):
        real = getattr(self._inner, name)
        hook = self._hooks.get(name)
        if hook is None:
            return real
        return lambda *args, **kwargs: hook(real, *args, **kwargs)


@pytest.fixture
def queue(tmp_path):
    """The queue directory both transport cases serve."""
    return tmp_path / "queue"


def backend_on(transport, **kwargs):
    kwargs.setdefault("lease_timeout", 60.0)
    kwargs.setdefault("idle_timeout", 60.0)
    kwargs.setdefault("poll_interval", 0.01)
    return QueueBackend(transport, **kwargs)


def drain(transport, **kwargs):
    """Run a worker on this thread until the queue stays idle."""
    kwargs.setdefault("max_idle", 0.3)
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("echo", False)
    return worker_loop(transport, **kwargs)


def with_worker(transport, backend):
    """Drain ``backend`` while a worker thread serves the queue."""
    thread = threading.Thread(
        target=drain, args=(transport,), kwargs={"max_idle": 30.0},
        daemon=True,
    )
    thread.start()
    try:
        return list(backend.completions())
    finally:
        transport.set_stop(True)
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def dead_claim(transport, queue, unit_id):
    """A worker claims ``unit_id`` and dies: its lease goes stale."""
    answer = transport.claim("dead", "testhost")
    assert answer["unit"]["unit_id"] == unit_id
    os.utime(queue / LEASES_DIR / f"{unit_id}.json", (0, 0))


def result_bytes(attempt, payload=42):
    return pickle.dumps({
        "worker": "w", "attempt": attempt, "ok": True,
        "payload": payload, "elapsed": 0.0,
    })


def fault_chain(sink):
    return [
        (event["type"], event.get("attempt"))
        for event in sink.events if event["type"] in FAULT_EVENTS
    ]


class TestLeaseExpiry:
    def test_expired_lease_requeued_and_retried(self, transport, queue):
        reference = CampaignRunner().run([missrate_spec()])
        sink = RecordingSink()
        backend = backend_on(transport, telemetry=sink)
        backend.submit(WorkUnit(unit_id="doomed", spec=missrate_spec()))
        dead_claim(transport, queue, "doomed")
        results = with_worker(transport, backend)
        assert len(results) == 1
        assert results[0].attempts == 2
        assert results[0].payload.miss_rate == \
            reference.cells[0].payload.miss_rate
        assert fault_chain(sink) == [("lease_expired", 1), ("requeue", 2)]

    def test_attempt_budget_exhaustion_raises(self, transport, queue):
        backend = backend_on(transport, max_attempts=1)
        backend.submit(WorkUnit(unit_id="doomed", spec=missrate_spec()))
        dead_claim(transport, queue, "doomed")
        with pytest.raises(RuntimeError, match="budget is exhausted"):
            list(backend.completions())

    def test_requeue_refused_when_result_lands_after_the_probe(
        self, transport, queue
    ):
        """The slow worker's result lands after the dispatcher looked
        for one but before its requeue: the transport refuses the
        requeue and the result is collected without burning an
        attempt."""

        def requeue(real, unit_id, doc, quarantine):
            assert transport.post_result(
                unit_id, "dead", 1, result_bytes(attempt=1)
            )
            return real(unit_id, doc, quarantine)

        sink = RecordingSink()
        backend = backend_on(
            Hooked(transport, requeue=requeue), telemetry=sink
        )
        backend.submit(WorkUnit(unit_id="slow", spec=missrate_spec()))
        dead_claim(transport, queue, "slow")
        results = list(backend.completions())
        assert [r.attempts for r in results] == [1]
        assert results[0].payload == 42
        assert fault_chain(sink) == [("lease_expired", 1)]
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(queue / sub) == []


class TestCorruptResult:
    def _torn_result(self, transport, queue, backend):
        backend.submit(WorkUnit(unit_id="u1", spec=missrate_spec()))
        # A worker claims the unit, then its result write tears.
        assert transport.claim("w-torn", "testhost")["unit"]
        atomic_write_bytes(str(queue / RESULTS_DIR / "u1.pkl"), TORN)

    def test_quarantined_and_retried(self, transport, queue):
        sink = RecordingSink()
        backend = backend_on(transport, telemetry=sink)
        self._torn_result(transport, queue, backend)
        results = with_worker(transport, backend)
        assert [r.attempts for r in results] == [2]
        corrupt = os.listdir(queue / CORRUPT_DIR)
        assert len(corrupt) == 1 and corrupt[0].startswith("u1.pkl")
        # The evidence is preserved verbatim.
        assert (queue / CORRUPT_DIR / corrupt[0]).read_bytes() == TORN
        assert fault_chain(sink) == [("quarantine", None), ("requeue", 2)]
        quarantine = next(
            e for e in sink.events if e["type"] == "quarantine"
        )
        assert quarantine["path"] == str(queue / CORRUPT_DIR / corrupt[0])

    def test_quarantined_on_the_last_attempt(self, transport, queue):
        """Regression: over HTTP the budget was checked before the
        quarantine, so the torn result stayed in ``results/``."""
        backend = backend_on(transport, max_attempts=1)
        self._torn_result(transport, queue, backend)
        with pytest.raises(RuntimeError, match="budget is exhausted") \
                as raised:
            list(backend.completions())
        assert os.listdir(queue / RESULTS_DIR) == []
        corrupt = os.listdir(queue / CORRUPT_DIR)
        assert len(corrupt) == 1
        assert (queue / CORRUPT_DIR / corrupt[0]).read_bytes() == TORN
        assert str(queue / CORRUPT_DIR / corrupt[0]) in str(raised.value)
        # Nothing is left queued for a campaign that failed.
        assert os.listdir(queue / TASKS_DIR) == []
        assert os.listdir(queue / LEASES_DIR) == []


class TestCleanFailure:
    def test_worker_error_raises_with_traceback(self, transport, queue):
        backend = backend_on(transport)
        bad = ExperimentSpec(kind="missrate", params=(("policy", "modulo"),))
        backend.submit(WorkUnit(unit_id="bad", spec=bad))
        assert drain(transport) == 1
        with pytest.raises(RuntimeError, match="Traceback") as raised:
            list(backend.completions())
        assert "workload" in str(raised.value)
        # The error result is consumed, never replayed.
        assert os.listdir(queue / RESULTS_DIR) == []


class TestCancel:
    def _cancel_claimed(self, transport, queue, backend, *unit_ids):
        for unit_id in unit_ids:
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        claimed = transport.claim("w1", "testhost")["unit"]["unit_id"]
        backend.cancel_units([claimed])
        assert backend._cancelled_ids == {claimed}
        assert not (queue / LEASES_DIR / f"{claimed}.json").exists()
        # The straggler we could not interrupt lands a result anyway.
        atomic_write_bytes(
            str(queue / RESULTS_DIR / f"{claimed}.pkl"),
            result_bytes(attempt=1),
        )
        return claimed

    def test_straggler_swept_on_next_poll(self, transport, queue):
        backend = backend_on(transport)
        cancelled = self._cancel_claimed(
            transport, queue, backend, "cancelled", "kept"
        )
        assert cancelled == "cancelled"
        assert drain(transport) == 1  # serves the surviving unit
        assert [r.unit.unit_id for r in backend.completions()] == ["kept"]
        assert os.listdir(queue / RESULTS_DIR) == []
        assert backend._cancelled_ids == set()

    def test_straggler_swept_at_close(self, transport, queue):
        backend = backend_on(transport)
        self._cancel_claimed(transport, queue, backend, "u")
        assert list(backend.completions()) == []
        backend.close()
        assert os.listdir(queue / RESULTS_DIR) == []
        assert backend._cancelled_ids == set()


class TestWorkerAborts:
    """The worker publishes nothing for a lease it no longer holds.

    The unit's computation waits until the heartbeat hook has run, so
    the beat always fires mid-unit however fast the unit is.
    """

    def _abort(self, transport, queue, monkeypatch, heartbeat):
        backend = backend_on(transport, lease_timeout=0.2)  # 0.05 s beats
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        beat = threading.Event()
        real_run = wq.run_unit_doc

        def run_after_beat(doc, worker_id):
            assert beat.wait(timeout=10.0)
            return real_run(doc, worker_id)

        def hook(real, unit_id, worker_id):
            # Stop the queue so the worker exits after this unit.
            transport.set_stop(True)
            try:
                return heartbeat(backend, real, unit_id, worker_id)
            finally:
                beat.set()

        monkeypatch.setattr(wq, "run_unit_doc", run_after_beat)
        assert drain(Hooked(transport, heartbeat=hook)) == 0
        assert os.listdir(queue / RESULTS_DIR) == []

    def test_heartbeat_thread_death_aborts_unit(
        self, transport, queue, monkeypatch
    ):
        def crash(backend, real, unit_id, worker_id):
            raise RuntimeError("simulated heartbeat thread crash")

        self._abort(transport, queue, monkeypatch, crash)
        if isinstance(transport, FsTransport):
            # The dying thread marked the lease dead and forced it
            # stale, so the dispatcher requeues at its next poll.
            lease = queue / LEASES_DIR / "u.json"
            assert wq._read_json(str(lease))["heartbeat_alive"] is False
            assert os.stat(lease).st_mtime == 0

    def test_lost_lease_is_not_published(
        self, transport, queue, monkeypatch
    ):
        def requeued_meanwhile(backend, real, unit_id, worker_id):
            unit = backend._outstanding[unit_id]
            transport.requeue(
                unit_id, backend._task_doc(unit, attempt=2),
                quarantine=False,
            )
            return real(unit_id, worker_id)

        self._abort(transport, queue, monkeypatch, requeued_meanwhile)
        # The successor's attempt is what stays queued.
        task = wq._read_json(str(queue / TASKS_DIR / "u.json"))
        assert task["attempt"] == 2


class TestJournalChain:
    def test_fault_chain_in_order(self, transport, queue):
        """Heartbeat gap → expiry → requeue → quarantine → requeue,
        journaled in that order on both transports."""
        lease = queue / LEASES_DIR / "u.json"
        now = time.time()

        def stale(seconds):
            os.utime(lease, (now - seconds, now - seconds))

        steps = [
            lambda: stale(40.0),  # past half the 60 s lease: a gap
            lambda: os.utime(lease, (0, 0)),  # expired
            lambda: atomic_write_bytes(
                str(queue / RESULTS_DIR / "u.pkl"), TORN
            ),
            lambda: transport.post_result(
                "u", "w", 3, result_bytes(attempt=3)
            ),
        ]

        def poll(real, unit_ids, cancelled):
            if steps:
                steps.pop(0)()
            return real(unit_ids, cancelled)

        sink = RecordingSink()
        backend = backend_on(Hooked(transport, poll=poll), telemetry=sink)
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        assert transport.claim("dead", "testhost")["unit"]
        results = list(backend.completions())
        assert [r.attempts for r in results] == [3]
        assert fault_chain(sink) == [
            ("heartbeat_gap", 1),
            ("lease_expired", 1),
            ("requeue", 2),
            ("quarantine", None),
            ("requeue", 3),
        ]
