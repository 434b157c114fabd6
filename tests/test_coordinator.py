"""Tests for repro.backends.coordinator: the HTTP work-queue transport.

The invariants under test: (1) campaign payloads dispatched through a
coordinator are bit-identical to the serial path; (2) the fault model
holds over the network — a SIGKILLed-and-restarted coordinator resumes
mid-campaign, a worker dying mid-upload writes nothing, a duplicate
result post from a slow-but-alive predecessor is detected by attempt
id and dropped, and client backoff honors its cap and budget against a
refused port.
"""

import json
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error

import numpy as np
import pytest

from repro.backends import (
    CoordinatorClient,
    CoordinatorServer,
    ElasticSupervisor,
    HttpQueueBackend,
    HttpTransport,
    WorkerLauncher,
    WorkUnit,
    worker_loop,
)
from repro.backends import workqueue as wq
from repro.backends.workqueue import (
    CORRUPT_DIR,
    LEASES_DIR,
    RESULTS_DIR,
    TASKS_DIR,
    _lease_path,
    _result_path,
    _task_path,
)
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.fsio import atomic_write_bytes


def timing_spec(num_samples=4096, setup="deterministic", seed=9):
    return ExperimentSpec(
        kind="timing_samples", setup=setup,
        num_samples=num_samples, seed=seed,
    )


@pytest.fixture
def server(tmp_path):
    queue_dir = str(tmp_path / "queue")
    with CoordinatorServer(queue_dir) as srv:
        yield srv


def make_client(server, **kwargs):
    kwargs.setdefault("retry_timeout", 5.0)
    return CoordinatorClient(server.url, **kwargs)


def submit_unit(client, unit, attempt=1, heartbeat=5.0):
    doc = unit.to_doc()
    doc["attempt"] = attempt
    doc["heartbeat"] = heartbeat
    status, _ = client.request_json("POST", "/submit", json_body=doc)
    assert status == 200
    return doc


def claim(client, worker="w", host="testhost"):
    status, answer = client.request_json(
        "POST", "/claim", json_body={"worker": worker, "host": host}
    )
    assert status == 200
    return answer


def post_result(client, unit_id, worker, attempt, result_doc):
    status, answer = client.request_json(
        "POST", f"/result/{unit_id}",
        data=pickle.dumps(result_doc),
        headers={
            "X-Repro-Worker": worker,
            "X-Repro-Attempt": str(attempt),
        },
    )
    assert status == 200
    return answer


def http_worker_thread(url, **kwargs):
    """A real worker loop on a thread (cheap on one CPU, and its
    client rides through coordinator restarts like a remote host's)."""
    kwargs.setdefault("max_idle", 30.0)
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("echo", False)
    transport = HttpTransport(
        url, retry_timeout=kwargs.pop("retry_timeout", 60.0)
    )
    thread = threading.Thread(
        target=worker_loop, args=(transport,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class TestWireProtocol:
    """The raw endpoint lifecycle against an in-thread coordinator."""

    def test_submit_claim_result_roundtrip(self, server):
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        submit_unit(client, unit)

        answer = claim(client, worker="w1")
        doc = answer["unit"]
        assert not answer["stop"] and not answer["retire"]
        assert doc["unit_id"] == "u1"
        # Ownership is stamped before the doc leaves the coordinator.
        assert doc["worker"] == "w1"
        assert doc["host"] == "testhost"

        status, _ = client.request_json(
            "PUT", "/heartbeat/u1", json_body={"worker": "w1"}
        )
        assert status == 200

        answer = post_result(
            client, "u1", "w1", 1,
            {"ok": True, "payload": 42, "elapsed": 0.1,
             "worker": "w1", "attempt": 1},
        )
        assert answer["accepted"]
        # Publishing released the lease.
        assert not os.path.exists(
            _lease_path(server.state.queue_dir, "u1")
        )

        status, poll = client.request_json(
            "POST", "/poll",
            json_body={"unit_ids": ["u1"], "cancelled": []},
        )
        assert status == 200
        assert poll["ready"] == ["u1"]

        status, body = client.request("GET", "/result/u1")
        assert status == 200
        assert pickle.loads(body)["payload"] == 42
        status, answer = client.request_json("DELETE", "/result/u1")
        assert status == 200 and answer["removed"]
        status, _ = client.request("GET", "/result/u1")
        assert status == 404

    def test_stop_sentinel_round_trip(self, server):
        client = make_client(server)
        status, _ = client.request_json("POST", "/stop")
        assert status == 200
        assert claim(client, worker="w1")["stop"]
        status, _ = client.request_json("DELETE", "/stop")
        assert status == 200
        assert not claim(client, worker="w1")["stop"]

    def test_retire_sentinel_drains_one_worker(self, server):
        client = make_client(server)
        queue_dir = server.state.queue_dir
        from repro.backends.workqueue import _worker_stop_path

        atomic_write_bytes(_worker_stop_path(queue_dir, "w1"), b"")
        assert claim(client, worker="w1")["retire"]
        # The sentinel (and heartbeat litter) are consumed with the
        # retirement verdict.
        assert not os.path.exists(_worker_stop_path(queue_dir, "w1"))
        assert not claim(client, worker="w2")["retire"]

    def test_unknown_route_is_404(self, server):
        client = make_client(server)
        status, _ = client.request_json("GET", "/nonsense")
        assert status == 404

    def test_stats_reports_fleet_by_host(self, server):
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        submit_unit(client, unit)
        claim(client, worker="w1", host="alpha")
        claim(client, worker="w2", host="beta")  # idle: no unit left
        status, stats = client.request_json("GET", "/stats")
        assert status == 200
        assert stats["leases"] == 1 and stats["tasks"] == 0
        # w1 shows through its stamped lease, w2 through its fresh
        # idle heartbeat.
        assert stats["workers_by_host"] == {"alpha": 1, "beta": 1}


class TestIdempotentResultPosts:
    """Duplicate/stale posts are detected by attempt id and dropped."""

    def _claimed_unit(self, server, client):
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        submit_unit(client, unit)
        doc = claim(client, worker="w1")["unit"]
        return unit, doc

    def test_duplicate_post_after_result_landed(self, server):
        client = make_client(server)
        self._claimed_unit(server, client)
        first = post_result(client, "u1", "w1", 1, {"ok": True})
        dup = post_result(client, "u1", "w1", 1, {"ok": True})
        assert first["accepted"] and not dup["accepted"]

    def test_stale_attempt_dropped_and_successor_lease_intact(
        self, server
    ):
        """The re-enqueued-but-alive predecessor: its late post must
        neither land nor disturb the successor's live lease."""
        client = make_client(server)
        unit, doc = self._claimed_unit(server, client)
        # Dispatcher expires the lease and re-enqueues attempt 2…
        requeue_doc = dict(doc, attempt=2)
        status, answer = client.request_json(
            "POST", "/requeue/u1", json_body=requeue_doc
        )
        assert status == 200 and answer["requeued"]
        # …and a successor claims it.
        doc2 = claim(client, worker="w2")["unit"]
        assert doc2["attempt"] == 2 and doc2["worker"] == "w2"
        # The slow predecessor now posts its attempt-1 result: dropped.
        late = post_result(client, "u1", "w1", 1, {"ok": True})
        assert not late["accepted"]
        queue_dir = server.state.queue_dir
        assert not os.path.exists(_result_path(queue_dir, "u1"))
        with open(_lease_path(queue_dir, "u1")) as handle:
            lease = json.load(handle)
        assert lease["worker"] == "w2"
        # The predecessor's heartbeat is refused too.
        status, _ = client.request_json(
            "PUT", "/heartbeat/u1", json_body={"worker": "w1"}
        )
        assert status == 410
        # The successor's own post is the one that lands.
        accepted = post_result(client, "u1", "w2", 2, {"ok": True})
        assert accepted["accepted"]

    def test_post_for_cancelled_unit_dropped(self, server):
        client = make_client(server)
        self._claimed_unit(server, client)
        status, _ = client.request_json(
            "POST", "/cancel", json_body={"unit_ids": ["u1"]}
        )
        assert status == 200
        answer = post_result(client, "u1", "w1", 1, {"ok": True})
        assert not answer["accepted"]
        assert not os.path.exists(
            _result_path(server.state.queue_dir, "u1")
        )

    def test_requeue_refused_when_result_landed(self, server):
        """Collect-before-requeue over the wire: the coordinator
        refuses to burn an attempt when the slow worker finished."""
        client = make_client(server)
        unit, doc = self._claimed_unit(server, client)
        post_result(client, "u1", "w1", 1, {"ok": True})
        status, answer = client.request_json(
            "POST", "/requeue/u1", json_body=dict(doc, attempt=2)
        )
        assert status == 200
        assert not answer["requeued"] and answer["has_result"]


class TestWorkerDeathMidUpload:
    def test_truncated_post_writes_nothing(self, server):
        """A result POST whose connection dies before Content-Length
        bytes arrived must leave no result file — the unit stays
        claimable through normal lease expiry."""
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        submit_unit(client, unit)
        claim(client, worker="w1")

        host, port = "127.0.0.1", server.port
        payload = pickle.dumps({"ok": True, "payload": 1})
        head = (
            "POST /result/u1 HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "X-Repro-Worker: w1\r\nX-Repro-Attempt: 1\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=5.0) as conn:
            # Send the head and only half the body, then die.
            conn.sendall(head + payload[: len(payload) // 2])
        deadline = time.monotonic() + 5.0
        queue_dir = server.state.queue_dir
        while time.monotonic() < deadline:
            # Wait until the handler has certainly seen the EOF.
            with server.state.lock:
                pass
            time.sleep(0.05)
            if not os.path.exists(_result_path(queue_dir, "u1")):
                break
        assert not os.path.exists(_result_path(queue_dir, "u1"))
        # The lease survives; a healthy retry of the post completes
        # the unit normally.
        assert os.path.exists(_lease_path(queue_dir, "u1"))
        answer = post_result(client, "u1", "w1", 1, {"ok": True})
        assert answer["accepted"]


class TestClientBackoff:
    def test_backoff_caps_and_budget_on_refused_port(self):
        # A port that is certainly closed right now.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        now = [0.0]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        client = CoordinatorClient(
            f"http://127.0.0.1:{port}",
            retry_timeout=30.0,
            backoff_base=0.1,
            backoff_cap=2.0,
            sleep=fake_sleep,
            clock=lambda: now[0],
            rng=random.Random(7),
        )
        with pytest.raises(urllib.error.URLError):
            client.request("GET", "/stats")
        assert sleeps, "refused port produced no retries"
        # Every delay honors the cap (jitter included).
        assert all(delay <= 2.0 for delay in sleeps)
        # Growth actually reaches cap territory before the budget ends.
        assert max(sleeps) > 1.0
        # The retry loop gave up once the budget elapsed, not later.
        assert sum(sleeps) <= 30.0 + 2.0
        assert sum(sleeps) >= 30.0 - 2.0

    def test_no_retry_mode_raises_immediately(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = CoordinatorClient(
            f"http://127.0.0.1:{port}", sleep=sleeps.append
        )
        with pytest.raises(urllib.error.URLError):
            client.request("GET", "/stats", retry=False)
        assert sleeps == []

    def test_http_status_is_an_answer_not_a_retry(self, server):
        sleeps = []
        client = CoordinatorClient(server.url, sleep=sleeps.append)
        status, _ = client.request("GET", "/nonsense")
        assert status == 404
        assert sleeps == []


class TestHttpBackendCampaign:
    """The dispatcher-side backend against a live coordinator."""

    @pytest.fixture(scope="class")
    def serial(self):
        return CampaignRunner(max_shards_per_cell=3).run(
            [timing_spec()]
        )

    def test_sharded_campaign_bit_identical_to_serial(
        self, server, serial
    ):
        worker = http_worker_thread(server.url)
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=3, backend=backend
            ).run([timing_spec()])
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert (
            result.cells[0].payload.timings.tobytes()
            == serial.cells[0].payload.timings.tobytes()
        )
        assert np.array_equal(
            result.cells[0].payload.plaintexts,
            serial.cells[0].payload.plaintexts,
        )
        # Nothing left behind in any lifecycle directory.
        queue_dir = server.state.queue_dir
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(os.path.join(queue_dir, sub)) == []

    def test_early_stop_contention_same_verdict_as_serial(self, server):
        """An early-stop contention cell over HTTP: same verdict as
        serial, and cancelled units leave no litter."""
        spec = ExperimentSpec(
            kind="prime_probe", setup="deterministic",
            num_samples=64, seed=2018,
        )
        full = CampaignRunner().run([spec]).cells[0]
        worker = http_worker_thread(server.url)
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=8, early_stop=True, backend=backend,
            ).run([spec]).cells[0]
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert result.payload.trials <= 64
        assert result.payload.leaks == full.payload.leaks
        queue_dir = server.state.queue_dir
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(os.path.join(queue_dir, sub)) == []

    def test_expired_lease_requeues_and_counts_attempts(self, server):
        """A worker that claims and dies: the lease goes stale, the
        backend re-enqueues over HTTP, and a healthy worker's retry
        reports attempts=2."""
        client = make_client(server)
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        backend.submit(unit)
        # A claimant that never heartbeats again (died mid-unit).
        assert claim(client, worker="dead")["unit"] is not None
        os.utime(_lease_path(server.state.queue_dir, "u1"), (0, 0))
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            results = list(backend.completions())
        finally:
            backend.close()
            client.request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert len(results) == 1
        assert results[0].attempts == 2

    def test_attempt_budget_exhaustion_raises(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05, max_attempts=1,
        )
        client = make_client(server)
        backend.submit(
            WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        )
        assert claim(client, worker="dead")["unit"] is not None
        os.utime(_lease_path(server.state.queue_dir, "u1"), (0, 0))
        with pytest.raises(RuntimeError, match="attempt budget"):
            list(backend.completions())
        backend.close()

    def test_corrupt_result_quarantined_and_retried(self, server):
        """A torn result on the coordinator's queue disk: quarantined
        to corrupt/, the unit re-enqueued, the retry collected."""
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        queue_dir = server.state.queue_dir
        unit = WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        backend.submit(unit)
        # A corrupt result appears (torn write) with no live claim.
        atomic_write_bytes(
            _result_path(queue_dir, "u1"), b"\x80\x04 not a pickle"
        )
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            results = list(backend.completions())
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert len(results) == 1
        assert results[0].attempts == 2
        corrupt = os.listdir(os.path.join(queue_dir, CORRUPT_DIR))
        assert len(corrupt) == 1 and corrupt[0].startswith("u1.pkl")

    def test_worker_error_raises_with_traceback(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        client = make_client(server)
        backend.submit(
            WorkUnit(unit_id="u1", spec=timing_spec(num_samples=64))
        )
        claim(client, worker="w1")
        post_result(
            client, "u1", "w1", 1,
            {"ok": False, "error": "Traceback: boom", "worker": "w1",
             "attempt": 1},
        )
        with pytest.raises(RuntimeError, match="boom"):
            list(backend.completions())
        backend.close()

    def test_cancel_units_sweeps_straggler_results(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        client = make_client(server)
        queue_dir = server.state.queue_dir
        for unit_id in ("kept", "gone"):
            backend.submit(
                WorkUnit(unit_id=unit_id,
                         spec=timing_spec(num_samples=64,
                                          seed=hash(unit_id) % 97))
            )
        # "gone" is claimed, then cancelled mid-flight.
        claimed = claim(client, worker="w1")["unit"]
        backend.cancel_units([claimed["unit_id"]])
        # The straggler publishes anyway (the coordinator has no doc
        # for it any more, so the post is dropped)…
        late = post_result(
            client, claimed["unit_id"], "w1", 1, {"ok": True}
        )
        assert not late["accepted"]
        # …and the surviving unit completes normally.
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            done = [r.unit.unit_id for r in backend.completions()]
        finally:
            backend.close()
            client.request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert done == [
            uid for uid in ("kept", "gone")
            if uid != claimed["unit_id"]
        ]
        assert os.listdir(os.path.join(queue_dir, RESULTS_DIR)) == []


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _start_coordinator_process(queue_dir, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "coordinator",
            "--queue-dir", queue_dir,
            "--port", str(port), "--host", "127.0.0.1", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_serving(url, timeout=30.0):
    client = CoordinatorClient(url, retry_timeout=timeout)
    status, _ = client.request_json("GET", "/stats")
    assert status == 200


class TestCoordinatorCrashRestart:
    def test_sigkill_and_restart_resumes_bit_identically(self, tmp_path):
        """The acceptance fault drill: SIGKILL the coordinator process
        mid-campaign, restart it on the same queue directory and port,
        and the campaign completes with payloads byte-identical to
        serial — clients and workers ride the outage on their retry
        budgets, and no unit is lost or duplicated."""
        spec = timing_spec()
        serial = CampaignRunner(max_shards_per_cell=4).run([spec])

        queue_dir = str(tmp_path / "queue")
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        coordinator = _start_coordinator_process(queue_dir, port)
        replacement = []
        try:
            _wait_serving(url)
            worker = http_worker_thread(
                url, max_idle=60.0, retry_timeout=120.0
            )
            backend = HttpQueueBackend(
                url, lease_timeout=120.0, idle_timeout=120.0,
                poll_interval=0.05, retry_timeout=120.0,
            )

            killed = []

            def progress(event):
                if killed or getattr(event, "event", "") != "shard":
                    return
                killed.append(True)
                # SIGKILL: no shutdown hooks, no flushes — the only
                # durable state is the queue directory.
                os.kill(coordinator.pid, signal.SIGKILL)
                coordinator.wait(timeout=10.0)
                replacement.append(
                    _start_coordinator_process(queue_dir, port)
                )

            try:
                result = CampaignRunner(
                    max_shards_per_cell=4, backend=backend,
                    progress=progress,
                ).run([spec])
            finally:
                backend.close()
                CoordinatorClient(url, retry_timeout=10.0).request_json(
                    "POST", "/stop"
                )
                worker.join(timeout=60.0)
            assert killed, "campaign finished before the kill fired"
            assert (
                result.cells[0].payload.timings.tobytes()
                == serial.cells[0].payload.timings.tobytes()
            )
        finally:
            for proc in [coordinator] + replacement:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)


    def test_claim_interrupted_by_the_kill_is_handed_out_again(
        self, tmp_path
    ):
        """A coordinator killed between a claim's rename into
        ``leases/`` and its ownership stamp leaves a lease no worker
        holds.  Its successor hands the unit out again at once instead
        of letting it sit for a whole lease timeout; stamped leases
        (claims that reached their worker) stay put."""
        queue_dir = str(tmp_path / "queue")
        with CoordinatorServer(queue_dir) as server:
            client = make_client(server)
            for unit_id in ("held", "lost"):
                submit_unit(client, WorkUnit(
                    unit_id=unit_id, spec=timing_spec(num_samples=64)
                ))
            assert claim(client, worker="w1")["unit"]["unit_id"] == "held"
        # The predecessor died right after renaming "lost" into leases/.
        assert wq._claim_next(queue_dir) == "lost"
        with CoordinatorServer(queue_dir) as server:
            client = make_client(server)
            again = claim(client, worker="w2")["unit"]
            assert again["unit_id"] == "lost"
            assert again["attempt"] == 1
            assert claim(client, worker="w3")["unit"] is None
        with open(_lease_path(queue_dir, "held")) as handle:
            assert json.load(handle)["worker"] == "w1"


class _FakeProc:
    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None:
            self.returncode = 0
        return self.returncode

    def terminate(self):
        self.returncode = -15

    def kill(self):
        self.returncode = -9


class TestCoordinatorWorkerLauncher:
    """The WorkerLauncher seam: an ElasticSupervisor next to the
    coordinator launches ``--coordinator`` workers and aggregates
    fleet stats per host."""

    def test_supervisor_spawns_http_workers_with_host_ids(
        self, tmp_path, monkeypatch
    ):
        launched = []

        def fake_spawn(worker_args, worker_id, poll_interval, log_dir):
            launched.append((worker_args, worker_id))
            return _FakeProc(), os.path.join(log_dir, worker_id + ".log")

        monkeypatch.setattr(wq, "_spawn_worker_process", fake_spawn)
        launcher = WorkerLauncher(
            ["--coordinator", "http://example:8642"],
            str(tmp_path / "logs"),
        )
        supervisor = ElasticSupervisor(
            str(tmp_path / "queue"),
            min_workers=2, max_workers=2, launcher=launcher,
        )
        supervisor.tick()
        assert len(launched) == 2
        assert all(
            args == ["--coordinator", "http://example:8642"]
            for args, _ in launched
        )
        # Ids are host-qualified through the launcher's host label.
        assert all(
            worker_id.startswith(f"elastic-{launcher.host}-")
            for _, worker_id in launched
        )
        assert supervisor.workers_by_host() == {launcher.host: 2}
        supervisor.shutdown(timeout=1.0)

    def test_real_elastic_pool_drains_http_campaign(self, server):
        """End to end on real subprocesses: a supervisor-launched
        ``repro worker --coordinator`` pool serves a sharded cell."""
        queue_dir = server.state.queue_dir
        supervisor = ElasticSupervisor(
            queue_dir,
            min_workers=1, max_workers=1, worker_poll=0.05,
            launcher=WorkerLauncher(
                ["--coordinator", server.url],
                os.path.join(queue_dir, "workers"),
            ),
        ).start()
        backend = HttpQueueBackend(
            server.url, lease_timeout=120.0, idle_timeout=120.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=2, backend=backend
            ).run([timing_spec()])
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            supervisor.shutdown()
        reference = CampaignRunner(max_shards_per_cell=2).run(
            [timing_spec()]
        )
        assert (
            result.cells[0].payload.timings.tobytes()
            == reference.cells[0].payload.timings.tobytes()
        )
