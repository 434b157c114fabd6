"""Tests for repro.telemetry: the event schema, sinks and journal,
metrics folding, trace/status analyzers, and the end-to-end
instrumentation contract.

The two invariants under test throughout:

* telemetry is **observer-only** — a campaign run with a sink attached
  produces bit-identical payloads to one without, and a journal write
  failure never fails the campaign;
* the journal is **self-consistent** — every event an instrumented run
  emits validates against ``EVENT_SCHEMA``, and the analyzers
  (``repro trace``, ``repro status``, metrics replay) reconstruct the
  run from the journal alone.
"""

import json
import os
import threading
import time

import pytest

from repro.backends import (
    FsTransport,
    WorkQueueBackend,
    WorkUnit,
    worker_loop,
)
from repro.backends.workqueue import LEASES_DIR, TASKS_DIR
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.telemetry import (
    EVENT_SCHEMA,
    MetricsSink,
    MultiSink,
    RecordingSink,
    RunJournal,
    TraceReport,
    load_journal,
    make_event,
    percentile,
    queue_dir_status,
    render_status,
    render_trace,
    replay_journal,
    validate_event,
    validate_journal,
)


def missrate_spec(policy="modulo", workload="reuse"):
    return ExperimentSpec(
        kind="missrate", seed=0x1234,
        params=(("policy", policy), ("workload", workload)),
    )


def timing_spec(num_samples=4096, seed=9):
    return ExperimentSpec(
        kind="timing_samples", setup="deterministic",
        num_samples=num_samples, seed=seed,
    )


class TestEvents:
    def test_make_event_stamps_type_and_ts(self):
        before = time.time()
        event = make_event("cache_hit", cell="c")
        assert event["type"] == "cache_hit"
        assert before <= event["ts"] <= time.time()
        assert event["cell"] == "c"

    def test_valid_event_passes(self):
        event = make_event("unit_done", unit="u", cell="c",
                           attempts=1, elapsed=0.5)
        assert validate_event(event) is None

    def test_missing_required_field_named(self):
        event = make_event("unit_done", unit="u")
        error = validate_event(event)
        assert error is not None
        assert "cell" in error or "missing" in error

    def test_unknown_type_rejected(self):
        assert validate_event(make_event("warp_drive")) is not None

    def test_extra_fields_allowed(self):
        event = make_event("cache_hit", cell="c", kind="missrate",
                           custom="fine")
        assert validate_event(event) is None

    def test_validate_journal_indexes_errors(self):
        events = [
            make_event("cache_hit", cell="c"),
            make_event("unit_done"),  # missing everything
        ]
        errors = validate_journal(events)
        assert len(errors) == 1
        assert errors[0].startswith("event 1")

    def test_schema_covers_the_announced_vocabulary(self):
        for name in (
            "campaign_start", "campaign_end", "cache_hit",
            "partial_restore", "unit_queued", "unit_done", "merge",
            "early_stop", "cell_done", "heartbeat_gap",
            "lease_expired", "requeue", "quarantine", "scale",
            "worker_spawn", "worker_retire", "worker_crash",
        ):
            assert name in EVENT_SCHEMA


class TestSinks:
    def test_journal_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.emit(make_event("cache_hit", cell="a"))
        journal.emit(make_event("cache_hit", cell="b"))
        events = load_journal(path)
        assert [e["cell"] for e in events] == ["a", "b"]
        assert journal.dropped == 0

    def test_torn_final_line_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.emit(make_event("cache_hit", cell="a"))
        with open(path, "a") as handle:
            handle.write('{"type": "unit_done", "trunc')
        events = load_journal(path)
        assert len(events) == 1

    def test_unwritable_journal_counts_dropped_not_raises(self, tmp_path):
        journal = RunJournal(str(tmp_path))  # a directory: open fails
        journal.emit(make_event("cache_hit", cell="a"))
        assert journal.dropped == 1

    def test_in_dir_mints_unique_paths(self, tmp_path):
        first = RunJournal.in_dir(str(tmp_path))
        first.emit(make_event("cache_hit", cell="a"))
        second = RunJournal.in_dir(str(tmp_path))
        assert first.path != second.path

    def test_concurrent_emitters_never_tear_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)

        def spam(tag):
            for index in range(200):
                journal.emit(make_event(
                    "cache_hit", cell=f"{tag}-{index}", pad="x" * 64,
                ))

        threads = [
            threading.Thread(target=spam, args=(t,)) for t in "abcd"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = load_journal(path)
        assert len(events) == 800
        assert validate_journal(events) == []

    def test_multi_sink_fans_out(self):
        a, b = RecordingSink(), RecordingSink()
        MultiSink(a, b).emit(make_event("cache_hit", cell="c"))
        assert len(a.events) == len(b.events) == 1


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [0.0, 1.0, 2.0, 3.0]
        assert percentile(values, 0.5) == pytest.approx(1.5)
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 3.0
        assert percentile([7.0], 0.9) == 7.0

    def test_unit_done_folds_latency_wait_and_host(self):
        sink = MetricsSink()
        for elapsed in (0.1, 0.3):
            sink.emit(make_event(
                "unit_done", unit="u", cell="c", attempts=1,
                elapsed=elapsed, queue_wait=0.05,
                timings={"cpu": elapsed / 2, "host": "hostA"},
            ))
        sink.emit(make_event(
            "unit_done", unit="v", cell="c", attempts=2, elapsed=0.2,
        ))
        snap = sink.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snap["counters"]
        }
        assert counters[("units_done", ())] == 3
        assert counters[("units_retried", ())] == 1
        assert counters[("units_by_host", (("host", "hostA"),))] == 2
        hists = {
            (h["name"], tuple(sorted(h["labels"].items()))): h
            for h in snap["histograms"]
        }
        latency = hists[("unit_latency_s", (("cell", "c"),))]
        assert latency["count"] == 3
        assert latency["max"] == pytest.approx(0.3)
        assert latency["p50"] == pytest.approx(0.2)
        assert "p90" in latency and "p99" in latency
        assert hists[("queue_wait_s", (("cell", "c"),))]["count"] == 2
        assert hists[("unit_cpu_s", (("cell", "c"),))]["count"] == 2

    def test_fault_and_fleet_counters(self):
        sink = MetricsSink()
        sink.emit(make_event("lease_expired", unit="u", age=3.0,
                             attempt=1))
        sink.emit(make_event("requeue", unit="u", attempt=2))
        sink.emit(make_event("quarantine", unit="u", path="p"))
        sink.emit(make_event("heartbeat_gap", unit="u", age=1.5))
        sink.emit(make_event("scale", action="spawn", pending=4,
                             busy=1, own=1, target=3))
        sink.emit(make_event("worker_crash", worker="w", host="h",
                             returncode=1))
        snap = sink.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert {"lease_expiries", "requeues", "quarantines",
                "heartbeat_gaps", "scale_actions",
                "worker_crashes"} <= names
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges["scale_target"] == 3.0

    def test_replay_matches_live_fold(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        live = MetricsSink()
        both = MultiSink(journal, live)
        for index in range(5):
            both.emit(make_event(
                "unit_done", unit=f"u{index}", cell="c", attempts=1,
                elapsed=0.1 * index,
            ))
        assert replay_journal(path).snapshot() == live.snapshot()

    def test_unknown_event_types_ignored(self):
        sink = MetricsSink()
        sink.emit({"type": "from_the_future", "ts": 1.0})
        snap = sink.snapshot()
        assert snap["counters"] == []


class TestTraceReport:
    def _journal(self):
        return [
            make_event("campaign_start", cells=2, backend="workqueue"),
            make_event("cache_hit", cell="cellB", kind="missrate"),
            make_event("unit_queued", unit="u1", cell="cellA"),
            make_event("heartbeat_gap", unit="u1", age=1.2, attempt=1),
            make_event("lease_expired", unit="u1", age=2.5, attempt=1),
            make_event("requeue", unit="u1", attempt=2),
            make_event("unit_done", unit="u1", cell="cellA",
                       kind="missrate", attempts=2, elapsed=0.4,
                       queue_wait=0.1, worker="w1",
                       timings={"cpu": 0.3, "host": "h"}),
            make_event("merge", cell="cellA", shards=3, seconds=0.02),
            make_event("early_stop", cell="cellA", decided_at=128,
                       cancelled=2),
            make_event("campaign_end", cells=2, elapsed=3.0),
        ]

    def test_cells_aggregate_time_and_flags(self):
        report = TraceReport(self._journal())
        cell = report.cells["cellA"]
        assert cell["units"] == 1
        assert cell["run_s"] == pytest.approx(0.4)
        assert cell["queue_wait_s"] == pytest.approx(0.1)
        assert cell["merge_s"] == pytest.approx(0.02)
        assert any("early-stop" in f for f in cell["flags"])
        assert "cached" in report.cells["cellB"]["flags"]

    def test_chain_narrative_in_attempt_order(self):
        lines = TraceReport(self._journal()).chain_lines()
        assert len(lines) == 1
        line = lines[0]
        assert line.startswith("u1: ")
        assert line.index("heartbeat gap") < line.index("lease expired")
        assert line.index("lease expired") < line.index(
            "requeued as attempt 2"
        )
        assert line.rstrip().endswith("0.400s)")
        assert "done (attempt 2, worker w1" in line

    def test_unfinished_chain_says_so(self):
        events = [
            make_event("lease_expired", unit="ghost", age=9.0,
                       attempt=1),
        ]
        lines = TraceReport(events).chain_lines()
        assert "never completed in this journal" in lines[0]

    def test_render_has_all_sections(self):
        text = render_trace(self._journal())
        assert "Per-cell breakdown" in text
        assert "Slowest units" in text
        assert "Requeue chains" in text
        assert "backend workqueue" in text
        assert "campaign wall 3.000s" in text

    def test_empty_journal_renders(self):
        assert "0 event(s)" in render_trace([])


class TestQueueDirStatus:
    def _queue(self, tmp_path):
        for sub in ("tasks", "leases", "results", "workers"):
            os.makedirs(tmp_path / sub)
        (tmp_path / "tasks" / "t1.json").write_text("{}")
        (tmp_path / "results" / "r1.pkl").write_bytes(b"x")
        (tmp_path / "leases" / "u1.json").write_text(
            json.dumps({"worker": "w-busy"})
        )
        now = time.time()
        for worker, age in (("w-busy", 60.0), ("w-idle", 1.0),
                            ("w-stale", 60.0)):
            path = tmp_path / "workers" / f"{worker}.json"
            path.write_text(json.dumps({"host": "hostA"}))
            os.utime(path, (now - age, now - age))
        return str(tmp_path)

    def test_snapshot_counts_and_states(self, tmp_path):
        doc = queue_dir_status(self._queue(tmp_path))
        assert doc["tasks"] == 1
        assert doc["results"] == 1
        assert [l["unit"] for l in doc["leases"]] == ["u1"]
        assert doc["leases"][0]["worker"] == "w-busy"
        assert doc["leases"][0]["age"] >= 0
        states = {w["worker"]: w["state"] for w in doc["workers"]}
        # A busy worker heartbeats through its lease: old info mtime
        # must not read as stale.
        assert states == {"w-busy": "busy", "w-idle": "idle",
                          "w-stale": "stale"}
        assert doc["workers_by_host"] == {"hostA": 2}  # stale dropped

    def test_render_lists_fleet_and_leases(self, tmp_path):
        text = render_status(queue_dir_status(self._queue(tmp_path)))
        assert "workers: 2 (hostA:2)" in text
        assert "1 pending" in text
        assert "in-flight leases" in text
        assert "w-busy" in text

    def test_missing_directory_shapes_empty(self, tmp_path):
        doc = queue_dir_status(str(tmp_path / "nowhere"))
        assert doc["tasks"] == 0
        assert doc["leases"] == []
        assert doc["workers_by_host"] == {}


class TestRunnerInstrumentation:
    """CampaignRunner emits the span vocabulary, and emits nothing —
    not even event dicts — when telemetry is off."""

    def test_serial_run_emits_full_span_sequence(self):
        sink = RecordingSink()
        CampaignRunner(telemetry=sink).run([missrate_spec()])
        types = [e["type"] for e in sink.events]
        assert types[0] == "campaign_start"
        assert types[-1] == "campaign_end"
        for required in ("unit_queued", "unit_done", "cell_done"):
            assert required in types
        assert validate_journal(sink.events) == []

    def test_unit_done_carries_timings_and_queue_wait(self):
        sink = RecordingSink()
        CampaignRunner(telemetry=sink).run([missrate_spec()])
        done = sink.of_type("unit_done")[0]
        assert done["attempts"] == 1
        assert done["elapsed"] > 0
        assert done["queue_wait"] >= 0
        assert done["timings"]["host"]
        assert done["timings"]["cpu"] >= 0
        assert done["timings"]["ended"] >= done["timings"]["started"]

    def test_sharded_run_emits_merge_events(self):
        sink = RecordingSink()
        CampaignRunner(
            telemetry=sink, max_shards_per_cell=4,
        ).run([timing_spec()])
        merges = sink.of_type("merge")
        assert len(merges) == 1
        assert merges[0]["shards"] == 4
        assert sink.of_type("cell_done")[0]["shards"] == 4

    def test_cache_hit_and_payload_identity_with_telemetry(self,
                                                           tmp_path):
        sink = RecordingSink()
        bare = CampaignRunner().run([missrate_spec()])
        first = CampaignRunner(
            cache_dir=str(tmp_path), telemetry=sink,
        ).run([missrate_spec()])
        assert bare.cells[0].payload == first.cells[0].payload
        resumed = CampaignRunner(
            cache_dir=str(tmp_path), telemetry=sink,
        ).run([missrate_spec()])
        assert resumed.cells[0].payload == bare.cells[0].payload
        assert len(sink.of_type("cache_hit")) == 1
        assert validate_journal(sink.events) == []

    def test_telemetry_off_by_default(self):
        runner = CampaignRunner()
        assert runner.telemetry is None


class TestDeadWorkerJournalChain:
    """The acceptance path: a worker dies mid-unit, the lease expires,
    the unit re-enqueues, a healthy worker completes it — and the
    journal records the whole chain, which ``repro trace`` renders."""

    def _stale_claim(self, queue_dir, unit_id, age=3600.0):
        task = os.path.join(queue_dir, TASKS_DIR, unit_id + ".json")
        lease = os.path.join(queue_dir, LEASES_DIR, unit_id + ".json")
        os.rename(task, lease)
        stale = time.time() - age
        os.utime(lease, (stale, stale))

    @pytest.fixture()
    def journal_path(self, tmp_path):
        qdir = tmp_path / "q"
        path = str(tmp_path / "journal.jsonl")
        backend = WorkQueueBackend(
            str(qdir), lease_timeout=0.2, poll_interval=0.05,
            max_attempts=3, idle_timeout=60,
            telemetry=RunJournal(path),
        )
        backend.submit(WorkUnit(unit_id="doomed", spec=missrate_spec()))
        self._stale_claim(str(qdir), "doomed")
        thread = threading.Thread(
            target=worker_loop, args=(FsTransport(str(qdir)),),
            kwargs={"max_idle": 30.0, "poll_interval": 0.05,
                    "echo": False},
        )
        thread.start()
        try:
            results = list(backend.completions())
        finally:
            (qdir / "stop").write_bytes(b"")
            thread.join(timeout=30)
            backend.close()
        assert len(results) == 1
        assert results[0].attempts == 2
        # The backend alone journals the fault chain; stitch in the
        # dispatcher-side closing span the runner would add.
        RunJournal(path).emit(make_event(
            "unit_done", unit="doomed", cell="missrate",
            attempts=results[0].attempts,
            elapsed=results[0].elapsed, worker=results[0].worker,
            timings=results[0].timings,
        ))
        return path

    def test_journal_records_expiry_and_requeue(self, journal_path):
        events = load_journal(journal_path)
        assert validate_journal(events) == []
        by_type = {}
        for event in events:
            by_type.setdefault(event["type"], []).append(event)
        expired = by_type["lease_expired"][0]
        assert expired["unit"] == "doomed"
        assert expired["attempt"] == 1
        assert expired["age"] > 0.2
        requeue = by_type["requeue"][0]
        assert requeue["attempt"] == 2
        done = by_type["unit_done"][0]
        assert done["attempts"] == 2
        assert done["timings"]["host"]

    def test_trace_renders_the_chain(self, journal_path):
        text = render_trace(load_journal(journal_path))
        assert "Requeue chains:" in text
        chain = next(
            line for line in text.splitlines()
            if line.strip().startswith("doomed:")
        )
        assert "lease expired (attempt 1" in chain
        assert "requeued as attempt 2" in chain
        assert "done (attempt 2" in chain

    def test_trace_cli_renders_and_validates(self, journal_path,
                                             capsys):
        from repro.cli import main

        assert main(["trace", journal_path]) == 0
        out = capsys.readouterr().out
        assert "Requeue chains:" in out
        assert "doomed:" in out
        assert main(["trace", journal_path, "--validate"]) == 0
        assert "0 schema error(s)" in capsys.readouterr().out

    def test_trace_cli_validate_fails_on_bad_journal(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        path = str(tmp_path / "bad.jsonl")
        RunJournal(path).emit({"type": "unit_done", "ts": 1.0})
        assert main(["trace", path, "--validate"]) == 1
        assert "1 schema error(s)" in capsys.readouterr().out


class TestStatusCoordinatorFleet:
    """``repro status --coordinator`` against a live two-worker fleet:
    per-host worker counts, queue depth, in-flight lease ages and the
    throughput counters, all through ``GET /metrics``."""

    def test_live_fleet_reports_hosts_and_leases(self, tmp_path):
        from repro.backends import CoordinatorServer, HttpQueueBackend
        from repro.telemetry import coordinator_status

        specs = [timing_spec(num_samples=16384, seed=s)
                 for s in (1, 2)]
        with CoordinatorServer(str(tmp_path)) as server:
            backend = HttpQueueBackend(
                server.url, spawn_workers=2,
                lease_timeout=300.0, idle_timeout=600.0,
            )
            runner = CampaignRunner(backend=backend)
            done = threading.Event()
            out = {}

            def drain():
                out["result"] = runner.run(specs)
                done.set()

            thread = threading.Thread(target=drain)
            saw_fleet = None
            saw_lease = None
            deadline = time.monotonic() + 60.0
            try:
                # Each spawned worker registers (``workers/<id>.json``)
                # on its first idle claim poll.  Wait for both before
                # any unit is submitted, so a short campaign cannot
                # drain before the second worker has shown up.
                while time.monotonic() < deadline:
                    by_host = coordinator_status(server.url)[
                        "workers_by_host"
                    ]
                    if sum(by_host.values()) >= 2:
                        saw_fleet = dict(by_host)
                        break
                    time.sleep(0.05)
                thread.start()
                while time.monotonic() < deadline:
                    doc = coordinator_status(server.url)
                    if sum(doc["workers_by_host"].values()) >= 2:
                        saw_fleet = dict(doc["workers_by_host"])
                    if doc.get("leases"):
                        saw_lease = doc["leases"][0]
                    if saw_fleet and saw_lease:
                        break
                    if done.is_set():
                        break
                    time.sleep(0.05)
            finally:
                if thread.is_alive():
                    thread.join(timeout=120)
                backend.close()
            assert done.is_set()
            assert saw_fleet is not None, \
                "never observed both workers serving"
            assert sum(saw_fleet.values()) == 2
            assert saw_lease is not None, \
                "never observed an in-flight lease"
            assert saw_lease["age"] >= 0
            assert saw_lease["unit"]
            # The endpoint carries the throughput counters.
            final = coordinator_status(server.url)
            assert final["results_posted"] >= len(specs)
            assert final["uptime"] > 0
            assert final["coordinator"] == server.url

    def test_status_cli_renders_coordinator_snapshot(self, tmp_path,
                                                     capsys):
        from repro.backends import CoordinatorServer
        from repro.cli import main

        with CoordinatorServer(str(tmp_path)) as server:
            assert main(["status", "--coordinator", server.url]) == 0
        out = capsys.readouterr().out
        assert f"fleet: {server.url}" in out
        assert "throughput:" in out
        assert "0 pending" in out

    def test_status_cli_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["status"]) == 2
        assert main([
            "status", "--queue-dir", "q", "--coordinator", "u",
        ]) == 2


class TestStatusQueueDirCli:
    def test_queue_dir_snapshot_renders(self, tmp_path, capsys):
        from repro.cli import main

        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        backend.submit(WorkUnit(unit_id="waiting",
                                spec=missrate_spec()))
        assert main(["status", "--queue-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 pending" in out
        backend.close()

    def test_json_mode_emits_document(self, tmp_path, capsys):
        from repro.cli import main

        WorkQueueBackend(str(tmp_path), idle_timeout=30).close()
        assert main([
            "status", "--queue-dir", str(tmp_path), "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tasks"] == 0
        assert doc["queue_dir"] == str(tmp_path)
