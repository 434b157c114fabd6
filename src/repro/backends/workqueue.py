"""The work queue: one dispatcher and one worker loop over two transports.

The queue is a directory (local disk for multi-process runs, a shared
filesystem for multi-host ones) with one subdirectory per lifecycle
stage::

    queue/
      tasks/    <unit_id>.json   pending unit (self-describing wire doc)
      leases/   <unit_id>.json   claimed unit; file mtime = heartbeat
      results/  <unit_id>.pkl    completed unit (payload or error)
      workers/  <worker_id>.*    worker heartbeat/log files (diagnostics)
      corrupt/  <file>.<ns>      quarantined torn documents (evidence)
      stop                       sentinel: workers drain and exit

Every file appears atomically (write to a temp name + fsync +
``os.replace``), so readers never observe a torn document no matter
when a writer dies.  **Claiming** is a single ``os.rename`` from
``tasks/`` to ``leases/`` — exactly one worker wins, no locks — and
the claimant's id and host are stamped into the lease before the doc
is handed out.

A :class:`QueueTransport` carries the queue's primitives (submit,
poll, collect, requeue, cancel, claim, heartbeat, publish).  Two
implement it: :class:`FsTransport` works on the directory itself, and
:class:`~repro.backends.coordinator.HttpTransport` makes each
primitive one call to a ``repro coordinator``, which runs the same
:class:`FsTransport` under its lock.  Everything above the transport
exists once: :class:`QueueBackend` (the dispatcher),
:func:`worker_loop` (``repro worker --queue`` and ``--coordinator``),
:class:`_Heartbeat` and :class:`WorkerLauncher`.

Failure semantics
-----------------

Every rule below holds on both transports (``tests/test_queue_faults``
runs each one over both).

* **Dead worker (expired lease).**  A claimed unit whose lease has not
  been touched for ``lease_timeout`` seconds is presumed dead.  The
  dispatcher first collects a result that landed for it (a slow
  worker, not a dead one, must never burn an attempt).  Otherwise it
  journals ``lease_expired``, checks the ``max_attempts`` budget, and
  requeues the unit with an incremented attempt.  The transport still
  refuses the requeue if a result lands in between, and the dispatcher
  collects that instead.  A lease older than half the timeout journals
  one ``heartbeat_gap`` early warning per attempt.
* **Corrupt result** (a torn write on the queue disk).  The document
  is quarantined to ``corrupt/`` (the evidence is kept, never
  re-parsed), ``quarantine`` is journaled with its path, the budget is
  checked, and the unit is requeued.  On an exhausted budget the
  requeue is withdrawn again and the error names the quarantined path.
* **Clean failure** (an execution raising) is not retried: the worker
  publishes the traceback and the dispatcher raises it, because a
  deterministic unit that failed once will fail again.
* **Lost lease.**  If a heartbeat finds the lease gone or owned by
  another worker (requeued, cancelled), the worker does not publish;
  the successor computes the identical payload.  Publishing is
  attempt-checked on both transports: a result is accepted only while
  the unit's current doc carries the attempt that computed it, so a
  slow predecessor's late post is dropped.
* **Heartbeat-thread death** aborts the unit too.  On the filesystem
  the dying thread also marks the lease doc ``heartbeat_alive: false``
  and forces its mtime stale, so the dispatcher requeues at once.
* **Cancel.**  Task, lease and any landed result are removed.  A
  worker still executing a cancelled unit loses its lease; a straggler
  result that lands anyway is swept at the next poll and at
  :meth:`QueueBackend.close`.
* **Over HTTP** three more faults exist, and none reaches the rules
  above: client calls ride out connection errors (a coordinator
  restarting) with capped, jittered exponential backoff for
  ``retry_timeout`` seconds; a result upload whose body arrives short
  writes nothing (the lease then expires as for a dead worker); and a
  claim the coordinator was killed inside, before stamping it, is
  handed out again when the coordinator restarts.

Payloads are pure functions of the wire doc, so any retry reproduces
the same bytes.  Workers are started with ``repro worker --queue DIR``
or ``--coordinator URL``, or spawned by the dispatcher itself
(``spawn_workers=N``, or the elastic ``max_workers`` pool on a
filesystem queue).
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.backends.base import (
    ExecutionBackend,
    WorkResult,
    WorkUnit,
    execute_unit,
    stamp_timings,
)
from repro.common.fsio import atomic_write_bytes
from repro.telemetry.events import make_event
from repro.telemetry.status import queue_dir_status

TASKS_DIR = "tasks"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
WORKERS_DIR = "workers"
#: Quarantine for truncated/corrupt task or result documents: the
#: evidence is preserved for diagnosis instead of being re-parsed (and
#: re-failed) on every dispatcher poll forever.
CORRUPT_DIR = "corrupt"
STOP_SENTINEL = "stop"

_SUBDIRS = (TASKS_DIR, LEASES_DIR, RESULTS_DIR, WORKERS_DIR, CORRUPT_DIR)


def _host_label() -> str:
    """This host's identity for worker ids and fleet stats.

    Worker ids generated from pids alone collide the moment two hosts
    share one queue directory (or coordinator): pid 4242's supervisor
    on host A and host B would both mint ``elastic-4242-0``, and their
    heartbeat/log/sentinel files would clobber each other.  Every
    generated id therefore carries the hostname, exactly as
    :func:`worker_loop`'s default worker id always has.
    """
    return socket.gethostname()


def ensure_queue_dirs(queue_dir: str) -> None:
    for name in _SUBDIRS:
        os.makedirs(os.path.join(queue_dir, name), exist_ok=True)


def _stop_path(queue_dir: str) -> str:
    return os.path.join(queue_dir, STOP_SENTINEL)


def _worker_info_path(queue_dir: str, worker_id: str) -> str:
    return os.path.join(queue_dir, WORKERS_DIR, worker_id + ".json")


def _worker_stop_path(queue_dir: str, worker_id: str) -> str:
    """Per-worker stop sentinel: retires *one* worker gracefully.

    Unlike the queue-wide ``stop`` sentinel, this drains a single
    worker — it finishes the unit it holds a lease on (the sentinel is
    only checked between claims) and exits, which is how the
    :class:`ElasticSupervisor` scales the pool down without ever
    abandoning a lease mid-unit.
    """
    return os.path.join(queue_dir, WORKERS_DIR, worker_id + ".stop")


def _task_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, TASKS_DIR, unit_id + ".json")


def _lease_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, LEASES_DIR, unit_id + ".json")


def _result_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, RESULTS_DIR, unit_id + ".pkl")


def _unlink(path: str) -> bool:
    """Remove ``path``; whether it existed."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """A queue JSON doc, or None when missing or torn."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def quarantine_file(queue_dir: str, path: str) -> Optional[str]:
    """Move a corrupt queue document into ``corrupt/``; its new path.

    The move is an ``os.replace`` within the queue filesystem —
    atomic, so no reader ever sees the document half-moved — with a
    timestamp suffix so repeated corruption of the same unit never
    overwrites earlier evidence.  Returns None when the file vanished
    before it could be moved (e.g. swept by a concurrent cancel).
    """
    corrupt_dir = os.path.join(queue_dir, CORRUPT_DIR)
    os.makedirs(corrupt_dir, exist_ok=True)
    target = os.path.join(
        corrupt_dir,
        f"{os.path.basename(path)}.{time.time_ns():x}",
    )
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    return target


def _touch(path: str) -> None:
    """Refresh a heartbeat file's mtime (separable for fault tests)."""
    os.utime(path)


def _claim_next(queue_dir: str) -> Optional[str]:
    """Claim one pending unit; its id, or None when the queue is idle.

    The claim is ``os.rename(tasks/X, leases/X)`` — atomic, exactly
    one winner per task file.  The fresh lease is touched immediately:
    the renamed file keeps the *task's* mtime, which may already be
    older than the lease timeout if the unit waited long for a free
    worker.
    """
    tasks_dir = os.path.join(queue_dir, TASKS_DIR)
    try:
        names = sorted(os.listdir(tasks_dir))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        unit_id = name[: -len(".json")]
        try:
            os.rename(
                os.path.join(tasks_dir, name),
                _lease_path(queue_dir, unit_id),
            )
        except FileNotFoundError:
            continue  # another worker won this one
        os.utime(_lease_path(queue_dir, unit_id))
        return unit_id
    return None


def _release_lease(lease_path: str, worker_id: str) -> None:
    """Remove the lease only if this worker still owns it.

    A unit re-enqueued while this worker was merely slow (not dead)
    may since have been claimed by another worker — that successor's
    fresh lease must survive the predecessor finishing late, or the
    successor would look dead while actively computing.

    The check-then-remove must not be a read followed by an unlink:
    between reading the owner and unlinking, an expiry re-enqueue plus
    a successor claim can land, and the unlink would then destroy the
    *successor's* live lease (it would sit leaseless while actively
    computing, look dead, and burn an attempt — or the budget).  So
    the release captures the file first with an atomic
    rename-to-tombstone, verifies ownership on the captured copy, and
    either completes the release (unlink the tombstone) or undoes the
    capture (rename it back) when the lease turned out to belong to
    someone else — including the not-yet-stamped window after a
    successor's claim, where the doc carries no owner at all.
    """
    tombstone = f"{lease_path}.releasing.{worker_id}"
    try:
        os.rename(lease_path, tombstone)
    except OSError:
        return  # already gone (expired/cancelled) — nothing to release
    try:
        with open(tombstone) as handle:
            owner = json.load(handle).get("worker")
    except (OSError, ValueError):
        owner = None  # torn/corrupt capture: treat as not provably ours
    if owner == worker_id:
        _unlink(tombstone)
        return
    # Someone else's lease (or an unstamped claim): restore it.  The
    # capture window is a few syscalls wide; a successor heartbeat
    # finding the path momentarily missing reads its lease as lost.
    # If the successor re-wrote the path meanwhile (its ownership
    # stamp), the newer doc wins and the stale capture is dropped
    # instead of renamed over it.
    try:
        if os.path.exists(lease_path):
            os.unlink(tombstone)
        else:
            os.rename(tombstone, lease_path)
    except OSError:
        pass


# -- transports --------------------------------------------------------------


class QueueTransport:
    """The queue primitives the dispatcher and the workers build on.

    Dispatcher side: :meth:`submit`, :meth:`poll`, :meth:`read_result`,
    :meth:`delete_result`, :meth:`requeue`, :meth:`cancel`,
    :meth:`set_stop` and :meth:`stats`.  Worker side: :meth:`claim`,
    :meth:`heartbeat`, :meth:`post_result` and :meth:`mark_dead`.
    Docs are plain JSON dicts and results pickled bytes, so the HTTP
    transport forwards them unchanged.
    """

    #: ``repro worker`` arguments that join this queue.
    worker_args: List[str]

    def describe(self) -> str:
        """What this transport serves, for log lines."""
        raise NotImplementedError

    def spawn_log_dir(self) -> str:
        """Where locally spawned workers write their logs."""
        raise NotImplementedError

    def submit(self, doc: Dict[str, Any]) -> None:
        """Enqueue a task doc, sweeping the id's stale files first
        (unit ids are deterministic, so a reused queue may hold an
        earlier campaign's leftovers under the same id)."""
        raise NotImplementedError

    def poll(
        self, unit_ids: Sequence[str], cancelled: Sequence[str]
    ) -> Dict[str, Any]:
        """One dispatcher round: ``ready`` (ids with a result),
        ``lease_ages`` (seconds, None when unclaimed) and ``swept``
        (cancelled ids whose straggler result was removed)."""
        raise NotImplementedError

    def read_result(self, unit_id: str) -> Optional[bytes]:
        """The result document's bytes, or None when absent."""
        raise NotImplementedError

    def delete_result(self, unit_id: str) -> bool:
        """Consume a result plus any task/lease litter for the id."""
        raise NotImplementedError

    def requeue(
        self, unit_id: str, doc: Dict[str, Any], quarantine: bool
    ) -> Dict[str, Any]:
        """Replace the unit's lease by a fresh task doc.

        Refused (``has_result``) when a result has landed — unless
        ``quarantine``, which moves that (corrupt) result to
        ``corrupt/`` first and reports its path as ``quarantined``.
        """
        raise NotImplementedError

    def cancel(self, unit_ids: Sequence[str]) -> Dict[str, Dict[str, bool]]:
        """Remove each unit's task, lease and result; which existed."""
        raise NotImplementedError

    def set_stop(self, stopped: bool) -> None:
        """Write (or remove) the queue-wide stop sentinel."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Queue depths and live workers per host (``GET /stats``)."""
        raise NotImplementedError

    def claim(self, worker_id: str, host: str) -> Dict[str, Any]:
        """The next task doc (``unit``, stamped with ``worker`` and
        ``host``), or a ``stop``/``retire`` verdict."""
        raise NotImplementedError

    def heartbeat(self, unit_id: str, worker_id: str) -> bool:
        """Refresh the lease; False once it is gone or another
        worker's.  Raises OSError when the answer is unknown."""
        raise NotImplementedError

    def post_result(
        self, unit_id: str, worker_id: str, attempt: int, body: bytes
    ) -> bool:
        """Publish a result; False when ``attempt`` is stale, the unit
        is gone or a result already landed."""
        raise NotImplementedError

    def mark_dead(self, unit_id: str) -> None:
        """Record that this worker's heartbeat thread died."""
        raise NotImplementedError


class FsTransport(QueueTransport):
    """The queue directory itself.

    Each method is a short sequence of atomic file operations.  The
    filesystem backend and worker call it directly; the coordinator
    (:class:`~repro.backends.coordinator.CoordinatorState`) calls it
    under one lock, which makes each compound step — the attempt check
    and the result write, a requeue and the result it checks for —
    atomic over HTTP too.  It keeps no state outside the directory, so
    a restarted coordinator rebuilds its whole world from disk.
    """

    def __init__(self, queue_dir: str, *, worker_fresh: float = 5.0) -> None:
        self.queue_dir = queue_dir
        #: Seconds within which a ``workers/<id>.json`` mtime counts
        #: as a live idle worker in :meth:`stats` (busy workers
        #: advertise through their stamped lease instead).
        self.worker_fresh = worker_fresh
        self.worker_args = ["--queue", queue_dir]
        ensure_queue_dirs(queue_dir)

    def describe(self) -> str:
        return f"queue {self.queue_dir}"

    def spawn_log_dir(self) -> str:
        return os.path.join(self.queue_dir, WORKERS_DIR)

    def _paths(self, unit_id: str) -> Tuple[str, str, str]:
        return (
            _task_path(self.queue_dir, unit_id),
            _lease_path(self.queue_dir, unit_id),
            _result_path(self.queue_dir, unit_id),
        )

    # -- dispatcher side -----------------------------------------------------

    def submit(self, doc: Dict[str, Any]) -> None:
        unit_id = str(doc["unit_id"])
        for stale in self._paths(unit_id):
            _unlink(stale)
        atomic_write_bytes(
            _task_path(self.queue_dir, unit_id), json.dumps(doc).encode()
        )

    def poll(
        self, unit_ids: Sequence[str], cancelled: Sequence[str]
    ) -> Dict[str, Any]:
        # One result probe and one lease stat per outstanding unit:
        # this runs every poll interval for the whole campaign.
        ready: List[str] = []
        lease_ages: Dict[str, Optional[float]] = {}
        now = time.time()
        for unit_id in unit_ids:
            if os.path.exists(_result_path(self.queue_dir, unit_id)):
                ready.append(unit_id)
            try:
                mtime = os.stat(_lease_path(self.queue_dir, unit_id)).st_mtime
                lease_ages[unit_id] = now - mtime
            except OSError:
                lease_ages[unit_id] = None
        swept = [
            unit_id for unit_id in cancelled
            if _unlink(_result_path(self.queue_dir, unit_id))
        ]
        return {"ready": ready, "lease_ages": lease_ages, "swept": swept}

    def read_result(self, unit_id: str) -> Optional[bytes]:
        try:
            with open(_result_path(self.queue_dir, unit_id), "rb") as f:
                return f.read()
        except OSError:
            return None

    def delete_result(self, unit_id: str) -> bool:
        task, lease, result = self._paths(unit_id)
        removed = _unlink(result)
        _unlink(lease)
        _unlink(task)
        return removed

    def requeue(
        self, unit_id: str, doc: Dict[str, Any], quarantine: bool
    ) -> Dict[str, Any]:
        task, lease, result = self._paths(unit_id)
        quarantined = None
        if os.path.exists(result):
            if not quarantine:
                return {"requeued": False, "has_result": True}
            quarantined = quarantine_file(self.queue_dir, result)
        _unlink(lease)
        atomic_write_bytes(task, json.dumps(doc).encode())
        return {
            "requeued": True, "has_result": False,
            "quarantined": quarantined,
        }

    def cancel(self, unit_ids: Sequence[str]) -> Dict[str, Dict[str, bool]]:
        removed: Dict[str, Dict[str, bool]] = {}
        for unit_id in unit_ids:
            task, lease, result = self._paths(unit_id)
            removed[unit_id] = {
                "task": _unlink(task),
                "lease": _unlink(lease),
                "result": _unlink(result),
            }
        return removed

    def set_stop(self, stopped: bool) -> None:
        if stopped:
            atomic_write_bytes(_stop_path(self.queue_dir), b"")
        else:
            _unlink(_stop_path(self.queue_dir))

    def stats(self) -> Dict[str, Any]:
        doc = queue_dir_status(
            self.queue_dir, heartbeat_fresh=self.worker_fresh
        )
        return {
            "queue_dir": self.queue_dir,
            "tasks": doc["tasks"],
            "leases": len(doc["leases"]),
            "results": doc["results"],
            "stopped": doc["stopped"],
            "workers_by_host": doc["workers_by_host"],
        }

    # -- worker side ---------------------------------------------------------

    def claim(self, worker_id: str, host: str) -> Dict[str, Any]:
        info_path = _worker_info_path(self.queue_dir, worker_id)
        stop = os.path.exists(_stop_path(self.queue_dir))
        if stop or os.path.exists(
            _worker_stop_path(self.queue_dir, worker_id)
        ):
            _unlink(_worker_stop_path(self.queue_dir, worker_id))
            _unlink(info_path)
            return {"unit": None, "stop": stop, "retire": not stop}
        idle = {"unit": None, "stop": False, "retire": False}
        # The claim poll doubles as the worker's idle liveness beat.
        try:
            os.utime(info_path)
        except OSError:
            atomic_write_bytes(info_path, json.dumps({
                "worker_id": worker_id, "host": host,
                "started": time.time(),
            }).encode())
        unit_id = _claim_next(self.queue_dir)
        if unit_id is None:
            return idle
        lease_path = _lease_path(self.queue_dir, unit_id)
        doc = _read_json(lease_path)
        if doc is None:
            # The claim lost a race with a requeue or cancel (the
            # renamed task kept its old, possibly stale, mtime).
            return idle
        # Stamp ownership before the doc is handed out, so a slow
        # predecessor finishing late cannot tear down this lease.
        doc["worker"] = worker_id
        doc["host"] = host
        atomic_write_bytes(lease_path, json.dumps(doc).encode())
        return dict(idle, unit=doc)

    def heartbeat(self, unit_id: str, worker_id: str) -> bool:
        lease_path = _lease_path(self.queue_dir, unit_id)
        try:
            with open(lease_path) as handle:
                owner = json.load(handle).get("worker")
            if owner != worker_id:
                return False
            _touch(lease_path)
        except (FileNotFoundError, ValueError):
            return False
        return True

    def post_result(
        self, unit_id: str, worker_id: str, attempt: int, body: bytes
    ) -> bool:
        # Accepted only while no result is on disk and the unit's
        # current doc — its lease, or its task file if it was
        # requeued but not yet re-claimed — carries the posting
        # attempt.  A requeue increments the attempt, so a slow
        # predecessor's late post is dropped without touching the
        # successor's lease; a unit with no doc at all was cancelled
        # or already collected.
        task, lease, result = self._paths(unit_id)
        if os.path.exists(result):
            return False
        doc = _read_json(lease) or _read_json(task)
        if doc is None or int(doc.get("attempt", 1)) != attempt:
            return False
        atomic_write_bytes(result, body)
        _release_lease(lease, worker_id)
        return True

    def mark_dead(self, unit_id: str) -> None:
        """Mark the lease doc ``heartbeat_alive: false`` and force its
        mtime stale, so the dispatcher requeues on its next poll
        instead of waiting out the whole lease timeout."""
        lease_path = _lease_path(self.queue_dir, unit_id)
        try:
            with open(lease_path) as handle:
                doc = json.load(handle)
            doc["heartbeat_alive"] = False
            atomic_write_bytes(lease_path, json.dumps(doc).encode())
            # The rewrite above refreshed the mtime; age it again.
            os.utime(lease_path, (0.0, 0.0))
        except (OSError, ValueError):
            pass  # best effort — the stale mtime will expire eventually


# -- worker side -------------------------------------------------------------


class _Heartbeat:
    """Keeps one claimed unit's lease fresh on a background thread
    while it runs, so the dispatcher can tell a slow worker from a
    dead one.

    A beat ends one of three ways.  The transport answers that the
    lease is gone or another worker's: :attr:`lost` is set and the
    beating stops.  It raises OSError (a filesystem hiccup, a
    coordinator restarting): the beat is skipped, because giving up
    would make a healthy worker look dead.  Anything else kills the
    thread, and that death is not silent: :attr:`failed` is set and
    the transport marks the lease dead.  On either verdict the worker
    does not publish; the requeued attempt recomputes the identical
    payload.
    """

    def __init__(
        self,
        transport: QueueTransport,
        unit_id: str,
        worker_id: str,
        interval: float,
    ) -> None:
        self._transport = transport
        self._unit_id = unit_id
        self._worker_id = worker_id
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        #: Set when the lease is no longer this worker's.
        self.lost = threading.Event()
        #: Set when the beat thread died unexpectedly: the lease can
        #: no longer be trusted to stay fresh.
        self.failed = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._interval):
                try:
                    alive = self._transport.heartbeat(
                        self._unit_id, self._worker_id
                    )
                except OSError:
                    continue
                if not alive:
                    self.lost.set()
                    return
        except Exception:
            self.failed.set()
            self._transport.mark_dead(self._unit_id)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def run_unit_doc(doc: Dict[str, Any], worker_id: str) -> Dict[str, Any]:
    """Execute one wire-form unit doc; the result doc to publish.

    Kind-module side-effect import, payload computation, and
    clean-failure capture — so a unit doc produces byte-identical
    result docs no matter which transport delivered it.
    """
    result: Dict[str, Any] = {
        "worker": worker_id,
        "attempt": int(doc.get("attempt", 1)),
    }
    started, cpu0 = time.time(), time.process_time()
    try:
        module = doc.get("kind_module")
        if module:
            # Registers kinds defined outside the built-ins (same
            # trick as pickling run-fn references to a process pool:
            # importing the module re-runs its register_experiment
            # side effects).
            importlib.import_module(module)
        payload, elapsed = execute_unit(WorkUnit.from_doc(doc))
        # Phase timings are execution-only metadata riding next to
        # the payload (like EXECUTION_PARAMS stays out of spec
        # identity): telemetry reads them, payload bytes never
        # depend on them.
        result.update(
            ok=True, payload=payload, elapsed=elapsed,
            timings=stamp_timings(started, cpu0),
        )
    except Exception:
        result.update(ok=False, error=traceback.format_exc())
    return result


def worker_loop(
    transport: QueueTransport,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    max_idle: Optional[float] = None,
    echo: bool = True,
) -> int:
    """The ``repro worker`` main loop; returns units executed.

    Claims and executes units until the claim answers ``stop`` (the
    queue-wide sentinel) or ``retire`` (this worker's own
    ``workers/<id>.stop``), or — when ``max_idle`` is set — no work
    arrived for that many seconds.  Both sentinels are checked only
    between units, so a draining worker always finishes the lease it
    holds.  Each claim also refreshes the worker's ``workers/<id>.json``
    info file, its liveness beat while idle (a busy worker's liveness
    shows in its lease).  Workers are stateless: everything a unit
    needs rides in its task doc, so any number of workers on any
    hosts can serve one campaign.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    host = _host_label()
    if echo:
        print(f"[worker {worker_id}] serving {transport.describe()}",
              file=sys.stderr, flush=True)
    executed = 0
    idle_since = time.monotonic()
    while True:
        answer = transport.claim(worker_id, host)
        if answer["stop"] or answer["retire"]:
            if echo and answer["retire"]:
                print(f"[worker {worker_id}] retiring on request",
                      file=sys.stderr, flush=True)
            break
        doc = answer["unit"]
        if doc is None:
            if (max_idle is not None
                    and time.monotonic() - idle_since > max_idle):
                break
            time.sleep(poll_interval)
            continue
        unit_id = str(doc["unit_id"])
        heartbeat = _Heartbeat(
            transport, unit_id, worker_id,
            float(doc.get("heartbeat", 5.0)),
        )
        with heartbeat:
            result = run_unit_doc(doc, worker_id)
        if heartbeat.lost.is_set() or heartbeat.failed.is_set():
            # The lease was taken away (requeued, cancelled) or we
            # stopped keeping it alive: a successor owns the unit.
            if echo:
                print(f"[worker {worker_id}] {unit_id}: aborted "
                      "(lease lost)", file=sys.stderr, flush=True)
            continue
        accepted = transport.post_result(
            unit_id, worker_id, result["attempt"],
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )
        if echo:
            verdict = ("done" if result["ok"] else "FAILED") \
                if accepted else "dropped (stale attempt)"
            print(f"[worker {worker_id}] {unit_id}: {verdict}",
                  file=sys.stderr, flush=True)
        executed += 1
        idle_since = time.monotonic()
    if echo:
        print(f"[worker {worker_id}] exiting after {executed} unit(s)",
              file=sys.stderr, flush=True)
    return executed


# -- elastic worker supervision ----------------------------------------------


def _stop_proc(proc: subprocess.Popen, deadline: float) -> None:
    """Wait for a worker process until ``deadline`` (monotonic), then
    escalate terminate → kill.  The one stop ladder every teardown
    path shares."""
    try:
        proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


#: Bytes of log tail read per file for crash diagnostics.  Worker logs
#: grow unbounded on long campaigns; a diagnostic must never slurp a
#: multi-gigabyte log into memory to show its last 20 lines.
_LOG_TAIL_BYTES = 4096


def _log_tails(paths: Iterable[str], lines: int = 20) -> str:
    """The last ``lines`` of each worker log, joined for diagnostics.

    Reads only the final :data:`_LOG_TAIL_BYTES` of each file — the
    first line of a mid-file seek may be torn, which is fine for a
    crash tail.
    """
    tails = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - _LOG_TAIL_BYTES))
                data = handle.read(_LOG_TAIL_BYTES)
        except OSError:
            continue
        text = data.decode("utf-8", errors="replace")
        tails.append(
            f"--- {path} ---\n"
            + "\n".join(text.splitlines()[-lines:])
        )
    return "\n".join(tails)


def _cleanup_worker_files(queue_dir: str, worker_id: str) -> None:
    """Remove a gone worker's sentinel + heartbeat litter."""
    for path in (
        _worker_stop_path(queue_dir, worker_id),
        _worker_info_path(queue_dir, worker_id),
    ):
        try:
            os.unlink(path)
        except OSError:
            pass


def _spawn_worker_process(
    worker_args: Sequence[str], worker_id: str, poll_interval: float,
    log_dir: str,
) -> "tuple[subprocess.Popen, str]":
    """Start one local ``repro worker <worker_args>`` subprocess.

    Returns ``(process, log path)``; the worker's stdout/stderr land in
    ``<log_dir>/<id>.log`` for post-mortem diagnostics.
    """
    os.makedirs(log_dir, exist_ok=True)
    log_path = os.path.join(log_dir, worker_id + ".log")
    env = dict(os.environ)
    # Guarantee the child resolves `repro` exactly as we do, even when
    # the package is importable only via sys.path mutations (pytest
    # rootdir conftest, PYTHONPATH=src invocations).
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    log = open(log_path, "ab")
    try:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", *worker_args,
                "--worker-id", worker_id,
                "--poll", str(poll_interval),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    finally:
        log.close()  # the child holds its own handle
    return proc, log_path


class WorkerLauncher:
    """Starts local ``repro worker`` subprocesses for one queue.

    ``worker_args`` picks the transport the workers join —
    ``["--queue", DIR]`` or ``["--coordinator", URL]``, a transport's
    :attr:`~QueueTransport.worker_args` — and ``log_dir`` receives
    their logs.  The :class:`ElasticSupervisor` decides *when* the
    pool grows or drains from queue pressure and delegates *how* a
    worker comes to exist to its launcher; :attr:`host` labels where
    the workers run, so fleet stats can aggregate per host.
    """

    def __init__(self, worker_args: Sequence[str], log_dir: str) -> None:
        self.worker_args = list(worker_args)
        self.log_dir = log_dir
        #: Host label the launched workers run on (fleet-stats key).
        self.host = _host_label()

    def launch(
        self, worker_id: str, poll_interval: float
    ) -> "tuple[subprocess.Popen, str]":
        """Start one worker; ``(process handle, log path)``."""
        return _spawn_worker_process(
            self.worker_args, worker_id, poll_interval, self.log_dir
        )


@dataclass
class ElasticStats:
    """Lifetime counters of one :class:`ElasticSupervisor`."""

    spawned: int = 0
    retired: int = 0
    peak_workers: int = 0


class ElasticSupervisor:
    """Scales local ``repro worker`` processes with queue pressure.

    A fixed worker pool wastes one of two ways: too few workers leave
    pending units queueing behind a long tail, too many burn idle
    processes once an early-stopped campaign's cancels drain the
    queue.  The supervisor watches the queue directory and keeps the
    spawned pool between ``min_workers`` and ``max_workers``:

    * **demand** — pending task files plus leases not attributably
      held by someone else (a lease stamped with an external worker's
      id is already being served and needs no new worker);
    * **serving** — the supervisor's own live workers plus externally
      started workers with a fresh ``workers/<id>.json`` heartbeat
      (busy externals advertise liveness through their stamped lease
      instead);
    * **scale up** whenever units sit unclaimed and the pool is below
      ``min(demand, max_workers)`` — and always back up to
      ``min_workers``;
    * **scale down** — only after the queue has stayed drained for
      ``idle_grace`` seconds — by writing *per-worker* stop sentinels
      (``workers/<id>.stop``): a retiring worker finishes the unit it
      holds a lease on and exits, so retirement never abandons a
      lease mid-unit.

    Run it on a background thread (:meth:`start`/:meth:`shutdown`,
    what :class:`QueueBackend` does) or drive :meth:`tick`
    directly for deterministic tests.  Scaling only changes *when*
    units execute, never what they compute — payloads stay
    bit-identical at any pool size.
    """

    def __init__(
        self,
        queue_dir: str,
        *,
        min_workers: int = 1,
        max_workers: int = 4,
        poll_interval: float = 0.2,
        idle_grace: float = 2.0,
        worker_poll: float = 0.2,
        heartbeat_fresh: float = 2.0,
        clock=time.monotonic,
        launcher: Optional[WorkerLauncher] = None,
        telemetry=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0 <= min_workers <= max_workers:
            raise ValueError(
                "need 0 <= min_workers <= max_workers "
                f"(got {min_workers}..{max_workers})"
            )
        self.queue_dir = queue_dir
        #: How new workers are started (and on which host) — the
        #: fleet seam; defaults to local ``repro worker --queue``
        #: subprocesses.
        self.launcher = (
            launcher if launcher is not None
            else WorkerLauncher(
                ["--queue", queue_dir],
                os.path.join(queue_dir, WORKERS_DIR),
            )
        )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.idle_grace = idle_grace
        self.worker_poll = worker_poll
        self.heartbeat_fresh = heartbeat_fresh
        self.clock = clock
        #: Optional :class:`repro.telemetry.sink.TelemetrySink`:
        #: scaling decisions (with their queue-pressure inputs) and
        #: worker spawn/retire/crash events go here when set.
        self.telemetry = telemetry
        ensure_queue_dirs(queue_dir)
        self.stats = ElasticStats()
        #: Workers that exited without being asked to retire
        #: (lifetime count, for reporting).
        self.abnormal_exits = 0
        #: ``(monotonic time, worker id)`` of recent abnormal exits —
        #: the crash-*loop* signal (a crash an hour ago is not a
        #: loop), with the ids for the diagnosis message.
        self._abnormal_at: List[Tuple[float, str]] = []
        #: Seconds within which repeated crashes count as a loop.
        self.crash_window = 60.0
        #: When tick() started failing (None = healthy) + the last
        #: traceback, so persistent breakage has a diagnosis.  The
        #: judgment is time-based: a transient NFS/EIO blip spans a
        #: few 0.2s ticks and must not read as "cannot scale".
        self._tick_failing_since: Optional[float] = None
        self.tick_failure_grace = 30.0
        self.last_error: Optional[str] = None
        self._procs: Dict[str, subprocess.Popen] = {}
        self._retiring: Dict[str, subprocess.Popen] = {}
        self._log_paths: Dict[str, str] = {}
        self._seq = 0
        self._surplus_since: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Guards the pool dicts: the supervisor's own loop thread and
        #: the dispatcher thread (check_health, live_worker_count)
        #: both reap.
        self._lock = threading.RLock()

    # -- observation ---------------------------------------------------------

    def _count_dir(self, name: str) -> int:
        try:
            return sum(
                1
                for entry in os.listdir(os.path.join(self.queue_dir, name))
                if entry.endswith(".json")
            )
        except FileNotFoundError:
            return 0

    def queue_depth(self) -> int:
        """Pending (unclaimed) units waiting for a worker."""
        return self._count_dir(TASKS_DIR)

    def lease_count(self) -> int:
        """Units currently executing somewhere."""
        return self._count_dir(LEASES_DIR)

    def _external_lease_count(self) -> int:
        """Leases stamped with an external worker's id.

        Those units are already being served by capacity we do not
        manage — counting them as demand would spawn a redundant local
        worker per busy external one.  A lease not yet stamped (the
        claim-to-stamp window) stays conservative: it counts as
        demand.
        """
        own = set(self._procs) | set(self._retiring)
        leases_dir = os.path.join(self.queue_dir, LEASES_DIR)
        try:
            names = os.listdir(leases_dir)
        except FileNotFoundError:
            return 0
        external = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(leases_dir, name)) as handle:
                    owner = json.load(handle).get("worker")
            except (OSError, ValueError):
                continue  # torn read/claim race: treat as demand
            if owner and owner not in own:
                external += 1
        return external

    def _fresh_externals(self) -> Dict[str, str]:
        """``{worker id: host}`` of externally-started workers with a
        fresh idle heartbeat (busy externals advertise liveness
        through their stamped lease instead)."""
        own = set(self._procs) | set(self._retiring)
        workers_dir = os.path.join(self.queue_dir, WORKERS_DIR)
        try:
            names = os.listdir(workers_dir)
        except FileNotFoundError:
            return {}
        fresh: Dict[str, str] = {}
        now = time.time()
        for name in names:
            if not name.endswith(".json"):
                continue
            worker_id = name[: -len(".json")]
            if worker_id in own:
                continue
            path = os.path.join(workers_dir, name)
            try:
                age = now - os.stat(path).st_mtime
            except FileNotFoundError:
                continue
            if age > self.heartbeat_fresh:
                continue
            try:
                with open(path) as handle:
                    host = json.load(handle).get("host") or "external"
            except (OSError, ValueError):
                host = "external"
            fresh[worker_id] = host
        return fresh

    def _fresh_external_workers(self) -> int:
        """Externally-started workers with a fresh idle heartbeat."""
        return len(self._fresh_externals())

    def live_worker_count(self) -> int:
        """Workers believed to be serving the queue right now (the
        supervisor's own pool plus heartbeat-fresh externals)."""
        with self._lock:
            self._reap()
            alive = sum(
                1 for proc in self._retiring.values()
                if proc.poll() is None
            )
            return len(self._procs) + alive \
                + self._fresh_external_workers()

    def workers_by_host(self) -> Dict[str, int]:
        """Live workers aggregated per host: the supervisor's own pool
        (every worker on :attr:`launcher` ``.host``) plus
        heartbeat-fresh externals under the host their info doc
        advertises.  The fleet operator's gauge — on a shared queue it
        shows each joined machine's contribution, not one number."""
        with self._lock:
            self._reap()
            counts: Dict[str, int] = {}
            own = len(self._procs) + sum(
                1 for proc in self._retiring.values()
                if proc.poll() is None
            )
            if own:
                counts[self.launcher.host] = own
            for host in self._fresh_externals().values():
                counts[host] = counts.get(host, 0) + 1
            return counts

    # -- pool mutation -------------------------------------------------------

    def _spawn_one(self) -> None:
        # Host-qualified: supervisors on two hosts sharing one queue
        # (same pid by coincidence) must never mint the same id.
        worker_id = (
            f"elastic-{self.launcher.host}-{os.getpid()}-{self._seq}"
        )
        self._seq += 1
        proc, log_path = self.launcher.launch(
            worker_id, self.worker_poll
        )
        self._procs[worker_id] = proc
        self._log_paths[worker_id] = log_path
        self.stats.spawned += 1
        self.stats.peak_workers = max(
            self.stats.peak_workers, len(self._procs)
        )
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "worker_spawn",
                worker=worker_id, host=self.launcher.host,
            ))

    def _retire_one(self) -> None:
        """Drain the newest worker via its per-worker stop sentinel."""
        worker_id = next(reversed(self._procs))
        proc = self._procs.pop(worker_id)
        atomic_write_bytes(
            _worker_stop_path(self.queue_dir, worker_id), b""
        )
        self._retiring[worker_id] = proc
        self.stats.retired += 1
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "worker_retire",
                worker=worker_id, host=self.launcher.host,
            ))

    def _reap(self) -> None:
        """Collect exited processes and their queue-side litter.

        Caller holds ``_lock`` (both the supervisor loop and the
        dispatcher thread reap; unsynchronised deletes would race).
        """
        for worker_id, proc in list(self._retiring.items()):
            if proc.poll() is None:
                continue
            del self._retiring[worker_id]
            _cleanup_worker_files(self.queue_dir, worker_id)
        for worker_id, proc in list(self._procs.items()):
            if proc.poll() is None:
                continue
            # Exited without being retired: idle-timeout or a crash.
            del self._procs[worker_id]
            if proc.returncode != 0:
                self.abnormal_exits += 1
                self._abnormal_at.append((self.clock(), worker_id))
                if self.telemetry is not None:
                    self.telemetry.emit(make_event(
                        "worker_crash",
                        worker=worker_id, host=self.launcher.host,
                        returncode=proc.returncode,
                    ))
            # A fresh leftover heartbeat must not read as an external
            # worker and suppress the replacement spawn.
            _cleanup_worker_files(self.queue_dir, worker_id)

    # -- the scaling decision ------------------------------------------------

    def tick(self) -> None:
        """One observe-and-scale step (idempotent, any call rate)."""
        with self._lock:
            self._reap()
            pending = self.queue_depth()
            busy = self.lease_count() - self._external_lease_count()
            demand = pending + max(0, busy)
            own = len(self._procs)
            target = min(
                self.max_workers,
                max(self.min_workers,
                    demand - self._fresh_external_workers()),
            )
            if own < target and (pending > 0 or own < self.min_workers):
                self._emit_scale("spawn", pending, busy, own, target)
                for _ in range(target - own):
                    self._spawn_one()
                self._surplus_since = None
            elif own > target and pending == 0:
                # Sustained surplus only: a gap between two cells of
                # one campaign must not trigger a spawn/retire thrash.
                now = self.clock()
                if self._surplus_since is None:
                    self._surplus_since = now
                elif now - self._surplus_since >= self.idle_grace:
                    self._emit_scale(
                        "retire", pending, busy, own, target
                    )
                    for _ in range(own - target):
                        self._retire_one()
                    self._surplus_since = None
            else:
                self._surplus_since = None

    def _emit_scale(
        self, action: str, pending: int, busy: int, own: int,
        target: int,
    ) -> None:
        """Journal one scaling decision with the queue-pressure
        inputs that drove it — the record feedback-controlled
        scheduling will learn from."""
        if self.telemetry is None:
            return
        self.telemetry.emit(make_event(
            "scale",
            action=action, pending=pending, busy=busy,
            own=own, target=target,
        ))

    def check_health(self) -> None:
        """Raise when the pool demonstrably cannot serve.

        The dispatcher calls this while units are outstanding.  As
        long as *anyone* is serving — an own worker, a draining
        retiree, a fresh external — nothing raises: in-flight work
        must never be failed over a scaling problem.  With nobody
        serving, two failure classes surface instead of letting the
        campaign sit until the idle watchdog fires with a misleading
        message:

        * a **crash loop** — ≥3 abnormal worker exits within
          ``crash_window`` seconds (isolated crashes hours apart
          recover via respawn and must *not* abort a healthy
          campaign);
        * **scaling itself broken** — tick() failing continuously for
          ``tick_failure_grace`` seconds (spawn raising: fork
          pressure, unwritable ``workers/``, broken interpreter
          path), which produces no processes and therefore no
          abnormal exits; the stored traceback is the diagnosis.  A
          transient filesystem blip spanning a few ticks stays below
          the grace and is tolerated, matching the heartbeat's
          own forgive-transients rule.
        """
        with self._lock:
            self._reap()
            now = self.clock()
            alive_retiring = any(
                proc.poll() is None for proc in self._retiring.values()
            )
            if self._procs or alive_retiring \
                    or self._fresh_external_workers():
                # Someone is still serving: neither a broken scale-up
                # nor past crashes justify failing in-flight work.
                return
            if (self._tick_failing_since is not None
                    and now - self._tick_failing_since
                    >= self.tick_failure_grace):
                raise RuntimeError(
                    "elastic supervisor cannot scale the pool "
                    f"(tick failing for "
                    f"{now - self._tick_failing_since:.0f}s); "
                    "last error:\n" + (self.last_error or "<unknown>")
                )
            self._abnormal_at = [
                entry for entry in self._abnormal_at
                if now - entry[0] <= self.crash_window
            ]
            if len(self._abnormal_at) < 3:
                return
            # Ids are host-qualified at mint time (elastic-<host>-…),
            # so on a shared multi-host queue the message names which
            # machine's workers are dying — and the tails shown are
            # the crashed workers' own logs, not just the newest.
            crashed = [worker for _, worker in self._abnormal_at]
            raise RuntimeError(
                f"elastic supervisor: {len(self._abnormal_at)} "
                f"worker(s) crashed within {self.crash_window:.0f}s "
                f"and none are running: {', '.join(crashed)}\n"
                + _log_tails([
                    self._log_paths[worker]
                    for worker in crashed[-3:]
                    if worker in self._log_paths
                ])
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ElasticSupervisor":
        """Run :meth:`tick` on a daemon thread until :meth:`shutdown`."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _guarded_tick(self) -> None:
        """One tick that records failures instead of raising.

        Transient filesystem trouble must not kill the scaling loop;
        *persistent* breakage (spawn raising every time) is counted
        and surfaced — with its traceback — by :meth:`check_health`,
        because a spawn that never produces a process also never
        produces the abnormal exits the crash-loop check looks for.
        """
        try:
            self.tick()
        except Exception:
            with self._lock:
                if self._tick_failing_since is None:
                    self._tick_failing_since = self.clock()
                self.last_error = traceback.format_exc()
        else:
            with self._lock:
                self._tick_failing_since = None

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self._guarded_tick()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop scaling and tear the pool down (idempotent).

        The caller is expected to have written the queue-wide stop
        sentinel first (``QueueBackend.close`` does), so workers
        drain; stragglers are terminated, then killed.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        with self._lock:
            procs = {**self._procs, **self._retiring}
            self._procs = {}
            self._retiring = {}
        deadline = time.monotonic() + timeout
        for worker_id, proc in procs.items():
            _stop_proc(proc, deadline)
            _cleanup_worker_files(self.queue_dir, worker_id)


# -- dispatcher side ---------------------------------------------------------


class QueueBackend(ExecutionBackend):
    """Dispatches units through a :class:`QueueTransport` to ``repro
    worker`` processes, with lease-based failure recovery (see the
    module's *Failure semantics*).

    Build it through :class:`WorkQueueBackend` (a queue directory) or
    :class:`~repro.backends.coordinator.HttpQueueBackend` (a
    coordinator URL); both take the parameters below.

    Parameters
    ----------
    lease_timeout:
        Seconds without a heartbeat after which a claimed unit's
        worker is presumed dead and the unit is re-enqueued.
    max_attempts:
        Total tries (1 + re-enqueues) a unit gets before the campaign
        fails; guards against a unit that keeps killing workers.
    spawn_workers:
        Convenience: start this many local ``repro worker`` processes
        on the same transport alongside the dispatcher; they are
        stopped again by :meth:`close`.  A *fixed* pool — for one that
        scales with queue pressure use ``max_workers`` instead (the
        two are mutually exclusive).
    idle_timeout:
        Optional watchdog: raise if no completion arrived *and* no
        live lease was observed for this many seconds (e.g. nobody
        ever started a worker).  None waits forever.
    min_workers / max_workers:
        Elastic mode (filesystem queues): attach an
        :class:`ElasticSupervisor` that keeps the spawned pool between
        the two bounds, growing it while units queue and draining
        surplus workers (via per-worker stop sentinels, so a retiring
        worker finishes its lease) once the queue empties.
        ``max_workers`` enables the mode; ``min_workers`` defaults
        to 1.
    telemetry:
        Optional :class:`repro.telemetry.sink.TelemetrySink` for the
        fault-recovery events (heartbeat gaps, lease expiries,
        requeues, quarantines, worker spawns); shared with the
        attached elastic supervisor.
    """

    def __init__(
        self,
        transport: QueueTransport,
        *,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        spawn_workers: int = 0,
        idle_timeout: Optional[float] = None,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        elastic_idle_grace: float = 2.0,
        telemetry=None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if min_workers is not None and max_workers is None:
            raise ValueError("min_workers needs max_workers (elastic mode)")
        if max_workers is not None and spawn_workers:
            raise ValueError(
                "spawn_workers (fixed pool) and max_workers (elastic "
                "pool) are mutually exclusive"
            )
        self.transport = transport
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.idle_timeout = idle_timeout
        self.telemetry = telemetry
        #: ``(unit, attempt)`` pairs already warned about via a
        #: heartbeat_gap event — one early warning per delivery.
        self._gap_warned: Set[Tuple[str, int]] = set()
        # A stale sentinel from a previous campaign would make fresh
        # workers exit on their first claim.
        transport.set_stop(False)
        self._outstanding: Dict[str, WorkUnit] = {}
        self._attempts: Dict[str, int] = {}
        #: Cancelled unit ids whose straggler results must be swept.
        self._cancelled_ids: Set[str] = set()
        self._procs: List[subprocess.Popen] = []
        self._log_paths: List[str] = []
        self.supervisor: Optional[ElasticSupervisor] = None
        if max_workers is not None:
            # The supervisor reads queue pressure off the directory.
            self.supervisor = ElasticSupervisor(
                transport.queue_dir,
                min_workers=1 if min_workers is None else min_workers,
                max_workers=max_workers,
                poll_interval=poll_interval,
                idle_grace=elastic_idle_grace,
                worker_poll=poll_interval,
                telemetry=telemetry,
            ).start()
        if spawn_workers:
            launcher = WorkerLauncher(
                transport.worker_args, transport.spawn_log_dir()
            )
            for index in range(spawn_workers):
                self._spawn_worker(launcher, index)

    # -- worker management ---------------------------------------------------

    def _spawn_worker(self, launcher: WorkerLauncher, index: int) -> None:
        # Host-qualified for the same reason as the elastic ids: two
        # dispatch hosts sharing one queue must not collide on a
        # coincidental pid match.
        worker_id = f"spawned-{launcher.host}-{os.getpid()}-{index}"
        proc, log_path = launcher.launch(worker_id, self.poll_interval)
        self._procs.append(proc)
        self._log_paths.append(log_path)
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "worker_spawn", worker=worker_id, host=launcher.host,
            ))

    def workers_by_host(self) -> Optional[Dict[str, int]]:
        """Live workers per host: the elastic or spawned pool's own
        view, else the transport's fleet stats (None when those
        cannot be read)."""
        if self.supervisor is not None:
            return self.supervisor.workers_by_host()
        if self._procs:
            alive = sum(
                1 for proc in self._procs if proc.poll() is None
            )
            return {_host_label(): alive} if alive else {}
        try:
            by_host = self.transport.stats().get("workers_by_host")
        except Exception:
            return None
        return dict(by_host) if isinstance(by_host, dict) else None

    def live_worker_count(self) -> Optional[int]:
        """Workers serving the queue (see :meth:`workers_by_host`)."""
        by_host = self.workers_by_host()
        return None if by_host is None else sum(by_host.values())

    def _check_spawned(self) -> None:
        if not self._outstanding:
            return
        if self.supervisor is not None:
            # Elastic pools shrink to empty by design; what must not
            # pass silently is workers crashing as fast as they spawn.
            self.supervisor.check_health()
            return
        if not self._procs:
            return
        if any(proc.poll() is None for proc in self._procs):
            return
        raise RuntimeError(
            "all spawned workers exited with "
            f"{len(self._outstanding)} unit(s) outstanding\n"
            + _log_tails(self._log_paths)
        )

    # -- submission ----------------------------------------------------------

    def _task_doc(self, unit: WorkUnit, attempt: int) -> Dict[str, Any]:
        doc = unit.to_doc()
        doc["attempt"] = attempt
        # Workers heartbeat a few times per lease window so one missed
        # beat (scheduler hiccup, slow NFS) is not a death sentence.
        doc["heartbeat"] = max(0.05, self.lease_timeout / 4.0)
        return doc

    def submit(self, unit: WorkUnit) -> None:
        if unit.unit_id in self._outstanding:
            raise ValueError(f"unit {unit.unit_id!r} already submitted")
        self._cancelled_ids.discard(unit.unit_id)
        self._outstanding[unit.unit_id] = unit
        self._attempts[unit.unit_id] = 1
        self.transport.submit(self._task_doc(unit, attempt=1))

    # -- completion ----------------------------------------------------------

    def completions(self) -> Iterator[WorkResult]:
        last_alive = time.monotonic()
        while self._outstanding:
            progressed = False
            poll = self.transport.poll(
                list(self._outstanding), list(self._cancelled_ids)
            )
            self._cancelled_ids.difference_update(poll["swept"])
            lease_ages = poll["lease_ages"]
            for unit_id in poll["ready"]:
                if unit_id not in self._outstanding:
                    continue  # cancelled while an earlier one yielded
                result = self._collect(unit_id)
                if result is None:
                    # Quarantined and requeued: the polled lease age
                    # describes the attempt that just ended.
                    lease_ages.pop(unit_id, None)
                    continue
                progressed = True
                yield result
            for result in self._requeue_expired(lease_ages):
                progressed = True
                yield result
            any_live = any(
                age is not None and age <= self.lease_timeout
                for unit_id, age in lease_ages.items()
                if unit_id in self._outstanding
            )
            if progressed or any_live:
                last_alive = time.monotonic()
            if not self._outstanding:
                break
            if not progressed:
                self._check_spawned()
                if (self.idle_timeout is not None
                        and time.monotonic() - last_alive
                        > self.idle_timeout):
                    raise RuntimeError(
                        f"{self.transport.describe()} idle for "
                        f"{self.idle_timeout:.0f}s with "
                        f"{len(self._outstanding)} unit(s) outstanding "
                        "— are any workers running? (start one with: "
                        "repro worker "
                        f"{' '.join(self.transport.worker_args)})"
                    )
                time.sleep(self.poll_interval)

    def _collect(self, unit_id: str) -> Optional[WorkResult]:
        """Collect an outstanding unit's landed result, if any."""
        body = self.transport.read_result(unit_id)
        if body is None:
            return None
        unit = self._outstanding[unit_id]
        try:
            doc = pickle.loads(body)
        except Exception:
            # Truncated/corrupt result document (a torn write on a
            # non-atomic shared filesystem, disk trouble).  Treating
            # it as absent would re-parse and re-fail it on every poll
            # forever.
            self._quarantine_and_requeue(unit_id, unit)
            return None
        # Consume the result (and any lease litter of a dead owner):
        # a reused queue must never replay it, error results included.
        self.transport.delete_result(unit_id)
        if not doc.get("ok"):
            raise RuntimeError(
                f"unit {unit_id} ({unit.label}) failed on worker "
                f"{doc.get('worker')}:\n{doc.get('error')}"
            )
        attempts = self._attempts.pop(unit_id)
        del self._outstanding[unit_id]
        return WorkResult(
            unit=unit,
            payload=doc["payload"],
            elapsed=float(doc.get("elapsed", 0.0)),
            worker=doc.get("worker"),
            attempts=attempts,
            timings=doc.get("timings"),
        )

    def _quarantine_and_requeue(self, unit_id: str, unit: WorkUnit) -> None:
        """Handle a corrupt result: preserve it, retry the unit.

        The transport moves the document to ``corrupt/`` and requeues
        the unit in one step.  Past ``max_attempts`` the requeue is
        withdrawn again, so a filesystem that keeps tearing writes
        fails the campaign with a diagnosis instead of looping.
        """
        attempts = self._attempts[unit_id] + 1
        answer = self.transport.requeue(
            unit_id, self._task_doc(unit, attempt=attempts),
            quarantine=True,
        )
        quarantined = answer.get("quarantined")
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "quarantine", unit=unit_id, path=quarantined,
            ))
        if attempts > self.max_attempts:
            self.transport.cancel([unit_id])
            raise RuntimeError(
                f"unit {unit_id} ({unit.label}): corrupt result "
                f"document (quarantined to {quarantined}) and the "
                f"{self.max_attempts}-attempt budget is exhausted — "
                "is the queue filesystem tearing writes?"
            )
        self._requeued(unit_id, attempts)

    def _requeued(self, unit_id: str, attempts: int) -> None:
        self._attempts[unit_id] = attempts
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "requeue", unit=unit_id, attempt=attempts,
            ))

    def _requeue_expired(
        self, lease_ages: Dict[str, Optional[float]]
    ) -> List[WorkResult]:
        """Re-enqueue outstanding units whose lease went stale; the
        results collected instead (for :meth:`completions` to yield).

        **Collect-before-requeue**: a worker publishes its result
        before its lease is released, so a result landing while the
        lease is being expired means the unit finished.  It is
        collected — here, or when the transport refuses the requeue
        because it landed after that check — so a slow-but-successful
        worker never burns an attempt (or, worse, exhausts the budget
        and fails a campaign whose result is sitting on disk).
        """
        collected: List[WorkResult] = []
        for unit_id in list(self._outstanding):
            age = lease_ages.get(unit_id)
            if age is None:
                continue
            attempt = self._attempts[unit_id]
            if age <= self.lease_timeout:
                # Early warning: the lease aged past half its window
                # without a heartbeat — the worker is struggling (or
                # its beat thread is), even if it recovers.  One
                # event per delivery attempt.
                if (self.telemetry is not None
                        and age > self.lease_timeout / 2.0
                        and (unit_id, attempt) not in self._gap_warned):
                    self._gap_warned.add((unit_id, attempt))
                    self.telemetry.emit(make_event(
                        "heartbeat_gap", unit=unit_id,
                        age=round(age, 3), attempt=attempt,
                    ))
                continue
            result = self._collect(unit_id)
            if result is not None:
                collected.append(result)
                continue
            if self._attempts[unit_id] != attempt:
                continue  # the collect quarantined a corrupt result
            if self.telemetry is not None:
                self.telemetry.emit(make_event(
                    "lease_expired", unit=unit_id,
                    age=round(age, 3), attempt=attempt,
                ))
            if attempt + 1 > self.max_attempts:
                raise RuntimeError(
                    f"unit {unit_id} ({self._outstanding[unit_id].label})"
                    f": lease expired and the {self.max_attempts}-attempt"
                    " budget is exhausted (workers keep dying mid-unit?)"
                )
            answer = self.transport.requeue(
                unit_id,
                self._task_doc(self._outstanding[unit_id], attempt + 1),
                quarantine=False,
            )
            if answer["has_result"]:
                result = self._collect(unit_id)
                if result is not None:
                    collected.append(result)
                continue
            self._requeued(unit_id, attempt + 1)
        return collected

    # -- teardown ------------------------------------------------------------

    def cancel(self) -> None:
        self.cancel_units(list(self._outstanding))

    def cancel_units(self, unit_ids: Iterable[str]) -> None:
        """Withdraw specific outstanding units from the queue.

        Unclaimed task files are removed so no worker ever picks them
        up.  A unit some worker already *claimed* is cancelled too:
        its lease is removed — the executing worker cannot be
        interrupted mid-unit, but its heartbeat finds the lease gone,
        and a straggler result that lands anyway is swept by the next
        :meth:`completions` poll or at :meth:`close`.  Any result that
        already landed is removed now — a reused queue must not replay
        a cancelled unit's outcome.
        """
        ids = [u for u in unit_ids if u in self._outstanding]
        if not ids:
            return
        removed = self.transport.cancel(ids)
        for unit_id in ids:
            stages = removed.get(unit_id, {})
            # Track the id for the straggler sweep only when a worker
            # might still publish it — tracking ids that cannot
            # straggle would grow _cancelled_ids (and its per-poll
            # unlink attempts) for the life of a long-lived backend.
            # The dispatcher's own attempt count is authoritative:
            # attempts > 1 means a presumed-dead predecessor may yet
            # finish; otherwise only a current claimant (task file
            # already gone) that has not yet published can.
            straggler_possible = (
                self._attempts[unit_id] > 1
                or (not stages.get("task") and not stages.get("result"))
            )
            if straggler_possible:
                self._cancelled_ids.add(unit_id)
            del self._outstanding[unit_id]
            del self._attempts[unit_id]

    def close(self) -> None:
        """Stop spawned/elastic workers (via the ``stop`` sentinel,
        then escalating) and sweep cancelled units' stragglers.
        External workers keep running — set or clear the sentinel
        yourself to manage them."""
        if self._procs or self.supervisor is not None:
            try:
                self.transport.set_stop(True)
            except Exception:
                pass  # coordinator gone: terminate the pool directly
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None
        if self._procs:
            deadline = time.monotonic() + 10.0
            for proc in self._procs:
                _stop_proc(proc, deadline)
            self._procs = []
        # The workers are gone (or were never ours): any straggler
        # result a cancelled unit left behind is final litter now.  An
        # id is forgotten once swept — a worker publishes a unit at
        # most once.
        if self._cancelled_ids:
            try:
                self.transport.poll([], list(self._cancelled_ids))
            except Exception:
                pass
            self._cancelled_ids = set()


class WorkQueueBackend(QueueBackend):
    """A :class:`QueueBackend` over a queue directory.

    Share ``queue_dir`` between the dispatcher and every worker — a
    local path for same-host workers, a network filesystem for
    cross-host ones.  See :class:`QueueBackend` for the parameters.
    """

    def __init__(
        self,
        queue_dir: str,
        *,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        spawn_workers: int = 0,
        idle_timeout: Optional[float] = None,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        elastic_idle_grace: float = 2.0,
        telemetry=None,
    ) -> None:
        super().__init__(
            FsTransport(queue_dir),
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            max_attempts=max_attempts,
            spawn_workers=spawn_workers,
            idle_timeout=idle_timeout,
            min_workers=min_workers,
            max_workers=max_workers,
            elastic_idle_grace=elastic_idle_grace,
            telemetry=telemetry,
        )
