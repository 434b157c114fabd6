"""repro.backends — pluggable execution backends for campaigns.

The campaign engine (:mod:`repro.campaigns`) decides *what* to run —
cells, shard plans, merges, caching.  This package decides *where*:
every backend takes the same self-describing :class:`WorkUnit` s and
streams back :class:`WorkResult` s, and because unit payloads are pure
functions of their wire form, campaign results are bit-identical
across all of them.

* :class:`SerialBackend` — in-process, submission order (reference).
* :class:`ProcessPoolBackend` — a process pool on this host.
* :class:`QueueBackend` — a work queue drained by independent
  ``repro worker`` processes on any number of hosts, with lease-based
  dead-worker recovery.  It runs over one of two transports:

  - :class:`FsTransport`, the queue directory itself (same host, or
    any host sharing the directory) — build it with
    :class:`WorkQueueBackend`;
  - :class:`HttpTransport`, the same directory served over HTTP by a
    ``repro coordinator`` process (:class:`CoordinatorServer`), so
    worker hosts need network reach instead of a shared filesystem —
    build it with :class:`HttpQueueBackend`.

  One dispatcher, one :func:`worker_loop` and one set of failure
  rules serve both (see :mod:`repro.backends.workqueue`).

Quickstart::

    from repro.backends import WorkQueueBackend
    from repro.campaigns import CampaignRunner, bernstein_grid

    backend = WorkQueueBackend("shared/queue", spawn_workers=2)
    try:
        runner = CampaignRunner(backend=backend, max_shards_per_cell=8)
        results = runner.run(bernstein_grid(num_samples=300_000))
    finally:
        backend.close()
"""

from repro.backends.base import (
    ExecutionBackend,
    WorkResult,
    WorkUnit,
    execute_unit,
)
from repro.backends.coordinator import (
    CoordinatorClient,
    CoordinatorServer,
    HttpQueueBackend,
    HttpTransport,
)
from repro.backends.local import ProcessPoolBackend, SerialBackend
from repro.backends.workqueue import (
    ElasticStats,
    ElasticSupervisor,
    FsTransport,
    QueueBackend,
    QueueTransport,
    WorkerLauncher,
    WorkQueueBackend,
    worker_loop,
)

__all__ = [
    "CoordinatorClient",
    "CoordinatorServer",
    "ElasticStats",
    "ElasticSupervisor",
    "ExecutionBackend",
    "FsTransport",
    "HttpQueueBackend",
    "HttpTransport",
    "ProcessPoolBackend",
    "QueueBackend",
    "QueueTransport",
    "SerialBackend",
    "WorkerLauncher",
    "WorkQueueBackend",
    "WorkResult",
    "WorkUnit",
    "execute_unit",
    "worker_loop",
]
