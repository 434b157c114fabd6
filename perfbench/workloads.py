"""The benchmark's workloads: which grids run, on which backend.

Every workload is built only from ``repro.campaigns.build_campaign``
specs for the workload seed, and run through the public
``repro.campaigns`` / ``repro.backends`` API.  Why each one exists is
recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Sample-count overrides per grid at each scale (None keeps the
#: grid's own default).  "full" is what the benchmark measures; "tiny"
#: only exists so the benchmark's own tests finish in seconds.
SIZES = {
    "full": {
        # 300k/cell is the paper size (~25 s serial); 30k keeps one
        # repetition short enough that a run holds several of them.
        "bernstein": 30_000,
        "pwcet": None,
        "missrates": None,
        # The default 240 trials cost 0.2 s in total, too little for
        # kernels.trials to show; ten times that makes it visible.
        "contention": 2_400,
    },
    "tiny": {
        "bernstein": 2_048,
        "pwcet": 60,
        "missrates": None,
        "contention": 48,
    },
}

#: Cells kept per grid at "tiny" scale (the missrate grid has no
#: sample knob, so the tiny scale trims cells instead).
TINY_CELLS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Grids run back to back, as one campaign.
    grids: Tuple[str, ...]
    #: "serial", "workqueue" or "http".
    backend: str
    #: Frozen-digest group: workloads computing the same cells share it.
    digest_group: str

    @property
    def serial(self) -> bool:
        return self.backend == "serial"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5-bernstein", ("bernstein",), "serial", "fig5"),
        Workload(
            "grids-serial", ("pwcet", "missrates", "contention"),
            "serial", "grids",
        ),
        Workload(
            "grids-queue2", ("pwcet", "missrates", "contention"),
            "workqueue", "grids",
        ),
        Workload(
            "grids-http2", ("pwcet", "missrates", "contention"),
            "http", "grids",
        ),
    )
}

#: Fan-out of the queue workloads (2 spawned workers, 4 shards/cell).
QUEUE_WORKERS = 2
QUEUE_MAX_SHARDS = 4


def build_specs(workload: Workload, seed: int, scale: str) -> list:
    """The campaign's cells: ``build_campaign`` output, nothing else."""
    from repro.campaigns import build_campaign

    specs = []
    for grid in workload.grids:
        cells = build_campaign(
            grid, num_samples=SIZES[scale][grid], seed=seed
        )
        specs.extend(cells[:TINY_CELLS] if scale == "tiny" else cells)
    return specs


def open_runner(
    workload: Workload, work_dir: str
) -> Tuple[object, object, Callable[[], None]]:
    """``(runner, backend, close)`` for one repetition.

    Every repetition gets a fresh, empty cache directory (and queue
    directory) under ``work_dir``; ``close`` stops the backend and,
    for the HTTP workload, the coordinator.
    """
    from repro.backends import (
        CoordinatorServer,
        HttpQueueBackend,
        SerialBackend,
        WorkQueueBackend,
    )
    from repro.campaigns import CampaignRunner

    cache_dir = os.path.join(work_dir, "cache")
    queue_dir = os.path.join(work_dir, "queue")
    server: Optional[CoordinatorServer] = None
    if workload.backend == "serial":
        backend = SerialBackend()
        max_shards = 1
    elif workload.backend == "workqueue":
        backend = WorkQueueBackend(queue_dir, spawn_workers=QUEUE_WORKERS)
        max_shards = QUEUE_MAX_SHARDS
    elif workload.backend == "http":
        server = CoordinatorServer(queue_dir, port=0).start()
        try:
            backend = HttpQueueBackend(
                server.url, spawn_workers=QUEUE_WORKERS
            )
        except BaseException:
            server.shutdown()
            raise
        max_shards = QUEUE_MAX_SHARDS
    else:
        raise ValueError(f"unknown backend {workload.backend!r}")
    runner = CampaignRunner(
        backend=backend, cache_dir=cache_dir, max_shards_per_cell=max_shards
    )

    def close() -> None:
        try:
            backend.close()
        finally:
            if server is not None:
                server.shutdown()

    return runner, backend, close

