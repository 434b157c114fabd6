"""One repetition of a workload, in a fresh interpreter.

``run.py`` launches this file once per repetition, so every
repetition pays what a ``repro campaign`` invocation pays: cold
imports and empty in-process memos.  It writes one JSON document (the
path given by ``--result``) holding its timestamps, each cell's
payload digest and, when traced, the per-layer metrics; spans go to
``trace.json`` in the work directory.

    python3 perfbench/rep.py --workload grids-serial --seed 1 \
        --scale full --trace 0 --work-dir W --result W/result.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional

if __name__ == "__main__":
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, build_specs, open_runner  # noqa: E402


def run_rep(
    workload_name: str, seed: int, scale: str, trace: bool, work_dir: str
) -> Dict[str, Any]:
    """Run the workload once in this process; return its record.

    Timestamps are ``time.monotonic()`` readings (one clock for every
    process on the host), so the launcher can place them against the
    moment it started this interpreter.
    """
    workload = WORKLOADS[workload_name]
    tracer = tracing.Tracer(f"{workload_name}-s{seed}-{os.getpid()}") \
        if trace else None
    start = time.monotonic()
    import repro.campaigns  # noqa: F401

    import_s = time.monotonic() - start
    if tracer is not None:
        tracing.install_layer_spans(tracer)
    specs = build_specs(workload, seed, scale)
    runner, backend, close = open_runner(workload, work_dir)
    ledger = tracing.BackendLedger()
    if tracer is not None:
        tracing.wrap_backend(tracer, backend, ledger)
    payloads: Dict[str, Any] = {}

    def progress(event) -> None:
        if event.event == "cell":
            payloads[event.spec.cell_id] = event.result.payload

    runner.progress = progress
    ready, ready_wall = time.monotonic(), time.time()
    error: Optional[str] = None
    try:
        plans = runner.plan(specs)
        run_start = time.monotonic()
        try:
            runner.run(specs)
        except Exception:
            # A raising cell is a measured failure, not a crash of the
            # benchmark: cells without a payload count as failed.
            error = traceback.format_exc()
        run_end = time.monotonic()
    finally:
        close_start = time.monotonic()
        close()
        closed = time.monotonic()
    # Imported only now: numpy must load inside the timed import above.
    from perfbench.digest import payload_digest

    record: Dict[str, Any] = {
        "ready": ready,
        "import_s": import_s,
        "wall_s": run_end - run_start,
        "closed": closed,
        "error": error,
        "cells": {
            spec.cell_id: (
                payload_digest(payloads[spec.cell_id])
                if spec.cell_id in payloads else None
            )
            for spec in specs
        },
        "plans": [
            {
                "cell": plan.spec.cell_id,
                "kernel": plan.kernel,
                "reason": plan.kernel_reason,
                "shards": plan.num_shards,
            }
            for plan in plans
        ],
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, ledger, ready_wall=ready_wall, import_s=import_s,
            close_s=closed - close_start, plans=record["plans"],
        )
        with open(os.path.join(work_dir, "trace.json"), "w") as handle:
            json.dump({
                "run": tracer.run_id,
                "workload": workload_name,
                "seed": seed,
                "plans": record["plans"],
                "layers": record["layers"],
                "spans": tracer.to_doc(),
            }, handle)
    return record


#: Span names whose summed self time is reported as ``<name>_s``.
SELF_TIME_LAYERS = (
    "campaigns.cache.put",
    "campaigns.merge",
    "backends.submit",
    "backends.wait",
    "core.batch.epoch_state",
    "crypto.aes.encrypt_batch",
    "attack.bernstein.run",
    "kernels.replay.pwcet",
    "kernels.replay.missrate",
    "workloads.generators.trace",
    "kernels.trials.prime_probe",
    "kernels.trials.evict_time",
    "mbpta.analyse",
)


def layer_metrics(
    tracer: tracing.Tracer,
    ledger: tracing.BackendLedger,
    *,
    ready_wall: float,
    import_s: float,
    close_s: float,
    plans: List[Dict[str, Any]],
) -> Dict[str, float]:
    """The per-layer numbers of one traced repetition.

    Dispatcher-side layers come from spans; backend layers from the
    ledger of ``WorkResult`` timings (worker wall clocks, same host).
    """
    totals = tracing.layer_totals(tracer.spans)

    def self_s(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    units = ledger.units
    started = [u.started for u in units if u.started is not None]
    waits = sorted(
        max(0.0, u.started - u.submitted)
        for u in units
        if u.started is not None and u.submitted is not None
    )
    timed = [u for u in units if u.started is not None and u.ended is not None]
    per_worker = Counter(u.worker or "in-process" for u in units)
    bernstein = [u for u in timed if u.kind == "bernstein"]
    # Each bernstein sample is one victim and one attacker encryption.
    encryptions = 2 * sum(u.samples for u in bernstein)
    metrics: Dict[str, float] = {
        "campaigns.import_s": import_s,
        "campaigns.plan_s": self_s("campaigns.plan"),
        "campaigns.cache.writes": calls("campaigns.cache.put"),
        "campaigns.cells_vector": sum(p["kernel"] == "vector" for p in plans),
        "campaigns.cells_scalar": sum(p["kernel"] == "scalar" for p in plans),
        "backends.units": len(units),
        "backends.execute_self_s": self_s("backends.execute"),
        "backends.cold_start_s": (
            min(started) - ready_wall if started else 0.0
        ),
        "backends.queue_wait_p50_s": (
            statistics.median(waits) if waits else 0.0
        ),
        "backends.queue_wait_sum_s": sum(waits),
        "backends.collect_s": sum(
            max(0.0, u.yielded - u.ended) for u in timed
        ),
        "backends.close_s": close_s,
        "backends.compute_s": sum(u.ended - u.started for u in timed),
        "backends.busiest_worker_share": (
            max(per_worker.values()) / len(units) if units else 0.0
        ),
        "backends.retries": sum(u.attempts > 1 for u in units),
        "core.batch.epoch_state_calls": calls("core.batch.epoch_state"),
        "core.batch.ns_per_sample": (
            sum(u.ended - u.started for u in bernstein) / encryptions * 1e9
            if encryptions else 0.0
        ),
        # Time inside CampaignRunner.run() that no top-level span
        # (submit, wait, merge, cache put) covers: the engine's own
        # book-keeping, reported apart rather than folded elsewhere.
        "trace.wall_uncovered_s": self_s("campaigns.run"),
        "trace.spans": len(tracer.spans),
    }
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}_s"] = self_s(name)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    record = run_rep(
        args.workload, args.seed, args.scale, bool(args.trace), args.work_dir
    )
    with open(args.result, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
