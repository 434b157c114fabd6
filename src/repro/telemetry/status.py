"""Live fleet introspection behind ``repro status``.

Two sources, one document shape:

* :func:`queue_dir_status` reads a filesystem queue directory
  directly — counts of ``tasks/``/``results/``, every in-flight lease
  with its heartbeat age and owning worker, and every registered
  worker with its host and idle-heartbeat age.  Works against any
  live queue without touching the dispatcher.
* :func:`coordinator_status` asks a coordinator's ``GET /metrics``
  for the same document computed server-side (with its uptime and
  throughput counters riding along).

Both render through :func:`render_status`, so the operator sees the
same view whether the fleet is filesystem- or HTTP-served.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.reporting import format_duration, format_table


def queue_dir_status(
    queue_dir: str, *, heartbeat_fresh: float = 5.0
) -> Dict[str, Any]:
    """One snapshot of a queue directory's fleet state."""
    now = time.time()

    def _count(sub: str, suffix: str) -> int:
        try:
            return sum(
                1 for name in os.listdir(os.path.join(queue_dir, sub))
                if name.endswith(suffix)
            )
        except FileNotFoundError:
            return 0

    leases: List[Dict[str, Any]] = []
    leases_dir = os.path.join(queue_dir, "leases")
    try:
        names = sorted(os.listdir(leases_dir))
    except FileNotFoundError:
        names = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(leases_dir, name)
        try:
            age = now - os.stat(path).st_mtime
        except FileNotFoundError:
            continue
        worker = None
        try:
            with open(path) as handle:
                worker = json.load(handle).get("worker")
        except (OSError, ValueError):
            pass
        leases.append({
            "unit": name[: -len(".json")],
            "age": round(age, 3),
            "worker": worker,
        })
    leases.sort(key=lambda row: row["age"], reverse=True)

    busy_workers = {row["worker"] for row in leases if row["worker"]}
    workers: List[Dict[str, Any]] = []
    workers_dir = os.path.join(queue_dir, "workers")
    try:
        names = sorted(os.listdir(workers_dir))
    except FileNotFoundError:
        names = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(workers_dir, name)
        worker_id = name[: -len(".json")]
        try:
            age = now - os.stat(path).st_mtime
        except FileNotFoundError:
            continue
        host = None
        try:
            with open(path) as handle:
                host = json.load(handle).get("host")
        except (OSError, ValueError):
            pass
        busy = worker_id in busy_workers
        # A busy worker heartbeats through its lease, not its info
        # file — so "stale" means neither heartbeat is fresh.
        workers.append({
            "worker": worker_id,
            "host": host or "?",
            "age": round(age, 3),
            "state": "busy" if busy
            else ("idle" if age <= heartbeat_fresh else "stale"),
        })

    by_host: Dict[str, int] = {}
    for row in workers:
        if row["state"] != "stale":
            by_host[row["host"]] = by_host.get(row["host"], 0) + 1

    return {
        "queue_dir": queue_dir,
        "stopped": os.path.exists(os.path.join(queue_dir, "stop")),
        "tasks": _count("tasks", ".json"),
        "results": _count("results", ".pkl"),
        "leases": leases,
        "workers": workers,
        "workers_by_host": by_host,
    }


def coordinator_status(url: str, *, retry_timeout: float = 10.0
                       ) -> Dict[str, Any]:
    """The coordinator's fleet snapshot (``GET /metrics``)."""
    from repro.backends.coordinator import CoordinatorClient

    client = CoordinatorClient(url, retry_timeout=retry_timeout)
    status, doc = client.request_json("GET", "/metrics")
    if status != 200:
        raise RuntimeError(
            f"coordinator at {url} answered {status} to /metrics"
        )
    doc.setdefault("coordinator", url)
    return doc


def render_status(doc: Dict[str, Any]) -> str:
    """The ``repro status`` text view of one fleet snapshot."""
    out: List[str] = []
    source = doc.get("coordinator") or doc.get("queue_dir") or "?"
    stopped = "yes" if doc.get("stopped") else "no"
    out.append(f"fleet: {source} (stop sentinel: {stopped})")
    leases = doc.get("leases", [])
    out.append(
        f"depth: {doc.get('tasks', 0)} pending, "
        f"{len(leases)} in flight, "
        f"{doc.get('results', 0)} result(s) awaiting collection"
    )
    uptime = doc.get("uptime")
    if uptime is not None:
        rate = doc.get("results_posted", 0) / max(1e-9, uptime)
        out.append(
            f"throughput: {doc.get('results_posted', 0)} result(s) "
            f"over {format_duration(uptime)} "
            f"({rate:.2f} unit/s)"
        )
    by_host = doc.get("workers_by_host", {})
    total = sum(by_host.values())
    hosts = ", ".join(
        f"{host}:{n}" for host, n in sorted(by_host.items()) if n > 0
    )
    out.append(f"workers: {total}" + (f" ({hosts})" if hosts else ""))
    workers = doc.get("workers", [])
    if workers:
        out.append(format_table(
            ["worker", "host", "state", "heartbeat age"],
            [[w["worker"], w["host"], w["state"], f"{w['age']:.1f}s"]
             for w in workers],
        ))
    if leases:
        out.append("")
        out.append("in-flight leases (oldest first):")
        out.append(format_table(
            ["unit", "worker", "lease age"],
            [[l["unit"], l.get("worker") or "(claiming)",
              f"{l['age']:.1f}s"] for l in leases],
        ))
    service = doc.get("service")
    if service:
        campaigns = service.get("campaigns", {})
        out.append("")
        out.append(
            f"campaign service: {campaigns.get('active', 0)} active / "
            f"{campaigns.get('total', 0)} total campaign(s), "
            f"{service.get('inflight_units', 0)} unit(s) in flight"
        )
        tenants = service.get("tenants", {})
        if tenants:
            out.append(format_table(
                ["tenant", "weight", "campaigns", "finished",
                 "queued", "in flight", "dispatched", "dedup hits"],
                [[name, t.get("weight", 1.0), t.get("campaigns", 0),
                  t.get("finished", 0), t.get("queued", 0),
                  t.get("inflight", 0), t.get("dispatched_units", 0),
                  t.get("dedup_hits", 0)]
                 for name, t in sorted(tenants.items())],
            ))
    return "\n".join(out)
