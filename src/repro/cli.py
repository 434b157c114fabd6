"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``setups``
    List the four evaluated processor configurations.
``attack``
    Run the Bernstein case study against one setup and print the
    key-space report (Figure 5, one panel).
``pwcet``
    Collect execution times of the built-in synthetic task on a setup
    and print the MBPTA admission results and pWCET curve (Figure 1).
``missrates``
    Miss rates of each placement policy on the synthetic workload
    suite (§6.2.3).
``properties``
    MBPTA placement-property verdicts (§3/§4).
``simulate``
    Replay a trace file through a setup's hierarchy and print the
    latency/statistics summary.
``campaign``
    Run a named experiment grid (``bernstein``/``pwcet``/
    ``missrates``/``contention``) through the campaign engine —
    serially, with ``--workers N`` across a process pool, or with
    ``--backend workqueue`` through a filesystem work queue served by
    ``repro worker`` processes (a fixed pool of ``--workers``, or an
    elastic one scaled between ``--min-workers`` and ``--max-workers``
    from queue pressure) — optionally splitting big cells into
    intra-cell shards with ``--max-shards N`` under an even or
    adaptive geometry (``--shard-policy``; results bit-identical in
    every mode) — and emit a table or JSON.  Progress/ETA lines (with
    shard ranges and, on the work queue, a live worker count) stream
    to stderr as cells and shards finish; ``--kernel`` selects the
    trial-execution kernel (``auto``/``vector`` = batched NumPy
    kernels with scalar fallback, ``scalar`` = the per-trial loop;
    results bit-identical either way); ``--dry-run`` prints the
    plan (cells, shard geometry/ranges, resolved kernels, cache-hit
    status, stopping rules) without executing anything.  ``--early-stop`` lets kinds
    with a ``should_stop`` hook (the contention attacks' sequential
    leak test) cancel a cell's remaining shards once its verdict is
    decided — with ``--shard-policy adaptive`` the verdict lands after
    the first small shard instead of after ``total/N`` samples;
    ``--cache-gc DAYS`` sweeps result-cache entries older than DAYS
    days (and orphaned shard partials) from ``--cache-dir``,
    standalone or before a run.
``worker``
    Serve a work-queue directory: claim and execute shard/cell work
    units published by a ``repro campaign --backend workqueue``
    dispatcher (on this or any host sharing the directory) until the
    queue's stop sentinel appears.
``trace``
    Analyze a ``--telemetry`` run journal: per-cell time breakdown
    (queue wait vs. run vs. merge), slowest units, and requeue chains
    reconstructed per unit; ``--validate`` schema-checks every event.
``status``
    Live fleet snapshot from a queue directory or a coordinator's
    ``GET /metrics``: per-host worker counts, in-flight lease ages,
    queue depth and throughput.
"""

from __future__ import annotations

import argparse
import os
import select
import sys
import time
from typing import List, Optional


def _cmd_setups(_: argparse.Namespace) -> int:
    from repro.core.setups import SETUP_NAMES, make_setup

    for name in SETUP_NAMES:
        setup = make_setup(name)
        print(f"{name:<14} {setup.description}")
        print(
            f"{'':<14} L1 {setup.l1_policy}/{setup.l1_replacement}, "
            f"L2 {setup.l2_policy}, shared seeds: "
            f"{setup.shared_seed_between_parties}, reseed every: "
            f"{setup.reseed_every or 'never'}"
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.core.simulator import BernsteinCaseStudy

    study = BernsteinCaseStudy(
        args.setup, num_samples=args.samples, rng_seed=args.seed
    )
    result = study.run()
    report = result.report
    print(report.summary_row(args.setup))
    leaking = [
        o.byte_index for o in report.outcomes if o.num_surviving < 256
    ]
    print(f"leaking bytes: {leaking or 'none'}")
    if args.heatmap:
        from repro.attack.metrics import (
            candidate_matrix,
            render_candidate_matrix,
        )

        print(render_candidate_matrix(candidate_matrix(report)))
    return 0


def _cmd_pwcet(args: argparse.Namespace) -> int:
    from repro.campaigns import CampaignRunner, ExperimentSpec

    spec = ExperimentSpec(
        kind="pwcet", setup=args.setup, num_samples=args.runs,
        seed=args.seed,
    )
    payload = CampaignRunner().run([spec]).payloads()[0]
    report = payload.report
    print(f"runs: {report.num_samples}  mean: {report.sample_mean:.0f}  "
          f"max: {report.sample_max:.0f}")
    print(f"Ljung-Box p={report.independence.p_value:.3f}  "
          f"KS p={report.identical_distribution.p_value:.3f}  "
          f"compliant: {report.compliant}")
    if report.curve is not None:
        for p, value in report.curve.series():
            print(f"  P(exceed) {p:8.0e} -> {value:10.0f} cycles")
        return 0
    print("admission failed:", "; ".join(report.notes))
    return 1


def _cmd_missrates(args: argparse.Namespace) -> int:
    from repro.campaigns import (
        CampaignRunner,
        missrate_grid,
    )
    from repro.campaigns.grids import MISSRATE_POLICIES, MISSRATE_WORKLOADS
    from repro.reporting import format_table

    workers = getattr(args, "workers", 1)
    campaign = CampaignRunner(workers=workers).run(missrate_grid())
    rates = {
        (cell.spec.param("workload"), cell.spec.param("policy")):
            cell.payload.miss_rate
        for cell in campaign
    }
    rows = [
        [workload]
        + [f"{rates[(workload, p)] * 100:.2f}%" for p in MISSRATE_POLICIES]
        for workload in MISSRATE_WORKLOADS
    ]
    print(format_table(["workload", *MISSRATE_POLICIES], rows))
    return 0


def _cmd_properties(_: argparse.Namespace) -> int:
    from repro.cache.core import CacheGeometry
    from repro.cache.placement import make_placement
    from repro.cache.rpcache import PermutationTablePlacement
    from repro.mbpta.properties import check_placement_properties

    geometry = CacheGeometry(total_size=4096 * 4, num_ways=4, line_size=256)
    layout = geometry.layout()
    policies = [
        make_placement("modulo", layout),
        make_placement("xor_index", layout),
        make_placement("hashrp", layout),
        make_placement("random_modulo", layout),
        PermutationTablePlacement(layout),
    ]
    print(f"{'policy':<22}{'full(p2)':>9}{'apop(p3)':>9}{'MBPTA':>7}")
    for policy in policies:
        report = check_placement_properties(policy, num_seeds=96)
        print(
            f"{report.policy:<22}"
            f"{'yes' if report.full_randomness else 'no':>9}"
            f"{'yes' if report.apop_fixed_randomness else 'no':>9}"
            f"{'yes' if report.mbpta_compliant else 'no':>7}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.common.traceio import load_trace_file
    from repro.core.setups import make_setup_hierarchy

    trace = load_trace_file(args.trace)
    hierarchy = make_setup_hierarchy(args.setup)
    if args.seed is not None:
        hierarchy.set_seeds(args.seed)
    cycles = hierarchy.run_trace(trace)
    print(f"trace: {trace.name} ({len(trace)} accesses)")
    print(f"total memory latency: {cycles} cycles")
    for level, view in hierarchy.stats_by_level().items():
        print(f"  {level}: {view.accesses} accesses, "
              f"{view.misses} misses ({view.miss_rate * 100:.2f}%)")
    return 0


#: Spec params hidden from table output (bulky hex keys); JSON output
#: stays complete.
_TABLE_DETAIL_KEYS = frozenset({"victim_key", "attacker_key", "key"})


def _cmd_dry_run(runner, specs, name: str) -> int:
    """Print what a campaign run would dispatch, executing nothing."""
    from repro.reporting import format_table

    rows = []
    total_units = 0
    for cell_plan in runner.plan(specs):
        if cell_plan.cached:
            status = "cached"
        elif cell_plan.shards_cached:
            status = (
                f"resume ({cell_plan.shards_cached}/"
                f"{cell_plan.num_shards} shards cached)"
            )
        else:
            status = "compute"
        shards = (
            " ".join(f"[{s.start},{s.end})" for s in cell_plan.plan)
            if cell_plan.plan is not None
            else "-"
        )
        if not cell_plan.cached:
            total_units += cell_plan.num_shards - cell_plan.shards_cached
        kernel = cell_plan.kernel or "-"
        if cell_plan.kernel_reason is not None:
            # A vector request/auto that fell back — show why inline,
            # so a scalar resolution is never a silent surprise.
            kernel = f"{kernel} ({cell_plan.kernel_reason})"
        rows.append([
            cell_plan.spec.cell_id,
            cell_plan.num_shards,
            cell_plan.geometry or "-",
            kernel,
            shards,
            status,
            cell_plan.stop_rule or "-",
        ])
    print(format_table(
        ["cell", "shards", "geometry", "kernel", "shard ranges",
         "status", "early stop"],
        rows,
    ))
    print(
        f"dry run: campaign {name!r}, {len(specs)} cells, "
        f"{total_units} work unit(s) to dispatch"
    )
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    """Sweep stale entries from the on-disk result cache."""
    from repro.campaigns import ResultCache

    if not args.cache_dir:
        print("error: --cache-gc needs --cache-dir", file=sys.stderr)
        return 2
    try:
        stats = ResultCache(args.cache_dir).gc(args.cache_gc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"cache gc ({args.cache_dir}): removed {stats.removed_cells} "
        f"cell entr{'y' if stats.removed_cells == 1 else 'ies'} and "
        f"{stats.removed_partials} shard partial(s), freed "
        f"{stats.freed_bytes} bytes",
        file=sys.stderr,
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns import CampaignRunner, ShardPolicy, build_campaign
    from repro.reporting import (
        CampaignProgress,
        campaign_totals,
        format_table,
        render_json,
    )

    if args.cache_gc is not None:
        if args.dry_run:
            # A dry run executes (and deletes) nothing; a standalone
            # gc dry run is therefore a successful no-op, not a
            # missing-name error.
            print("dry run: skipping --cache-gc sweep", file=sys.stderr)
            if args.name is None:
                return 0
        else:
            status = _cmd_cache_gc(args)
            if status != 0 or args.name is None:
                return status
    if args.name is None:
        print("error: campaign name required (unless --cache-gc only)",
              file=sys.stderr)
        return 2

    specs = build_campaign(
        args.name, num_samples=args.samples, seed=args.seed
    )
    if args.kernel is not None:
        # An execution hint, not part of any cell's identity: cache
        # keys and seed streams are unchanged, so a --kernel run hits
        # (and produces) the same cached results as any other.
        specs = [spec.with_params(kernel=args.kernel) for spec in specs]

    # Validate the shard geometry and elastic-pool bounds before any
    # backend spawns workers — a bad flag must exit cleanly, not leak
    # worker processes or temp queue directories.
    try:
        if args.shard_policy == "adaptive":
            shard_policy = ShardPolicy.adaptive(
                min_block=(
                    1024 if args.shard_min_block is None
                    else args.shard_min_block
                ),
                growth=(
                    2.0 if args.shard_growth is None
                    else args.shard_growth
                ),
            )
        else:
            if args.shard_min_block is not None \
                    or args.shard_growth is not None:
                raise ValueError(
                    "--shard-min-block/--shard-growth need "
                    "--shard-policy adaptive (the even policy has no "
                    "geometry knobs)"
                )
            shard_policy = ShardPolicy()
        if args.backend == "http" and not args.coordinator:
            raise ValueError(
                "--backend http needs --coordinator URL (start one "
                "with: repro coordinator --queue-dir DIR)"
            )
        if args.coordinator and args.backend == "auto":
            # Naming a coordinator is asking for the HTTP backend.
            args.backend = "http"
        if args.coordinator and args.backend != "http":
            raise ValueError(
                "--coordinator needs --backend http "
                f"(got --backend {args.backend})"
            )
        elastic = args.max_workers is not None
        min_workers = 1 if args.min_workers is None else args.min_workers
        if not elastic and args.min_workers is not None:
            raise ValueError("--min-workers needs --max-workers "
                             "(the elastic pool bounds come as a pair)")
        if elastic and args.backend == "http":
            raise ValueError(
                "the elastic pool lives coordinator-side under "
                "--backend http — use 'repro coordinator "
                "--max-workers N' (the dispatcher's --workers only "
                "spawns a fixed local pool)"
            )
        if elastic:
            if args.max_workers < 1:
                raise ValueError("--max-workers must be >= 1")
            if not 0 <= min_workers <= args.max_workers:
                raise ValueError(
                    "need 0 <= --min-workers <= --max-workers "
                    f"(got {min_workers}..{args.max_workers})"
                )
            if args.workers is not None:
                raise ValueError(
                    "--workers (fixed pool) and --max-workers "
                    "(elastic pool) are mutually exclusive"
                )
            if args.backend == "auto":
                # An elastic pool only exists on the work queue; asking
                # for one is asking for the queue.
                args.backend = "workqueue"
            elif args.backend != "workqueue":
                raise ValueError(
                    "--max-workers needs --backend workqueue "
                    f"(got --backend {args.backend})"
                )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = 1 if args.workers is None else args.workers
    #: What the run's topology actually was, for the JSON/table output
    #: (an elastic pool has bounds, not a fixed count).
    workers_label = (
        f"{min_workers}..{args.max_workers}" if elastic else workers
    )

    telemetry = None
    if (args.telemetry or args.journal) and not args.dry_run:
        from repro.telemetry import RunJournal

        if args.journal:
            telemetry = RunJournal(args.journal)
        else:
            # An explicit queue directory outlives the run (an
            # ephemeral one is swept at exit, taking any journal with
            # it); the cache dir is the next most durable home.
            telemetry = RunJournal.in_dir(
                args.queue_dir or args.cache_dir or "."
            )
        if not args.quiet:
            print(f"telemetry journal: {telemetry.path}",
                  file=sys.stderr)

    backend = None
    ephemeral_queue = None
    if not args.dry_run:
        if args.backend == "workqueue":
            import tempfile

            from repro.backends import WorkQueueBackend

            if args.queue_dir:
                queue_dir = args.queue_dir
            else:
                queue_dir = tempfile.mkdtemp(prefix="repro-queue-")
                ephemeral_queue = queue_dir
            if elastic:
                # An ElasticSupervisor grows/drains the worker count
                # with queue pressure.
                pool_kwargs = dict(
                    min_workers=min_workers,
                    max_workers=args.max_workers,
                )
                pool_desc = f"elastic {workers_label}"
            else:
                # Spawn --workers local workers unless the operator
                # points us at an externally-served queue (--queue-dir
                # with --workers 0).
                pool_kwargs = dict(spawn_workers=workers)
                pool_desc = f"{workers} spawned"
            backend = WorkQueueBackend(
                queue_dir,
                lease_timeout=args.lease_timeout,
                idle_timeout=args.idle_timeout or None,
                telemetry=telemetry,
                **pool_kwargs,
            )
            if not args.quiet:
                print(f"work queue: {queue_dir} "
                      f"({pool_desc} worker(s))",
                      file=sys.stderr)
        elif args.backend == "http":
            from repro.backends import HttpQueueBackend

            backend = HttpQueueBackend(
                args.coordinator,
                lease_timeout=args.lease_timeout,
                idle_timeout=args.idle_timeout or None,
                spawn_workers=workers,
                telemetry=telemetry,
            )
            if not args.quiet:
                pool_desc = (f"{workers} spawned" if workers
                             else "remote")
                print(f"coordinator: {args.coordinator} "
                      f"({pool_desc} worker(s))",
                      file=sys.stderr)
        elif args.backend == "serial":
            from repro.backends import SerialBackend

            backend = SerialBackend()
        elif args.backend == "pool":
            from repro.backends import ProcessPoolBackend

            backend = ProcessPoolBackend(max(1, workers))

    progress = None
    if not args.quiet:
        # Progress/ETA lines stream to stderr (one per finished cell or
        # shard), keeping stdout clean for the table/JSON result.  The
        # queue backends contribute a live worker gauge — per host
        # when they can tell hosts apart (elastic fleets, HTTP
        # coordinator stats), a plain count otherwise.
        worker_gauge = (
            getattr(backend, "workers_by_host", None)
            or getattr(backend, "live_worker_count", None)
        )
        progress = CampaignProgress(
            *campaign_totals(specs), worker_gauge=worker_gauge
        )

    started = time.perf_counter()
    try:
        runner = CampaignRunner(
            workers=max(1, workers),
            cache_dir=args.cache_dir,
            progress=progress,
            max_shards_per_cell=args.max_shards,
            backend=backend,
            shard_policy=shard_policy,
            stream_partials=args.stream_partials,
            early_stop=args.early_stop,
            telemetry=telemetry,
        )
        if args.dry_run:
            return _cmd_dry_run(runner, specs, args.name)
        result = runner.run(specs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if backend is not None:
            backend.close()
        if ephemeral_queue is not None:
            import shutil

            shutil.rmtree(ephemeral_queue, ignore_errors=True)
    wall = time.perf_counter() - started
    if telemetry is not None and telemetry.dropped and not args.quiet:
        print(f"warning: {telemetry.dropped} telemetry event(s) "
              "dropped (journal write errors)", file=sys.stderr)

    summaries = result.summaries()
    if args.json:
        print(render_json({
            "campaign": args.name,
            "workers": workers_label,
            "wall_seconds": round(wall, 3),
            "cache_hits": result.cache_hits,
            "cells": summaries,
        }))
        return 0

    headers: List[str] = []
    for summary in summaries:
        for key in summary:
            if key not in headers and key not in _TABLE_DETAIL_KEYS:
                headers.append(key)
    rows = [
        [summary.get(key, "") for key in headers] for summary in summaries
    ]
    print(format_table(headers, rows))
    print(
        f"{len(result)} cells ({result.cache_hits} cached), "
        f"wall {wall:.1f}s, compute {result.total_elapsed:.1f}s, "
        f"workers {workers_label}"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    if bool(args.queue) == bool(args.coordinator):
        print("error: need exactly one of --queue (filesystem) or "
              "--coordinator URL (HTTP)", file=sys.stderr)
        return 2
    from repro.backends import FsTransport, HttpTransport, worker_loop

    worker_loop(
        HttpTransport(args.coordinator) if args.coordinator
        else FsTransport(args.queue),
        worker_id=args.worker_id,
        poll_interval=args.poll,
        max_idle=args.max_idle,
        echo=not args.quiet,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        TraceReport,
        load_journal,
        replay_journal,
        validate_journal,
    )

    try:
        events = load_journal(args.journal)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_journal(events)
        for error in errors:
            print(error, file=sys.stderr)
        print(f"{args.journal}: {len(events)} event(s), "
              f"{len(errors)} schema error(s)")
        return 1 if errors else 0
    report = TraceReport(events)
    if args.json:
        from repro.reporting import render_json

        print(render_json({
            "journal": args.journal,
            "events": len(events),
            "campaign": {
                k: v for k, v in report.campaign.items()
                if k not in ("type", "ts")
            },
            "cells": {
                name: {**row, "flags": sorted(row["flags"])}
                for name, row in report.cells.items()
            },
            "chains": {
                unit: [dict(e) for e in chain]
                for unit, chain in report.chains.items()
            },
            "metrics": replay_journal(args.journal).registry.snapshot(),
        }))
        return 0
    print(report.render())
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        coordinator_status,
        queue_dir_status,
        render_status,
    )

    if bool(args.queue_dir) == bool(args.coordinator):
        print("error: need exactly one of --queue-dir (filesystem) or "
              "--coordinator URL (HTTP)", file=sys.stderr)
        return 2
    try:
        if args.coordinator:
            doc = coordinator_status(args.coordinator)
        else:
            doc = queue_dir_status(args.queue_dir)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        from repro.reporting import render_json

        print(render_json(doc))
        return 0
    print(render_status(doc))
    return 0


def _cmd_coordinator(args: argparse.Namespace) -> int:
    from repro.backends import CoordinatorServer

    try:
        if (args.min_workers is not None
                and args.max_workers is None):
            raise ValueError("--min-workers needs --max-workers "
                             "(the elastic pool bounds come as a pair)")
        server = CoordinatorServer(
            args.queue_dir, host=args.host, port=args.port
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry:
        from repro.telemetry import RunJournal

        telemetry = RunJournal.in_dir(args.queue_dir)
        if not args.quiet:
            print(f"telemetry journal: {telemetry.path}",
                  file=sys.stderr)
    supervisor = None
    if args.max_workers is not None:
        # A colocated elastic pool: the supervisor watches the queue
        # directory it shares with the coordinator, and its workers
        # join through the HTTP front door like any remote host's.
        import os as _os

        from repro.backends import ElasticSupervisor, WorkerLauncher

        supervisor = ElasticSupervisor(
            args.queue_dir,
            min_workers=(
                1 if args.min_workers is None else args.min_workers
            ),
            max_workers=args.max_workers,
            launcher=WorkerLauncher(
                ["--coordinator", server.url],
                _os.path.join(args.queue_dir, "workers"),
            ),
            telemetry=telemetry,
        ).start()
    if not args.quiet:
        pool = ("no local workers" if supervisor is None else
                f"elastic {supervisor.min_workers}.."
                f"{supervisor.max_workers} local worker(s)")
        print(f"coordinator serving {args.queue_dir} at {server.url} "
              f"({pool})\n"
              f"join with: repro worker --coordinator {server.url}",
              file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if supervisor is not None:
            supervisor.shutdown()
        server.shutdown()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.backends import CoordinatorServer, WorkQueueBackend
    from repro.campaigns.cache import ResultCache
    from repro.service import CampaignScheduler

    try:
        elastic = args.max_workers is not None
        if args.min_workers is not None and not elastic:
            raise ValueError("--min-workers needs --max-workers "
                             "(the elastic pool bounds come as a pair)")
        if elastic and args.workers is not None:
            raise ValueError("--workers (fixed pool) and --max-workers "
                             "(elastic pool) are mutually exclusive")
        if elastic:
            pool_kwargs = dict(
                min_workers=(
                    1 if args.min_workers is None else args.min_workers
                ),
                max_workers=args.max_workers,
            )
            pool_desc = (f"elastic {pool_kwargs['min_workers']}.."
                         f"{args.max_workers}")
        else:
            workers = 1 if args.workers is None else args.workers
            pool_kwargs = dict(spawn_workers=workers)
            pool_desc = f"{workers} spawned"
        server = CoordinatorServer(
            args.queue_dir, host=args.host, port=args.port
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    telemetry = None
    if args.telemetry or args.journal:
        from repro.telemetry import RunJournal

        telemetry = (RunJournal(args.journal) if args.journal
                     else RunJournal.in_dir(args.queue_dir))
        if not args.quiet:
            print(f"telemetry journal: {telemetry.path}",
                  file=sys.stderr)

    # The scheduler dispatches straight onto the queue directory the
    # coordinator serves: local pool workers claim through the
    # filesystem, remote hosts join through the HTTP front door, and
    # both drain the same campaigns.
    backend = WorkQueueBackend(
        args.queue_dir,
        lease_timeout=args.lease_timeout,
        telemetry=telemetry,
        **pool_kwargs,
    )
    cache_dir = args.cache_dir or os.path.join(args.queue_dir, "cache")
    scheduler = CampaignScheduler(
        backend,
        cache=ResultCache(cache_dir),
        telemetry=telemetry,
        tenant_inflight=args.tenant_inflight,
    )
    server.state.scheduler = scheduler
    if not args.quiet:
        print(f"campaign service on {args.queue_dir} at {server.url} "
              f"({pool_desc} worker(s), cache {cache_dir})\n"
              f"submit with: repro submit NAME --service {server.url}\n"
              f"workers join with: repro worker --coordinator "
              f"{server.url}",
              file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        scheduler.close()
        backend.close()
        server.shutdown()
    return 0


def _service_report(
    client, campaign_id: str, final: dict, args: argparse.Namespace
) -> int:
    """Render a watched campaign's terminal state (shared by
    ``repro submit --watch`` and ``repro watch``)."""
    from repro.reporting import format_table, render_json

    state = final.get("state")
    if state != "done":
        detail = final.get("error") or ""
        if args.json:
            print(render_json({
                "id": campaign_id,
                "state": state,
                "error": detail or None,
            }))
        else:
            print(f"campaign {campaign_id}: {state}"
                  + (f" ({detail})" if detail else ""),
                  file=sys.stderr)
        return 1
    record = client.result_record(campaign_id)
    summaries = [cell["summary"] for cell in record["cells"]]
    if args.json:
        print(render_json({
            "id": campaign_id,
            "tenant": record["tenant"],
            "state": state,
            "cells": summaries,
        }))
        return 0
    headers: List[str] = []
    for summary in summaries:
        for key in summary:
            if key not in headers and key not in _TABLE_DETAIL_KEYS:
                headers.append(key)
    rows = [
        [summary.get(key, "") for key in headers] for summary in summaries
    ]
    print(format_table(headers, rows))
    print(f"campaign {campaign_id} ({record['tenant']}): "
          f"{len(summaries)} cells done")
    return 0


def _watch_campaign(
    client, campaign_id: str, args: argparse.Namespace
) -> int:
    from repro.reporting import format_feed_line
    from repro.service.client import CampaignNotFound

    on_event = None
    if not args.quiet:
        def on_event(event):  # noqa: E306
            print(format_feed_line(event), file=sys.stderr)
    try:
        final = client.watch(
            campaign_id, on_event=on_event, poll=args.poll
        )
    except CampaignNotFound:
        print(f"error: no campaign {campaign_id!r} at the service "
              "(restarted daemons forget campaigns)", file=sys.stderr)
        return 2
    return _service_report(client, campaign_id, final, args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.campaigns import ShardPolicy, build_campaign
    from repro.service.client import ServiceClient

    try:
        specs = build_campaign(
            args.name, num_samples=args.samples, seed=args.seed
        )
        if args.kernel is not None:
            specs = [
                spec.with_params(kernel=args.kernel) for spec in specs
            ]
        if args.shard_policy == "adaptive":
            policy = ShardPolicy.adaptive(
                min_block=(1024 if args.shard_min_block is None
                           else args.shard_min_block),
                growth=(2.0 if args.shard_growth is None
                        else args.shard_growth),
            )
        else:
            if args.shard_min_block is not None \
                    or args.shard_growth is not None:
                raise ValueError(
                    "--shard-min-block/--shard-growth need "
                    "--shard-policy adaptive"
                )
            policy = None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = {
        "max_shards_per_cell": args.max_shards,
        "stream_partials": args.stream_partials,
        "early_stop": args.early_stop,
    }
    if policy is not None:
        options["shard_policy"] = {
            "mode": policy.mode,
            "min_block": policy.min_block,
            "growth": policy.growth,
        }
    client = ServiceClient(args.service)
    try:
        campaign_id = client.submit(
            specs,
            tenant=args.tenant,
            weight=args.weight,
            options=options,
        )
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.watch:
        if not args.quiet:
            print(f"submitted {campaign_id} ({args.tenant})",
                  file=sys.stderr)
        return _watch_campaign(client, campaign_id, args)
    if args.json:
        from repro.reporting import render_json

        print(render_json({"id": campaign_id, "tenant": args.tenant}))
    else:
        # Bare id on stdout: `ID=$(repro submit ...)` then watch it.
        print(campaign_id)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.service)
    try:
        return _watch_campaign(client, args.id, args)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    from repro.campaigns.grids import CAMPAIGNS
    from repro.core.setups import SETUP_NAMES
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSCache reproduction toolkit (Trilla et al., DAC'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("setups", help="list the evaluated configurations")

    attack = sub.add_parser("attack", help="run the Bernstein case study")
    attack.add_argument("setup", choices=SETUP_NAMES)
    attack.add_argument("--samples", type=int, default=100_000)
    attack.add_argument("--seed", type=int, default=2018)
    attack.add_argument("--heatmap", action="store_true",
                        help="print the Figure 5 candidate map")

    pwcet = sub.add_parser("pwcet", help="MBPTA pWCET analysis")
    pwcet.add_argument("setup", choices=SETUP_NAMES)
    pwcet.add_argument("--runs", type=int, default=300)
    pwcet.add_argument("--seed", type=int, default=6)

    missrates = sub.add_parser(
        "missrates", help="placement-policy miss rates")
    missrates.add_argument("--workers", type=int, default=1)
    sub.add_parser("properties", help="MBPTA placement properties")

    simulate = sub.add_parser("simulate", help="replay a trace file")
    simulate.add_argument("trace", help="trace file (.trc or .trc.gz)")
    simulate.add_argument("--setup", default="deterministic",
                          choices=SETUP_NAMES)
    simulate.add_argument("--seed", type=int, default=None)

    campaign = sub.add_parser(
        "campaign",
        help="run a named experiment grid via the campaign engine",
    )
    campaign.add_argument("name", nargs="?", default=None,
                          choices=sorted(CAMPAIGNS),
                          help="grid to run (optional when --cache-gc "
                               "alone is wanted)")
    campaign.add_argument("--workers", type=int, default=None,
                          help="process-pool size, or worker processes "
                               "to spawn under --backend workqueue "
                               "(default 1; 0 = rely on externally-"
                               "started 'repro worker' processes; "
                               "mutually exclusive with the elastic "
                               "--max-workers pool; results are "
                               "bit-identical in every mode)")
    campaign.add_argument("--backend", default="auto",
                          choices=("auto", "serial", "pool",
                                   "workqueue", "http"),
                          help="execution backend: 'auto' picks serial "
                               "or a process pool from --workers; "
                               "'workqueue' dispatches through a "
                               "filesystem queue to independent "
                               "'repro worker' processes; 'http' "
                               "dispatches to a 'repro coordinator' "
                               "service (needs --coordinator)")
    campaign.add_argument("--queue-dir", default=None,
                          help="work-queue directory for --backend "
                               "workqueue (shared with workers; a "
                               "temp dir when omitted)")
    campaign.add_argument("--coordinator", default=None, metavar="URL",
                          help="coordinator base URL for --backend "
                               "http (implies it under --backend "
                               "auto); workers on any host join with "
                               "'repro worker --coordinator URL'")
    campaign.add_argument("--lease-timeout", type=float, default=60.0,
                          help="seconds without a worker heartbeat "
                               "before a claimed work unit is "
                               "re-enqueued (workqueue backend)")
    campaign.add_argument("--idle-timeout", type=float, default=600.0,
                          help="fail if the work queue saw no "
                               "completion and no live worker for "
                               "this many seconds — e.g. nobody "
                               "started 'repro worker' (workqueue "
                               "backend; 0 waits forever)")
    campaign.add_argument("--max-shards", type=int, default=1,
                          help="split each shardable cell into up to N "
                               "intra-cell shards that fan out across "
                               "the pool (results stay bit-identical "
                               "to --max-shards 1)")
    campaign.add_argument("--shard-policy", default="even",
                          choices=("even", "adaptive"),
                          help="shard geometry: 'even' near-equal "
                               "shards; 'adaptive' small leading "
                               "shards growing geometrically, so "
                               "--early-stop verdicts land after the "
                               "first small prefix (payloads are "
                               "bit-identical either way)")
    campaign.add_argument("--shard-min-block", type=int, default=None,
                          metavar="N",
                          help="adaptive policy: samples in the first "
                               "(smallest) shard (default 1024; needs "
                               "--shard-policy adaptive)")
    campaign.add_argument("--shard-growth", type=float, default=None,
                          metavar="G",
                          help="adaptive policy: size ratio between "
                               "consecutive shards (default 2.0; needs "
                               "--shard-policy adaptive)")
    campaign.add_argument("--min-workers", type=int, default=None,
                          metavar="N",
                          help="elastic workqueue pool: never drain "
                               "below N spawned workers (default 1; "
                               "needs --max-workers)")
    campaign.add_argument("--max-workers", type=int, default=None,
                          metavar="N",
                          help="enable the elastic workqueue pool "
                               "(implies --backend workqueue): an "
                               "ElasticSupervisor grows the spawned "
                               "worker count toward N while units "
                               "queue and retires surplus workers "
                               "(each finishes its lease) once the "
                               "queue drains; replaces the fixed "
                               "--workers pool")
    campaign.add_argument("--kernel", default=None,
                          choices=("auto", "vector", "scalar"),
                          help="execution kernel for every cell: "
                               "'auto'/'vector' run trial blocks, "
                               "trace replays and Bernstein cold-line "
                               "epochs through the batched NumPy "
                               "kernels where the cache model supports "
                               "it (falling back to the scalar loop "
                               "otherwise), 'scalar' forces the "
                               "scalar reference loops; results are "
                               "bit-identical either way — see the "
                               "kernel column of --dry-run for what "
                               "each cell resolves to")
    campaign.add_argument("--dry-run", action="store_true",
                          help="print the planned cells, shard ranges, "
                               "resolved kernels and cache-hit status, "
                               "executing nothing")
    campaign.add_argument("--stream-partials", action="store_true",
                          help="stream incremental merged results "
                               "(attack/pWCET previews) as each cell's "
                               "completed-shard prefix grows")
    campaign.add_argument("--early-stop", action="store_true",
                          help="cancel a cell's remaining shards once "
                               "its kind's stopping rule decides the "
                               "verdict on the completed-shard prefix "
                               "(kinds with a should_stop hook; needs "
                               "--max-shards > 1 to have partials to "
                               "rule on)")
    campaign.add_argument("--cache-gc", type=float, default=None,
                          metavar="DAYS",
                          help="sweep --cache-dir entries older than "
                               "DAYS days (plus orphaned shard "
                               "partials) before running; with no "
                               "campaign name, sweep and exit")
    campaign.add_argument("--samples", type=int, default=None,
                          help="samples (or runs) per cell; campaign "
                               "default when omitted")
    campaign.add_argument("--seed", type=int, default=None,
                          help="campaign root seed")
    campaign.add_argument("--cache-dir", default=None,
                          help="on-disk result cache; finished cells "
                               "are skipped on re-runs")
    campaign.add_argument("--json", action="store_true",
                          help="emit JSON instead of a table")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress the per-cell/per-shard "
                               "progress/ETA lines on stderr")
    campaign.add_argument("--telemetry", action="store_true",
                          help="journal structured run events (spans, "
                               "cache hits, requeues, scaling "
                               "decisions) to a JSONL file for 'repro "
                               "trace'; payloads are bit-identical "
                               "with or without it")
    campaign.add_argument("--journal", default=None, metavar="PATH",
                          help="telemetry journal path (implies "
                               "--telemetry; default: a stamped file "
                               "in --queue-dir, else --cache-dir, "
                               "else the working directory)")

    worker = sub.add_parser(
        "worker",
        help="serve a work queue (directory or coordinator URL) as an "
             "execution worker",
    )
    worker.add_argument("--queue", default=None,
                        help="queue directory (the dispatcher's "
                             "--queue-dir; may be on a shared "
                             "filesystem); exactly one of --queue/"
                             "--coordinator")
    worker.add_argument("--coordinator", default=None, metavar="URL",
                        help="join a 'repro coordinator' service over "
                             "HTTP instead of mounting a queue "
                             "directory (any host with network reach)")
    worker.add_argument("--worker-id", default=None,
                        help="stable identity for heartbeat/log files "
                             "(default: host-pid)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between queue scans when idle")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many idle seconds "
                             "(default: serve until the stop sentinel "
                             "appears)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-unit log lines on stderr")

    coordinator = sub.add_parser(
        "coordinator",
        help="serve a queue directory over HTTP to a worker fleet",
    )
    coordinator.add_argument("--queue-dir", required=True,
                             help="queue directory the coordinator "
                                  "owns (all state lives here — a "
                                  "killed coordinator restarted on "
                                  "the same directory resumes "
                                  "mid-campaign)")
    coordinator.add_argument("--port", type=int, default=8642,
                             help="TCP port to bind (default 8642; "
                                  "0 = ephemeral)")
    coordinator.add_argument("--host", default="0.0.0.0",
                             help="bind address (default 0.0.0.0 — "
                                  "reachable by remote workers)")
    coordinator.add_argument("--min-workers", type=int, default=None,
                             metavar="N",
                             help="colocated elastic pool: never drain "
                                  "below N local workers (default 1; "
                                  "needs --max-workers)")
    coordinator.add_argument("--max-workers", type=int, default=None,
                             metavar="N",
                             help="run an ElasticSupervisor next to "
                                  "the coordinator scaling local "
                                  "'repro worker --coordinator' "
                                  "processes up to N with queue "
                                  "pressure (remote hosts join on "
                                  "top of this pool)")
    coordinator.add_argument("--telemetry", action="store_true",
                             help="journal the colocated pool's "
                                  "scaling/worker events to a stamped "
                                  "JSONL file in --queue-dir")
    coordinator.add_argument("--quiet", action="store_true",
                             help="suppress the startup banner")

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: the coordinator plus a "
             "multi-tenant campaign scheduler over one shared worker "
             "fleet and result cache",
    )
    serve.add_argument("--queue-dir", required=True,
                       help="queue directory the service owns (work "
                            "units, leases, results and — by default "
                            "— the shared result cache live here)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port to bind (default 8642; "
                            "0 = ephemeral)")
    serve.add_argument("--host", default="0.0.0.0",
                       help="bind address (default 0.0.0.0 — "
                            "reachable by remote workers/clients)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared content-addressed result cache "
                            "(default: QUEUE_DIR/cache); two tenants "
                            "submitting the same cell share one "
                            "computation through it")
    serve.add_argument("--workers", type=int, default=None,
                       help="fixed local worker pool size (default 1; "
                            "0 = rely on externally-started 'repro "
                            "worker' processes; mutually exclusive "
                            "with --max-workers)")
    serve.add_argument("--min-workers", type=int, default=None,
                       metavar="N",
                       help="elastic pool: never drain below N local "
                            "workers (default 1; needs --max-workers)")
    serve.add_argument("--max-workers", type=int, default=None,
                       metavar="N",
                       help="elastic local pool: grow toward N with "
                            "queue pressure, retire surplus when the "
                            "queue drains (replaces --workers)")
    serve.add_argument("--lease-timeout", type=float, default=60.0,
                       help="seconds without a worker heartbeat "
                            "before a claimed unit is re-enqueued")
    serve.add_argument("--tenant-inflight", type=int, default=2,
                       help="per-tenant cap on dispatched-but-"
                            "unfinished units — the knob that stops "
                            "one tenant's giant grid from occupying "
                            "every worker (default 2)")
    serve.add_argument("--telemetry", action="store_true",
                       help="journal scheduler + queue events "
                            "(campaign lifecycle, dedup cache hits, "
                            "requeues) to a stamped JSONL file in "
                            "--queue-dir")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="telemetry journal path (implies "
                            "--telemetry)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the startup banner")

    submit = sub.add_parser(
        "submit",
        help="submit a named campaign to a 'repro serve' service",
    )
    submit.add_argument("name", choices=sorted(CAMPAIGNS),
                        help="grid to submit")
    submit.add_argument("--service", required=True, metavar="URL",
                        help="campaign service base URL (repro serve)")
    submit.add_argument("--tenant", default="default",
                        help="tenant name for fair-share scheduling "
                             "and telemetry labels (default "
                             "'default')")
    submit.add_argument("--weight", type=float, default=1.0,
                        help="fair-share weight: a weight-2 tenant "
                             "gets twice the dispatch share of a "
                             "weight-1 tenant under contention")
    submit.add_argument("--samples", type=int, default=None,
                        help="samples (or runs) per cell; campaign "
                             "default when omitted")
    submit.add_argument("--seed", type=int, default=None,
                        help="campaign root seed")
    submit.add_argument("--kernel", default=None,
                        choices=("auto", "vector", "scalar"),
                        help="trial-execution kernel hint (not part "
                             "of cell identity; payloads are "
                             "bit-identical either way)")
    submit.add_argument("--max-shards", type=int, default=1,
                        help="split each shardable cell into up to N "
                             "intra-cell shards")
    submit.add_argument("--shard-policy", default="even",
                        choices=("even", "adaptive"),
                        help="shard geometry (see 'repro campaign')")
    submit.add_argument("--shard-min-block", type=int, default=None,
                        metavar="N",
                        help="adaptive policy: first-shard samples "
                             "(default 1024)")
    submit.add_argument("--shard-growth", type=float, default=None,
                        metavar="G",
                        help="adaptive policy: consecutive-shard "
                             "size ratio (default 2.0)")
    submit.add_argument("--stream-partials", action="store_true",
                        help="stream merged partial summaries into "
                             "the watch feed as shard prefixes "
                             "complete")
    submit.add_argument("--early-stop", action="store_true",
                        help="let the kind's stopping rule cancel a "
                             "cell's remaining shards once the "
                             "verdict is decided")
    submit.add_argument("--watch", action="store_true",
                        help="stay attached: stream the progress feed "
                             "and print the result table when done "
                             "(default: print the campaign id and "
                             "exit)")
    submit.add_argument("--poll", type=float, default=0.2,
                        help="watch poll interval in seconds")
    submit.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table/bare id")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress the progress feed on stderr")

    watch = sub.add_parser(
        "watch",
        help="attach to a submitted campaign: stream its progress "
             "feed and print the result when it finishes",
    )
    watch.add_argument("id", help="campaign id (from 'repro submit')")
    watch.add_argument("--service", required=True, metavar="URL",
                       help="campaign service base URL (repro serve)")
    watch.add_argument("--poll", type=float, default=0.2,
                       help="poll interval in seconds")
    watch.add_argument("--json", action="store_true",
                       help="emit JSON instead of a table")
    watch.add_argument("--quiet", action="store_true",
                       help="suppress the progress feed on stderr")

    trace = sub.add_parser(
        "trace",
        help="analyze a telemetry journal: per-cell timings, slowest "
             "units, requeue chains",
    )
    trace.add_argument("journal",
                       help="JSONL journal written by 'repro campaign "
                            "--telemetry'")
    trace.add_argument("--validate", action="store_true",
                       help="check every event against the journal "
                            "schema and exit nonzero on violations "
                            "(the CI gate)")
    trace.add_argument("--json", action="store_true",
                       help="emit the aggregated report (cells, "
                            "chains, metric summaries) as JSON")

    status = sub.add_parser(
        "status",
        help="live fleet snapshot: workers, in-flight leases, queue "
             "depth, throughput",
    )
    status.add_argument("--queue-dir", default=None,
                        help="inspect a filesystem work queue "
                             "directly; exactly one of --queue-dir/"
                             "--coordinator")
    status.add_argument("--coordinator", default=None, metavar="URL",
                        help="ask a 'repro coordinator' service for "
                             "its /metrics snapshot")
    status.add_argument("--json", action="store_true",
                        help="emit the snapshot document as JSON")

    return parser


_COMMANDS = {
    "setups": _cmd_setups,
    "attack": _cmd_attack,
    "pwcet": _cmd_pwcet,
    "missrates": _cmd_missrates,
    "properties": _cmd_properties,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "worker": _cmd_worker,
    "coordinator": _cmd_coordinator,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "watch": _cmd_watch,
    "trace": _cmd_trace,
    "status": _cmd_status,
}


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe whose reading end has been closed."""
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(event & select.POLLERR for _, event in poller.poll(0))
    except (AttributeError, OSError, ValueError):
        return False


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise  # not stdout: a socket or another pipe
        # The reader stopped early (``repro trace J | head``): its
        # choice, not a failure.  Point stdout at devnull so the flush
        # at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
