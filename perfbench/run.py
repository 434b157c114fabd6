"""End-to-end benchmark of the paper-grid campaigns.

Runs one workload repeatedly, each repetition in a fresh interpreter
(``rep.py``), for ``--seconds`` seconds; checks every cell's payload
digest against the reference; prints every metric by name with its
unit, and as the last line one JSON object::

    {"correct": ..., "attempted": <cells>, "failed": <cells>,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

``--trace 0`` reports the end-to-end metrics (medians over
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``.  All times are host time.  Run from the
repository root:

    python3 perfbench/run.py --workload grids-serial --seed 1 \
        --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path.insert(0, ROOT)

from perfbench.digest import frozen_digests  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS, Workload  # noqa: E402

BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC_DIR = os.path.join(ROOT, "src")
#: Scratch space for repetitions, references and trace files.
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

#: A repetition that takes longer than this is killed (with its
#: workers) and the run fails.
REP_TIMEOUT_S = 120.0
#: Fewest repetitions a run makes, however short ``--seconds`` is.
MIN_REPS = {0: 3, 1: 2}
#: Seconds :func:`calibration_s` takes at the reference host speed.
CAL_REFERENCE_S = 0.2
#: Calibration loops timed after each repetition (and before the first).
CAL_LOOPS = 2
#: End-to-end times, reported at the reference host speed.
TIME_METRICS = ("setup_s", "wall_s", "total_s", "cpu_s")


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed cell)."""


def _benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def group_sizes(workload: Workload, scale: str) -> Dict[str, Any]:
    return {grid: SIZES[scale][grid] for grid in workload.grids}


# -- host speed --------------------------------------------------------------


def calibration_s() -> float:
    """Seconds one fixed CPU-bound loop takes right now.

    The loop is the benchmark's own code (interpreter-bound integer and
    dict work, then NumPy passes over an 8 MB array), never the
    program's, so no change to the program can move it: it measures
    how fast the shared host runs at this moment, which drifts by
    tens of percent over minutes.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    values = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(30):
        values = (values * np.uint64(2654435761)) ^ (values >> np.uint64(7))
    return time.perf_counter() - start


def _calibrate() -> List[float]:
    return [calibration_s() for _ in range(CAL_LOOPS)]


# -- one repetition ----------------------------------------------------------


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of a repetition's process group (its
    workers, should it die before stopping them) and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch_rep(
    workload: str, seed: int, scale: str, trace: bool, rep_dir: str
) -> Dict[str, Any]:
    """Run ``rep.py`` once; return its record plus launcher timings."""
    os.makedirs(rep_dir, exist_ok=True)
    result_path = os.path.join(rep_dir, "result.json")
    log_path = os.path.join(rep_dir, "rep.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # The HTTP backend keeps spawned-worker logs in a temp directory;
    # keep it inside the repetition's directory.
    env["TMPDIR"] = rep_dir
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(trace)), "--work-dir", rep_dir,
        "--result", result_path,
    ]
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(REP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        finally:
            timer.cancel()
            _kill_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path, errors="replace") as handle:
            tail = handle.read()[-4000:]
        raise BenchError(
            f"{workload} repetition exited with {proc.returncode}:\n{tail}"
        )
    with open(result_path) as handle:
        record = json.load(handle)
    # wait4 reports the repetition's own usage plus that of every
    # worker it reaped, and the largest maxrss among them.
    record.update(
        setup_s=record["ready"] - launched,
        total_s=exited - launched,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return record


# -- references --------------------------------------------------------------


def _reference_path(workload: Workload, seed: int, scale: str) -> str:
    """Where a computed reference is kept.  The name carries a hash of
    the program and workload sources, so a reference computed by other
    code is never reused."""
    hasher = hashlib.sha256()
    files = [os.path.join(BENCH_DIR, "workloads.py")]
    for directory, _, names in sorted(os.walk(os.path.join(SRC_DIR, "repro"))):
        files.extend(
            os.path.join(directory, name)
            for name in sorted(names) if name.endswith(".py")
        )
    for path in files:
        hasher.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return os.path.join(
        RUNS_DIR, "ref",
        f"{workload.digest_group}-s{seed}-{scale}-{hasher.hexdigest()[:16]}"
        ".json",
    )


def reference_digests(
    workload: Workload, seed: int, scale: str
) -> Optional[Dict[str, str]]:
    """The per-cell digests this run must reproduce.

    Frozen digests when the seed has them.  Otherwise the serial
    in-process result for the same grids and seed: for the queue
    workloads it is computed here (untimed) unless an earlier run in
    this checkout left it; for a serial workload without one, None,
    and its first repetition becomes the reference of the rest.
    """
    if scale == "full":
        frozen = frozen_digests(
            workload.digest_group, seed, group_sizes(workload, scale)
        )
        if frozen is not None:
            return frozen
    path = _reference_path(workload, seed, scale)
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    if workload.serial:
        return None
    serial = next(
        w for w in WORKLOADS.values()
        if w.serial and w.digest_group == workload.digest_group
    )
    rep_dir = fresh_dir("reference")
    try:
        record = launch_rep(serial.name, seed, scale, False, rep_dir)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if record["error"]:
        raise BenchError(f"serial reference failed:\n{record['error']}")
    save_reference(workload, seed, scale, record["cells"])
    return record["cells"]


def save_reference(
    workload: Workload, seed: int, scale: str, cells: Dict[str, str]
) -> None:
    path = _reference_path(workload, seed, scale)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(cells, handle)
    os.replace(tmp, path)


def failed_cells(
    cells: Dict[str, Optional[str]], reference: Dict[str, str]
) -> List[str]:
    """Cells that raised (no digest) or whose digest differs."""
    return [
        cell for cell, digest in cells.items()
        if digest is None or reference.get(cell) != digest
    ]


# -- a run -------------------------------------------------------------------


def fresh_dir(label: str) -> str:
    path = os.path.join(RUNS_DIR, "work", f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_reps(
    workload: Workload, seed: int, scale: str, seconds: float, trace: bool
) -> List[Dict[str, Any]]:
    """Repetitions for ``seconds`` (at least :data:`MIN_REPS`); with
    ``trace`` they alternate untraced/traced, marked ``traced``."""
    run_dir = fresh_dir(f"{workload.name}-s{seed}")
    reps: List[Dict[str, Any]] = []
    deadline = time.monotonic() + seconds
    calibrated = _calibrate()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = os.path.join(run_dir, f"rep{len(reps)}")
            record = launch_rep(workload.name, seed, scale, traced, rep_dir)
            # The host's speed around this repetition: the calibration
            # loops just before and just after it.
            before, calibrated = calibrated, _calibrate()
            record["calibration_s"] = statistics.median(before + calibrated)
            record["traced"] = traced
            if traced:
                _keep_trace(workload, seed, len(reps), rep_dir)
            shutil.rmtree(rep_dir, ignore_errors=True)
            reps.append(record)
            if len(reps) < MIN_REPS[int(trace)]:
                continue
            # Stop when another repetition of typical length would
            # overrun the measuring window.
            typical = statistics.median(r["total_s"] for r in reps) + (
                CAL_LOOPS * statistics.median(r["calibration_s"] for r in reps)
            )
            if time.monotonic() + typical > deadline:
                return reps
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _keep_trace(workload: Workload, seed: int, index: int, rep_dir: str):
    traces = os.path.join(RUNS_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.move(
        os.path.join(rep_dir, "trace.json"),
        os.path.join(traces, f"{workload.name}-s{seed}-rep{index}.json"),
    )


def score(
    reps: List[Dict[str, Any]], reference: Optional[Dict[str, str]]
) -> Dict[str, Any]:
    """Cells attempted/failed over every repetition."""
    if reference is None:
        reference = reps[0]["cells"]
    attempted = failed = 0
    errors = []
    for rep in reps:
        attempted += len(rep["cells"])
        failed += len(failed_cells(rep["cells"], reference))
        if rep["error"]:
            errors.append(rep["error"])
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
    }


def _median(reps: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def at_reference_speed(rep: Dict[str, Any], key: str) -> float:
    """A repetition's time scaled to the reference host speed."""
    return rep[key] * CAL_REFERENCE_S / rep["calibration_s"]


def end_to_end_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = {
        key: statistics.median(at_reference_speed(rep, key) for rep in reps)
        for key in TIME_METRICS
    }
    metrics["peak_rss_mb"] = _median(reps, "peak_rss_mb")
    return metrics


def per_layer_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = (
        _median(traced, "total_s") - _median(plain, "total_s")
    )
    metrics["host.calibration_s"] = _median(reps, "calibration_s")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="'tiny' exists for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC_DIR}")
    declared = _benchmark_json()
    workload = WORKLOADS[args.workload]
    # Untimed set-up: byte-compile once, so no repetition pays it.
    compileall.compile_dir(SRC_DIR, quiet=1)
    reference = reference_digests(workload, args.seed, args.scale)
    reps = run_reps(
        workload, args.seed, args.scale, args.seconds, bool(args.trace)
    )
    outcome = score(reps, reference)
    if reference is None and outcome["failed"] == 0:
        save_reference(workload, args.seed, args.scale, reps[0]["cells"])

    if args.trace:
        values = per_layer_metrics(reps)
        declared_metrics = declared["per_layer"]
    else:
        values = end_to_end_metrics(reps)
        declared_metrics = declared["end_to_end"]
    for index, rep in enumerate(reps):
        print(
            f"rep {index}{' traced' if rep['traced'] else ''}: "
            f"setup {rep['setup_s']:.3f}s wall {rep['wall_s']:.3f}s "
            f"total {rep['total_s']:.3f}s cpu {rep['cpu_s']:.3f}s "
            f"rss {rep['peak_rss_mb']:.1f}MB "
            f"calibration {rep['calibration_s']:.4f}s"
        )
    if args.trace:
        print("cell kernels (CampaignRunner.plan):")
        for plan in reps[0]["plans"]:
            print(
                f"  {plan['cell']}: {plan['kernel']}"
                f" shards={plan['shards']}"
                + (f" fallback={plan['reason']}" if plan["reason"] else "")
            )
    metrics = {}
    for entry in declared_metrics:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    print(
        f"failed_frac {outcome['failed_frac']:.6g} "
        f"({outcome['failed']}/{outcome['attempted']} cells)"
    )
    for error in outcome["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
