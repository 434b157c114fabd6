"""Scalar vs. vector kernel throughput, tracked in BENCH_kernels.json.

Measures the batched NumPy kernels (:mod:`repro.kernels`) against the
scalar loops on the four hot paths — contention-attack trial blocks,
trace replay (pwcet run batches, missrate set-parallel rounds), the
Fig. 5 engine's per-epoch cold-line warm-ups and its AES encryption
batches —
building each cell exactly the way a campaign does (same specs, same
per-trial seed hooks).  Every measured pair is also asserted
bit-identical — a benchmark that drifted from the scalar semantics
would fail, not report a bogus speedup.

Results go three places:

* a titled block through the shared bench reporting
  (``benchmarks/results.txt``);
* machine-readable ``BENCH_kernels.json`` at the repo root — the
  tracked perf trajectory, refreshed whenever the kernels change;
* the exit code, when ``--check-floor`` is given: nonzero if *any*
  setup's speedup falls below its own per-setup floor (the CI perf
  gate — per-setup, so a regression in one envelope corner cannot
  hide behind another setup's headline number).

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py --check-floor
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.campaigns import ExperimentSpec
from repro.campaigns.experiments import (
    _contention_attack,
    _contention_seeder,
    _pwcet_times,
    resolve_contention_kernel,
    resolve_engine_kernel,
    resolve_missrate_kernel,
    resolve_pwcet_kernel,
    run_missrate,
)
from repro.campaigns.registry import KernelResolution
from repro.core.batch import AESTimingEngine
from repro.core.setups import make_setup
from repro.crypto.aes import AES128, random_key
from benchmarks.reporting import emit

DEFAULT_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_kernels.json")

#: The measured grid: campaign-shaped contention cells, each with its
#: own conservative CI floor (kept well under the tracked speedups so
#: runner jitter never flakes the build).  The "deterministic" setups
#: are the original acceptance targets (pure LRU); "tscache" stock
#: pairs random placement with random replacement (in-envelope since
#: the draw-sequencing kernels landed), "rpcache" exercises the
#: permutation-table placement plus interference redirection, and
#: "mbpta" the RM+hashRP random hierarchy.  Trial budgets are sized so
#: the batched kernel's fixed per-block overhead amortizes the way
#: real campaign blocks do.
SETUPS = (
    # (kind, setup, params, trials, floor)
    ("prime_probe", "deterministic", (), 256, 2.5),
    ("prime_probe", "tscache", (("replacement", "lru"),), 256, 2.5),
    ("prime_probe", "tscache", (), 256, 2.0),
    ("prime_probe", "rpcache", (), 256, 2.0),
    ("prime_probe", "mbpta", (), 256, 2.0),
    ("evict_time", "deterministic", (), 96, 2.5),
    ("evict_time", "tscache", (), 96, 2.0),
)

#: Trace-replay cells: pwcet replays a two-level hierarchy level by
#: level over a batch of runs, missrate replays one cache set-parallel.
#: All four setups' pwcet cells are measured: the modulo layouts
#: (deterministic, rpcache) collapse to one replayed run, the random
#: ones (mbpta, tscache) step their random-replacement L1 per access.
#: Floors sit at or below half the recorded speedup, so runner jitter
#: cannot trip the gate.
REPLAYS = (
    # (kind, setup-or-policy label, params, budget, floor)
    ("pwcet", "tscache", (("analyse", False),), 48, 8.0),
    ("pwcet", "mbpta", (("analyse", False),), 48, 8.0),
    ("pwcet", "deterministic", (("analyse", False),), 48, 40.0),
    ("pwcet", "rpcache", (("analyse", False),), 48, 40.0),
    ("missrate", "random_modulo", (("workload", "reuse"),), 1, 1.0),
)


#: Fig. 5 cold-line epochs: the per-epoch cache warm-ups of one
#: victim collection, scalar ``ColdLineModel.epoch_state`` loop vs one
#: batched ``epoch_states`` call — the random-replacement setups, whose
#: collections need one epoch per 1024-sample realisation block.
EPOCHS = (
    # (setup, collection samples, floor)
    ("mbpta", 30_000, 4.0),
    ("tscache", 30_000, 4.0),
)


#: Fig. 5 encryptions: one engine-sized chunk (the default 1024-sample
#: RNG block), a scalar ``encrypt_block_traced`` loop vs one
#: ``encrypt_batch`` call.
AES_BATCHES = (
    # (blocks, floor)
    (1024, 50.0),
)


def _bench_spec(kind, setup, params, samples) -> ExperimentSpec:
    return ExperimentSpec(
        kind=kind, setup=setup, num_samples=samples, seed=2018,
        params=params,
    )


def _time_block(attack, trials, seeder, repeats: int) -> tuple:
    """(best seconds, correct count) for one full trial block."""
    best = float("inf")
    correct = None
    for _ in range(repeats):
        started = time.perf_counter()
        block = attack.run_block(0, trials, trials, seeder)
        best = min(best, time.perf_counter() - started)
        if correct is None:
            correct = block.correct
        elif correct != block.correct:
            raise AssertionError("non-deterministic trial block")
    return best, correct


def _time_fn(fn, repeats: int) -> tuple:
    """(best seconds, first result) of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    result = None
    for i in range(repeats):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
        if i == 0:
            result = out
    return best, result


def _row(kind, setup, params, budget, floor, resolved,
         check, scalar_s, vector_s) -> dict:
    return {
        "kind": kind,
        "setup": setup,
        "params": [list(item) for item in params],
        "trials": budget,
        "resolved_kernel": resolved.kernel,
        "fallback_reason": resolved.reason,
        "floor": floor,
        "correct": check,
        "scalar_s": round(scalar_s, 5),
        "vector_s": round(vector_s, 5),
        "scalar_trials_per_s": round(budget / scalar_s, 1),
        "vector_trials_per_s": round(budget / vector_s, 1),
        "speedup": round(scalar_s / vector_s, 2),
    }


def _bench_contention(kind, setup, params, trials, floor, repeats) -> dict:
    spec = _bench_spec(kind, setup, params, trials)
    seeder = _contention_seeder(spec)
    resolved = resolve_contention_kernel(spec)
    scalar = _contention_attack(spec.with_params(kernel="scalar"))
    vector = _contention_attack(spec.with_params(kernel="vector"))
    scalar_s, scalar_correct = _time_block(scalar, trials, seeder, repeats)
    vector_s, vector_correct = _time_block(vector, trials, seeder, repeats)
    if scalar_correct != vector_correct:
        raise AssertionError(
            f"{kind}/{setup}: vector kernel diverged from scalar "
            f"({vector_correct} vs {scalar_correct} correct)"
        )
    return _row(kind, setup, params, trials, floor, resolved,
                scalar_correct, scalar_s, vector_s)


def _bench_pwcet(setup, params, runs, floor, repeats) -> dict:
    spec = _bench_spec("pwcet", setup, params, runs)
    resolved = resolve_pwcet_kernel(spec)
    scalar_spec = spec.with_params(kernel="scalar")
    vector_spec = spec.with_params(kernel="vector")
    scalar_s, scalar_times = _time_fn(
        lambda: _pwcet_times(scalar_spec, 0, runs), repeats
    )
    vector_s, vector_times = _time_fn(
        lambda: _pwcet_times(vector_spec, 0, runs), repeats
    )
    if not np.array_equal(scalar_times, vector_times):
        raise AssertionError(
            f"pwcet/{setup}: vector replay diverged from scalar"
        )
    return _row("pwcet", setup, params, runs, floor, resolved,
                int(scalar_times.sum()), scalar_s, vector_s)


def _bench_missrate(policy, params, floor, repeats) -> dict:
    spec = ExperimentSpec(
        kind="missrate", num_samples=1, seed=0x1234,
        params=(("policy", policy),) + params,
    )
    resolved = resolve_missrate_kernel(spec)
    scalar_s, scalar_payload = _time_fn(
        lambda: run_missrate(spec.with_params(kernel="scalar")), repeats
    )
    vector_s, vector_payload = _time_fn(
        lambda: run_missrate(spec.with_params(kernel="vector")), repeats
    )
    if (scalar_payload.accesses, scalar_payload.misses) != (
            vector_payload.accesses, vector_payload.misses):
        raise AssertionError(
            f"missrate/{policy}: vector replay diverged from scalar"
        )
    return _row("missrate", policy, params, 1, floor, resolved,
                scalar_payload.misses, scalar_s, vector_s)


def _bench_epochs(setup, samples, floor, repeats) -> dict:
    spec = _bench_spec("bernstein", setup, (), samples)
    resolved = resolve_engine_kernel(spec)
    engine = AESTimingEngine(make_setup(setup), rng=2018)
    keys = list(dict.fromkeys(
        epoch for _, _, epoch, _ in engine._range_blocks(
            samples, 0, samples, "victim", 0xC0DE
        )
    ))
    model = engine.cold_model
    scalar_s, scalar_states = _time_fn(
        lambda: [model.epoch_state(*key) for key in keys], repeats
    )
    vector_s, (cold, line_set) = _time_fn(
        lambda: model.epoch_states(keys), repeats
    )
    for k, (ref_cold, ref_sets) in enumerate(scalar_states):
        if not (np.array_equal(cold[k], ref_cold)
                and np.array_equal(line_set[k], ref_sets)):
            raise AssertionError(
                f"bernstein-epochs/{setup}: batched epoch {keys[k]} "
                "diverged from scalar"
            )
    return _row("bernstein-epochs", setup, (), len(keys), floor, resolved,
                int(cold.sum()), scalar_s, vector_s)


def _bench_aes(blocks, floor, repeats) -> dict:
    rng = np.random.default_rng(2018)
    aes = AES128(random_key(rng))
    plaintexts = rng.integers(0, 256, size=(blocks, 16), dtype=np.uint8)
    rows = [bytes(row) for row in plaintexts]
    scalar_s, traced = _time_fn(
        lambda: [aes.encrypt_block_traced(row) for row in rows], repeats
    )
    vector_s, (ciphertexts, lookup_bytes) = _time_fn(
        lambda: aes.encrypt_batch(plaintexts), repeats
    )
    for i, (ct, lookups) in enumerate(traced):
        if (bytes(ciphertexts[i]) != ct or lookup_bytes[i].tolist()
                != [lookup.byte_index for lookup in lookups]):
            raise AssertionError(
                f"aes-encrypt-batch: block {i} diverged from scalar"
            )
    return _row("aes-encrypt-batch", "aes128", (), blocks, floor,
                KernelResolution("vector"), int(lookup_bytes.sum()),
                scalar_s, vector_s)


def run_benchmark(trials_scale: float = 1.0, repeats: int = 3) -> dict:
    """Measure every setup; returns the BENCH_kernels.json document."""
    rows = []
    for kind, setup, params, base_trials, floor in SETUPS:
        trials = max(8, int(base_trials * trials_scale))
        rows.append(
            _bench_contention(kind, setup, params, trials, floor, repeats)
        )
    for kind, label, params, budget, floor in REPLAYS:
        if kind == "pwcet":
            runs = max(4, int(budget * trials_scale))
            rows.append(_bench_pwcet(label, params, runs, floor, repeats))
        else:
            rows.append(_bench_missrate(label, params, floor, repeats))
    for setup, base_samples, floor in EPOCHS:
        samples = max(2048, int(base_samples * trials_scale))
        rows.append(_bench_epochs(setup, samples, floor, repeats))
    for blocks, floor in AES_BATCHES:
        rows.append(_bench_aes(blocks, floor, repeats))
    return {
        "bench": "kernels",
        "schema": 2,
        "repeats": repeats,
        "setups": rows,
        "max_speedup": max(row["speedup"] for row in rows),
    }


#: History entries kept in BENCH_kernels.json — enough to see a
#: regression trend without the file growing forever.
HISTORY_LIMIT = 50


def append_history(doc: dict, json_path: str) -> dict:
    """Fold the prior file's run history into ``doc``.

    Every run appends one stamped summary entry (UTC stamp, max
    speedup, per-setup speedups) to a ``history`` list carried across
    rewrites, so a speedup regression shows as a *trajectory* — not
    just a pass/fail against the static floor.  A missing or corrupt
    prior file starts a fresh history.
    """
    history = []
    try:
        with open(json_path) as handle:
            history = json.load(handle).get("history", [])
    except (OSError, ValueError):
        pass
    if not isinstance(history, list):
        history = []
    history.append({
        "stamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "max_speedup": doc["max_speedup"],
        "speedups": {
            f"{row['kind']}/{row['setup']}": row["speedup"]
            for row in doc["setups"]
        },
    })
    doc["history"] = history[-HISTORY_LIMIT:]
    return doc


def check_floors(doc: dict, scale: float) -> List[str]:
    """Per-setup floor failures (empty = gate green).

    Each row is gated against ``scale`` times its own floor; scalar
    fallback rows (if any appear in the grid) are exempt — there is
    nothing to gate when the resolver says the cell runs scalar.
    """
    failures = []
    for row in doc["setups"]:
        if row["resolved_kernel"] != "vector":
            continue
        floor = row["floor"] * scale
        if row["speedup"] < floor:
            failures.append(
                f"{row['kind']}/{row['setup']}: speedup "
                f"{row['speedup']:.2f}x below its {floor:.2f}x floor"
            )
    return failures


def report(doc: dict) -> None:
    lines = []
    for row in doc["setups"]:
        extra = (
            " " + ",".join(f"{k}={v}" for k, v in row["params"])
            if row["params"] else ""
        )
        kernel = row["resolved_kernel"]
        if row.get("fallback_reason"):
            kernel += f" ({row['fallback_reason']})"
        lines.append(
            f"{row['kind']}/{row['setup']}{extra}: "
            f"{row['trials']} trials, "
            f"scalar {row['scalar_trials_per_s']:.0f}/s, "
            f"vector {row['vector_trials_per_s']:.0f}/s "
            f"(speedup {row['speedup']:.2f}x, floor {row['floor']:.1f}x, "
            f"correct={row['correct']}, kernel={kernel})"
        )
    lines.append(f"max speedup: {doc['max_speedup']:.2f}x")
    emit("Trial kernels: scalar vs vector throughput", lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=DEFAULT_JSON_PATH, metavar="PATH",
        help="where to write the machine-readable results "
             "(default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--trials-scale", type=float, default=1.0, metavar="X",
        help="multiply every setup's trial budget by X",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per (setup, kernel); best-of wins",
    )
    parser.add_argument(
        "--check-floor", type=float, default=None, metavar="SCALE",
        nargs="?", const=1.0,
        help="exit nonzero if any setup's speedup falls below SCALE "
             "times its per-setup floor (default SCALE=1.0; the CI "
             "perf gate — floors are conservative so runner jitter "
             "never flakes the build)",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(trials_scale=args.trials_scale,
                        repeats=args.repeats)
    report(doc)
    append_history(doc, args.json)
    with open(args.json, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {args.json}")

    if args.check_floor is not None:
        failures = check_floors(doc, args.check_floor)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
