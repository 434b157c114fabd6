"""Tests of the benchmark itself, at the "tiny" scale (seconds each)."""

import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.digest import load_frozen, payload_digest
from perfbench.tracing import Span, covered_length, layer_totals, self_times
from perfbench.workloads import WORKLOADS

RUN_PY = os.path.join(bench.BENCH_DIR, "run.py")


def _declared():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "a", 0.0, 10.0, None),
        Span(1, "b", 1.0, 6.0, 0),
        Span(2, "c", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == {0: 5.0, 1: 4.0, 2: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "a", 0.0, 10.0, None),
        Span(1, "b", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 7.0, 0),  # overlaps the first child
        Span(3, "c", 9.0, 12.0, 0),  # overhangs the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert layer_totals(spans)["b"] == (pytest.approx(7.0), 2)


def test_covered_length_merges_touching_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (1, 2), (5, 5), (4, 3)]) == 2.0


# -- digests -----------------------------------------------------------------


def test_payload_digest_is_by_value():
    from repro.campaigns import CampaignRunner, build_campaign

    payload = CampaignRunner().run(
        build_campaign("contention", num_samples=16, seed=3)[:1]
    ).cells[0].payload
    assert payload_digest(pickle.loads(pickle.dumps(payload))) == (
        payload_digest(payload)
    )
    assert payload_digest(frozenset({1, 2, 3})) == (
        payload_digest(frozenset({3, 2, 1}))
    )
    one = np.array([1.0])
    assert payload_digest(one) != payload_digest(np.nextafter(one, 2.0))
    with pytest.raises(TypeError):
        payload_digest(object())


def test_frozen_digests_match_the_workload_sizes():
    groups = load_frozen()["groups"]
    for workload in WORKLOADS.values():
        entry = groups[workload.digest_group]
        assert entry["sizes"] == bench.group_sizes(workload, "full")
        assert entry["seeds"], workload.name


@pytest.fixture(scope="module")
def tiny_rep(tmp_path_factory):
    rep_dir = str(tmp_path_factory.mktemp("rep") / "rep")
    return bench.launch_rep("grids-serial", 5, "tiny", False, rep_dir)


def test_corrupted_digest_raises_failed_frac(tiny_rep):
    cells = tiny_rep["cells"]
    assert None not in cells.values()
    clean = bench.score([tiny_rep], dict(cells))
    assert (clean["failed"], clean["failed_frac"]) == (0, 0.0)
    corrupted = dict(cells)
    victim = sorted(corrupted)[0]
    corrupted[victim] = "0" * 64
    outcome = bench.score([tiny_rep], corrupted)
    assert outcome["failed"] == 1
    assert outcome["failed_frac"] == pytest.approx(1 / len(cells))


def test_a_cell_without_payload_counts_as_failed(tiny_rep):
    raised = dict(tiny_rep, cells=dict(tiny_rep["cells"]))
    victim = sorted(raised["cells"])[0]
    raised["cells"][victim] = None
    outcome = bench.score([tiny_rep, raised], tiny_rep["cells"])
    assert outcome["failed"] == 1
    assert outcome["attempted"] == 2 * len(tiny_rep["cells"])


# -- the command -------------------------------------------------------------


def _run(args, cwd=bench.ROOT):
    return subprocess.run(
        [sys.executable, RUN_PY] + args, cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = _run([
        "--workload", "grids-serial", "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny",
    ])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()[section]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(
            line.startswith(entry["name"] + " ")
            and line.endswith(" " + entry["unit"])
            for line in lines
        ), entry["name"]
    if trace:
        assert any(line.startswith("cell kernels") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        bench.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grids-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_declares_every_workload_and_bound():
    doc = _declared()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
