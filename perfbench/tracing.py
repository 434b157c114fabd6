"""Spans around each layer's public functions, recorded in memory.

The traced run wraps the public entry point of every layer named in
``README.md`` from the benchmark's side: nothing inside ``src/``
changes, and the untraced runs install no wrapper at all.  Each span
carries its name, start, end, parent span and the run id; spans stay
in memory and are written once, when the repetition ends.

A layer's *self time* is its spans' durations minus the part of each
interval that its child spans cover (children may overlap each other,
so the covered part is the length of their union, not their sum).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Records spans for one repetition (one run id).

    Every wrapped function runs on the dispatcher's main thread (the
    coordinator's request threads call none of them), so one stack
    of open spans gives each span its parent; :meth:`end` fails loudly
    should that ever stop holding.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    def begin(self, name: str) -> Span:
        span = Span(
            len(self.spans), name, time.perf_counter(), float("nan"),
            self._open[-1] if self._open else None,
        )
        self.spans.append(span)
        self._open.append(span.span_id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if not self._open or self._open[-1] != span.span_id:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def to_doc(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": s.span_id, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent, "run": self.run_id,
            }
            for s in self.spans
        ]


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``{span_id: duration minus what its children cover}``."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = covered_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.span_id]
        )
        result[span.span_id] = (span.end - span.start) - covered
    return result


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """``{span name: (summed self seconds, call count)}``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        totals[span.name][0] += own[span.span_id]
        totals[span.name][1] += 1
    return {name: (value[0], int(value[1])) for name, value in totals.items()}


#: ``(module, attribute path, span name)`` of every layer boundary the
#: traced run records.  Several functions may share one span name.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.campaigns.runner", "CampaignRunner.run", "campaigns.run"),
    ("repro.campaigns.runner", "CampaignRunner.plan", "campaigns.plan"),
    ("repro.campaigns.cache", "ResultCache.put", "campaigns.cache.put"),
    ("repro.campaigns.cache", "ResultCache.put_shard",
     "campaigns.cache.put"),
    ("repro.backends.base", "execute_unit", "backends.execute"),
    ("repro.core.batch", "ColdLineModel.epoch_state",
     "core.batch.epoch_state"),
    ("repro.crypto.aes", "AES128.encrypt_batch", "crypto.aes.encrypt_batch"),
    ("repro.attack.bernstein", "BernsteinAttack.run", "attack.bernstein.run"),
    ("repro.kernels.replay", "VectorHierarchyBatch.run_trace",
     "kernels.replay.pwcet"),
    ("repro.kernels.replay", "replay_missrate", "kernels.replay.missrate"),
    ("repro.kernels.trials", "run_prime_probe_block",
     "kernels.trials.prime_probe"),
    ("repro.kernels.trials", "run_evict_time_block",
     "kernels.trials.evict_time"),
    ("repro.mbpta.analysis", "MBPTAAnalysis.analyse", "mbpta.analyse"),
) + tuple(
    ("repro.workloads.generators", fn, "workloads.generators.trace")
    for fn in (
        "stride_trace", "reuse_trace", "pointer_chase_trace",
        "random_trace", "matrix_walk_trace", "multi_page_task_trace",
    )
)


def _rebind_function(original: Callable, traced: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``traced``
    (``from x import f`` copies the name into the importing module)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every :data:`LAYER_FUNCTIONS` entry and each registered
    kind's ``merge_shards`` hook (span ``campaigns.merge``)."""
    for module_name, path, span_name in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.wrap(vars(cls)[attr], span_name))
        else:
            original = getattr(module, path)
            _rebind_function(original, tracer.wrap(original, span_name))
    from repro.campaigns import experiment_kinds, get_experiment

    for kind_name in experiment_kinds():
        kind = get_experiment(kind_name)
        if kind.merge_shards is not None:
            # ExperimentKind is frozen; the registry hands out this
            # very instance, so the engine's merges go through the
            # wrapper.  Only this benchmark process is affected.
            object.__setattr__(
                kind, "merge_shards",
                tracer.wrap(kind.merge_shards, "campaigns.merge"),
            )


@dataclass
class UnitRecord:
    """One completed unit as the dispatcher saw it (wall-clock times)."""

    kind: str
    samples: int
    submitted: Optional[float]
    started: Optional[float]
    ended: Optional[float]
    yielded: float
    worker: Optional[str]
    attempts: int


class BackendLedger:
    """Per-unit submit/start/end/yield times of one backend instance.

    Filled by :func:`wrap_backend` from the public ``WorkResult``
    fields (``timings``, ``worker``, ``attempts``): queue-workload
    compute runs in worker processes, where no span is recorded.
    """

    def __init__(self) -> None:
        self.submitted: Dict[str, float] = {}
        self.units: List[UnitRecord] = []

    def note_result(self, result: Any, yielded: float) -> None:
        timings = result.timings or {}
        unit = result.unit
        samples = (
            unit.shard.num_samples if unit.shard is not None
            else unit.spec.num_samples
        )
        self.units.append(UnitRecord(
            kind=unit.spec.kind,
            samples=samples,
            submitted=self.submitted.get(unit.unit_id),
            started=timings.get("started"),
            ended=timings.get("ended"),
            yielded=yielded,
            worker=result.worker,
            attempts=result.attempts,
        ))


def wrap_backend(tracer: Tracer, backend: Any, ledger: BackendLedger) -> None:
    """Trace one backend instance: a ``backends.submit`` span per
    submit, and a ``backends.wait`` span for each blocking step of
    ``completions`` (serial backends execute the unit inside it)."""
    submit, completions = backend.submit, backend.completions

    def traced_submit(unit):
        span = tracer.begin("backends.submit")
        try:
            return submit(unit)
        finally:
            tracer.end(span)
            ledger.submitted[unit.unit_id] = time.time()

    def traced_completions():
        results = completions()
        try:
            while True:
                span = tracer.begin("backends.wait")
                try:
                    result = next(results)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                ledger.note_result(result, time.time())
                yield result
        finally:
            results.close()

    backend.submit = traced_submit
    backend.completions = traced_completions
