"""Batched trace replay for the pwcet and missrate experiment kinds.

Both experiment kinds replay a trace through fresh caches, and both
reduce to one helper, :func:`level_hits`: the hit/miss outcome of a
list of *events* — run ``r`` accesses line ``l`` in set ``s`` — on one
cache level, with one factory-fresh cache per run and each run's
events in its own access order.  It is bit-identical to the scalar
per-access loop of :class:`~repro.cache.core.SetAssociativeCache`.

**Set-local replacement (LRU, FIFO, NRU, tree-PLRU) runs in rounds.**
A cache set's hits and fills depend only on the accesses to that set,
so events are grouped into ``(run, set)`` lanes (one stable sort; lane
ids are compact, so state is ``(lanes, ways)``, never
``(runs × sets, ways)``) and round ``r`` performs the ``r``-th access
of every lane at once.  A level costs as many NumPy steps as its
busiest set has accesses, not as many as the trace.

**Random replacement is stepped per access.**  The scalar policy makes
one draw per conflict miss *in the run's access order*, across all
sets, so which draw a miss gets depends on every earlier conflict of
the run.  Rounds would reorder the draws; instead the events are
stepped in access order, every run at once, each run counting its own
draws into the fixed stream every fresh cache restarts (a shared
table + per-run counters, see :mod:`repro.kernels.replacement`).

**Hierarchies replay level by level** (:class:`VectorHierarchyBatch`).
pwcet cells run the same trace through ``R`` independently-seeded
two-level hierarchies, one per MBPTA run.  L1 never sees L2, so l1i
replays the IFETCH accesses and l1d the rest, each on its own; the L2
then replays only the (run, access) pairs that missed in L1, in access
order.  A run's latency is ``A·l1_hit + n_l1_miss·l2_hit +
n_l2_miss·memory``.  The batch keeps only placement and per-run seeds,
no per-level cache state.

**One lane when the layout is run-invariant.**  If every level maps
every access to the same set in every run (the set matrix equals its
first row: modulo placement, whatever the seed), every run restarts
the same replacement streams on the same layout, so all runs are the
same run: the batch replays one and broadcasts it.  The rule reads
the placement, not a setup name; one run-dependent level is enough to
keep all ``R`` runs.

**Missrate cells** (:func:`replay_missrate`) are one run through one
cache, so their only parallelism is across sets: random replacement
would replay one access per step, and the support probe keeps it on
the scalar path instead (``replacement:random-draws-globally-
sequenced``).

The ``*_support`` probes return ``None`` (in-envelope) or a
machine-readable reason string, surfaced by ``--dry-run`` and the
``kernel_fallback`` telemetry event.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.core import CacheGeometry, SetAssociativeCache
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.placement import PlacementPolicy, make_placement
from repro.cache.replacement import (
    FIFOReplacement,
    LRUReplacement,
    NRUReplacement,
    RandomReplacement,
    TreePLRUReplacement,
)
from repro.common.trace import AccessType
from repro.kernels.cache import VectorSeedRegister
from repro.kernels.placement import vector_placement
from repro.kernels.replacement import vector_replacement_by_name

#: Replacement names the hierarchy replay can reproduce.  ``random`` is
#: included: each scalar run's fresh hierarchy restarts the stock draw
#: stream, which the vector engine replays from a shared table.
_HIERARCHY_REPLACEMENTS = ("lru", "fifo", "nru", "plru", "random")


def hierarchy_support(config: HierarchyConfig) -> Optional[str]:
    """``None`` when a hierarchy config has a vector twin, else why not."""
    levels = (
        ("l1", config.l1_geometry, config.l1_placement, config.l1_replacement),
        ("l2", config.l2_geometry, config.l2_placement, config.l2_replacement),
    )
    for name, geometry, placement_name, replacement_name in levels:
        if replacement_name not in _HIERARCHY_REPLACEMENTS:
            return f"{name}:replacement-{replacement_name}-unsupported"
        if vector_replacement_by_name(
            replacement_name, 1, geometry.num_sets, geometry.num_ways
        ) is None:
            return f"{name}:replacement-{replacement_name}-unsupported"
        placement = make_placement(placement_name, geometry.layout())
        if vector_placement(placement) is None:
            return f"{name}:placement-{placement_name}-unsupported"
    return None


def level_hits(runs: np.ndarray, sets: np.ndarray, lines: np.ndarray,
               steps: np.ndarray, num_ways: int,
               replacement: str) -> np.ndarray:
    """Hit mask of events replayed through one fresh cache per run.

    Event ``i`` is run ``runs[i]`` accessing line address ``lines[i]``
    in set ``sets[i]`` at access index ``steps[i]``; every run's events
    must be in its access order.  Set-local replacements replay in
    rounds over ``(run, set)`` lanes; ``random`` replays in step order.
    """
    n = sets.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    keys = runs * (int(sets.max()) + 1) + sets
    if replacement == "random":
        # Compact lane ids without a sort: lanes only index the state.
        present = np.zeros(int(keys.max()) + 1, dtype=bool)
        present[keys] = True
        lanes = (np.cumsum(present) - 1)[keys]
        num_lanes = int(lanes.max()) + 1
        rounds, owners = steps, runs  # draw counters are per run
        elements = int(runs.max()) + 1
    else:
        by_lane = np.argsort(keys, kind="stable")
        lane_keys = keys[by_lane]
        first = np.ones(n, dtype=bool)
        np.not_equal(lane_keys[1:], lane_keys[:-1], out=first[1:])
        lane_of = np.cumsum(first) - 1  # compact lane ids, in lane order
        lanes = np.empty(n, dtype=np.int64)
        lanes[by_lane] = lane_of
        rounds = np.empty(n, dtype=np.int64)
        rounds[by_lane] = np.arange(n) - np.flatnonzero(first)[lane_of]
        num_lanes = int(lane_of[-1]) + 1
        owners, elements = lanes, num_lanes  # replacement state per lane
    engine = vector_replacement_by_name(replacement, elements, 1, num_ways)
    order = np.argsort(rounds, kind="stable")
    lanes, owners, lines = lanes[order], owners[order], lines[order]
    rounds = rounds[order]
    bounds = np.concatenate((
        [0], np.flatnonzero(rounds[1:] != rounds[:-1]) + 1, [n],
    )).tolist()
    # Engine rows hold one set each; -1 marks an invalid way (addresses
    # are non-negative).  Random replacement keeps no per-way state.
    zeros = np.zeros(n, dtype=np.int64)
    touches = replacement != "random"
    resident = np.full((num_lanes, num_ways), -1, dtype=np.int64)
    hit = np.empty(n, dtype=bool)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        lane, line, owner = lanes[lo:hi], lines[lo:hi], owners[lo:hi]
        held = resident[lane]
        match = held == line[:, None]
        step_hit = match.any(axis=1)
        hit[lo:hi] = step_hit
        if not step_hit.any():
            miss_lane, miss_line, miss_owner = lane, line, owner
        else:
            if touches:
                hit_owner = owner[step_hit]
                engine.touch_hits(hit_owner, zeros[:hit_owner.size],
                                  np.argmax(match[step_hit], axis=1))
            miss = ~step_hit
            if not miss.any():
                continue
            held, miss_lane = held[miss], lane[miss]
            miss_line, miss_owner = line[miss], owner[miss]
        invalid = held == -1
        ways = np.argmax(invalid, axis=1)
        conflict = ~invalid.any(axis=1)
        if conflict.any():
            ways[conflict] = engine.victim_ways(
                miss_owner[conflict], zeros[:np.count_nonzero(conflict)]
            )
        resident[miss_lane, ways] = miss_line
        if touches:
            engine.touch_fills(miss_owner, zeros[:ways.size], ways)
    out = np.empty(n, dtype=bool)
    out[order] = hit
    return out


class _Level:
    """Placement and replacement of one cache level; no cache state."""

    def __init__(self, geometry: CacheGeometry, placement: PlacementPolicy,
                 replacement: str) -> None:
        layout = geometry.layout()
        self.num_ways = geometry.num_ways
        self.placement = vector_placement(placement)
        self.replacement = replacement
        self._offset_bits = layout.offset_bits
        self._index_bits = layout.index_bits

    def lines(self, addresses: np.ndarray) -> np.ndarray:
        return addresses & ~np.int64((1 << self._offset_bits) - 1)

    def map_sets(self, addresses: np.ndarray, pids: np.ndarray,
                 seeds: VectorSeedRegister) -> np.ndarray:
        """``(R, A)`` set of every access under every run's pid seed.

        Each distinct (pid, line) is mapped once: traces revisit lines.
        """
        blocks = (addresses >> self._offset_bits).astype(np.uint64)
        sets = np.empty((seeds.num_trials, addresses.size), dtype=np.int64)
        for pid in np.unique(pids):
            cols = np.flatnonzero(pids == pid)
            unique, inverse = np.unique(blocks[cols], return_inverse=True)
            mapped = self.placement.map_sets(
                unique[None, :] >> np.uint64(self._index_bits),
                unique[None, :] & np.uint64((1 << self._index_bits) - 1),
                seeds.seeds_for(int(pid))[:, None],
            )
            sets[:, cols] = mapped[:, inverse]
        return sets

    def hits(self, mask: np.ndarray, sets: np.ndarray,
             lines: np.ndarray) -> np.ndarray:
        """``(R, A)`` hits of the (run, access) pairs in ``mask``.

        Pairs outside ``mask`` never reach this level and read False.
        """
        runs, accesses = np.nonzero(mask)  # each run in access order
        hit = np.zeros(mask.shape, dtype=bool)
        hit[mask] = level_hits(
            runs, sets[mask], lines[accesses], accesses, self.num_ways,
            self.replacement,
        )
        return hit


def _trace_arrays(trace):
    accesses = list(trace)
    addresses = np.fromiter((a.address for a in accesses), np.int64,
                            len(accesses))
    pids = np.fromiter((a.pid for a in accesses), np.int64, len(accesses))
    return accesses, addresses, pids


class VectorHierarchyBatch:
    """``num_runs`` independent two-level hierarchies, level by level.

    Reproduces :class:`repro.cache.hierarchy.CacheHierarchy` exactly:
    IFETCH accesses go to l1i, the rest to l1d; L2 is consulted only on
    an L1 miss; latencies accumulate per level (l1_hit always, +l2_hit
    on L1 miss, +memory on L2 miss).
    """

    def __init__(self, config: HierarchyConfig, num_runs: int) -> None:
        reason = hierarchy_support(config)
        if reason is not None:
            raise ValueError(f"outside the vector envelope: {reason}")
        self.config = config
        self.num_runs = num_runs
        # l1i and l1d share geometry, policies and seeds: one layout.
        self.l1 = _Level(
            config.l1_geometry,
            make_placement(config.l1_placement, config.l1_geometry.layout()),
            config.l1_replacement,
        )
        self.l2 = _Level(
            config.l2_geometry,
            make_placement(config.l2_placement, config.l2_geometry.layout()),
            config.l2_replacement,
        )
        self.seeds = VectorSeedRegister(num_runs)

    def set_seeds(self, run: int, seed: int,
                  pid: Optional[int] = None) -> None:
        """Scalar ``hierarchy.set_seeds`` for one run of the batch."""
        self.seeds.set_seed(run, seed, pid)

    def run_trace(self, trace) -> np.ndarray:
        """Total memory latency of ``trace`` per run (``(R,)`` int64).

        Call after all per-run seeds are set: the access→set mapping is
        computed once per level under the final seeds.
        """
        accesses, addresses, pids = _trace_arrays(trace)
        if not accesses:
            return np.zeros(self.num_runs, dtype=np.int64)
        l1_sets = self.l1.map_sets(addresses, pids, self.seeds)
        l2_sets = self.l2.map_sets(addresses, pids, self.seeds)
        if (l1_sets == l1_sets[:1]).all() and (l2_sets == l2_sets[:1]).all():
            # Run-invariant layout: every run is the same run.
            l1_sets, l2_sets = l1_sets[:1], l2_sets[:1]
        is_ifetch = np.fromiter(
            (a.access_type is AccessType.IFETCH for a in accesses), bool,
            len(accesses),
        )
        l1_lines = self.l1.lines(addresses)
        l1_hit = np.zeros(l1_sets.shape, dtype=bool)
        for side in (is_ifetch, ~is_ifetch):  # l1i, then l1d
            l1_hit |= self.l1.hits(
                np.broadcast_to(side, l1_sets.shape), l1_sets, l1_lines
            )
        l1_miss = ~l1_hit
        l2_miss = l1_miss & ~self.l2.hits(
            l1_miss, l2_sets, self.l2.lines(addresses)
        )
        lat = self.config.latencies
        times = (
            len(accesses) * lat.l1_hit
            + np.count_nonzero(l1_miss, axis=1) * lat.l2_hit
            + np.count_nonzero(l2_miss, axis=1) * lat.memory
        ).astype(np.int64)
        return np.broadcast_to(times, (self.num_runs,)).copy()


#: Replacement classes whose per-set state is independent across sets,
#: which is what set-parallel rounds require.
_SET_LOCAL_REPLACEMENTS = (
    LRUReplacement,
    FIFOReplacement,
    NRUReplacement,
    TreePLRUReplacement,
)


def missrate_support(cache) -> Optional[str]:
    """``None`` when a cache can take the set-parallel replay, else why."""
    if type(cache) is not SetAssociativeCache:
        return f"cache:subclass-{type(cache).__name__}"
    if not cache.write_allocate:
        return "cache:no-write-allocate"
    if cache._protected_ranges:
        return "cache:protected-ranges"
    replacement = cache.replacement
    if type(replacement) is RandomReplacement:
        # One draw per conflict miss *in global access order*: rounds
        # interleave sets and cannot reproduce the sequencing.
        return "replacement:random-draws-globally-sequenced"
    if type(replacement) not in _SET_LOCAL_REPLACEMENTS:
        label = getattr(replacement, "name", type(replacement).__name__)
        return f"replacement:{label}-unsupported"
    if vector_placement(cache.placement) is None:
        return f"placement:{cache.placement.name}-unsupported"
    return None


def replay_missrate(cache, trace) -> Tuple[int, int]:
    """``(accesses, misses)`` of replaying ``trace`` through ``cache``.

    ``cache`` must be factory-fresh, seeded, and inside
    :func:`missrate_support`'s envelope.  The cache object itself is
    only read (geometry, placement, seeds) — its scalar state is left
    untouched.
    """
    accesses, addresses, pids = _trace_arrays(trace)
    total = len(accesses)
    if total == 0:
        return 0, 0
    level = _Level(cache.geometry, cache.placement, cache.replacement.name)
    seeds = VectorSeedRegister(1)
    seeds.init_seeds(cache.seeds)
    sets = level.map_sets(addresses, pids, seeds)
    hits = level.hits(np.ones(sets.shape, dtype=bool), sets,
                      level.lines(addresses))
    return total, total - int(np.count_nonzero(hits))
