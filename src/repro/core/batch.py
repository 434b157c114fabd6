"""Vectorized AES-encryption timing engine.

The paper collects 10^7 AES timing samples per setup on a cycle-
accurate simulator.  Re-running a scalar simulator per encryption is
infeasible in Python at attack scale, so this engine factors the
computation the way the physics factors:

1. **Cold-line model (batched, per seed epoch).**  The deterministic
   background activity (see :mod:`repro.workloads.interference`)
   evicts a *fixed* subset of the 160 AES table lines from L1 between
   encryptions — fixed given the placement policy and the seeds.  That
   subset (the "cold mask") is computed by replaying warm-up +
   background through the cache model, once per seed epoch (and per
   replacement realisation under random replacement).  All epochs a
   collection range needs replay at once on the vector cache kernel,
   one lane per epoch, bit-identical to the scalar cache objects
   (:meth:`ColdLineModel.epoch_state`, kept as the reference and as
   the ``kernel="scalar"`` path).

2. **Per-encryption timing (vectorized).**  An encryption's time is
   the fixed pipeline+hit baseline plus one L2-hit penalty per
   *distinct cold table line it touches* — exactly the quantity the
   scalar hierarchy would charge, evaluated with NumPy across
   thousands of encryptions at once (the AES lookup streams come from
   :meth:`repro.crypto.aes.AES128.encrypt_batch`, which is verified
   against the scalar implementation).

RPCache's randomized interference is modelled faithfully to its
semantics: the deterministic cold lines caused by *other-process*
contention are removed (RPCache redirects those evictions to random
sets) and replaced by per-encryption evictions of random sets, which
hit random table lines.

3. **Block-structured randomness (intra-cell sharding).**  The sample
   budget is partitioned into *collection blocks* whose boundaries
   depend only on the setup and the engine config — never on how the
   work is split across workers.  Every block draws its plaintexts and
   interference noise from a private :class:`numpy.random.SeedSequence`
   child stream keyed by the block's absolute start position, so the
   samples of block ``[s, e)`` are a pure function of the engine's
   entropy root, the party, the campaign seed and ``s``.  A
   :class:`ShardPlan` groups whole blocks into contiguous shards;
   :meth:`AESTimingEngine.collect_shard` computes one shard's slice and
   :func:`merge_shard_samples` reassembles them **bit-identically** to
   the serial :meth:`AESTimingEngine.collect` path, for any shard count
   and any completion order.

The consistency of (1)+(2) against the scalar hierarchy is covered by
integration tests (``tests/test_batch.py``); the shard/serial
equivalence by the golden-trace suite (``tests/test_golden_traces.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.trace import MemoryAccess
from repro.cache.core import (
    ARM920T_L1_GEOMETRY,
    CacheGeometry,
    SetAssociativeCache,
)
from repro.cache.placement import make_placement
from repro.cache.replacement import make_replacement
from repro.cache.rpcache import RPCache
from repro.core.setups import SetupConfig
from repro.crypto.aes import (
    AES128,
    DEFAULT_TABLE_BASE,
    LOOKUPS_PER_ENCRYPTION,
    lookup_table_ids,
)
from repro.workloads.interference import BackgroundWorkload, bernstein_background

#: Total distinct cache lines backing the five 1 KB AES tables.
NUM_TABLE_LINES = 160

#: 32-byte lines hold eight 4-byte table entries.
ENTRIES_PER_LINE = 8

VICTIM_PID = 1
OTHER_PID = 7


def lookup_line_ids(lookup_bytes: np.ndarray) -> np.ndarray:
    """Map (N, 160) lookup byte indices to (N, 160) table line ids.

    Line id = table * 32 + byte // 8; tables are contiguous in memory
    so line ids also index the table region line-by-line.
    """
    if lookup_bytes.ndim != 2 or lookup_bytes.shape[1] != LOOKUPS_PER_ENCRYPTION:
        raise ValueError("lookup_bytes must have shape (N, 160)")
    table_offsets = lookup_table_ids().astype(np.int64) * 32
    return table_offsets[None, :] + (lookup_bytes.astype(np.int64) >> 3)


#: Lookup byte -> the bit of its line within its 32-line table.
_LINE_BIT = (
    np.uint32(1) << (np.arange(256, dtype=np.uint32) >> np.uint32(3))
).astype("<u4")

#: Lookup positions of each of the five tables, in table order.
_TABLE_POSITIONS = [
    np.flatnonzero(lookup_table_ids() == table) for table in range(5)
]


def accessed_lines(lookup_bytes: np.ndarray) -> np.ndarray:
    """(N, 160) bool: which table lines each encryption touches.

    The scatter of :func:`lookup_line_ids` into a line matrix, built as
    one 32-bit line mask per table (OR over the table's lookups)
    unpacked to bools — far cheaper than a 160-wide fancy scatter.
    """
    if lookup_bytes.ndim != 2 or lookup_bytes.shape[1] != LOOKUPS_PER_ENCRYPTION:
        raise ValueError("lookup_bytes must have shape (N, 160)")
    bits = np.take(_LINE_BIT, lookup_bytes)
    masks = np.empty((lookup_bytes.shape[0], 5), dtype="<u4")
    for table, positions in enumerate(_TABLE_POSITIONS):
        masks[:, table] = np.bitwise_or.reduce(bits[:, positions], axis=1)
    return np.unpackbits(
        masks.view(np.uint8), axis=1, bitorder="little"
    ).view(bool)


@dataclass
class TimingSamples:
    """A collected sample set for one party (victim or attacker)."""

    plaintexts: np.ndarray  # (N, 16) uint8
    timings: np.ndarray  # (N,) float
    key: bytes
    setup_name: str

    def __post_init__(self) -> None:
        if self.plaintexts.shape[0] != self.timings.shape[0]:
            raise ValueError("plaintexts and timings must align")

    @property
    def num_samples(self) -> int:
        return int(self.timings.shape[0])

    def key_xor_plaintexts(self) -> np.ndarray:
        """Plaintext bytes XORed with the key (study-phase indices)."""
        key = np.frombuffer(self.key, dtype=np.uint8)
        return self.plaintexts ^ key[None, :]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, end)`` of a cell's sample budget."""

    index: int
    num_shards: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad shard range [{self.start}, {self.end})")
        if not 0 <= self.index < self.num_shards:
            raise ValueError(
                f"shard index {self.index} outside 0..{self.num_shards - 1}"
            )

    @property
    def num_samples(self) -> int:
        return self.end - self.start


class ShardPlan:
    """A partition of ``[0, num_samples)`` into contiguous shards.

    Shard boundaries must land on *allowed* split points (for the AES
    engine: collection-block boundaries, so cold-mask epochs and RNG
    blocks are never torn across shards).  The plan is deterministic in
    its inputs; executing shards in any order and merging by shard
    index reproduces the unsharded computation bit for bit.
    """

    def __init__(self, num_samples: int, shards: Sequence[Shard]) -> None:
        shards = tuple(shards)
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not shards:
            raise ValueError("a plan needs at least one shard")
        expected = 0
        for i, shard in enumerate(shards):
            if shard.index != i or shard.num_shards != len(shards):
                raise ValueError("shard indexes must be 0..k-1 in order")
            if shard.start != expected:
                raise ValueError(
                    f"shard {i} starts at {shard.start}, expected {expected}"
                )
            expected = shard.end
        if expected != num_samples:
            raise ValueError(
                f"shards cover [0, {expected}), budget is {num_samples}"
            )
        self.num_samples = num_samples
        self.shards = shards

    def __iter__(self):
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __getitem__(self, index: int) -> Shard:
        return self.shards[index]

    def __repr__(self) -> str:
        ranges = ", ".join(f"[{s.start},{s.end})" for s in self.shards)
        return f"ShardPlan({self.num_samples}: {ranges})"

    @classmethod
    def even(cls, num_samples: int, max_shards: int) -> "ShardPlan":
        """Near-equal split with unit granularity (no alignment rule)."""
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        k = min(max_shards, num_samples)
        edges = sorted({num_samples * i // k for i in range(k + 1)})
        return cls._from_edges(num_samples, edges)

    @classmethod
    def adaptive(
        cls,
        num_samples: int,
        max_shards: int,
        *,
        min_block: int = 1024,
        growth: float = 2.0,
        boundaries: Optional[Sequence[int]] = None,
    ) -> "ShardPlan":
        """Geometric split: small leading shards, growing tail.

        The first shard holds ~``min_block`` samples and each later
        shard is ``growth`` times its predecessor, so an early-stopping
        rule gets its first merged prefix after ``min_block`` samples
        instead of after ``num_samples / max_shards`` — while the tail
        still ships in a few large, low-overhead units.  When
        ``max_shards`` runs out before the geometric series covers the
        budget, the last shard absorbs the remainder.  With
        ``boundaries`` each cut snaps to the nearest allowed split
        point still to the right of the previous cut (the same rule as
        :meth:`from_boundaries`), so AES-engine plans stay
        block-aligned.  Like every plan, the geometry changes only how
        the budget is partitioned — position-keyed RNG streams keep the
        merged samples bit-identical to any other plan's.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        if min_block < 1:
            raise ValueError("min_block must be >= 1")
        if growth < 1.0:
            raise ValueError("growth must be >= 1.0")
        candidates = (
            sorted({b for b in boundaries if 0 < b < num_samples})
            if boundaries is not None
            else None
        )
        edges: List[int] = [0]
        block = float(min_block)
        while len(edges) < max_shards:
            target = edges[-1] + max(1, int(round(block)))
            if target >= num_samples:
                break
            if candidates is None:
                cut = target
            else:
                low = bisect.bisect_right(candidates, edges[-1])
                if low >= len(candidates):
                    break
                pos = bisect.bisect_left(candidates, target, low)
                choices = [
                    candidates[j]
                    for j in (pos - 1, pos)
                    if low <= j < len(candidates)
                ]
                if not choices:
                    break
                cut = min(choices, key=lambda c: (abs(c - target), c))
            edges.append(cut)
            block *= growth
        edges.append(num_samples)
        return cls._from_edges(num_samples, edges)

    @classmethod
    def from_boundaries(
        cls,
        num_samples: int,
        max_shards: int,
        boundaries: Sequence[int],
    ) -> "ShardPlan":
        """Balanced split whose cuts snap to allowed ``boundaries``.

        Each ideal cut (``i * num_samples / max_shards``) moves to the
        nearest allowed boundary still to the right of the previous
        cut; when no boundary fits, the plan simply has fewer shards.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        candidates = sorted({b for b in boundaries if 0 < b < num_samples})
        cuts: List[int] = []
        prev = 0
        for i in range(1, max_shards):
            target = i * num_samples / max_shards
            low = bisect.bisect_right(candidates, prev)
            if low >= len(candidates):
                break
            pos = bisect.bisect_left(candidates, target, low)
            choices = [
                candidates[j]
                for j in (pos - 1, pos)
                if low <= j < len(candidates)
            ]
            if not choices:
                continue
            best = min(choices, key=lambda c: (abs(c - target), c))
            cuts.append(best)
            prev = best
        return cls._from_edges(num_samples, [0] + cuts + [num_samples])

    @classmethod
    def _from_edges(cls, num_samples: int, edges: Sequence[int]) -> "ShardPlan":
        edges = sorted(set(edges))
        k = len(edges) - 1
        return cls(
            num_samples,
            [
                Shard(index=i, num_shards=k, start=edges[i], end=edges[i + 1])
                for i in range(k)
            ],
        )


@dataclass(frozen=True)
class ShardPolicy:
    """How a cell's budget is cut into shards (geometry only).

    The campaign runner owns one policy and hands it to every shardable
    kind's ``plan_shards`` hook, so the whole campaign shares one
    geometry discipline:

    * ``even`` — near-equal shards (the historical default): lowest
      per-unit overhead, but an early-stopping rule sees its first
      merged prefix only after ``total / max_shards`` samples.
    * ``adaptive`` — :meth:`ShardPlan.adaptive` geometry: leading
      shards of ~``min_block`` samples growing by ``growth``, so
      ``early_stop`` campaigns rule on the SPRT after the first small
      prefix while the tail still ships in large units.

    Policies choose *where* the cuts land, never what is computed:
    every policy merges bit-identically to every other (and to the
    unsharded run), because all randomness is keyed to absolute sample
    positions.
    """

    mode: str = "even"
    min_block: int = 1024
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("even", "adaptive"):
            raise ValueError(
                f"unknown shard policy {self.mode!r}; "
                "choose 'even' or 'adaptive'"
            )
        if self.min_block < 1:
            raise ValueError("min_block must be >= 1")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1.0")

    @classmethod
    def adaptive(
        cls, min_block: int = 1024, growth: float = 2.0
    ) -> "ShardPolicy":
        return cls(mode="adaptive", min_block=min_block, growth=growth)

    def plan(
        self,
        num_samples: int,
        max_shards: int,
        boundaries: Optional[Sequence[int]] = None,
    ) -> ShardPlan:
        """The policy's plan for one budget (optionally snap-aligned).

        ``min_block`` is clamped to the even-shard size
        (``num_samples // max_shards``) so a cell whose whole budget
        is below the configured block still shards — the policy's
        point is a *small lead shard*, and collapsing to a single
        shard would silently disable early stopping for exactly the
        small-budget cells that decide fastest.  The clamp makes the
        adaptive lead shard never larger than an even shard.
        """
        if self.mode == "adaptive":
            min_block = min(
                self.min_block, max(1, num_samples // max_shards)
            )
            return ShardPlan.adaptive(
                num_samples,
                max_shards,
                min_block=min_block,
                growth=self.growth,
                boundaries=boundaries,
            )
        if boundaries is None:
            return ShardPlan.even(num_samples, max_shards)
        return ShardPlan.from_boundaries(num_samples, max_shards, boundaries)

    def describe(self) -> str:
        """Compact geometry label for plans/progress (``--dry-run``)."""
        if self.mode == "even":
            return "even"
        return f"adaptive(min={self.min_block},x{self.growth:g})"


@dataclass
class ShardSamples:
    """One shard's slice of a collection (see :func:`merge_shard_samples`)."""

    shard: Shard
    plaintexts: np.ndarray  # (shard.num_samples, 16) uint8
    timings: np.ndarray  # (shard.num_samples,) float
    key: bytes
    setup_name: str
    total_samples: int

    def __post_init__(self) -> None:
        if self.plaintexts.shape[0] != self.shard.num_samples:
            raise ValueError("plaintexts do not match the shard range")
        if self.timings.shape[0] != self.shard.num_samples:
            raise ValueError("timings do not match the shard range")


def merge_shard_samples(
    parts: Sequence[ShardSamples], *, partial: bool = False
) -> TimingSamples:
    """Reassemble a full :class:`TimingSamples` from every shard.

    Accepts the parts in **any** order (they are sorted by shard
    index); validates that together they tile ``[0, total_samples)``
    exactly and belong to one collection (same key/setup/budget).

    With ``partial=True`` the parts may instead be a contiguous
    *prefix* of the plan (shards 0..k-1 of n): the result then holds
    only the first ``parts[k-1].shard.end`` samples — the streaming-
    merge substrate that lets reporting surface attack results before
    a cell finishes.  Because every shard's randomness is keyed to its
    absolute positions, the prefix equals the first samples of the
    full collection bit for bit.
    """
    if not parts:
        raise ValueError("no shards to merge")
    ordered = sorted(parts, key=lambda p: p.shard.index)
    first = ordered[0]
    expected_k = first.shard.num_shards
    if not partial and len(ordered) != expected_k:
        raise ValueError(
            f"have {len(ordered)} shards, plan had {expected_k}"
        )
    cursor = 0
    for i, part in enumerate(ordered):
        if part.shard.index != i:
            raise ValueError(f"duplicate or missing shard index {i}")
        if part.key != first.key or part.setup_name != first.setup_name:
            raise ValueError("shards come from different collections")
        if part.total_samples != first.total_samples:
            raise ValueError("shards disagree on the total budget")
        if part.shard.start != cursor:
            raise ValueError(
                f"shard {i} starts at {part.shard.start}, expected {cursor}"
            )
        cursor = part.shard.end
    if not partial and cursor != first.total_samples:
        raise ValueError(
            f"shards cover [0, {cursor}), budget is {first.total_samples}"
        )
    return TimingSamples(
        plaintexts=np.concatenate([p.plaintexts for p in ordered], axis=0),
        timings=np.concatenate([p.timings for p in ordered]),
        key=first.key,
        setup_name=first.setup_name,
    )


#: ``(victim_seed, other_seed, include_other, replacement_seed)`` — the
#: seed tuple one epoch state is a pure function of.
EpochKey = Tuple[int, int, bool, int]


class ColdLineModel:
    """Per-epoch cache state for the table region.

    For one placement configuration and seed assignment, determines
    which table lines the background activity leaves cold in L1 at the
    start of each encryption, by replaying the access pattern through
    the cache models.  :meth:`epoch_states` replays many seed epochs at
    once on the vector cache kernel (:mod:`repro.kernels`), one lane
    per epoch; :meth:`epoch_state` replays one epoch through the scalar
    cache objects and is the bit-exact reference for the batch.
    """

    def __init__(
        self,
        setup: SetupConfig,
        background: BackgroundWorkload,
        table_base: int = DEFAULT_TABLE_BASE,
        geometry: CacheGeometry = ARM920T_L1_GEOMETRY,
    ) -> None:
        self.setup = setup
        self.background = background
        self.table_base = table_base
        self.geometry = geometry
        self.layout = geometry.layout()

    # -- cache construction -------------------------------------------------

    @property
    def _random_replacement(self) -> bool:
        return (
            self.setup.l1_replacement == "random"
            and self.setup.l1_policy != "rpcache"
        )

    def _build_cache(self, victim_seed: int, other_seed: int,
                     replacement_seed: int = 0) -> SetAssociativeCache:
        if self.setup.l1_policy == "rpcache":
            # pids already select distinct permutation tables.
            return RPCache(self.geometry)
        placement = make_placement(self.setup.l1_policy, self.layout)
        replacement = make_replacement(
            self.setup.l1_replacement,
            self.geometry.num_sets,
            self.geometry.num_ways,
        )
        if self._random_replacement:
            replacement.reseed(_replacement_stream_seed(replacement_seed))
        cache = SetAssociativeCache(self.geometry, placement, replacement)
        cache.set_seed(victim_seed, pid=VICTIM_PID)
        cache.set_seed(other_seed, pid=OTHER_PID)
        return cache

    def _table_line_addresses(self) -> List[int]:
        return [
            self.table_base + line * self.layout.line_size
            for line in range(NUM_TABLE_LINES)
        ]

    # -- the per-epoch state ---------------------------------------------------

    def epoch_key(
        self,
        victim_seed: int,
        other_seed: int,
        include_other: bool = True,
        replacement_seed: int = 0,
    ) -> EpochKey:
        """The seed tuple an epoch state depends on.

        The replacement seed never reaches a deterministic cache, so
        it is dropped there and resampled blocks share one state.
        """
        if self.setup.l1_replacement != "random":
            replacement_seed = 0
        return (victim_seed, other_seed, include_other, replacement_seed)

    def epoch_state(
        self,
        victim_seed: int,
        other_seed: int,
        include_other: bool = True,
        replacement_seed: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(cold_mask, line_set) for one seed epoch, on the scalar caches.

        ``cold_mask[l]`` — table line ``l`` is evicted from L1 by the
        per-interval background activity (so the next encryption pays
        an L2 hit on first touch).  ``line_set[l]`` — the L1 set the
        line occupies under the victim's mapping (used by the RPCache
        noise model).  With random replacement, ``replacement_seed``
        selects one realisation of the eviction choices — callers
        resample it periodically to model the per-interval variation.
        """
        victim_seed, other_seed, include_other, replacement_seed = (
            self.epoch_key(
                victim_seed, other_seed, include_other, replacement_seed
            )
        )
        cache = self._build_cache(victim_seed, other_seed, replacement_seed)
        addresses = self._table_line_addresses()
        # Warm-up: two passes so LRU order is the table-id order.
        for _ in range(2):
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
        # One background interval, application buffers then OS.
        for access in self.background.same_process_trace(VICTIM_PID):
            cache.access(access)
        if include_other:
            for access in self.background.other_process_trace(OTHER_PID):
                cache.access(access)
        cold = np.array(
            [
                not cache.contains(address, pid=VICTIM_PID)
                for address in addresses
            ],
            dtype=bool,
        )
        line_set = np.array(
            [
                cache.lookup_set(MemoryAccess(address, pid=VICTIM_PID))
                for address in addresses
            ],
            dtype=np.int64,
        )
        return cold, line_set

    def vector_support(self) -> Optional[str]:
        """``None`` when :meth:`epoch_states` can batch this setup, else
        the machine-readable reason the engine stays on the scalar path."""
        from repro.kernels.trials import vector_cache_support

        return vector_cache_support(self._build_cache(0, 0))

    def epoch_states(
        self, keys: Sequence[EpochKey]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`epoch_state` for many keys at once, bit for bit.

        Returns ``(cold, line_set)``, both ``(len(keys), 160)``; row
        ``k`` belongs to ``keys[k]`` (as built by :meth:`epoch_key`).
        Each key is one lane of a vector cache batch with its own
        placement seeds and — under random replacement — its own
        xorshift draw stream.  Every lane replays the same trace as the
        scalar reference (table warm-up twice, own-process background,
        then other-process background for lanes with
        ``include_other``), mapped to sets up front.
        """
        from repro.kernels.trials import make_vector_batch

        lanes = len(keys)
        seeds = (
            [_replacement_stream_seed(key[3]) for key in keys]
            if self._random_replacement
            else None
        )
        batch = make_vector_batch(
            self._build_cache(0, 0), lanes, replacement_seeds=seeds
        )
        if batch is None:
            raise ValueError(
                f"setup {self.setup.name!r} is outside the vector "
                f"envelope: {self.vector_support()}"
            )
        for lane, (victim_seed, other_seed, _, _) in enumerate(keys):
            batch.set_seed(lane, victim_seed, pid=VICTIM_PID)
            batch.set_seed(lane, other_seed, pid=OTHER_PID)
        include_other = np.array([key[2] for key in keys], dtype=bool)

        table = self._table_line_addresses()
        own = self.background.same_process_trace(VICTIM_PID)
        other = self.background.other_process_trace(OTHER_PID)
        victim_steps = 2 * len(table) + len(own)
        addresses = np.array(
            table * 2 + [a.address for a in own] + [a.address for a in other],
            dtype=np.int64,
        )
        sets = np.concatenate(
            [
                batch.map_sets(addresses[:victim_steps], VICTIM_PID),
                batch.map_sets(addresses[victim_steps:], OTHER_PID),
            ],
            axis=1,
        )
        lines = addresses & ~np.int64(self.layout.line_size - 1)
        for step in range(victim_steps):
            batch._access_mapped(
                np.full(lanes, lines[step]), sets[:, step], VICTIM_PID
            )
        if include_other.any():
            active = None if include_other.all() else include_other
            for step in range(victim_steps, len(addresses)):
                batch._access_mapped(
                    np.full(lanes, lines[step]), sets[:, step], OTHER_PID,
                    active,
                )
        hits, line_set = batch.probe_many(table, VICTIM_PID)
        return ~hits, line_set

    def estimate_interference_events(self, victim_seed: int,
                                     other_seed: int) -> int:
        """RPCache randomized evictions per steady-state interval.

        Replays several full intervals (table touch + application
        buffers + OS buffers) and counts the randomized evictions of
        the last one, so one-time cold-start conflicts are excluded.
        """
        if self.setup.l1_policy != "rpcache":
            return 0
        cache = self._build_cache(victim_seed, other_seed)
        assert isinstance(cache, RPCache)
        addresses = self._table_line_addresses()
        before = 0
        for _ in range(4):
            before = cache.randomized_evictions
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
            for access in self.background.same_process_trace(VICTIM_PID):
                cache.access(access)
            for access in self.background.other_process_trace(OTHER_PID):
                cache.access(access)
        return cache.randomized_evictions - before


def _replacement_stream_seed(replacement_seed: int) -> int:
    """Seed of one realisation's random-replacement draw stream."""
    return replacement_seed ^ 0x5EED_BA5E


@dataclass
class EngineConfig:
    """Timing parameters of the vectorized engine."""

    #: Fixed cycles per encryption: pipeline work + the L1-hit cost of
    #: all 160 lookups and the surrounding instructions.
    base_cycles: float = 1480.0
    #: Extra cycles for a table lookup resolved in L2 (L1 miss).
    miss_penalty: float = 10.0
    table_base: int = DEFAULT_TABLE_BASE
    chunk_size: int = 16384
    #: Encryptions per replacement-state realisation for caches with
    #: random replacement (the eviction choices vary per background
    #: interval; we resample them at this granularity).
    replacement_block: int = 1024
    #: RNG-block granularity: every multiple of this position starts a
    #: fresh per-block sample stream, and is therefore an allowed
    #: shard boundary.  Smaller = finer sharding of setups without
    #: natural epoch/realisation boundaries, at slightly more stream
    #: setup overhead.
    shard_block: int = 1024
    #: Cold-line kernel ("auto"/"vector"/"scalar"), the campaign
    #: layer's uniform seam (see
    #: :data:`repro.attack.trials.KERNEL_CHOICES`).  "scalar" runs the
    #: reference :meth:`ColdLineModel.epoch_state` loop; "auto" and
    #: "vector" batch every epoch of a collection range on the vector
    #: cache kernel, falling back to scalar for setups outside its
    #: envelope.  Results are bit-identical either way.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.kernel not in ("auto", "vector", "scalar"):
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from "
                "('auto', 'vector', 'scalar')"
            )

    @property
    def rng_block(self) -> int:
        """The effective RNG-block quantum (also caps batch memory)."""
        return min(self.chunk_size, self.shard_block)


#: spawn_key tags separating the two parties' block streams.
_PARTY_TAGS = {"victim": 0x56C7, "attacker": 0xA77C}


class AESTimingEngine:
    """Collects attack-scale AES timing samples for one setup.

    Parameters
    ----------
    rng:
        Entropy source for the per-block sample streams: a
        :class:`numpy.random.Generator` (four words are drawn from it
        once, at construction), an int seed, a ``SeedSequence``, or
        None for the historical default seed.  Collection itself is a
        pure function of (entropy root, key, party, campaign seed,
        sample budget): calling :meth:`collect` twice with the same
        arguments returns identical samples, and sharded collection is
        bit-identical to serial collection.
    """

    def __init__(
        self,
        setup: SetupConfig,
        background: Optional[BackgroundWorkload] = None,
        config: Optional[EngineConfig] = None,
        rng=None,
    ) -> None:
        self.setup = setup
        self.background = (
            background if background is not None else default_background()
        )
        self.config = config if config is not None else EngineConfig()
        source = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(2018 if rng is None else rng)
        )
        #: Entropy words rooting every per-block sample stream.
        self._entropy: Tuple[int, ...] = tuple(
            int(word)
            for word in source.integers(0, 1 << 32, size=4, dtype=np.uint64)
        )
        self.rng = source
        self.cold_model = ColdLineModel(
            setup, self.background, table_base=self.config.table_base
        )

    # -- seed streams ---------------------------------------------------------

    def _seed_plan(self, num_samples: int, party: str,
                   campaign_seed: int) -> List[Tuple[int, int, int]]:
        """(start, end, victim_seed) epochs covering the sample range.

        ``campaign_seed`` identifies the machine/task; the attacker's
        study machine derives the *same* placement seeds as the victim
        exactly when the setup allows seed sharing.
        """
        if party not in ("victim", "attacker"):
            raise ValueError("party must be 'victim' or 'attacker'")
        shared = self.setup.shared_seed_between_parties
        party_salt = 0 if (shared or party == "victim") else 0x0BAD_5EED
        epoch_len = self.setup.reseed_every or num_samples
        plan = []
        start = 0
        epoch_index = 0
        while start < num_samples:
            end = min(start + epoch_len, num_samples)
            seed = (campaign_seed ^ party_salt) + 0x9E37 * epoch_index
            plan.append((start, end, seed & 0xFFFF_FFFF))
            start = end
            epoch_index += 1
        return plan

    # -- block structure -------------------------------------------------------

    def collection_blocks(self, num_samples: int) -> List[Tuple[int, int]]:
        """The ``(start, end)`` collection blocks tiling the budget.

        Boundaries are the union of seed-epoch starts, replacement-
        realisation starts (random replacement only) and multiples of
        the chunk size — every position at which the engine's timing
        state or RNG stream turns over.  They depend only on the setup
        and the engine config, never on shard count, which is what
        makes any block-aligned partition merge bit-identically.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        bounds = set(range(0, num_samples, self.config.rng_block))
        randomized = self.setup.l1_replacement == "random"
        for start, end, _ in self._seed_plan(num_samples, "victim", 0):
            bounds.add(start)
            if randomized:
                bounds.update(
                    range(start, end, self.config.replacement_block)
                )
        bounds.add(num_samples)
        edges = sorted(bounds)
        return list(zip(edges, edges[1:]))

    def shard_plan(
        self,
        num_samples: int,
        max_shards: int,
        policy: Optional[ShardPolicy] = None,
    ) -> ShardPlan:
        """A block-aligned :class:`ShardPlan` for ``num_samples``.

        ``policy`` selects the cut geometry (default: even); whatever
        it picks, the cuts snap to collection-block boundaries so
        cold-mask epochs and RNG blocks are never torn across shards.
        """
        boundaries = [start for start, _ in self.collection_blocks(num_samples)]
        policy = policy if policy is not None else ShardPolicy()
        return policy.plan(num_samples, max_shards, boundaries=boundaries)

    def _block_rng(
        self, party: str, campaign_seed: int, block_start: int
    ) -> np.random.Generator:
        """The private sample stream of the block starting at ``block_start``."""
        sequence = np.random.SeedSequence(
            entropy=self._entropy,
            spawn_key=(
                _PARTY_TAGS[party],
                campaign_seed & 0xFFFF_FFFF,
                (campaign_seed >> 32) & 0xFFFF_FFFF,
                block_start,
            ),
        )
        return np.random.default_rng(sequence)

    # -- collection --------------------------------------------------------------

    def collect(
        self,
        key: bytes,
        num_samples: int,
        party: str = "victim",
        campaign_seed: int = 0xC0DE,
    ) -> TimingSamples:
        """Simulate ``num_samples`` encryptions and their timings."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        plaintexts, timings = self._collect_range(
            key, num_samples, 0, num_samples, party, campaign_seed
        )
        return TimingSamples(
            plaintexts=plaintexts,
            timings=timings,
            key=key,
            setup_name=self.setup.name,
        )

    def collect_shard(
        self,
        key: bytes,
        num_samples: int,
        shard: Shard,
        party: str = "victim",
        campaign_seed: int = 0xC0DE,
    ) -> ShardSamples:
        """One shard's slice of a ``num_samples`` collection.

        ``shard`` must be block-aligned (see :meth:`shard_plan`);
        merging every shard of a plan with :func:`merge_shard_samples`
        reproduces :meth:`collect` byte for byte.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if shard.end > num_samples:
            raise ValueError(
                f"shard ends at {shard.end}, budget is {num_samples}"
            )
        allowed = {start for start, _ in self.collection_blocks(num_samples)}
        allowed.add(num_samples)
        for position in (shard.start, shard.end):
            if position not in allowed:
                raise ValueError(
                    f"shard boundary {position} is not block-aligned "
                    "(use AESTimingEngine.shard_plan)"
                )
        plaintexts, timings = self._collect_range(
            key, num_samples, shard.start, shard.end, party, campaign_seed
        )
        return ShardSamples(
            shard=shard,
            plaintexts=plaintexts,
            timings=timings,
            key=key,
            setup_name=self.setup.name,
            total_samples=num_samples,
        )

    @cached_property
    def kernel(self) -> str:
        """The cold-line path :meth:`collect` runs: ``"vector"`` (batched
        :meth:`ColdLineModel.epoch_states`) or ``"scalar"`` (the
        reference :meth:`ColdLineModel.epoch_state` loop)."""
        vector = (
            self.config.kernel != "scalar"
            and self.cold_model.vector_support() is None
        )
        return "vector" if vector else "scalar"

    def _epoch_states(
        self, keys: Sequence[EpochKey]
    ) -> Dict[EpochKey, Tuple[np.ndarray, np.ndarray]]:
        """Every distinct key's ``(cold_mask, line_set)``."""
        keys = list(dict.fromkeys(keys))
        if self.kernel == "scalar":
            return {key: self.cold_model.epoch_state(*key) for key in keys}
        cold, line_set = self.cold_model.epoch_states(keys)
        return {key: (cold[k], line_set[k]) for k, key in enumerate(keys)}

    def _range_blocks(
        self,
        num_samples: int,
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
    ) -> List[Tuple[int, int, EpochKey, int]]:
        """``(start, end, epoch key, interference events)`` of every
        cold-state realisation block overlapping samples ``[lo, hi)``."""
        randomized_replacement = self.setup.l1_replacement == "random"
        party_salt = 0 if party == "victim" else 0xA77A
        include_other = not self.setup.randomize_other_process
        blocks = []
        for start, end, victim_seed in self._seed_plan(
            num_samples, party, campaign_seed
        ):
            if end <= lo or start >= hi:
                continue
            other_seed = victim_seed ^ 0x7E57_0123  # OS runs under its own seed
            events = self.cold_model.estimate_interference_events(
                victim_seed, other_seed
            )
            # With random replacement the cold realisation changes per
            # background interval; resample it every replacement_block
            # encryptions.  Deterministic replacement: one state per
            # seed epoch.
            block_len = (
                self.config.replacement_block
                if randomized_replacement
                else end - start
            )
            for block_start in range(start, end, block_len):
                block_end = min(block_start + block_len, end)
                if block_end <= lo or block_start >= hi:
                    continue
                key = self.cold_model.epoch_key(
                    victim_seed,
                    other_seed,
                    include_other=include_other,
                    replacement_seed=block_start ^ party_salt,
                )
                blocks.append((block_start, block_end, key, events))
        return blocks

    def _collect_range(
        self,
        key: bytes,
        num_samples: int,
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(plaintexts, timings) for samples ``[lo, hi)`` of the budget."""
        aes = AES128(key)
        plaintexts = np.empty((hi - lo, 16), dtype=np.uint8)
        timings = np.empty(hi - lo, dtype=float)
        chunk = self.config.rng_block
        blocks = self._range_blocks(num_samples, lo, hi, party, campaign_seed)
        # Every distinct epoch state of the range, computed in one go.
        states = self._epoch_states([epoch for _, _, epoch, _ in blocks])
        for block_start, block_end, epoch, events in blocks:
            cold, line_set = states[epoch]
            # RNG blocks: split the realisation at absolute
            # rng_block multiples.  Each owns a child stream keyed
            # by its start position, so output never depends on
            # which shard computes it.
            rng_start = block_start
            while rng_start < block_end:
                rng_end = min(block_end, (rng_start // chunk + 1) * chunk)
                if rng_end > lo and rng_start < hi:
                    block_rng = self._block_rng(
                        party, campaign_seed, rng_start
                    )
                    block = block_rng.integers(
                        0, 256,
                        size=(rng_end - rng_start, 16),
                        dtype=np.uint8,
                    )
                    _, lookup_bytes = aes.encrypt_batch(block)
                    out = slice(rng_start - lo, rng_end - lo)
                    plaintexts[out] = block
                    timings[out] = self._chunk_timings(
                        lookup_bytes, cold, line_set, events, block_rng
                    )
                rng_start = rng_end
        return plaintexts, timings

    # -- timing math ----------------------------------------------------------------

    def _chunk_timings(
        self,
        lookup_bytes: np.ndarray,
        cold_mask: np.ndarray,
        line_set: np.ndarray,
        interference_events: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        accessed = accessed_lines(lookup_bytes)
        cold_hits = np.count_nonzero(accessed[:, cold_mask], axis=1)
        timings = self.config.base_cycles + self.config.miss_penalty * cold_hits
        if interference_events > 0:
            timings = timings + self._interference_noise(
                accessed, cold_mask, line_set, interference_events, rng
            )
        return timings

    def _interference_noise(
        self,
        accessed: np.ndarray,
        cold_mask: np.ndarray,
        line_set: np.ndarray,
        events: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """RPCache random-set evictions: per-encryption extra misses.

        Each interference event evicts one line from a uniformly
        random set; when that set holds a (warm) table line, the next
        encryption pays a miss on it if it touches the line.
        """
        n = accessed.shape[0]
        num_sets = self.cold_model.geometry.num_sets
        # A representative table line per set (or -1): random evictions
        # in a set push out at most one table line of interest.
        set_to_line = np.full(num_sets, -1, dtype=np.int64)
        for line in range(NUM_TABLE_LINES - 1, -1, -1):
            if not cold_mask[line]:
                set_to_line[line_set[line]] = line
        draws = rng.integers(0, num_sets, size=(n, events))
        evicted_lines = set_to_line[draws]  # (n, events), -1 = no table line
        valid = evicted_lines >= 0
        safe_lines = np.where(valid, evicted_lines, 0)
        touched = accessed[np.arange(n)[:, None], safe_lines] & valid
        return self.config.miss_penalty * touched.sum(axis=1).astype(float)


def default_background() -> BackgroundWorkload:
    """The case-study background interference (see
    :func:`repro.workloads.interference.bernstein_background`)."""
    return bernstein_background()
