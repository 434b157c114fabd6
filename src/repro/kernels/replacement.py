"""Vectorized batch replacement-policy engines.

NumPy re-implementations of every policy in
:mod:`repro.cache.replacement`, operating on ``(E, S, W)`` state —
``E`` independent caches (one per trial, run, or set-lane), ``S`` sets,
``W`` ways — so :class:`repro.kernels.cache.VectorCacheBatch` can step
any supported policy in lock-step instead of being hardwired to LRU.

Each engine is bit-identical to its scalar counterpart under the
batch's access discipline (each element row appears at most once per
step, hits and fills are disjoint):

* :class:`VectorLRU` — last-touch stamps; ``argmin`` equals the scalar
  recency stack because victims are only consulted once every way has
  been touched, so the stamps are distinct within the row.
* :class:`VectorFIFO` / :class:`VectorNRU` / :class:`VectorPLRU` —
  direct array transcriptions of the scalar state machines.
* :class:`VectorRandom` — the subtle one.  The scalar policy consumes
  one PRNG draw per conflict miss *in access order*, and every stock
  instance restarts the same fixed XorShift128 stream (fresh cache per
  trial/run ⇒ same stream everywhere).  The vector twin therefore
  materializes the stream prefix once as a shared
  :class:`FixedDrawTable` and gives each element its own draw counter:
  element ``e``'s ``k``-th conflict miss reads table entry ``k`` —
  exactly the draw its scalar cache would have made.
* :class:`VectorXorShiftRandom` — one private xorshift128 stream per
  element (``(E, 4)`` uint32 state), for batches whose scalar caches
  are each reseeded to their own seed; seeded through the vector
  SplitMix64 exactly like ``XorShift128.reseed``.
* :class:`VectorCounterRandom` — the counter-based mode
  (``RandomReplacement(draws=CounterStream(key))``): draw ``k`` is a
  pure function of ``(key, k)``, so no table is needed at all.

:func:`replacement_support` is the envelope probe: ``None`` when a
bit-identical vector twin exists, else a machine-readable reason
string (surfaced by ``--dry-run`` and the ``kernel_fallback``
telemetry event).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cache.replacement import (
    FIFOReplacement,
    LRUReplacement,
    NRUReplacement,
    RANDOM_REPLACEMENT_SEED,
    RandomReplacement,
    ReplacementPolicy,
    TreePLRUReplacement,
)
from repro.common.bitops import mask
from repro.common.prng import XorShift128
from repro.kernels.placement import U64, _SPLITMIX_GAMMA, splitmix64_step_vec


class FixedDrawTable:
    """Lazily materialized prefix of a sequential PRNG draw stream.

    Shared across batch elements: because every scalar cache instance
    restarts the same stream, element ``e``'s ``k``-th draw is stream
    position ``k`` regardless of ``e``.
    """

    def __init__(self, prng, bound: int) -> None:
        self._prng = prng
        self._bound = bound
        self._table = np.zeros(0, dtype=np.int64)

    def _ensure(self, size: int) -> None:
        if size <= self._table.size:
            return
        extra: List[int] = [
            self._prng.next_below(self._bound)
            for _ in range(size - self._table.size)
        ]
        self._table = np.concatenate(
            [self._table, np.asarray(extra, dtype=np.int64)]
        )

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Stream values at the given positions (any int array)."""
        if indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        self._ensure(int(indices.max()) + 1)
        return self._table[indices]


class VectorReplacement:
    """Batched replacement state over ``(num_elements, S, W)``.

    The batch calls :meth:`touch_hits` / :meth:`touch_fills` once per
    access step with disjoint row subsets (a row either hits or fills),
    and :meth:`victim_ways` only for rows whose target set has no
    invalid way — mirroring when the scalar core consults
    ``victim_way``.  Rows are unique within each call.
    """

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        if num_elements <= 0 or num_sets <= 0 or num_ways <= 0:
            raise ValueError("engine dimensions must be positive")
        self.num_elements = num_elements
        self.num_sets = num_sets
        self.num_ways = num_ways

    def touch_hits(self, rows, sets, ways) -> None:
        raise NotImplementedError

    def touch_fills(self, rows, sets, ways) -> None:
        raise NotImplementedError

    def victim_ways(self, rows, sets) -> np.ndarray:
        raise NotImplementedError


class VectorLRU(VectorReplacement):
    """True LRU via monotone last-touch stamps (scalar: recency stacks)."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self.last_touch = np.zeros(
            (num_elements, num_sets, num_ways), dtype=np.int64
        )
        self._stamp = 0

    def _touch(self, rows, sets, ways) -> None:
        self._stamp += 1
        self.last_touch[rows, sets, ways] = self._stamp

    touch_hits = _touch
    touch_fills = _touch

    def victim_ways(self, rows, sets) -> np.ndarray:
        return np.argmin(self.last_touch[rows, sets], axis=1)


class VectorFIFO(VectorReplacement):
    """FIFO: per-set next-victim pointer, advanced only by in-order fills."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._next = np.zeros((num_elements, num_sets), dtype=np.int64)

    def touch_hits(self, rows, sets, ways) -> None:
        pass  # hits do not affect FIFO order

    def touch_fills(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        advance = ways == self._next[rows, sets]
        if advance.any():
            r, s, w = rows[advance], sets[advance], ways[advance]
            self._next[r, s] = (w + 1) % self.num_ways

    def victim_ways(self, rows, sets) -> np.ndarray:
        return self._next[rows, sets]


class VectorNRU(VectorReplacement):
    """NRU reference bits with the scalar saturation-reset rule."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._referenced = np.zeros(
            (num_elements, num_sets, num_ways), dtype=bool
        )

    def _mark(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        self._referenced[rows, sets, ways] = True
        saturated = self._referenced[rows, sets].all(axis=1)
        if saturated.any():
            r, s, w = rows[saturated], sets[saturated], ways[saturated]
            self._referenced[r, s, :] = False
            self._referenced[r, s, w] = True

    touch_hits = _mark
    touch_fills = _mark

    def victim_ways(self, rows, sets) -> np.ndarray:
        # First clear bit in way order (always exists: see _mark).
        return np.argmin(self._referenced[rows, sets], axis=1)


class VectorPLRU(VectorReplacement):
    """Tree pseudo-LRU: heap-ordered node bits, root at index 1."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        if num_ways & (num_ways - 1):
            raise ValueError(
                f"tree-PLRU needs a power-of-two way count, got {num_ways}"
            )
        super().__init__(num_elements, num_sets, num_ways)
        self._levels = num_ways.bit_length() - 1
        self._bits = np.zeros((num_elements, num_sets, num_ways), dtype=np.int8)

    def _touch(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        node = np.ones(rows.shape, dtype=np.int64)
        for level in range(self._levels - 1, -1, -1):
            branch = (ways >> level) & 1
            self._bits[rows, sets, node] = (1 - branch).astype(np.int8)
            node = 2 * node + branch

    touch_hits = _touch
    touch_fills = _touch

    def victim_ways(self, rows, sets) -> np.ndarray:
        rows = np.asarray(rows)
        node = np.ones(rows.shape, dtype=np.int64)
        way = np.zeros(rows.shape, dtype=np.int64)
        for _ in range(self._levels):
            branch = self._bits[rows, sets, node].astype(np.int64)
            way = (way << 1) | branch
            node = 2 * node + branch
        return way


class VectorRandom(VectorReplacement):
    """Random replacement: shared draw table + per-element counters."""

    def __init__(
        self,
        num_elements: int,
        num_sets: int,
        num_ways: int,
        table: FixedDrawTable,
    ) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._table = table
        self._counters = np.zeros(num_elements, dtype=np.int64)

    def touch_hits(self, rows, sets, ways) -> None:
        pass

    def touch_fills(self, rows, sets, ways) -> None:
        pass

    def victim_ways(self, rows, sets) -> np.ndarray:
        idx = self._counters[rows]
        self._counters[rows] = idx + 1
        return self._table.take(idx)


_M64 = mask(64)


def _xorshift128_states(seeds) -> np.ndarray:
    """``(E, 4)`` uint32 xorshift128 states, one per seed.

    The vector form of :meth:`repro.common.prng.XorShift128.reseed`:
    four SplitMix64 outputs truncated to 32 bits, with the all-zero
    state patched to ``(1, 0, 0, 0)``.
    """
    state = np.fromiter((int(s) & _M64 for s in seeds), dtype=np.uint64)
    words = np.empty((state.shape[0], 4), dtype=np.uint32)
    for i in range(4):
        state, out = splitmix64_step_vec(state)
        words[:, i] = (out & U64(0xFFFF_FFFF)).astype(np.uint32)
    words[~words.any(axis=1), 0] = 1
    return words


class VectorXorShiftRandom(VectorReplacement):
    """Random replacement with a private xorshift128 stream per element.

    The vector twin of ``E`` scalar :class:`RandomReplacement` policies
    each reseeded to its own seed (``policy.reseed(seeds[e])``): element
    ``e``'s ``k``-th conflict miss draws the ``k``-th
    ``XorShift128(seeds[e]).next_below(num_ways)``.  Unlike
    :class:`VectorRandom`, nothing is shared — every element steps its
    own ``(4,)`` uint32 state, and only the rows that draw advance.
    """

    def __init__(self, num_elements: int, num_sets: int, num_ways: int,
                 seeds) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._state = _xorshift128_states(seeds)
        if self._state.shape[0] != num_elements:
            raise ValueError("need exactly one seed per element")
        self._width = (num_ways - 1).bit_length() or 1

    def next_u32(self, rows) -> np.ndarray:
        """One ``XorShift128.next_u32`` step for each of ``rows``."""
        x, y, z, w = self._state[rows].T
        t = x ^ (x << np.uint32(11))
        w_new = (w ^ (w >> np.uint32(19))) ^ (t ^ (t >> np.uint32(8)))
        self._state[rows] = np.stack([y, z, w, w_new], axis=1)
        return w_new

    def touch_hits(self, rows, sets, ways) -> None:
        pass

    def touch_fills(self, rows, sets, ways) -> None:
        pass

    def victim_ways(self, rows, sets) -> np.ndarray:
        # next_below: draw width bits, redraw the rows that overshoot
        # (never, for power-of-two way counts).
        rows = np.asarray(rows)
        shift = np.uint32(32 - self._width)
        ways = (self.next_u32(rows) >> shift).astype(np.int64)
        redraw = ways >= self.num_ways
        while redraw.any():
            ways[redraw] = self.next_u32(rows[redraw]) >> shift
            redraw = ways >= self.num_ways
        return ways


class VectorCounterRandom(VectorReplacement):
    """Counter-based random replacement: draw ``k`` = f(key, k).

    The vector twin of ``RandomReplacement(draws=CounterStream(key))``;
    each element may carry its own key (per-trial streams) via
    :meth:`set_key`.
    """

    def __init__(
        self,
        num_elements: int,
        num_sets: int,
        num_ways: int,
        key: int,
    ) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._keys = np.full(num_elements, U64(key), dtype=np.uint64)
        self._counters = np.zeros(num_elements, dtype=np.uint64)

    def set_key(self, element: int, key: int) -> None:
        self._keys[element] = U64(key)

    def touch_hits(self, rows, sets, ways) -> None:
        pass

    def touch_fills(self, rows, sets, ways) -> None:
        pass

    def victim_ways(self, rows, sets) -> np.ndarray:
        idx = self._counters[rows]
        self._counters[rows] = idx + U64(1)
        state = self._keys[rows] + idx * _SPLITMIX_GAMMA
        _, out = splitmix64_step_vec(state)
        return (out % U64(self.num_ways)).astype(np.int64)


#: Exact policy classes whose vector twin needs no stream bookkeeping.
#: Subclasses are deliberately excluded — they may override anything.
_DETERMINISTIC_ENGINES = {
    LRUReplacement: VectorLRU,
    FIFOReplacement: VectorFIFO,
    NRUReplacement: VectorNRU,
    TreePLRUReplacement: VectorPLRU,
}

_BY_NAME = {
    "lru": VectorLRU,
    "fifo": VectorFIFO,
    "nru": VectorNRU,
    "plru": VectorPLRU,
}


def replacement_support(policy: ReplacementPolicy) -> Optional[str]:
    """``None`` if ``policy`` has a bit-identical vector twin, else why not.

    Assumes factory-fresh policy state (the envelope probes only ever
    see freshly constructed caches; the batch builders assert the cache
    is empty).  Reasons are stable machine-readable strings shown in
    ``--dry-run`` and the ``kernel_fallback`` telemetry event.
    """
    cls = type(policy)
    if cls in _DETERMINISTIC_ENGINES:
        return None
    if cls is RandomReplacement:
        if policy.draws_consumed:
            return "replacement:random-stream-consumed"
        if policy.stream_descriptor() is None:
            return "replacement:random-custom-prng"
        return None
    label = getattr(policy, "name", cls.__name__)
    return f"replacement:{label}-unsupported"


def vector_replacement(
    policy: ReplacementPolicy, num_elements: int
) -> Optional[VectorReplacement]:
    """Vector engine reproducing ``policy`` across ``num_elements`` caches."""
    if replacement_support(policy) is not None:
        return None
    num_sets, num_ways = policy.num_sets, policy.num_ways
    if type(policy) is RandomReplacement:
        kind, value = policy.stream_descriptor()
        if kind == "xorshift":
            table = FixedDrawTable(XorShift128(seed=value), num_ways)
            return VectorRandom(num_elements, num_sets, num_ways, table)
        return VectorCounterRandom(num_elements, num_sets, num_ways, value)
    return _DETERMINISTIC_ENGINES[type(policy)](
        num_elements, num_sets, num_ways
    )


def vector_replacement_by_name(
    name: str, num_elements: int, num_sets: int, num_ways: int
) -> Optional[VectorReplacement]:
    """Engine for a policy *name* with ``make_replacement`` defaults.

    ``random`` gets the stock fixed stream (every fresh scalar instance
    restarts ``XorShift128(RANDOM_REPLACEMENT_SEED)``).  Returns None
    for unknown names or a non-power-of-two ``plru``.
    """
    if name == "random":
        table = FixedDrawTable(
            XorShift128(seed=RANDOM_REPLACEMENT_SEED), num_ways
        )
        return VectorRandom(num_elements, num_sets, num_ways, table)
    cls = _BY_NAME.get(name)
    if cls is None:
        return None
    if cls is VectorPLRU and num_ways & (num_ways - 1):
        return None
    return cls(num_elements, num_sets, num_ways)
