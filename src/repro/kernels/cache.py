"""Array-of-state set-associative cache batch.

:class:`VectorCacheBatch` simulates ``T`` *independent* caches — one
per trial — as ``(T, num_sets, num_ways)`` NumPy arrays, advancing all
of them by one access per step.  It reproduces the scalar
:class:`repro.cache.core.SetAssociativeCache` bit for bit:

* hit detection compares full line addresses, so there is never a
  false hit (tags store the whole line address, as in the scalar
  core);
* on a miss the fill claims the first invalid way in way order —
  exactly the scalar ``_choose_victim`` scan;
* with all ways valid the victim comes from a pluggable
  :class:`repro.kernels.replacement.VectorReplacement` engine (LRU,
  FIFO, NRU, tree-PLRU, or random with draw-sequencing parity), which
  is consulted only on conflict misses of active rows — the same
  discipline as the scalar core, so sequential draw streams stay in
  lock-step.

Seeds follow the scalar :class:`~repro.cache.core.SeedRegister`
semantics: one global seed per trial plus per-pid overrides, resolved
at lookup time (:class:`VectorSeedRegister`, which the trace-replay
kernel shares).

:class:`VectorRPCacheBatch` extends the fill path with RPCache's
interference redirection: per-pid permutation tables (the pid *is* the
table id) and cross-pid conflict evictions redirected to a random set
drawn from the fixed interference stream — again one draw per
redirect, in access order, via a shared table plus per-trial counters.

What the kernels deliberately do **not** model — dirty bits, store
accounting, protected ranges — is exactly what the capability probe in
:mod:`repro.kernels.trials` checks before selecting the vector path;
anything outside the envelope falls back to the scalar cache with a
machine-readable reason.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cache.core import CacheGeometry, SeedRegister
from repro.common.bitops import mask
from repro.common.prng import XorShift128
from repro.kernels.placement import VectorPlacement
from repro.kernels.replacement import (
    FixedDrawTable,
    VectorLRU,
    VectorReplacement,
)

_M64 = mask(64)


class VectorSeedRegister:
    """``num_trials`` scalar seed registers (:class:`SeedRegister`).

    One global seed per trial plus per-pid overrides; a pid a trial
    never set falls back to that trial's global seed at lookup time.
    """

    def __init__(self, num_trials: int) -> None:
        self.num_trials = num_trials
        self._global_seed = np.zeros(num_trials, dtype=np.uint64)
        #: pid -> (values, set_mask).
        self._pid_seeds: Dict[int, tuple] = {}

    def init_seeds(self, register: SeedRegister) -> None:
        """Give every trial the register state of a fresh scalar cache."""
        self._global_seed[:] = np.uint64(register.global_seed & _M64)
        self._pid_seeds.clear()
        for pid, seed in register.per_pid.items():
            values = np.full(self.num_trials, np.uint64(seed & _M64))
            self._pid_seeds[pid] = (values, np.ones(self.num_trials, bool))

    def set_seed(self, trial: int, seed: int, pid: Optional[int] = None) -> None:
        """Scalar ``cache.set_seed`` for one trial of the batch."""
        if pid is None:
            self._global_seed[trial] = np.uint64(seed & _M64)
            return
        entry = self._pid_seeds.get(pid)
        if entry is None:
            entry = (
                np.zeros(self.num_trials, dtype=np.uint64),
                np.zeros(self.num_trials, dtype=bool),
            )
            self._pid_seeds[pid] = entry
        values, set_mask = entry
        values[trial] = np.uint64(seed & _M64)
        set_mask[trial] = True

    def seeds_for(self, pid: int) -> np.ndarray:
        """Per-trial effective seed of ``pid`` (uint64, shape (T,))."""
        entry = self._pid_seeds.get(pid)
        if entry is None:
            return self._global_seed
        values, set_mask = entry
        return np.where(set_mask, values, self._global_seed)


class VectorCacheBatch(VectorSeedRegister):
    """``num_trials`` independent caches stepped in lock-step."""

    def __init__(
        self,
        geometry: CacheGeometry,
        placement: VectorPlacement,
        num_trials: int,
        replacement: Optional[VectorReplacement] = None,
    ) -> None:
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        super().__init__(num_trials)
        self.geometry = geometry
        self.placement = placement
        layout = geometry.layout()
        self._offset_bits = layout.offset_bits
        self._index_bits = layout.index_bits
        self._index_mask = mask(layout.index_bits)
        self._offset_mask = mask(layout.offset_bits)
        shape = (num_trials, geometry.num_sets, geometry.num_ways)
        self.valid = np.zeros(shape, dtype=bool)
        self.line_addr = np.zeros(shape, dtype=np.int64)
        self.line_pid = np.zeros(shape, dtype=np.int64)
        self.replacement = (
            replacement
            if replacement is not None
            else VectorLRU(num_trials, geometry.num_sets, geometry.num_ways)
        )
        self._rows = np.arange(num_trials)

    # -- address math ------------------------------------------------------

    def _fields(self, addresses):
        addr = np.asarray(addresses, dtype=np.int64)
        lines = addr & ~np.int64(self._offset_mask)
        u = addr.astype(np.uint64)
        indices = (u >> np.uint64(self._offset_bits)) & np.uint64(
            self._index_mask
        )
        tags = u >> np.uint64(self._offset_bits + self._index_bits)
        return lines, tags, indices

    def map_sets(self, addresses, pid: int, per_trial: bool = False) -> np.ndarray:
        """Set index of each address under each trial's ``pid`` seed.

        With ``per_trial=False``, ``(A,)`` addresses yield ``(T, A)``
        (every trial maps every address); with ``per_trial=True``,
        ``addresses`` must be ``(T,)`` — one address per trial — and
        the result is ``(T,)``.
        """
        _, tags, indices = self._fields(addresses)
        seeds = self.seeds_for(pid)
        if per_trial:
            if tags.shape != (self.num_trials,):
                raise ValueError("per_trial=True needs one address per trial")
            return self.placement.map_sets(tags, indices, seeds)
        return self.placement.map_sets(
            tags[None, :], indices[None, :], seeds[:, None]
        )

    # -- the access step ---------------------------------------------------

    def _fill_targets(self, rows, sets, pid: int):
        """Choose ``(sets, ways)`` for one fill per row.

        First invalid way in way order, else the replacement engine's
        victim — consulted only for the conflict rows, preserving the
        scalar core's one-draw-per-conflict-miss sequencing.  Subclasses
        may redirect the fill to a different set (RPCache).
        """
        set_valid = self.valid[rows, sets]
        invalid = ~set_valid
        ways = np.argmax(invalid, axis=1)
        conflict = ~invalid.any(axis=1)
        if conflict.any():
            ways[conflict] = self.replacement.victim_ways(
                rows[conflict], sets[conflict]
            )
        return sets, ways

    def access(
        self,
        addresses,
        pid: int,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One access per trial (scalar address = same line everywhere).

        Returns the per-trial hit mask.  ``active`` limits the step to
        a subset of trials; inactive trials are untouched and report
        False.
        """
        addresses = np.broadcast_to(
            np.asarray(addresses, dtype=np.int64), (self.num_trials,)
        )
        lines, tags, indices = self._fields(addresses)
        sets = self.placement.map_sets(tags, indices, self.seeds_for(pid))
        return self._access_mapped(lines, sets, pid, active)

    def _access_mapped(
        self,
        lines: np.ndarray,
        sets: np.ndarray,
        pid: int,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Access step with set indices already computed (``(T,)`` each).

        The Fig. 5 cold-line model precomputes every access's set
        mapping up front and replays through this entry point.
        """
        rows = self._rows
        set_valid = self.valid[rows, sets]  # (T, W) gather
        set_lines = self.line_addr[rows, sets]
        match = set_valid & (set_lines == lines[:, None])
        hit = match.any(axis=1)
        if active is not None:
            hit = hit & active
        hit_way = np.argmax(match, axis=1)
        if hit.any():
            self.replacement.touch_hits(rows[hit], sets[hit], hit_way[hit])

        miss = ~hit if active is None else active & ~hit
        if miss.any():
            fr = rows[miss]
            fs, fw = self._fill_targets(fr, sets[miss], pid)
            self.valid[fr, fs, fw] = True
            self.line_addr[fr, fs, fw] = lines[miss]
            self.line_pid[fr, fs, fw] = pid
            self.replacement.touch_fills(fr, fs, fw)
        return hit

    def probe_many(self, addresses, pid: int):
        """Non-destructive hit check of ``(A,)`` addresses in all trials.

        Returns ``(hits, sets)``, both ``(T, A)`` — the vectorized form
        of the scalar probe loop plus its ``lookup_set`` calls.
        """
        lines, _, _ = self._fields(addresses)
        sets = self.map_sets(addresses, pid)
        rows = self._rows[:, None]
        in_set = self.valid[rows, sets] & (
            self.line_addr[rows, sets] == lines[None, :, None]
        )
        return in_set.any(axis=-1), sets

    # -- inspection --------------------------------------------------------

    def resident_lines(self, trial: int):
        """Sorted resident line addresses of one trial (scalar parity)."""
        return sorted(
            int(v) for v in self.line_addr[trial][self.valid[trial]]
        )


class VectorRPCacheBatch(VectorCacheBatch):
    """``T`` independent RPCaches stepped in lock-step.

    Reproduces :class:`repro.cache.rpcache.RPCache` exactly:

    * each pid's permutation table id is the pid itself (the scalar
      default), so ``seeds_for`` hands the placement adapter table ids
      rather than seed-register values;
    * a conflict victim owned by another pid redirects the fill to a
      random set from the fixed interference stream
      (``XorShift128(interference_seed)``, fresh per scalar cache ⇒
      shared draw table + per-trial counters, one draw per redirect in
      access order);
    * in the redirected set the fill claims the first invalid way, else
      the replacement victim — the scalar ``super()._fill`` path.

    The scalar ``_fill`` consults ``victim_way`` once before deciding
    to redirect and (for the non-redirected case) again inside
    ``_choose_victim``; with LRU both consultations return the same way
    and draw nothing, which is why the envelope pins RPCache to LRU
    replacement.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        placement: VectorPlacement,
        num_trials: int,
        interference_seed: int,
    ) -> None:
        super().__init__(geometry, placement, num_trials)
        self._interference = FixedDrawTable(
            XorShift128(seed=interference_seed), geometry.num_sets
        )
        self._interference_counters = np.zeros(num_trials, dtype=np.int64)

    def seeds_for(self, pid: int) -> np.ndarray:
        # RPCache placement is keyed by permutation-table id, not by the
        # seed register; each pid's table id defaults to the pid itself.
        return np.full(self.num_trials, np.uint64(pid))

    def _fill_targets(self, rows, sets, pid: int):
        set_valid = self.valid[rows, sets]
        invalid = ~set_valid
        ways = np.argmax(invalid, axis=1)
        conflict = ~invalid.any(axis=1)
        if not conflict.any():
            return sets, ways
        cr, cs = rows[conflict], sets[conflict]
        victims = self.replacement.victim_ways(cr, cs)
        ways[conflict] = victims
        redirect = self.line_pid[cr, cs, victims] != pid
        if redirect.any():
            rr = cr[redirect]
            draw_idx = self._interference_counters[rr]
            self._interference_counters[rr] = draw_idx + 1
            new_sets = self._interference.take(draw_idx)
            # Re-choose the way in the redirected set: first invalid in
            # way order, else the replacement victim (scalar _choose_victim).
            new_valid = self.valid[rr, new_sets]
            new_invalid = ~new_valid
            new_ways = np.argmax(new_invalid, axis=1)
            new_conflict = ~new_invalid.any(axis=1)
            if new_conflict.any():
                new_ways[new_conflict] = self.replacement.victim_ways(
                    rr[new_conflict], new_sets[new_conflict]
                )
            sets = sets.copy()
            conflict_pos = np.flatnonzero(conflict)
            redirect_pos = conflict_pos[redirect]
            sets[redirect_pos] = new_sets
            ways[redirect_pos] = new_ways
        return sets, ways
