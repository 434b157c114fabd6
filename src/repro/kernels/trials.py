"""Batched Prime+Probe / Evict+Time trial blocks.

These functions execute a whole :class:`~repro.attack.trials.TrialBlock`
of contention-attack trials through the vector cache kernel instead of
per-trial scalar rounds.  They preserve the scalar path's contract
exactly:

* every trial draws from its own position-keyed ``SeedSequence``
  Generator, in the same order and the same number of times as the
  scalar ``run_trial`` (a Prime+Probe trial that observes no
  candidates draws only its secret, never a guess);
* the ``seed_victim`` hook runs once per trial against a seed-register
  proxy, so TSCache-style per-trial reseeding behaves identically;
* cache state evolves through the same access sequence, so the hit/
  miss outcomes — and therefore the returned ``correct`` counts — are
  bit-identical across kernels, backends, shard policies and
  completion orders.

**Escape hatch.**  Each executor first checks the attack's cache
against :func:`vector_cache_support` and dry-runs the seeding hook
against a proxy; if anything falls outside the vector envelope —
an externally-owned replacement PRNG, protected ranges, a placement
or replacement subclass, a hook that needs the full cache object — it
returns ``None`` and the caller runs the scalar path.  Falling back
loses no fidelity, only speed, and is never silent: the support probe
returns a machine-readable reason that ``--dry-run`` prints and the
runner journals as a ``kernel_fallback`` event.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.core import SetAssociativeCache
from repro.cache.replacement import LRUReplacement, RandomReplacement
from repro.cache.rpcache import RPCache
from repro.kernels.cache import VectorCacheBatch, VectorRPCacheBatch
from repro.kernels.placement import vector_placement
from repro.kernels.replacement import (
    VectorXorShiftRandom,
    replacement_support,
    vector_replacement,
)


def vector_cache_support(cache) -> Optional[str]:
    """``None`` when ``cache`` behaves exactly like the vector kernel,
    else a machine-readable reason for the scalar fallback.

    Deliberately conservative: exact types only, because subclasses
    override the access path in ways the array kernel does not model
    (``RPCache`` itself has a dedicated batch and is in-envelope).
    """
    if type(cache) is RPCache:
        if cache._table_ids:
            return "rpcache:custom-table-assignment"
        if type(cache.replacement) is not LRUReplacement:
            # The scalar fill consults victim_way twice per conflict; a
            # draw-consuming policy would desequence its stream.
            return f"rpcache:replacement-{cache.replacement.name}"
        if cache.randomized_evictions:
            return "rpcache:interference-stream-consumed"
    elif type(cache) is not SetAssociativeCache:
        return f"cache:subclass-{type(cache).__name__}"
    else:
        reason = replacement_support(cache.replacement)
        if reason is not None:
            return reason
    if not cache.write_allocate:
        return "cache:no-write-allocate"
    if cache._protected_ranges:
        return "cache:protected-ranges"
    if vector_placement(cache.placement) is None:
        return f"placement:{cache.placement.name}-unsupported"
    return None


def supports_vector_cache(cache) -> bool:
    """True when ``cache`` behaves exactly like the vector kernel."""
    return vector_cache_support(cache) is None


def make_vector_batch(
    cache, num_elements: int, replacement_seeds=None
) -> Optional[VectorCacheBatch]:
    """A seeded batch reproducing ``num_elements`` copies of ``cache``.

    ``cache`` must be factory-fresh (the batch starts empty); returns
    None when it falls outside the vector envelope.  With
    ``replacement_seeds`` (one per element), element ``e`` instead
    reproduces the copy whose xorshift random replacement was
    ``reseed(replacement_seeds[e])`` — a private draw stream per
    element.
    """
    if vector_cache_support(cache) is not None:
        return None
    replacement = cache.replacement
    if replacement_seeds is not None and not (
        type(replacement) is RandomReplacement
        and replacement.stream_descriptor()[0] == "xorshift"
    ):
        raise ValueError("replacement_seeds needs xorshift random replacement")
    adapter = vector_placement(cache.placement)
    if type(cache) is RPCache:
        batch: VectorCacheBatch = VectorRPCacheBatch(
            cache.geometry, adapter, num_elements, cache.interference_seed
        )
    else:
        engine = (
            vector_replacement(replacement, num_elements)
            if replacement_seeds is None
            else VectorXorShiftRandom(
                num_elements, replacement.num_sets, replacement.num_ways,
                replacement_seeds,
            )
        )
        batch = VectorCacheBatch(
            cache.geometry, adapter, num_elements, replacement=engine
        )
    batch.init_seeds(cache.seeds)
    return batch


class _SeedRegisterProxy:
    """Records ``set_seed`` calls made by a ``seed_victim`` hook.

    Exposes nothing else: a hook reaching for any other cache API is
    outside the vector envelope and triggers the scalar fallback via
    ``AttributeError``.
    """

    def __init__(self) -> None:
        self.calls: List[Tuple[int, Optional[int]]] = []

    def set_seed(self, seed: int, pid: Optional[int] = None) -> None:
        self.calls.append((int(seed), pid))


def _make_batch(attack, num_elements: int, start: int, end: int,
                per_element_trial, seed_victim) -> Optional[VectorCacheBatch]:
    """Build a seeded batch, or None when outside the vector envelope.

    ``per_element_trial(element)`` maps a batch element to its absolute
    trial index (identity for Prime+Probe; trial-major flattening for
    Evict+Time's trial x entry grid).
    """
    template = attack.cache_factory()
    if template.resident_lines():
        return None
    batch = make_vector_batch(template, num_elements)
    if batch is None:
        return None
    if seed_victim is not None:
        hook_calls = {}
        for trial in range(start, end):
            proxy = _SeedRegisterProxy()
            try:
                seed_victim(proxy, trial)
            except Exception:
                return None  # hook needs a real cache: scalar fallback
            hook_calls[trial] = proxy.calls
        for element in range(num_elements):
            for seed, pid in hook_calls[per_element_trial(element)]:
                batch.set_seed(element, seed, pid)
    return batch


def run_prime_probe_block(attack, start: int, end: int,
                          seed_victim) -> Optional[int]:
    """Vectorized trials ``[start, end)`` of a Prime+Probe attack.

    Returns the number of correct guesses, or None when the attack
    falls outside the vector envelope (caller runs the scalar path).
    """
    num_trials = end - start
    batch = _make_batch(
        attack, num_trials, start, end,
        lambda element: start + element,
        seed_victim,
    )
    if batch is None:
        return None

    geometry = batch.geometry
    line_size = geometry.line_size
    # One Generator per trial, kept alive across both draws so the
    # stream consumption matches run_trial exactly.
    rngs = [attack.trial_rng(trial) for trial in range(start, end)]
    secrets = np.array(
        [int(rng.integers(attack.num_entries)) for rng in rngs],
        dtype=np.int64,
    )

    prime_addresses = attack.attacker_base + line_size * np.arange(
        geometry.num_sets * geometry.num_ways, dtype=np.int64
    )
    for _ in range(2):  # two passes, as in _prime
        for address in prime_addresses:
            batch.access(int(address), attack.attacker_pid)
    batch.access(
        attack.table_base + secrets * line_size, attack.victim_pid
    )
    probe_hits, probe_sets = batch.probe_many(
        prime_addresses, attack.attacker_pid
    )
    # missed_table[t, s]: some probe of trial t missed in set s.
    missed_table = np.zeros((num_trials, geometry.num_sets), dtype=bool)
    miss_t, miss_a = np.nonzero(~probe_hits)
    missed_table[miss_t, probe_sets[miss_t, miss_a]] = True

    entry_addresses = attack.table_base + line_size * np.arange(
        attack.num_entries, dtype=np.int64
    )
    entry_sets = batch.map_sets(entry_addresses, attack.attacker_pid)
    candidates = missed_table[batch._rows[:, None], entry_sets]

    correct = 0
    num_candidates = candidates.sum(axis=1)
    any_missed = missed_table.any(axis=1)
    for k in range(num_trials):
        # Draw-order parity with run_trial: no missed sets or no
        # candidates means no guess draw at all.
        if not any_missed[k] or not num_candidates[k]:
            continue
        entry_pool = np.nonzero(candidates[k])[0]
        guess = int(entry_pool[int(rngs[k].integers(len(entry_pool)))])
        if guess == int(secrets[k]):
            correct += 1
    return correct


def run_evict_time_block(attack, start: int, end: int,
                         seed_victim) -> Optional[int]:
    """Vectorized trials ``[start, end)`` of an Evict+Time attack.

    Batches over the (trial x eviction-target) grid: element
    ``k * num_entries + e`` replays trial ``start + k`` with entry
    ``e`` as the eviction target, on its own fresh cache — exactly the
    scalar scan, W+E+1 batched access steps wide.
    """
    num_trials = end - start
    num_entries = attack.num_entries
    num_elements = num_trials * num_entries
    batch = _make_batch(
        attack, num_elements, start, end,
        lambda element: start + element // num_entries,
        seed_victim,
    )
    if batch is None:
        return None

    geometry = batch.geometry
    line_size = geometry.line_size
    num_ways = geometry.num_ways
    secrets = np.array(
        [
            int(attack.trial_rng(trial).integers(num_entries))
            for trial in range(start, end)
        ],
        dtype=np.int64,
    )

    entry_addresses = attack.table_base + line_size * np.arange(
        num_entries, dtype=np.int64
    )
    for address in entry_addresses:  # _warm_table, one step per entry
        batch.access(int(address), attack.victim_pid)

    # Eviction targets: element (k, e) floods the set the attacker maps
    # entry e to.  The address choice depends only on the mapping, so
    # it can be computed up front, per element.
    target_entry = np.tile(np.arange(num_entries, dtype=np.int64), num_trials)
    target_sets = batch.map_sets(
        entry_addresses[target_entry], attack.attacker_pid, per_trial=True
    )
    candidate_addresses = attack.attacker_base + line_size * np.arange(
        geometry.num_sets * 64, dtype=np.int64
    )
    candidate_sets = batch.map_sets(candidate_addresses, attack.attacker_pid)
    matches = candidate_sets == target_sets[:, None]
    ranks = np.cumsum(matches, axis=1)
    picked = matches & (ranks <= num_ways)
    # evict_addresses[b, w]: the w-th flooding access of element b
    # (-1 when fewer than num_ways candidates land in the target set).
    evict_addresses = np.full((num_elements, num_ways), -1, dtype=np.int64)
    pick_b, pick_c = np.nonzero(picked)
    evict_addresses[pick_b, ranks[pick_b, pick_c] - 1] = candidate_addresses[
        pick_c
    ]
    for w in range(num_ways):
        column = evict_addresses[:, w]
        active = column >= 0
        batch.access(np.where(active, column, 0), attack.attacker_pid,
                     active=active)

    timed_hit = batch.access(
        entry_addresses[np.repeat(secrets, num_entries)], attack.victim_pid
    )
    victim_time = np.where(timed_hit, 1, 1 + attack.miss_penalty)
    # First maximum over entries == the scalar strict-> scan.
    best_entry = np.argmax(
        victim_time.reshape(num_trials, num_entries), axis=1
    )
    return int(np.count_nonzero(best_entry == secrets))
