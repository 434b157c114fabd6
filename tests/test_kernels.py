"""Scalar-vs-vector equivalence suite for :mod:`repro.kernels`.

The batch kernels are only allowed to change throughput, never a
single outcome.  This module pins that down property-style (seeded,
shrink-free generators, as in ``test_cache_properties.py``):

* every vectorized placement adapter reproduces its scalar policy's
  ``map_set`` exactly, over random geometries, tags, indices and
  seeds (broadcast shapes included);
* :class:`~repro.kernels.cache.VectorCacheBatch` replays random
  per-trial access traces with the same hit/miss sequence and the
  same final resident lines as a bank of scalar LRU caches;
* the batched Prime+Probe / Evict+Time executors return the exact
  correct-guess counts of the scalar trial loop, with and without a
  per-trial ``seed_victim`` hook, and independently of how a block is
  tiled;
* every vectorized replacement engine (LRU, FIFO, NRU, tree-PLRU,
  random in fixed-stream, per-lane xorshift and counter-stream
  modes) and the
  RPCache batch (permutation placement + interference redirection)
  replay conflict-heavy traces bit-identically to banks of scalar
  caches;
* the capability probe refuses everything outside the envelope
  (an externally-owned replacement PRNG, consumed draw streams,
  protected ranges, subclasses, wide hashRP lines) with a
  machine-readable reason, so "auto" can never select an unfaithful
  kernel and a scalar fallback is never silent (``--dry-run`` column,
  ``kernel_fallback`` telemetry event);
* the trace-replay kernels (pwcet hierarchies replayed level by
  level, missrate set-parallel rounds) reproduce the scalar per-access
  loops exactly, over every replacement pairing, with and without the
  one-lane collapse of a run-invariant layout;
* the ``kernel`` param is a pure execution hint — same ``spec_hash``,
  same seed stream, same campaign payloads — and the frozen golden
  contention outcomes reproduce with ``kernel=vector``.
"""

import random

import numpy as np
import pytest

from repro.attack.evict_time import EvictTimeAttack
from repro.attack.prime_probe import PrimeProbeAttack
from repro.cache.core import CacheGeometry, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.placement import make_placement
from repro.cache.replacement import (
    RandomReplacement,
    make_replacement,
)
from repro.cache.rpcache import RPCache
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.prng import CounterStream, XorShift128, counter_key
from repro.common.trace import AccessType, MemoryAccess, Trace
from repro.kernels import (
    VectorCacheBatch,
    VectorXorShiftRandom,
    make_vector_batch,
    supports_vector_cache,
    vector_cache_support,
    vector_placement,
)

from test_cache_properties import (
    GEOMETRIES,
    PLACEMENTS,
    random_cases,
    stable_seed,
)
from test_golden_traces import GOLDEN_CONTENTION, contention_specs


def build_lru_cache(geometry, policy_name):
    return SetAssociativeCache(
        geometry,
        make_placement(policy_name, geometry.layout()),
        make_replacement("lru", geometry.num_sets, geometry.num_ways),
    )


class TestVectorPlacementEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_map_sets_matches_scalar(self, policy_name, geometry):
        layout = geometry.layout()
        policy = make_placement(policy_name, layout)
        adapter = vector_placement(policy)
        assert adapter is not None
        for rng in random_cases(
            seed=stable_seed("vec", policy_name, geometry.total_size),
            count=10,
        ):
            tags = np.array(
                [rng.getrandbits(layout.tag_bits) for _ in range(40)],
                dtype=np.uint64,
            )
            indices = np.array(
                [rng.randrange(geometry.num_sets) for _ in range(40)],
                dtype=np.uint64,
            )
            seeds = np.array(
                [rng.getrandbits(64) for _ in range(40)], dtype=np.uint64
            )
            got = adapter.map_sets(tags, indices, seeds)
            expected = [
                policy.map_set(int(t), int(i), int(s))
                for t, i, s in zip(tags, indices, seeds)
            ]
            assert got.tolist() == expected

    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    def test_broadcast_matches_pairwise(self, policy_name):
        """(A,) addresses x (T,) seeds broadcast to the (T, A) grid of
        scalar calls — the shape the cache kernel leans on."""
        geometry = GEOMETRIES[0]
        layout = geometry.layout()
        policy = make_placement(policy_name, layout)
        adapter = vector_placement(policy)
        rng = random.Random(stable_seed("bcast", policy_name))
        tags = np.array([rng.getrandbits(layout.tag_bits)
                         for _ in range(6)], dtype=np.uint64)
        indices = np.array([rng.randrange(geometry.num_sets)
                            for _ in range(6)], dtype=np.uint64)
        seeds = np.array([rng.getrandbits(64) for _ in range(5)],
                         dtype=np.uint64)
        grid = adapter.map_sets(
            tags[None, :], indices[None, :], seeds[:, None]
        )
        assert grid.shape == (5, 6)
        for t in range(5):
            for a in range(6):
                assert grid[t, a] == policy.map_set(
                    int(tags[a]), int(indices[a]), int(seeds[t])
                )


class TestVectorCacheEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("geometry", GEOMETRIES[:3],
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_trace_replay_bit_identical(self, policy_name, geometry):
        """Same per-trial traces, same hit sequence, same final state."""
        num_trials, steps = 8, 160
        for rng in random_cases(
            seed=stable_seed("trace", policy_name, geometry.total_size),
            count=3,
        ):
            scalars = []
            template = build_lru_cache(geometry, policy_name)
            batch = VectorCacheBatch(
                geometry, vector_placement(template.placement), num_trials
            )
            batch.init_seeds(template.seeds)
            for trial in range(num_trials):
                cache = build_lru_cache(geometry, policy_name)
                for pid in (1, 2):
                    seed = rng.getrandbits(32)
                    cache.set_seed(seed, pid=pid)
                    batch.set_seed(trial, seed, pid=pid)
                scalars.append(cache)
            lines = [rng.getrandbits(22) * geometry.line_size
                     for _ in range(24)]
            for _ in range(steps):
                pid = rng.choice((1, 2))
                addresses = np.array(
                    [rng.choice(lines) for _ in range(num_trials)],
                    dtype=np.int64,
                )
                got = batch.access(addresses, pid)
                expected = [
                    scalars[t].access(
                        MemoryAccess(int(addresses[t]), pid=pid)
                    ).hit
                    for t in range(num_trials)
                ]
                assert got.tolist() == expected
            for trial in range(num_trials):
                assert (
                    batch.resident_lines(trial)
                    == scalars[trial].resident_lines()
                )


def replay_trace_check(factory, num_trials=6, steps=200, seed_parts=(),
                       replacement_seeds=None):
    """Replay a conflict-heavy random trace through ``num_trials``
    scalar caches and the matched vector batch; assert every hit bit
    and the final resident lines agree.  With ``replacement_seeds``,
    scalar cache ``t`` has its replacement reseeded to the ``t``-th
    seed (and the batch gets one private stream per trial).  Returns
    the scalar caches so callers can assert the interesting path
    (draws, redirects) was actually exercised."""
    template = factory()
    geometry = template.geometry
    batch = make_vector_batch(factory(), num_trials,
                              replacement_seeds=replacement_seeds)
    assert batch is not None
    scalars = [factory() for _ in range(num_trials)]
    if replacement_seeds is not None:
        for cache, seed in zip(scalars, replacement_seeds):
            cache.replacement.reseed(seed)
    rng = random.Random(stable_seed("replay", *seed_parts))
    # ~2x capacity so conflict misses (the draw-consuming path) occur.
    pool = [rng.getrandbits(22) * geometry.line_size
            for _ in range(2 * geometry.num_sets * geometry.num_ways)]
    for _ in range(steps):
        pid = rng.choice((1, 2))
        addresses = np.array(
            [rng.choice(pool) for _ in range(num_trials)], dtype=np.int64
        )
        got = batch.access(addresses, pid)
        expected = [
            scalars[t].access(
                MemoryAccess(int(addresses[t]), pid=pid)
            ).hit
            for t in range(num_trials)
        ]
        assert got.tolist() == expected
    for trial in range(num_trials):
        assert batch.resident_lines(trial) == scalars[trial].resident_lines()
    return scalars


class TestReplacementEquivalence:
    """Every replacement engine, scalar vs vector, under conflict
    pressure — the draw-sequencing cases the original LRU-only suite
    never reached."""

    @pytest.mark.parametrize("replacement_name",
                             ("fifo", "nru", "plru", "random"))
    @pytest.mark.parametrize("policy_name", ("modulo", "random_modulo"))
    @pytest.mark.parametrize("geometry", GEOMETRIES[:3],
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_trace_replay_bit_identical(self, replacement_name,
                                        policy_name, geometry):
        def factory():
            return SetAssociativeCache(
                geometry,
                make_placement(policy_name, geometry.layout()),
                make_replacement(replacement_name, geometry.num_sets,
                                 geometry.num_ways),
            )

        scalars = replay_trace_check(
            factory,
            seed_parts=(replacement_name, policy_name, geometry.total_size),
        )
        if replacement_name == "random":
            # Guard against a degenerate trace: the fixed draw stream
            # must actually have been consumed for this to prove
            # anything about sequencing.
            assert scalars[0].replacement.draws_consumed > 0

    def test_counter_stream_random_bit_identical(self):
        """Counter-mode random replacement (splitmix64 draws indexed
        by miss ordinal) — the O(1)-random-access stream the vector
        engine steps without materializing a table."""
        geometry = GEOMETRIES[0]
        key = counter_key(0xFEED)

        def factory():
            return SetAssociativeCache(
                geometry,
                make_placement("modulo", geometry.layout()),
                RandomReplacement(geometry.num_sets, geometry.num_ways,
                                  draws=CounterStream(key)),
            )

        scalars = replay_trace_check(factory, seed_parts=("counter",))
        assert scalars[0].replacement.draws_consumed > 0

    def test_counter_stream_matches_scalar_draw_sequencing(self):
        """One draw per conflict miss, in access order: the counter
        stream consumed k draws produces the same victims as replaying
        draws 0..k-1 — the identity the vector engine relies on."""
        stream = CounterStream(counter_key(7))
        replayed = [stream.draw(k, 4) for k in range(64)]
        assert replayed == [stream.draw(k, 4) for k in range(64)]
        assert len(set(replayed)) > 1

    def test_per_lane_xorshift_matches_scalar_next_below(self):
        """Each element's private stream is ``XorShift128(seed)``:
        >1000 ``next_below`` draws over random seeds (0 and 2^64-1
        included), drawn by random row subsets as conflict misses
        would, for a power-of-two and a rejection-sampled bound."""
        rng = random.Random(stable_seed("xorshift-lanes"))
        seeds = [0, 2**64 - 1, 1, 0x5EED_BA5E] + [
            rng.getrandbits(64) for _ in range(28)
        ]
        for ways in (4, 3):
            engine = VectorXorShiftRandom(len(seeds), 1, ways, seeds)
            scalars = [XorShift128(seed) for seed in seeds]
            draws = 0
            for _ in range(80):
                rows = np.array(
                    [e for e in range(len(seeds)) if rng.random() < 0.7],
                    dtype=np.int64,
                )
                got = engine.victim_ways(rows, np.zeros_like(rows))
                assert got.tolist() == [
                    scalars[e].next_below(ways) for e in rows
                ]
                draws += len(rows)
            assert draws >= 1000

    def test_per_lane_random_trace_replay_bit_identical(self):
        """Caches whose random replacement was reseeded one by one
        replay bit-identically through a batch with per-lane streams."""
        geometry = GEOMETRIES[0]

        def factory():
            return SetAssociativeCache(
                geometry,
                make_placement("random_modulo", geometry.layout()),
                make_replacement("random", geometry.num_sets,
                                 geometry.num_ways),
            )

        scalars = replay_trace_check(
            factory, seed_parts=("per-lane",),
            replacement_seeds=[0, 2**64 - 1, 7, 0x5EED_BA5E, 12345, 99],
        )
        assert all(c.replacement.draws_consumed > 0 for c in scalars)

    def test_per_lane_seeds_need_xorshift_random(self):
        cache = build_lru_cache(contention_geometry(), "modulo")
        with pytest.raises(ValueError, match="xorshift"):
            make_vector_batch(cache, 2, replacement_seeds=[1, 2])

    def test_rpcache_trace_replay_bit_identical(self):
        """RPCache's permutation-table placement plus the randomized
        cross-process interference redirects, trial-parallel."""
        geometry = CacheGeometry(total_size=2048, num_ways=4, line_size=32)
        scalars = replay_trace_check(
            lambda: RPCache(geometry), seed_parts=("rpcache",)
        )
        # The interference stream must actually have fired.
        assert sum(c.randomized_evictions for c in scalars) > 0


def contention_geometry():
    return CacheGeometry(total_size=2048, num_ways=4, line_size=32)


def make_attack(attack_cls, policy_name, seed=2018, **kwargs):
    geometry = contention_geometry()

    def factory():
        return build_lru_cache(geometry, policy_name)

    return attack_cls(cache_factory=factory, seed=seed, **kwargs)


def per_trial_seeder(victim_pid=1, attacker_pid=2):
    def seeder(cache, trial):
        cache.set_seed(stable_seed("v", trial), pid=victim_pid)
        cache.set_seed(stable_seed("a", trial), pid=attacker_pid)

    return seeder


class TestTrialBlockEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("hooked", [False, True],
                             ids=["fixed-seeds", "per-trial-seeds"])
    def test_prime_probe_counts_match(self, policy_name, hooked):
        seeder = per_trial_seeder() if hooked else None
        vec = make_attack(PrimeProbeAttack, policy_name,
                          num_entries=16, kernel="vector")
        sca = make_attack(PrimeProbeAttack, policy_name,
                          num_entries=16, kernel="scalar")
        assert vec.run_block(0, 48, 48, seeder) \
            == sca.run_block(0, 48, 48, seeder)

    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("hooked", [False, True],
                             ids=["fixed-seeds", "per-trial-seeds"])
    def test_evict_time_counts_match(self, policy_name, hooked):
        seeder = per_trial_seeder() if hooked else None
        vec = make_attack(EvictTimeAttack, policy_name,
                          num_entries=8, kernel="vector")
        sca = make_attack(EvictTimeAttack, policy_name,
                          num_entries=8, kernel="scalar")
        assert vec.run_block(0, 12, 12, seeder) \
            == sca.run_block(0, 12, 12, seeder)

    def test_block_tiling_is_invisible(self):
        """Any block-aligned tiling sums to the whole-block count —
        the property sharded campaigns rely on."""
        attack = make_attack(PrimeProbeAttack, "random_modulo",
                             num_entries=16, kernel="vector")
        seeder = per_trial_seeder()
        whole = attack.run_block(0, 40, 40, seeder).correct
        tiled = sum(
            attack.run_block(start, end, 40, seeder).correct
            for start, end in ((0, 7), (7, 16), (16, 33), (33, 40))
        )
        assert whole == tiled


class TestVectorEnvelope:
    def test_lru_cache_is_inside(self):
        assert supports_vector_cache(
            build_lru_cache(contention_geometry(), "random_modulo")
        )

    def _random_cache(self, **kwargs):
        geometry = contention_geometry()
        return SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            RandomReplacement(geometry.num_sets, geometry.num_ways,
                              **kwargs),
        )

    def test_stock_random_replacement_is_inside(self):
        """Every fresh stock instance restarts the same fixed draw
        stream, which the vector engine replays from a shared table."""
        assert supports_vector_cache(self._random_cache())

    def test_counter_random_replacement_is_inside(self):
        assert supports_vector_cache(self._random_cache(
            draws=CounterStream(counter_key(3))
        ))

    def test_reseeded_random_replacement_is_inside(self):
        """``reseed`` makes the stream reconstructible from the seed:
        the descriptor reads ``("xorshift", seed)``."""
        cache = self._random_cache()
        cache.replacement.reseed(0x5EED_BA5E ^ 42)
        assert cache.replacement.stream_descriptor() == (
            "xorshift", 0x5EED_BA5E ^ 42
        )
        assert supports_vector_cache(cache)

    def test_custom_prng_random_is_outside(self):
        """An externally-owned PRNG may have unknown state — the probe
        refuses with the documented reason."""
        cache = self._random_cache(prng=XorShift128(seed=99))
        assert vector_cache_support(cache) == \
            "replacement:random-custom-prng"

    def test_consumed_draw_stream_is_outside(self):
        """A cache whose replacement already drew is mid-stream; the
        shared-table replay would desequence it."""
        cache = self._random_cache()
        cache.replacement.victim_way(0)
        assert vector_cache_support(cache) == \
            "replacement:random-stream-consumed"

    def test_rpcache_is_inside(self):
        assert supports_vector_cache(RPCache(contention_geometry()))

    def test_rpcache_custom_tables_are_outside(self):
        rp = RPCache(contention_geometry())
        rp.assign_table(1, 5)
        assert vector_cache_support(rp) == "rpcache:custom-table-assignment"

    def test_rpcache_non_lru_replacement_is_outside(self):
        """The scalar RPCache fill consults victim_way twice per
        redirected conflict — safe only for stateless-read LRU."""
        rp = RPCache(contention_geometry(), replacement_name="random")
        assert vector_cache_support(rp) == "rpcache:replacement-random"

    def test_rpcache_consumed_interference_is_outside(self):
        rp = RPCache(contention_geometry())
        rp.randomized_evictions = 1
        assert vector_cache_support(rp) == \
            "rpcache:interference-stream-consumed"

    def test_protected_ranges_are_outside(self):
        cache = build_lru_cache(contention_geometry(), "modulo")
        cache.protect_range(0, 4096)
        assert not supports_vector_cache(cache)

    def test_subclass_is_outside(self):
        geometry = contention_geometry()

        class Widened(SetAssociativeCache):
            pass

        cache = Widened(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert not supports_vector_cache(cache)

    def test_wide_hashrp_lines_have_no_vector_twin(self):
        """line_bits > 32 would overflow uint64 shifts; the adapter
        refuses and the escape hatch covers it."""
        geometry = CacheGeometry(
            total_size=2048, num_ways=4, line_size=32, address_bits=40
        )
        policy = make_placement("hashrp", geometry.layout())
        assert vector_placement(policy) is None
        cache = SetAssociativeCache(
            geometry, policy,
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert not supports_vector_cache(cache)

    def test_hook_needing_real_cache_falls_back(self):
        """A seed_victim hook that touches more than set_seed pushes
        the block to the scalar path — same counts, via run_trial."""
        attack = make_attack(PrimeProbeAttack, "modulo",
                             num_entries=16, kernel="vector")

        def nosy_seeder(cache, trial):
            cache.set_seed(trial, pid=1)
            cache.flush()  # not part of the proxy surface

        scalar = make_attack(PrimeProbeAttack, "modulo",
                             num_entries=16, kernel="scalar")
        assert attack._run_block_vector(0, 8, nosy_seeder) is None
        assert attack.run_block(0, 8, 8, nosy_seeder) \
            == scalar.run_block(0, 8, 8, nosy_seeder)


class TestKernelSeam:
    def test_kernel_param_does_not_change_identity(self):
        base = ExperimentSpec(kind="prime_probe", setup="tscache",
                              num_samples=64, seed=2018)
        for kernel in ("auto", "vector", "scalar"):
            spec = base.with_params(kernel=kernel)
            assert spec.spec_hash() == base.spec_hash()
            assert (
                spec.seed_sequence().spawn_key
                == base.seed_sequence().spawn_key
            )
        # ...but it still travels to workqueue workers via the doc.
        doc = base.with_params(kernel="vector").to_doc()
        assert ["kernel", "vector"] in doc["params"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            PrimeProbeAttack(cache_factory=lambda: None, kernel="simd")

    def test_golden_contention_outcomes_on_vector_kernel(self):
        """The frozen golden counts reproduce with kernel=vector —
        serial cells, every setup (vector where the envelope allows,
        documented scalar fallback elsewhere)."""
        specs = [
            spec.with_params(kernel="vector")
            for spec in contention_specs()
        ]
        for cell in CampaignRunner().run(specs):
            key = (cell.spec.kind, cell.spec.setup)
            assert (
                cell.payload.trials, cell.payload.correct
            ) == GOLDEN_CONTENTION[key]

    def test_dry_run_plan_reports_resolved_kernels(self):
        runner = CampaignRunner()
        specs = [
            ExperimentSpec(kind="prime_probe", setup="deterministic",
                           num_samples=8, seed=1,
                           params={"kernel": "vector"}),
            ExperimentSpec(kind="prime_probe", setup="deterministic",
                           num_samples=8, seed=1,
                           params={"kernel": "scalar"}),
            # rpcache, the random setups and the replay kinds are all
            # in-envelope now: "auto" resolves vector.
            ExperimentSpec(kind="prime_probe", setup="rpcache",
                           num_samples=8, seed=1),
            ExperimentSpec(kind="prime_probe", setup="mbpta",
                           num_samples=8, seed=1),
            ExperimentSpec(kind="pwcet", setup="tscache",
                           num_samples=4, seed=1),
            ExperimentSpec(kind="missrate", seed=1,
                           params={"policy": "modulo",
                                   "workload": "stride"}),
            ExperimentSpec(kind="timing_samples", setup="tscache",
                           num_samples=1024, seed=1),
        ]
        plans = runner.plan(specs)
        kernels = [plan.kernel for plan in plans]
        assert kernels == ["vector", "scalar", "vector", "vector",
                           "vector", "vector", "vector"]
        assert all(plan.kernel_reason is None for plan in plans)

    def test_dry_run_plan_reports_fallback_reason(self):
        """A missrate cell with random replacement cannot replay
        set-parallel — the plan carries the machine-readable reason."""
        runner = CampaignRunner()
        spec = ExperimentSpec(
            kind="missrate", seed=1,
            params={"policy": "modulo", "workload": "stride",
                    "replacement": "random"},
        )
        plan = runner.plan([spec])[0]
        assert plan.kernel == "scalar"
        assert plan.kernel_reason == \
            "replacement:random-draws-globally-sequenced"
        # An explicit scalar request is a choice, not a fallback.
        plan = runner.plan([spec.with_params(kernel="scalar")])[0]
        assert plan.kernel == "scalar"
        assert plan.kernel_reason is None

    def test_kernel_fallback_event_journaled(self):
        """Scalar fallbacks are never silent: the runner journals one
        schema-valid kernel_fallback event per falling-back cell."""
        from repro.telemetry.events import EVENT_SCHEMA
        from repro.telemetry.sink import RecordingSink

        sink = RecordingSink()
        runner = CampaignRunner(telemetry=sink)
        runner.run([
            ExperimentSpec(
                kind="missrate", seed=1,
                params={"policy": "modulo", "workload": "stride",
                        "replacement": "random"},
            ),
            ExperimentSpec(
                kind="missrate", seed=1,
                params={"policy": "modulo", "workload": "stride"},
            ),
        ])
        events = sink.of_type("kernel_fallback")
        assert len(events) == 1
        assert events[0]["kernel"] == "scalar"
        assert events[0]["reason"] == \
            "replacement:random-draws-globally-sequenced"
        assert EVENT_SCHEMA["kernel_fallback"] <= set(events[0])


class TestReplayKernels:
    """The batched trace-replay kernels against the scalar per-access
    loops, through the public experiment kinds (so seeding, trace
    construction and payload assembly are the campaign's own)."""

    @pytest.mark.parametrize("setup", ("deterministic", "rpcache",
                                       "mbpta", "tscache"))
    @pytest.mark.parametrize("reseed", [True, False],
                             ids=["reseeding", "fixed-platform"])
    def test_pwcet_times_bit_identical(self, setup, reseed):
        from repro.campaigns.experiments import run_pwcet

        spec = ExperimentSpec(
            kind="pwcet", setup=setup, num_samples=5, seed=7,
            params={"analyse": False, "reseed": reseed},
        )
        scalar = run_pwcet(spec.with_params(kernel="scalar")).times
        vector = run_pwcet(spec.with_params(kernel="vector")).times
        assert scalar.dtype == vector.dtype
        assert np.array_equal(scalar, vector)

    @pytest.mark.parametrize("policy", PLACEMENTS)
    @pytest.mark.parametrize("replacement", ("lru", "fifo", "nru", "plru"))
    def test_missrate_counters_bit_identical(self, policy, replacement):
        from repro.campaigns.experiments import run_missrate

        spec = ExperimentSpec(
            kind="missrate", seed=0x1234, num_samples=1,
            params={"policy": policy, "workload": "stride",
                    "replacement": replacement},
        )
        scalar = run_missrate(spec.with_params(kernel="scalar"))
        vector = run_missrate(spec.with_params(kernel="vector"))
        assert (scalar.accesses, scalar.misses, scalar.miss_rate) == \
            (vector.accesses, vector.misses, vector.miss_rate)

    def test_missrate_interleaved_sets_bit_identical(self):
        """A reuse workload interleaves sets heavily — the round
        scheduler must preserve in-set access order exactly."""
        from repro.campaigns.experiments import run_missrate

        spec = ExperimentSpec(
            kind="missrate", seed=0x1234, num_samples=1,
            params={"policy": "random_modulo", "workload": "reuse",
                    "replacement": "plru"},
        )
        scalar = run_missrate(spec.with_params(kernel="scalar"))
        vector = run_missrate(spec.with_params(kernel="vector"))
        assert (scalar.accesses, scalar.misses) == \
            (vector.accesses, vector.misses)

    def test_hierarchy_support_reasons(self):
        import dataclasses

        from repro.core.setups import setup_hierarchy_config
        from repro.kernels import hierarchy_support

        for setup in ("deterministic", "rpcache", "mbpta", "tscache"):
            assert hierarchy_support(setup_hierarchy_config(setup)) is None
        config = dataclasses.replace(
            setup_hierarchy_config("deterministic"), l1_replacement="mru"
        )
        assert hierarchy_support(config) == \
            "l1:replacement-mru-unsupported"

    def test_missrate_support_reasons(self):
        from repro.kernels import missrate_support

        geometry = contention_geometry()
        cache = SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("random", geometry.num_sets,
                             geometry.num_ways),
        )
        assert missrate_support(cache) == \
            "replacement:random-draws-globally-sequenced"
        lru = SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert missrate_support(lru) is None
        lru.protect_range(0, 4096)
        assert missrate_support(lru) == "cache:protected-ranges"


class TestHierarchyReplayByLevel:
    """:class:`~repro.kernels.replay.VectorHierarchyBatch` against ``R``
    fresh scalar :class:`~repro.cache.hierarchy.CacheHierarchy` objects,
    on seeded random traces mixing instruction fetches and data accesses
    over two pids with per-pid seeds — every replacement pairing, the
    one-lane collapse and its refusal, one and several runs."""

    L1 = CacheGeometry(total_size=2048, num_ways=4, line_size=32)
    L2 = CacheGeometry(total_size=8192, num_ways=4, line_size=32)

    @staticmethod
    def trace(seed, length=500):
        rng = random.Random(seed)
        # A 32 KB pool overfills both levels; a few wild lines mix in.
        pool = [0x10_0000 + rng.randrange(0, 32 * 1024) for _ in range(160)]
        kinds = (AccessType.IFETCH, AccessType.LOAD, AccessType.STORE)
        trace = Trace()
        for _ in range(length):
            address = (rng.choice(pool) if rng.random() < 0.9
                       else rng.getrandbits(30))
            trace.append(MemoryAccess(address, rng.choice(kinds),
                                      pid=rng.choice((1, 2))))
        return trace

    def config(self, l1_placement="random_modulo", l2_placement="hashrp",
               l1_replacement="lru", l2_replacement="lru"):
        return HierarchyConfig(
            l1_geometry=self.L1, l2_geometry=self.L2,
            l1_placement=l1_placement, l2_placement=l2_placement,
            l1_replacement=l1_replacement, l2_replacement=l2_replacement,
        )

    def replay(self, config, trace, runs, label):
        """(vector latencies, scalar latencies, lanes the batch used)."""
        from repro.kernels import replay

        batch = replay.VectorHierarchyBatch(config, runs)
        scalar = []
        for run in range(runs):
            hierarchy = CacheHierarchy(config)
            for pid in (1, 2):
                seed = stable_seed(label, run, pid)
                hierarchy.set_seeds(seed, pid=pid)
                batch.set_seeds(run, seed, pid=pid)
            scalar.append(hierarchy.run_trace(trace))
        widths = []
        level_hits = replay.level_hits

        def spy(runs, *args, **kwargs):
            widths.append(int(runs.max()) + 1)
            return level_hits(runs, *args, **kwargs)

        replay.level_hits = spy
        try:
            vector = batch.run_trace(trace)
        finally:
            replay.level_hits = level_hits
        return vector.tolist(), scalar, max(widths, default=0)

    @pytest.mark.parametrize("runs", (1, 5))
    @pytest.mark.parametrize("l2_replacement", ("lru", "random"))
    @pytest.mark.parametrize("l1_replacement",
                             ("lru", "fifo", "nru", "plru", "random"))
    def test_replacement_pairs_bit_identical(self, l1_replacement,
                                             l2_replacement, runs):
        label = (l1_replacement, l2_replacement, runs)
        config = self.config(l1_replacement=l1_replacement,
                             l2_replacement=l2_replacement)
        vector, scalar, lanes = self.replay(
            config, self.trace(stable_seed(*label)), runs, label
        )
        assert vector == scalar
        assert lanes == runs  # seeded random layouts differ per run

    @pytest.mark.parametrize("replacement", ("lru", "random"))
    def test_modulo_layout_collapses_to_one_run(self, replacement):
        config = self.config("modulo", "modulo", replacement, replacement)
        vector, scalar, lanes = self.replay(
            config, self.trace(11), 5, ("modulo", replacement)
        )
        assert vector == scalar
        assert lanes == 1

    @pytest.mark.parametrize("l1_placement, l2_placement", [
        ("modulo", "hashrp"), ("random_modulo", "modulo"),
    ])
    def test_one_run_invariant_level_does_not_collapse(self, l1_placement,
                                                       l2_placement):
        config = self.config(l1_placement, l2_placement, "random", "lru")
        vector, scalar, lanes = self.replay(
            config, self.trace(12), 5, (l1_placement, l2_placement)
        )
        assert vector == scalar
        assert lanes == 5

    @pytest.mark.parametrize("runs", (1, 5))
    def test_empty_trace(self, runs):
        vector, scalar, _ = self.replay(self.config(), Trace(), runs, "empty")
        assert vector == scalar == [0] * runs
