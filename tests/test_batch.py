"""Tests for the vectorized AES timing engine and its cold-line model,
including consistency against the scalar cache hierarchy."""

import numpy as np
import pytest

from repro.cache.core import ARM920T_L1_GEOMETRY
from repro.campaigns import ExperimentSpec
from repro.campaigns.experiments import resolve_engine_kernel
from repro.campaigns.registry import KernelResolution
from repro.common.trace import MemoryAccess
from repro.core.batch import (
    NUM_TABLE_LINES,
    OTHER_PID,
    VICTIM_PID,
    AESTimingEngine,
    ColdLineModel,
    EngineConfig,
    accessed_lines,
    default_background,
    lookup_line_ids,
)
from repro.core.setups import SETUP_NAMES, make_setup
from repro.crypto.aes import AES128, DEFAULT_TABLE_BASE


class TestLookupLineIds:
    def test_line_math(self):
        aes = AES128(bytes(range(16)))
        rng = np.random.default_rng(0)
        plaintexts = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        _, lookup_bytes = aes.encrypt_batch(plaintexts)
        lines = lookup_line_ids(lookup_bytes)
        assert lines.shape == lookup_bytes.shape
        assert lines.min() >= 0
        assert lines.max() < NUM_TABLE_LINES
        # Position 0 is a Te0 lookup: line = byte >> 3.
        assert lines[0, 0] == lookup_bytes[0, 0] >> 3
        # Position 144 is the first Te4 lookup: line = 128 + byte >> 3.
        assert lines[0, 144] == 128 + (lookup_bytes[0, 144] >> 3)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            lookup_line_ids(np.zeros((4, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            accessed_lines(np.zeros((4, 100), dtype=np.uint8))

    def test_accessed_lines_is_the_line_id_scatter(self):
        rng = np.random.default_rng(1)
        lookup_bytes = rng.integers(0, 256, size=(300, 160), dtype=np.uint8)
        lines = lookup_line_ids(lookup_bytes)
        expected = np.zeros((300, NUM_TABLE_LINES), dtype=bool)
        expected[np.arange(300)[:, None], lines] = True
        accessed = accessed_lines(lookup_bytes)
        assert accessed.dtype == bool
        assert np.array_equal(accessed, expected)


class TestColdLineModel:
    def test_deterministic_cold_pattern(self):
        """Under modulo: OS evicts Te1 lines 8-11 and 20-23, the app
        buffers evict Te2 lines 20-23 and 28-31 (see
        bernstein_background)."""
        model = ColdLineModel(make_setup("deterministic"), default_background())
        cold, line_set = model.epoch_state(1, 2, include_other=True)
        te1 = {int(l) - 32 for l in np.nonzero(cold[32:64])[0] + 32}
        te2 = {int(l) - 64 for l in np.nonzero(cold[64:96])[0] + 64}
        assert te1 == {8, 9, 10, 11, 20, 21, 22, 23}
        assert te2 == {20, 21, 22, 23, 28, 29, 30, 31}
        # Te0 and Te3 stay warm under modulo.
        assert not cold[0:32].any()
        assert not cold[96:128].any()

    def test_same_process_only_excludes_os_evictions(self):
        model = ColdLineModel(make_setup("deterministic"), default_background())
        cold, _ = model.epoch_state(1, 2, include_other=False)
        assert not cold[32:64].any()     # Te1 warm without the OS buffers
        assert cold[64:96].any()         # Te2 still evicted by app buffers

    def test_line_sets_in_range(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        _, line_set = model.epoch_state(5, 6)
        assert line_set.shape == (NUM_TABLE_LINES,)
        assert line_set.min() >= 0
        assert line_set.max() < ARM920T_L1_GEOMETRY.num_sets

    def test_rm_cold_depends_on_seed(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        cold_a, _ = model.epoch_state(1, 2)
        cold_b, _ = model.epoch_state(99, 100)
        assert not np.array_equal(cold_a, cold_b)

    def test_rm_cold_reproducible(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        cold_a, _ = model.epoch_state(7, 8, replacement_seed=3)
        cold_b, _ = model.epoch_state(7, 8, replacement_seed=3)
        assert np.array_equal(cold_a, cold_b)

    def test_interference_events_only_for_rpcache(self):
        background = default_background()
        det = ColdLineModel(make_setup("deterministic"), background)
        assert det.estimate_interference_events(1, 2) == 0
        rp = ColdLineModel(make_setup("rpcache"), background)
        assert rp.estimate_interference_events(1, 2) > 0


class TestBatchedEpochStates:
    """The batched cold-line model against the scalar reference."""

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_batch_equals_scalar_epoch_state(self, setup_name):
        """56 random seed tuples per setup, include_other both ways,
        in one batch: every lane equals its scalar ``epoch_state``."""
        model = ColdLineModel(make_setup(setup_name), default_background())
        rng = np.random.default_rng(sum(map(ord, setup_name)))
        keys = [
            model.epoch_key(
                int(rng.integers(0, 1 << 32)),
                int(rng.integers(0, 1 << 32)),
                include_other=bool(i % 2),
                replacement_seed=int(rng.integers(0, 1 << 32)),
            )
            for i in range(56)
        ]
        cold, line_set = model.epoch_states(keys)
        assert cold.shape == line_set.shape == (len(keys), NUM_TABLE_LINES)
        for k, key in enumerate(keys):
            ref_cold, ref_sets = model.epoch_state(*key)
            assert np.array_equal(cold[k], ref_cold), key
            assert np.array_equal(line_set[k], ref_sets), key
            assert line_set[k].dtype == ref_sets.dtype
        # The comparison must cover warm and cold lines alike.
        assert cold.any() and not cold.all()

    def test_random_replacement_draws_differ_per_lane(self):
        """Lanes with the same placement seeds but different
        replacement seeds take their own eviction choices."""
        model = ColdLineModel(make_setup("mbpta"), default_background())
        keys = [model.epoch_key(5, 6, True, r) for r in range(16)]
        cold, _ = model.epoch_states(keys)
        assert len({row.tobytes() for row in cold}) > 1

    def test_deterministic_replacement_seed_is_dropped(self):
        model = ColdLineModel(make_setup("deterministic"),
                              default_background())
        assert model.epoch_key(1, 2, True, 77) == (1, 2, True, 0)
        mbpta = ColdLineModel(make_setup("mbpta"), default_background())
        assert mbpta.epoch_key(1, 2, True, 77) == (1, 2, True, 77)

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_every_setup_is_inside_the_envelope(self, setup_name):
        model = ColdLineModel(make_setup(setup_name), default_background())
        assert model.vector_support() is None


class TestEngineKernel:
    """``EngineConfig.kernel`` selects the cold-line path; results are
    bit-identical either way."""

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_scalar_and_vector_collect_identical(self, setup_name):
        collected = {}
        for kernel in ("scalar", "vector"):
            engine = AESTimingEngine(
                make_setup(setup_name), config=EngineConfig(kernel=kernel),
                rng=11,
            )
            assert engine.kernel == kernel
            collected[kernel] = engine.collect(
                bytes(range(16)), 3000, party="attacker", campaign_seed=9
            )
        assert (collected["scalar"].timings.tobytes()
                == collected["vector"].timings.tobytes())
        assert np.array_equal(collected["scalar"].plaintexts,
                              collected["vector"].plaintexts)

    def _count_epoch_state_calls(self, monkeypatch, kernel):
        calls = []
        original = ColdLineModel.epoch_state

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ColdLineModel, "epoch_state", counting)
        engine = AESTimingEngine(make_setup("tscache"),
                                 config=EngineConfig(kernel=kernel), rng=3)
        engine.collect(bytes(16), 4096)
        return len(calls)

    def test_scalar_kernel_runs_the_reference_loop(self, monkeypatch):
        assert self._count_epoch_state_calls(monkeypatch, "scalar") == 4

    def test_vector_kernel_never_calls_epoch_state(self, monkeypatch):
        assert self._count_epoch_state_calls(monkeypatch, "auto") == 0

    def test_out_of_envelope_setup_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(ColdLineModel, "vector_support",
                            lambda self: "placement:custom-unsupported")
        engine = AESTimingEngine(make_setup("mbpta"),
                                 config=EngineConfig(kernel="vector"))
        assert engine.kernel == "scalar"
        spec = ExperimentSpec(kind="bernstein", setup="mbpta",
                              num_samples=1024, seed=1)
        assert resolve_engine_kernel(spec) == KernelResolution(
            "scalar", "placement:custom-unsupported"
        )

    def test_resolve_engine_kernel_reports_the_path_that_runs(self):
        spec = ExperimentSpec(kind="bernstein", setup="tscache",
                              num_samples=1024, seed=1)
        assert resolve_engine_kernel(spec) == KernelResolution("vector")
        assert resolve_engine_kernel(
            spec.with_params(kernel="scalar")
        ) == KernelResolution("scalar")


class TestEngineTimings:
    def test_timing_formula_matches_cold_model(self):
        """Engine timing == base + penalty * |unique cold lines touched|,
        with the cold mask taken from the scalar cache simulation."""
        setup = make_setup("deterministic")
        config = EngineConfig()
        engine = AESTimingEngine(setup, config=config,
                                 rng=np.random.default_rng(5))
        key = bytes(range(16))
        samples = engine.collect(key, 64)
        cold, _ = engine.cold_model.epoch_state(
            0xC0DE & 0xFFFFFFFF, (0xC0DE) ^ 0x7E57_0123, include_other=True
        )
        aes = AES128(key)
        _, lookup_bytes = aes.encrypt_batch(samples.plaintexts)
        lines = lookup_line_ids(lookup_bytes)
        for i in range(64):
            unique_cold = {
                int(l) for l in lines[i] if cold[l]
            }
            expected = config.base_cycles + config.miss_penalty * len(
                unique_cold
            )
            assert samples.timings[i] == pytest.approx(expected)

    def test_scalar_hierarchy_agrees_on_one_encryption(self):
        """Ground truth check: replay one encryption's lookup trace
        through the real scalar L1 after warm-up + background; the
        L1 misses must be exactly the unique cold lines the engine
        charges."""
        setup = make_setup("deterministic")
        background = default_background()
        model = ColdLineModel(setup, background)
        cold, _ = model.epoch_state(1, 2, include_other=True)

        cache = model._build_cache(1, 2)
        addresses = model._table_line_addresses()
        for _ in range(2):
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
        for access in background.same_process_trace(VICTIM_PID):
            cache.access(access)
        for access in background.other_process_trace(OTHER_PID):
            cache.access(access)

        aes = AES128(bytes(range(16)))
        _, lookups = aes.encrypt_block_traced(bytes(range(16, 32)))
        misses = 0
        for lookup in lookups:
            result = cache.access(
                MemoryAccess(lookup.address(DEFAULT_TABLE_BASE),
                             pid=VICTIM_PID)
            )
            if not result.hit:
                misses += 1
        lines = {lookup.table * 32 + (lookup.byte_index >> 3)
                 for lookup in lookups}
        expected_misses = sum(1 for line in lines if cold[line])
        assert misses == expected_misses

    def test_reseed_epochs_change_timing_distribution(self):
        """TSCache: different epochs use different seeds, so cold-line
        counts (hence timing levels) vary across epochs."""
        setup = make_setup("tscache")
        engine = AESTimingEngine(setup, rng=np.random.default_rng(6))
        samples = engine.collect(bytes(range(16)), 4096)
        first_epoch = samples.timings[:1024]
        # Distribution should vary across at least one epoch boundary.
        means = [samples.timings[i:i + 1024].mean() for i in range(0, 4096, 1024)]
        assert max(means) - min(means) > 0.5

    def test_invalid_party(self):
        engine = AESTimingEngine(make_setup("deterministic"))
        with pytest.raises(ValueError):
            engine.collect(bytes(16), 10, party="eavesdropper")

    def test_nonpositive_samples(self):
        engine = AESTimingEngine(make_setup("deterministic"))
        with pytest.raises(ValueError):
            engine.collect(bytes(16), 0)

    def test_key_xor_plaintexts(self):
        engine = AESTimingEngine(make_setup("deterministic"),
                                 rng=np.random.default_rng(8))
        key = bytes(range(16))
        samples = engine.collect(key, 16)
        xored = samples.key_xor_plaintexts()
        assert np.array_equal(
            xored[:, 0], samples.plaintexts[:, 0] ^ key[0]
        )
