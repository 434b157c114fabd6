"""Tests for the AES-128 implementation: FIPS-197 vectors, algebraic
table structure, encrypt/decrypt roundtrips and scalar/batch agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import (
    AES128,
    LOOKUPS_PER_ENCRYPTION,
    TableLookup,
    aes_lookup_addresses,
    lookup_table_ids,
    random_key,
)
from repro.crypto.tables import INV_SBOX, RCON, SBOX, TE4, TE_TABLES, gf_mul


FIPS_KEY = bytes(range(16))
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

key_bytes = st.binary(min_size=16, max_size=16)


class TestTables:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_inv_sbox_inverts(self):
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_te0_structure(self):
        """Te0[x] packs (2s, s, s, 3s) for s = SBOX[x]."""
        for x in (0, 1, 0x35, 0xFF):
            s = SBOX[x]
            expected = (
                (gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | gf_mul(s, 3)
            )
            assert TE_TABLES[0][x] == expected

    def test_te_tables_are_rotations(self):
        for x in range(0, 256, 17):
            word = TE_TABLES[0][x]
            for t in range(1, 4):
                word = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
                assert TE_TABLES[t][x] == word

    def test_te4_replicates_sbox(self):
        for x in (0, 7, 200, 255):
            s = SBOX[x]
            assert TE4[x] == s * 0x01010101

    def test_rcon_values(self):
        assert RCON == [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                        0x1B, 0x36]

    def test_gf_mul_examples(self):
        assert gf_mul(0x57, 0x13) == 0xFE  # FIPS-197 §4.2 example
        assert gf_mul(0x57, 0x02) == 0xAE
        assert gf_mul(1, 0xAB) == 0xAB


class TestKnownVectors:
    def test_fips197_appendix_c(self):
        assert AES128(FIPS_KEY).encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_key_schedule_first_words(self):
        """FIPS-197 A.1: first expanded words of the 2b7e... key."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        words = AES128(key).round_keys
        assert words[4] == 0xA0FAFE17
        assert words[5] == 0x88542CB1
        assert words[43] == 0xB6630CA6


class TestValidation:
    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            AES128(FIPS_KEY).encrypt_block(b"x" * 15)
        with pytest.raises(ValueError):
            AES128(FIPS_KEY).decrypt_block(b"x" * 17)

    def test_batch_shape_checked(self):
        with pytest.raises(ValueError):
            AES128(FIPS_KEY).encrypt_batch(np.zeros((4, 8), dtype=np.uint8))

    @pytest.mark.parametrize(
        "dtype", [np.int64, np.uint16, np.int8, np.float64, bool]
    )
    def test_batch_dtype_checked(self, dtype):
        """Only uint8 is a byte matrix: a wider integer (whose 256
        would spill into the next byte) or a float must be refused,
        not reinterpreted."""
        plaintexts = np.ones((4, 16), dtype=dtype)
        with pytest.raises(ValueError, match="uint8"):
            AES128(FIPS_KEY).encrypt_batch(plaintexts)


class TestRoundtrip:
    @given(key_bytes, st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_decrypt_inverts_encrypt(self, key, plaintext):
        aes = AES128(key)
        assert aes.decrypt_block(aes.encrypt_block(plaintext)) == plaintext


class TestTrace:
    def test_lookup_count(self):
        _, lookups = AES128(FIPS_KEY).encrypt_block_traced(FIPS_PLAINTEXT)
        assert len(lookups) == LOOKUPS_PER_ENCRYPTION

    def test_table_id_schedule(self):
        _, lookups = AES128(FIPS_KEY).encrypt_block_traced(FIPS_PLAINTEXT)
        ids = lookup_table_ids()
        assert [l.table for l in lookups] == list(ids)

    def test_first_round_indices_are_pt_xor_key(self):
        """The attack's core fact: lookup k of round 1 indexes byte
        p[j] ^ key[j] with j following the ShiftRows column schedule."""
        _, lookups = AES128(FIPS_KEY).encrypt_block_traced(FIPS_PLAINTEXT)
        schedule = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
        for k in range(16):
            j = schedule[k]
            assert lookups[k].byte_index == FIPS_PLAINTEXT[j] ^ FIPS_KEY[j]

    def test_lookup_addresses(self):
        lookup = TableLookup(table=2, byte_index=5)
        assert lookup.address(0x1000) == 0x1000 + 2 * 1024 + 20
        assert aes_lookup_addresses([lookup], 0x1000) == [0x1000 + 2068]


def _assert_batch_matches_scalar(aes, plaintexts):
    """``encrypt_batch`` == per-block ``encrypt_block_traced``:
    ciphertexts, lookup byte indices in issue order, dtypes, layout."""
    ciphertexts, lookup_bytes = aes.encrypt_batch(plaintexts)
    n = plaintexts.shape[0]
    assert ciphertexts.dtype == np.uint8
    assert lookup_bytes.dtype == np.uint8
    assert ciphertexts.shape == (n, 16)
    assert lookup_bytes.shape == (n, LOOKUPS_PER_ENCRYPTION)
    assert lookup_bytes.flags.c_contiguous
    for i in range(n):
        ct, lookups = aes.encrypt_block_traced(bytes(plaintexts[i]))
        assert bytes(ciphertexts[i]) == ct
        assert lookup_bytes[i].tolist() == [l.byte_index for l in lookups]


class TestBatch:
    @given(key_bytes)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_scalar(self, key):
        rng = np.random.default_rng(42)
        plaintexts = rng.integers(0, 256, size=(8, 16), dtype=np.uint8)
        _assert_batch_matches_scalar(AES128(key), plaintexts)

    def test_batch_large_shape(self):
        aes = AES128(FIPS_KEY)
        rng = np.random.default_rng(1)
        plaintexts = rng.integers(0, 256, size=(1000, 16), dtype=np.uint8)
        ciphertexts, lookup_bytes = aes.encrypt_batch(plaintexts)
        assert ciphertexts.shape == (1000, 16)
        assert lookup_bytes.shape == (1000, LOOKUPS_PER_ENCRYPTION)

    @pytest.mark.parametrize("seed", range(64))
    def test_seeded_keys_match_scalar(self, seed):
        """64 seeded keys x 256 blocks against the scalar reference."""
        rng = np.random.default_rng(seed)
        aes = AES128(random_key(rng))
        plaintexts = rng.integers(0, 256, size=(256, 16), dtype=np.uint8)
        _assert_batch_matches_scalar(aes, plaintexts)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_batches(self, n):
        rng = np.random.default_rng(100 + n)
        plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        _assert_batch_matches_scalar(AES128(FIPS_KEY), plaintexts)

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(7)
        aes = AES128(random_key(rng))
        base = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
        strided = base[::2]
        fortran = np.asfortranarray(base)
        assert not strided.flags.c_contiguous
        assert not fortran.flags.c_contiguous
        _assert_batch_matches_scalar(aes, strided)
        _assert_batch_matches_scalar(aes, fortran)

    def test_fips197_appendix_c_batch(self):
        block = np.frombuffer(FIPS_PLAINTEXT, dtype=np.uint8)
        plaintexts = np.stack([block, block])
        ciphertexts, _ = AES128(FIPS_KEY).encrypt_batch(plaintexts)
        assert bytes(ciphertexts[0]) == FIPS_CIPHERTEXT
        assert bytes(ciphertexts[1]) == FIPS_CIPHERTEXT
        _assert_batch_matches_scalar(AES128(FIPS_KEY), plaintexts)


class TestRandomKey:
    def test_length(self):
        assert len(random_key()) == 16

    def test_seeded_reproducible(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        assert random_key(rng1) == random_key(rng2)
