"""AES-128 encryption with table-lookup trace emission.

Two implementations share the same tables:

* :class:`AES128` — scalar, readable, emits the exact sequence of
  T-table lookups performed by one encryption (the side-channel
  surface the paper's case study attacks).
* :meth:`AES128.encrypt_batch` — NumPy-vectorized over many blocks,
  returning both ciphertexts and the (N, 160) matrix of lookup byte
  indices that the batch cache engine consumes.  It treats the N
  states as one ``(N, 16)`` byte matrix, so each round is a handful of
  whole-state ops: a ShiftRows byte gather (which is also the round's
  lookup row), one gather from the flat Te0..Te3 table, and an XOR
  reduce per column.  The T-tables are module constants shared by
  every instance.

Verified against the FIPS-197 vectors in the test suite, and the
batch path bit for bit against the scalar one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.tables import RCON, SBOX, TE4, TE_TABLES

#: Lookups per encryption: 9 main rounds x 16 + 16 final-round lookups.
LOOKUPS_PER_ENCRYPTION = 160

#: Default base address of the T-tables in the victim's address space.
DEFAULT_TABLE_BASE = 0x0010_0000

#: Bytes per table (256 entries x 4 bytes).
TABLE_BYTES = 1024

#: Te0..Te3 back to back: lookup ``k`` of a main round reads table
#: ``k % 4``, i.e. entry ``byte + _TE_OFFSETS[k]`` of this array.
_TE_FLAT = np.array([word for table in TE_TABLES for word in table],
                    dtype=np.uint32)
_TE_OFFSETS = np.tile(np.arange(0, 1024, 256, dtype=np.intp), 4)
_TE4 = np.array(TE4, dtype=np.uint32)

#: ShiftRows as a gather of the 16 state bytes: lookup ``4c + k`` of a
#: round reads byte ``k`` (most significant first) of column
#: ``(c + k) % 4``.
_SHIFT_ROWS = np.array(
    [4 * ((c + k) % 4) + k for c in range(4) for k in range(4)],
    dtype=np.intp,
)

#: Final-round byte masks: lookup ``4c + k`` keeps byte ``k`` of its
#: Te4 word.
_FINAL_MASKS = np.tile(
    np.array([0xFF000000, 0x00FF0000, 0x0000FF00, 0x000000FF],
             dtype=np.uint32),
    4,
)


@dataclass(frozen=True)
class TableLookup:
    """One T-table access: table id (0..3 main rounds, 4 final) + byte."""

    table: int
    byte_index: int

    def address(self, table_base: int = DEFAULT_TABLE_BASE) -> int:
        return table_base + self.table * TABLE_BYTES + self.byte_index * 4


def random_key(rng: Optional[np.random.Generator] = None) -> bytes:
    """A uniformly random 128-bit key."""
    if rng is None:
        return os.urandom(16)
    return bytes(int(b) for b in rng.integers(0, 256, size=16, dtype=np.uint8))


def _bytes_to_words(data: bytes) -> List[int]:
    """Big-endian 32-bit words from 16 bytes."""
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, 16, 4)]


def _words_to_bytes(words: Sequence[int]) -> bytes:
    return b"".join(int(w & 0xFFFFFFFF).to_bytes(4, "big") for w in words)


class AES128:
    """AES-128 in the classic four-T-table formulation."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self.key = bytes(key)
        self.round_keys = self._expand_key(self.key)
        self._np_round_keys = np.array(
            self.round_keys, dtype=np.uint32
        ).reshape(11, 4)

    # -- key schedule ------------------------------------------------------

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """44 round-key words for AES-128 (FIPS-197 §5.2)."""
        words = _bytes_to_words(key)
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (  # SubWord
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    # -- scalar encryption ------------------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        ciphertext, _ = self.encrypt_block_traced(plaintext)
        return ciphertext

    def encrypt_block_traced(
        self, plaintext: bytes
    ) -> Tuple[bytes, List[TableLookup]]:
        """Encrypt one block and return the ordered T-table lookups."""
        if len(plaintext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(plaintext)}")
        te0, te1, te2, te3 = TE_TABLES
        rk = self.round_keys
        lookups: List[TableLookup] = []

        s = [w ^ rk[i] for i, w in enumerate(_bytes_to_words(plaintext))]

        for round_index in range(1, 10):
            t = [0, 0, 0, 0]
            for col in range(4):
                b0 = (s[col] >> 24) & 0xFF
                b1 = (s[(col + 1) % 4] >> 16) & 0xFF
                b2 = (s[(col + 2) % 4] >> 8) & 0xFF
                b3 = s[(col + 3) % 4] & 0xFF
                lookups.append(TableLookup(0, b0))
                lookups.append(TableLookup(1, b1))
                lookups.append(TableLookup(2, b2))
                lookups.append(TableLookup(3, b3))
                t[col] = (
                    te0[b0] ^ te1[b1] ^ te2[b2] ^ te3[b3]
                    ^ rk[4 * round_index + col]
                )
            s = t

        # Final round: SubBytes + ShiftRows via Te4 byte extraction.
        out = [0, 0, 0, 0]
        for col in range(4):
            b0 = (s[col] >> 24) & 0xFF
            b1 = (s[(col + 1) % 4] >> 16) & 0xFF
            b2 = (s[(col + 2) % 4] >> 8) & 0xFF
            b3 = s[(col + 3) % 4] & 0xFF
            for byte in (b0, b1, b2, b3):
                lookups.append(TableLookup(4, byte))
            out[col] = (
                (TE4[b0] & 0xFF000000)
                | (TE4[b1] & 0x00FF0000)
                | (TE4[b2] & 0x0000FF00)
                | (TE4[b3] & 0x000000FF)
            ) ^ rk[40 + col]

        return _words_to_bytes(out), lookups

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Straightforward inverse-cipher (no T-tables; used for tests)."""
        if len(ciphertext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(ciphertext)}")
        from repro.crypto.tables import INV_SBOX, gf_mul

        rk = self.round_keys

        def to_state(words: Sequence[int]) -> List[List[int]]:
            return [
                [(words[c] >> (24 - 8 * r)) & 0xFF for c in range(4)]
                for r in range(4)
            ]

        def from_state(state: List[List[int]]) -> List[int]:
            return [
                (state[0][c] << 24)
                | (state[1][c] << 16)
                | (state[2][c] << 8)
                | state[3][c]
                for c in range(4)
            ]

        words = [w ^ rk[40 + i] for i, w in enumerate(_bytes_to_words(ciphertext))]
        state = to_state(words)

        for round_index in range(9, 0, -1):
            # InvShiftRows.
            for r in range(1, 4):
                state[r] = state[r][-r:] + state[r][:-r]
            # InvSubBytes.
            state = [[INV_SBOX[b] for b in row] for row in state]
            # AddRoundKey.
            words = from_state(state)
            words = [w ^ rk[4 * round_index + i] for i, w in enumerate(words)]
            state = to_state(words)
            # InvMixColumns.
            for c in range(4):
                col = [state[r][c] for r in range(4)]
                state[0][c] = (
                    gf_mul(col[0], 14) ^ gf_mul(col[1], 11)
                    ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9)
                )
                state[1][c] = (
                    gf_mul(col[0], 9) ^ gf_mul(col[1], 14)
                    ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13)
                )
                state[2][c] = (
                    gf_mul(col[0], 13) ^ gf_mul(col[1], 9)
                    ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11)
                )
                state[3][c] = (
                    gf_mul(col[0], 11) ^ gf_mul(col[1], 13)
                    ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14)
                )

        for r in range(1, 4):
            state[r] = state[r][-r:] + state[r][:-r]
        state = [[INV_SBOX[b] for b in row] for row in state]
        words = [w ^ rk[i] for i, w in enumerate(from_state(state))]
        return _words_to_bytes(words)

    # -- vectorized encryption ----------------------------------------------------

    def encrypt_batch(
        self, plaintexts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encrypt N blocks at once.

        Each round runs on the whole ``(N, 16)`` byte matrix: the state
        is ``(N, 4)`` big-endian words, whose byte view is the 16 state
        bytes in FIPS-197 order.  ShiftRows is one gather of those
        bytes (:data:`_SHIFT_ROWS`), which are also the round's 16
        lookup indices; one gather from the flat Te0..Te3 table and an
        XOR-reduce over each column's 4 words give the next state.  The
        final round gathers Te4, masks each word down to its byte and
        ORs the columns together.  Bit-identical to
        :meth:`encrypt_block_traced`, lookup order included.

        Parameters
        ----------
        plaintexts:
            ``(N, 16) uint8`` array (any memory layout); any other
            shape or dtype raises :class:`ValueError`.

        Returns
        -------
        ciphertexts:
            ``(N, 16) uint8`` array.
        lookup_bytes:
            ``(N, 160) uint8`` C-contiguous array: per encryption, the
            byte index of each T-table lookup in issue order.  The
            table id of lookup ``k`` is fixed by position (see
            :func:`lookup_table_ids`) and identical across encryptions.
        """
        if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
            raise ValueError("plaintexts must have shape (N, 16)")
        if plaintexts.dtype != np.uint8:
            raise ValueError(
                f"plaintexts must be uint8, got {plaintexts.dtype}"
            )
        n = plaintexts.shape[0]
        rk = self._np_round_keys
        lookup_bytes = np.empty((n, LOOKUPS_PER_ENCRYPTION), dtype=np.uint8)

        state = _be_words(np.ascontiguousarray(plaintexts).view(">u4") ^ rk[0])
        for round_index in range(1, 10):
            b = state.view(np.uint8)[:, _SHIFT_ROWS]
            lookup_bytes[:, 16 * (round_index - 1):16 * round_index] = b
            t = _TE_FLAT[b + _TE_OFFSETS].reshape(n, 4, 4)
            state = _be_words(
                np.bitwise_xor.reduce(t, axis=2) ^ rk[round_index]
            )

        b = state.view(np.uint8)[:, _SHIFT_ROWS]
        lookup_bytes[:, 144:] = b
        t = (_TE4[b] & _FINAL_MASKS).reshape(n, 4, 4)
        out = _be_words(np.bitwise_or.reduce(t, axis=2) ^ rk[10])
        return out.view(np.uint8), lookup_bytes


def _be_words(words: np.ndarray) -> np.ndarray:
    """``(N, 4)`` words as a C-ordered big-endian copy.

    The round's fancy gathers come out Fortran-ordered, and so does
    the reduce over them; the byte view of the next ShiftRows gather
    needs C order.
    """
    return words.astype(">u4", order="C")


def lookup_table_ids() -> np.ndarray:
    """Table id of each of the 160 lookups, fixed by position.

    Rounds 1..9 cycle Te0..Te3; the final 16 lookups hit Te4.
    """
    ids = np.empty(LOOKUPS_PER_ENCRYPTION, dtype=np.uint8)
    for k in range(144):
        ids[k] = k % 4
    ids[144:] = 4
    return ids


def aes_lookup_addresses(
    lookups: Sequence[TableLookup], table_base: int = DEFAULT_TABLE_BASE
) -> List[int]:
    """Memory addresses of a scalar lookup trace."""
    return [lookup.address(table_base) for lookup in lookups]
