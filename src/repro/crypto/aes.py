"""AES-128 (FIPS 197), table-driven.

The paper's PAL crypto library includes AES for fast symmetric protection of
data that is too large to push through the TPM's (slow) asymmetric sealed
storage: the common pattern (paper §2.2) seals a symmetric key and encrypts
the bulk data with it on the main CPU.  This module provides the block
cipher plus CBC mode with PKCS#7 padding, which is what
:mod:`repro.core.sealed_storage` uses for bulk payloads.

The S-box is derived from first principles at import; the rounds use
precomputed GF(2^8) multiply tables and fuse ShiftRows into SubBytes.
The test suite pins both directions byte-equal to a textbook
round-by-round oracle.
"""

from __future__ import annotations

from typing import List

from repro.errors import ReproError


def _build_sbox() -> tuple:
    """Compute the AES S-box from first principles (multiplicative inverse
    in GF(2^8) followed by the affine transform)."""
    # Log/antilog tables over GF(2^8) with generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        s = inv
        for _ in range(4):
            s = ((s << 1) | (s >> 7)) & 0xFF
            inv ^= s
        sbox[value] = inv ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return tuple(sbox), tuple(inv_sbox), tuple(exp), tuple(log)


_SBOX, _INV_SBOX, _EXP, _LOG = _build_sbox()


def _gmul(a: int, b: int) -> int:
    """Multiply in GF(2^8)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


# Multiply-by-constant tables for (Inv)MixColumns.
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    bytes(_gmul(n, x) for x in range(256)) for n in (2, 3, 9, 11, 13, 14))

# ShiftRows as a gather over the column-major state (byte (row r, col c)
# is state[4*c + r]): out[i] = state[_SHIFT_ROWS[i]], and likewise for
# the inverse.
_SHIFT_ROWS = tuple(4 * ((c + r) % 4) + r for c in range(4) for r in range(4))
_INV_SHIFT_ROWS = tuple(4 * ((c - r) % 4) + r for c in range(4) for r in range(4))


class AES128:
    """AES with a 128-bit key: block operations plus CBC mode."""

    block_size = 16
    rounds = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ReproError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
        rcon = 1
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= rcon
                rcon = _gmul(rcon, 2)
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        # Group into 11 round keys of 16 bytes (column-major state order).
        return [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]

    # -- block primitives ----------------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(plaintext) != 16:
            raise ReproError("AES block must be 16 bytes")
        round_keys = self._round_keys
        state = [p ^ k for p, k in zip(plaintext, round_keys[0])]
        for rnd in range(1, 10):
            # SubBytes and ShiftRows in one gather, then MixColumns and
            # AddRoundKey column by column.
            t = [_SBOX[state[i]] for i in _SHIFT_ROWS]
            k = round_keys[rnd]
            state = []
            for c in range(0, 16, 4):
                a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
                state += (
                    _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3 ^ k[c],
                    a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3 ^ k[c + 1],
                    a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3] ^ k[c + 2],
                    _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3] ^ k[c + 3],
                )
        return bytes(_SBOX[state[i]] ^ rk
                     for i, rk in zip(_SHIFT_ROWS, round_keys[10]))

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(ciphertext) != 16:
            raise ReproError("AES block must be 16 bytes")
        round_keys = self._round_keys
        state = [c ^ k for c, k in zip(ciphertext, round_keys[10])]
        for rnd in range(9, 0, -1):
            # InvShiftRows and InvSubBytes in one gather, AddRoundKey,
            # then InvMixColumns column by column.
            k = round_keys[rnd]
            t = [_INV_SBOX[state[i]] ^ kj for i, kj in zip(_INV_SHIFT_ROWS, k)]
            state = []
            for c in range(0, 16, 4):
                a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
                state += (
                    _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3],
                    _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3],
                    _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3],
                    _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3],
                )
        return bytes(_INV_SBOX[state[i]] ^ rk
                     for i, rk in zip(_INV_SHIFT_ROWS, round_keys[0]))

    # -- CBC mode ------------------------------------------------------------

    def encrypt_cbc(self, plaintext: bytes, iv: bytes) -> bytes:
        """CBC-encrypt ``plaintext`` (PKCS#7 padded) under ``iv``."""
        if len(iv) != 16:
            raise ReproError("IV must be 16 bytes")
        pad = 16 - (len(plaintext) % 16)
        padded = plaintext + bytes([pad]) * pad
        out = bytearray()
        prev = iv
        for i in range(0, len(padded), 16):
            block = bytes(a ^ b for a, b in zip(padded[i : i + 16], prev))
            prev = self.encrypt_block(block)
            out += prev
        return bytes(out)

    def decrypt_cbc(self, ciphertext: bytes, iv: bytes) -> bytes:
        """CBC-decrypt and strip PKCS#7 padding; raises on bad padding."""
        if len(iv) != 16:
            raise ReproError("IV must be 16 bytes")
        if len(ciphertext) == 0 or len(ciphertext) % 16 != 0:
            raise ReproError("ciphertext length must be a positive multiple of 16")
        out = bytearray()
        prev = iv
        for i in range(0, len(ciphertext), 16):
            block = ciphertext[i : i + 16]
            plain = self.decrypt_block(block)
            out += bytes(a ^ b for a, b in zip(plain, prev))
            prev = block
        pad = out[-1]
        if pad < 1 or pad > 16 or out[-pad:] != bytes([pad]) * pad:
            raise ReproError("bad PKCS#7 padding")
        return bytes(out[:-pad])
