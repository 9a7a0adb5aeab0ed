"""From-spec reference implementations, kept as test oracles.

The product hashes in :mod:`repro.crypto` delegate to :mod:`hashlib` and
the product AES is table-driven.  The code here is the textbook algorithm
each one replaces — SHA-1 (FIPS 180-1), MD5 (RFC 1321), SHA-512 (FIPS
180-2) compression with explicit padding, and AES-128 (FIPS 197) as
separate SubBytes/ShiftRows/MixColumns/AddRoundKey steps over an S-box
derived from the field inverse.  The differential tests drive product and
oracle with the same inputs and require byte-identical outputs.
"""

from __future__ import annotations

import math
import struct
from typing import List

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


class _MerkleDamgard:
    """Shared buffering and padding of the three hashes below.

    Subclasses set ``_INIT``, ``block_size``, ``digest_size``, the
    length-field width and byte order, and implement ``_compress``.
    """

    _INIT: tuple = ()
    block_size = 64
    digest_size = 0
    _ORDER = ">"
    _WORD = "I"
    _LENGTH_BYTES = 8

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(self._INIT)
        self._buffer = b""
        self._length = 0
        self.update(data)

    def update(self, data: bytes) -> "_MerkleDamgard":
        self._length += len(data)
        self._buffer += data
        size = self.block_size
        while len(self._buffer) >= size:
            self._compress(self._buffer[:size])
            self._buffer = self._buffer[size:]
        return self

    def _compress(self, block: bytes) -> None:
        raise NotImplementedError

    def copy(self) -> "_MerkleDamgard":
        clone = type(self)()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        clone = self.copy()
        size = self.block_size
        # 0x80, zeros, then the message length in bits.
        pad_len = (size - self._LENGTH_BYTES - 1 - self._length) % size
        bit_length = (self._length * 8).to_bytes(
            self._LENGTH_BYTES, "big" if self._ORDER == ">" else "little")
        clone.update(b"\x80" + b"\x00" * pad_len + bit_length)
        assert not clone._buffer
        return struct.pack(f"{self._ORDER}{len(self._h)}{self._WORD}", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()


def _rotl32(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


def _rotr64(value: int, amount: int) -> int:
    return ((value >> amount) | (value << (64 - amount))) & _MASK64


class SHA1(_MerkleDamgard):
    """SHA-1, FIPS 180-1."""

    _INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    digest_size = 20

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif t < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif t < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            tmp = (_rotl32(a, 5) + f + e + k + w[t]) & _MASK32
            e, d, c, b, a = d, c, _rotl32(b, 30), a, tmp
        self._h = [(x + y) & _MASK32 for x, y in zip(self._h, (a, b, c, d, e))]


_MD5_S = (
    [7, 12, 17, 22] * 4
    + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)
_MD5_K = [int(abs(math.sin(i + 1)) * 2 ** 32) & _MASK32 for i in range(64)]


class MD5(_MerkleDamgard):
    """MD5, RFC 1321."""

    _INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    digest_size = 16
    _ORDER = "<"

    def _compress(self, block: bytes) -> None:
        m = struct.unpack("<16I", block)
        a, b, c, d = self._h
        for i in range(64):
            if i < 16:
                f, g = (b & c) | (~b & d), i
            elif i < 32:
                f, g = (d & b) | (~d & c), (5 * i + 1) % 16
            elif i < 48:
                f, g = b ^ c ^ d, (3 * i + 5) % 16
            else:
                f, g = c ^ (b | (~d & _MASK32)), (7 * i) % 16
            f = (f + a + _MD5_K[i] + m[g]) & _MASK32
            a, d, c = d, c, b
            b = (b + _rotl32(f, _MD5_S[i])) & _MASK32
        self._h = [(x + y) & _MASK32 for x, y in zip(self._h, (a, b, c, d))]


_SHA512_K = [
    0x428A2F98D728AE22, 0x7137449123EF65CD, 0xB5C0FBCFEC4D3B2F, 0xE9B5DBA58189DBBC,
    0x3956C25BF348B538, 0x59F111F1B605D019, 0x923F82A4AF194F9B, 0xAB1C5ED5DA6D8118,
    0xD807AA98A3030242, 0x12835B0145706FBE, 0x243185BE4EE4B28C, 0x550C7DC3D5FFB4E2,
    0x72BE5D74F27B896F, 0x80DEB1FE3B1696B1, 0x9BDC06A725C71235, 0xC19BF174CF692694,
    0xE49B69C19EF14AD2, 0xEFBE4786384F25E3, 0x0FC19DC68B8CD5B5, 0x240CA1CC77AC9C65,
    0x2DE92C6F592B0275, 0x4A7484AA6EA6E483, 0x5CB0A9DCBD41FBD4, 0x76F988DA831153B5,
    0x983E5152EE66DFAB, 0xA831C66D2DB43210, 0xB00327C898FB213F, 0xBF597FC7BEEF0EE4,
    0xC6E00BF33DA88FC2, 0xD5A79147930AA725, 0x06CA6351E003826F, 0x142929670A0E6E70,
    0x27B70A8546D22FFC, 0x2E1B21385C26C926, 0x4D2C6DFC5AC42AED, 0x53380D139D95B3DF,
    0x650A73548BAF63DE, 0x766A0ABB3C77B2A8, 0x81C2C92E47EDAEE6, 0x92722C851482353B,
    0xA2BFE8A14CF10364, 0xA81A664BBC423001, 0xC24B8B70D0F89791, 0xC76C51A30654BE30,
    0xD192E819D6EF5218, 0xD69906245565A910, 0xF40E35855771202A, 0x106AA07032BBD1B8,
    0x19A4C116B8D2D0C8, 0x1E376C085141AB53, 0x2748774CDF8EEB99, 0x34B0BCB5E19B48A8,
    0x391C0CB3C5C95A63, 0x4ED8AA4AE3418ACB, 0x5B9CCA4F7763E373, 0x682E6FF3D6B2B8A3,
    0x748F82EE5DEFB2FC, 0x78A5636F43172F60, 0x84C87814A1F0AB72, 0x8CC702081A6439EC,
    0x90BEFFFA23631E28, 0xA4506CEBDE82BDE9, 0xBEF9A3F7B2C67915, 0xC67178F2E372532B,
    0xCA273ECEEA26619C, 0xD186B8C721C0C207, 0xEADA7DD6CDE0EB1E, 0xF57D4F7FEE6ED178,
    0x06F067AA72176FBA, 0x0A637DC5A2C898A6, 0x113F9804BEF90DAE, 0x1B710B35131C471B,
    0x28DB77F523047D84, 0x32CAAB7B40C72493, 0x3C9EBE0A15C9BEBC, 0x431D67C49C100D4C,
    0x4CC5D4BECB3E42B6, 0x597F299CFC657E2A, 0x5FCB6FAB3AD6FAEC, 0x6C44198C4A475817,
]


class SHA512(_MerkleDamgard):
    """SHA-512, FIPS 180-2."""

    _INIT = (
        0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1,
        0x510E527FADE682D1, 0x9B05688C2B3E6C1F, 0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
    )
    block_size = 128
    digest_size = 64
    _WORD = "Q"
    _LENGTH_BYTES = 16

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16Q", block))
        for t in range(16, 80):
            s0 = _rotr64(w[t - 15], 1) ^ _rotr64(w[t - 15], 8) ^ (w[t - 15] >> 7)
            s1 = _rotr64(w[t - 2], 19) ^ _rotr64(w[t - 2], 61) ^ (w[t - 2] >> 6)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK64)
        a, b, c, d, e, f, g, h = self._h
        for t in range(80):
            big_s1 = _rotr64(e, 14) ^ _rotr64(e, 18) ^ _rotr64(e, 41)
            ch = (e & f) ^ (~e & g)
            t1 = (h + big_s1 + ch + _SHA512_K[t] + w[t]) & _MASK64
            big_s0 = _rotr64(a, 28) ^ _rotr64(a, 34) ^ _rotr64(a, 39)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _MASK64
            h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _MASK64, c, b, a, (t1 + t2) & _MASK64
        self._h = [(x + y) & _MASK64 for x, y in zip(self._h, (a, b, c, d, e, f, g, h))]


# -- AES-128 -----------------------------------------------------------------


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1 (shift and add)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return product


def _sbox() -> List[int]:
    """S(x) = affine(x^-1), with the inverse found by search."""
    box = []
    for x in range(256):
        inv = next((y for y in range(1, 256) if gf_mul(x, y) == 1), 0)
        s = inv
        for shift in range(1, 5):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        box.append(s ^ 0x63)
    return box


SBOX = _sbox()
INV_SBOX = [SBOX.index(x) for x in range(256)]


def _expand_key(key: bytes) -> List[List[int]]:
    words = [list(key[4 * i: 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = [SBOX[b] for b in temp[1:] + temp[:1]]
            temp[0] ^= rcon
            rcon = gf_mul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [sum(words[4 * r: 4 * r + 4], []) for r in range(11)]


def _add_round_key(state: List[int], rk: List[int]) -> List[int]:
    return [s ^ k for s, k in zip(state, rk)]


def _sub_bytes(state: List[int], box: List[int]) -> List[int]:
    return [box[s] for s in state]


def _shift_rows(state: List[int]) -> List[int]:
    # Column-major state: byte (row r, col c) is state[4*c + r].
    out = [0] * 16
    for c in range(4):
        for r in range(4):
            out[4 * c + r] = state[4 * ((c + r) % 4) + r]
    return out


def _inv_shift_rows(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        for r in range(4):
            out[4 * ((c + r) % 4) + r] = state[4 * c + r]
    return out


def _mix_columns(state: List[int], inverse: bool) -> List[int]:
    coeffs = (14, 11, 13, 9) if inverse else (2, 3, 1, 1)
    out = [0] * 16
    for c in range(4):
        col = state[4 * c: 4 * c + 4]
        for r in range(4):
            out[4 * c + r] = (
                gf_mul(coeffs[0], col[r])
                ^ gf_mul(coeffs[1], col[(r + 1) % 4])
                ^ gf_mul(coeffs[2], col[(r + 2) % 4])
                ^ gf_mul(coeffs[3], col[(r + 3) % 4])
            )
    return out


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """FIPS 197 Cipher() for a 128-bit key."""
    rks = _expand_key(key)
    state = _add_round_key(list(block), rks[0])
    for rnd in range(1, 10):
        state = _mix_columns(_shift_rows(_sub_bytes(state, SBOX)), inverse=False)
        state = _add_round_key(state, rks[rnd])
    state = _shift_rows(_sub_bytes(state, SBOX))
    return bytes(_add_round_key(state, rks[10]))


def aes128_decrypt_block(key: bytes, block: bytes) -> bytes:
    """FIPS 197 InvCipher() for a 128-bit key."""
    rks = _expand_key(key)
    state = _add_round_key(list(block), rks[10])
    for rnd in range(9, 0, -1):
        state = _sub_bytes(_inv_shift_rows(state), INV_SBOX)
        state = _mix_columns(_add_round_key(state, rks[rnd]), inverse=True)
    state = _sub_bytes(_inv_shift_rows(state), INV_SBOX)
    return bytes(_add_round_key(state, rks[0]))
